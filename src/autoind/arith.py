"""Exact arithmetic in the value group (roots of unity) x q^Q and its group ring.

A :class:`Coordinate` is one Satake eigenvalue: a root of unity ``e^{2 pi i a/N}``
times a rational power of the formal base ``q`` (``q`` transcendental, ``q > 1``;
the unramified twist ``nu`` acts as multiplication by ``q^{-1}``).

:class:`Cyclo` is an element of Q(zeta_N): int numerators over one positive int
denominator, reduced modulo Phi_N by folding exponents with x^N = 1 and then by
integer long division.  :class:`QCyclo` is the ring where sums of coordinates
live: finite Q-linear combinations of q-powers with ``Cyclo`` coefficients.
Zero testing is exact, so identities between Hecke traces are checked with
tolerance zero.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping


# ---------------------------------------------------------------------------
# Coordinates


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class Coordinate:
    """One eigenvalue ``e^{2 pi i zeta} * q^qexp`` with ``zeta``, ``qexp`` rational.

    ``zeta`` is stored reduced in ``[0, 1)``; multiplication is componentwise
    addition.  The total order (lexicographic on ``(qexp, N, a)`` for
    ``zeta = a/N``) is only used for canonical multiset sorting.
    """

    zeta: Fraction
    qexp: Fraction

    def __post_init__(self):
        z = _as_fraction(self.zeta) % 1
        object.__setattr__(self, "zeta", z)
        object.__setattr__(self, "qexp", _as_fraction(self.qexp))

    # group law ------------------------------------------------------------

    def __mul__(self, other: "Coordinate") -> "Coordinate":
        return Coordinate(self.zeta + other.zeta, self.qexp + other.qexp)

    def inverse(self) -> "Coordinate":
        return Coordinate(-self.zeta, -self.qexp)

    def __pow__(self, k: int) -> "Coordinate":
        return Coordinate(k * self.zeta, k * self.qexp)

    def root(self, k: int) -> "Coordinate":
        """Canonical k-th root; all others are this times ``(j/k, 0)``."""
        if k < 1:
            raise ValueError("root index must be >= 1")
        return Coordinate(Fraction(self.zeta, k), Fraction(self.qexp, k))

    # order / torsion ------------------------------------------------------

    def torsion_order(self):
        """Multiplicative order, or None if the q-part is nontrivial."""
        if self.qexp != 0:
            return None
        return self.zeta.denominator

    @property
    def sort_key(self):
        return (self.qexp, self.zeta.denominator, self.zeta.numerator)

    def __lt__(self, other: "Coordinate"):
        return self.sort_key < other.sort_key

    # io -------------------------------------------------------------------

    def to_json(self):
        return {
            "zeta": [self.zeta.numerator, self.zeta.denominator],
            "qexp": [self.qexp.numerator, self.qexp.denominator],
        }

    @classmethod
    def from_json(cls, doc) -> "Coordinate":
        a, n = doc["zeta"]
        p, q = doc["qexp"]
        return cls(Fraction(a, n), Fraction(p, q))

    @classmethod
    def of(cls, zeta=0, qexp=0) -> "Coordinate":
        return cls(_as_fraction(zeta), _as_fraction(qexp))

    def __repr__(self):
        return f"Coordinate({self.zeta}, {self.qexp})"


ONE = Coordinate(Fraction(0), Fraction(0))


def primitive_root(s: int) -> Coordinate:
    """The canonical primitive s-th root of unity ``(1/s, 0)``."""
    return Coordinate(Fraction(1, s), Fraction(0))


# ---------------------------------------------------------------------------
# Cyclotomic polynomials (coefficient index = degree)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Integer coefficients of Phi_n, cached (write-once memo table).

    Both rules below follow from x^n - 1 = prod_{d | n} Phi_d.  With p the
    least prime factor of n and m = n/p, Phi_n(x) is Phi_m(x^p) when p
    divides m, and otherwise the exact integer quotient Phi_m(x^p) / Phi_m(x).
    """
    if n == 1:
        return (-1, 1)
    p = next(k for k in range(2, n + 1) if n % k == 0)
    phi = cyclotomic_polynomial(n // p)
    rem = [0] * (p * (len(phi) - 1) + 1)
    rem[::p] = phi
    return tuple(rem if (n // p) % p == 0 else _divide(rem, n // p))


@lru_cache(maxsize=None)
def _divisor(n: int):
    """``(phi(n), ((j, c), ...))``: the degree of Phi_n and its nonzero lower terms."""
    phi = cyclotomic_polynomial(n)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _divide(v: list, n: int) -> list:
    """Integer long division by the monic Phi_n, skipping its zero terms:
    returns the quotient and leaves the remainder in ``v[:phi(n)]``."""
    deg, terms = _divisor(n)
    quot = [0] * max(len(v) - deg, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = v[k + deg]
        if c:
            for j, p in terms:
                v[k + j] -= c * p
    return quot


def _reduce(v: list, n: int) -> list:
    """Trimmed remainder of the integer vector v modulo Phi_n (v is consumed).
    Exponents fold first by x^n = 1, exact because Phi_n divides x^n - 1."""
    for start in range(n, len(v), n):
        chunk = v[start : start + n]
        v[: len(chunk)] = map(add, v, chunk)
    del v[n:]
    _divide(v, n)
    del v[_divisor(n)[0] :]
    while v and not v[-1]:
        v.pop()
    return v


# ---------------------------------------------------------------------------
# Cyclotomic elements


class Cyclo:
    """The element ``sum_i num[i] zeta_N^i / den`` of Q(zeta_N), N the conductor.

    ``num`` is the trimmed int remainder modulo Phi_N (at most phi(N) entries)
    and ``den`` a positive int with gcd(num, den) = 1: one representation per
    element and conductor.  The constructor takes ints or rationals of any
    length over ``den`` and reduces them.  No minimal-conductor normal form:
    mixed-conductor operations lift to the lcm of the conductors, and
    equality is a zero test of the difference.
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs: Iterable, den: int = 1):
        if conductor < 1:
            raise ValueError(f"conductor must be >= 1, got {conductor}")
        v = list(coeffs)
        if not all(map(isinstance, v, repeat(int))):
            fs = [_as_fraction(c) for c in v]
            common = lcm(*(f.denominator for f in fs))
            v = [f.numerator * (common // f.denominator) for f in fs]
            den *= common
        v = _reduce(v, conductor)
        g = gcd(*v, den)
        self.conductor = conductor
        self.num = tuple(c // g for c in v) if g > 1 else tuple(v)
        self.den = den // g

    @classmethod
    def rational(cls, c) -> "Cyclo":
        return cls(1, (c,))

    @classmethod
    def root_of_unity(cls, a: int, n: int) -> "Cyclo":
        """zeta_n^a reduced mod Phi_n."""
        return cls(n, [0] * (a % n) + [1])

    @property
    def coeffs(self):
        """The coefficients as a tuple of Fractions (a read-only view)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def lift(self, m: int) -> "Cyclo":
        """Image in Q(zeta_m) for conductor n dividing m (zeta_n = zeta_m^{m/n})."""
        if m % self.conductor:
            raise ValueError("lift target must be a multiple of the conductor")
        return Cyclo.sum((self, Cyclo(m, ())))

    def __add__(self, other: "Cyclo") -> "Cyclo":
        return Cyclo.sum((self, other))

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.conductor, [-c for c in self.num], self.den)

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        return self + (-other)

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        """Sparse integer convolution at the lcm conductor, reduced once."""
        m = lcm(self.conductor, other.conductor)
        sa, sb = m // self.conductor, m // other.conductor
        bs = [(j * sb, c) for j, c in enumerate(other.num) if c]
        out = [0] * ((len(self.num) - 1) * sa + (len(other.num) - 1) * sb + 1)
        for i, ca in enumerate(self.num):
            if ca:
                i *= sa
                for j, cb in bs:
                    out[i + j] += ca * cb
        return Cyclo(m, out, self.den * other.den)

    def scale(self, c) -> "Cyclo":
        c = _as_fraction(c)
        return Cyclo(self.conductor, [c.numerator * x for x in self.num], self.den * c.denominator)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        if not isinstance(other, Cyclo):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # no canonical conductor

    @classmethod
    def sum(cls, items) -> "Cyclo":
        """Sum at the lcm conductor: the numerators, spread to it and brought
        over the lcm denominator, are added and then reduced once."""
        items = list(items)
        m = lcm(*(it.conductor for it in items))
        den = lcm(*(it.den for it in items))
        stops = [(len(it.num) - 1) * (m // it.conductor) + 1 for it in items]
        acc = [0] * max(stops, default=0)
        for it, stop in zip(items, stops):
            if it.num:
                step, k = m // it.conductor, den // it.den
                scaled = it.num if k == 1 else [k * c for c in it.num]
                acc[:stop:step] = map(add, acc[:stop:step], scaled)
        return cls(m, acc, den)

    def __repr__(self):
        return f"Cyclo({self.conductor}, {list(self.coeffs)})"


# ---------------------------------------------------------------------------
# The group ring Q(mu_infty)[q^Q]


class QCyclo:
    """Finite map from rational q-exponents to cyclotomic coefficients.

    The exact evaluation ring for Satake transforms: closed under the ring
    operations, with decidable zero test (reduce every coefficient mod its
    cyclotomic polynomial and check the vectors vanish).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Fraction, Cyclo]):
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    @classmethod
    def zero(cls) -> "QCyclo":
        return cls({})

    @classmethod
    def rational(cls, c) -> "QCyclo":
        return cls({Fraction(0): Cyclo.rational(c)})

    @classmethod
    def from_coordinate(cls, x: Coordinate) -> "QCyclo":
        z = x.zeta
        return cls({x.qexp: Cyclo.root_of_unity(z.numerator, z.denominator)})

    def __add__(self, other: "QCyclo") -> "QCyclo":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return QCyclo(out)

    def __neg__(self) -> "QCyclo":
        return QCyclo({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "QCyclo") -> "QCyclo":
        return self + (-other)

    def __mul__(self, other: "QCyclo") -> "QCyclo":
        out: dict[Fraction, Cyclo] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                p = c1 * c2
                out[e] = out[e] + p if e in out else p
        return QCyclo(out)

    def scale(self, c) -> "QCyclo":
        return QCyclo({e: x.scale(c) for e, x in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, QCyclo):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    @classmethod
    def sum(cls, items: Iterable["QCyclo"]) -> "QCyclo":
        buckets: dict[Fraction, list[Cyclo]] = {}
        for it in items:
            for e, c in it.terms.items():
                buckets.setdefault(e, []).append(c)
        return QCyclo({e: Cyclo.sum(cs) for e, cs in buckets.items()})

    # io -------------------------------------------------------------------

    def to_json(self):
        return {"terms": [
            {
                "qexp": [e.numerator, e.denominator],
                "conductor": c.conductor,
                "coeffs": [[x.numerator, x.denominator] for x in c.coeffs],
            }
            for e, c in sorted(self.terms.items())
        ]}

    @classmethod
    def from_json(cls, doc) -> "QCyclo":
        terms = {}
        for t in doc["terms"]:
            p, q = t["qexp"]
            coeffs = tuple(Fraction(a, b) for a, b in t["coeffs"])
            terms[Fraction(p, q)] = Cyclo(t["conductor"], coeffs)
        return cls(terms)

    def __repr__(self):
        return f"QCyclo({self.terms!r})"
