"""Exact arithmetic in the value group (roots of unity) x q^Q and its group ring.

A :class:`Coordinate` is one Satake eigenvalue: a root of unity ``e^{2 pi i a/N}``
times a rational power of the formal base ``q`` (``q`` transcendental, ``q > 1``;
the unramified twist ``nu`` acts as multiplication by ``q^{-1}``).

:class:`QCyclo` is the ring where sums of coordinates live: finite Q-linear
combinations of q-powers with cyclotomic coefficients, each coefficient reduced
modulo the cyclotomic polynomial of its conductor.  Zero testing is exact, so
identities between Hecke traces can be checked with tolerance zero.

No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
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
# Integer/rational polynomial helpers (coefficient index = degree)


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


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
    if (n // p) % p == 0:
        return tuple(rem)
    deg = len(phi) - 1
    quot = [0] * (len(rem) - deg)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rem[i + deg]
        if c:
            for j in range(deg + 1):
                rem[i + j] -= c * phi[j]
    return tuple(quot)


def _poly_mod_cyclotomic(coeffs, n: int):
    """Remainder of a Fraction polynomial modulo Phi_n (monic, exact)."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rem = list(coeffs)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            rem[i] = Fraction(0)
            for j in range(deg):
                rem[i - deg + j] -= c * phi[j]
    return _trim(rem[:deg])


# ---------------------------------------------------------------------------
# Cyclotomic elements


class Cyclo:
    """An element of Q(zeta_N), as a coefficient vector reduced mod Phi_N.

    No minimal-conductor canonicalization: mixed-conductor operations lift to
    the lcm, and equality goes through common-conductor subtraction.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Iterable[Fraction], reduced=False):
        self.conductor = conductor
        cs = tuple(_as_fraction(c) for c in coeffs)
        self.coeffs = _trim(cs) if reduced else _poly_mod_cyclotomic(cs, conductor)

    @classmethod
    def rational(cls, c) -> "Cyclo":
        return cls(1, (_as_fraction(c),))

    @classmethod
    def root_of_unity(cls, a: int, n: int) -> "Cyclo":
        """zeta_n^a reduced mod Phi_n."""
        a %= n
        return cls(n, (Fraction(0),) * a + (Fraction(1),))

    def lift(self, m: int) -> "Cyclo":
        """Image in Q(zeta_m) for conductor n dividing m (zeta_n = zeta_m^{m/n})."""
        if m == self.conductor:
            return self
        if m % self.conductor:
            raise ValueError("lift target must be a multiple of the conductor")
        step = m // self.conductor
        out = [Fraction(0)] * (len(self.coeffs) * step or 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] = c
        return Cyclo(m, out)

    def _pair(self, other: "Cyclo"):
        m = lcm(self.conductor, other.conductor)
        return self.lift(m), other.lift(m), m

    def __add__(self, other: "Cyclo") -> "Cyclo":
        a, b, m = self._pair(other)
        n = max(len(a.coeffs), len(b.coeffs))
        cs = [Fraction(0)] * n
        for i, c in enumerate(a.coeffs):
            cs[i] += c
        for i, c in enumerate(b.coeffs):
            cs[i] += c
        return Cyclo(m, _trim(cs), reduced=True)

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.conductor, tuple(-c for c in self.coeffs), reduced=True)

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        return self + (-other)

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        a, b, m = self._pair(other)
        if not a.coeffs or not b.coeffs:
            return Cyclo(m, (), reduced=True)
        cs = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, ca in enumerate(a.coeffs):
            if ca:
                for j, cb in enumerate(b.coeffs):
                    if cb:
                        cs[i + j] += ca * cb
        return Cyclo(m, cs)

    def scale(self, c) -> "Cyclo":
        c = _as_fraction(c)
        return Cyclo(self.conductor, tuple(c * x for x in self.coeffs), reduced=True)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b, _ = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        raise TypeError("Cyclo is not hashable (no canonical conductor)")

    @classmethod
    def sum(cls, items) -> "Cyclo":
        items = list(items)
        if not items:
            return cls.rational(0)
        m = 1
        for it in items:
            m = lcm(m, it.conductor)
        n = 0
        lifted = [it.lift(m) for it in items]
        for it in lifted:
            n = max(n, len(it.coeffs))
        cs = [Fraction(0)] * n
        for it in lifted:
            for i, c in enumerate(it.coeffs):
                cs[i] += c
        return Cyclo(m, _trim(cs), reduced=True)

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

    def __hash__(self):
        raise TypeError("QCyclo is not hashable")

    @classmethod
    def sum(cls, items: Iterable["QCyclo"]) -> "QCyclo":
        buckets: dict[Fraction, list[Cyclo]] = {}
        for it in items:
            for e, c in it.terms.items():
                buckets.setdefault(e, []).append(c)
        return QCyclo({e: Cyclo.sum(cs) for e, cs in buckets.items()})

    # io -------------------------------------------------------------------

    def to_json(self):
        out = []
        for e in sorted(self.terms):
            c = self.terms[e]
            out.append(
                {
                    "qexp": [e.numerator, e.denominator],
                    "conductor": c.conductor,
                    "coeffs": [[x.numerator, x.denominator] for x in c.coeffs],
                }
            )
        return {"terms": out}

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
