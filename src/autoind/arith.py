"""Exact arithmetic in the value group (roots of unity) x q^Q and its group ring.

A :class:`Coordinate` is one Satake eigenvalue ``e^{2 pi i a/n} q^(p/r)``, kept
as four normalised ints; ``q`` is formal (transcendental, ``q > 1``) and the
unramified twist ``nu`` multiplies by ``q^{-1}``.  :class:`Cyclo` is an element
of Q(zeta_N): int numerators over one positive int denominator, reduced modulo
Phi_N by folding exponents with x^N = 1 and then by integer long division.
:class:`QCyclo` is the ring where sums of coordinates live: Q-linear sums of
q-powers with ``Cyclo`` coefficients.  Zero tests are exact, so Hecke trace
identities hold with tolerance zero.  No floats: JSON reads via :func:`json_int`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import add, attrgetter
from typing import Iterable, Mapping

from .errors import BudgetExceeded

# Largest conductor of a Cyclo (about N entries; the lcm of two document
# conductors can be their product), above the seeded suites' lcm(1..12) = 27720.
MAX_CONDUCTOR = 30_000


# ---------------------------------------------------------------------------
# Coordinates


def json_int(value, name: str) -> int:
    """A JSON int; floats and bools are refused."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    return value


def json_fraction(pair, name: str) -> Fraction:
    """A JSON pair ``[numerator, denominator]`` of ints."""
    num, den = pair
    return Fraction(json_int(num, name), json_int(den, name))


class Record:
    """Base of the immutable records: the fields are a subclass's ``__slots__``,
    each set once by its ``__init__`` with :data:`set_field`.  Equality and the
    hash go by the exact class and the field tuple; copy and pickle call the
    constructor on the fields again."""

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda x: (get(x),))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):
        return type(self), self._values(self)

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values(self)))
        return f"{type(self).__name__}({fields})"


set_field = object.__setattr__  # the one way a Record's __init__ sets a field


class Coordinate(Record):
    """One eigenvalue ``e^{2 pi i a/n} * q^(p/r)``: four immutable ints with n, r >= 1,
    0 <= a < n and gcd(a, n) = gcd(p, r) = 1, so equality and the hash are the
    int tuple's and each operation takes an lcm or a gcd per part.
    ``Coordinate(zeta, qexp)`` takes ints or Fractions (``zeta`` mod 1), which
    ``zeta`` and ``qexp`` give back.  The total order, on ``(qexp, n, a)`` as
    ``sort_key``, is only used for canonical multiset sorting.
    """

    __slots__ = ("a", "n", "p", "r")

    def __new__(cls, zeta, qexp):
        n = zeta.denominator
        return _reduced(zeta.numerator % n, n, qexp.numerator, qexp.denominator)

    zeta = property(lambda self: Fraction(self.a, self.n))
    qexp = property(lambda self: Fraction(self.p, self.r))

    def __mul__(self, other: "Coordinate") -> "Coordinate":
        n, r = lcm(self.n, other.n), lcm(self.r, other.r)
        a = (self.a * (n // self.n) + other.a * (n // other.n)) % n
        return _reduced(a, n, self.p * (r // self.r) + other.p * (r // other.r), r)

    def inverse(self) -> "Coordinate":
        return _reduced(-self.a % self.n, self.n, -self.p, self.r)

    def __pow__(self, k: int) -> "Coordinate":
        return _reduced(self.a * k % self.n, self.n, self.p * k, self.r)

    def root(self, k: int) -> "Coordinate":
        """Canonical k-th root; all others are this times ``(j/k, 0)``."""
        if k < 1:
            raise ValueError("root index must be >= 1")
        return _reduced(self.a, self.n * k, self.p, self.r * k)

    def torsion_order(self):
        """Multiplicative order, or None if the q-part is nontrivial."""
        return None if self.p else self.n

    sort_key = property(lambda self: (self.qexp, self.n, self.a))

    def __lt__(self, other: "Coordinate"):
        x, y = self.p * other.r, other.p * self.r
        return x < y or (x == y and (self.n, self.a) < (other.n, other.a))

    def to_json(self):
        return {"zeta": [self.a, self.n], "qexp": [self.p, self.r]}

    @classmethod
    def from_json(cls, doc) -> "Coordinate":
        return cls(json_fraction(doc["zeta"], "zeta"), json_fraction(doc["qexp"], "qexp"))

    of = classmethod(lambda cls, zeta=0, qexp=0: cls(zeta, qexp))
    __reduce__ = lambda self: (_reduced, self._values(self))  # copy and pickle by the ints

    def __repr__(self):
        return f"Coordinate({self.zeta}, {self.qexp})"


_new = object.__new__
_set_a, _set_n, _set_p, _set_r = (Coordinate.__dict__[k].__set__ for k in Coordinate.__slots__)


def _reduced(a: int, n: int, p: int, r: int) -> Coordinate:
    """The coordinate of (a/n, p/r) for n, r >= 1, 0 <= a < n, set by the slot setters."""
    g, h = gcd(a, n), gcd(p, r)
    c = _new(Coordinate)
    _set_a(c, a // g)
    _set_n(c, n // g)
    _set_p(c, p // h)
    _set_r(c, r // h)
    return c


ONE = Coordinate(0, 0)


def primitive_root(s: int) -> Coordinate:
    """The canonical primitive s-th root of unity ``(1/s, 0)``, for s >= 1."""
    return _reduced(1 % s, s, 0, 1)


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


def _bounded(conductor: int) -> int:
    """The conductor, checked before anything of its size is allocated."""
    if conductor < 1:
        raise ValueError(f"conductor must be >= 1, got {conductor}")
    if conductor > MAX_CONDUCTOR:
        raise BudgetExceeded(f"conductor {conductor} exceeds {MAX_CONDUCTOR}")
    return conductor


class Cyclo:
    """The element ``sum_i num[i] zeta_N^i / den`` of Q(zeta_N), N the conductor.

    ``num`` is the trimmed int remainder modulo Phi_N (at most phi(N) entries)
    and ``den`` a positive int with gcd(num, den) = 1: one representation per
    element and conductor.  The constructor takes ints or rationals of any
    length over ``den`` and reduces them.  No minimal-conductor normal form:
    mixed-conductor operations lift to the lcm of the conductors.  Equality
    compares ``num`` and ``den`` at one conductor, and is a zero test of the
    difference across two.  A conductor above
    ``MAX_CONDUCTOR`` raises :class:`BudgetExceeded` before any allocation.
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs: Iterable, den: int = 1):
        _bounded(conductor)
        v = list(coeffs)
        if not all(map(isinstance, v, repeat(int))):
            fs = [Fraction(c) for c in v]
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
        return cls(n, [0] * (a % _bounded(n)) + [1])

    @property
    def coeffs(self):
        """The coefficients as a tuple of Fractions (a read-only view)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __add__(self, other: "Cyclo") -> "Cyclo":
        return Cyclo.sum((self, other))

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.conductor, [-c for c in self.num], self.den)

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        return self + (-other)

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        """Sparse integer convolution at the lcm conductor, reduced once."""
        m = _bounded(lcm(self.conductor, other.conductor))
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
        c = Fraction(c)
        return Cyclo(self.conductor, [c.numerator * x for x in self.num], self.den * c.denominator)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        if not isinstance(other, Cyclo):
            return NotImplemented
        if self.conductor == other.conductor:  # one representation per conductor
            return self.num == other.num and self.den == other.den
        return (self - other).is_zero()

    __hash__ = None  # no canonical conductor

    @classmethod
    def sum(cls, items) -> "Cyclo":
        """Sum at the lcm conductor: the numerators, spread to it and brought
        over the lcm denominator, are added and then reduced once."""
        items = list(items)
        m = _bounded(lcm(*(it.conductor for it in items)))
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

    The exact evaluation ring for Satake transforms, closed under the ring
    operations; zero coefficients are dropped, so zero is the empty map.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Fraction, Cyclo]):
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    @classmethod
    def rational(cls, c) -> "QCyclo":
        return cls({Fraction(0): Cyclo.rational(c)})

    @classmethod
    def from_coordinate(cls, x: Coordinate) -> "QCyclo":
        return cls({x.qexp: Cyclo.root_of_unity(x.a, x.n)})

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
                e, p = e1 + e2, c1 * c2
                out[e] = out[e] + p if e in out else p
        return QCyclo(out)

    def scale(self, c) -> "QCyclo":
        return QCyclo({e: x.scale(c) for e, x in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, QCyclo):
            return NotImplemented
        # no zero terms are kept and q is transcendental: the same exponents,
        # then equal coefficients at each
        return self.terms == other.terms

    __hash__ = None

    @classmethod
    def sum(cls, items: Iterable["QCyclo"]) -> "QCyclo":
        buckets: dict[Fraction, list[Cyclo]] = {}
        for it in items:
            for e, c in it.terms.items():
                buckets.setdefault(e, []).append(c)
        return QCyclo({e: Cyclo.sum(cs) for e, cs in buckets.items()})

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
            coeffs = [json_fraction(c, "coeffs") for c in t["coeffs"]]
            n = json_int(t["conductor"], "conductor")
            e, c = json_fraction(t["qexp"], "qexp"), Cyclo(n, coeffs)
            terms[e] = terms[e] + c if e in terms else c
        return cls(terms)

    def __repr__(self):
        return f"QCyclo({self.terms!r})"
