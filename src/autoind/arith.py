"""The cyclotomic kernel: exact arithmetic in Q(zeta_N) and in its group ring over q^Q.

:class:`Cyclo` is an element of Q(zeta_N): int numerators over one positive int
denominator, reduced modulo Phi_N by folding exponents with x^N = 1, then by
integer long division by sparse multiples of Phi_N, one prime of N at a time,
ending at Phi_N itself.  :class:`QCyclo` is the ring where sums of coordinates
live: Q-linear sums of q-powers with ``Cyclo`` coefficients, the q-exponents kept
as int numerators over one least common denominator, so equality compares ints.
Every sum and product of ``Cyclo``s, in both classes and in ``hecke.satake_eval``,
goes through one accumulator, :func:`_product_sum`: int products spread into one
vector at the lcm conductor and reduced once, one ``Cyclo`` per q-exponent.  Zero
tests are exact, so Hecke trace identities hold with tolerance zero.  Only the
Hecke layer and ``verify`` load this kernel; coordinates are :mod:`autoind.values`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping

from .errors import BudgetExceeded
from .values import Coordinate, _new, json_int, json_pair

# Largest conductor of a Cyclo (about N entries; the lcm of two document
# conductors can be their product), above the seeded suites' lcm(1..12) = 27720.
MAX_CONDUCTOR = 30_000


# ---------------------------------------------------------------------------
# Cyclotomic polynomials (coefficient index = degree)


def _least_prime(n: int) -> int:
    """The least prime factor of n >= 2, by trial division."""
    return next(k for k in range(2, n + 1) if n % k == 0)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Integer coefficients of Phi_n, cached (write-once memo table).

    Both rules below follow from x^n - 1 = prod_{d | n} Phi_d.  With p the
    least prime factor of n and m = n/p, Phi_n(x) is Phi_m(x^p) when p
    divides m, and otherwise the exact integer quotient Phi_m(x^p) / Phi_m(x).
    """
    if n == 1:
        return (-1, 1)
    p = _least_prime(n)
    phi = cyclotomic_polynomial(n // p)
    rem = [0] * (p * (len(phi) - 1) + 1)
    rem[::p] = phi
    return tuple(rem if (n // p) % p == 0 else _divide(rem, n // p))


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


@lru_cache(maxsize=None)
def _chain(n: int):
    """``(degree, nonzero lower terms)`` of each P_i(x) = Phi_{m_i}(x^(n/m_i)), where
    m_i = p_1 ... p_i for the primes p_1 < p_2 < ... of n: each is a multiple of the
    next (Phi_{ab}(x) divides Phi_a(x^b) for a prime b not dividing a), the last Phi_n."""
    chain, m, rest = [], 1, n
    while rest > 1:
        p = _least_prime(rest)
        while rest % p == 0:
            rest //= p
        m *= p
        deg, terms = _divisor(m)
        step = n // m
        chain.append((deg * step, tuple((j * step, c) for j, c in terms)))
    return tuple(chain)


def _reduce(v: list, n: int) -> list:
    """Trimmed remainder of the integer vector v modulo Phi_n (v is consumed).
    Exponents fold first by x^n = 1, exact because Phi_n divides x^n - 1; then v
    is divided by each P_i of :func:`_chain` in turn, each a multiple of Phi_n and
    the last Phi_n itself, so v ends as its remainder modulo Phi_n.  A stage skips
    zero leading entries at C speed: ``compress`` reads ``reversed(v)`` live, and
    each update lands below the cursor, so it is seen."""
    for start in range(n, len(v), n):
        chunk = v[start : start + n]
        v[: len(chunk)] = map(add, v, chunk)
    del v[n:]
    for deg, terms in _chain(n):
        if len(v) > deg:
            for k in compress(range(len(v) - deg - 1, -1, -1), reversed(v)):
                c = v[k + deg]
                for j, p in terms:
                    v[k + j] -= c * p
            del v[deg:]
    if v and not v[-1]:
        del v[next(compress(range(len(v), 0, -1), reversed(v)), 0) :]
    return v


# ---------------------------------------------------------------------------
# Cyclotomic elements


def _signed_gcd(den: int, *ints: int) -> int:
    """gcd(den, ints) with the sign of den, so dividing leaves den positive; den 0 is refused."""
    if not den:
        raise ValueError("denominator must be nonzero")
    return gcd(den, *ints) if den > 0 else -gcd(den, *ints)


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
    element and conductor.  The constructor, the door for values from outside,
    takes ints or Fractions (no floats) over a nonzero int ``den`` (a negative one
    changes the signs) and reduces them; kernel results set their fields from the
    ints they hold with ``_set``, its last step.  No minimal-conductor normal form:
    mixed-conductor operations lift to the lcm of the conductors.  Equality
    compares ``num`` and ``den`` at one conductor, and is a zero test of the
    difference across two.  A conductor above ``MAX_CONDUCTOR`` raises
    :class:`BudgetExceeded` before any allocation.
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs: Iterable, den: int = 1):
        _bounded(conductor)
        v = list(coeffs)
        if not all(map(isinstance, v, repeat((int, Fraction)))):
            raise ValueError(f"coefficients must be ints or Fractions, got {v!r}")
        common = lcm(*(f.denominator for f in v))
        v = [f.numerator * (common // f.denominator) for f in v]
        self._set(conductor, _reduce(v, conductor), den * common)

    def _set(self, conductor: int, v: list, den: int) -> "Cyclo":
        """Set the fields from a trimmed remainder v over den, dividing out their signed gcd."""
        g = _signed_gcd(den, *v)
        self.conductor = conductor
        self.num = tuple(c // g for c in v) if g != 1 else tuple(v)
        self.den = den // g
        return self

    @classmethod
    def rational(cls, c) -> "Cyclo":
        if not isinstance(c, (int, Fraction)):
            raise ValueError(f"a rational must be an int or a Fraction, got {c!r}")
        return _new(cls)._set(1, [c.numerator] if c else [], c.denominator)

    @classmethod
    def root_of_unity(cls, a: int, n: int) -> "Cyclo":
        """zeta_n^a reduced mod Phi_n."""
        return _new(cls)._set(n, _reduce([0] * (a % _bounded(n)) + [1], n), 1)

    @property
    def coeffs(self):
        """The coefficients as a tuple of Fractions (a read-only view)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __add__(self, other: "Cyclo") -> "Cyclo":
        return Cyclo.sum((self, other))

    __neg__ = lambda self: self.scale(-1)  # a remainder still: only the gcd is taken

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        return self + (-other)

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        """Sparse integer convolution at the lcm conductor, reduced once."""
        return _product_sum(((self, other._sparse()),))

    def _sparse(self):
        """This as a sparse factor of :func:`_product_sum`."""
        return self.conductor, self.den, [(j, c) for j, c in enumerate(self.num) if c]

    def scale(self, c) -> "Cyclo":
        """c times this, c an int or a Fraction: still a remainder, so only the gcd is taken."""
        k = c.numerator
        v = [k * x for x in self.num] if k else []
        return _new(Cyclo)._set(self.conductor, v, self.den * c.denominator)

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
        """Sum at the lcm conductor: :func:`_product_sum` of the items against
        the unit ``(1, 1, ((0, 1),))``, so no items give zero at conductor 1."""
        return _product_sum([(it, (1, 1, ((0, 1),))) for it in items])

    def __repr__(self):
        return f"Cyclo({self.conductor}, {list(self.coeffs)})"


def _product_sum(pairs) -> Cyclo:
    """The sum of the products over the pairs ``(a, (n, d, terms))`` of a Cyclo a
    and the sparse factor ``sum_(j, c) c zeta_n^j / d``, ``terms`` its nonzero
    (index, value) pairs.  Every product is added as ints over the lcm of the
    denominators into one vector of m slots, m the lcm of the conductors, its
    exponents taken mod m (x^m = 1 modulo Phi_m), reduced once and set by ``_set``:
    the one place where a Cyclo is built from products or sums.  No pairs give zero."""
    m = den = 1
    for a, (n, d, _) in pairs:
        m = lcm(m, a.conductor, n)
        den = lcm(den, a.den * d)
    acc = [0] * _bounded(m)
    for a, (n, d, terms) in pairs:
        sa, sb, k = m // a.conductor, m // n, den // (a.den * d)
        bs = [(j * sb, c * k) for j, c in terms]
        for i, x in enumerate(a.num):
            if x:
                i *= sa
                for j, y in bs:
                    acc[(i + j) % m] += x * y
    return _new(Cyclo)._set(m, _reduce(acc, m), den)


def _filed_sum(den: int, items) -> "QCyclo":
    """The QCyclo over ``den`` of the (q-numerator, product pair) items: the pairs
    filed under their numerator, one :func:`_product_sum` each."""
    buckets: dict[int, list] = {}
    for e, pair in items:
        buckets.setdefault(e, []).append(pair)
    return QCyclo({e: _product_sum(ps) for e, ps in buckets.items()}, den)


# ---------------------------------------------------------------------------
# The group ring Q(mu_infty)[q^Q]


class QCyclo:
    """Finite map from q-exponents e/den to cyclotomic coefficients: ``terms``
    maps each int numerator e to its Cyclo, over one positive int ``den``.

    The exact evaluation ring for Satake transforms.  Zero coefficients are
    dropped, a negative ``den`` changes the keys' signs (zero is refused), then
    ``den`` and the keys are divided by their gcd, so ``den`` is
    the least common q-denominator of the nonzero terms (1 for zero, the empty map).
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: Mapping[int, Cyclo], den: int = 1):
        terms = {e: c for e, c in terms.items() if c.num}
        g = _signed_gcd(den, *terms)
        self.terms = {e // g: c for e, c in terms.items()} if g != 1 else terms
        self.den = den // g

    @classmethod
    def rational(cls, c) -> "QCyclo":
        return cls({0: Cyclo.rational(c)})

    @classmethod
    def from_coordinate(cls, x: Coordinate) -> "QCyclo":
        return cls({x.p: Cyclo.root_of_unity(x.a, x.n)}, x.r)

    def _over(self, den: int) -> dict:
        """The terms keyed by numerators over ``den``, a multiple of ``self.den``."""
        k = den // self.den
        return {e * k: c for e, c in self.terms.items()} if k > 1 else self.terms

    def __add__(self, other: "QCyclo") -> "QCyclo":
        return QCyclo.sum((self, other))

    def __neg__(self) -> "QCyclo":
        return QCyclo({e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other: "QCyclo") -> "QCyclo":
        return self + (-other)

    def __mul__(self, other: "QCyclo") -> "QCyclo":
        """Each pair of terms filed under its output exponent: one Cyclo per exponent."""
        den = lcm(self.den, other.den)
        mine = self._over(den).items()
        theirs = [(e, c._sparse()) for e, c in other._over(den).items()]
        return _filed_sum(den, ((e1 + e2, (c1, b)) for e1, c1 in mine for e2, b in theirs))

    def scale(self, c) -> "QCyclo":
        return QCyclo({e: x.scale(c) for e, x in self.terms.items()}, self.den)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, QCyclo):
            return NotImplemented
        # one den, no zero terms and q transcendental: the same exponents and coefficients
        return self.den == other.den and self.terms == other.terms

    __hash__ = None

    @classmethod
    def sum(cls, items: Iterable["QCyclo"]) -> "QCyclo":
        """The terms of all items filed under their exponent over the lcm of the
        ``den``s, one Cyclo sum each: zero for no items."""
        items = list(items)
        unit = (1, 1, ((0, 1),))
        den = lcm(*(it.den for it in items))
        return _filed_sum(den, ((e, (c, unit)) for it in items for e, c in it._over(den).items()))

    def to_json(self):
        return {"terms": [
            {
                "qexp": [e // gcd(e, self.den), self.den // gcd(e, self.den)],
                "conductor": c.conductor,
                "coeffs": [[x.numerator, x.denominator] for x in c.coeffs],
            }
            for e, c in sorted(self.terms.items())
        ]}

    @classmethod
    def from_json(cls, doc) -> "QCyclo":
        """The terms over the lcm of their q-denominators; a repeated ``qexp`` is summed."""
        parsed = [(Fraction(*json_pair(t["qexp"], "qexp")), t) for t in doc["terms"]]
        den, terms = lcm(*(e.denominator for e, _ in parsed)), {}
        for e, t in parsed:
            coeffs = [Fraction(*json_pair(c, "coeffs")) for c in t["coeffs"]]
            c = Cyclo(json_int(t["conductor"], "conductor"), coeffs)
            e = e.numerator * (den // e.denominator)
            terms[e] = terms[e] + c if e in terms else c
        return cls(terms, den)

    def __repr__(self):
        return f"QCyclo({self.terms!r}, {self.den})"
