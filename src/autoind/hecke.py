"""Spherical Hecke algebras through their Satake transforms.

A spherical Hecke element is stored as its Satake transform: a symmetric
Laurent polynomial with :class:`~autoind.arith.QCyclo` coefficients.
Evaluation at a Satake parameter is the trace of the corresponding Hecke
operator, so the transfer homomorphisms below are pinned down by exact
evaluation identities:

* ``satake_eval(f, delta_map(y)) == satake_eval(ai_transfer(f), y.flatten())``
* ``eval of (f_1, .., f_r) at bc_map(y) == satake_eval(bc_transfer(..), y)``

Base change is the Adams operation f(z) -> f(z^s): ``m_lam -> m_{s lam}``.
Induction is the Verschiebung ``p_k -> s p_{k/s}`` (or 0), a ring map on the
elementary basis, so each m_key maps by one integer m-basis row (Macdonald,
Symmetric Functions, I.5).  The tables that depend only on the shape are
memoised, keyed by int tuples: orbits, m-basis products, the rows of e_lam,
their inverse and the induction rows.  Evaluation walks at most ``MAX_ORBIT``
exponent vectors per key, one dot product of packed ints each, and reduces at
most one int vector per output q-exponent: none where the exponent is a rational
times one row, whose remainder is scaled.  The last ``MAX_EVALS`` evaluations
are memoised, keyed by every int of f and y, conductors included: over a split
algebra the two sides of the induction identity are one (f, y), evaluated once.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from math import factorial, gcd, lcm, prod
from operator import mul
from typing import Dict, Tuple

from .arith import Cyclo, QCyclo, _bounded, _product_sum, _remainder, _scaled
from .values import CyclicAlgebra, Record, set_field
from .errors import BudgetExceeded, DegreeBudget, RankMismatch

DEGREE_BUDGET = 12
# Largest orbit (exponent vectors of one m_lam) that evaluation expands: just
# above 6! = 720, the most in the 6 variables the seeded suites and bench use.
MAX_ORBIT = 1_000
# Most ``satake_eval`` results kept at once.  Over a split algebra a transfer
# identity evaluates one (f, y) on both sides, one call after the other.
MAX_EVALS = 16

ExpVec = Tuple[int, ...]


def _perms(exps: ExpVec):
    """Distinct permutations of a multiset, in lexicographic order.

    Next-permutation step: find the last ascent p[i] < p[i+1], swap p[i] with
    the last entry larger than it, then reverse the tail after i.
    """
    p = sorted(exps)
    while True:
        yield tuple(p)
        i = len(p) - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(p) - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1 :] = reversed(p[i + 1 :])


def _dominant(v) -> ExpVec:
    return tuple(sorted(v, reverse=True))


def _orbit_size(v) -> int:
    """The number of distinct permutations of v."""
    return factorial(len(v)) // prod(map(factorial, Counter(v).values()))


@lru_cache(maxsize=None)
def _m_product(ka: ExpVec, kb: ExpVec, n: int) -> Dict[ExpVec, int]:
    """m_ka * m_kb in n variables, as integer m-basis coefficients.

    A key is a partition times a power of e_n: m_ka = e_n^min(ka) m_a, a the
    nonzero parts of ka - min(ka).  Pairs alpha in O(a), beta in O(b) with
    alpha + beta = k vanish past the first l(k) <= l(a) + l(b) slots, so they
    are counted in L = min(n, l(a) + l(b)) slots, with a fixed, as
    |O_L(a)| * #{beta : sort(a + beta) = k} / |O_L(k)|.
    """
    v = ka[-1] + kb[-1]
    a, b = (tuple(e - k[-1] for e in k if e > k[-1]) for k in (ka, kb))
    L = min(n, len(a) + len(b))
    A, B = (p + (0,) * (L - len(p)) for p in (a, b))
    hits = Counter(_dominant(map(sum, zip(A, beta))) for beta in _perms(B))
    size, rest = _orbit_size(A), (v,) * (n - L)
    return {tuple(e + v for e in k) + rest: h * size // _orbit_size(k) for k, h in hits.items()}


def _combine(pairs) -> Dict[ExpVec, QCyclo]:
    """The sum of c * row over (c, row) pairs, each row an integer m-basis map."""
    out: Dict[ExpVec, QCyclo] = {}
    for c, row in pairs:
        for k, v in row.items():
            x = c if v == 1 else c.scale(v)
            out[k] = out[k] + x if k in out else x
    return out


class SymLaurent(Record):
    """Symmetric Laurent polynomial ``(z_1 ... z_n)^(-shift) * body``.

    The body is a genuine symmetric polynomial kept in the monomial symmetric
    basis: a map from dominant exponent vectors (length nvars, int entries >= 0,
    weakly decreasing; the memo tables are keyed by them) to QCyclo
    coefficients.  The normal form takes the shift minimal and never negative,
    so equal Laurent polynomials compare equal.
    """

    __slots__ = ("nvars", "shift", "terms")

    def __init__(self, nvars: int, shift: int, terms: Dict[ExpVec, QCyclo]):
        if nvars < 1:
            raise ValueError(f"nvars must be at least 1, got {nvars}")
        if type(shift) is not int:  # the shift keys the evaluation memo: 1.0 == 1
            raise ValueError(f"shift must be an int, got {shift!r}")
        clean = {}
        for k, c in terms.items():
            if len(k) != nvars or any(type(e) is not int or e < 0 for e in k) or _dominant(k) != k:
                raise ValueError(f"bad dominant exponent vector {k}")
            if not c.is_zero():
                clean[k] = c
        # normal form: strip common z_1..z_n factors into the shift, never
        # below zero (a negative shift folds into the body); zero gets shift 0
        drop = min(shift, min((min(k) for k in clean), default=shift))
        if drop:
            clean = {tuple(e - drop for e in k): c for k, c in clean.items()}
            shift -= drop
        set_field(self, "nvars", nvars)
        set_field(self, "shift", shift)
        set_field(self, "terms", clean)

    # structure -------------------------------------------------------------

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SymLaurent") -> "SymLaurent":
        if self.nvars != other.nvars:
            raise RankMismatch("variable counts differ")
        m = max(self.shift, other.shift)
        # both bodies times e_n^(m - shift), over the common shift m
        pairs = (
            (c, {tuple(e + m - g.shift for e in k): 1})
            for g in (self, other)
            for k, c in g.terms.items()
        )
        return SymLaurent(self.nvars, m, _combine(pairs))

    def __mul__(self, other: "SymLaurent") -> "SymLaurent":
        if self.nvars != other.nvars:
            raise RankMismatch("variable counts differ")
        pairs = (
            (ca * cb, _m_product(ka, kb, self.nvars))
            for ka, ca in self.terms.items()
            for kb, cb in other.terms.items()
        )
        return SymLaurent(self.nvars, self.shift + other.shift, _combine(pairs))

    def scale(self, c) -> "SymLaurent":
        x = c if isinstance(c, QCyclo) else QCyclo.rational(c)
        return SymLaurent(
            self.nvars, self.shift, {k: x * v for k, v in self.terms.items()}
        )

    def __repr__(self):
        return f"SymLaurent(n={self.nvars}, shift={self.shift}, {len(self.terms)} terms)"

    # io --------------------------------------------------------------------

    def to_json(self):
        return {
            "nvars": self.nvars,
            "shift": self.shift,
            "terms": [
                {"exps": list(k), "coef": self.terms[k].to_json()}
                for k in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, doc) -> "SymLaurent":
        """Parse a document, summing the terms that repeat an ``exps``."""
        nvars, shift = doc["nvars"], doc.get("shift", 0)
        keys = [tuple(t["exps"]) for t in doc["terms"]]
        if {type(e) for k in [(nvars, shift), *keys] for e in k} - {int}:
            raise ValueError("nvars, shift and exps must be ints")
        pairs = ((QCyclo.from_json(t["coef"]), {k: 1}) for k, t in zip(keys, doc["terms"]))
        return cls(nvars, shift, _combine(pairs))


# ---------------------------------------------------------------------------
# Evaluation


@lru_cache(maxsize=None)
def _orbit(key: ExpVec) -> Tuple[ExpVec, ...]:
    """The distinct permutations of a dominant key.  Past ``MAX_ORBIT`` it raises
    :class:`BudgetExceeded` before any is built, so a refusal is never memoised."""
    size = _orbit_size(key)
    if size > MAX_ORBIT:
        raise BudgetExceeded(f"orbit of {size} exponent vectors exceeds {MAX_ORBIT}")
    return tuple(_perms(key))


def _orbit_rows(coords, key: ExpVec, shift: int, N: int, R: int) -> Dict[int, Dict[int, int]]:
    """(z_1 ... z_n)^(-shift) m_key at ``coords`` as int counts ``{q-numerator over
    R: {root index mod N: count}}``, N and R common multiples of the coordinates'
    zeta and q denominators.  A coordinate packs into one int, q-numerator * K +
    root index: for shift >= 0 the root part of a dot product with key - shift
    lies within B = N (sum(key) + n shift) of 0, so K = 2B + 1 splits the parts.
    A plain dict counts the dot products: cheaper than a Counter on small orbits."""
    B = N * (sum(key) + len(key) * shift)
    K = 2 * B + 1
    w = [c.p * (R // c.r) * K + c.a * (N // c.n) for c in coords]
    bias = B - shift * sum(w)
    dots: Dict[int, int] = {}
    for x in [sum(map(mul, p, w)) for p in _orbit(key)]:
        dots[x] = dots.get(x, 0) + 1
    rows: Dict[int, Dict[int, int]] = {}
    for x, h in dots.items():
        t, a = divmod(x + bias, K)
        row = rows.setdefault(t, {})
        a = (a - B) % N
        row[a] = row.get(a, 0) + h
    return rows


def satake_eval(f: SymLaurent, y) -> QCyclo:
    """Substitute the coordinates of y, a ``satake.SatakeParam``, into f: the trace of
    the Hecke operator.  The factor ``(z_1 ... z_n)^(-shift)`` lowers every exponent by the shift.

    The ranks are checked; then the result comes from a memo of the last
    ``MAX_EVALS`` results (an ``lru_cache``), keyed by the full identity of the
    arguments: f's shift; per term its exponent vector, its coefficient's den and
    every (q-numerator, conductor, num, den) of that coefficient; and y's
    coordinates, each equal only to the same four ints.  f's nvars is the length
    of each exponent vector and of the coordinates.  So an equal number held at
    another conductor has its own entry.  Over a split algebra the two sides of
    the ``ai_transfer`` identity are one (f, y), evaluated one after the other.
    A refusal raises before anything is stored.  The result is shared: no
    caller writes its fields.
    """
    if f.nvars != y.rank:
        raise RankMismatch(f"f has {f.nvars} variables, parameter has rank {y.rank}")
    terms = tuple(
        (k, coef.den, tuple((e, c.conductor, c.num, c.den) for e, c in coef.terms.items()))
        for k, coef in f.terms.items()
    )
    return _evaluate(f.shift, terms, y.coords)


@lru_cache(maxsize=MAX_EVALS)
def _evaluate(shift: int, terms: tuple, coords: tuple) -> QCyclo:
    """:func:`satake_eval` on its memo key alone, so it reads nothing the key lacks.

    Each nonzero orbit row, at its order m, is paired with each coefficient term
    under the output q-numerator over R (the lcm of every q-denominator of y and
    f, and the result's keys).  A row of several roots takes one remainder step,
    ``arith._remainder`` of ``{a m/N: count}``, as a zero test, so that a row that
    cancels adds no conductor, and keeps its remainder mod Phi_m.  A q-exponent met by one pair, a rational coefficient times a
    row, is that remainder scaled, as a rational multiple of a remainder is one;
    a row of one root reads it from the memo of ``Cyclo.root_of_unity``, times
    its count.  Every other q-exponent goes to ``arith._product_sum`` with its
    rows as sparse factors ``(m, 1, [(a m/N, count), ..])``, which adds the
    products as ints and reduces them once, at C_e: the lcm of the conductors
    and row orders that meet q^e, as when each product was reduced apart.
    """
    N = lcm(*(c.n for c in coords))
    R = lcm(*(c.r for c in coords), *(den for _, den, _ in terms))
    filed: Dict[int, list] = {}
    for k, den, cterms in terms:
        # the coefficient's terms over R, each Cyclo set again from its key ints
        cterms = [(e * (R // den), _scaled(n, num, 1, d)) for e, n, num, d in cterms]
        for t, row in _orbit_rows(coords, k, shift, N, R).items():
            m = N // gcd(N, *row)  # the order of the group the row's roots generate
            v = None  # a row of one root reads its remainder from the root memo
            if len(row) > 1:
                v = _remainder({a * m // N: h for a, h in row.items()}, _bounded(m))
                if not v:
                    continue
            for e, c in cterms:
                filed.setdefault(e + t, []).append((c, m, row, v))
    out = {}
    for e, ps in filed.items():
        c, m, row, v = ps[0]
        if len(ps) == 1 and c.conductor == 1:
            k = c.num[0]
            if v is None:
                ((a, h),) = row.items()
                v, k = Cyclo.root_of_unity(a * m // N, m).num, k * h
            out[e] = _scaled(m, v, k, c.den)
        else:
            pairs = [(c, (m, 1, [(a * m // N, h) for a, h in row.items()])) for c, m, row, _ in ps]
            out[e] = _product_sum(pairs)
    return QCyclo(out, R)


# ---------------------------------------------------------------------------
# Elementary basis


@lru_cache(maxsize=None)
def _e_row(nvars: int, lam: Tuple[int, ...]) -> Dict[ExpVec, int]:
    """e_lam = e_{lam_1} ... e_{lam_l} in nvars variables, as integer m-basis
    coefficients: the product of the m_(1^k), k in lam, each part at most nvars."""
    row = {(0,) * nvars: 1}
    for part in lam:
        nxt: Dict[ExpVec, int] = {}
        for key, c in row.items():
            for k, v in _m_product(key, (1,) * part + (0,) * (nvars - part), nvars).items():
                nxt[k] = nxt.get(k, 0) + c * v
        row = nxt
    return row


@lru_cache(maxsize=None)
def _m_to_e(nvars: int, key: ExpVec) -> Dict[Tuple[int, ...], int]:
    """m_key in nvars variables in the elementary basis, as integer coefficients.
    With lam the conjugate of key, e_lam is m_key plus dominance-smaller m_k of
    its degree (Macdonald, Symmetric Functions, I.2), so m_key = e_lam - sum
    (e_lam)_k m_k: no division, and the memo solves each m_k once."""
    lam = tuple(sum(e > j for e in key) for j in range(key[0]))
    out = {lam: 1}
    for k, v in _e_row(nvars, lam).items():
        if k != key:
            for mu, x in _m_to_e(nvars, k).items():
                out[mu] = out.get(mu, 0) - v * x
    return {mu: x for mu, x in out.items() if x}


# ---------------------------------------------------------------------------
# Transfer homomorphisms


@lru_cache(maxsize=None)
def _ai_row(nvars: int, key: ExpVec, s: int) -> Dict[ExpVec, int]:
    """The induction image of m_key, from nvars variables to nvars / s, as an
    integer m-basis row: the Verschiebung V_s on its :func:`_m_to_e` row, a ring
    map with ``V_s e_k = (-1)^(k - k/s) e_{k/s}`` when s | k, else 0."""
    out: Dict[ExpVec, int] = {}
    for lam, x in _m_to_e(nvars, key).items():
        if all(k % s == 0 for k in lam):
            sign = (-1) ** sum(k - k // s for k in lam)
            for k, v in _e_row(nvars // s, tuple(k // s for k in lam)).items():
                out[k] = out.get(k, 0) + sign * x * v
    return {k: v for k, v in out.items() if v}


def ai_transfer(f: SymLaurent, algebra: CyclicAlgebra) -> SymLaurent:
    """The transfer b with ``satake_eval(f, delta_map(y)) = satake_eval(bf, y.flatten())``.

    The Verschiebung ``p_k -> s p_{k/s}`` when s | k, else 0; each key's
    image is one integer row of :func:`_ai_row`.  The Laurent shift
    maps through the determinant coordinate, contributing the unit
    ``zeta^(-shift * mr * s(s-1)/2)``.  Degrees above ``DEGREE_BUDGET``
    are refused before any row is built.
    """
    d, r, s = algebra.d, algebra.r, algebra.s
    if f.nvars % d:
        raise RankMismatch(f"{f.nvars} variables not divisible by d={d}")
    if f.degree() > DEGREE_BUDGET:
        raise DegreeBudget(f"degree {f.degree()} exceeds budget {DEGREE_BUDGET}")
    m = f.nvars // d
    body = _combine((c, _ai_row(f.nvars, k, s)) for k, c in f.terms.items())
    out = SymLaurent(m * r, f.shift, body)
    unit = algebra.zeta ** (-m * r * (s * (s - 1) // 2) * f.shift)
    if unit.a:
        out = out.scale(QCyclo.from_coordinate(unit))
    return out


def _product_degree(factors) -> int:
    """Degree of the product of the factors, found without multiplying them.

    The polynomial ring is a domain, so the body degrees add, and so do the
    valuations: the powers of e_n = z_1...z_n dividing the bodies.  The
    normal form of the product then strips min(total shift, total valuation)
    factors e_n, each of degree n.
    """
    if any(g.is_zero() for g in factors):
        return 0
    valuation = sum(min(min(k) for k in g.terms) for g in factors)
    shift = sum(g.shift for g in factors)
    return sum(g.degree() for g in factors) - factors[0].nvars * min(shift, valuation)


def bc_transfer(factors, algebra: CyclicAlgebra) -> SymLaurent:
    """Base-change transfer: ``prod_i f_i(bc_map(y).blocks[i]) = (bf)(y)``.

    The r block transforms multiply (convolution over the split directions),
    then the field stage substitutes z -> z^s: ``m_lam -> m_{s lam}``, and the
    shift scales by s.  A product degree above ``DEGREE_BUDGET`` raises
    :class:`DegreeBudget` before the factors are multiplied.
    """
    factors = list(factors)
    if len(factors) != algebra.r:
        raise RankMismatch(f"expected {algebra.r} factors, got {len(factors)}")
    n = factors[0].nvars
    if any(g.nvars != n for g in factors):
        raise RankMismatch("factors must share the variable count")
    degree = _product_degree(factors)
    if degree > DEGREE_BUDGET:
        raise DegreeBudget(f"degree {degree} exceeds budget {DEGREE_BUDGET}")
    product, s = reduce(mul, factors), algebra.s
    return SymLaurent(
        n, s * product.shift, {tuple(s * e for e in k): c for k, c in product.terms.items()}
    )

