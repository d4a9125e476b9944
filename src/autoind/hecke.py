"""Spherical Hecke algebras through their Satake transforms.

A spherical Hecke element is stored as its Satake transform: a symmetric
Laurent polynomial with :class:`~autoind.arith.QCyclo` coefficients.
Evaluation at a Satake parameter is the trace of the corresponding Hecke
operator, so the transfer homomorphisms below are pinned down by exact
evaluation identities:

* ``satake_eval(f, delta_map(y)) == satake_eval(ai_transfer(f), y.flatten())``
* ``eval of (f_1, .., f_r) at bc_map(y) == satake_eval(bc_transfer(..), y)``

Base change is the Adams operation f(z) -> f(z^s), a ring map that is
monomial in the monomial basis: ``m_lam -> m_{s lam}``.  Only induction goes
through the power-sum basis, where its rule ``p_k -> s p_{k/s}`` (or 0) is
monomial.  Only evaluation walks the exponent vectors of an orbit, at most
``MAX_ORBIT`` of them, and it counts each as an int pair (root index,
q-numerator), with no Coordinate per vector; ``satake_eval`` adds the
coefficient-times-row products into one int vector per q-exponent and
reduces each once.  m_a * m_b is counted in l(a) + l(b) slots, and p_lam
is the integer row R_lam of the p -> m transition matrix (Macdonald,
Symmetric Functions, I.6) built from it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, gcd, lcm, prod
from operator import mul
from typing import Dict, Tuple

from .arith import Cyclo, QCyclo, Record, _bounded, set_field
from .errors import BudgetExceeded, DegreeBudget, RankMismatch
from .satake import CyclicAlgebra, SatakeParam, SphericalRepE, _multiset_splits

DEGREE_BUDGET = 12
# Largest orbit (exponent vectors of one m_lam) that evaluation expands: just
# above 6! = 720, the most in the 6 variables the seeded suites and bench use.
MAX_ORBIT = 1_000

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
    basis: a map from dominant exponent vectors (length nvars, entries >= 0,
    weakly decreasing) to QCyclo coefficients.  The normal form takes the
    shift minimal and never negative, so equal Laurent polynomials compare
    equal.
    """

    __slots__ = ("nvars", "shift", "terms")

    def __init__(self, nvars: int, shift: int, terms: Dict[ExpVec, QCyclo]):
        if nvars < 1:
            raise ValueError(f"nvars must be at least 1, got {nvars}")
        clean = {}
        for k, c in terms.items():
            if len(k) != nvars or any(e < 0 for e in k) or _dominant(k) != k:
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

    # constructors ----------------------------------------------------------

    @classmethod
    def one(cls, n: int) -> "SymLaurent":
        return cls(n, 0, {(0,) * n: QCyclo.rational(1)})

    @classmethod
    def monomial(cls, n: int, lam, coef=None) -> "SymLaurent":
        lam = _dominant(lam)
        if len(lam) > n:
            raise RankMismatch(f"partition has {len(lam)} parts, only {n} variables")
        key = lam + (0,) * (n - len(lam))
        return cls(n, 0, {key: coef if coef is not None else QCyclo.rational(1)})

    @classmethod
    def elementary(cls, n: int, k: int) -> "SymLaurent":
        if not 0 <= k <= n:
            raise RankMismatch(f"e_{k} undefined in {n} variables")
        return cls.monomial(n, (1,) * k)

    @classmethod
    def power_sum(cls, n: int, k: int) -> "SymLaurent":
        if k == 0:
            return cls(n, 0, {(0,) * n: QCyclo.rational(n)})
        return cls.monomial(n, (k,))

    @classmethod
    def det_power(cls, n: int, k: int) -> "SymLaurent":
        """(z_1 ... z_n)^k for any integer k."""
        return cls(n, -k, {(0,) * n: QCyclo.rational(1)})

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

    def __neg__(self) -> "SymLaurent":
        return SymLaurent(
            self.nvars, self.shift, {k: -c for k, c in self.terms.items()}
        )

    def __sub__(self, other: "SymLaurent") -> "SymLaurent":
        return self + (-other)

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


def _orbit_rows(coords, exps: ExpVec, N: int, R: int) -> Dict[int, Dict[int, int]]:
    """m_exps at ``coords`` as int counts ``{q-numerator over R: {root index
    mod N: count}}``, one count per distinct permutation of exps; N and R are
    common multiples of the coordinates' zeta and q denominators.  Orbits
    past ``MAX_ORBIT`` raise :class:`BudgetExceeded` before expanding.
    """
    size = _orbit_size(exps)
    if size > MAX_ORBIT:
        raise BudgetExceeded(f"orbit of {size} exponent vectors exceeds {MAX_ORBIT}")
    za, qp = [c.a * (N // c.n) for c in coords], [c.p * (R // c.r) for c in coords]
    rows: Dict[int, Dict[int, int]] = {}
    for p in _perms(exps):
        row = rows.setdefault(sum(map(mul, p, qp)), {})
        a = sum(map(mul, p, za)) % N
        row[a] = row.get(a, 0) + 1
    return rows


def _row_order(row: Dict[int, int], N: int) -> int:
    """The lcm of the reduced orders N / gcd(a, N) of a row's root indices."""
    return lcm(*(N // gcd(a, N) for a in row))


def _row_cyclo(row: Dict[int, int], N: int, m: int) -> Cyclo:
    """The row as one Cyclo at its order m."""
    v = [0] * _bounded(m)
    for a, k in row.items():
        v[a * m // N] = k
    return Cyclo(m, v)


def _orbit_sum(coords, exps: ExpVec) -> QCyclo:
    """m_exps at ``coords``: one Cyclo per q-exponent, at its row's order."""
    N, R = lcm(*(c.n for c in coords)), lcm(*(c.r for c in coords))
    rows = _orbit_rows(coords, exps, N, R).items()
    return QCyclo({Fraction(e, R): _row_cyclo(row, N, _row_order(row, N)) for e, row in rows})


def satake_eval(f: SymLaurent, y: SatakeParam) -> QCyclo:
    """Substitute the coordinates of y into f: the trace of the Hecke operator.
    The factor ``(z_1 ... z_n)^(-shift)`` lowers every exponent by the shift.

    Each product of a coefficient term and an orbit row is added, as ints over
    one denominator, into one vector per output q-exponent, reduced once by one
    Cyclo at C_e: the lcm of the conductors and row orders that meet q^e over
    the nonzero rows, as when each product was reduced apart.  Only a row of
    several roots can vanish; it is reduced once, as a zero test.
    """
    if f.nvars != y.rank:
        raise RankMismatch(f"f has {f.nvars} variables, parameter has rank {y.rank}")
    coords = y.coords
    N = lcm(*(c.n for c in coords))
    R = lcm(*(c.r for c in coords), *(e.denominator for c in f.terms.values() for e in c.terms))
    spread: Dict[int, list] = {}
    for k, coef in f.terms.items():
        cterms = [(e.numerator * (R // e.denominator), c) for e, c in coef.terms.items()]
        for t, row in _orbit_rows(coords, tuple(e - f.shift for e in k), N, R).items():
            m = _row_order(row, N)
            if len(row) > 1 and _row_cyclo(row, N, m).is_zero():
                continue
            for e, c in cterms:
                spread.setdefault(e + t, []).append((c, row, m))
    terms = {}
    for e, parts in spread.items():
        M = _bounded(lcm(*(lcm(c.conductor, m) for c, _, m in parts)))
        den = lcm(*(c.den for c, _, _ in parts))
        acc = [0] * M
        for c, row, _ in parts:
            step, k = M // c.conductor, den // c.den
            roots = [(a * M // N, h * k) for a, h in row.items()]
            for i, x in enumerate(c.num):
                if x:
                    i *= step
                    for b, h in roots:
                        acc[(i + b) % M] += x * h
        terms[Fraction(e, R)] = Cyclo(M, acc, den)
    return QCyclo(terms)


# ---------------------------------------------------------------------------
# Power-sum basis


@lru_cache(maxsize=None)
def _p_monomial(nvars: int, lam: Tuple[int, ...]) -> Dict[ExpVec, int]:
    """The row R_lam: p_{lam_1} ... p_{lam_l} in nvars variables, as integer
    m-basis coefficients.  R_{lam mu} counts the maps f from the parts of lam
    to those of mu with mu_j = sum_{f(i) = j} lam_i; mu with more than nvars
    parts drop out."""
    row = {(0,) * nvars: 1}
    for part in lam:
        nxt: Dict[ExpVec, int] = {}
        for key, c in row.items():
            for k, v in _m_product(key, (part,) + (0,) * (nvars - 1), nvars).items():
                nxt[k] = nxt.get(k, 0) + c * v
        row = nxt
    return row


def to_power_sums(f: SymLaurent, budget: int = DEGREE_BUDGET) -> Dict[ExpVec, QCyclo]:
    """The body of f in the power-sum basis, as a map ``{lam: coefficient}``.

    The conversion is a triangular solve: p_lam expands as R_{lam lam} m_lam
    plus dominance-larger monomials, so peeling the lexicographically smallest
    surviving key in each degree terminates, and peels each key once.
    """
    if f.degree() > budget:
        raise DegreeBudget(f"degree {f.degree()} exceeds budget {budget}")
    rem: Dict[ExpVec, QCyclo] = dict(f.terms)
    out: Dict[ExpVec, QCyclo] = {}
    while rem:
        key = min(rem, key=lambda k: (sum(k), k))
        lam = tuple(e for e in key if e)
        row = _p_monomial(f.nvars, lam)
        c = out[lam] = rem.pop(key).scale(Fraction(1, row[key]))
        for k2 in row.keys() - {key}:
            rem[k2] = rem[k2] - c.scale(row[k2]) if k2 in rem else c.scale(-row[k2])
        rem = {k: v for k, v in rem.items() if not v.is_zero()}
    return out


def from_power_sums(expr: Dict[ExpVec, QCyclo], nvars: int, shift: int = 0) -> SymLaurent:
    """``(z_1 ... z_n)^(-shift)`` times the sum of ``c * p_lam`` over ``expr``."""
    pairs = ((c, _p_monomial(nvars, lam)) for lam, c in expr.items())
    return SymLaurent(nvars, shift, _combine(pairs))


# ---------------------------------------------------------------------------
# Transfer homomorphisms


def ai_transfer(
    f: SymLaurent, algebra: CyclicAlgebra, budget: int = DEGREE_BUDGET
) -> SymLaurent:
    """The transfer b with ``satake_eval(f, delta_map(y)) = satake_eval(bf, y.flatten())``.

    In the power-sum basis: ``p_k -> s p_{k/s}`` when s | k, else 0; the
    Laurent shift maps through the determinant coordinate, contributing the
    unit ``zeta^(-shift * mr * s(s-1)/2)``.
    """
    d, r, s = algebra.d, algebra.r, algebra.s
    if f.nvars % d:
        raise RankMismatch(f"{f.nvars} variables not divisible by d={d}")
    m = f.nvars // d
    # distinct lam give distinct lam/s, so no two terms merge
    mapped = {
        tuple(k // s for k in lam): c.scale(s ** len(lam))
        for lam, c in to_power_sums(f, budget).items()
        if all(k % s == 0 for k in lam)
    }
    out = from_power_sums(mapped, m * r, shift=f.shift)
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


def bc_transfer(
    factors, algebra: CyclicAlgebra, budget: int = DEGREE_BUDGET
) -> SymLaurent:
    """Base-change transfer: ``prod_i f_i(bc_map(y).blocks[i]) = (bf)(y)``.

    The r block transforms multiply (convolution over the split directions),
    then the field stage substitutes z -> z^s: ``m_lam -> m_{s lam}``, and the
    shift scales by s.  The degree of the product is checked against the
    budget before the factors are multiplied.
    """
    factors = list(factors)
    if len(factors) != algebra.r:
        raise RankMismatch(f"expected {algebra.r} factors, got {len(factors)}")
    n = factors[0].nvars
    if any(g.nvars != n for g in factors):
        raise RankMismatch("factors must share the variable count")
    degree = _product_degree(factors)
    if degree > budget:
        raise DegreeBudget(f"degree {degree} exceeds budget {budget}")
    product, s = reduce(mul, factors), algebra.s
    return SymLaurent(
        n, s * product.shift, {tuple(s * e for e in k): c for k, c in product.terms.items()}
    )


# ---------------------------------------------------------------------------
# Block splitting (constant term along the parabolic of type (m, .., m))


class TensorSym(Record):
    """Element of the r-fold tensor product of symmetric Laurent algebras.

    Terms map r-tuples of dominant exponent vectors (length m each) to QCyclo
    coefficients; a common shift applies blockwise.
    """

    __slots__ = ("r", "m", "shift", "terms")

    def __init__(self, r: int, m: int, shift: int, terms):
        set_field(self, "r", r)
        set_field(self, "m", m)
        set_field(self, "shift", shift)
        set_field(self, "terms", {k: c for k, c in terms.items() if not c.is_zero()})

    def eval(self, z: SphericalRepE) -> QCyclo:
        if len(z.blocks) != self.r or z.block_rank != self.m:
            raise RankMismatch("block shape mismatch")
        base = QCyclo.from_coordinate(z.flatten().central_character() ** (-self.shift))
        pieces = []
        for key, coef in self.terms.items():
            acc = base * coef
            for block, chunk in zip(z.blocks, key):
                acc = acc * _orbit_sum(block.coords, chunk)
            pieces.append(acc)
        return QCyclo.sum(pieces)

    def __repr__(self):
        return f"TensorSym(r={self.r}, m={self.m}, shift={self.shift}, {len(self.terms)} terms)"


def constant_term(f: SymLaurent, r: int) -> TensorSym:
    """Restrict a symmetric function of mr variables to r blocks of m.

    Satisfies ``satake_eval(f, z.flatten()) == constant_term(f, r).eval(z)``.
    """
    if f.nvars % r:
        raise RankMismatch(f"{f.nvars} variables not divisible into {r} blocks")
    m = f.nvars // r
    # the permutations of a key with dominant chunks are its splits into r
    # ordered sub-multisets of m parts; distinct keys give distinct splits
    terms = {ch: c for vec, c in f.terms.items() for ch in _multiset_splits(vec, r, m)}
    return TensorSym(r, m, f.shift, terms)
