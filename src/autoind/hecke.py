"""Spherical Hecke algebras through their Satake transforms.

A spherical Hecke element is stored as its Satake transform: a symmetric
Laurent polynomial with :class:`~autoind.arith.QCyclo` coefficients.
Evaluation at a Satake parameter is the trace of the corresponding Hecke
operator, so the transfer homomorphisms below are pinned down by exact
evaluation identities:

* ``satake_eval(f, delta_map(y)) == satake_eval(ai_transfer(f), y.flatten())``
* ``eval of (f_1, .., f_r) at bc_map(y) == satake_eval(bc_transfer(..), y)``

Both transfers are computed through the power-sum basis, where the rules are
monomial: ``p_k -> s p_{k/s}`` (or 0) for induction, ``p_k -> p_{ks}`` for
base change.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Tuple

from .arith import ONE, Coordinate, QCyclo
from .errors import DegreeBudget, RankMismatch
from .satake import CyclicAlgebra, SatakeParam, SphericalRepE

DEGREE_BUDGET = 12

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


class SymLaurent:
    """Symmetric Laurent polynomial ``(z_1 ... z_n)^(-shift) * body``.

    The body is a genuine symmetric polynomial kept in the monomial symmetric
    basis: a map from dominant exponent vectors (length nvars, entries >= 0,
    weakly decreasing) to QCyclo coefficients.  The normal form takes the
    shift minimal, so equal Laurent polynomials compare equal.
    """

    __slots__ = ("nvars", "shift", "terms")

    def __init__(self, nvars: int, shift: int, terms: Dict[ExpVec, QCyclo]):
        clean = {}
        for k, c in terms.items():
            if len(k) != nvars or any(e < 0 for e in k) or _dominant(k) != k:
                raise ValueError(f"bad dominant exponent vector {k}")
            if not c.is_zero():
                clean[k] = c
        if clean:
            # normal form: strip common z_1..z_n factors into the shift,
            # but never push the shift below zero
            drop = min(shift, min(min(k) for k in clean))
            if drop > 0:
                clean = {tuple(e - drop for e in k): c for k, c in clean.items()}
                shift -= drop
        else:
            shift = 0
        self.nvars = nvars
        self.shift = shift
        self.terms = clean

    # constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "SymLaurent":
        return cls(n, 0, {})

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
        if k >= 0:
            return cls.monomial(n, (k,) * n)
        return cls(n, -k, {(0,) * n: QCyclo.rational(1)})

    # structure -------------------------------------------------------------

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def _aligned(self, shift: int) -> Dict[ExpVec, QCyclo]:
        lift = shift - self.shift
        if lift == 0:
            return self.terms
        return {tuple(e + lift for e in k): c for k, c in self.terms.items()}

    def __add__(self, other: "SymLaurent") -> "SymLaurent":
        if self.nvars != other.nvars:
            raise RankMismatch("variable counts differ")
        m = max(self.shift, other.shift)
        out = dict(self._aligned(m))
        for k, c in other._aligned(m).items():
            out[k] = out[k] + c if k in out else c
        return SymLaurent(self.nvars, m, out)

    def __neg__(self) -> "SymLaurent":
        return SymLaurent(
            self.nvars, self.shift, {k: -c for k, c in self.terms.items()}
        )

    def __sub__(self, other: "SymLaurent") -> "SymLaurent":
        return self + (-other)

    def _expand(self) -> Dict[ExpVec, QCyclo]:
        """Full (non-symmetrized) monomial dictionary of the body."""
        out: Dict[ExpVec, QCyclo] = {}
        for k, c in self.terms.items():
            for p in _perms(k):
                out[p] = c
        return out

    def __mul__(self, other: "SymLaurent") -> "SymLaurent":
        if self.nvars != other.nvars:
            raise RankMismatch("variable counts differ")
        a, b = self._expand(), other._expand()
        # the m-basis coefficient of a product is the coefficient of the
        # dominant monomial in the full convolution
        out: Dict[ExpVec, QCyclo] = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                if _dominant(k) == k:
                    p = ca * cb
                    out[k] = out[k] + p if k in out else p
        return SymLaurent(self.nvars, self.shift + other.shift, out)

    def scale(self, c) -> "SymLaurent":
        x = c if isinstance(c, QCyclo) else QCyclo.rational(c)
        return SymLaurent(
            self.nvars, self.shift, {k: x * v for k, v in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, SymLaurent):
            return NotImplemented
        if self.nvars != other.nvars or self.shift != other.shift:
            return False
        if self.terms.keys() != other.terms.keys():
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    def __hash__(self):
        raise TypeError("SymLaurent is not hashable")

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
        terms = {
            tuple(t["exps"]): QCyclo.from_json(t["coef"]) for t in doc["terms"]
        }
        return cls(doc["nvars"], doc.get("shift", 0), terms)


# ---------------------------------------------------------------------------
# Evaluation


def _orbit_sum(coords, exps: ExpVec, base: Coordinate) -> QCyclo:
    """``base`` times the monomial symmetric function m_exps at ``coords``:
    the sum of ``base * prod_i coords[i]**p[i]`` over distinct permutations p.
    """
    orbit = []
    for p in _perms(exps):
        v = base
        for c, e in zip(coords, p):
            v = v * c**e
        orbit.append(QCyclo.from_coordinate(v))
    return QCyclo.sum(orbit)


def satake_eval(f: SymLaurent, y: SatakeParam) -> QCyclo:
    """Substitute the coordinates of y into f: the trace of the Hecke operator."""
    if f.nvars != y.rank:
        raise RankMismatch(f"f has {f.nvars} variables, parameter has rank {y.rank}")
    base = y.central_character() ** (-f.shift)
    return QCyclo.sum(
        coef * _orbit_sum(y.coords, k, base) for k, coef in f.terms.items()
    )


# ---------------------------------------------------------------------------
# Power-sum basis


@dataclass(frozen=True)
class PowerSumExpr:
    """QCyclo-linear combination of power-sum monomials p_lam."""

    terms: Dict[Tuple[int, ...], QCyclo]

    def __post_init__(self):
        clean = {}
        for lam, c in self.terms.items():
            lam = _dominant(lam)
            if any(p < 1 for p in lam):
                raise ValueError("power-sum parts must be >= 1")
            if not c.is_zero():
                clean[lam] = clean[lam] + c if lam in clean else c
        object.__setattr__(self, "terms", clean)

    def map_parts(self, rule) -> "PowerSumExpr":
        """Apply a monomial rule part-by-part.

        ``rule(k)`` returns ``(new_part or None, scalar QCyclo factor)``;
        ``None`` kills the whole monomial.
        """
        out: Dict[Tuple[int, ...], QCyclo] = {}
        for lam, c in self.terms.items():
            parts = []
            coef = c
            dead = False
            for k in lam:
                nk, fac = rule(k)
                if nk is None:
                    dead = True
                    break
                parts.append(nk)
                if fac is not None:
                    coef = coef * fac
            if dead:
                continue
            key = _dominant(parts)
            out[key] = out[key] + coef if key in out else coef
        return PowerSumExpr(out)

    def __eq__(self, other):
        if not isinstance(other, PowerSumExpr):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    def __hash__(self):
        raise TypeError("PowerSumExpr is not hashable")


@lru_cache(maxsize=None)
def _p_monomial(nvars: int, lam: Tuple[int, ...]):
    """Body terms of p_{lam_1} ... p_{lam_l} in nvars variables (m-basis)."""
    f = SymLaurent.one(nvars)
    for k in lam:
        f = f * SymLaurent.power_sum(nvars, k)
    return f.terms


def _r_diag(lam: Tuple[int, ...]) -> int:
    """Leading coefficient of m_lam in p_lam: product of part-multiplicity factorials."""
    out = 1
    i = 0
    while i < len(lam):
        j = i
        while j < len(lam) and lam[j] == lam[i]:
            j += 1
        out *= factorial(j - i)
        i = j
    return out


def to_power_sums(f: SymLaurent, budget: int = DEGREE_BUDGET):
    """Express the body of f in the power-sum basis.

    Returns ``(PowerSumExpr, shift)``.  The conversion is a triangular solve:
    p_lam expands as R_lam m_lam plus dominance-larger monomials, so peeling
    the lexicographically smallest surviving key in each degree terminates.
    """
    if f.degree() > budget:
        raise DegreeBudget(f"degree {f.degree()} exceeds budget {budget}")
    rem: Dict[ExpVec, QCyclo] = dict(f.terms)
    out: Dict[Tuple[int, ...], QCyclo] = {}
    while rem:
        key = min(rem, key=lambda k: (sum(k), k))
        a = rem.pop(key)
        if a.is_zero():
            continue
        lam = tuple(e for e in key if e)
        c = a.scale(Fraction(1, _r_diag(lam)))
        out[lam] = out[lam] + c if lam in out else c
        for k2, c2 in _p_monomial(f.nvars, lam).items():
            if k2 == key:
                continue
            delta = c * c2
            rem[k2] = rem[k2] - delta if k2 in rem else -delta
        if key in rem:
            del rem[key]
        rem = {k: v for k, v in rem.items() if not v.is_zero()}
    return PowerSumExpr(out), f.shift


def from_power_sums(expr: PowerSumExpr, nvars: int, shift: int = 0) -> SymLaurent:
    out = SymLaurent.zero(nvars)
    for lam, c in expr.terms.items():
        out = out + SymLaurent(nvars, 0, dict(_p_monomial(nvars, lam))).scale(c)
    if shift:
        return SymLaurent(nvars, shift + out.shift, out.terms)
    return out


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
    expr, shift = to_power_sums(f, budget)

    s_fac = QCyclo.rational(s)

    def rule(k):
        if k % s:
            return None, None
        return k // s, s_fac

    mapped = expr.map_parts(rule)
    out = from_power_sums(mapped, m * r, shift=shift)
    c = m * r * (s * (s - 1) // 2)
    unit = algebra.zeta ** (-c * shift)
    if unit.zeta:
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
    then the field-stage rule ``p_k -> p_{ks}`` applies; the shift scales by s
    through the determinant coordinate.  The degree of the product is checked
    against the budget before the factors are multiplied.
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
    prod = factors[0]
    for g in factors[1:]:
        prod = prod * g
    expr, shift = to_power_sums(prod, budget)
    s = algebra.s
    mapped = expr.map_parts(lambda k: (k * s, None))
    return from_power_sums(mapped, n, shift=s * shift)


# ---------------------------------------------------------------------------
# Block splitting (constant term along the parabolic of type (m, .., m))


class TensorSym:
    """Element of the r-fold tensor product of symmetric Laurent algebras.

    Terms map r-tuples of dominant exponent vectors (length m each) to QCyclo
    coefficients; a common shift applies blockwise.
    """

    __slots__ = ("r", "m", "shift", "terms")

    def __init__(self, r: int, m: int, shift: int, terms):
        self.r = r
        self.m = m
        self.shift = shift
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    def eval(self, z: SphericalRepE) -> QCyclo:
        if len(z.blocks) != self.r or z.block_rank != self.m:
            raise RankMismatch("block shape mismatch")
        base = QCyclo.from_coordinate(z.flatten().central_character() ** (-self.shift))
        pieces = []
        for key, coef in self.terms.items():
            acc = base * coef
            for block, chunk in zip(z.blocks, key):
                acc = acc * _orbit_sum(block.coords, chunk, ONE)
            pieces.append(acc)
        return QCyclo.sum(pieces)

    def __eq__(self, other):
        if not isinstance(other, TensorSym):
            return NotImplemented
        if (self.r, self.m, self.shift) != (other.r, other.m, other.shift):
            return False
        if self.terms.keys() != other.terms.keys():
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    def __hash__(self):
        raise TypeError("TensorSym is not hashable")

    def __repr__(self):
        return f"TensorSym(r={self.r}, m={self.m}, shift={self.shift}, {len(self.terms)} terms)"


def constant_term(f: SymLaurent, r: int) -> TensorSym:
    """Restrict a symmetric function of mr variables to r blocks of m.

    Satisfies ``satake_eval(f, z.flatten()) == constant_term(f, r).eval(z)``.
    """
    if f.nvars % r:
        raise RankMismatch(f"{f.nvars} variables not divisible into {r} blocks")
    m = f.nvars // r
    full = f._expand()
    terms = {}
    for vec, c in full.items():
        chunks = tuple(vec[i * m : (i + 1) * m] for i in range(r))
        if all(_dominant(ch) == ch for ch in chunks):
            terms[chunks] = terms[chunks] + c if chunks in terms else c
    return TensorSym(r, m, f.shift, terms)
