"""Satake parameters for GL(n) over F and over cyclic unramified algebras.

An unramified cyclic algebra E over F of degree d splits as r field factors of
degree s = d/r.  Spherical representations of GL_m(E) are r-tuples of rank-m
parameter multisets; the lifting map ``delta_map`` sends such a tuple to a
twist-stable rank-(m d) multiset over F by taking canonical s-th roots and
spreading them along the powers of the twist root zeta.

All maps here are the parameter-level (weak-lift) versions; fibers are
computed constructively and are exponential in the rank, so a rank cap
(``max_rank``, 12 by default) and a cap on the number of members
(``MAX_FIBER_SIZE``, checked before any member is built) protect against
runaway enumeration.  The maps that build one coordinate, block or factor
per unit of a number in their input (d, r or l) check ``MAX_PARTS`` first.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, islice, product
from math import comb, prod
from typing import Optional, Tuple

from .arith import ONE, Coordinate, Record, json_fraction, json_int, primitive_root, set_field
from .errors import BlocksDiffer, BudgetExceeded, NotStable, RankMismatch

MAX_FIBER_RANK = 12
# Most members a fiber may have, checked before enumeration.  It lies above
# 64, the largest fiber the seeded suites and the lift-global benchmark reach.
MAX_FIBER_SIZE = 100
# Most coordinates, blocks or factors one call may build, checked before it
# builds them.  It lies above 4000, the largest count the seeded suites, the
# benchmark streams and the tests reach.
MAX_PARTS = 5_000


def check_parts(count: int, what: str) -> None:
    """Refuse a call that would build more than ``MAX_PARTS`` parts."""
    if count > MAX_PARTS:
        raise BudgetExceeded(f"more than {MAX_PARTS} {what}")


class CyclicAlgebra(Record):
    """Extension datum: degree d = r*s, r field factors of degree s each.

    ``zeta`` is the twist root kappa(pi_F), of exact multiplicative order s.
    r = 1 is the field case; s = 1 the split algebra (zeta = 1).
    """

    __slots__ = ("d", "r", "s", "zeta")

    def __init__(self, d: int, r: int, s: int, zeta: Coordinate = None):
        if d != r * s or r < 1 or s < 1:
            raise ValueError(f"need d = r*s, got d={d}, r={r}, s={s}")
        if zeta is None:
            zeta = primitive_root(s)
        if zeta.torsion_order() != s:
            raise ValueError(f"zeta must have exact order s={s}")
        set_field(self, "d", d)
        set_field(self, "r", r)
        set_field(self, "s", s)
        set_field(self, "zeta", zeta)

    @classmethod
    def field(cls, d: int, zeta: Coordinate = None) -> "CyclicAlgebra":
        return cls(d, 1, d, zeta)

    @classmethod
    def split(cls, r: int) -> "CyclicAlgebra":
        return cls(r, r, 1)

    def to_json(self):
        return {"d": self.d, "r": self.r, "s": self.s, "zeta": self.zeta.to_json()["zeta"]}

    @classmethod
    def from_json(cls, doc) -> "CyclicAlgebra":
        zeta = Coordinate(json_fraction(doc["zeta"], "zeta"), 0) if "zeta" in doc else None
        return cls(*(json_int(doc[k], k) for k in "drs"), zeta)


class SatakeParam(Record):
    """Canonical multiset of Satake eigenvalues: the class of pi_y.

    Equality is multiset equality; the stored tuple is always sorted, so the
    canonical form is unique.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Tuple[Coordinate, ...]):
        set_field(self, "coords", tuple(sorted(coords)))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def twist(self, zeta: Coordinate) -> "SatakeParam":
        return SatakeParam(tuple(zeta * c for c in self.coords))

    def power(self, k: int) -> "SatakeParam":
        return SatakeParam(tuple(c**k for c in self.coords))

    def central_character(self) -> Coordinate:
        out = ONE
        for c in self.coords:
            out = out * c
        return out

    def to_json(self):
        return {"rank": self.rank, "coords": [c.to_json() for c in self.coords]}

    @classmethod
    def from_json(cls, doc) -> "SatakeParam":
        return cls(tuple(Coordinate.from_json(c) for c in doc["coords"]))


class SphericalRepE(Record):
    """Spherical class over the algebra E: one rank-m parameter per field factor."""

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: CyclicAlgebra, blocks: Tuple[SatakeParam, ...]):
        if len(blocks) != algebra.r:
            raise ValueError(f"expected {algebra.r} blocks, got {len(blocks)}")
        if len({b.rank for b in blocks}) > 1:
            raise ValueError("all blocks must have the same rank")
        set_field(self, "algebra", algebra)
        set_field(self, "blocks", blocks)

    @property
    def block_rank(self) -> int:
        return self.blocks[0].rank

    def flatten(self) -> SatakeParam:
        out: tuple[Coordinate, ...] = ()
        for b in self.blocks:
            out = out + b.coords
        return SatakeParam(out)

    def rotate(self, j: int) -> "SphericalRepE":
        """The Galois translate sigma^j: cyclic rotation of the field factors."""
        r = self.algebra.r
        j %= r
        return SphericalRepE(self.algebra, self.blocks[j:] + self.blocks[:j])

    def galois_orbit(self) -> set["SphericalRepE"]:
        return {self.rotate(j) for j in range(self.algebra.r)}

    def to_json(self):
        return {
            "algebra": self.algebra.to_json(),
            "blocks": [[c.to_json() for c in b.coords] for b in self.blocks],
        }

    @classmethod
    def from_json(cls, doc) -> "SphericalRepE":
        """The full schema, or the flat ``{d, r, s, zeta?, y}``: y cut into r blocks."""
        if "blocks" in doc:
            alg = CyclicAlgebra.from_json(doc["algebra"])
            blocks = tuple(
                SatakeParam(tuple(Coordinate.from_json(c) for c in b)) for b in doc["blocks"]
            )
            return cls(alg, blocks)
        alg = CyclicAlgebra.from_json(doc)
        y = tuple(Coordinate.from_json(c) for c in doc["y"])
        if len(y) % alg.r:
            raise ValueError("coordinate count must be divisible by r")
        check_parts(alg.r, "blocks")
        m = len(y) // alg.r
        return cls(alg, tuple(SatakeParam(y[i * m : (i + 1) * m]) for i in range(alg.r)))


# ---------------------------------------------------------------------------
# Parameter constructions


def param_of_unramified_character(xi: Coordinate, n: int, qscale: int = 1) -> SatakeParam:
    """Parameter of the character xi o det of GL_n: the staircase
    ``{xi * q^(qscale*(j - (n-1)/2))}``.  ``qscale`` is the residue-degree
    factor (s over a field factor of degree s; 1 over F).  xi = 1 gives the
    trivial representation.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    return SatakeParam(
        tuple(xi * Coordinate(0, Fraction(qscale * (2 * j + 1 - n), 2)) for j in range(n))
    )


def x_of(y: SatakeParam, d: int, zeta_d: Coordinate) -> int:
    """Cardinality of the twist orbit: the least k >= 1 with zeta_d^k y = y."""
    if zeta_d.torsion_order() != d:
        raise ValueError(f"zeta must have exact order d={d}")
    for k in range(1, d + 1):
        if y.twist(zeta_d**k) == y:
            return k
    return d  # unreachable: zeta_d^d = 1


# ---------------------------------------------------------------------------
# Automorphic induction at the Satake level


def delta_map(y: SphericalRepE) -> SatakeParam:
    """The lifting map: flatten, take canonical s-th roots t, return
    ``{zeta^j t_i : 0 <= j < s}``.  Independent of root choice and block order.
    """
    alg = y.algebra
    check_parts(alg.d * max(y.block_rank, 1), "coordinates")
    t = [c.root(alg.s) for c in y.flatten().coords]
    out = []
    for j in range(alg.s):
        zj = alg.zeta**j
        out.extend(zj * ti for ti in t)
    return SatakeParam(tuple(out))


def twist_split(pi: SatakeParam, zeta: Coordinate, r: int) -> Optional[Tuple[Coordinate, ...]]:
    """Find A with the union of ``zeta^i A`` (i < r) equal to pi, or None.

    The twist-orbit splitter of ``ai_fiber`` (r = s, the order of the root
    of unity zeta) and of ``adelic.global_ai_lift`` (r below or above it).
    Backtracking on the largest remaining coordinate c: it lies in some
    ``zeta^i A``, so A holds one of the distinct ``c zeta^(-i)``, i < min(r,
    order of zeta), tried in the order of i.
    """
    if pi.rank % r:
        return None
    size = pi.rank // r
    coords = pi.coords  # sorted, so the largest remaining one is the last
    counter = Counter(coords)
    inverse = zeta.inverse()
    tries = min(r, zeta.torsion_order())

    def rec(acc, top):
        if len(acc) == size:
            return tuple(acc)
        while not counter[coords[top]]:
            top -= 1
        a = coords[top]
        for _ in range(tries):
            need = Counter(zeta**i * a for i in range(r))
            if all(counter[m] >= k for m, k in need.items()):
                counter.subtract(need)
                acc.append(a)
                if rec(acc, top) is not None:
                    return tuple(acc)
                acc.pop()
                counter.update(need)
            a = a * inverse
        return None

    return rec([], len(coords) - 1)


def _sub_multisets(mults: tuple, size: int, i: int = 0):
    """Every tuple c of the length of mults, c <= mults entrywise, with sum size."""
    if i == len(mults):
        yield ()
        return
    rest = sum(mults[i + 1 :])
    for c in range(max(0, size - rest), min(mults[i], size) + 1):
        for tail in _sub_multisets(mults, size - c, i + 1):
            yield (c,) + tail


def _multiset_splits(items: tuple, r: int, size: int):
    """All ways to split the sorted multiset into r ordered blocks of ``size``.

    A block is a sub-multiset, not a choice of positions, and every head
    extends to a split, so each split comes once and the work grows with the
    number of splits taken.
    """
    if r == 1 or not items:  # an empty pool would recurse once per block
        yield (items,) * r
        return
    pool = Counter(items)
    for head in _sub_multisets(tuple(pool.values()), size):
        block = tuple(v for v, h in zip(pool, head) for _ in range(h))
        rest = tuple(v for v, k, h in zip(pool, pool.values(), head) for _ in range(k - h))
        for tail in _multiset_splits(rest, r - 1, size):
            yield (block,) + tail


def _check_fiber_size(size: int):
    if size > MAX_FIBER_SIZE:
        raise BudgetExceeded(f"fiber of more than {MAX_FIBER_SIZE} members")


def ai_fiber(
    pi: SatakeParam, algebra: CyclicAlgebra, max_rank: int = MAX_FIBER_RANK
) -> set[SphericalRepE]:
    """All y over E with ``delta_map(y) == pi``, computed constructively.

    ``twist_split(pi, zeta, s)`` splits pi into zeta-orbits, or returns None
    exactly when pi is not zeta-stable (zeta acts freely).  The distributions
    of the orbits' s-th powers into r blocks are the fiber; for r = 1 it is a
    singleton.  Ranks above ``max_rank`` raise :class:`BudgetExceeded` first,
    and so do fibers of more than ``MAX_FIBER_SIZE`` members, seen by taking
    at most one split more than that before any member is built.
    """
    alg = algebra
    if pi.rank % alg.d:
        raise RankMismatch(f"rank {pi.rank} not divisible by d={alg.d}")
    if pi.rank > max_rank:
        raise BudgetExceeded(f"rank {pi.rank} exceeds fiber cap {max_rank}")
    check_parts(alg.r, "blocks")
    reps = twist_split(pi, alg.zeta, alg.s)
    if reps is None:
        raise NotStable("parameter is not stable under the zeta twist")
    pool = tuple(sorted(c**alg.s for c in reps))
    splits = list(islice(_multiset_splits(pool, alg.r, len(pool) // alg.r), MAX_FIBER_SIZE + 1))
    _check_fiber_size(len(splits))
    return {SphericalRepE(alg, tuple(SatakeParam(b) for b in split)) for split in splits}


# ---------------------------------------------------------------------------
# Base change at the Satake level


def bc_map(y: SatakeParam, algebra: CyclicAlgebra) -> SphericalRepE:
    """sigma-lift of pi_y: every block is the coordinatewise s-th power of y."""
    check_parts(algebra.r * max(y.rank, 1), "coordinates")
    block = y.power(algebra.s)
    return SphericalRepE(algebra, (block,) * algebra.r)


def bc_fiber(z: SphericalRepE, max_rank: int = MAX_FIBER_RANK) -> set[SatakeParam]:
    """All y over F with ``bc_map(y) == z``; requires all blocks equal.

    Fiber members differ by coordinatewise multiplication by s-th roots of
    unity, up to permutation: a coordinate of multiplicity k takes a
    multiset of k of its s roots, so the fiber has prod C(k + s - 1, k)
    members.  Block ranks above ``max_rank``, and fibers of more than
    ``MAX_FIBER_SIZE`` members, raise :class:`BudgetExceeded` before any work.
    """
    alg = z.algebra
    if any(b != z.blocks[0] for b in z.blocks[1:]):
        raise BlocksDiffer("blocks differ: parameter is not a base-change image")
    block = z.blocks[0]
    if block.rank > max_rank:
        raise BudgetExceeded(f"rank {block.rank} exceeds fiber cap {max_rank}")
    counts = Counter(block.coords)
    _check_fiber_size(prod(comb(k + alg.s - 1, k) for k in counts.values()))
    zeta = primitive_root(alg.s)
    picks = [
        combinations_with_replacement([zeta**j * c.root(alg.s) for j in range(alg.s)], k)
        for c, k in counts.items()
    ]
    return {SatakeParam(sum(choice, ())) for choice in product(*picks)}


def check_ia_bc_compat(y: SphericalRepE):
    """Lifting then base-changing reproduces the Galois-spread of y.

    Every block of ``bc_map(delta_map(y))`` must equal s concatenated copies
    of the union of y's blocks (the parameter of the d-fold Galois-twisted
    product of Pi_y).  Returns (True, None) or (False, report).
    """
    alg = y.algebra
    lifted = delta_map(y)
    back = bc_map(lifted, alg)
    expected = SatakeParam(y.flatten().coords * alg.s)
    for i, b in enumerate(back.blocks):
        if b != expected:
            return False, {"block": i, "got": b, "expected": expected}
    return True, None
