"""Satake parameters for GL(n) over F and over cyclic unramified algebras.

An unramified cyclic algebra E over F of degree d splits as r field factors of
degree s = d/r.  Spherical representations of GL_m(E) are r-tuples of rank-m
parameter multisets; the lifting map ``delta_map`` sends such a tuple to a
twist-stable rank-(m d) multiset over F by taking canonical s-th roots and
spreading them along the powers of the twist root zeta.

All maps here are the parameter-level (weak-lift) versions; fibers are
computed constructively and are exponential in the rank, so a constant bound
on the members (``MAX_FIBER_SIZE``, checked before any is built) stops
runaway enumeration.  Whether pi is in the image of ``delta_map`` is read off
its multiset: every value must occur as often as its zeta-twist.  The maps
that build one coordinate, block or factor per unit of a number in their
input (d, r or l) check ``MAX_PARTS`` first.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, islice, product
from math import comb, prod
from typing import Tuple

from .values import ONE, Coordinate, CyclicAlgebra, Record, _reduced, set_field
from .errors import BlocksDiffer, BudgetExceeded, NotStable, RankMismatch, check_parts

# Most members a fiber may have, checked before enumeration, so also the most
# blocks and distinct values ``_multiset_splits`` recurses over.  It lies above
# 64, the largest fiber the seeded suites and the lift-global benchmark reach.
MAX_FIBER_SIZE = 100
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
        return SatakeParam([c for b in self.blocks for c in b.coords])

    def rotate(self, j: int) -> "SphericalRepE":
        """The Galois translate sigma^j: cyclic rotation of the field factors."""
        j %= self.algebra.r
        return self._derive(blocks=self.blocks[j:] + self.blocks[:j]) if j else self

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


def staircase(xi: Coordinate, n: int, qscale: int = 1):
    """The staircase ``xi * q^(qscale*(j - (n-1)/2))``, j < n, lazily and in
    increasing order.  ``qscale`` is the residue-degree factor (s over a field
    factor of degree s; 1 over F).
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    step = xi.r * qscale  # xi * q^(qscale (2j + 1 - n)/2), over the denominator 2 xi.r
    return (_reduced(xi.a, xi.n, 2 * xi.p + step * (2 * j + 1 - n), 2 * xi.r) for j in range(n))


# ---------------------------------------------------------------------------
# Automorphic induction at the Satake level


def delta_map(y: SphericalRepE) -> SatakeParam:
    """The lifting map: the canonical s-th root t of every coordinate of y,
    spread as ``{zeta^j t : 0 <= j < s}``, which is every s-th root of it, as
    zeta has exact order s.  Independent of root choice and block order.
    """
    alg = y.algebra
    check_parts(alg.d * max(y.block_rank, 1), "coordinates")
    return SatakeParam(tuple(t for b in y.blocks for c in b.coords for t in c.roots(alg.s)))


def _sub_multisets(mults: tuple, size: int, i: int = 0):
    """Every tuple c of the length of mults, c <= mults entrywise, with sum size."""
    if i == len(mults):
        yield ()
        return
    rest = sum(mults[i + 1 :])
    for c in range(max(0, size - rest), min(mults[i], size) + 1):
        for tail in _sub_multisets(mults, size - c, i + 1):
            yield (c,) + tail


def _multiset_splits(mults: tuple, r: int, size: int):
    """All ways to split the multiset with multiplicities ``mults`` into r
    ordered blocks of ``size``, each split as r count vectors.

    A block is a sub-multiset, not a choice of positions, and every head
    extends to a split, so each split comes once and the work grows with the
    number of splits taken times r D (D values), not with the rank, in a
    recursion at most r + D deep.
    """
    if r == 1 or sum(1 for k in mults if k) < 2:
        yield (tuple(k // r for k in mults),) * r
        return
    for head in _sub_multisets(mults, size):
        rest = tuple(k - h for k, h in zip(mults, head))
        for tail in _multiset_splits(rest, r - 1, size):
            yield (head,) + tail


def _check_fiber_size(size: int):
    if size > MAX_FIBER_SIZE:
        raise BudgetExceeded(f"fiber of more than {MAX_FIBER_SIZE} members")


def ai_fiber(pi: SatakeParam, algebra: CyclicAlgebra) -> set[SphericalRepE]:
    """All y over E with ``delta_map(y) == pi``, computed constructively.

    pi is in the image exactly when it is zeta-stable, that is when every
    value c has the multiplicity of zeta c; zeta has exact order s, so the
    values of one s-th power make whole orbits of s, and the fiber is the
    distributions of those powers, one per orbit, into r blocks.  More than
    ``MAX_FIBER_SIZE`` members raise :class:`BudgetExceeded` before any is
    built: at r, D >= 2 (D distinct powers) there are at least max(r, D), the
    orderings of a split with two different blocks and the swaps H - x + y of
    a head H; the enumerator is stopped one split past the bound, and builds
    its splits as count vectors, so a refusal costs no block.
    """
    alg = algebra
    if pi.rank % alg.d:
        raise RankMismatch(f"rank {pi.rank} not divisible by d={alg.d}")
    check_parts(alg.r, "blocks")
    counts = Counter(pi.coords)
    if any(counts[alg.zeta * c] != k for c, k in counts.items()):
        raise NotStable("parameter is not stable under the zeta twist")
    pool = Counter()
    for c, k in counts.items():
        pool[c**alg.s] += k
    values = sorted(pool)
    mults = tuple(pool[v] // alg.s for v in values)
    if alg.r > 1 and len(values) > 1:
        _check_fiber_size(max(alg.r, len(values)))
    size = pi.rank // alg.d
    splits = list(islice(_multiset_splits(mults, alg.r, size), MAX_FIBER_SIZE + 1))
    _check_fiber_size(len(splits))
    return {
        SphericalRepE(alg, tuple(
            SatakeParam(tuple(v for v, k in zip(values, block) for _ in range(k))) for block in split
        ))
        for split in splits
    }


# ---------------------------------------------------------------------------
# Base change at the Satake level


def bc_map(y: SatakeParam, algebra: CyclicAlgebra) -> SphericalRepE:
    """sigma-lift of pi_y: every block is the coordinatewise s-th power of y."""
    check_parts(algebra.r * max(y.rank, 1), "coordinates")
    block = y.power(algebra.s)
    return SphericalRepE(algebra, (block,) * algebra.r)


def bc_fiber(z: SphericalRepE) -> set[SatakeParam]:
    """All y over F with ``bc_map(y) == z``; requires all blocks equal.

    Fiber members differ by coordinatewise multiplication by s-th roots of
    unity, up to permutation: a coordinate of multiplicity k takes a
    multiset of k of its s roots, so the fiber has prod C(k + s - 1, k)
    members; more than ``MAX_FIBER_SIZE`` raise :class:`BudgetExceeded` first.
    """
    alg = z.algebra
    if any(b != z.blocks[0] for b in z.blocks[1:]):
        raise BlocksDiffer("blocks differ: parameter is not a base-change image")
    block = z.blocks[0]
    counts = Counter(block.coords)
    _check_fiber_size(prod(comb(k + alg.s - 1, k) for k in counts.values()))
    picks = [combinations_with_replacement(c.roots(alg.s), k) for c, k in counts.items()]
    return {SatakeParam([c for part in choice for c in part]) for choice in product(*picks)}


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
