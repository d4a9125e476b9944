import random
import sys
import time
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from autoind import satake
from autoind.errors import BlocksDiffer, BudgetExceeded, NotStable, RankMismatch
from autoind.satake import (
    MAX_FIBER_SIZE,
    CyclicAlgebra,
    SatakeParam,
    SphericalRepE,
    _multiset_splits,
    ai_fiber,
    bc_fiber,
    bc_map,
    check_ia_bc_compat,
    delta_map,
    staircase,
)
from autoind.values import Coordinate, primitive_root
from autoind.verify import (
    _brute_ai_fiber,
    _brute_bc_fiber,
    random_algebra,
    random_coordinate,
    random_spherical,
)


def coord(z, q=0):
    return Coordinate.of(F(z), F(q))


def rep(alg, *blocks):
    return SphericalRepE(alg, tuple(SatakeParam(tuple(b)) for b in blocks))


def x_of(y: SatakeParam, d: int, zeta_d: Coordinate) -> int:
    """Cardinality of the twist orbit: the least k >= 1 with zeta_d^k y = y."""
    if zeta_d.torsion_order() != d:
        raise ValueError(f"zeta must have exact order d={d}")
    for k in range(1, d + 1):
        if y.twist(zeta_d**k) == y:
            return k
    return d  # unreachable: zeta_d^d = 1


def galois_orbit(y: SphericalRepE) -> set:
    """The Galois translates of y: its rotations."""
    return {y.rotate(j) for j in range(y.algebra.r)}


class TestAlgebra:
    def test_field_and_split(self):
        assert CyclicAlgebra.field(4).s == 4
        assert CyclicAlgebra.split(3).s == 1

    def test_bad_factorization(self):
        with pytest.raises(ValueError):
            CyclicAlgebra(6, 4, 2)

    def test_zeta_order_enforced(self):
        with pytest.raises(ValueError):
            CyclicAlgebra(4, 2, 2, coord(F(1, 3)))

    def test_nonstandard_generator_allowed(self):
        alg = CyclicAlgebra(3, 1, 3, coord(F(2, 3)))
        assert alg.zeta.torsion_order() == 3


class TestParam:
    def test_canonical_multiset(self):
        a = SatakeParam((coord(F(1, 2)), coord(0)))
        b = SatakeParam((coord(0), coord(F(1, 2))))
        assert a == b and a.coords == b.coords

    def test_trivial_character_staircase(self):
        y = SatakeParam(tuple(staircase(coord(0), 2)))
        assert y.coords == (coord(0, F(-1, 2)), coord(0, F(1, 2)))

    def test_staircase_scaled(self):
        y = SatakeParam(tuple(staircase(coord(F(1, 3)), 3, qscale=2)))
        assert [c.qexp for c in y.coords] == [-2, 0, 2]
        assert all(c.zeta == F(1, 3) for c in y.coords)

    def test_staircase_matches_the_fraction_reference(self):
        # xi q^(qscale (2j + 1 - n)/2), each coordinate built from its two Fractions
        rng = random.Random(5)
        xis = [coord(F(rng.randrange(12), 12), F(rng.randint(-9, 9), rng.randint(1, 6)))
               for _ in range(40)]
        xis += [coord(F(1, 3), F(-5, 4)), coord(0, F(7, 6)), coord(F(1, 2), -3)]
        assert any(x.r > 1 for x in xis) and any(x.p < 0 for x in xis)
        for xi, n, qscale in product(xis, range(1, 7), range(1, 7)):
            want = tuple(
                Coordinate(xi.zeta, xi.qexp + F(qscale * (2 * j + 1 - n), 2)) for j in range(n)
            )
            got = SatakeParam(tuple(staircase(xi, n, qscale)))
            assert got == SatakeParam(want) and got.coords == want
            assert tuple(staircase(xi, n, qscale)) == want  # already in increasing order

    def test_staircase_refuses_an_empty_rank_when_called(self):
        with pytest.raises(ValueError):
            staircase(coord(0), 0)

    def test_twist_orbit_cardinality(self):
        z4 = primitive_root(4)
        stable = SatakeParam(tuple(z4**j for j in range(4)))
        assert x_of(stable, 4, z4) == 1
        free = SatakeParam((coord(0, 1),))
        assert x_of(free, 4, z4) == 4
        half = SatakeParam((coord(0), coord(F(1, 2))))
        assert x_of(half, 4, z4) == 2


class TestDeltaMap:
    def test_trivial_rank_one(self):
        alg = CyclicAlgebra.field(2)
        y = rep(alg, [coord(0)])
        assert delta_map(y) == SatakeParam((coord(0), coord(F(1, 2))))

    def test_split_case_concatenates(self):
        alg = CyclicAlgebra.split(2)
        y = rep(alg, [coord(0, 1)], [coord(F(1, 3))])
        assert delta_map(y) == SatakeParam((coord(0, 1), coord(F(1, 3))))

    def test_block_order_irrelevant(self):
        alg = CyclicAlgebra(4, 2, 2)
        b1, b2 = [coord(F(1, 5), 1)], [coord(F(2, 7), -2)]
        assert delta_map(rep(alg, b1, b2)) == delta_map(rep(alg, b2, b1))

    def test_image_is_twist_stable(self):
        alg = CyclicAlgebra.field(3)
        y = rep(alg, [coord(F(1, 7), F(3, 2)), coord(0, -1)])
        pi = delta_map(y)
        assert pi.twist(alg.zeta) == pi

    def test_rank_multiplies_by_d(self):
        alg = CyclicAlgebra(6, 3, 2)
        y = rep(alg, *([[coord(0)]] * 3))
        assert delta_map(y).rank == 6

    def test_closed_form_is_the_root_and_spread_reference(self):
        # every algebra with d <= 6 and every generator zeta = (k/s, 0), over
        # coordinates whose zeta and q denominators n, r exceed 1
        rng = random.Random(17)
        pool = [coord(F(a, n), F(p, r)) for a, n, p, r in
                ((0, 1, 0, 1), (1, 2, 1, 3), (3, 4, -2, 5), (5, 6, 7, 2), (2, 9, -1, 4), (1, 10, 3, 1))]
        assert any(c.n > 1 and c.r > 1 for c in pool)
        algebras = [CyclicAlgebra(d, d // s, s, coord(F(k, s)))
                    for d in range(1, 7) for s in range(1, d + 1) if d % s == 0
                    for k in range(s) if gcd(k, s) == 1]
        assert len(algebras) == 21  # sum of phi(s) over s | d, d <= 6: d each
        for alg in algebras:
            for _ in range(6):
                m = rng.randint(1, 3)
                y = rep(alg, *([rng.choice(pool) for _ in range(m)] for _ in range(alg.r)))
                want = [c.root(alg.s) * alg.zeta**j for c in y.flatten().coords for j in range(alg.s)]
                assert delta_map(y) == SatakeParam(tuple(want))


class TestAiFiber:
    def test_field_case_injective(self):
        alg = CyclicAlgebra.field(3)
        y = rep(alg, [coord(F(1, 4), F(1, 2)), coord(F(3, 8), -1)])
        assert ai_fiber(delta_map(y), alg) == {y}

    def test_split_case_fiber_is_block_distributions(self):
        alg = CyclicAlgebra.split(2)
        y = rep(alg, [coord(0), coord(F(1, 2))], [coord(F(1, 3)), coord(F(1, 4))])
        fib = ai_fiber(delta_map(y), alg)
        assert y in fib
        # 4 distinct coordinates into two blocks of 2: C(4,2) = 6 distributions
        assert len(fib) == 6
        assert all(delta_map(w) == delta_map(y) for w in fib)

    def test_not_stable_rejected(self):
        alg = CyclicAlgebra.field(2)
        with pytest.raises(NotStable):
            ai_fiber(SatakeParam((coord(0), coord(0))), alg)

    def test_rank_mismatch(self):
        alg = CyclicAlgebra.field(2)
        with pytest.raises(RankMismatch):
            ai_fiber(SatakeParam((coord(0),)), alg)

    def test_budget(self):
        # 14 distinct coordinates into two blocks of 7: C(14, 7) = 3432 members
        big = SatakeParam(tuple(coord(0, j) for j in range(14)))
        with pytest.raises(BudgetExceeded):
            ai_fiber(big, CyclicAlgebra.split(2))

    def test_a_high_rank_fiber_of_one_member(self):
        # the 14 fourteenth roots of unity are stable under zeta = -1, and
        # their squares, the 7 seventh roots, make the one block over field(2)
        alg = CyclicAlgebra.field(2)
        pi = SatakeParam(tuple(coord(F(j, 14)) for j in range(14)))
        assert ai_fiber(pi, alg) == {rep(alg, [coord(F(j, 7)) for j in range(7)])}

    @pytest.mark.parametrize("r, distinct", [(101, 2), (2, 101)])
    def test_the_lower_bound_refuses_before_any_split(self, r, distinct, monkeypatch):
        # at least max(r, D) members: refused without enumerating a split
        def no_split(*args):
            raise AssertionError("a split was enumerated")
            yield

        monkeypatch.setattr(satake, "_multiset_splits", no_split)
        coords = [coord(0, j) for j in range(distinct)]
        pi = SatakeParam(tuple(coords + [coords[0]] * (r * distinct - distinct)))
        with pytest.raises(BudgetExceeded, match=f"more than {MAX_FIBER_SIZE} members"):
            ai_fiber(pi, CyclicAlgebra.split(r))

    def test_the_deepest_enumerated_fibers_fit_a_small_stack(self):
        # a^99 b over split(100) has 100 members, one per block that holds b,
        # and 100 distinct values at r = 2 are enumerated up to the bound:
        # the recursion is r + D deep, both at most MAX_FIBER_SIZE
        a, b = coord(0, 0), coord(0, 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(400)
        try:
            fib = ai_fiber(SatakeParam((a,) * 99 + (b,)), CyclicAlgebra.split(100))
            with pytest.raises(BudgetExceeded, match=f"more than {MAX_FIBER_SIZE} members"):
                ai_fiber(SatakeParam(tuple(coord(0, j) for j in range(100))), CyclicAlgebra.split(2))
        finally:
            sys.setrecursionlimit(limit)
        assert len(fib) == 100
        assert {y.blocks.index(SatakeParam((b,))) for y in fib} == set(range(100))

    def test_repeated_pool_is_counted_exactly(self):
        # six copies each of a and b into 3 blocks of 4: a block is a^k b^(4-k)
        # with k1 + k2 + k3 = 6, 19 members, though 12!/(4!)^3 = 34 650 > the cap
        alg = CyclicAlgebra.split(3)
        a, b = coord(F(1, 3)), coord(0, 1)
        pi = SatakeParam((a,) * 6 + (b,) * 6)
        fib = ai_fiber(pi, alg)
        assert len(fib) == sum(1 for ks in product(range(5), repeat=3) if sum(ks) == 6) == 19
        assert all(delta_map(y) == pi for y in fib)

    def test_a_refused_fiber_builds_no_block(self):
        # a^N b^N over split(2) has N + 1 members: the enumerator takes 101
        # splits as count vectors, where rebuilding the rank-N blocks of
        # every split took 0.4-0.6 s at N = 25 000
        a, b = coord(0, 0), coord(0, 1)
        pi = SatakeParam((a,) * 25_000 + (b,) * 25_000)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=f"more than {MAX_FIBER_SIZE} members"):
            ai_fiber(pi, CyclicAlgebra.split(2))
        assert time.perf_counter() - start < 0.1

    def test_none_exactly_when_not_stable(self):
        # NotStable exactly when pi is not zeta-stable, over a field or two
        # blocks, for any generator zeta of order s; otherwise the fiber is
        # the brute-force one
        rng = random.Random(11)
        seen = Counter()
        for _ in range(300):
            s, r = rng.choice((2, 3, 4)), rng.choice((1, 2))
            zeta = primitive_root(s) ** rng.choice([a for a in range(1, s) if gcd(a, s) == 1])
            alg = CyclicAlgebra(r * s, r, s, zeta)
            if rng.random() < 0.5:
                orbits = [coord(F(rng.randrange(6), 6), rng.randint(-1, 1)) for _ in range(r * rng.randint(1, 2))]
                pi = spread(orbits, zeta, s)
                if rng.random() < 0.5:
                    cs = list(pi.coords)
                    cs[rng.randrange(len(cs))] = coord(F(rng.randrange(6), 6))
                    pi = SatakeParam(tuple(cs))
            else:
                pi = SatakeParam(tuple(coord(F(rng.randrange(4), 4)) for _ in range(alg.d * rng.randint(1, 2))))
            stable = pi.twist(zeta) == pi
            seen[stable, r] += 1
            if stable:
                assert ai_fiber(pi, alg) == _brute_ai_fiber(pi, alg)
            else:
                with pytest.raises(NotStable):
                    ai_fiber(pi, alg)
        assert len(seen) == 4 and min(seen.values()) >= 30, seen

    def test_a_field_with_another_generator(self):
        # zeta = e^(2 pi i 2/5) spreads y's fifth roots in another order, to
        # the same multiset; one coordinate moved within its orbit is refused
        alg = CyclicAlgebra.field(5, coord(F(2, 5)))
        y = rep(alg, [coord(F(1, 3), 1), coord(0, -1), coord(0, -1)])
        pi = delta_map(y)
        assert pi == delta_map(rep(CyclicAlgebra.field(5), *(b.coords for b in y.blocks)))
        assert ai_fiber(pi, alg) == {y}
        moved = SatakeParam(pi.coords[1:] + (pi.coords[0] * coord(F(1, 5)) ** 2,))
        with pytest.raises(NotStable):
            ai_fiber(moved, alg)

    def test_fiber_size_cap(self):
        # 3 distinct coordinates over split(3): 6 members; over split(4) with
        # 8 distinct ones, 8!/2^4 = 2520 > MAX_FIBER_SIZE
        assert len(ai_fiber(SatakeParam(tuple(coord(F(j, 3)) for j in range(3))), CyclicAlgebra.split(3))) == 6
        pi = SatakeParam(tuple(coord(F(j, 8)) for j in range(8)))
        with pytest.raises(BudgetExceeded, match=f"more than {MAX_FIBER_SIZE} members"):
            ai_fiber(pi, CyclicAlgebra.split(4))


def brute_splits(pool, r, size):
    """Every split of pool into r ordered blocks of ``size``, from the choices
    of positions for each block, sorted blocks, as a set."""
    if not r:
        return {()}
    out = set()
    for idx in combinations(range(len(pool)), size):
        rest = tuple(v for i, v in enumerate(pool) if i not in idx)
        block = tuple(pool[i] for i in idx)
        out |= {(block,) + tail for tail in brute_splits(rest, r - 1, size)}
    return out


@settings(deadline=None)
@given(st.data())
def test_multiset_splits_are_the_brute_force_splits_at_least_max_r_d_of_them(data):
    # each split once, all of them, and at r, D >= 2 (D distinct values) at
    # least max(r, D): the bound ai_fiber refuses by before enumerating
    r = data.draw(st.integers(1, 4))
    size = data.draw(st.integers(1, 8 // r))
    pool = tuple(sorted(data.draw(st.lists(st.integers(0, 3), min_size=r * size, max_size=r * size))))
    # the count vectors over the values 0..3, a value of the pool's or not
    splits = [
        tuple(tuple(v for v, k in enumerate(block) for _ in range(k)) for block in split)
        for split in _multiset_splits(tuple(pool.count(v) for v in range(4)), r, size)
    ]
    assert len(splits) == len(set(splits))
    assert set(splits) == brute_splits(pool, r, size)
    distinct = len(set(pool))
    if r > 1 and distinct > 1:
        assert len(splits) >= max(r, distinct)


def spread(a, zeta, r):
    """The multiset union of zeta^i a for a in A and i < r."""
    return SatakeParam(tuple(zeta**i * c for c in a for i in range(r)))


class TestBaseChange:
    def test_blocks_are_powers(self):
        alg = CyclicAlgebra(4, 2, 2)
        y = SatakeParam((coord(F(1, 3), F(1, 2)),))
        z = bc_map(y, alg)
        assert len(z.blocks) == 2
        assert z.blocks[0] == SatakeParam((coord(F(2, 3), 1),))

    def test_fiber_contains_source(self):
        alg = CyclicAlgebra.field(3)
        y = SatakeParam((coord(F(1, 5), 1), coord(0, -2)))
        fib = bc_fiber(bc_map(y, alg))
        assert y in fib
        assert all(bc_map(w, alg) == bc_map(y, alg) for w in fib)

    def test_fiber_is_every_root_choice_once(self):
        # (a, a, b) over s = 3: C(4, 2) * C(3, 1) = 18 multisets of roots
        alg = CyclicAlgebra.field(3)
        a, b = coord(F(1, 5), 1), coord(0, -2)
        z = bc_map(SatakeParam((a, a, b)), alg)
        fib = bc_fiber(z)
        roots = [c.root(3) for c in z.blocks[0].coords]
        mu = [primitive_root(3) ** j for j in range(3)]
        brute = {SatakeParam(tuple(w * x for w, x in zip(ch, roots))) for ch in product(mu, repeat=3)}
        assert fib == brute and len(fib) == 18

    def test_a_high_rank_fiber_is_built_in_linear_time(self):
        # at s = 1 a block of any rank has one member; joining its coordinates
        # by tuple addition took 3.6 s at rank 40 000, where this takes 0.25 s
        alg = CyclicAlgebra.split(2)
        block = SatakeParam(tuple(coord(F(1, 3), j) for j in range(40_000)))
        start = time.perf_counter()
        assert bc_fiber(SphericalRepE(alg, (block, block))) == {block}
        assert time.perf_counter() - start < 2

    def test_differing_blocks_rejected(self):
        alg = CyclicAlgebra(4, 2, 2)
        z = rep(alg, [coord(0)], [coord(F(1, 3))])
        with pytest.raises(BlocksDiffer):
            bc_fiber(z)

    def test_compat_square(self):
        alg = CyclicAlgebra(6, 2, 3)
        y = rep(alg, [coord(F(1, 5), 2)], [coord(F(3, 7), -1)])
        ok, report = check_ia_bc_compat(y)
        assert ok and report is None


class TestGaloisAction:
    def test_rotation_orbit(self):
        alg = CyclicAlgebra.split(3)
        y = rep(alg, [coord(0)], [coord(F(1, 2))], [coord(F(1, 3))])
        assert len(galois_orbit(y)) == 3
        assert y.rotate(3) == y

    def test_rotation_is_the_rotated_blocks_and_zero_is_the_same_record(self):
        y = rep(CyclicAlgebra(6, 3, 2), [coord(0, 1)], [coord(F(1, 2))], [coord(0, -1)])
        for j in range(-4, 7):
            k = j % 3
            assert y.rotate(j) == SphericalRepE(y.algebra, y.blocks[k:] + y.blocks[:k])
        assert y.rotate(0) is y and y.rotate(3) is y

    def test_json_roundtrip(self):
        alg = CyclicAlgebra(4, 2, 2)
        y = rep(alg, [coord(F(1, 3), 1)], [coord(0, -1)])
        assert SphericalRepE.from_json(y.to_json()) == y


def _off_image(rng, coords):
    """coords with one entry redrawn, or all of them."""
    out = list(coords)
    if rng.random() < 0.5:
        out[rng.randrange(len(out))] = random_coordinate(rng, 8)
    else:
        out = [random_coordinate(rng, 8) for _ in out]
    return tuple(out)


def test_fibers_refuse_exactly_the_parameters_off_the_image():
    # parameters of the images of delta_map and bc_map, moved off them: the
    # fiber raises NotStable / BlocksDiffer exactly when the brute-force
    # fiber is empty, and is that fiber otherwise
    rng = random.Random(2024)
    seen = Counter()
    for i in range(400):
        alg = random_algebra(rng, rng.choice((2, 3, 4)))
        if i % 2 == 0:
            m = max(1, min(rng.randint(1, 2), 4 // alg.d))
            pi = SatakeParam(_off_image(rng, delta_map(random_spherical(rng, alg, m, 8)).coords))
            brute, refused, fiber = _brute_ai_fiber(pi, alg), NotStable, ai_fiber
            args = (pi, alg)
        else:
            y = SatakeParam(tuple(random_coordinate(rng, 8) for _ in range(rng.randint(1, 3))))
            blocks = list(bc_map(y, alg).blocks)
            j = rng.randrange(alg.r)
            blocks[j] = SatakeParam(_off_image(rng, blocks[j].coords))
            z = SphericalRepE(alg, tuple(blocks))
            brute, refused, fiber = _brute_bc_fiber(z), BlocksDiffer, bc_fiber
            args = (z,)
        seen[fiber.__name__, bool(brute)] += 1
        if brute:
            assert fiber(*args) == brute
        else:
            with pytest.raises(refused):
                fiber(*args)
    assert len(seen) == 4 and min(seen.values()) >= 20, seen


coords_st = st.builds(
    Coordinate.of,
    st.fractions(min_value=0, max_value=1, max_denominator=8),
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
)


@settings(max_examples=50, deadline=None)
@given(st.lists(coords_st, min_size=1, max_size=2), st.sampled_from([2, 3, 4]))
def test_delta_then_fiber_recovers(block, d):
    alg = CyclicAlgebra.field(d)
    y = SphericalRepE(alg, (SatakeParam(tuple(block)),))
    assert ai_fiber(delta_map(y), alg) == {y}


@st.composite
def image_cases(draw):
    """(pi, algebra): d in {1, 2, 3, 4, 6, 12}, r | d, zeta any generator of
    order s = d / r, and pi the union of k whole <zeta>-orbits {zeta^j t : j < s},
    r | k and rank k s in 5..12, each t one of 1-3 values so that orbits repeat."""
    d = draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
    r = draw(st.sampled_from([r for r in range(1, d + 1) if d % r == 0]))
    s = d // r
    zeta = coord(F(draw(st.sampled_from([a for a in range(s) if gcd(a, s) == 1])), s))
    k = r * draw(st.integers(-(-5 // d), 12 // d))
    values = draw(st.lists(
        st.builds(coord, st.integers(0, 23).map(lambda a: F(a, 24)), st.sampled_from((0, F(1, 2), 1))),
        min_size=1, max_size=3,
    ))
    ts = draw(st.lists(st.sampled_from(values), min_size=k, max_size=k))
    return SatakeParam(tuple(zeta**j * t for t in ts for j in range(s))), CyclicAlgebra(d, r, s, zeta)


@settings(deadline=None)
@given(image_cases())
def test_a_union_of_whole_zeta_orbits_has_a_fiber(case):
    """Past the brute-force range: pi is in the image of delta_map, so its fiber
    is not empty unless it is too large to list, and every member maps to pi."""
    pi, alg = case
    try:
        fiber = ai_fiber(pi, alg)
    except BudgetExceeded as e:
        assert "fiber of more than" in str(e)
        return
    assert fiber and all(delta_map(y) == pi for y in fiber)


@settings(max_examples=50, deadline=None)
@given(st.lists(coords_st, min_size=1, max_size=2), st.sampled_from([(2, 2), (3, 3), (4, 2)]))
def test_bc_fiber_closure(block, dr):
    d, r = dr
    alg = CyclicAlgebra(d, r, d // r)
    y = SatakeParam(tuple(block))
    z = bc_map(y, alg)
    fib = bc_fiber(z)
    assert y in fib
    assert 1 <= len(fib) <= alg.s ** len(block)
    assert all(bc_map(w, alg) == z for w in fib)
