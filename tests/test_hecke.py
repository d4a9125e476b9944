import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from autoind.arith import Coordinate, QCyclo
from autoind.errors import DegreeBudget, RankMismatch
from autoind.hecke import (
    DEGREE_BUDGET,
    SymLaurent,
    TensorSym,
    ai_transfer,
    bc_transfer,
    constant_term,
    from_power_sums,
    _perms,
    _product_degree,
    satake_eval,
    to_power_sums,
)
from autoind.satake import CyclicAlgebra, SatakeParam, SphericalRepE, bc_map, delta_map
from autoind.verify import (
    random_algebra,
    random_coordinate,
    random_spherical,
    random_symlaurent,
)


def coord(z, q=0):
    return Coordinate.of(F(z), F(q))


def qc(x):
    return QCyclo.from_coordinate(x)


def test_perms_are_the_distinct_permutations_in_lex_order():
    rng = random.Random(11)
    for _ in range(300):
        v = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 7)))
        got = list(_perms(v))
        count = factorial(len(v))
        for e in set(v):
            count //= factorial(v.count(e))
        assert len(got) == count
        assert len(set(got)) == count
        assert got == sorted(got)
        assert all(sorted(p) == sorted(v) for p in got)


def _expanded(f):
    """Every exponent vector of the body of f, with its coefficient."""
    return {p: c for k, c in f.terms.items() for p in _perms(k)}


def mul_reference(f, g):
    """The product as the full n-slot convolution of both expanded bodies,
    read off at the dominant vectors."""
    out = {}
    for ka, ca in _expanded(f).items():
        for kb, cb in _expanded(g).items():
            k = tuple(x + y for x, y in zip(ka, kb))
            if tuple(sorted(k, reverse=True)) == k:
                out[k] = out[k] + ca * cb if k in out else ca * cb
    return SymLaurent(f.nvars, f.shift + g.shift, out)


def constant_term_reference(f, r):
    """The exponent vectors of f whose r chunks of m are each dominant."""
    m = f.nvars // r
    terms = {}
    for vec, c in _expanded(f).items():
        chunks = tuple(vec[i * m : (i + 1) * m] for i in range(r))
        if all(tuple(sorted(ch, reverse=True)) == ch for ch in chunks):
            terms[chunks] = terms[chunks] + c if chunks in terms else c
    return TensorSym(r, m, f.shift, terms)


def random_laurent(rng, n):
    """A random element with any shift, and often a power of e_n in its body."""
    f = random_symlaurent(rng, n, maxdeg=5)
    if rng.random() < 0.5:
        f = mul_reference(f, SymLaurent.det_power(n, rng.randint(-2, 2)))
    return f


class TestPartitionKernel:
    def test_product_matches_the_n_slot_convolution(self):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(1, 6)
            f, g = random_laurent(rng, n), random_laurent(rng, n)
            got, ref = f * g, mul_reference(f, g)
            assert got == ref
            assert got.to_json() == ref.to_json()  # conductors too

    def test_constant_term_matches_the_expansion_for_every_block_count(self):
        rng = random.Random(43)
        for _ in range(150):
            n = rng.randint(1, 6)
            f = random_laurent(rng, n)
            for r in range(1, n + 1):
                if n % r == 0:
                    assert constant_term(f, r) == constant_term_reference(f, r)

    def test_power_sums_rebuild_through_the_reference_product(self):
        rng = random.Random(47)
        for _ in range(100):
            n = rng.randint(1, 6)
            f = random_symlaurent(rng, n, maxdeg=5)
            total = SymLaurent(n, 0, {})
            for lam, c in to_power_sums(f).items():
                p = SymLaurent.one(n)
                for k in lam:
                    p = mul_reference(p, SymLaurent.power_sum(n, k))
                total = total + p.scale(c)
            assert SymLaurent(n, f.shift, total.terms) == f


class TestSymLaurent:
    def test_normal_form_reduces_shift(self):
        f = SymLaurent(2, 2, {(3, 1): QCyclo.rational(1)})
        assert f.shift == 1 and (2, 0) in f.terms

    def test_shift_never_negative(self):
        f = SymLaurent(2, 0, {(2, 1): QCyclo.rational(1)})
        assert f.shift == 0 and (2, 1) in f.terms

    def test_negative_shift_folds_into_the_body(self):
        f = SymLaurent(2, -1, {(2, 0): QCyclo.rational(1)})
        g = SymLaurent(2, 0, {(3, 1): QCyclo.rational(1)})
        assert f == g
        assert f.to_json() == g.to_json()
        assert SymLaurent.det_power(3, 2) == SymLaurent.monomial(3, (2, 2, 2))

    def test_add_aligns_shifts(self):
        a = SymLaurent.det_power(2, -1)
        b = SymLaurent.one(2)
        c = a + b
        assert c.shift == 1
        assert c.terms.keys() == {(0, 0), (1, 1)}

    def test_mul_monomials(self):
        # m_(1) * m_(1) = m_(2) + 2 m_(11) in two variables
        p1 = SymLaurent.power_sum(2, 1)
        sq = p1 * p1
        assert sq == SymLaurent(
            2, 0, {(2, 0): QCyclo.rational(1), (1, 1): QCyclo.rational(2)}
        )

    def test_det_power_inverse(self):
        e2 = SymLaurent.elementary(2, 2)
        inv = SymLaurent.det_power(2, -1)
        assert e2 * inv == SymLaurent.one(2)

    def test_json_roundtrip(self):
        f = SymLaurent(3, 1, {(2, 1, 0): QCyclo.rational(F(3, 7))})
        assert SymLaurent.from_json(f.to_json()) == f


class TestEvaluation:
    def test_e1_staircase(self):
        f = SymLaurent.elementary(2, 1)
        y = SatakeParam((coord(0, F(-1, 2)), coord(0, F(1, 2))))
        expect = qc(coord(0, F(-1, 2))) + qc(coord(0, F(1, 2)))
        assert satake_eval(f, y) == expect

    def test_e2_sign_pair(self):
        f = SymLaurent.elementary(2, 2)
        y = SatakeParam((coord(0), coord(F(1, 2))))
        assert satake_eval(f, y) == QCyclo.rational(-1)

    def test_p2_at_fourth_roots(self):
        f = SymLaurent.power_sum(2, 2)
        y = SatakeParam((coord(F(1, 4)), coord(F(3, 4))))
        assert satake_eval(f, y) == QCyclo.rational(-2)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            satake_eval(SymLaurent.one(2), SatakeParam((coord(0),)))

    def test_shift_evaluates_as_inverse_determinant(self):
        f = SymLaurent.det_power(2, -2)
        y = SatakeParam((coord(0, 1), coord(F(1, 2), 1)))
        # (z1 z2)^(-2) at {q, -q} is (-q^2)^(-2) = q^(-4)
        assert satake_eval(f, y) == qc(coord(0, -4))


class TestPowerSums:
    def test_newton_e2(self):
        expr = to_power_sums(SymLaurent.elementary(2, 2))
        assert expr == {(1, 1): QCyclo.rational(F(1, 2)), (2,): QCyclo.rational(F(-1, 2))}

    def test_e1_is_p1(self):
        assert to_power_sums(SymLaurent.elementary(3, 1)) == {(1,): QCyclo.rational(1)}

    def test_m2_is_exactly_p2(self):
        assert to_power_sums(SymLaurent.monomial(2, (2,))) == {(2,): QCyclo.rational(1)}

    def test_roundtrip_all_monomials(self):
        for n in (1, 2, 3, 4):
            for d in range(0, 7):
                for lam in _partitions(d, n):
                    f = SymLaurent.monomial(n, lam)
                    assert from_power_sums(to_power_sums(f), n, f.shift) == f

    def test_degree_budget(self):
        f = SymLaurent.monomial(2, (13,))
        with pytest.raises(DegreeBudget):
            to_power_sums(f)


def _partitions(d, max_len, largest=None):
    if d == 0:
        yield ()
        return
    if max_len == 0:
        return
    largest = largest or d
    for first in range(min(d, largest), 0, -1):
        for rest in _partitions(d - first, max_len - 1, first):
            yield (first,) + rest


class TestAiTransfer:
    def test_p1_dies(self):
        alg = CyclicAlgebra.field(2)
        assert ai_transfer(SymLaurent.power_sum(2, 1), alg).is_zero()

    def test_e2_maps_to_minus_p1(self):
        alg = CyclicAlgebra.field(2)
        out = ai_transfer(SymLaurent.elementary(2, 2), alg)
        assert out == SymLaurent.power_sum(1, 1).scale(-1)

    def test_p2_maps_to_2p1(self):
        alg = CyclicAlgebra.field(2)
        out = ai_transfer(SymLaurent.power_sum(2, 2), alg)
        assert out == SymLaurent.power_sum(1, 1).scale(2)

    def test_oracle_identity(self):
        rng = random.Random(11)
        for d, r in ((2, 1), (3, 1), (2, 2), (3, 3)):
            alg = CyclicAlgebra(d, r, d // r)
            for _ in range(5):
                m = rng.randint(1, 2)
                f = random_symlaurent(rng, m * d, maxdeg=5)
                y = random_spherical(rng, alg, m, max_order=8)
                assert satake_eval(f, delta_map(y)) == satake_eval(
                    ai_transfer(f, alg), y.flatten()
                )

    def test_oracle_at_the_largest_conductor_of_the_suites(self):
        # coordinate orders 8, 9, 5, 7 and 11: e_6 takes a root of unity of
        # order lcm(1, ..., 12) = 27720, which crit2 reaches at seed 27
        alg = CyclicAlgebra(2, 2, 1)
        blocks = tuple(
            SatakeParam(tuple(coord(F(1, n)) for n in b)) for b in ((8, 9, 5), (7, 11, 1))
        )
        y = SphericalRepE(alg, blocks)
        f = SymLaurent.elementary(6, 6) + SymLaurent.elementary(6, 3)
        assert satake_eval(f, delta_map(y)) == satake_eval(ai_transfer(f, alg), y.flatten())

    def test_is_ring_homomorphism(self):
        rng = random.Random(5)
        alg = CyclicAlgebra.field(2)
        for _ in range(5):
            f = random_symlaurent(rng, 4, maxdeg=4)
            g = random_symlaurent(rng, 4, maxdeg=4)
            assert ai_transfer(f + g, alg) == ai_transfer(f, alg) + ai_transfer(g, alg)
            assert ai_transfer(f * g, alg) == ai_transfer(f, alg) * ai_transfer(g, alg)

    def test_zeta_generator_independence(self):
        rng = random.Random(9)
        std = CyclicAlgebra.field(3)
        alt = CyclicAlgebra(3, 1, 3, coord(F(2, 3)))
        for _ in range(5):
            f = random_symlaurent(rng, 3, maxdeg=4)
            y = random_spherical(rng, std, 1, max_order=8)
            y_alt = SphericalRepE(alt, y.blocks)
            assert satake_eval(ai_transfer(f, std), y.flatten()) == satake_eval(
                ai_transfer(f, alt), y_alt.flatten()
            )

    def test_rank_not_divisible(self):
        with pytest.raises(RankMismatch):
            ai_transfer(SymLaurent.one(3), CyclicAlgebra.field(2))


class TestBcTransfer:
    def test_p1_to_p2(self):
        alg = CyclicAlgebra.field(2)
        assert bc_transfer([SymLaurent.power_sum(1, 1)], alg) == SymLaurent.power_sum(1, 2)

    def test_e2_to_e2_squared(self):
        alg = CyclicAlgebra.field(2)
        e2 = SymLaurent.elementary(2, 2)
        assert bc_transfer([e2], alg) == e2 * e2

    def test_split_case_multiplies(self):
        alg = CyclicAlgebra.split(2)
        f1 = SymLaurent.power_sum(2, 1)
        f2 = SymLaurent.elementary(2, 2)
        assert bc_transfer([f1, f2], alg) == f1 * f2

    def test_oracle_identity(self):
        rng = random.Random(13)
        for d, r in ((2, 1), (3, 1), (4, 2)):
            alg = CyclicAlgebra(d, r, d // r)
            for _ in range(4):
                n = rng.randint(1, 2)
                y = SatakeParam(tuple(random_coordinate(rng, 8) for _ in range(n)))
                fs = [random_symlaurent(rng, n, maxdeg=3) for _ in range(r)]
                z = bc_map(y, alg)
                lhs = QCyclo.rational(1)
                for g, b in zip(fs, z.blocks):
                    lhs = lhs * satake_eval(g, b)
                assert lhs == satake_eval(bc_transfer(fs, alg), y)

    def test_shift_scales(self):
        alg = CyclicAlgebra.field(3)
        out = bc_transfer([SymLaurent.det_power(2, -1)], alg)
        assert out.shift == 3

    def test_product_degree_is_predicted_exactly(self):
        # z^-1 * z^2 = z: summing the degrees alone would give 2
        fs = [SymLaurent.det_power(1, -1), SymLaurent.det_power(1, 2)]
        assert _product_degree(fs) == 1
        rng = random.Random(29)
        stripped = 0
        for _ in range(200):
            n = rng.randint(1, 3)
            fs = [
                random_symlaurent(rng, n, maxdeg=4) * SymLaurent.det_power(n, rng.randint(-2, 2))
                for _ in range(rng.randint(1, 3))
            ]
            prod = fs[0]
            for g in fs[1:]:
                prod = prod * g
            assert _product_degree(fs) == prod.degree()
            stripped += prod.shift < sum(g.shift for g in fs)
        assert stripped > 20  # the shift-against-valuation case is exercised

    def test_matches_the_power_sum_route(self):
        # reference: multiply, convert to power sums, map p_k -> p_{ks}, convert back
        rng = random.Random(31)
        for _ in range(60):
            alg = random_algebra(rng, rng.choice((2, 3, 4, 6)))
            n = rng.randint(1, 3)
            fs = [random_symlaurent(rng, n, maxdeg=4) for _ in range(alg.r)]
            prod = fs[0]
            for g in fs[1:]:
                prod = prod * g
            if prod.degree() > DEGREE_BUDGET:
                with pytest.raises(DegreeBudget):
                    bc_transfer(fs, alg)
                continue
            s = alg.s
            mapped = {tuple(s * k for k in lam): c for lam, c in to_power_sums(prod).items()}
            ref = from_power_sums(mapped, n, s * prod.shift)
            got = bc_transfer(fs, alg)
            assert got == ref
            for key, coef in got.terms.items():
                for qexp, c in coef.terms.items():
                    assert ref.terms[key].terms[qexp].conductor % c.conductor == 0


class TestConstantTerm:
    def test_e1_splits_additively(self):
        ct = constant_term(SymLaurent.elementary(2, 1), 2)
        assert set(ct.terms) == {((1,), (0,)), ((0,), (1,))}

    def test_e2_is_tensor_product(self):
        ct = constant_term(SymLaurent.elementary(2, 2), 2)
        assert set(ct.terms) == {((1,), (1,))}

    def test_p2_splits_additively(self):
        ct = constant_term(SymLaurent.power_sum(2, 2), 2)
        assert set(ct.terms) == {((2,), (0,)), ((0,), (2,))}

    def test_evaluation_identity(self):
        rng = random.Random(17)
        alg = CyclicAlgebra(4, 2, 2)
        for _ in range(5):
            f = random_symlaurent(rng, 4, maxdeg=4)
            z = random_spherical(rng, alg, 2, max_order=8)
            assert constant_term(f, 2).eval(z) == satake_eval(f, z.flatten())


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 5))
def test_power_sum_roundtrip_random_degree(n, d):
    f = SymLaurent.monomial(n, (d,)) if d and n else SymLaurent.one(n)
    assert from_power_sums(to_power_sums(f), n, f.shift) == f
