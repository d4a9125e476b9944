import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from autoind.errors import BadOrbit, BudgetExceeded, NoProvenance, NotUnramified, ShapeError
from autoind.reps import (
    CuspidalAtom,
    Elliptic,
    EssDiscrete,
    Product,
    Speh,
    TwistedPair,
    compositions,
    factor_from_json,
    fiber_unitary,
    is_generic,
    lift_unitary,
    pair_atom,
    specialize,
)
from autoind.satake import SatakeParam, delta_map
from autoind.values import ONE, Coordinate
from autoind.verify import random_symbolic_product, random_unitary_product


def coord(z, q=0):
    return Coordinate.of(F(z), F(q))


def atom(uid, d, r, size=1, payload=None, side="E"):
    return CuspidalAtom(uid, side, size, d, r, payload)


class TestAtoms:
    def test_orbit_must_divide(self):
        with pytest.raises(BadOrbit):
            atom("a", 4, 3)

    def test_payload_forces_rank_one(self):
        with pytest.raises(NotUnramified):
            CuspidalAtom("a", "E", 2, 2, 2, ONE)

    def test_payload_forces_full_stabilizer(self):
        with pytest.raises(NotUnramified):
            CuspidalAtom("a", "E", 1, 4, 2, ONE)

    def test_pairing_memoized_and_sized(self):
        a = atom("rho", 6, 2, size=2)
        f1, f2 = pair_atom(a), pair_atom(a)
        assert f1 == f2
        assert f1.side == "F" and f1.size == 2 * a.g and f1.orbit == 2

    def test_pairing_uses_the_whole_atom_not_its_uid(self):
        # atoms sharing a uid but not their shape pair to different atoms
        pair_atom(CuspidalAtom("x", "E", 1, 2, 1))
        f = pair_atom(CuspidalAtom("x", "E", 2, 4, 2))
        assert (f.size, f.d) == (4, 4)

    def test_pairing_takes_root_of_payload(self):
        a = atom("xi", 4, 4, payload=coord(F(1, 3), 2))
        f = pair_atom(a)
        assert f.payload == coord(F(1, 12), F(1, 2))

    def test_json_roundtrip(self):
        a = atom("xi2", 4, 4, payload=coord(F(1, 5), -1))
        assert CuspidalAtom.from_json(a.to_json()) == a


class TestLiftShapes:
    def test_discrete_factor_count_is_r(self):
        d1 = EssDiscrete(atom("r3", 6, 3, size=2), 2, F(1, 2))
        pi = lift_unitary(Speh(d1, 1))
        assert len(pi.factors) == 3
        assert sorted(f.translate for f in pi.factors) == [0, 1, 2]
        assert all(f.q == 1 and f.twist == coord(0, F(1, 2)) for f in pi.factors)

    def test_galois_translates_share_lift(self):
        a = atom("g2", 4, 2, size=2)
        u0 = Speh(EssDiscrete(a, 2, translate=0), 2)
        u1 = Speh(EssDiscrete(a, 2, translate=1), 2)
        assert lift_unitary(u0) == lift_unitary(u1)

    def test_twisted_pair_lifts_to_twisted_product(self):
        a = atom("tp", 2, 2)
        tau = Product((TwistedPair(Speh(EssDiscrete(a, 1), 2), F(1, 4)),))
        pi = lift_unitary(tau)
        assert len(pi.factors) == 4
        assert sorted(f.twist for f in pi.factors) == [
            coord(0, -F(1, 4)), coord(0, -F(1, 4)), coord(0, F(1, 4)), coord(0, F(1, 4))
        ]

    def test_canonical_order_stable(self):
        rng = random.Random(2)
        tau = random_symbolic_product(rng, 4)
        perm = Product(tuple(reversed(tau.factors)))
        assert lift_unitary(tau) == lift_unitary(perm)

    def test_orbit_bookkeeping(self):
        a = atom("bk", 6, 3, size=2)
        for f in lift_unitary(Speh(EssDiscrete(a, 1), 2)).factors:
            assert f.atom.orbit == 3


class TestElliptic:
    def test_composition_count(self):
        for k in range(1, 6):
            assert len(list(compositions(k))) == 2 ** (k - 1)

    def test_levi_must_compose(self):
        with pytest.raises(ValueError):
            Elliptic(atom("e", 2, 1), 3, (1, 1))

    def test_length_zero_is_refused_as_for_speh_data(self):
        # () is the empty composition of 0, so only the length check refuses it
        for k in (0, -1):
            with pytest.raises(ValueError, match="segment length must be >= 1"):
                Elliptic(atom("e", 2, 1), k, ())
        with pytest.raises(ValueError, match="segment length must be >= 1"):
            EssDiscrete(atom("e", 2, 1), 0)

    def test_square_integrable_corner(self):
        e = Elliptic(atom("e2", 2, 1), 3, (3,))
        assert e.is_square_integrable()
        out = lift_unitary(e)
        assert all(f.is_square_integrable() for f in out.factors)

    def test_levi_sizes_scale_with_g(self):
        e = Elliptic(atom("e3", 2, 1), 3, (1, 2))
        out = lift_unitary(e)
        f = out.factors[0]
        assert tuple(p * f.atom.size for p in f.levi) == (2, 4)

    def test_r2_gives_pair(self):
        e = Elliptic(atom("e4", 2, 2), 2, (1, 1))
        out = lift_unitary(e)
        assert len(out.factors) == 2
        assert {f.translate for f in out.factors} == {0, 1}

    def test_injective_across_levis(self):
        a = atom("e5", 4, 2, size=2)
        images = [lift_unitary(Elliptic(a, 4, lv)) for lv in compositions(4)]
        keys = {tuple((f.levi, f.translate) for f in im.factors) for im in images}
        assert len(keys) == 8


class TestFibers:
    def test_singleton_when_galois_stable(self):
        a = atom("f1", 3, 3)
        tau = Product((Speh(EssDiscrete(a, 1), 2),))
        assert fiber_unitary(lift_unitary(tau), tau) == {tau}

    def test_orbit_of_size_g(self):
        a = atom("f2", 4, 2, size=2)
        tau = Product((Speh(EssDiscrete(a, 2), 1),))
        fib = fiber_unitary(lift_unitary(tau), tau)
        assert len(fib) == 2

    def test_independent_choices_multiply(self):
        a1 = atom("f3", 4, 2, size=2)
        a2 = atom("f4", 4, 2, size=2)
        tau = Product((Speh(EssDiscrete(a1, 1), 1), Speh(EssDiscrete(a2, 1), 1)))
        fib = fiber_unitary(lift_unitary(tau), tau)
        assert len(fib) == 4
        pi = lift_unitary(tau)
        assert all(lift_unitary(t) == pi for t in fib)

    def test_a_fiber_past_the_parts_bound_is_refused_before_any_member(self):
        # 22 factors over distinct atoms with g = 2: 2^22 members of 22 factors
        tau = Product(tuple(Speh(EssDiscrete(atom(f"b{i}", 2, 1), 1), 1) for i in range(22)))
        pi = lift_unitary(tau)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="factors"):
            fiber_unitary(pi, tau)
        assert time.perf_counter() - start < 0.1

    def test_an_orbit_of_n_factors_takes_a_multiset_of_its_translates(self):
        # 22 copies of one factor with g = 2: a multiset of 22 of its two
        # translates, 23 members, where the product of translates has 2^22
        f = Speh(EssDiscrete(atom("c", 2, 1), 1), 1)
        tau = Product((f,) * 22)
        fib = fiber_unitary(lift_unitary(tau), tau)
        assert len(fib) == 23
        assert {sum(x.translate for x in t.factors) for t in fib} == set(range(23))
        # f and its translate f.sigma share an orbit: (f, f.sigma, f) takes
        # 3 of the 2 translates, C(4, 3) = 4 members
        tau = Product((f, f.translated(1), f))
        pi = lift_unitary(tau)
        fib = fiber_unitary(pi, tau)
        assert len(fib) == 4 and tau in fib and all(lift_unitary(t) == pi for t in fib)

    def test_no_provenance(self):
        a = atom("f5", 2, 2)
        tau = Product((Speh(EssDiscrete(a, 1), 1),))
        other = Product((Speh(EssDiscrete(atom("f6", 2, 2), 1), 1),))
        with pytest.raises(NoProvenance):
            fiber_unitary(lift_unitary(other), tau)


class TestGenericity:
    def test_speh_generic_iff_q1(self):
        a = atom("g1", 2, 2)
        assert is_generic(Speh(EssDiscrete(a, 3), 1))
        assert not is_generic(Speh(EssDiscrete(a, 1), 2))

    def test_elliptic_generic_iff_square_integrable(self):
        a = atom("g2b", 2, 1)
        assert is_generic(Elliptic(a, 2, (2,)))
        assert not is_generic(Elliptic(a, 2, (1, 1)))

    def test_commutes_with_lift(self):
        rng = random.Random(21)
        for _ in range(30):
            tau = random_symbolic_product(rng, rng.choice((2, 3, 4)))
            assert is_generic(tau) == is_generic(lift_unitary(tau))


class TestSpecialization:
    def test_trivial_over_e(self):
        a = atom("s1", 2, 2, payload=ONE)
        tau = Product((Speh(EssDiscrete(a, 1), 1),))
        z = specialize(tau)
        assert z.flatten() == SatakeParam((coord(0),))
        pi = specialize(lift_unitary(tau))
        assert pi == SatakeParam((coord(0), coord(F(1, 2))))

    def test_speh_staircase_over_f(self):
        a = CuspidalAtom("s2", "F", 1, 1, 1, ONE)
        tau = Product((Speh(EssDiscrete(a, 1), 2),))
        assert specialize(tau) == SatakeParam(
            (coord(0, F(-1, 2)), coord(0, F(1, 2)))
        )

    def test_twist_multiplies_by_inverse_q_power(self):
        a = CuspidalAtom("s3", "F", 1, 1, 1, ONE)
        tau = Product((Speh(EssDiscrete(a, 1, twist=F(1, 2)), 1),))
        assert specialize(tau) == SatakeParam((coord(0, F(-1, 2)),))

    def test_an_elliptic_datum_of_length_one_specializes_as_its_speh(self):
        a = atom("s8", 2, 2, payload=coord(F(1, 3), F(1, 2)))
        e, u = Elliptic(a, 1, (1,)), Speh(EssDiscrete(a, 1), 1)
        assert specialize(e) == specialize(u)
        assert specialize(lift_unitary(e)) == specialize(lift_unitary(u)) == delta_map(specialize(e))
        with pytest.raises(NotUnramified):
            specialize(Elliptic(a, 2, (2,)))

    def test_consistency_square_random(self):
        rng = random.Random(23)
        for _ in range(40):
            tau = random_unitary_product(rng, rng.choice((2, 3, 4)))
            assert specialize(lift_unitary(tau)) == delta_map(specialize(tau))

    def test_no_payload_rejected(self):
        a = atom("s4", 2, 2)
        with pytest.raises(NotUnramified):
            specialize(Product((Speh(EssDiscrete(a, 1), 1),)))

    def test_long_segment_rejected(self):
        a = atom("s5", 2, 2, payload=ONE)
        with pytest.raises(NotUnramified):
            specialize(Product((Speh(EssDiscrete(a, 2), 1),)))

    def test_mixed_sides_rejected(self):
        aE = atom("s6", 2, 2, payload=ONE)
        aF = CuspidalAtom("s7", "F", 1, 2, 1, ONE)
        with pytest.raises(ShapeError):
            specialize(Product((Speh(EssDiscrete(aE, 1), 1), Speh(EssDiscrete(aF, 1), 1))))


class TestJson:
    def test_expression_roundtrip(self):
        rng = random.Random(29)
        for _ in range(10):
            tau = random_symbolic_product(rng, 4)
            assert factor_from_json(tau.to_json()) == tau


# twists and alphas from small value sets, so that equal values recur, each
# written as [m * num, m * den] with m of either sign
ATOMS = {"a": {"id": "a", "side": "E", "size": 1, "d": 2, "r": 2},
         "b": {"id": "b", "side": "E", "size": 1, "d": 4, "r": 2}}
TWISTS = [F(j, 2) for j in range(-2, 3)] + [F(-1, 3), F(1, 3), F(2, 3)]
ALPHAS = [F(1, 3), F(1, 4), F(1, 5), F(2, 5), F(3, 7)]


def written(value: F, m: int) -> list:
    return [m * value.numerator, m * value.denominator]


@st.composite
def factor_docs(draw):
    """A factor document, its reduced form and the order key of that form."""
    uid, k, translate, q = (draw(st.sampled_from("ab")), draw(st.integers(1, 2)),
                            draw(st.integers(0, 3)), draw(st.integers(1, 2)))
    twist, m = draw(st.sampled_from(TWISTS)), draw(st.sampled_from((1, 2, 3, -1, -2, -6)))
    doc = {"kind": "speh", "atom": ATOMS[uid], "k": k, "twist": written(twist, m),
           "translate": translate, "q": q}
    translate %= ATOMS[uid]["d"] // ATOMS[uid]["r"]
    reduced = dict(doc, twist=written(twist, 1), translate=translate)
    key = (0, "E", uid, k, twist, translate, q)
    if draw(st.booleans()):
        alpha, m = draw(st.sampled_from(ALPHAS)), draw(st.sampled_from((1, 2, -1, -3)))
        doc = dict(doc, kind="pair", alpha=written(alpha, m))
        reduced = dict(reduced, kind="pair", alpha=written(alpha, 1))
        key = (1, *key, alpha)
    return doc, reduced, key


@given(st.lists(factor_docs(), min_size=1, max_size=6))
def test_factor_order_and_json_go_by_the_values_of_the_pairs(factors):
    # the order of a Product's factors is the order of Fraction keys, and
    # to_json writes each twist and alpha as its reduced pair, den > 0
    tau = factor_from_json({"kind": "product", "factors": [doc for doc, _, _ in factors]})
    want = [reduced for _, reduced, _ in sorted(factors, key=lambda x: x[2])]
    assert tau.to_json() == {"kind": "product", "factors": want}
