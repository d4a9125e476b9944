from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, strategies as st

from autoind.arith import ONE, Coordinate, Cyclo, QCyclo, cyclotomic_polynomial


def coord(z, q=0):
    return Coordinate.of(F(z), F(q))


class TestCoordinate:
    def test_group_law(self):
        a = coord(F(1, 3), F(1, 2))
        b = coord(F(1, 2), -1)
        assert a * b == coord(F(5, 6), F(-1, 2))
        assert a * a.inverse() == ONE
        assert a**3 == coord(0, F(3, 2))
        assert a**-2 == (a * a).inverse()

    def test_zeta_reduced_mod_one(self):
        assert coord(F(7, 3)).zeta == F(1, 3)
        assert coord(F(-1, 4)).zeta == F(3, 4)

    def test_root_is_section(self):
        a = coord(F(2, 5), F(3, 4))
        assert a.root(6) ** 6 == a

    def test_root_is_multiplicative(self):
        a = coord(F(1, 3), F(1, 2))
        b = coord(F(1, 4), 2)
        assert (a * b).root(5) == a.root(5) * b.root(5)

    def test_torsion_order(self):
        assert coord(F(2, 6)).torsion_order() == 3
        assert coord(F(1, 4), 1).torsion_order() is None

    def test_json_roundtrip(self):
        a = coord(F(3, 7), F(-5, 2))
        assert Coordinate.from_json(a.to_json()) == a

    def test_sort_is_total(self):
        xs = [coord(F(1, 2)), coord(0), coord(F(1, 3), -1)]
        assert sorted(xs, key=lambda c: c.sort_key)[0] == coord(F(1, 3), -1)


class TestCyclo:
    def test_cyclotomic_polys(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_cyclotomic_product_and_degree(self):
        def mul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        for n in [*range(1, 201), 420, 1980]:
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = mul(prod, cyclotomic_polynomial(d))
            assert prod == [-1] + [0] * (n - 1) + [1]
            totient = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
            assert len(cyclotomic_polynomial(n)) - 1 == totient

    def test_primitive_root_relation(self):
        # zeta_4^2 = -1
        i = Cyclo.root_of_unity(1, 4)
        assert i * i == Cyclo.rational(-1)

    def test_sixth_root_as_third_root(self):
        # zeta_6 = -zeta_3^2, an identity across conductors
        z6 = Cyclo.root_of_unity(1, 6)
        z3sq = Cyclo.root_of_unity(2, 3)
        assert z6 == -z3sq

    def test_orbit_sum_vanishes(self):
        for n in (2, 3, 4, 5, 6, 12):
            total = Cyclo.sum(Cyclo.root_of_unity(a, n) for a in range(n))
            assert total.is_zero()

    def test_mixed_conductor_arithmetic(self):
        x = Cyclo.root_of_unity(1, 3) + Cyclo.root_of_unity(1, 4)
        y = x - Cyclo.root_of_unity(1, 4)
        assert y == Cyclo.root_of_unity(1, 3)

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Cyclo.rational(1))


class TestQCyclo:
    def test_from_coordinate(self):
        a = coord(F(1, 2), 3)
        x = QCyclo.from_coordinate(a)
        assert x == QCyclo({F(3): Cyclo.rational(-1)})

    def test_ring_axioms_sample(self):
        a = QCyclo.from_coordinate(coord(F(1, 3), F(1, 2)))
        b = QCyclo.from_coordinate(coord(F(1, 4), -1))
        c = QCyclo.rational(F(2, 5))
        assert a * (b + c) == a * b + a * c
        assert a - a == QCyclo.zero()

    def test_exact_zero_detection(self):
        # 1 + zeta_3 + zeta_3^2 = 0 in the group ring
        total = QCyclo.sum(
            QCyclo.from_coordinate(coord(F(j, 3))) for j in range(3)
        )
        assert total.is_zero()

    def test_json_roundtrip(self):
        x = QCyclo.from_coordinate(coord(F(2, 5), F(-3, 2))).scale(F(7, 3))
        assert QCyclo.from_json(x.to_json()) == x


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)


@given(small_fraction, small_fraction, small_fraction, small_fraction)
def test_coordinate_mul_commutes(z1, q1, z2, q2):
    a, b = Coordinate.of(z1, q1), Coordinate.of(z2, q2)
    assert a * b == b * a


@given(small_fraction, small_fraction, st.integers(1, 8), st.integers(1, 8))
def test_coordinate_root_tower(z, q, j, k):
    a = Coordinate.of(z, q)
    assert a.root(j).root(k) == a.root(j * k)


@given(st.integers(1, 16), st.integers(0, 15), st.integers(0, 15))
def test_root_of_unity_multiplication(n, a, b):
    lhs = Cyclo.root_of_unity(a, n) * Cyclo.root_of_unity(b, n)
    assert lhs == Cyclo.root_of_unity(a + b, n)


# ---------------------------------------------------------------------------
# The integer kernel of Cyclo against a Fraction reference


def schoolbook_mod(coeffs, n):
    """Remainder modulo Phi_n by plain long division over Fractions."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rem = [F(c) for c in coeffs]
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        for j in range(deg + 1):
            rem[i - deg + j] -= c * phi[j]
    rem = rem[:deg]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


def assert_normalised(x):
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den >= 1 and gcd(*x.num, x.den) == 1
    assert not x.num or x.num[-1] != 0
    assert len(x.num) < len(cyclotomic_polynomial(x.conductor))


mixed_fraction = st.fractions(min_value=-20, max_value=20, max_denominator=30)
CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15)
cyclos = st.builds(
    Cyclo, st.sampled_from(CONDUCTORS), st.lists(small_fraction, max_size=16)
)


@st.composite
def long_vectors(draw):
    """A conductor N <= 60 and up to 3N coefficients, so the x^N fold runs."""
    n = draw(st.integers(1, 60))
    return n, draw(st.lists(mixed_fraction, max_size=3 * n))


@given(long_vectors())
def test_reduction_matches_schoolbook_division(case):
    n, v = case
    x = Cyclo(n, v)
    assert x.coeffs == schoolbook_mod(v, n)
    assert_normalised(x)


@given(cyclos, cyclos, cyclos)
def test_mixed_conductor_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a and a + b == b + a
    for x in (a * b, a + b, a - b, Cyclo.sum((a, b, c))):
        assert_normalised(x)


@given(cyclos, small_fraction, st.sampled_from((1, 2, 3, 5)))
def test_negation_scaling_and_lift(a, r, k):
    assert (a - a).is_zero()
    assert a.scale(r) == a * Cyclo.rational(r)
    assert_normalised(a.scale(r))
    m = a.conductor * k
    lifted = a.lift(m)
    assert lifted == a and lifted.conductor == m
    spread = [0] * (len(a.num) * k)
    spread[::k] = a.coeffs
    assert lifted.coeffs == schoolbook_mod(spread, m)


def test_fold_and_bad_conductor():
    assert Cyclo(5, [0] * 5 + [1]) == Cyclo.rational(1)
    assert Cyclo(4, [F(1, 2)] * 12).is_zero()
    for n in (0, -4):
        with pytest.raises(ValueError):
            Cyclo(n, [1])
