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
