import copy
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction as F
from math import gcd, lcm
from time import perf_counter
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from autoind import arith
from autoind.arith import (
    MAX_CONDUCTOR, MAX_ROOTS, Cyclo, QCyclo, _chain, _divide, _reduce, cyclotomic_polynomial,
)
from autoind.errors import BudgetExceeded
from autoind.hecke import SymLaurent, satake_eval
from autoind.satake import SatakeParam
from autoind.values import ONE, Coordinate, primitive_root


def coord(z, q=0):
    return Coordinate.of(F(z), F(q))


def sort_key(c):
    """The key of the coordinates' total order, ``(qexp, n, a)``, as Fractions and ints."""
    return c.qexp, c.n, c.a


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

    def test_roots_are_the_k_distinct_k_th_roots_canonical_first(self):
        rng = random.Random(33)
        for _ in range(300):
            n, r, k = rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12)
            c = coord(F(rng.randrange(n), n), F(rng.randint(-30, 30), r))
            ts = list(c.roots(k))
            assert len(set(ts)) == k and all(t**k == c for t in ts)
            assert ts[0] == c.root(k)
            assert set(ts) == {c.root(k) * primitive_root(k) ** j for j in range(k)}

    def test_roots_of_one_index_and_a_refused_index(self):
        c = coord(F(2, 5), F(-3, 4))
        assert list(c.roots(1)) == [c]
        with pytest.raises(ValueError):
            c.roots(0)

    def test_torsion_order(self):
        assert coord(F(2, 6)).torsion_order() == 3
        assert coord(F(1, 4), 1).torsion_order() is None

    def test_json_roundtrip(self):
        a = coord(F(3, 7), F(-5, 2))
        assert Coordinate.from_json(a.to_json()) == a

    def test_sort_is_total(self):
        xs = [coord(F(1, 2)), coord(0), coord(F(1, 3), -1)]
        assert sorted(xs, key=sort_key)[0] == coord(F(1, 3), -1)


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

    def test_conductor_is_bounded(self):
        a, b = Cyclo.root_of_unity(1, 9973), Cyclo.root_of_unity(1, 9967)
        for build in (
            lambda: a * b,
            lambda: Cyclo.sum((a, b)),
            lambda: Cyclo(MAX_CONDUCTOR + 1, (1,)),
            lambda: Cyclo.root_of_unity(1, 99400891),
        ):
            with pytest.raises(BudgetExceeded):
                build()
        assert Cyclo(MAX_CONDUCTOR, (1,)) == Cyclo.rational(1)


class TestQCyclo:
    def test_from_coordinate(self):
        a = coord(F(1, 2), 3)
        x = QCyclo.from_coordinate(a)
        assert x == QCyclo({3: Cyclo.rational(-1)})

    def test_ring_axioms_sample(self):
        a = QCyclo.from_coordinate(coord(F(1, 3), F(1, 2)))
        b = QCyclo.from_coordinate(coord(F(1, 4), -1))
        c = QCyclo.rational(F(2, 5))
        assert a * (b + c) == a * b + a * c
        assert a - a == QCyclo({})

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
    """A conductor N <= 60 and up to 3N coefficients, so the x^N fold runs; or N
    of three or four primes and a few coefficients placed below N, so that every
    stage of the chain runs (a drawn list is rarely longer than phi(N) there)."""
    n = draw(st.sampled_from((*range(1, 61), 105, 210, 330, 420)))
    if n <= 60:
        return n, draw(st.lists(mixed_fraction, max_size=3 * n))
    terms = draw(st.dictionaries(st.integers(0, n - 1), mixed_fraction, min_size=1, max_size=8))
    return n, [terms.get(k, 0) for k in range(max(terms) + 1)]


@given(long_vectors())
def test_reduction_matches_schoolbook_division(case):
    n, v = case
    x = Cyclo(n, v)
    assert x.coeffs == schoolbook_mod(v, n)
    assert_normalised(x)


def dense(deg, terms):
    """The monic polynomial of degree deg with the given nonzero lower terms."""
    poly = [0] * deg + [1]
    for j, c in terms:
        poly[j] = c
    return poly


def divides(b, a):
    """Whether the monic integer polynomial b divides a: long division leaves 0."""
    a, deg = list(a), len(b) - 1
    for k in range(len(a) - deg - 1, -1, -1):
        if c := a[k + deg]:
            for j, x in enumerate(b):
                if x:
                    a[k + j] -= c * x
    return not any(a)


def test_chain_divides_down_to_phi_n():
    for n in (*range(1, 501), 27720):
        chain = [dense(deg, terms) for deg, terms in _chain(n)]
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % k for k in range(2, p))]
        assert len(chain) == len(primes)  # so n = 1 has none and a prime power one
        assert all(len(a) > len(b) and divides(b, a) for a, b in zip(chain, chain[1:]))
        if chain:
            assert chain[-1] == list(cyclotomic_polynomial(n))


def fold_and_divide(v, n):
    """The reduction as one long division: fold by x^n = 1, then divide by Phi_n."""
    w = [0] * n
    for k, c in enumerate(v):
        w[k % n] += c
    _divide(w, n)
    del w[len(cyclotomic_polynomial(n)) - 1 :]
    while w and not w[-1]:
        w.pop()
    return w


def test_dense_vector_at_the_largest_conductor():
    n, rng = 27720, random.Random(27720)
    v = [rng.randint(-10**6, 10**6) for _ in range(n + 100)]
    assert _reduce(list(v), n) == fold_and_divide(v, n)
    times = []
    for _ in range(3):
        w = list(v)
        start = perf_counter()
        _reduce(w, n)
        times.append(perf_counter() - start)
    assert min(times) < 0.25  # 0.02 s; one division by Phi_n, 0.55 s (2-vCPU x86-64, Python 3.11)


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
    lifted = Cyclo.sum((a, Cyclo(m, ())))  # a spread to conductor m
    assert lifted == a and lifted.conductor == m
    spread = [0] * (len(a.num) * k)
    spread[::k] = a.coeffs
    assert lifted.coeffs == schoolbook_mod(spread, m)


qcyclos = st.dictionaries(st.sampled_from((0, 1, -2)), cyclos, max_size=3).map(lambda t: QCyclo(t, 2))


@given(cyclos, cyclos, st.sampled_from((1, 2, 3)))
def test_equality_agrees_with_the_zero_test(a, b, k):
    twin = Cyclo.sum((a, Cyclo(a.conductor * k, ())))  # a, at k times its conductor
    other = Cyclo(a.conductor, b.coeffs)  # b's coefficients at a's conductor
    half = a.scale(F(1, 2))  # often a's numerators over another denominator
    for x, y in ((a, b), (a, twin), (a, other), (b, twin), (a, half)):
        assert (x == y) == (x - y).is_zero() == (y == x)
    assert a == twin


@given(qcyclos, qcyclos, cyclos)
def test_qcyclo_equality_agrees_with_the_zero_test(x, y, c):
    z = x + QCyclo({1: c}, 2)
    for u, w in ((x, y), (x, z), (z, x + QCyclo({1: Cyclo.sum((c, Cyclo(6, ())))}, 2))):
        assert (u == w) == (u - w).is_zero() == (w == u)


def test_equal_conductors_compare_without_subtracting(monkeypatch):
    calls = []
    for cls in (Cyclo, QCyclo):
        for name in ("__sub__", "__neg__"):
            op = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda *a, op=op: calls.append(1) or op(*a))
    a, b = Cyclo(12, [1, 2, 3]), Cyclo(12, [F(1, 2), 5])
    assert a == Cyclo(12, [1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]) and a != b
    assert a != Cyclo(12, [F(1, 2), 1, F(3, 2)])  # the same numerators over 2
    x = QCyclo({1: a, 0: b}, 2)
    assert x == QCyclo({0: b, 1: Cyclo(12, [1, 2, 3])}, 2)
    assert x != QCyclo({0: a, 1: b}, 2)
    assert not calls


def test_different_exponents_compare_unequal():
    one, z = Cyclo.rational(1), Cyclo.root_of_unity(1, 3)
    x = QCyclo({0: one, 1: z}, 2)
    fewer, moved, more = ({0: one}, {0: one, 2: z}, {0: one, 1: z, 2: z})  # over 2
    for y in (QCyclo(t, 2) for t in (fewer, moved, more)):
        assert x != y and y != x


def qfields(x):
    return x.den, sorted((e, c.conductor, c.num, c.den) for e, c in x.terms.items())


coordinates = st.builds(
    Coordinate.of,
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@given(st.lists(coordinates, min_size=1, max_size=4), st.integers(2, 5), st.integers(-6, 6))
def test_one_value_over_r_and_over_k_r_is_one_qcyclo(coords, k, j):
    """q^(p/r) built over r and over k*r: the same den, equal, and the same JSON."""
    x = QCyclo.sum(QCyclo.from_coordinate(c) for c in coords)
    assert x.den >= 1 and gcd(x.den, *x.terms) == 1
    inflated = QCyclo.sum(QCyclo({c.p * k: Cyclo.root_of_unity(c.a, c.n)}, c.r * k) for c in coords)

    def split(c):
        """e_2 at (w, c / w), w = q^(j / (k r)): satake_eval works over a multiple of k*r."""
        w = Coordinate.of(0, F(j, k * c.r))
        e2 = SymLaurent(2, 0, {(1, 1): QCyclo.rational(1)})
        return satake_eval(e2, SatakeParam((w, c * w.inverse())))

    for y in (inflated, QCyclo.sum(map(split, coords))):
        assert y == x and x == y and y.den == x.den
        assert QCyclo.from_json(y.to_json()) == x and y.to_json() == x.to_json()


@given(qcyclos, qcyclos)
def test_product_has_the_fields_of_the_pairwise_products(x, y):
    """Each output exponent's Cyclo sits at the conductor that reducing each
    pair's product apart and adding the products gives."""
    den, pairwise = x.den * y.den, QCyclo({})
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            pairwise = pairwise + QCyclo({e1 * y.den + e2 * x.den: c1 * c2}, den)
    assert qfields(x * y) == qfields(pairwise)


def cyclo_sum_reference(cs):
    """The coefficients of each Cyclo spread to the lcm conductor and added as Fractions."""
    m = lcm(1, *(c.conductor for c in cs))
    v = [F(0)] * m
    for c in cs:
        for i, x in enumerate(c.coeffs):
            v[i * (m // c.conductor)] += x
    return Cyclo(m, v)


spread_qcyclos = st.builds(
    QCyclo,
    st.dictionaries(st.sampled_from((0, 1, -2, 3)), cyclos, max_size=3),
    st.sampled_from((1, 2, 3, -6)),
)


@given(st.lists(spread_qcyclos, max_size=4))
def test_a_sum_has_the_fields_of_the_cyclo_sums_per_exponent(xs):
    """QCyclo.sum and x + y file the terms under their exponent over the lcm den;
    each exponent's Cyclo has the fields of Cyclo.sum over its terms, which are
    those of adding the terms spread to the lcm conductor."""
    den = lcm(1, *(x.den for x in xs))
    per = {}
    for x in xs:
        for e, c in x.terms.items():
            per.setdefault(e * (den // x.den), []).append(c)
    for cs in per.values():
        assert fields(Cyclo.sum(cs)) == fields(cyclo_sum_reference(cs))
    ref = QCyclo({e: Cyclo.sum(cs) for e, cs in per.items()}, den)
    assert qfields(QCyclo.sum(xs)) == qfields(ref)
    if len(xs) == 2:
        assert qfields(xs[0] + xs[1]) == qfields(ref)


def test_empty_sums_are_zero():
    assert fields(Cyclo.sum(())) == fields(Cyclo.sum(iter(()))) == (1, (), 1)
    assert QCyclo.sum(()).is_zero() and qfields(QCyclo.sum(iter(()))) == (1, [])


def test_a_product_builds_one_cyclo_per_q_exponent(monkeypatch):
    qc = QCyclo.from_coordinate
    x = qc(coord(F(1, 3))) + qc(coord(F(1, 4), F(1, 2))) + qc(coord(0, F(3, 2))).scale(F(1, 2))
    y = qc(coord(F(1, 5))) + qc(coord(F(1, 6), 1)).scale(3)
    built = []
    product_sum = arith._product_sum
    monkeypatch.setattr(arith, "_product_sum", lambda ps: built.append(1) or product_sum(ps))
    z = x * y  # six pairs at q^0, 1/2, 1, 3/2, 3/2 and 5/2
    assert len(built) == len(z.terms) == 5


def test_fold_and_bad_conductor():
    assert Cyclo(5, [0] * 5 + [1]) == Cyclo.rational(1)
    assert Cyclo(4, [F(1, 2)] * 12).is_zero()
    for n in (0, -4):
        with pytest.raises(ValueError):
            Cyclo(n, [1])


def test_every_power_of_x_below_2n_reduces_as_one_long_division():
    """x^i for i < 2N: the stages skip the zeros of a vector that is almost all
    zeros, and the fold runs for i >= N.  The reference for x^i is the long
    division of x times the reference for x^(i-1), which is congruent to x^i."""
    for n in (*range(1, 61), 330, 396, 420, 2310):
        ref = fold_and_divide([1], n)
        for i in range(2 * n):
            assert _reduce([0] * i + [1], n) == ref, (n, i)
            ref = fold_and_divide([0] + ref, n)


def fields(x):
    return x.conductor, x.num, x.den


@st.composite
def product_pairs(draw):
    """Pairs ``(a, (n, d, terms))`` of mixed conductors, the factors' ``d`` of
    either sign; a pair may be followed by its negation (of ``a`` or of ``d``),
    so that parts of the sum cancel."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        a = draw(cyclos)
        n = draw(st.sampled_from(CONDUCTORS))
        d = draw(st.sampled_from((1, 2, -3, -6)))
        js = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
        terms = [(j, draw(st.integers(-5, 5).filter(bool))) for j in js]
        out.append((a, (n, d, terms)))
        if draw(st.booleans()):
            out.append((-a, (n, d, terms)) if draw(st.booleans()) else (a, (n, -d, terms)))
    return out


def product_sum_reference(pairs):
    """The products spread as ints into one vector at the lcm conductor over the
    lcm denominator, then handed to the constructor."""
    m = lcm(1, *(lcm(a.conductor, n) for a, (n, _, _) in pairs))
    den = lcm(1, *(a.den * d for a, (_, d, _) in pairs))
    acc = [0] * m
    for a, (n, d, terms) in pairs:
        for i, x in enumerate(a.num):
            for j, c in terms:
                acc[(i * (m // a.conductor) + j * (m // n)) % m] += x * c * (den // (a.den * d))
    return Cyclo(m, acc, den)


@given(product_pairs())
def test_a_product_sum_has_the_fields_the_constructor_gives_its_ints(pairs):
    """The accumulator sets its result's fields itself: they are those of the
    constructor on the same spread ints, a sum that cancels included (zero, kept
    at the lcm conductor)."""
    got, ref = arith._product_sum(pairs), product_sum_reference(pairs)
    assert fields(got) == fields(ref)
    assert_normalised(got)
    cancelling = [q for a, b in pairs for q in ((a, b), (-a, b))]
    assert fields(arith._product_sum(cancelling)) == (ref.conductor, (), 1)


@given(st.one_of(st.integers(-10**6, 10**6), mixed_fraction))
def test_a_rational_has_the_fields_of_the_constructor(c):
    for x in (c, -c, 0, F(0), F(c)):
        got = Cyclo.rational(x)
        assert fields(got) == fields(Cyclo(1, [x]))
        assert_normalised(got)
    assert QCyclo.rational(c) == QCyclo({0: Cyclo(1, [c])})


@pytest.mark.parametrize("bad", [0.5, 1.0, 0.0, -2.0, "1/2", None])
def test_a_float_is_refused_as_a_rational_or_a_coefficient(bad):
    for build in (
        lambda: Cyclo.rational(bad),
        lambda: QCyclo.rational(bad),
        lambda: Cyclo(1, [bad]),
        lambda: Cyclo(3, [1, F(1, 2), bad]),
    ):
        with pytest.raises(ValueError, match="ints or Fractions|an int or a Fraction"):
            build()


@given(cyclos, st.one_of(st.integers(-30, 30), small_fraction))
def test_scaling_and_negation_reduce_nothing(a, c):
    """A remainder times a rational is a remainder: only the gcd is taken, and
    the fields are the constructor's."""
    calls = []
    with patch.object(arith, "_reduce", lambda v, n: calls.append(1) or _reduce(v, n)):
        got = a.scale(c), -a
    assert not calls
    assert fields(got[0]) == fields(Cyclo(a.conductor, [c * x for x in a.coeffs]))
    assert fields(got[1]) == fields(Cyclo(a.conductor, [-x for x in a.coeffs]))
    for x in got:
        assert_normalised(x)


@given(st.integers(1, 60), st.integers(-120, 120))
def test_a_root_of_unity_is_one_shared_cyclo_per_residue(n, a):
    x = Cyclo.root_of_unity(a, n)
    assert x is Cyclo.root_of_unity(a + n, n) is Cyclo.root_of_unity(a % n, n)
    assert fields(x) == fields(Cyclo(n, [0] * (a % n) + [1]))


def test_the_root_memo_is_bounded_and_keeps_no_refused_conductor():
    memo = arith._root_of_unity
    assert memo.cache_info().maxsize == MAX_ROOTS
    Cyclo.root_of_unity(1, 7)
    size = memo.cache_info().currsize
    for n, error in ((0, ValueError), (-3, ValueError), (MAX_CONDUCTOR + 1, BudgetExceeded)):
        with pytest.raises(error):
            Cyclo.root_of_unity(1, n)
        assert memo.cache_info().currsize == size


def filed_product(a, b):
    """a * b as each pair of terms filed under its output exponent."""
    den = lcm(a.den, b.den)
    pairs = [(e1 + e2, (c1, c2._sparse())) for e1, c1 in a._over(den).items() for e2, c2 in b._over(den).items()]
    return arith._filed_sum(den, pairs)


@given(st.sampled_from((0, 1, -2, 5)), st.sampled_from((1, 2, -3)), small_fraction.filter(bool), spread_qcyclos)
def test_a_product_by_a_rational_is_a_scale(e, d, r, y):
    """r q^(e/d) times y, on either side, has the fields of the filed pairs of
    terms, and builds no product sum."""
    x = QCyclo({e: Cyclo.rational(r)}, d)
    refs = [qfields(filed_product(x, y)), qfields(filed_product(y, x))]
    built, product_sum = [], arith._product_sum
    with patch.object(arith, "_product_sum", lambda ps: built.append(1) or product_sum(ps)):
        got = x * y, y * x
    assert not built
    assert [qfields(z) for z in got] == refs


def test_a_negative_denominator_is_normalised_and_zero_refused():
    x = Cyclo.root_of_unity(1, 3)
    assert Cyclo(3, [1], -1) == Cyclo(3, [-1], 1) == -Cyclo.rational(1)
    assert fields(Cyclo(3, [2, 4], -6)) == (3, (-1, -2), 3)
    y = QCyclo({1: x}, -2)
    assert y == QCyclo({-1: x}, 2) and y.den == 2
    assert y.to_json()["terms"][0]["qexp"] == [-1, 2]
    for build in (lambda: Cyclo(3, [1], 0), lambda: QCyclo({1: x}, 0), lambda: QCyclo({}, 0)):
        with pytest.raises(ValueError, match="denominator must be nonzero"):
            build()


# ---------------------------------------------------------------------------
# The integer Coordinate against the Fraction-based class it replaced


@dataclass(frozen=True)
class coordinate_reference:
    """The former ``Coordinate``: two Fractions, ``zeta`` reduced into [0, 1)."""

    zeta: F
    qexp: F

    def __post_init__(self):
        object.__setattr__(self, "zeta", F(self.zeta) % 1)
        object.__setattr__(self, "qexp", F(self.qexp))

    def __mul__(self, other):
        return coordinate_reference(self.zeta + other.zeta, self.qexp + other.qexp)

    def inverse(self):
        return coordinate_reference(-self.zeta, -self.qexp)

    def __pow__(self, k):
        return coordinate_reference(k * self.zeta, k * self.qexp)

    def root(self, k):
        return coordinate_reference(F(self.zeta, k), F(self.qexp, k))

    def torsion_order(self):
        return None if self.qexp != 0 else self.zeta.denominator

    @property
    def sort_key(self):
        return (self.qexp, self.zeta.denominator, self.zeta.numerator)

    def to_json(self):
        return {
            "zeta": [self.zeta.numerator, self.zeta.denominator],
            "qexp": [self.qexp.numerator, self.qexp.denominator],
        }


def agree(c, ref):
    """c is the reference value, field by field and through every reader."""
    assert (c.zeta, c.qexp) == (ref.zeta, ref.qexp)
    assert (c.a, c.n, c.p, c.r) == (
        ref.zeta.numerator, ref.zeta.denominator, ref.qexp.numerator, ref.qexp.denominator
    )
    assert c.to_json() == ref.to_json() and sort_key(c) == ref.sort_key
    assert c.torsion_order() == ref.torsion_order()


wide_fraction = st.fractions(min_value=-50, max_value=50, max_denominator=60)
pairs = st.tuples(wide_fraction, wide_fraction)


@given(st.lists(pairs, min_size=1, max_size=6), st.integers(-7, 7), st.integers(1, 12))
def test_coordinate_agrees_with_the_fraction_reference(raw, k, j):
    cs = [Coordinate(z, q) for z, q in raw]
    refs = [coordinate_reference(z, q) for z, q in raw]
    for c, ref in zip(cs, refs):
        agree(c, ref)
        agree(c.inverse(), ref.inverse())
        agree(c**k, ref**k)
        agree(c.root(j), ref.root(j))
        assert Coordinate.from_json(c.to_json()) == c
        for other, oref in zip(cs, refs):
            agree(c * other, ref * oref)
            assert (c == other) == (ref == oref)
            assert (c < other) == (ref.sort_key < oref.sort_key)
            if c == other:
                assert hash(c) == hash(other)
    order = sorted(range(len(cs)), key=lambda i: refs[i].sort_key)
    assert [c.to_json() for c in sorted(cs)] == [cs[i].to_json() for i in order]
    assert sorted(cs, key=sort_key) == sorted(cs)


@given(wide_fraction, wide_fraction)
def test_coordinate_construction_and_immutability(z, q):
    c = Coordinate(z, q)
    assert c == Coordinate.of(z, q) == Coordinate(c.zeta, c.qexp)
    assert hash(c) == hash(Coordinate.of(z, q))
    n = z.denominator
    assert Coordinate(z.numerator % n + 3 * n, 0) == Coordinate(z.numerator % n, 0)
    for name in ("a", "n", "p", "r", "zeta", "qexp", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, 1)
    for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert twin == c and type(twin) is Coordinate


def test_coordinate_from_ints_and_defaults():
    assert Coordinate(0, 0) == ONE == Coordinate.of() == Coordinate(F(3), -0)
    assert Coordinate(1, 2) == Coordinate.of(0, 2) and Coordinate(1, 2).qexp == 2
    assert Coordinate.of(F(1, 2)) != Coordinate.of(0, F(1, 2))
    assert Coordinate.of(0) != 0 and Coordinate.of(0) is not None
