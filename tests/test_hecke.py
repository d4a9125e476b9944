import random
from fractions import Fraction as F
from functools import lru_cache, reduce
from math import factorial, gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from autoind import arith, hecke
from autoind.arith import Cyclo, QCyclo, _reduce
from autoind.errors import BudgetExceeded, DegreeBudget, RankMismatch
from autoind.hecke import (
    DEGREE_BUDGET,
    MAX_ORBIT,
    SymLaurent,
    ai_transfer,
    bc_transfer,
    _perms,
    _product_degree,
    satake_eval,
)
from autoind.satake import CyclicAlgebra, SatakeParam, SphericalRepE, bc_map, delta_map
from autoind.values import Coordinate
from autoind.verify import (
    random_algebra,
    random_coordinate,
    random_qcyclo,
    random_spherical,
    random_symlaurent,
)


def coord(z, q=0):
    return Coordinate.of(F(z), F(q))


def qc(x):
    return QCyclo.from_coordinate(x)


def monomial(n, lam, shift=0):
    """(z_1 ... z_n)^(-shift) m_lam in n variables, the partition lam padded with
    zeros: ``monomial(n, ())`` is 1 and ``monomial(n, (), shift=-k)`` is e_n^k."""
    return SymLaurent(n, shift, {tuple(lam) + (0,) * (n - len(lam)): QCyclo.rational(1)})


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


def orbit_sum_reference(coords, exps, base):
    """``base`` times m_exps at ``coords``, element by element: one Coordinate
    product and one single-term QCyclo per permutation, summed at the end."""
    orbit = []
    for p in _perms(exps):
        v = base
        for c, e in zip(coords, p):
            v = v * c**e
        orbit.append(QCyclo.from_coordinate(v))
    return QCyclo.sum(orbit)


def satake_eval_reference(f, y):
    base = y.central_character() ** (-f.shift)
    return QCyclo.sum(coef * orbit_sum_reference(y.coords, k, base) for k, coef in f.terms.items())


def random_laurent(rng, n):
    """A random element with any shift, and often a power of e_n in its body."""
    f = random_symlaurent(rng, n, maxdeg=5)
    if rng.random() < 0.5:
        f = mul_reference(f, monomial(n, (), shift=-rng.randint(-2, 2)))
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

    def test_power_sums_rebuild_through_the_reference_product(self):
        rng = random.Random(47)
        for _ in range(100):
            n = rng.randint(1, 6)
            f = random_symlaurent(rng, n, maxdeg=5)
            total = SymLaurent(n, 0, {})
            for key, coef in f.terms.items():
                for lam, c in power_sum_row(n, key).items():
                    p = monomial(n, ())
                    for k in lam:
                        p = mul_reference(p, monomial(n, (k,)))
                    total = total + p.scale(coef * c)
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
        assert monomial(3, (), shift=-2) == monomial(3, (2, 2, 2))

    def test_add_aligns_shifts(self):
        a = monomial(2, (), shift=1)
        b = monomial(2, ())
        c = a + b
        assert c.shift == 1
        assert c.terms.keys() == {(0, 0), (1, 1)}

    def test_mul_monomials(self):
        # m_(1) * m_(1) = m_(2) + 2 m_(11) in two variables
        p1 = monomial(2, (1,))
        sq = p1 * p1
        assert sq == SymLaurent(
            2, 0, {(2, 0): QCyclo.rational(1), (1, 1): QCyclo.rational(2)}
        )

    def test_det_power_inverse(self):
        e2 = monomial(2, (1, 1))
        inv = monomial(2, (), shift=1)
        assert e2 * inv == monomial(2, ())

    def test_json_roundtrip(self):
        f = SymLaurent(3, 1, {(2, 1, 0): QCyclo.rational(F(3, 7))})
        assert SymLaurent.from_json(f.to_json()) == f

    @pytest.mark.parametrize("build", [
        lambda: SymLaurent(0, 0, {}),
        lambda: SymLaurent(-3, 0, {}),
        lambda: SymLaurent(0, 0, {(): QCyclo.rational(1)}),
    ], ids=["zero", "negative", "one"])
    def test_fewer_than_one_variable_is_refused(self, build):
        with pytest.raises(ValueError, match="nvars"):
            build()


class TestEvaluation:
    def test_e1_staircase(self):
        f = monomial(2, (1,))
        y = SatakeParam((coord(0, F(-1, 2)), coord(0, F(1, 2))))
        expect = qc(coord(0, F(-1, 2))) + qc(coord(0, F(1, 2)))
        assert satake_eval(f, y) == expect

    def test_e2_sign_pair(self):
        f = monomial(2, (1, 1))
        y = SatakeParam((coord(0), coord(F(1, 2))))
        assert satake_eval(f, y) == QCyclo.rational(-1)

    def test_p2_at_fourth_roots(self):
        f = monomial(2, (2,))
        y = SatakeParam((coord(F(1, 4)), coord(F(3, 4))))
        assert satake_eval(f, y) == QCyclo.rational(-2)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            satake_eval(monomial(2, ()), SatakeParam((coord(0),)))

    def test_shift_evaluates_as_inverse_determinant(self):
        f = monomial(2, (), shift=2)
        y = SatakeParam((coord(0, 1), coord(F(1, 2), 1)))
        # (z1 z2)^(-2) at {q, -q} is (-q^2)^(-2) = q^(-4)
        assert satake_eval(f, y) == qc(coord(0, -4))


class TestOrbitKernel:
    ORDERS = (1, 2, 3, 4, 5, 6, 7, 12, 14, 15, 20, 21, 28, 35, 60, 84, 105, 140, 210, 420)
    QEXPS = (F(0), F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(-3, 2), F(2, 3), F(-5, 4))

    def random_coords(self, rng, n):
        """n coordinates with orders dividing 420, often repeated, or n-th roots."""
        if rng.random() < 0.15:
            q = rng.choice(self.QEXPS)
            return tuple(Coordinate.of(F(j, n), q) for j in range(n))
        pool = [
            Coordinate.of(F(rng.randrange(k), k), rng.choice(self.QEXPS))
            for k in rng.choices(self.ORDERS, k=rng.randint(1, n))
        ]
        return tuple(rng.choice(pool) for _ in range(n))

    @staticmethod
    def fields(x):
        return sorted((e, c.conductor, c.num, c.den) for e, c in x.terms.items())

    def test_kernel_matches_the_element_wise_sum_field_for_field(self, monkeypatch):
        rng = random.Random(53)
        seen = {"shift": 0, "zero": 0, "repeat": 0, "half": 0, "big": 0, "scale": 0, "product_sum": 0}
        paths = []  # the path each q-exponent of satake_eval took
        for name in ("_scaled", "_product_sum"):
            op = getattr(hecke, name)
            monkeypatch.setattr(hecke, name, lambda *a, op=op, name=name: paths.append(name) or op(*a))
        for _ in range(400):
            n = rng.randint(1, 6)
            y = SatakeParam(self.random_coords(rng, n))
            f = random_laurent(rng, n)
            paths.clear()
            got = satake_eval(f, y)
            seen["scale"] += paths.count("_scaled")
            seen["product_sum"] += paths.count("_product_sum")
            ref = satake_eval_reference(f, y)
            assert self.fields(got) == self.fields(ref)
            for k in f.terms:
                part = satake_eval(SymLaurent(n, f.shift, {k: f.terms[k]}), y)
                seen["zero"] += part.is_zero()
            seen["shift"] += f.shift != 0
            seen["repeat"] += len(set(y.coords)) < n
            seen["half"] += any(c.r == 2 and c.p < 0 for c in y.coords)
            seen["big"] += any(c.conductor >= 105 for c in ref.terms.values())
        assert all(v > 10 for v in seen.values()), seen

    def test_orbit_past_the_bound_is_refused_before_it_expands(self):
        # m_(1^8) in 24 variables has 24! / (8! 16!) = 735471 exponent vectors
        f = monomial(24, (1,) * 8)
        y = SatakeParam(tuple(coord(F(1, 5)) for _ in range(24)))
        with pytest.raises(BudgetExceeded, match=f"exceeds {MAX_ORBIT}"):
            satake_eval(f, y)

    def test_a_refusal_is_not_memoised(self):
        key = (1,) * 8 + (0,) * 16
        for _ in range(2):  # the memo keeps no entry for a refused key
            with pytest.raises(BudgetExceeded, match=f"exceeds {MAX_ORBIT}"):
                hecke._orbit(key)
        y = SatakeParam(tuple(coord(F(1, 5)) for _ in range(24)))
        for _ in range(2):
            with pytest.raises(BudgetExceeded, match=f"exceeds {MAX_ORBIT}"):
                satake_eval(monomial(24, (1,) * 8), y)

    def test_one_key_at_several_shifts(self):
        """The orbit memo is keyed by the dominant key alone; each shift still
        evaluates as the element-wise sum."""
        rng = random.Random(67)
        for _ in range(60):
            n = rng.randint(1, 5)
            y = SatakeParam(self.random_coords(rng, n))
            key = tuple(sorted((rng.randint(0, 3) for _ in range(n)), reverse=True))
            coef = self.random_coefficient(rng)
            for shift in (0, 1, -2, 0):
                f = SymLaurent(n, shift, {key: coef})
                assert self.fields(satake_eval(f, y)) == self.fields(satake_eval_reference(f, y))

    def test_memo_tables_are_keyed_by_int_tuples(self, monkeypatch):
        """1, 1.0, True and Fraction(1) hash alike, so a memo table that met
        one of the others could hand its entry to an int key.  Each table only
        sees ints and tuples of ints, since the constructor refuses the rest."""
        seen = []
        for name in ("_orbit", "_m_product", "_e_row", "_m_to_e", "_ai_row"):
            memo = getattr(hecke, name)
            monkeypatch.setattr(hecke, name, lambda *a, memo=memo: seen.append(a) or memo(*a))
        rng = random.Random(83)
        for _ in range(40):
            alg = random_algebra(rng, rng.choice((2, 3)))
            y = random_spherical(rng, alg, 1, max_order=8)
            f = SymLaurent.from_json(random_symlaurent(rng, alg.d, maxdeg=4).to_json())
            satake_eval(ai_transfer(f * f, alg), y.flatten())
        assert {len(a) for a in seen} == {1, 2, 3}
        assert all(type(x) is int or all(type(e) is int for e in x) for a in seen for x in a)
        for bad in ((1.0, 0), (True, 0), (F(1), 0)):
            with pytest.raises(ValueError, match="exponent vector"):
                SymLaurent(2, 0, {bad: QCyclo.rational(1)})
        for bad in (1.0, True, F(1)):  # the shift keys the evaluation memo
            with pytest.raises(ValueError, match="shift"):
                SymLaurent(2, bad, {(2, 1): QCyclo.rational(1)})

    def test_no_coordinate_arithmetic_per_orbit_element(self, monkeypatch):
        calls = []
        for name in ("__mul__", "__pow__"):
            op = getattr(Coordinate, name)
            monkeypatch.setattr(
                Coordinate, name, lambda a, b, op=op: calls.append(1) or op(a, b)
            )
        y = SatakeParam(tuple(coord(F(1, k), F(k, 2)) for k in range(1, 7)))
        f = monomial(6, (5, 4, 3, 2, 1))  # 6! = 720 exponent vectors
        assert satake_eval(f, y) == satake_eval_reference(f, y)
        calls.clear()
        hecke._evaluate.cache_clear()  # evaluate again, not from the memo
        satake_eval(f, y)
        assert len(calls) <= y.rank

    def test_one_reduction_per_q_exponent_and_per_row_of_several_roots(self, monkeypatch):
        y = SatakeParam(tuple(coord(F(1, k), F(k, 2)) for k in range(1, 7)))
        f = monomial(6, (5, 4, 3, 2, 1))  # 6! = 720 exponent vectors
        rows = {}
        for p in _perms((5, 4, 3, 2, 1, 0)):
            v = reduce(mul, (c**e for c, e in zip(y.coords, p)))
            rows.setdefault(v.qexp, set()).add(v.zeta)
        several = sum(len(roots) > 1 for roots in rows.values())
        built, reduced = [], []
        product_sum = arith._product_sum
        for module in (arith, hecke):
            monkeypatch.setattr(module, "_product_sum", lambda ps: built.append(1) or product_sum(ps))
            monkeypatch.setattr(module, "_reduce", lambda v, n: reduced.append(1) or _reduce(v, n))
        arith._root_of_unity.cache_clear()
        hecke._evaluate.cache_clear()
        out = satake_eval(f, y)
        # each q-exponent is the rational 1 times one row: a scale of the row's
        # remainder, no product sum; a row of several roots is reduced once, a
        # row of one root only when the root memo misses
        assert len(out.terms) == len(rows) and not built
        assert len(reduced) == several + arith._root_of_unity.cache_info().misses
        reduced.clear()
        assert satake_eval(f, y) == out  # the repeat is read from the evaluation memo
        assert not built and not reduced
        hecke._evaluate.cache_clear()
        assert satake_eval(f, y) == out
        assert not built and len(reduced) == several

    def random_coefficient(self, rng):
        """A sum of two to four scaled coordinates: often several q-terms."""
        return QCyclo.sum(
            qc(Coordinate.of(F(rng.randrange(k), k), rng.choice(self.QEXPS))).scale(c)
            for k, c in zip(rng.choices(self.ORDERS[:12], k=rng.randint(2, 4)), (-2, 1, 3, -1))
        )

    def test_coefficients_with_several_q_terms(self):
        rng = random.Random(61)
        several = 0
        for _ in range(200):
            n = rng.randint(1, 4)
            y = SatakeParam(self.random_coords(rng, n))
            g = random_laurent(rng, n)
            f = SymLaurent(n, g.shift, {k: self.random_coefficient(rng) for k in g.terms})
            several += any(len(c.terms) > 1 for c in f.terms.values())
            got, ref = satake_eval(f, y), satake_eval_reference(f, y)
            assert got == ref
            assert all(c.conductor % ref.terms[e].conductor == 0 for e, c in got.terms.items())
        assert several > 150

    def test_a_cancelling_partial_keeps_its_conductor(self):
        # (1 - q) m_(1,0) + q at (zeta_5, zeta_5 q): the first term cancels at
        # q^1, so the term-by-term products drop its conductor 5 there
        z5 = coord(F(1, 5))
        one_minus_q = QCyclo.rational(1) - qc(coord(0, 1))
        f = SymLaurent(2, 0, {(1, 0): one_minus_q, (0, 0): qc(coord(0, 1))})
        y = SatakeParam((z5, coord(F(1, 5), 1)))
        got, ref = satake_eval(f, y), satake_eval_reference(f, y)
        assert got == ref == qc(z5) + qc(coord(0, 1)) - qc(coord(F(1, 5), 2))
        assert (got.terms[F(1)].conductor, ref.terms[F(1)].conductor) == (5, 1)


class TestEvaluationMemo:
    """``satake_eval`` keeps its last ``MAX_EVALS`` results, keyed by every int of
    its arguments; a refusal raises before anything is stored."""

    fields = staticmethod(TestOrbitKernel.fields)

    @staticmethod
    def case():
        """A fresh (f, y): rows of several roots, and a coefficient of two q-terms."""
        y = SatakeParam((coord(F(1, 3)), coord(F(2, 5)), coord(F(1, 6), -1)))
        f = SymLaurent(3, 1, {
            (3, 1, 0): QCyclo.rational(F(2, 3)) + qc(coord(F(1, 4), 1)),
            (2, 2, 1): QCyclo.rational(-1),
        })
        return f, y

    def test_a_repeat_runs_no_reduction(self, monkeypatch):
        ran = []
        for module in (arith, hecke):
            for name in ("_reduce", "_product_sum"):
                op = getattr(arith, name)
                monkeypatch.setattr(module, name, lambda *a, op=op: ran.append(op) or op(*a))
        hecke._evaluate.cache_clear()
        f, y = self.case()
        out = satake_eval(f, y)
        assert {arith._reduce, arith._product_sum} <= set(ran)
        g, z = self.case()  # equal, but no object shared with the first call
        assert (g, z) == (f, y) and g is not f and z is not y
        ran.clear()
        again = satake_eval(g, z)
        assert not ran and again == out and self.fields(again) == self.fields(out)

    def test_an_equal_coefficient_at_another_conductor_is_its_own_entry(self):
        y = SatakeParam((coord(F(1, 3)), coord(F(2, 3)), coord(0, 1)))
        one, one_at_2 = QCyclo.rational(1), QCyclo({0: Cyclo(2, [1])})
        assert one == one_at_2 and one_at_2.terms[0].conductor == 2
        fs = [SymLaurent(3, 0, {(2, 1, 0): c, (1, 0, 0): QCyclo.rational(3)}) for c in (one, one_at_2)]
        hecke._evaluate.cache_clear()
        outs = [satake_eval(f, y) for f in fs]
        assert hecke._evaluate.cache_info().currsize == 2
        assert outs[0] == outs[1] and self.fields(outs[0]) != self.fields(outs[1])
        for f, out in zip(fs, outs):
            hecke._evaluate.cache_clear()
            assert self.fields(out) == self.fields(satake_eval(f, y))

    def test_the_memo_holds_at_most_max_evals_results(self):
        hecke._evaluate.cache_clear()
        assert hecke._evaluate.cache_info().maxsize == hecke.MAX_EVALS
        f = monomial(2, (1,))
        for j in range(3 * hecke.MAX_EVALS):
            y = SatakeParam((coord(F(1, j + 2)), coord(0, j)))
            assert satake_eval(f, y) == satake_eval_reference(f, y)
            assert hecke._evaluate.cache_info().currsize == min(j + 1, hecke.MAX_EVALS)

    @pytest.mark.parametrize("f, coords, refusal", [
        (monomial(2, (1,)), (coord(0),), "variables"),
        # m_(1^8) in 24 variables: 735471 exponent vectors
        (monomial(24, (1,) * 8), (coord(F(1, 5)),) * 24, f"exceeds {MAX_ORBIT}"),
        # a row of two roots of order 30011
        (monomial(2, (1,)), (coord(F(1, 30011)), coord(F(2, 30011))), "conductor 30011"),
    ], ids=["rank", "orbit", "conductor"])
    def test_a_refusal_raises_on_every_call_and_is_not_stored(self, f, coords, refusal):
        hecke._evaluate.cache_clear()
        satake_eval(monomial(1, (2,)), SatakeParam((coord(F(1, 7)),)))
        for _ in range(2):
            with pytest.raises((RankMismatch, BudgetExceeded), match=refusal):
                satake_eval(f, SatakeParam(coords))
            assert hecke._evaluate.cache_info().currsize == 1


class TestPowerSums:
    def test_newton_e2(self):
        expr = power_sum_row(2, (1, 1))
        assert expr == {(1, 1): QCyclo.rational(F(1, 2)), (2,): QCyclo.rational(F(-1, 2))}

    def test_e1_is_p1(self):
        assert power_sum_row(3, (1,)) == {(1,): QCyclo.rational(1)}

    def test_m2_is_exactly_p2(self):
        assert power_sum_row(2, (2,)) == {(2,): QCyclo.rational(1)}

    def test_roundtrip_all_monomials(self):
        for n in (1, 2, 3, 4):
            for d in range(0, 7):
                for lam in _partitions(d, n):
                    assert from_power_sums(power_sum_row(n, lam), n) == monomial(n, lam)


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


@lru_cache(maxsize=None)
def _p_monomial(nvars, lam):
    """The row R_lam: p_{lam_1} ... p_{lam_l} in nvars variables, as integer
    m-basis coefficients (Macdonald, Symmetric Functions, I.6).  R_{lam mu}
    counts the maps f from the parts of lam to those of mu with mu_j = sum_{f(i)
    = j} lam_i; mu with more than nvars parts drop out."""
    row = {(0,) * nvars: 1}
    for part in lam:
        nxt = {}
        for key, c in row.items():
            for k, v in hecke._m_product(key, (part,) + (0,) * (nvars - 1), nvars).items():
                nxt[k] = nxt.get(k, 0) + c * v
        row = nxt
    return row


@lru_cache(maxsize=None)
def _m_to_p(nvars, key):
    """m_key in nvars variables in the power-sum basis, as Fractions.  The solve
    is triangular: p_lam, lam the nonzero parts of key, is R_{lam key} m_key plus
    dominance-larger m_k of its degree, so m_key = (p_lam - sum R_{lam k} m_k) /
    R_{lam key}, and the memo solves each m_k once."""
    lam = tuple(e for e in key if e)
    row = _p_monomial(nvars, lam)
    out = {lam: F(1)}
    for k, v in row.items():
        if k != key:
            for mu, x in _m_to_p(nvars, k).items():
                out[mu] = out.get(mu, 0) - v * x
    return {mu: x / row[key] for mu, x in out.items() if x}


def ai_row_reference(nvars, key, s):
    """The induction image of m_key through the power sums: ``p_k -> s p_{k/s}``
    (or 0) on its :func:`_m_to_p` row, as a rational m-basis row."""
    out = {}
    for lam, x in _m_to_p(nvars, key).items():
        if all(k % s == 0 for k in lam):
            for k, v in _p_monomial(nvars // s, tuple(k // s for k in lam)).items():
                out[k] = out.get(k, 0) + x * s ** len(lam) * v
    return {k: v for k, v in out.items() if v}


def to_power_sums_reference(f):
    """The triangular solve on the whole element: peel the smallest surviving
    key of each degree, subtracting its p_lam row from the rest."""
    rem, out = dict(f.terms), {}
    while rem:
        key = min(rem, key=lambda k: (sum(k), k))
        lam = tuple(e for e in key if e)
        row = _p_monomial(f.nvars, lam)
        c = out[lam] = rem.pop(key).scale(F(1, row[key]))
        for k2 in row.keys() - {key}:
            rem[k2] = rem[k2] - c.scale(row[k2]) if k2 in rem else c.scale(-row[k2])
        rem = {k: v for k, v in rem.items() if not v.is_zero()}
    return out


def power_sum_row(n, lam):
    """The row :func:`_m_to_p` of m_lam in n variables, as QCyclos."""
    key = tuple(lam) + (0,) * (n - len(lam))
    return {mu: QCyclo.rational(x) for mu, x in _m_to_p(n, key).items()}


def from_power_sums(expr, nvars, shift=0):
    """``(z_1 ... z_n)^(-shift)`` times the sum of ``c * p_lam`` over ``expr``."""
    pairs = ((c, _p_monomial(nvars, lam)) for lam, c in expr.items())
    return SymLaurent(nvars, shift, hecke._combine(pairs))


def ai_transfer_reference(f, algebra, budget=DEGREE_BUDGET):
    """The transfer through the power-sum basis on the whole element: peel f
    into power sums, map p_k -> s p_{k/s} (or 0), rebuild by the rows R_lam."""
    d, r, s = algebra.d, algebra.r, algebra.s
    if f.degree() > budget:
        raise DegreeBudget(f"degree {f.degree()} exceeds budget {budget}")
    m = f.nvars // d
    mapped = {
        tuple(k // s for k in lam): c.scale(s ** len(lam))
        for lam, c in to_power_sums_reference(f).items()
        if all(k % s == 0 for k in lam)
    }
    out = from_power_sums(mapped, m * r, shift=f.shift)
    unit = algebra.zeta ** (-m * r * (s * (s - 1) // 2) * f.shift)
    if unit.a:
        out = out.scale(QCyclo.from_coordinate(unit))
    return out


class TestAiTransfer:
    def test_p1_dies(self):
        alg = CyclicAlgebra.field(2)
        assert ai_transfer(monomial(2, (1,)), alg).is_zero()

    def test_e2_maps_to_minus_p1(self):
        alg = CyclicAlgebra.field(2)
        out = ai_transfer(monomial(2, (1, 1)), alg)
        assert out == monomial(1, (1,)).scale(-1)

    def test_p2_maps_to_2p1(self):
        alg = CyclicAlgebra.field(2)
        out = ai_transfer(monomial(2, (2,)), alg)
        assert out == monomial(1, (1,)).scale(2)

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
        f = monomial(6, (1,) * 6) + monomial(6, (1,) * 3)
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
            ai_transfer(monomial(3, ()), CyclicAlgebra.field(2))

    ALGEBRAS = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 3), (4, 1), (4, 2), (6, 2), (6, 3))

    def random_case(self, rng, d, r, coefficient):
        """An algebra of type (d, r) with a random generator, and f with any
        shift whose coefficients ``coefficient(rng)`` draws."""
        s = d // r
        zeta = Coordinate.of(F(rng.choice([j for j in range(s) if gcd(j, s) == 1]), s))
        n = d * rng.randint(1, max(1, 6 // d))
        g = random_laurent(rng, n)
        return CyclicAlgebra(d, r, s, zeta), SymLaurent(n, g.shift, {k: coefficient(rng) for k in g.terms})

    def test_matches_the_power_sum_route_field_for_field(self):
        """Rows per key against the whole-element route, with every coefficient
        term of f at one conductor: the same JSON, so the same conductors and
        denominators, over (d, r, s) with s = 1 among them."""
        rng = random.Random(71)
        seen, refused = {"s=1": 0, "shift": 0, "several": 0, "unit": 0}, 0
        for d, r in self.ALGEBRAS:
            for _ in range(25):
                N = rng.choice((1, 2, 3, 4, 5, 6, 12))

                def coefficient(rng):
                    terms = {e: Cyclo(N, [rng.randint(-3, 3) for _ in range(N)], rng.randint(1, 3))
                             for e in rng.sample((-3, -1, 0, 1, 2), rng.randint(1, 3))}
                    return QCyclo(terms, rng.choice((1, 2)))

                alg, f = self.random_case(rng, d, r, coefficient)
                if f.degree() > DEGREE_BUDGET:
                    refused += 1
                    for route in (ai_transfer, ai_transfer_reference):
                        with pytest.raises(DegreeBudget):
                            route(f, alg)
                    continue
                assert ai_transfer(f, alg).to_json() == ai_transfer_reference(f, alg).to_json()
                seen["s=1"] += alg.s == 1
                seen["shift"] += f.shift != 0
                seen["several"] += any(len(c.terms) > 1 for c in f.terms.values())
                seen["unit"] += f.shift != 0 and alg.s > 1
        assert all(v > 10 for v in seen.values()) and refused, seen

    def test_matches_the_power_sum_route_for_any_coefficients(self):
        """With coefficient terms at several conductors the values agree; the
        conductors need not, since each route lifts a sum to the lcm of the
        conductors of what it added (see the next test)."""
        rng, kernel = random.Random(73), TestOrbitKernel()
        for d, r in self.ALGEBRAS:
            for coefficient in (kernel.random_coefficient, random_qcyclo) * 15:
                alg, f = self.random_case(rng, d, r, coefficient)
                if f.degree() <= DEGREE_BUDGET:
                    assert ai_transfer(f, alg) == ai_transfer_reference(f, alg)

    def test_at_s_equal_one_the_coefficients_come_back_unchanged(self, monkeypatch):
        """At s = 1 the transfer is the identity and each key's row is itself,
        so f comes back field for field.  The whole-element route lifts
        m_(4) to conductor 12 here: its power sum p_(4) took the conductor 4
        of m_(2,1,1) in the solve."""
        f = SymLaurent(4, 1, {(2, 1, 1, 0): qc(coord(F(1, 4))), (4, 0, 0, 0): qc(coord(F(1, 3)))})
        alg = CyclicAlgebra.split(4)
        assert ai_transfer(f, alg).to_json() == f.to_json()
        ref = ai_transfer_reference(f, alg)
        assert ref == f and ref.terms[(4, 0, 0, 0)].terms[0].conductor == 12
        rng, kernel = random.Random(79), TestOrbitKernel()
        monkeypatch.setattr(hecke, "DEGREE_BUDGET", 30)
        for _ in range(100):
            alg, f = self.random_case(rng, 2, 2, kernel.random_coefficient)
            assert ai_transfer(f, alg).to_json() == f.to_json()

    def test_degree_budget_is_checked_before_any_row(self, monkeypatch):
        f = monomial(2, (13,))
        for _ in range(2):
            with pytest.raises(DegreeBudget, match="degree 13 exceeds budget 12"):
                ai_transfer(f, CyclicAlgebra.field(2))
        with pytest.raises(RankMismatch):  # the rank is checked before the degree
            ai_transfer(monomial(3, (13,)), CyclicAlgebra.field(2))
        monkeypatch.setattr(hecke, "DEGREE_BUDGET", 13)  # the bound is read when the call runs
        assert ai_transfer(f, CyclicAlgebra.field(2)) == ai_transfer_reference(
            f, CyclicAlgebra.field(2), budget=13
        )

    def test_each_key_is_solved_once(self):
        """Every key of degree <= 12 in 6 variables: each m_k is solved once, the
        dominance-smaller keys it needs taken from the memo; the reference's
        power-sum solve, over the dominance-larger keys, likewise."""
        n = 6
        keys = [lam + (0,) * (n - len(lam)) for deg in range(13) for lam in _partitions(deg, n)]
        f = SymLaurent(n, 0, {k: QCyclo.rational(1) for k in keys})
        hecke._ai_row.cache_clear()
        hecke._m_to_e.cache_clear()
        out = ai_transfer(f, CyclicAlgebra.field(2))
        assert hecke._m_to_e.cache_info().misses == len(keys)
        assert out == ai_transfer_reference(f, CyclicAlgebra.field(2))
        _m_to_p.cache_clear()
        rows = {}
        for k in keys:
            for mu, x in power_sum_row(n, k).items():
                rows[mu] = rows[mu] + x if mu in rows else x
        assert {mu: x for mu, x in rows.items() if not x.is_zero()} == to_power_sums_reference(f)
        assert _m_to_p.cache_info().misses == len(keys)

    def test_small_rows_in_the_elementary_basis(self):
        """m_(1,1) = e_2, m_(2) = e_(1,1) - 2 e_2 and m_(2,1) = e_(2,1) - 3 e_3;
        V_2 e_2 = -e_1 and V_2 p_2 = 2 p_1."""
        assert hecke._m_to_e(2, (1, 1)) == {(2,): 1}
        assert hecke._m_to_e(2, (2, 0)) == {(1, 1): 1, (2,): -2}
        assert hecke._m_to_e(3, (2, 1, 0)) == {(2, 1): 1, (3,): -3}
        assert hecke._ai_row(2, (1, 1), 2) == {(1,): -1}
        assert hecke._ai_row(4, (2, 0, 0, 0), 2) == {(1, 0): 2}

    @pytest.mark.parametrize("n, s", [(8, 2), (8, 4), (9, 3), (12, 2), (12, 3)])
    def test_integer_rows_match_the_power_sum_route_past_six_variables(self, n, s):
        """Criterion 2's oracle stops at 6 variables (``MAX_ORBIT``); past it the
        induction row of every key of degree <= 12 is the power-sum route's,
        with int values."""
        for deg in range(DEGREE_BUDGET + 1):
            for lam in _partitions(deg, n):
                key = lam + (0,) * (n - len(lam))
                row = hecke._ai_row(n, key, s)
                assert row == ai_row_reference(n, key, s), key
                assert all(type(v) is int for v in row.values()), key


class TestBcTransfer:
    def test_p1_to_p2(self):
        alg = CyclicAlgebra.field(2)
        assert bc_transfer([monomial(1, (1,))], alg) == monomial(1, (2,))

    def test_e2_to_e2_squared(self):
        alg = CyclicAlgebra.field(2)
        e2 = monomial(2, (1, 1))
        assert bc_transfer([e2], alg) == e2 * e2

    def test_split_case_multiplies(self):
        alg = CyclicAlgebra.split(2)
        f1 = monomial(2, (1,))
        f2 = monomial(2, (1, 1))
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
        out = bc_transfer([monomial(2, (), shift=1)], alg)
        assert out.shift == 3

    def test_product_degree_is_predicted_exactly(self):
        # z^-1 * z^2 = z: summing the degrees alone would give 2
        fs = [monomial(1, (), shift=1), monomial(1, (), shift=-2)]
        assert _product_degree(fs) == 1
        rng = random.Random(29)
        stripped = 0
        for _ in range(200):
            n = rng.randint(1, 3)
            fs = [
                random_symlaurent(rng, n, maxdeg=4) * monomial(n, (), shift=-rng.randint(-2, 2))
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
            mapped = {tuple(s * k for k in lam): c for lam, c in to_power_sums_reference(prod).items()}
            ref = from_power_sums(mapped, n, s * prod.shift)
            got = bc_transfer(fs, alg)
            assert got == ref
            for key, coef in got.terms.items():
                for qexp, c in coef.terms.items():
                    assert ref.terms[key].terms[qexp].conductor % c.conductor == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 5))
def test_power_sum_roundtrip_random_degree(n, d):
    lam = (d,) if d else ()
    assert from_power_sums(power_sum_row(n, lam), n) == monomial(n, lam)
