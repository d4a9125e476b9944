import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import autoind
from autoind.arith import Coordinate
from autoind.cli import HANDLERS, build_parser, main
from autoind.errors import BudgetExceeded
from autoind.satake import CyclicAlgebra, SatakeParam, ai_fiber


def run_cli(argv, stdin_doc=None, capsys=None):
    if stdin_doc is not None:
        sys.stdin = io.StringIO(
            stdin_doc if isinstance(stdin_doc, str) else json.dumps(stdin_doc)
        )
    try:
        code = main(argv)
    finally:
        sys.stdin = sys.__stdin__
    out = capsys.readouterr().out
    return code, out


def run_cli_process(argv, doc, timeout=10):
    """Run the CLI in a fresh interpreter that is killed after ``timeout`` s."""
    env = dict(os.environ, PYTHONPATH=str(Path(autoind.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "autoind.cli", *argv], input=json.dumps(doc),
        capture_output=True, text=True, env=env, timeout=timeout,
    )


ONE = {"terms": [{"qexp": [0, 1], "conductor": 1, "coeffs": [[1, 1]]}]}


def coord(a, n, p, q):
    return {"zeta": [a, n], "qexp": [p, q]}


class TestLiftSpherical:
    def test_trivial_example(self, capsys):
        doc = {"d": 2, "r": 1, "s": 2, "y": [coord(0, 1, 0, 1)]}
        code, out = run_cli(["lift-spherical"], doc, capsys)
        assert code == 0
        got = json.loads(out)
        assert got["rank"] == 2
        assert {tuple(c["zeta"]) for c in got["coords"]} == {(0, 1), (1, 2)}

    def test_full_schema_accepted(self, capsys):
        doc = {
            "algebra": {"d": 2, "r": 2, "s": 1},
            "blocks": [[coord(0, 1, 0, 1)], [coord(1, 2, 0, 1)]],
        }
        code, out = run_cli(["lift-spherical"], doc, capsys)
        assert code == 0
        assert json.loads(out)["rank"] == 2

    def test_deterministic_output(self, capsys):
        doc = {"d": 3, "r": 1, "s": 3, "y": [coord(1, 4, 3, 2)]}
        _, out1 = run_cli(["lift-spherical"], doc, capsys)
        _, out2 = run_cli(["lift-spherical"], doc, capsys)
        assert out1 == out2

    def test_output_reparses_to_equal_value(self, capsys):
        from autoind.satake import SatakeParam

        doc = {"d": 2, "r": 1, "s": 2, "y": [coord(1, 3, -1, 2)]}
        _, out = run_cli(["lift-spherical"], doc, capsys)
        got = SatakeParam.from_json(json.loads(out))
        assert SatakeParam.from_json(json.loads(json.dumps(got.to_json()))) == got


class TestErrors:
    def test_domain_error_exit_2(self, capsys):
        doc = {
            "direction": "ai",
            "algebra": {"d": 2, "r": 1, "s": 2},
            "param": {"coords": [coord(0, 1, 0, 1), coord(0, 1, 1, 1)]},
        }
        code, out = run_cli(["fibers"], doc, capsys)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "NotStable"

    def test_malformed_json_exit_1(self, capsys):
        code, out = run_cli(["lift-spherical"], "not json {", capsys)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "BadInput"

    def test_missing_field_exit_1(self, capsys):
        code, out = run_cli(["lift-spherical"], {"d": 2}, capsys)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "BadInput"

    @pytest.mark.parametrize("verb", sorted(HANDLERS))
    def test_non_object_exit_1(self, verb, capsys):
        code, out = run_cli([verb], [], capsys)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "BadInput"

    def test_nested_non_object_exit_1(self, capsys):
        code, out = run_cli(["lift-unitary"], {"tau": []}, capsys)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "BadInput"

    @pytest.mark.parametrize(
        "argv",
        [["lift-spherical", "--max-rank", "3"], ["fibers", "--degree-budget", "3"]],
    )
    def test_caps_only_on_their_verbs(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestHeckeVerbs:
    def test_ai_transfer_example(self, capsys):
        # e_2 over the quadratic extension maps to -p_1
        doc = {
            "algebra": {"d": 2, "r": 1, "s": 2},
            "f": {"nvars": 2, "shift": 0, "terms": [
                {"exps": [1, 1], "coef": {"terms": [
                    {"qexp": [0, 1], "conductor": 1, "coeffs": [[1, 1]]}]}}
            ]},
        }
        code, out = run_cli(["hecke-ai"], doc, capsys)
        assert code == 0
        got = json.loads(out)
        assert got["nvars"] == 1 and got["shift"] == 0
        assert got["terms"][0]["exps"] == [1]
        assert got["terms"][0]["coef"]["terms"][0]["coeffs"] == [[-1, 1]]

    def test_bc_transfer_example(self, capsys):
        doc = {
            "algebra": {"d": 2, "r": 1, "s": 2},
            "factors": [{"nvars": 1, "shift": 0, "terms": [
                {"exps": [1], "coef": {"terms": [
                    {"qexp": [0, 1], "conductor": 1, "coeffs": [[1, 1]]}]}}
            ]}],
        }
        code, out = run_cli(["hecke-bc"], doc, capsys)
        assert code == 0
        assert json.loads(out)["terms"][0]["exps"] == [2]

    def test_zero_degree_budget_is_honoured(self, capsys):
        doc = {
            "algebra": {"d": 2, "r": 1, "s": 2},
            "f": {"nvars": 2, "shift": 0, "terms": [
                {"exps": [1, 0], "coef": {"terms": [
                    {"qexp": [0, 1], "conductor": 1, "coeffs": [[1, 1]]}]}}
            ]},
        }
        code, out = run_cli(["hecke-ai", "--degree-budget", "0"], doc, capsys)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "DegreeBudget"

    def test_bc_budget_is_checked_before_multiplying(self):
        # two staircases of degree 45 in 10 variables: multiplying them first
        # used to run for minutes before the budget was checked
        one = {"terms": [{"qexp": [0, 1], "conductor": 1, "coeffs": [[1, 1]]}]}
        stair = {"nvars": 10, "shift": 0,
                 "terms": [{"exps": list(range(9, -1, -1)), "coef": one}]}
        doc = {"algebra": {"d": 2, "r": 2, "s": 1}, "factors": [stair, stair]}
        proc = run_cli_process(["hecke-bc"], doc)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["kind"] == "DegreeBudget"

    @pytest.mark.parametrize("conductors", [(1000003, 1), (9973, 9967)])
    def test_conductor_is_bounded_before_allocating(self, conductors):
        # refused before Phi_1000003 (over a second) or Phi_99400891, for the
        # lcm of the two primes (gigabytes), is built
        def zeta(conductor):
            coef = {"terms": [
                {"qexp": [0, 1], "conductor": conductor, "coeffs": [[0, 1], [1, 1]]}]}
            return {"nvars": 1, "shift": 0, "terms": [{"exps": [1], "coef": coef}]}

        doc = {"algebra": {"d": 2, "r": 2, "s": 1}, "factors": [zeta(c) for c in conductors]}
        proc = run_cli_process(["hecke-bc"], doc)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["kind"] == "BudgetExceeded"

    @pytest.mark.parametrize("conductor", [0, -4])
    def test_conductor_below_one_is_bad_input(self, conductor, capsys):
        coef = {"terms": [{"qexp": [0, 1], "conductor": conductor, "coeffs": [[1, 1]]}]}
        doc = {
            "algebra": {"d": 2, "r": 1, "s": 2},
            "f": {"nvars": 2, "shift": 0, "terms": [{"exps": [1, 0], "coef": coef}]},
        }
        code, out = run_cli(["hecke-ai"], doc, capsys)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "BadInput"

    def test_repeated_terms_are_summed(self, capsys):
        # 2 m_(2,0) = 2 p_2 over the quadratic field maps to 4 p_1 = 4 m_(1)
        term = {"exps": [2, 0], "coef": ONE}
        doc = {"algebra": {"d": 2, "r": 1, "s": 2},
               "f": {"nvars": 2, "shift": 0, "terms": [term, term]}}
        code, out = run_cli(["hecke-ai"], doc, capsys)
        assert code == 0
        got = json.loads(out)["terms"]
        assert [t["exps"] for t in got] == [[1]]
        assert got[0]["coef"]["terms"][0]["coeffs"] == [[4, 1]]

    @pytest.mark.parametrize("f", [
        {"nvars": 2, "shift": 0, "terms": [{"exps": [2.0, 0], "coef": ONE}]},
        {"nvars": 2, "shift": 0, "terms": [{"exps": [2.5, 0.5], "coef": ONE}]},
        {"nvars": 2, "shift": 0, "terms": [{"exps": [2, 0], "coef": ONE},
                                           {"exps": [2.0, 0], "coef": ONE}]},
        {"nvars": 2, "shift": 1.0, "terms": [{"exps": [2, 0], "coef": ONE}]},
        {"nvars": 2.0, "shift": 0, "terms": [{"exps": [2, 0], "coef": ONE}]},
        {"nvars": True, "shift": 0, "terms": [{"exps": [1], "coef": ONE}]},
        {"nvars": -2, "shift": 0, "terms": []},
        {"nvars": 0, "shift": 0, "terms": []},
    ], ids=["float-exps", "fractional-exps", "float-repeat", "float-shift",
            "float-nvars", "bool-nvars", "negative-nvars", "zero-nvars"])
    def test_non_int_or_non_positive_fields_are_bad_input(self, f, capsys):
        alg = {"d": 2, "r": 1, "s": 2}
        for verb, doc in (("hecke-ai", {"f": f}), ("hecke-bc", {"factors": [f]})):
            code, out = run_cli([verb], {"algebra": alg, **doc}, capsys)
            assert code == 1
            assert json.loads(out)["error"]["kind"] == "BadInput"

    @pytest.mark.parametrize("n", [16, 24])
    def test_ai_transfer_of_e8_does_not_expand_the_orbits(self, n):
        # m_(1^8) = e_8 in n variables: its orbit has C(n, 8) vectors, and
        # expanding the products of power sums ran for minutes
        f = {"nvars": n, "shift": 0, "terms": [{"exps": [1] * 8 + [0] * (n - 8), "coef": ONE}]}
        proc = run_cli_process(["hecke-ai"], {"algebra": {"d": 2, "r": 1, "s": 2}, "f": f})
        assert proc.returncode == 0
        got = json.loads(proc.stdout)
        assert got["nvars"] == n // 2
        assert [t["exps"] for t in got["terms"]] == [[1] * 4 + [0] * (n // 2 - 4)]

    def test_bc_product_of_e6_in_24_variables(self):
        e6 = {"nvars": 24, "shift": 0, "terms": [{"exps": [1] * 6 + [0] * 18, "coef": ONE}]}
        doc = {"algebra": {"d": 2, "r": 2, "s": 1}, "factors": [e6, e6]}
        proc = run_cli_process(["hecke-bc"], doc)
        assert proc.returncode == 0
        terms = json.loads(proc.stdout)["terms"]
        got = {tuple(t["exps"]): t["coef"]["terms"][0]["coeffs"] for t in terms}
        assert got[(1,) * 12 + (0,) * 12] == [[924, 1]]
        assert got[(2,) * 6 + (0,) * 18] == [[1, 1]]

    def test_bc_product_strips_the_power_of_e_n_before_counting(self):
        # e_24 * m_(3,2,1^5) times det^-1 is m_(3,2,1^5), of degree 10: the
        # second factor alone has an orbit of 14 M vectors in 24 slots
        det_inv = {"nvars": 24, "shift": 1, "terms": [{"exps": [0] * 24, "coef": ONE}]}
        exps = [4, 3] + [2] * 5 + [1] * 17
        flat = {"nvars": 24, "shift": 0, "terms": [{"exps": exps, "coef": ONE}]}
        doc = {"algebra": {"d": 2, "r": 2, "s": 1}, "factors": [det_inv, flat]}
        proc = run_cli_process(["hecke-bc"], doc)
        assert proc.returncode == 0
        got = json.loads(proc.stdout)
        assert got["shift"] == 0
        assert [t["exps"] for t in got["terms"]] == [[3, 2] + [1] * 5 + [0] * 17]


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("doc", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_golden_output_is_byte_identical(doc, capsys):
    """Stdout of hecke-ai / hecke-bc on documents with conductors 1, 3, 4, 6
    and 12 and mixed denominators, pinned byte for byte."""
    verb = doc.stem.split("_")[0]
    code = main([verb, "--input", str(doc)])
    assert code == 0
    assert capsys.readouterr().out == doc.with_suffix(".out").read_text()


class TestFibers:
    def test_bc_fiber_count(self, capsys):
        doc = {
            "direction": "bc",
            "rep": {"d": 2, "r": 1, "s": 2, "y": [coord(0, 1, 2, 1)]},
        }
        code, out = run_cli(["fibers"], doc, capsys)
        assert code == 0
        assert json.loads(out)["count"] == 2

    def test_max_rank_applies_to_one_call(self, capsys):
        doc = {
            "direction": "bc",
            "rep": {"d": 2, "r": 1, "s": 2, "y": [coord(0, 1, 2, 1)]},
        }
        code, out = run_cli(["fibers", "--max-rank", "0"], doc, capsys)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "BudgetExceeded"
        code, _ = run_cli(["fibers", "--max-rank", "20"], doc, capsys)
        assert code == 0
        # the raised cap must not outlive the command
        pi = SatakeParam(
            tuple(Coordinate.of(F(j % 2, 2), j // 2) for j in range(14))
        )
        with pytest.raises(BudgetExceeded):
            ai_fiber(pi, CyclicAlgebra.field(2))


class TestLiftUnitary:
    def test_roundtrip_through_json(self, capsys):
        doc = {
            "tau": {
                "kind": "speh",
                "atom": {"id": "a", "side": "E", "size": 1, "d": 2, "r": 2},
                "k": 1,
                "q": 2,
            }
        }
        code, out = run_cli(["lift-unitary"], doc, capsys)
        assert code == 0
        got = json.loads(out)
        assert got["kind"] == "product" and len(got["factors"]) == 2


class TestGlobalVerbs:
    def _global_doc(self):
        return {
            "d": 2,
            "places": [{"label": "v0", "f": 2}],
            "rep": {
                "label": "Lam",
                "r": 1,
                "q": 1,
                "locals": {"v0": {"blocks": [[coord(0, 1, 0, 1)]]}},
            },
        }

    def test_global_lift(self, capsys):
        code, out = run_cli(["global-lift"], self._global_doc(), capsys)
        assert code == 0
        got = json.loads(out)
        assert len(got["factors"]) == 1
        assert got["factors"][0]["side"] == "F"

    def test_separate_self(self, capsys):
        doc = self._global_doc()
        doc["pi"] = {"rep": doc.pop("rep"), "l": 2}
        doc["pi_prime"] = doc["pi"]
        code, out = run_cli(["separate"], doc, capsys)
        assert code == 0
        got = json.loads(out)
        assert got == {"distinct": False, "l": 2, "gamma": 0}


    def test_separate_is_bounded_by_the_places_not_by_d(self):
        # one place with f = d: each translate acts on its single block as
        # the identity, so only gamma = 0 is tried and no lift is built
        d = 10**6
        rep = {"label": "A", "r": 1, "q": 1, "locals": {"v": {"blocks": [[coord(1, 3, 1, 1)]]}}}
        doc = {
            "d": d, "places": [{"label": "v", "f": d}],
            "pi": {"rep": rep, "l": 2}, "pi_prime": {"rep": rep, "l": 2},
        }
        proc = run_cli_process(["separate"], doc)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"distinct": False, "l": 2, "gamma": 0}

    def test_global_lift_is_linear_in_r(self):
        # r = d = f = 4000 twist translates of one coordinate: the split tries
        # each candidate once and the lift is built as one tuple per place
        d = 4000
        doc = {
            "d": d, "places": [{"label": "v", "f": d}],
            "rep": {"label": "L", "r": d, "q": 1, "locals": {"v": {"blocks": [[coord(1, 3, 1, 1)]]}}},
        }
        proc = run_cli_process(["global-lift"], doc)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert len(got["factors"]) == d
        assert [f["translate"] for f in got["factors"]] == list(range(d))
        # the split keeps the largest 4000-th root of (1/3, q): the canonical
        # order puts zeta = 11989/12000 last among the roots
        assert got["factors"][0]["locals"]["v"]["coords"] == [coord(11989, 12000, 1, 4000)]


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out = run_cli(["verify", "--suite", "hecke", "--seed", "7", "--cases", "5"], None, capsys)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_suite(self, capsys):
        with pytest.raises(KeyError):
            run_cli(["verify", "--suite", "nope"], None, capsys)


NO_SYMPY = """
import sys
from fractions import Fraction
import autoind.cli
from autoind.arith import Coordinate
from autoind.hecke import SymLaurent, ai_transfer, satake_eval
from autoind.satake import CyclicAlgebra, SatakeParam
f = SymLaurent.elementary(2, 2)
ai_transfer(f, CyclicAlgebra.field(2))
satake_eval(f, SatakeParam((Coordinate.of(Fraction(1, 3)), Coordinate.of(Fraction(1, 5), 1))))
assert "sympy" not in sys.modules, "sympy was imported"
"""


def test_runs_without_sympy():
    env = dict(os.environ, PYTHONPATH=str(Path(autoind.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", NO_SYMPY], env=env, check=True, timeout=120)
