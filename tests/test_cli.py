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
        env = dict(os.environ, PYTHONPATH=str(Path(autoind.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "autoind.cli", "hecke-bc"], input=json.dumps(doc),
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["kind"] == "DegreeBudget"

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
