import gc
import importlib
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import autoind
from autoind.cli import VERBS, main
from autoind.errors import MAX_PARTS


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
    """Run the CLI in a fresh interpreter that is killed after ``timeout`` s;
    a str ``doc`` is sent as it is."""
    env = dict(os.environ, PYTHONPATH=str(Path(autoind.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "autoind.cli", *argv],
        input=doc if isinstance(doc, str) else json.dumps(doc),
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

    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_non_object_exit_1(self, verb, capsys):
        code, out = run_cli([verb], [], capsys)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "BadInput"

    def test_nested_non_object_exit_1(self, capsys):
        code, out = run_cli(["lift-unitary"], {"tau": []}, capsys)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "BadInput"

    @pytest.mark.parametrize("text", [
        "[" * 1000 + "]" * 1000,
        '{"d": 2, "r": 1, "s": 2, "y": ' + "[" * 1000 + "]" * 1000 + "}",
    ], ids=["bare", "in-object"])
    def test_deeply_nested_json_is_bad_input(self, text):
        # json.load raises RecursionError at about 1000 levels; it used to
        # end in a traceback with no JSON body
        proc = run_cli_process(["lift-spherical"], text)
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["error"]["kind"] == "BadInput"

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_undecodable_input_is_bad_input(self, source, tmp_path, capsys):
        # a byte that is not UTF-8 ended in a UnicodeDecodeError traceback
        raw = b'{"d": 2, "\xff": 1}'
        path = tmp_path / "doc.json"
        path.write_bytes(raw)
        argv = ["lift-spherical", "-i", str(path)] if source == "file" else ["lift-spherical"]
        sys.stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
        try:
            code = main(argv)
        finally:
            sys.stdin = sys.__stdin__
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "BadInput"

    @pytest.mark.parametrize("verb", sorted(VERBS))
    @pytest.mark.parametrize("flag", ["--max-rank", "--degree-budget"])
    def test_no_compute_verb_takes_a_cap(self, verb, flag):
        # every bound is a library constant: a raised cap undid the bound
        with pytest.raises(SystemExit) as exc:
            main([verb, flag, "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, refused", [
        (["verify", "--suite", "satake", "--cases", "-3"], "--cases: must be at least 1, got -3"),
        (["verify", "--cases", "0"], "--cases: must be at least 1, got 0"),
    ], ids=["cases-negative", "cases-zero"])
    def test_out_of_range_int_option_is_a_usage_error(self, argv, refused):
        proc = run_cli_process(argv, {})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: autoind") and refused in proc.stderr


def test_the_readme_bound_table_names_each_constant_with_its_value():
    # | `module.NAME` (also `other.NAME`) | value | ...: a row for a constant
    # that was renamed, retuned or deleted fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| (`\w+\.[A-Z_]+`[^|]*)\| ([\d ]+) \|", readme, re.M)
    assert rows
    for names, value in rows:
        for module, name in re.findall(r"`(\w+)\.([A-Z_]+)`", names):
            got = getattr(importlib.import_module(f"autoind.{module}"), name, None)
            assert got == int(value.replace(" ", "")), f"{module}.{name}: README {value}, code {got}"


class TestUsage:
    """The argv grammar: ``VERB [--input FILE | -i FILE | --input=FILE]``,
    ``verify [--suite S] [--seed N] [--cases N]`` and ``-h``/``--help``."""

    @pytest.mark.parametrize("argv, reason", [
        ([], "the following arguments are required: verb"),
        (["nope"], "invalid choice: 'nope'"),
        (["lift-spherical", "--bogus"], "unrecognized arguments: --bogus"),
        (["lift-spherical", "--input"], "argument --input/-i: expected one argument"),
        (["lift-spherical", "-i"], "argument --input/-i: expected one argument"),
        (["verify", "--input", "doc.json"], "unrecognized arguments: --input"),
        (["verify", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    ], ids=["none", "unknown-verb", "unknown-option", "input-no-value", "i-no-value",
            "verify-input", "seed-not-int"])
    def test_usage_error_exits_2_with_the_reason(self, argv, reason, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: autoind") and reason in err

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["lift-spherical", "-h"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: autoind") and "lift-spherical" in out and err == ""

    def test_every_input_form_reads_the_same_document(self, capsys):
        doc = min(GOLDEN.glob("lift-spherical_*.json"))
        expected = doc.with_suffix(".out").read_text()
        for argv in (["-i", str(doc)], ["--input", str(doc)], [f"--input={doc}"]):
            assert run_cli(["lift-spherical", *argv], None, capsys) == (0, expected)
        assert run_cli(["lift-spherical"], doc.read_text(), capsys) == (0, expected)

    @pytest.mark.parametrize("argv", [["--input="], ["-i", ""]], ids=["input-eq", "i"])
    def test_an_empty_path_is_opened_not_stdin(self, argv, capsys):
        # an empty path used to read stdin and exit 0
        doc = min(GOLDEN.glob("lift-spherical_*.json")).read_text()
        code, out = run_cli(["lift-spherical", *argv], doc, capsys)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "BadInput"


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

    def test_repeated_qexp_terms_of_a_coefficient_are_summed(self, capsys):
        # 1 + 5 at one qexp is the coefficient 6: 6 m_(2,0) maps to 12 m_(1)
        def coef(*coeffs):
            return {"terms": [{"qexp": [0, 1], "conductor": 1, "coeffs": [c]} for c in coeffs]}

        outs = []
        for c in (coef([1, 1], [5, 1]), coef([6, 1])):
            doc = {"algebra": {"d": 2, "r": 1, "s": 2},
                   "f": {"nvars": 2, "shift": 0, "terms": [{"exps": [2, 0], "coef": c}]}}
            code, out = run_cli(["hecke-ai"], doc, capsys)
            assert code == 0
            outs.append(out)
        assert json.loads(outs[0])["terms"][0]["coef"]["terms"][0]["coeffs"] == [[12, 1]]
        assert outs[0] == outs[1]

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
    """Stdout pinned byte for byte: hecke-ai / hecke-bc on documents with
    conductors 1, 3, 4, 6 and 12 and mixed denominators; lift-unitary and
    lift-elliptic on every factor kind, r < d, payloads and translates;
    lift-spherical, bc-spherical, fibers (ai and bc, members whose
    coordinates tie on qexp and differ in (N, a), and fibers of 1, 1 and 14
    members at ranks 14, 13 and 13), global-lift (with the two
    repeated-coordinate documents a backtracking split refused) and separate."""
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

    @pytest.mark.parametrize("doc", [
        # 12 distinct coordinates into 4 blocks of 3: 369 600 members
        {"direction": "ai", "algebra": {"d": 4, "r": 4, "s": 1},
         "param": {"coords": [coord(j % 5, 5, j, 1) for j in range(12)]}},
        # 4 distinct coordinates, each with 30 roots: 810 000 members
        {"direction": "bc", "rep": {"d": 30, "r": 1, "s": 30,
                                    "y": [coord(0, 1, j, 1) for j in range(4)]}},
    ], ids=["ai-split4-rank12", "bc-field30-rank4"])
    def test_fiber_size_is_bounded_before_enumeration(self, doc):
        proc = run_cli_process(["fibers"], doc)
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["error"]["kind"] == "BudgetExceeded"


    @pytest.mark.parametrize("doc, kind, count", [
        # the lower bound max(r, D) refuses before any split is built
        ({"direction": "ai", "algebra": {"d": 2, "r": 2, "s": 1},
          "param": {"coords": [coord(0, 1, j, 1) for j in range(2500)]}}, "BudgetExceeded", None),
        ({"direction": "ai", "algebra": {"d": 5000, "r": 5000, "s": 1},
          "param": {"coords": [coord(0, 1, j, 1) for j in range(5000)]}}, "BudgetExceeded", None),
        ({"direction": "ai", "algebra": {"d": 101, "r": 101, "s": 1},
          "param": {"coords": [coord(0, 1, 0, 1)] * 100 + [coord(0, 1, 1, 1)]}}, "BudgetExceeded", None),
        # one value: one split, 5000 blocks
        ({"direction": "ai", "algebra": {"d": 5000, "r": 5000, "s": 1},
          "param": {"coords": [coord(0, 1, 1, 1)] * 5000}}, None, 1),
        # each coordinate alone in its <zeta>-coset of 5000 slots
        ({"direction": "ai", "algebra": {"d": 5000, "r": 1, "s": 5000},
          "param": {"coords": [coord(0, 1, j, 1) for j in range(5000)]}}, "NotStable", None),
    ], ids=["split2-2500-distinct", "split5000-5000-distinct", "split101-a100-b",
            "split5000-one-value", "field5000-separate-cosets"])
    def test_a_large_fiber_document_ends_within_a_second(self, doc, kind, count):
        proc = run_cli_process(["fibers"], doc, timeout=1)
        got = json.loads(proc.stdout)
        if kind:
            assert proc.returncode == 2, proc.stderr
            assert got["error"]["kind"] == kind
            if kind == "BudgetExceeded":
                assert got["error"]["detail"] == "fiber of more than 100 members"
        else:
            assert proc.returncode == 0, proc.stderr
            assert got["count"] == count


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


ATOM = {"id": "a", "side": "E", "size": 1, "d": 2, "r": 2}
SPEH = {"kind": "speh", "atom": ATOM, "k": 1, "q": 1}
ELLIPTIC = {"kind": "elliptic", "atom": ATOM, "k": 2, "levi": [1, 1]}


def _with(factor, key, value):
    """A copy of factor with factor[key] (or its atom's key) set to value."""
    if key in ("size", "d", "r"):
        return dict(factor, atom=dict(factor["atom"], **{key: value}))
    return dict(factor, **{key: value})


class TestRepsDocuments:
    @pytest.mark.parametrize("verb, doc", [
        ("lift-elliptic", _with(_with(ELLIPTIC, "k", 1.5), "levi", [1.5])),
        ("lift-elliptic", _with(ELLIPTIC, "levi", [True, True])),
        ("lift-elliptic", _with(ELLIPTIC, "translate", 1.0)),
        ("lift-elliptic", _with(ELLIPTIC, "d", 2.0)),
        ("lift-unitary", _with(SPEH, "q", True)),
        ("lift-unitary", _with(SPEH, "k", 1.0)),
        ("lift-unitary", _with(SPEH, "size", True)),
        ("lift-unitary", _with(SPEH, "r", True)),
        ("lift-unitary", {"kind": "product", "factors": [_with(SPEH, "translate", False)]}),
        ("lift-unitary", {"kind": "product", "factors": [{"kind": "product", "factors": [SPEH]}]}),
    ], ids=["float-k-levi", "bool-levi", "float-translate", "float-d", "bool-q", "float-k",
            "bool-size", "bool-r", "bool-translate-in-product", "nested-product"])
    def test_non_int_fields_and_nested_products_are_bad_input(self, verb, doc, capsys):
        code, out = run_cli([verb], doc, capsys)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "BadInput"

    @pytest.mark.parametrize("verb", ["lift-elliptic", "lift-unitary"])
    def test_an_elliptic_datum_of_length_zero_is_bad_input(self, verb, capsys):
        # the empty composition of k = 0 once passed and lifted to rank-0 factors
        code, out = run_cli([verb], dict(ELLIPTIC, k=0, levi=[]), capsys)
        assert code == 1, out
        assert json.loads(out)["error"]["kind"] == "BadInput"


def _lift_doc(zeta=(1, 2), qexp=(0, 1), algebra_zeta=None):
    doc = {"d": 2, "r": 1, "s": 2, "y": [{"zeta": list(zeta), "qexp": list(qexp)}]}
    if algebra_zeta is not None:
        doc["zeta"] = list(algebra_zeta)
    return doc


PAIR = {"kind": "pair", "atom": ATOM, "k": 1, "q": 1, "alpha": [1, 3]}
GLOBAL = {
    "d": 2,
    "places": [{"label": "v0", "f": 2}],
    "rep": {"label": "Lam", "r": 1, "q": 1, "locals": {"v0": {"blocks": [[coord(0, 1, 0, 1)]]}}},
}


def _global_with(key, value):
    """A copy of GLOBAL with doc[key], the place's key or the rep's key set to value."""
    doc = json.loads(json.dumps(GLOBAL))
    if key == "d":
        doc[key] = value
    elif key == "f":  # over d = 1, where f = True would read as 1
        doc["d"], doc["places"][0]["f"] = 1, value
    else:
        doc["rep"][key] = value
    return doc


class TestJsonInts:
    """Every number a document gives is a JSON int: a bool or a float in a
    rational pair or a count is malformed input, never read as 1 or 1/2."""

    @pytest.mark.parametrize("verb, doc", [
        ("lift-spherical", _lift_doc(zeta=(True, 2))),
        ("lift-spherical", _lift_doc(zeta=(1, 2.0))),
        ("lift-spherical", _lift_doc(qexp=(True, 2))),
        ("lift-spherical", _lift_doc(algebra_zeta=(True, 2))),
        ("lift-spherical", dict(_lift_doc(), s=2.0)),
        ("bc-spherical", _lift_doc(qexp=(1, True))),
        ("fibers", {"direction": "bc", "rep": _lift_doc(zeta=(False, 1))}),
        ("lift-unitary", _with(SPEH, "twist", [True, 2])),
        ("lift-unitary", _with(SPEH, "twist", [1, 2, 3])),
        ("lift-unitary", _with(PAIR, "alpha", [True, 3])),
        ("lift-unitary", _with(SPEH, "atom", dict(ATOM, payload={"zeta": [True, 2], "qexp": [0, 1]}))),
        ("global-lift", _global_with("q", True)),
        ("global-lift", _global_with("translate", True)),
        ("global-lift", _global_with("r", True)),
        ("global-lift", _global_with("d", 2.0)),
        ("global-lift", _global_with("f", True)),
        ("separate", {"d": True, "places": [{"label": "v0", "f": 1}],
                      "pi": {"rep": GLOBAL["rep"]}, "pi_prime": {"rep": GLOBAL["rep"]}}),
        ("separate", {"d": 2, "places": GLOBAL["places"], "pi": {"rep": GLOBAL["rep"], "l": True},
                      "pi_prime": {"rep": GLOBAL["rep"], "l": True}}),
    ], ids=["bool-zeta", "float-zeta-den", "bool-qexp", "bool-algebra-zeta", "float-s",
            "bool-qexp-den", "bool-fiber-zeta", "bool-twist", "twist-triple", "bool-alpha",
            "bool-payload", "bool-q", "bool-translate", "bool-r", "float-d", "bool-f", "bool-d",
            "bool-l"])
    def test_non_int_entries_are_bad_input(self, verb, doc, capsys):
        code, out = run_cli([verb], doc, capsys)
        assert code == 1, out
        assert json.loads(out)["error"]["kind"] == "BadInput"

    def test_the_same_documents_with_ints_pass(self, capsys):
        for verb, doc in [
            ("lift-spherical", _lift_doc(zeta=(1, 2), algebra_zeta=(1, 2))),
            ("lift-unitary", _with(SPEH, "twist", [1, 2])),
            ("lift-unitary", PAIR),
            ("global-lift", _global_with("translate", 1)),
        ]:
            code, out = run_cli([verb], doc, capsys)
            assert code == 0, out


def _hecke_doc(qexp=(0, 1), coeffs=((1, 3),)):
    coef = {"terms": [{"qexp": list(qexp), "conductor": 3, "coeffs": [list(c) for c in coeffs]}]}
    f = {"nvars": 2, "shift": 0, "terms": [{"exps": [1, 0], "coef": coef}]}
    return {"algebra": {"d": 2, "r": 1, "s": 2}, "f": f}


# each place a document gives a rational pair, as (argv, document) of the pair
PAIR_PLACES = {
    "zeta": lambda p: (["lift-spherical"], _lift_doc(zeta=p)),
    "qexp": lambda p: (["lift-spherical"], _lift_doc(qexp=p)),
    "algebra-zeta": lambda p: (["lift-spherical"], _lift_doc(algebra_zeta=p)),
    "twist": lambda p: (["lift-unitary"], _with(SPEH, "twist", p)),
    "alpha": lambda p: (["lift-unitary"], _with(PAIR, "alpha", p)),
    "coef-qexp": lambda p: (["hecke-ai"], _hecke_doc(qexp=p)),
    "coef-coeffs": lambda p: (["hecke-ai"], _hecke_doc(coeffs=(p, (1, 3)))),
}


class TestJsonPairs:
    """A rational pair ``[num, den]`` of ints: den 0 is malformed input, and a
    negative den reads as the pair with both signs changed.  An alpha is read
    by its value: outside (0, 1/2), in any form, it is malformed input."""

    @pytest.mark.parametrize("place, pair", [
        *(pytest.param(place, [1, 0], id=place) for place in PAIR_PLACES),
        *(pytest.param("alpha", pair, id=f"alpha-{pair[0]}/{pair[1]}")
          for pair in ([1, 2], [2, 4], [0, 1], [-1, 3])),
    ])
    def test_a_zero_denominator_is_bad_input(self, place, pair, capsys):
        code, out = run_cli(*PAIR_PLACES[place](pair), capsys)
        assert code == 1, out
        assert json.loads(out)["error"]["kind"] == "BadInput"

    @pytest.mark.parametrize("place, pair, normal", [
        ("zeta", [1, -3], [2, 3]),
        ("qexp", [1, -2], [-1, 2]),
        ("algebra-zeta", [1, -2], [1, 2]),
        ("twist", [1, -2], [-1, 2]),
        ("alpha", [-1, -3], [1, 3]),
        ("coef-qexp", [1, -2], [-1, 2]),
        ("coef-coeffs", [1, -2], [-1, 2]),
        ("alpha", [2, 6], [1, 3]),
    ])
    def test_a_negative_denominator_changes_both_signs(self, place, pair, normal, capsys):
        code, out = run_cli(*PAIR_PLACES[place](pair), capsys)
        assert code == 0, out
        assert run_cli(*PAIR_PLACES[place](normal), capsys) == (0, out)


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

    def test_an_empty_place_set_is_refused(self, capsys):
        # it once gave a lift with no local data, and separate called any two
        # data the same, whatever their labels and r
        doc = self._global_doc()
        doc["places"], doc["rep"]["locals"] = [], {}
        code, out = run_cli(["global-lift"], doc, capsys)
        assert code == 2, out
        assert json.loads(out)["error"]["kind"] == "PlaceSetMismatch"
        other = dict(doc["rep"], label="Lam2", r=2)
        doc["pi"], doc["pi_prime"] = {"rep": doc.pop("rep"), "l": 1}, {"rep": other, "l": 1}
        code, out = run_cli(["separate"], doc, capsys)
        assert code == 2, out
        assert json.loads(out)["error"]["kind"] == "PlaceSetMismatch"

    def test_a_local_mismatch_names_its_place(self, capsys):
        # the golden document with the last two of v2's four blocks swapped:
        # A B B A is not stable under sigma^g = sigma^2, which rotates by 2
        doc = json.loads((GOLDEN / "global-lift_d4_three_places_r2q2.json").read_text())
        blocks = doc["rep"]["locals"]["v2"]["blocks"]
        blocks[2], blocks[3] = blocks[3], blocks[2]
        code, out = run_cli(["global-lift"], doc, capsys)
        assert code == 2, out
        assert json.loads(out) == {"error": {
            "kind": "LocalMismatch", "detail": "place 'v2': local datum not stable under sigma^2"}}

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

    @pytest.mark.parametrize("case", ["no-match", "translate"])
    def test_separate_is_bounded_by_the_block_counts_not_their_lcm(self, case):
        # eight places with e = 2, 3, 5, ..., 19: lcm(e_v) = d = 9699690
        # translates, of which the last place rules out every one, or a
        # translate by gamma = 1234567 that only the congruences find at once
        es = (2, 3, 5, 7, 11, 13, 17, 19)
        d, gamma = 9699690, 1234567
        places = [{"label": f"p{e}", "f": d // e} for e in es]

        def rep(moved):
            blocks = {f"p{e}": [[coord(k, e, 0, 1)] for k in range(e)] for e in es}
            if moved:
                blocks = {v: b[gamma % len(b):] + b[:gamma % len(b)] for v, b in blocks.items()}
            if case == "no-match" and moved:
                b = blocks["p19"]
                b[0], b[1] = b[1], b[0]
            locals_ = {v: {"blocks": b} for v, b in blocks.items()}
            return {"label": "A", "r": 1, "q": 1, "locals": locals_}

        doc = {"d": d, "places": places, "pi": {"rep": rep(False)}, "pi_prime": {"rep": rep(True)}}
        proc = run_cli_process(["separate"], doc)
        assert proc.returncode == 0, proc.stderr
        expect = {"distinct": True, "l": None, "gamma": None}
        if case == "translate":
            expect = {"distinct": False, "l": 1, "gamma": gamma}
        assert json.loads(proc.stdout) == expect

    @pytest.mark.parametrize("case", ["no-match", "translate"])
    def test_separate_is_linear_in_the_block_count(self, case):
        # one place with e = 3000 rank-1 blocks, equal but for one (a 216 kB
        # document): each of the e rotations was built and compared block by
        # block up to the odd one, 4.8 s (no match) and 2.8 s through the CLI
        e, gamma, odd = 3000, 7, [coord(1, 2, 0, 1)]
        blocks = [[coord(0, 1, 0, 1)]] * e
        if case == "translate":
            blocks = [odd] + blocks[1:]
        moved = blocks[gamma:] + blocks[:gamma]
        if case == "no-match":
            moved = moved[:-1] + [odd]
        doc = {"d": e, "places": [{"label": "v", "f": 1}]}
        for key, b in (("pi", blocks), ("pi_prime", moved)):
            doc[key] = {"rep": {"label": "A", "r": 1, "q": 1, "locals": {"v": {"blocks": b}}}}
        proc = run_cli_process(["separate"], doc, timeout=2)
        assert proc.returncode == 0, proc.stderr
        expect = {"distinct": True, "l": None, "gamma": None}
        if case == "translate":
            expect = {"distinct": False, "l": 1, "gamma": gamma}
        assert json.loads(proc.stdout) == expect

    def test_global_lift_does_not_grow_with_q(self):
        # two rank-1 blocks at a split place: the coherence check compares
        # cuspidal data, where it used to build staircases of length q
        blocks = [[coord(1, 3, 1, 1)], [coord(1, 3, 1, 1)]]
        doc = {
            "d": 2, "places": [{"label": "v", "f": 1}],
            "rep": {"label": "L", "r": 2, "q": 1000000, "locals": {"v": {"blocks": blocks}}},
        }
        proc = run_cli_process(["global-lift"], doc)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert [(f["q"], f["translate"]) for f in got["factors"]] == [(1000000, 0), (1000000, 1)]

    def test_global_lift_is_linear_in_r(self):
        # r = d = f = 4000 twist translates of one coordinate, and r = 1: the
        # lift takes f products for the top of the one coset, then one per
        # coordinate of the datum (1 and 4000), built as one tuple per place,
        # so a lift that did work of the size of f per coordinate would be
        # quadratic
        d = 4000
        for r in (d, 1):
            doc = {
                "d": d, "places": [{"label": "v", "f": d}],
                "rep": {"label": "L", "r": r, "q": 1,
                        "locals": {"v": {"blocks": [[coord(1, 3, 1, 1)]]}}},
            }
            proc = run_cli_process(["global-lift"], doc)
            assert proc.returncode == 0, proc.stderr
            got = json.loads(proc.stdout)
            assert [f["translate"] for f in got["factors"]] == list(range(r))
            coords = got["factors"][0]["locals"]["v"]["coords"]
            assert len(coords) == d // r
            if r == d:
                # the datum is the largest 4000-th root of (1/3, q): the
                # canonical order puts zeta = 11989/12000 last among the roots
                assert coords == [coord(11989, 12000, 1, 4000)]

    @pytest.mark.parametrize("d, f, r, blocks", [
        # 500 coordinates over the quadratic field: the split placed them one
        # recursion level each and ended in a RecursionError
        (2, 2, 1, [[coord(0, 1, j, 1) for j in range(500)]]),
        # three blocks of 24 copies: a backtracking split undid placements
        # exponentially often in the copies (refused past 100 undos)
        (6, 2, 3, [[coord(0, 1, 1, 1)] * 24] * 3),
    ], ids=["deep-500", "backtracking-3x24"])
    def test_twist_split_is_bounded(self, d, f, r, blocks):
        doc = {"d": d, "places": [{"label": "v", "f": f}],
               "rep": {"label": "L", "r": r, "locals": {"v": {"blocks": blocks}}}}
        proc = run_cli_process(["global-lift"], doc)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        if r == 1:
            assert len(got["factors"][0]["locals"]["v"]["coords"]) == 1000
        else:
            # the 72 square roots q^(1/2) and the 72 of -q^(1/2) split one way
            # only: 24 of each in every one of the three translates
            assert [f["translate"] for f in got["factors"]] == [0, 1, 2]
            for factor in got["factors"]:
                coords = factor["locals"]["v"]["coords"]
                assert coords == [coord(0, 1, 1, 2)] * 24 + [coord(1, 2, 1, 2)] * 24


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out = run_cli(["verify", "--suite", "hecke", "--seed", "7", "--cases", "5"], None, capsys)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: autoind")
        assert "unknown suite 'nope'; choose from all, satake, hecke, reps, global" in err

    @pytest.mark.parametrize("golden, argv", [
        ("verify_all_seed0", ["--seed", "0"]),
        ("verify_global_seed19", ["--suite", "global", "--seed", "19"]),
    ])
    def test_output_is_byte_identical(self, golden, argv, capsys):
        code, out = run_cli(["verify", *argv], None, capsys)
        assert code == 0
        assert out == (GOLDEN / f"{golden}.out").read_text()


NO_SYMPY = """
import sys
from fractions import Fraction
import autoind.cli
from autoind.arith import QCyclo
from autoind.values import Coordinate
from autoind.hecke import SymLaurent, ai_transfer, satake_eval
from autoind.satake import CyclicAlgebra, SatakeParam
f = SymLaurent(2, 0, {(1, 1): QCyclo.rational(1)})
ai_transfer(f, CyclicAlgebra.field(2))
satake_eval(f, SatakeParam((Coordinate.of(Fraction(1, 3)), Coordinate.of(Fraction(1, 5), 1))))
assert "sympy" not in sys.modules, "sympy was imported"
"""


def test_runs_without_sympy():
    env = dict(os.environ, PYTHONPATH=str(Path(autoind.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", NO_SYMPY], env=env, check=True, timeout=120)


NO_VERIFY = """
import io, sys
sys.stdin = io.StringIO('{"d": 2, "r": 1, "s": 2, "y": [{"zeta": [0, 1], "qexp": [0, 1]}]}')
from autoind.cli import main
assert main(["lift-spherical"]) == 0
assert "autoind.verify" not in sys.modules, "autoind.verify was imported"
"""


def test_compute_verbs_do_not_import_verify():
    env = dict(os.environ, PYTHONPATH=str(Path(autoind.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", NO_VERIFY], env=env, check=True, timeout=120)


# CyclicAlgebra and the parts budget live in values and errors, so the Hecke
# and reps verbs compile no satake
LAYERS = {"autoind", "autoind.cli", "autoind.errors", "autoind.values"}
SATAKE, HECKE = {"autoind.satake"}, {"autoind.hecke", "autoind.arith"}
EXTRA_LAYERS = {
    "lift-spherical": SATAKE, "bc-spherical": SATAKE, "fibers": SATAKE,
    "hecke-ai": HECKE, "hecke-bc": HECKE,
    "lift-unitary": {"autoind.reps"}, "lift-elliptic": {"autoind.reps"},
    "global-lift": {"autoind.adelic"} | SATAKE, "separate": {"autoind.adelic"} | SATAKE,
}
# besides the autoind modules, the probe reports dataclasses and inspect,
# which cost a verb 8-15 ms of start-up when only the records needed them,
# argparse, which no verb needs, and fractions with the decimal it imports,
# which only the cyclotomic kernel of the Hecke verbs uses
IMPORTS = """
import sys
from autoind.cli import main
main(sys.argv[1:])
stdlib = ("dataclasses", "inspect", "argparse", "fractions", "decimal")
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "autoind" or m in stdlib)),
      file=sys.stderr)
"""


@pytest.mark.parametrize("verb", EXTRA_LAYERS)
def test_each_verb_imports_only_its_layers(verb):
    doc = min(GOLDEN.glob(f"{verb}_*.json"))
    env = dict(os.environ, PYTHONPATH=str(Path(autoind.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", IMPORTS, verb, "--input", str(doc)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout == doc.with_suffix(".out").read_text()
    loaded = set(proc.stderr.split())
    assert not loaded & {"dataclasses", "inspect", "argparse"}
    if "autoind.hecke" not in EXTRA_LAYERS[verb]:
        assert not loaded & {"fractions", "decimal"}
    assert loaded - {"fractions", "decimal"} == LAYERS | EXTRA_LAYERS[verb]


SCRIPT = re.search(r'^autoind = "([\w.]+):(\w+)"$',
                   (Path(__file__).parents[1] / "pyproject.toml").read_text(), re.M)
NOT_STABLE = {"direction": "ai", "algebra": {"d": 2, "r": 1, "s": 2},
              "param": {"coords": [coord(0, 1, 0, 1), coord(0, 1, 1, 1)]}}


@pytest.mark.parametrize("launcher", ["module", "script"])
def test_the_process_entry_keeps_exit_codes_and_output(launcher):
    # python -m autoind.cli and the autoind script leave through cli.run,
    # which freezes the heap before exit: stdout must still reach the pipe,
    # and an atexit handler must still run, and find the heap frozen
    module, function = SCRIPT.groups()
    entry = (["-m", "autoind.cli"] if launcher == "module" else ["-c", (
        f"import atexit, gc, sys; from {module} import {function}; atexit.register("
        f"lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr)); {function}()")])
    golden = min(GOLDEN.glob("hecke-ai_*.json"))
    env = dict(os.environ, PYTHONPATH=str(Path(autoind.__file__).resolve().parents[1]))
    for argv, doc, code, kind in [
        (["hecke-ai", "-i", str(golden)], "", 0, None),
        (["fibers"], json.dumps(NOT_STABLE), 2, "NotStable"),
        (["lift-unitary"], "not json {", 1, "BadInput"),
        (["nope"], "", 2, None),
    ]:
        proc = subprocess.run([sys.executable, *entry, *argv], input=doc, capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == code, proc.stderr
        if kind:
            assert json.loads(proc.stdout)["error"]["kind"] == kind
        else:  # the golden bytes, or nothing after a usage error
            assert proc.stdout == (golden.with_suffix(".out").read_text() if code == 0 else "")
        assert proc.stderr.startswith("usage: autoind") == (argv == ["nope"])
        assert ("frozen True" in proc.stderr) == (launcher == "script")


def test_main_leaves_the_collector_alone(capsys):
    # only the process entry freezes the heap: tests and the benchmark's
    # set-up call main in-process
    before = gc.get_freeze_count()
    assert main(["lift-spherical", "-i", str(min(GOLDEN.glob("lift-spherical_*.json")))]) == 0
    with pytest.raises(SystemExit):
        main(["nope"])
    assert gc.get_freeze_count() == before


ATOM_1E6 = {"id": "a", "side": "E", "size": 1, "d": 10**6, "r": 10**6}


@pytest.mark.parametrize("verb, doc", [
    ("lift-spherical", {"d": 10**6, "r": 1, "s": 10**6, "y": [coord(1, 3, 1, 1)]}),
    ("lift-spherical", {"d": 10**6, "r": 1, "s": 10**6, "y": []}),
    ("bc-spherical", {"algebra": {"d": 10**6, "r": 10**6, "s": 1}, "y": [coord(1, 3, 1, 1)]}),
    ("fibers", {"direction": "ai", "algebra": {"d": 10**6, "r": 10**6, "s": 1},
                "param": {"coords": []}}),
    ("lift-unitary", {"tau": {"kind": "speh", "atom": ATOM_1E6, "k": 1, "q": 1}}),
    ("lift-elliptic", {"elliptic": {"kind": "elliptic", "atom": ATOM_1E6, "k": 1, "levi": [1]}}),
    ("global-lift", {"d": 10**6, "places": [{"label": "v", "f": 10**6}],
                     "rep": {"label": "L", "r": 10**6, "q": 1,
                             "locals": {"v": {"blocks": [[coord(1, 3, 1, 1)]]}}}}),
    ("separate", {"d": 2, "places": GLOBAL["places"], "pi": {"rep": GLOBAL["rep"], "l": 10**6},
                  "pi_prime": {"rep": GLOBAL["rep"], "l": 10**6}}),
], ids=["lift-spherical", "lift-spherical-rank0", "bc-spherical", "fibers-rank0",
        "lift-unitary", "lift-elliptic", "global-lift", "separate"])
def test_parts_are_bounded_before_they_are_built(verb, doc):
    # a document of under 200 bytes asked for 10^6 coordinates, blocks or
    # factors: the work ran past 10 s, and fibers ended in a RecursionError
    proc = run_cli_process([verb], doc)
    assert proc.returncode == 2, proc.stderr
    got = json.loads(proc.stdout)["error"]
    assert got["kind"] == "BudgetExceeded" and f"more than {MAX_PARTS}" in got["detail"]


@pytest.mark.parametrize("doc", [
    {"direction": "ai", "algebra": {"d": 2000, "r": 2000, "s": 1}, "param": {"coords": []}},
    {"direction": "bc", "rep": {"d": 10**7, "r": 1, "s": 10**7, "y": []}},
    {"direction": "ai", "algebra": {"d": 10**7, "r": 1, "s": 10**7}, "param": {"coords": []}},
], ids=["ai-split2000", "bc-field1e7", "ai-field1e7"])
def test_rank_zero_fiber_is_one_member(doc):
    # the ai split used to recurse once per block, the bc fiber to build all
    # s roots of unity before it looked at the (empty) block; the ai split
    # over a field must not build the s powers of zeta for an empty parameter
    proc = run_cli_process(["fibers"], doc)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 1


MUTANTS = 24  # mutated documents per golden document
EXTREME_INTS = (10**9, 2**63, 0, -1)
OTHER_TYPES = (None, True, 1.5, "x", [], {})
MUTANT_CAP_S = 2.0


class Overtime(BaseException):
    """Raised by the alarm in the middle of a document; nothing in ``main`` catches it."""


def _paths(doc, path=()):
    """The path of every value below the root of doc: keys and list indexes."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _paths(v, path + (k,))


def _mutant(doc, rng):
    """A copy of doc with one value replaced by another type or an extreme int,
    one key dropped, or one list entry repeated."""
    doc = json.loads(json.dumps(doc))
    *head, last = rng.choice(list(_paths(doc)))
    parent = doc
    for k in head:
        parent = parent[k]
    kinds = ["replace", "drop" if isinstance(parent, dict) else "repeat"]
    if rng.choice(kinds) == "replace":
        parent[last] = rng.choice(EXTREME_INTS + OTHER_TYPES)
    elif isinstance(parent, dict):
        del parent[last]
    else:
        parent.insert(last, parent[last])
    return doc


def _alarm(signum, frame):
    raise Overtime


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_mutated_golden_documents_keep_the_contract(golden, capsys, monkeypatch):
    """Every mutant of a golden document ends in exit 0, 1 or 2 with one JSON
    object on stdout, within ``MUTANT_CAP_S``.  A failure prints the document."""
    verb, doc = golden.stem.split("_")[0], json.loads(golden.read_text())
    rng = random.Random(f"mutants:{golden.stem}")
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for i in range(MUTANTS):
            mutant = _mutant(doc, rng)
            replay = f"mutant {i}: autoind {verb} <<< '{json.dumps(mutant)}'"
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(mutant)))
            signal.setitimer(signal.ITIMER_REAL, MUTANT_CAP_S)
            try:
                code = main([verb])
            except Overtime:
                pytest.fail(f"over {MUTANT_CAP_S} s: {replay}")
            except Exception as exc:
                pytest.fail(f"{exc!r}: {replay}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            out = capsys.readouterr().out
            assert code in (0, 1, 2), replay
            try:
                assert isinstance(json.loads(out), dict), replay
            except ValueError:
                pytest.fail(f"stdout {out!r} is not one JSON object: {replay}")
    finally:
        signal.signal(signal.SIGALRM, previous)
