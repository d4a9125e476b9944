"""Self-tests of the benchmark: determinism, failure accounting, tracing.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from autoind import arith, hecke, satake  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def cases(name, seed, part="timed", n=40):
    return list(islice(workloads.WORKLOADS[name]().stream(seed, part), n))


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_inputs(name):
    assert cases(name, 3) == cases(name, 3)
    assert cases(name, 3) != cases(name, 4)
    # the warm-up pass must not see the timed inputs
    assert cases(name, 3, "warmup") != cases(name, 3)


@pytest.mark.parametrize("name", ["hecke-transfer", "lift-global"])
def test_ops_pass_on_the_parent_program(name):
    w = workloads.WORKLOADS[name]()
    assert [run.attempt(w, c)[0] for c in cases(name, 5, n=24)] == ["ok"] * 24


def test_cli_ops_pass_on_the_parent_program():
    # 12 rounds over the verbs, with domain-error and malformed documents
    w = workloads.CliOneshot()
    ops = cases(w.name, 5, n=12 * len(workloads.VERBS))
    assert {c[1] for c in ops} == {"ok", "domain", "malformed"}
    assert [run.attempt(w, c, inprocess=True)[0] for c in ops] == ["ok"] * len(ops)


def test_faked_transfer_is_a_wrong_result(monkeypatch):
    w = workloads.HeckeTransfer()
    real = hecke.ai_transfer
    monkeypatch.setattr(hecke, "ai_transfer", lambda f, alg: real(f, alg).scale(2))
    outcomes = [run.attempt(w, c)[0] for c in cases(w.name, 5, n=24) if c[0] == "ai"]
    assert outcomes.count("wrong") >= len(outcomes) - 1 > 0


def test_faked_lifting_map_is_a_wrong_result(monkeypatch):
    w = workloads.LiftGlobal()
    real = satake.delta_map
    # every eigenvalue times q
    monkeypatch.setattr(satake, "delta_map", lambda y: real(y).twist(arith.Coordinate.of(0, 1)))
    outcomes = [run.attempt(w, c)[0] for c in cases(w.name, 5) if c[0] == "maps"]
    assert outcomes and set(outcomes) == {"wrong"}


def test_cli_checks_read_values_not_text():
    w = workloads.CliOneshot()
    stream = w.stream(5, "timed")
    case = next(c for c in stream if c[0] == "hecke-ai" and c[1] == "ok")
    code, out, err = w.request_inprocess(case)
    assert w.check(case, (code, out, err)) == "ok"
    body = json.loads(out)
    # the same element written with reordered terms still passes ...
    body["terms"].reverse()
    assert w.check(case, (code, json.dumps(body), err)) == "ok"
    # ... and a changed coefficient does not
    body["terms"][0]["coef"]["terms"][0]["coeffs"][-1][0] += 1
    assert w.check(case, (code, json.dumps(body), err)) == "wrong"


def test_cli_traceback_and_non_json_are_failures():
    w = workloads.CliOneshot()
    case = ("fibers", "malformed", "[]", None)
    assert w.check(case, (1, "", "Traceback (most recent call last):\n")) == "error"
    assert w.check(case, (1, "not json", "")) == "error"
    assert w.check(case, (1, '{"error": {"kind": "BadInput", "detail": ""}}', "")) == "ok"
    assert w.check(case, (0, '{"error": {"kind": "BadInput", "detail": ""}}', "")) == "error"
    assert run.attempt(w, case, inprocess=True)[0] == "error"


def test_time_cap_breach_is_a_failure(monkeypatch):
    w = workloads.LiftGlobal()
    w.cap_s = 0.2
    monkeypatch.setattr(w, "request", lambda case: time.sleep(5))
    outcome, dt = run.attempt(w, None)
    assert outcome == "timeout" and dt < 2


def traced_calls(name, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True,
    )
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


@pytest.mark.parametrize("name", ["hecke-transfer", "lift-global"])
def test_traced_counts_repeat_for_a_seed(name):
    first = traced_calls(name, 7)
    assert first == traced_calls(name, 7)
    assert sum(first.values()) > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lift-global", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
