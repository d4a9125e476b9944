"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload hecke-transfer --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures one untraced and one traced pass over a fixed
prefix of the op stream and reports the per-layer metrics.  The last line of
standard output is the result as one JSON object.  ``bench/baseline.py``
runs every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_build" / "trace"
SETUP_RUNS = 7
# The host is a few vCPUs of a shared machine whose speed drifts by a quarter
# over minutes.  After every op a fixed reference computation (``reference``,
# no autoind code) is timed, and each cycle's op times are rescaled by
# REF_S / (the cycle's median reference time): the end-to-end times read as
# on a host where the reference takes REF_S seconds.
REF_S = 0.4e-3
REF_FRACTIONS = [Fraction(i, 7 * i + 3) for i in range(1, 40)]
REF_PROBES_SETUP = 101


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(name, seed):
    """Import the program and run the warm-up pass; returns the workload.

    The warm-up draws from its own stream (not the timed one), so a memo keyed
    on inputs gains nothing from it.
    """
    from workloads import WORKLOADS

    w = WORKLOADS[name]()
    if name == "cli-oneshot":
        import autoind.cli  # noqa: F401  (cold import is part of set-up)
    stream = w.stream(seed, "warmup")
    for _ in range(w.warmup_ops):
        attempt(w, next(stream), inprocess=True)
    return w


def attempt(w, case, inprocess=False, tracer=None):
    """Run one op under the time cap; returns ``(outcome, seconds)``.

    The outcome is ``ok``, ``wrong`` (a result the oracle rejects), ``error``
    (an exception, a traceback, a wrong exit code or non-JSON output) or
    ``timeout``.  Only the request is timed; the check runs afterwards and,
    when traced, unrecorded.
    """
    from workloads import run_capped

    send = w.request_inprocess if inprocess else w.request
    t0 = perf_counter()
    try:
        response = run_capped(lambda: send(case), w.cap_s)
    except (TimeoutError, subprocess.TimeoutExpired):
        return "timeout", perf_counter() - t0
    except Exception as exc:
        print(f"{w.name}: op raised {exc!r}", file=sys.stderr)
        return "error", perf_counter() - t0
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.paused = True
    try:
        return w.check(case, response), dt
    except Exception as exc:
        print(f"{w.name}: check raised {exc!r}", file=sys.stderr)
        return "error", dt
    finally:
        if tracer is not None:
            tracer.paused = False


def quantile(values, k):
    """The k-th decile (k = 5: median, k = 9: p90) of at least two values."""
    return statistics.quantiles(values, n=10)[k - 1]


def reference():
    """Wall time of a fixed Fraction, dict and int-loop computation."""
    t0 = perf_counter()
    total, seen, n = Fraction(0), {}, 0
    for x in REF_FRACTIONS:
        total += x * x
        seen[x.denominator % 17] = total
    for i in range(3000):
        n += i * i % 11
    return perf_counter() - t0


def measure(w, seed, seconds):
    """Closed loop, one client: whole cycles until ``seconds`` have passed.

    Returns the rescaled op times, the rescaled and the raw ops per second of
    each cycle, the outcomes and each cycle's median reference time.
    """
    stream = w.stream(seed, "timed")
    times, rates, raw_rates, outcomes, refs = [], [], [], [], []
    start = perf_counter()
    while perf_counter() - start < seconds or len(times) < w.min_ops:
        cycle, probes = [], []
        for _ in range(w.cycle):
            outcome, dt = attempt(w, next(stream))
            cycle.append(dt)
            outcomes.append(outcome)
            probes.extend(reference() for _ in range(w.probes))
        ref = statistics.median(probes)
        scale = REF_S / ref
        times.extend(dt * scale for dt in cycle)
        rates.append(w.cycle / (scale * sum(cycle)))
        raw_rates.append(w.cycle / sum(cycle))
        refs.append(ref)
    return times, rates, raw_rates, outcomes, refs


def setup_probes(name, seed):
    """Set-up time in fresh interpreters: import plus warm-up, median of several.

    Each probe rescales its time by the reference time measured after it.
    """
    out = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(out)


def environment():
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "autoind").glob("*.py"))
    return {
        "python": platform.python_version(),
        "machine": platform.platform(),
        "nproc": os.cpu_count(),
        "src_lines": lines,
    }


def end_to_end(w, args):
    times, rates, raw_rates, outcomes, refs = measure(w, args.seed, args.seconds)
    if w.name == "cli-oneshot":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_ms_p50": (1e3 * quantile(times, 5), "ms"),
        "op_ms_p90": (1e3 * quantile(times, 9), "ms"),
        "setup_s": (setup_probes(w.name, args.seed), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    notes = {
        "ops": len(times),
        "cycles": len(rates),
        "fail_frac": sum(o != "ok" for o in outcomes) / len(outcomes),
        "reference_ms": round(1e3 * statistics.median(refs), 4),
        "raw_ops_per_s": round(statistics.median(raw_rates), 4),
    }
    return metrics, outcomes, notes


def per_layer(w, args):
    from layers import Tracer
    from workloads import VERBS

    stream = w.stream(args.seed, "timed")
    pool = [next(stream) for _ in range(w.trace_ops)]
    # pass 1 fills the caches, so the untraced pass 2 and the traced pass 3
    # start from the same state and their difference is the tracing overhead
    outcomes, plain, per_verb = [], 0.0, {}
    for timed in (False, True):
        for case in pool:
            outcome, dt = attempt(w, case, inprocess=True)
            outcomes.append(outcome)
            if timed:
                plain += dt
                per_verb.setdefault(case[0], []).append(dt)
    tracer = Tracer()
    tracer.install()
    traced = 0.0
    try:
        for i, case in enumerate(pool):
            tracer.op, tracer.tag = i, w.tag(case)
            outcome, dt = attempt(w, case, inprocess=True, tracer=tracer)
            outcomes.append(outcome)
            traced += dt
    finally:
        tracer.uninstall()
    tracer.dump(TRACE_DIR / f"{w.name}-seed{args.seed}.jsonl")
    metrics = tracer.metrics()
    metrics["trace.overhead_ops_per_s"] = (len(pool) / traced - len(pool) / plain, "1/s")
    cli = w.name == "cli-oneshot"
    metrics["cli.interpreter_s"] = (interpreter_s() if cli else 0.0, "s")
    metrics["cli.import_s"] = (import_s() if cli else 0.0, "s")
    for verb in VERBS:
        metrics[f"cli.main_s.{verb}"] = (statistics.median(per_verb[verb]) if cli else 0.0, "s")
    return metrics, outcomes, {"ops": len(pool)}


def interpreter_s():
    """Median wall time of a bare ``python -c pass``."""
    out = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, cwd=ROOT, timeout=60)
        out.append(perf_counter() - t0)
    return statistics.median(out)


def import_s():
    """Median in-interpreter time of ``import autoind.cli`` in a fresh process."""
    code = "import time; t = time.perf_counter(); import autoind.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                              text=True, cwd=ROOT, env=env, timeout=60)
        out.append(float(proc.stdout))
    return statistics.median(out)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "autoind" / "__init__.py").is_file():
        print(f"error: no autoind sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        t0 = perf_counter()
        setup(args.workload, args.seed)
        dt = perf_counter() - t0
        ref = statistics.median(reference() for _ in range(REF_PROBES_SETUP))
        print(json.dumps({"setup_s": dt * REF_S / ref}))
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import autoind

    if Path(autoind.__file__).resolve().parent != SRC / "autoind":
        print(f"error: autoind imported from {autoind.__file__}, not {SRC}", file=sys.stderr)
        return 2
    w = setup(args.workload, args.seed)
    if args.trace:
        metrics, outcomes, notes = per_layer(w, args)
    else:
        metrics, outcomes, notes = end_to_end(w, args)
    if w.name == "cli-oneshot":
        # a known defect kept out of the op stream, so reported here
        notes["nonobject_tracebacks"] = " ".join(w.tracebacks()) or "none"
    env = environment()
    for k, v in env.items():
        print(f"# {k}: {v}")
    for k, v in notes.items():
        print(f"# {w.name} {k}: {v}")
    for name, (value, unit) in metrics.items():
        print(f"{w.name} {name} {value:.6g} {unit}")
    result = {
        "correct": "wrong" not in outcomes,
        "attempted": len(outcomes),
        "failed": sum(o != "ok" for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
