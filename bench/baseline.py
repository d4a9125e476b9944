"""Run every workload and record the baseline.

    python3 bench/baseline.py [--seeds 1 2 3] [--seconds N]

For each workload and seed this runs ``bench/run.py`` once untraced and once
traced, prints every end-to-end metric by name and unit, and writes
``bench/baseline.json``: the environment, ``src_lines``, and per workload the
median over seeds of every metric, with the ops attempted and failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("hecke-transfer", "lift-global", "cli-oneshot")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900, check=True,
    )
    lines = proc.stdout.splitlines()
    env = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# ") and ": " in line
               and not line.startswith(f"# {workload} "))
    return {k: int(v) if v.isdigit() else v for k, v in env.items()}, json.loads(lines[-1])


def medians(results):
    names = results[0]["metrics"]
    return {
        name: {
            "value": statistics.median(r["metrics"][name]["value"] for r in results),
            "unit": results[0]["metrics"][name]["unit"],
        }
        for name in names
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args(argv)
    doc = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        plain, traced = [], []
        for seed in args.seeds:
            env, result = run(workload, seed, args.seconds, 0)
            plain.append(result)
            traced.append(run(workload, seed, args.seconds, 1)[1])
        doc.update(env)
        e2e = medians(plain)
        doc["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in plain),
            "failed": sum(r["failed"] for r in plain),
            "correct": all(r["correct"] for r in plain + traced),
            "end_to_end": e2e,
            "per_layer": medians(traced),
        }
        for name, m in e2e.items():
            print(f"{workload:15s} {name:12s} {m['value']:12.6g} {m['unit']}")
        entry = doc["workloads"][workload]
        print(f"{workload:15s} {'fail_frac':12s} {entry['failed'] / entry['attempted']:12.6g} "
              f"(of {entry['attempted']} ops)")
    out = BENCH / "baseline.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
