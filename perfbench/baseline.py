"""Measure a baseline: every workload over several seeds, one run at a time.

    python3 perfbench/baseline.py --out perfbench/baseline.json
    python3 perfbench/baseline.py --workloads limit_1d --seeds 1,2,3,4,5

For each workload the end-to-end metrics are summarised over the seeds as
median, quartiles and spread (quartile distance over the median, the test a
benchmark run must pass against each metric's bound).  A traced run on the
default and on the held-out seed records ``failed_frac``, ``err_to_tol``
and the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "spread": (q3 - q1) / med if med else None}


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(101, 111)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write the baseline JSON here")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    checked = {"default": spec["default_seed"], "held_out": spec["held_out_seed"]}

    out = {"git_sha": git_sha(), "cores": os.cpu_count(), "python": platform.python_version(),
           "machine": platform.machine(), "run_seconds": args.seconds, "seeds": seeds,
           "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run(workload, seed, args.seconds, 0))
            print(workload, seed, {k: round(v["value"], 5) for k, v in runs[-1]["metrics"].items()},
                  flush=True)
        metrics = {}
        for name, meta in e2e.items():
            stats = summary([r["metrics"][name]["value"] for r in runs])
            stats.update(unit=meta["unit"], better=meta["better"], bound=meta["bound"])
            metrics[name] = stats
            print(f"  {name:<12} median {stats['median']:<12.6g} spread {stats['spread']:.4f}"
                  f"  bound {meta['bound']}", flush=True)
        traced = {}
        for label, seed in checked.items():
            res = run(workload, seed, args.seconds, 1)
            traced[label] = {
                "seed": seed,
                "attempted": res["attempted"],
                "failed_frac": res["failed"] / res["attempted"],
                "err_to_tol": res["metrics"]["checks.err_to_tol"]["value"],
                "per_layer": {k: v["value"] for k, v in res["metrics"].items()},
            }
        out["workloads"][workload] = {
            "runs": len(runs),
            "failed_ops": sum(r["failed"] for r in runs),
            "attempted_ops": sum(r["attempted"] for r in runs),
            "end_to_end": metrics,
            "per_run": {name: [r["metrics"][name]["value"] for r in runs] for name in e2e},
            "traced": traced,
        }
    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
