"""The ppgeo benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload limit_1d --seed 20240 --seconds 55 --trace 0

Run from a ppgeo checkout; the package is imported from its ``src/``.
Every op is closed-loop with one client.  With ``--trace 0`` the run prints
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced ops and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans of a traced run are written to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 20240   # the acceptance seed
SETUP_REPEATS = 5      # fresh processes timed for setup_s; the median is reported
MIN_OPS = 3            # timed ops per phase, however long each takes
PROBE_LOOPS = 50_000   # ~4 ms of pure Python per CPU probe
PROBE_EVERY_S = 1.0

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class CpuPicker:
    """Pins this process, and the children it starts, to the least busy CPU.

    On a shared host each CPU's speed swings by up to 1.7x over periods of
    seconds, independently per CPU.  Before an op, at most once a second, a
    short pure-Python loop is timed on each allowed CPU and the process is
    pinned to the fastest.  The probe runs outside every timed region.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = -PROBE_EVERY_S

    def _probe(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        for _ in range(PROBE_LOOPS):
            pass
        return time.perf_counter() - t0

    def pin(self):
        now = time.perf_counter()
        if len(self.cpus) > 1 and now - self.last >= PROBE_EVERY_S:
            os.sched_setaffinity(0, {min(self.cpus, key=self._probe)})
            self.last = time.perf_counter()


def tail(latencies: list) -> tuple[float, float, int]:
    """Latency at the highest percentile with ten samples beyond it, that
    percentile, and the number of samples beyond it.

    Below twenty samples that percentile would not reach the median, so the
    maximum (percentile 100, none beyond) is reported instead.
    """
    s = sorted(latencies)
    n = len(s)
    if n < 20:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


class Outcome:
    """Failures and the worst error-to-tolerance ratio over the checked ops."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.worst_check = ""
        self.failures: dict[str, int] = {}

    def add(self, workload, k: int, out, error: BaseException | None):
        self.attempted += 1
        if error is None:
            try:
                checks = workload.check(k, out)
            except Exception as exc:  # a check that cannot run fails the op
                error = exc
        if error is not None:
            self._fail(f"raised {type(error).__name__}")
            traceback.print_exception(error, file=sys.stderr)
            return
        bad = [name for name, err, tol in checks if not err <= tol]
        for name, err, tol in checks:
            ratio = err / tol
            if ratio != float("inf") and ratio > self.worst:
                self.worst, self.worst_check = ratio, name
        if bad:
            self._fail(",".join(sorted(set(bad))))

    def _fail(self, why: str):
        self.failed += 1
        self.failures[why] = self.failures.get(why, 0) + 1


def timed_op(workload, k: int, cpus: CpuPicker, **kwargs):
    cpus.pin()
    t0 = time.perf_counter()
    try:
        out, error = workload.op(k, **kwargs), None
    except Exception as exc:  # counted as a failed op, the run goes on
        out, error = None, exc
    return time.perf_counter() - t0, out, error


def keep_going(start: float, seconds: float, last: float, done: int) -> bool:
    """Start another op only if it should end within the run, after MIN_OPS per phase."""
    return done < MIN_OPS or time.perf_counter() - start + last <= seconds


def measure_setup(workload: str, seed: int, cpus: CpuPicker) -> list:
    """Wall time from a fresh process's start to its first op, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        cpus.pin()
        t0 = time.perf_counter()
        res = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True)
        # perf_counter is the system-wide monotonic clock, shared with the child
        times.append(float(res.stdout.split()[-1]) - t0)
    return times


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PPGEO_THREADS", None)
    return env


def run_plain(workload, args) -> tuple[dict, Outcome, list]:
    cpus = CpuPicker()
    setups = measure_setup(args.workload, args.seed, cpus)
    workload.setup(args.seed)
    _, out, err = timed_op(workload, 0, cpus)  # warm-up, untimed
    if err is None:
        workload.check(0, out)
    outcome = Outcome()
    latencies = []
    start = time.perf_counter()
    k = 1
    while keep_going(start, args.seconds, latencies[-1] if latencies else 0.0, len(latencies)):
        lat, out, err = timed_op(workload, k, cpus)
        latencies.append(lat)
        outcome.add(workload, k, out, err)
        k += 1
    wall = time.perf_counter() - start
    tail_s, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "ops_per_s": len(latencies) / wall,
        "ok_frac": 1.0 - outcome.failed / outcome.attempted,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    n = len(latencies)
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "op_p50_s": f"n={n}",
        "op_tail_s": f"p{pct:.1f}, n={n}, {beyond} samples beyond",
        "ops_per_s": f"{n} ops in {wall:.2f} s",
        "ok_frac": f"failed_frac={outcome.failed / outcome.attempted:.4f} "
                   f"({outcome.failed}/{outcome.attempted})",
        "peak_rss_mb": "largest CLI process" if args.workload == "verify_cli" else "this process",
    }
    lines = [f"{k:<12} {metrics[k]:<14.6g} {E2E_UNITS[k]:<6} {notes[k]}" for k in metrics]
    lines.append(f"{'err_to_tol':<12} {outcome.worst:<14.6g} {'ratio':<6} "
                 f"worst check: {outcome.worst_check or '-'} (per seed; a per-layer metric)")
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, outcome, lines


def run_traced(workload, args) -> tuple[dict, Outcome, list]:
    import spans

    workload.setup(args.seed)
    tracer = spans.Tracer()
    tracer.op = spans.SETUP_OP
    undo = spans.install(tracer, spans.SETUP_TARGETS)
    try:
        workload.setup(args.seed)
    finally:
        undo()
    cpus = CpuPicker()
    _, out, err = timed_op(workload, 0, cpus)  # warm-up, untimed
    if err is None:
        workload.check(0, out)
    outcome = Outcome()
    plain, traced, op_walls, last = [], [], {}, 0.0
    start = time.perf_counter()
    k = 2
    # untraced and traced ops alternate; both phases see the same op sequence
    while keep_going(start, args.seconds, last, min(len(plain), len(traced))):
        i = k // 2
        if k % 2 == 0:
            lat, out, err = timed_op(workload, i, cpus)
            plain.append(lat)
        else:
            tracer.op = k
            if args.workload == "verify_cli":
                lat, out, err = timed_op(workload, i, cpus, tracer=tracer)
            else:
                undo = spans.install(tracer, spans.OP_TARGETS)
                try:
                    lat, out, err = timed_op(workload, i, cpus)
                finally:
                    undo()
        if k % 2:
            traced.append(lat)
            op_walls[k] = lat
        last = lat
        outcome.add(workload, i, out, err)
        k += 1
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    metrics = spans.layer_metrics(tracer.spans, op_walls, statistics.median(plain),
                                  statistics.median(traced))
    # deterministic per seed, so it spreads across seeds: a layer metric, no bound
    metrics["checks.err_to_tol"] = {"value": outcome.worst, "unit": "ratio"}
    lines = [f"traced ops {len(traced)}, untraced ops {len(plain)}; "
             "counts and times are means per traced op"]
    lines += [f"{k:<48} {m['value']:<14.6g} {m['unit']}" for k, m in metrics.items()]
    return metrics, outcome, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ppgeo" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} is not a ppgeo checkout (needs src/ppgeo and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ppgeo

    if Path(ppgeo.__file__).resolve().parent != SRC / "ppgeo":
        print(f"perfbench: imported ppgeo from {ppgeo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    workload = workloads.make(args.workload, ROOT, OUT_DIR)
    if args.setup_only:
        workload.setup(args.seed)
        print(repr(time.perf_counter()))
        return 0

    runner = run_traced if args.trace else run_plain
    metrics, outcome, lines = runner(workload, args)

    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(expected):
        print(f"perfbench: printed metrics {sorted(set(metrics) ^ set(expected))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 3
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  attempted {outcome.attempted}  failed {outcome.failed}")
    for why, count in sorted(outcome.failures.items()):
        print(f"  failed {count}x: {why}")
    for line in lines:
        print("  " + line)
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
