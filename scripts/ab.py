"""Compare this checkout with a git revision: CLI outputs, route floats, benchmark metrics.

    python scripts/ab.py --against REV [--pairs 10] [--seconds 15] [--workloads limit_1d verify_cli]

REV is exported with ``git archive`` into a temporary directory, which is
removed afterwards; no network is needed.  Four comparisons follow, each
side running its own ``src/`` in fresh processes:

- the CLI matrix: every command, and every ``distance`` route, on the 1d
  default, a seeded 1d pair, the unit square at 32 / 64² and 64 / 128² and
  the triangle in the square Q at 32 / 64²; stdout, stderr, the exit code
  and the ``--out`` bytes are compared, and every differing line is printed;
- ``dp_limit(...).to_dict()`` with every float in hex, on the three obstacle
  pairs of the ``limit_1d`` workload, at p = 1, 1.5, 2 and 3, seeds 20240
  and 861317;
- every ``curve_checks`` key, ``energy`` of both ends and ``d1_energy``, each
  float in hex (an error by its type name), on ``random_dual_pairs(20240, 6,
  ...)`` and the five catalog pairs, in 1d at 1024 / 2048 and on the unit
  square at 32 / 64²;
- ``--pairs`` alternating ``perfbench/run.py`` runs per workload (the side
  that runs first alternates): each end-to-end metric's median per side, the
  revision's interquartile range relative to its median, and the number of
  pairs the checkout wins.  A metric whose relative IQR exceeds its bound in
  ``BENCHMARK.json`` is "unresolved": the runs spread too widely to tell.

It only reports: it exits 0 whatever it finds and writes nothing under
``perfbench/``.
"""
from __future__ import annotations

import argparse
import difflib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SQUARE = {"dimension": 2, "moment_cells": 32, "suite_pairs": 4,
          "spatial": {"lo": [-4.0, -4.0], "hi": [5.0, 5.0], "cells": [64, 64]}}
CONFIGS = {
    "1d": {},
    "1d-seed3": {"pair": {"seed_index": 3}},
    "square-32": SQUARE,
    "square-64": dict(SQUARE, moment_cells=64,
                      spatial={"lo": [-4.0, -4.0], "hi": [5.0, 5.0], "cells": [128, 128]}),
    "triangle-32": dict(SQUARE, p_body=[[0, 0], [1, 0], [0.3, 1]],
                        q_body=[[-1, -1], [1, -1], [1, 1], [-1, 1]]),
}
COMMANDS = {f"distance-{r}": ["distance", "--route", r]
            for r in ("endpoint", "oracle", "limit", "singular")}
COMMANDS.update({"distance-energy": ["distance", "--route", "energy", "--p", "1"],
                 **{c: [c] for c in ("geodesic", "envelope", "ma", "energy", "verify", "corpus")}})
LIMIT_HEX = r"""
import json, numpy as np, ppgeo
from ppgeo import SampledFunction, SpatialGrid, default_class_body
def hexed(x):
    if isinstance(x, float): return x.hex()
    if isinstance(x, dict): return {k: hexed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)): return [hexed(v) for v in x]
    return x
klass = default_class_body(1)
grid, spatial = ppgeo.moment_grid(klass.p_body, 1024), SpatialGrid((-4.0,), (5.0,), (2048,))
family = ppgeo.epsilon_family(klass, 1024)
for seed in (20240, 861317):
    (u, v), = ppgeo.random_dual_pairs(seed, 1, klass.p_body, grid)
    fu, fv = (SampledFunction(spatial, ppgeo.to_primal(w, spatial).values, n) for w, n in ((u, "u"), (v, "v")))
    fmin = SampledFunction(spatial, np.minimum(fu.values, fv.values), "min")
    for a, b in ((fu, fv), (fu, fmin), (fv, fmin)):
        for p in (1.0, 1.5, 2.0, 3.0):
            report = json.dumps(hexed(ppgeo.dp_limit(a, b, family, p).to_dict()), sort_keys=True)
            print(f"{seed} {a.provenance} {b.provenance} {p}\t{report}")
"""
CURVE_HEX = r"""
import ppgeo
from ppgeo import SpatialGrid, curve_checks, d1_energy, default_class_body, energy, geodesic
from ppgeo.corpus import PAIR_CATALOG, pair_from_catalog, random_dual_pairs
def shown(f, *args):
    try:
        return float(f(*args)).hex()
    except Exception as e:
        return type(e).__name__
for n, cells, nodes in ((1, 1024, 2048), (2, 32, 64)):
    body = default_class_body(n).p_body
    grid, spatial = ppgeo.moment_grid(body, cells), SpatialGrid((-4.0,) * n, (5.0,) * n, (nodes,) * n)
    pairs = [(f"seed20240-{i}", u, v) for i, (u, v) in enumerate(random_dual_pairs(20240, 6, body, grid))]
    pairs += [(name, *pair_from_catalog(name, grid)) for name in PAIR_CATALOG]
    for name, u, v in pairs:
        for key, value in curve_checks(geodesic(u, v), spatial).items():
            print(f"{n}d {name} {key}\t{float(value).hex()}")
        print(f"{n}d {name} energy u0\t{shown(energy, u, spatial)}")
        print(f"{n}d {name} energy u1\t{shown(energy, v, spatial)}")
        print(f"{n}d {name} d1_energy\t{shown(d1_energy, u, v, spatial)}")
"""


def env_for(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    return env


def run_matrix(tree: Path, work: Path) -> dict:
    """(exit code, stdout, stderr, --out bytes) per config and command."""
    out = {}
    for cname, cfg in CONFIGS.items():
        cfg_path = work / f"{cname}.json"
        cfg_path.write_text(json.dumps(cfg))
        for label, cmd in COMMANDS.items():
            target = work / f"{cname}-{label}.out"
            proc = subprocess.run([sys.executable, "-m", "ppgeo.cli", *cmd, "--config", str(cfg_path),
                                   "--out", str(target)], cwd=tree, env=env_for(tree),
                                  capture_output=True, text=True)
            written = target.read_text() if target.exists() else ""
            out[cname, label] = (proc.returncode, proc.stdout, proc.stderr, written)
    return out


def compare_matrix(rev_tree: Path, scratch: Path) -> None:
    sides = {}
    for name, tree in (("rev", rev_tree), ("this", ROOT)):
        (scratch / f"out-{name}").mkdir()
        sides[name] = run_matrix(tree, scratch / f"out-{name}")
    same = 0
    for key, old in sides["rev"].items():
        new = sides["this"][key]
        if old == new:
            same += 1
            continue
        print(f"DIFFERS {key[0]} {key[1]}: exit {old[0]} -> {new[0]}")
        for part, a, b in zip(("stdout", "stderr", "--out"), old[1:], new[1:]):
            for line in difflib.unified_diff(a.splitlines(), b.splitlines(), part, part, n=0, lineterm=""):
                if not line.startswith(("---", "+++", "@@")):
                    print(f"  {part} {line}")
    print(f"CLI matrix: {same} of {len(sides['rev'])} runs identical")


def compare_hex(rev_tree: Path, script: str, label: str, noun: str) -> None:
    """Run a script printing ``key<TAB>value`` lines on both sides and count the equal lines."""
    outs = [subprocess.run([sys.executable, "-c", script], cwd=tree, env=env_for(tree),
                           capture_output=True, text=True, check=True).stdout.splitlines()
            for tree in (rev_tree, ROOT)]
    differ = [a.split("\t")[0] for a, b in zip(*outs) if a != b]
    print(f"{label}: {len(outs[0]) - len(differ)} of {len(outs[0])} {noun} identical"
          + "".join(f"\n  DIFFERS {d}" for d in differ))


def bench_run(tree: Path, workload: str, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": last["correct"], **{k: m["value"] for k, m in last["metrics"].items()}}


def compare_bench(rev_tree: Path, workloads: list, pairs: int, seconds: float) -> None:
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for workload in workloads:
        runs = {"rev": [], "this": []}
        for i in range(pairs):
            order = (("rev", rev_tree), ("this", ROOT)) if i % 2 == 0 else (("this", ROOT), ("rev", rev_tree))
            for name, tree in order:
                runs[name].append(bench_run(tree, workload, seconds))
        correct = all(r["correct"] is True for side in runs.values() for r in side)
        print(f"{workload}: {pairs} alternating pairs of {seconds:g} s runs, all correct: {correct}")
        for name, m in spec.items():
            old = [r[name] for r in runs["rev"]]
            new = [r[name] for r in runs["this"]]
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
            q1, _, q3 = statistics.quantiles(old, n=4)
            mid = statistics.median(old)
            spread = (q3 - q1) / abs(mid) if mid else 0.0
            verdict = "unresolved" if spread > m["bound"] else "resolved"
            print(f"  {name:<12} rev {mid:<12.6g} this {statistics.median(new):<12.6g} "
                  f"rev IQR/median {spread:<8.3g} bound {m['bound']:<6g} wins {wins}/{pairs} {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--workloads", nargs="*", default=["limit_1d", "verify_cli"])
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs needs 2 or more runs per side for quartiles")
    scratch = Path(tempfile.mkdtemp(prefix="ppgeo-ab-"))
    rev_tree = scratch / "rev"
    try:
        rev_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.against],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(rev_tree)], input=archive, check=True)
        print(f"this checkout against {args.against}")
        compare_matrix(rev_tree, scratch)
        compare_hex(rev_tree, LIMIT_HEX, "dp_limit float hex", "reports")
        compare_hex(rev_tree, CURVE_HEX, "curve_checks/energy float hex", "values")
        compare_bench(rev_tree, args.workloads, args.pairs, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
