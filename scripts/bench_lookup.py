"""L0 timing of the two hull-piece lookups of ``duality.conjugate_1d``; writes BENCH_lookup.json.

For N ascending queries and a lower hull of K vertices it times

* ``searchsorted``: one binary search per query among the K - 1 hull
  slopes, then the gather ``q * xs[k] - vs[k]``;
* ``fill``: the order test that ``conjugate_1d`` runs (one vectorised pass
  over the queries) and ``duality._fill_pieces``, one binary search per
  hull slope among the queries and the pieces filled with ``np.repeat``;

and checks that both give the same floats.  Each entry is the median over
``RUNS`` runs of the time per call; the two lookups alternate run by run so
that a drift of the CPU's speed reaches both.  ``ratio`` is fill over
searchsorted, and ``fill_chosen`` says whether ``conjugate_1d`` takes the
fill at that size.  Run from a checkout:

    PYTHONPATH=src python scripts/bench_lookup.py [--out BENCH_lookup.json]

Pinning to one CPU (``taskset -c 1``) steadies the numbers.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from ppgeo import duality

SEED = 20240
QUERIES = (129, 257, 513, 1025, 2049, 8192)
VERTICES = (8, 32, 128, 512)  # and N - 1, one vertex per query
RUNS = 9
RUN_SECONDS = 0.02


def hull(rng, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lower hull of k samples of a convex piecewise affine function on [-4, 5]."""
    x = np.linspace(-4.0, 5.0, k)
    slopes = np.sort(rng.uniform(-1.5, 2.5, k - 1))
    v = np.concatenate([[0.0], np.cumsum(slopes * np.diff(x))])
    return duality.lower_hull(x, v)


def searchsorted(xs, vs, slopes, q):
    k = np.searchsorted(slopes, q, side="left")
    return q * xs[k] - vs[k]


def fill(xs, vs, slopes, q):
    if not (q[1:] >= q[:-1]).all():
        raise ValueError("the fill needs ascending queries")
    return duality._fill_pieces(xs, vs, slopes, q)


def per_call(f, args, calls: int) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        f(*args)
    return (time.perf_counter() - t0) / calls


def measure(n: int, k: int, rng) -> dict:
    xs, vs, slopes = hull(rng, k)
    q = np.sort(rng.uniform(-1.0, 2.0, n))  # the cells of [-1, 2], as a stacked eps-table's
    args = (xs, vs, slopes, q)
    if not np.array_equal(searchsorted(*args), fill(*args)):
        raise AssertionError(f"the lookups differ at N={n}, K={k}")
    calls = max(1, int(RUN_SECONDS / per_call(searchsorted, args, 20)))
    times = {"searchsorted": [], "fill": []}
    for _ in range(RUNS):
        for name, f in (("searchsorted", searchsorted), ("fill", fill)):
            times[name].append(per_call(f, args, calls))
    ss, fl = (float(np.median(times[name])) for name in ("searchsorted", "fill"))
    chosen = n >= max(duality._FILL_MIN_QUERIES, duality._FILL_QUERIES_PER_VERTEX * len(xs))
    return {"N": n, "K": len(xs), "searchsorted_us": round(ss * 1e6, 2),
            "fill_us": round(fl * 1e6, 2), "ratio": round(fl / ss, 3), "fill_chosen": chosen}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(Path(__file__).resolve().parents[1]
                                             / "BENCH_lookup.json"))
    out = Path(parser.parse_args().out)
    rng = np.random.default_rng(SEED)
    rows = []
    for n in QUERIES:
        for k in sorted({*(k for k in VERTICES if k < n), n - 1}):
            rows.append(measure(n, k, rng))
            print(json.dumps(rows[-1]))
    report = {
        "what": "duality.conjugate_1d hull-piece lookup: fill (order test + _fill_pieces) "
                "against np.searchsorted per query, ascending queries, time per call",
        "script": "scripts/bench_lookup.py",
        "seed": SEED,
        "runs": RUNS,
        "statistic": "median of runs",
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rule": {"min_queries": duality._FILL_MIN_QUERIES,
                 "queries_per_vertex": duality._FILL_QUERIES_PER_VERTEX},
        "rows": rows,
    }
    out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
