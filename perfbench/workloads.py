"""The four benchmark workloads: seeded inputs, one op, and the checks on it.

Every op's outputs are checked after its clock stops, against tolerances
copied from ``tests/test_acceptance.py``.  A check is a triple
``(name, error, tolerance)``; the op fails when any error exceeds its
tolerance or is not a number.
"""
from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import ppgeo
# timed functions are called through ``ppgeo.`` so that the traced run's
# rebinding of the package namespace reaches the benchmark's own calls
from ppgeo import DualPotential, SampledFunction, SpatialGrid, default_class_body, geodesic
from spans import CLI_PROCESS

# pinned tolerances, as in tests/test_acceptance.py
IDENTITY_TOL = 1e-9      # dual oracle (04), Pythagorean identity (05)
MASS_TOL = 1e-12         # measure mass conservation (02)
SPEED_TOL = 1e-6         # geodesic constant speed (06)
CONVERGENCE_TOL = 0.02   # limit vs endpoint (04), epsilon-route split (05), singular d_2 (11)
IP_CONSTANT = 4.0        # I_p comparability (08)
CONVEXITY_TOL = 1e-9     # curve inequalities (12)
LIPSCHITZ_TOL = 1e-6     # (12): measured <= (1 + 1e-6) * bound
RESIDUAL_CONSTANT = 1.0  # (12): space-time residual <= 1.0 * h
ENVELOPE_CONSTANT = 10.0  # (03): measure identity residual <= 10 * h * C


def quadrature_tol(h: float) -> float:
    """Energy-route tolerance: 0.01 at acceptance 07's 1d grid, 5h when coarser.

    The same class as ``harness.quadrature_tol``, copied so that a change to
    the package cannot loosen the benchmark.
    """
    return max(0.01, 5.0 * h)


def _rel(a: float, b: float, floor: float = 1e-15) -> float:
    return abs(a - b) / max(abs(b), floor)


def _involution(w: DualPotential, spatial: SpatialGrid) -> DualPotential:
    return ppgeo.to_dual(ppgeo.to_primal(w, spatial), w.grid)


def _curve_errors(ck: dict, h: float) -> list:
    return [
        ("curve_convexity", max(0.0, ck["convexity_violation"]), CONVEXITY_TOL),
        ("curve_lipschitz",
         max(0.0, ck["lipschitz_measured"] / max(ck["lipschitz_bound"], 1e-15) - 1.0),
         LIPSCHITZ_TOL),
        ("curve_residual", ck["spacetime_ma_residual"], RESIDUAL_CONSTANT * h),
    ]


class InProcess:
    """A workload whose ops run in the benchmark's own process."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Limit1d(InProcess):
    """``dp_limit`` on primal obstacles of one seeded pair, as in acceptance 05."""

    name = "limit_1d"
    p = 2.0

    def setup(self, seed: int):
        klass = default_class_body(1)
        grid = ppgeo.moment_grid(klass.p_body, 1024)
        self.spatial = SpatialGrid((-4.0,), (5.0,), (2048,))
        self.family = ppgeo.epsilon_family(klass, 1024)
        (u, v), = ppgeo.random_dual_pairs(seed, 1, klass.p_body, grid)
        fu = SampledFunction(self.spatial, ppgeo.to_primal(u, self.spatial).values, "u")
        fv = SampledFunction(self.spatial, ppgeo.to_primal(v, self.spatial).values, "v")
        fmin = SampledFunction(self.spatial, np.minimum(fu.values, fv.values), "min")
        self.combos = [(fu, fv), (fu, fmin), (fv, fmin)]
        self.d_end = ppgeo.dp_endpoint(u, v, self.p)
        self.values = {}

    def op(self, k: int):
        f0, f1 = self.combos[k % 3]
        return ppgeo.dp_limit(f0, f1, self.family, self.p)

    def check(self, k: int, rep) -> list:
        cr = rep.cross_route
        errs = [("oracle", _rel(cr["dual_oracle"], cr["endpoint"]), IDENTITY_TOL)]
        self.values[k % 3] = rep.value
        if k % 3 == 0:
            floor = 5 * max(self.spatial.spacing) / CONVERGENCE_TOL
            errs.append(("limit_vs_endpoint",
                         abs(rep.value - self.d_end) / max(self.d_end, floor),
                         CONVERGENCE_TOL))
        if len(self.values) == 3:
            lhs = self.values[0] ** 2
            rhs = self.values[1] ** 2 + self.values[2] ** 2
            errs.append(("epsilon_split", abs(lhs - rhs) / max(abs(lhs), 1e-12),
                         CONVERGENCE_TOL))
        return errs


class Dual1d(InProcess):
    """Seeded pairs through the dual-cell routes; builds no envelope."""

    name = "dual_1d"
    pairs = 8
    ps = (1.0, 2.0, 3.0)

    def setup(self, seed: int):
        self.klass = default_class_body(1)
        self.grid = ppgeo.moment_grid(self.klass.p_body, 1024)
        self.spatial = SpatialGrid((-4.0,), (5.0,), (2048,))
        self.corpus = ppgeo.random_dual_pairs(seed, self.pairs, self.klass.p_body, self.grid)

    def op(self, k: int) -> dict:
        u, v = self.corpus[k % self.pairs]
        roof = ppgeo.rooftop(u, v)
        curve = geodesic(u, v)
        ts = np.linspace(0.0, 1.0, 5)
        return {
            "pair": (u, v),
            "back": [_involution(w, self.spatial) for w in (u, v)],
            "dp": [(ppgeo.dp_endpoint(u, v, p), ppgeo.dp_dual_oracle(u, v, p)) for p in self.ps],
            "split": (ppgeo.dp_endpoint(u, roof, 2.0), ppgeo.dp_endpoint(v, roof, 2.0)),
            "speed": [(t, s, ppgeo.dp_endpoint(curve.potential_at(t), curve.potential_at(s), 2.0))
                      for t in ts for s in ts],
            "curve": ppgeo.curve_checks(curve, self.spatial),
            "d1": ppgeo.d1_energy(u, v, self.spatial),
            "ip": [ppgeo.i_p(u, v, p) for p in self.ps],
            "mass": [ppgeo.ma_atomic(w).total_mass for w in (u, v)],
        }

    def check(self, k: int, out: dict) -> list:
        u, v = out["pair"]
        h = max(self.spatial.spacing)
        big_h = max(h, max(self.grid.spacing))
        vol = self.klass.volume
        errs = [("involution", float(np.abs(b.values - w.values).max()), 2 * big_h * 1.0)
                for w, b in zip((u, v), out["back"])]
        errs += [("oracle", _rel(oracle, end), IDENTITY_TOL) for end, oracle in out["dp"]]
        d = {p: end for p, (end, _) in zip(self.ps, out["dp"])}
        lhs = d[2.0] ** 2
        rhs = out["split"][0] ** 2 + out["split"][1] ** 2
        errs.append(("pythagorean", abs(lhs - rhs) / max(1.0, lhs), IDENTITY_TOL))
        errs += [("constant_speed", abs(dd - abs(t - s) * d[2.0]) / max(d[2.0], 1e-15), SPEED_TOL)
                 for t, s, dd in out["speed"]]
        errs += _curve_errors(out["curve"], h)
        errs.append(("energy_route", _rel(out["d1"], d[1.0]),
                     quadrature_tol(max(self.grid.spacing))))
        for p, ip in zip(self.ps, out["ip"]):
            if ip > 1e-12:
                ratio = d[p] ** p / ip
                errs.append(("ip_comparability", max(ratio, 1.0 / ratio), IP_CONSTANT))
        errs += [("mass", abs(m - vol) / vol, MASS_TOL) for m in out["mass"]]
        return errs


def max_affine_dual(rng: np.random.Generator, body, grid) -> DualPotential:
    """Seeded max of affine pieces on a moment grid: convex, nonnegative."""
    k = int(rng.integers(3, 9))
    slopes = rng.uniform(-2.0, 3.0, size=(k, grid.ndim))
    offsets = rng.uniform(-1.0, 1.0, size=k)
    vals = (grid.nodes() @ slopes.T + offsets).max(axis=1).reshape(grid.shape)
    vals += rng.uniform(0.0, 1.0) - vals.min()
    return DualPotential(body, grid, vals, provenance="max_affine")


class Grid2d(InProcess):
    """One seeded 2d item: a ripple envelope, then a max-of-affine pair.

    2d ``truncate_dual`` and ``dp_singular`` are left out: they return wrong
    values until the 2d convexification is fixed (ROADMAP item 3).
    """

    name = "grid_2d"

    def setup(self, seed: int):
        self.klass = default_class_body(2)
        self.grid = ppgeo.moment_grid(self.klass.p_body, 64)
        self.spatial = SpatialGrid((-4.0, -4.0), (5.0, 5.0), (128, 128))
        rng = np.random.default_rng(seed)
        amp = rng.uniform(0.1, 0.3)
        freq = rng.uniform(1.5, 3.5, size=2)
        phase = rng.uniform(0.0, 2 * np.pi, size=2)
        x, y = np.meshgrid(*self.spatial.axes(), indexing="ij")
        ripple = amp * np.cos(freq[0] * x + phase[0]) * np.cos(freq[1] * y + phase[1])
        self.obstacle = SampledFunction(self.spatial, 0.5 * (x**2 + y**2) + ripple, "ripple")
        self.hessian_bound = 1.0 + amp * float(freq.max()) ** 2
        self.u = max_affine_dual(rng, self.klass.p_body, self.grid)
        self.v = max_affine_dual(rng, self.klass.p_body, self.grid)
        self.zero = DualPotential(self.klass.p_body, self.grid, np.zeros(self.grid.shape),
                                  provenance="minimal")

    def op(self, k: int) -> dict:
        u, v = self.u, self.v
        rec = ppgeo.envelope(self.obstacle, self.klass.p_body, self.grid,
                       hessian_bound=self.hessian_bound)
        return {
            "envelope": rec,
            "back": [_involution(w, self.spatial) for w in (u, v)],
            "dp": (ppgeo.dp_endpoint(u, v, 2.0), ppgeo.dp_dual_oracle(u, v, 2.0)),
            "mass": [ppgeo.ma_atomic(w).total_mass for w in (u, v)],
            # u* >= 0, so rooftop(u, V) = u and d_1(u, V) = -E(u)
            "energy": (ppgeo.energy(u, self.spatial), ppgeo.dp_endpoint(u, self.zero, 1.0)),
            "curve": ppgeo.curve_checks(geodesic(u, v), self.spatial),
        }

    def check(self, k: int, out: dict) -> list:
        rec = out["envelope"]
        f = self.obstacle.values
        scale = max(1.0, float(np.abs(f).max()))
        h = max(self.spatial.spacing)
        big_h = max(h, max(self.grid.spacing))
        diam = math.sqrt(2.0)
        vol = self.klass.volume
        errs = [
            ("envelope_below_obstacle", max(0.0, float((rec.primal.values - f).max())) / scale,
             IDENTITY_TOL),
            ("envelope_convexity", max(0.0, -rec.primal.convexity_slack()) / scale,
             IDENTITY_TOL),
            ("envelope_contact", 0.0 if rec.contact_mask.any() else math.inf, 1.0),
        ]
        errs += [("involution", float(np.abs(b.values - w.values).max()), 2 * big_h * diam)
                 for w, b in zip((self.u, self.v), out["back"])]
        end, oracle = out["dp"]
        errs.append(("oracle", _rel(oracle, end), IDENTITY_TOL))
        errs += [("mass", abs(m - vol) / vol, MASS_TOL) for m in out["mass"]]
        e_u, d1 = out["energy"]
        errs.append(("energy_route", _rel(-e_u, d1), quadrature_tol(max(self.grid.spacing))))
        errs += _curve_errors(out["curve"], h)
        return errs


class VerifyCli:
    """One round of fresh ``python -m ppgeo.cli`` processes, run one at a time."""

    name = "verify_cli"
    spatial_h = 9.0 / 2048  # CLI default spatial grid

    def __init__(self, root: Path, out_dir: Path):
        self.root = root
        self.out_dir = out_dir
        self.env = dict(os.environ)
        self.env.pop("PPGEO_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.peak_rss_kb = 0

    def setup(self, seed: int):
        import ppgeo.cli  # noqa: F401  (the import every CLI process pays)

        self.out_dir.mkdir(parents=True, exist_ok=True)
        base = self.out_dir / f"cfg-{seed}.json"
        singular = self.out_dir / f"cfg-singular-{seed}.json"
        base.write_text(json.dumps({"seed": seed}))
        singular.write_text(json.dumps({"seed": seed, "pair": "log_barrier_singular", "p": 2.0}))
        self.verify_out = self.out_dir / f"verify-{seed}.json"
        self.commands = [
            ("verify", ["verify", "--config", str(base), "--out", str(self.verify_out)]),
            ("distance_limit", ["distance", "--route", "limit", "--config", str(base)]),
            ("distance_singular", ["distance", "--route", "singular", "--config", str(singular)]),
            ("geodesic", ["geodesic", "--config", str(base)]),
            ("envelope", ["envelope", "--config", str(base)]),
            ("ma", ["ma", "--config", str(base)]),
            ("energy", ["energy", "--config", str(base)]),
        ]
        self.reference = None

    def _spawn(self, argv: list, log: Path) -> int:
        with open(log, "wb") as fh:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            # wait4 gives this child's own peak memory
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024.0

    def op(self, k: int, tracer=None) -> dict:
        """Run the round; with a tracer, each process runs under ``cli_traced.py``."""
        out = {}
        for label, args in self.commands:
            log = self.out_dir / f"{label}.log"
            if tracer is None:
                rc = self._spawn([sys.executable, "-m", "ppgeo.cli", *args], log)
            else:
                spans_path = self.out_dir / f"spans-{label}.json"
                launcher = Path(__file__).with_name("cli_traced.py")
                start = time.perf_counter()
                rc = self._spawn([sys.executable, str(launcher), str(spans_path), "--", *args], log)
                idx = tracer.record(CLI_PROCESS, start, time.perf_counter())
                tracer.absorb(spans_path, parent=idx)
                spans_path.unlink()
            data = log.read_bytes()
            if label == "verify":
                data += self.verify_out.read_bytes() if self.verify_out.exists() else b""
                self.verify_out.unlink(missing_ok=True)
            out[label] = (rc, data)
        return out

    def check(self, k: int, out: dict) -> list:
        if self.reference is None:
            self.reference = out
        errs = []
        for label, (rc, data) in out.items():
            errs.append((f"{label}_exit", math.inf if rc else 0.0, 1.0))
            same = data == self.reference[label][1]
            errs.append((f"{label}_bytes", 0.0 if same else math.inf, 1.0))
        try:
            errs += self._values(out)
        except (ValueError, KeyError, IndexError, TypeError):
            errs.append(("parse", math.inf, 1.0))
        return errs

    def _values(self, out: dict) -> list:
        h = self.spatial_h
        data = out["verify"][1].decode()
        report = json.loads(data[data.index("{"):])
        errs = [(f"suite_{s['suite']}", s["worst_slack"], s["tolerance"])
                for s in report["suites"]]
        lim = json.loads(out["distance_limit"][1])
        cr = lim["cross_route"]
        floor = 5 * h / CONVERGENCE_TOL
        errs.append(("limit_vs_endpoint",
                     abs(lim["value"] - cr["endpoint"]) / max(cr["endpoint"], floor),
                     CONVERGENCE_TOL))
        errs.append(("oracle", _rel(cr["dual_oracle"], cr["endpoint"]), IDENTITY_TOL))
        sing = json.loads(out["distance_singular"][1])
        errs.append(("singular_d2", _rel(sing["value"], math.sqrt(2.0)), CONVERGENCE_TOL))
        geo = json.loads(out["geodesic"][1])
        base = geo["endpoint_distance"]
        errs += [("constant_speed", abs(r["distance_from_start"] - r["t"] * base) / max(base, 1e-15),
                  SPEED_TOL) for r in geo["samples"]]
        errs += _curve_errors(geo["checks"], h)
        env = json.loads(out["envelope"][1])
        errs.append(("envelope_identity", env["measure_identity_residual"],
                     ENVELOPE_CONSTANT * h * env["hessian_bound"]))
        ma = json.loads(out["ma"][1])
        errs.append(("mass", _rel(ma["total_mass"], ma["class_volume"]), MASS_TOL))
        # dual p^2/2 >= 0, so d_1(u, V) = -E(u) = int_0^1 p^2/2 dp = 1/6
        en = json.loads(out["energy"][1])
        errs.append(("energy_route", _rel(-en["energy"], 1.0 / 6.0),
                     quadrature_tol(1.0 / 1024)))
        return errs


def make(name: str, root: Path, out_dir: Path):
    if name == VerifyCli.name:
        return VerifyCli(root, out_dir)
    for cls in (Limit1d, Dual1d, Grid2d):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES = (Limit1d.name, Dual1d.name, Grid2d.name, VerifyCli.name)

