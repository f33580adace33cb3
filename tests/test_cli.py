import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppgeo
from ppgeo.cli import main
from ppgeo.corpus import CLOSED_FORMS, PAIR_CATALOG
from ppgeo.harness import quadrature_tol

SMALL = {
    "moment_cells": 256,
    "spatial": {"lo": [-4.0], "hi": [5.0], "cells": [512]},
    "suite_pairs": 5,
}


@pytest.fixture
def config(tmp_path):
    def write(extra):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**SMALL, **extra}))
        return str(path)

    return write


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_distance_endpoint(config, capsys):
    rc, out = run(capsys, "distance", "--config", config({"pair": "ramp_pair"}), "--p", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.5, abs=1e-12)
    assert payload["format_version"] == 1


GOLDEN_LIMIT = json.loads(Path(__file__).with_name("golden_limit_reports.json").read_text())
TRIANGLE_16 = {
    "dimension": 2, "moment_cells": 16,
    "spatial": {"lo": [-4.0, -4.0], "hi": [5.0, 5.0], "cells": [32, 32]},
    "p_body": [[0, 0], [1, 0], [0.3, 1]], "q_body": [[-1, -1], [1, -1], [1, 1], [-1, 1]],
}


@pytest.mark.parametrize("case, cfg, p", [
    ("1d-p1", {}, "1"), ("1d-p2", {}, "2"), ("1d-p3", {}, "3"), ("triangle-p2", TRIANGLE_16, "2"),
])
def test_limit_report_matches_its_golden_json(tmp_path, capsys, case, cfg, p):
    """``ppgeo distance --route limit`` on the 1d default and on the triangle in
    the square Q: every 12-digit field as pinned in ``golden_limit_reports.json``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    rc, out = run(capsys, "distance", "--route", "limit", "--p", p, "--config", str(path))
    assert rc == 0
    assert json.loads(out) == GOLDEN_LIMIT[case]


def test_distance_csv_output(config, tmp_path, capsys):
    out_file = tmp_path / "d.csv"
    rc, _ = run(
        capsys, "distance", "--config", config({}), "--route", "limit",
        "--out", str(out_file),
    )
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "route,p,epsilon,V_eps,d_p_eps,extrapolated,residual"
    assert len(lines) == 8
    for field in ",".join(lines[1:]).split(","):
        if field and field != "epsilon_limit":
            assert float(field) == float(f"{float(field):.12g}"), field


def _floats(x):
    if isinstance(x, float):
        yield x
    elif isinstance(x, dict):
        for v in x.values():
            yield from _floats(v)
    elif isinstance(x, list):
        for v in x:
            yield from _floats(v)


@pytest.mark.parametrize("route", ["endpoint", "limit", "singular"])
def test_distance_json_has_12_significant_digits(config, capsys, route):
    rc, out = run(capsys, "distance", "--config", config({}), "--route", route)
    assert rc == 0
    values = list(_floats(json.loads(out)))
    assert values
    assert all(float(f"{x:.12g}") == x for x in values)


@pytest.mark.parametrize("route, p", [("endpoint", "2"), ("oracle", "2"), ("energy", "1")])
def test_closed_formula_routes_claim_no_convergence(config, capsys, route, p):
    # these routes compute no sequence and fit no line: nothing settled, nothing tested
    rc, out = run(capsys, "distance", "--config", config({}), "--route", route, "--p", p)
    payload = json.loads(out)
    assert rc == 0
    assert (payload["converged"], payload["fit_residual"], payload["table"]) == (None, None, [])
    assert '"converged": null' in out


def test_two_entry_limit_reports_no_fit_residual(config, capsys):
    # the line passes through both table points, so its residual tests nothing
    cfg = config({"epsilon_schedule": [0.2, 0.1]})
    rc, out = run(capsys, "distance", "--config", cfg, "--route", "limit")
    payload = json.loads(out)
    assert rc == 0 and len(payload["table"]) == 2
    assert (payload["fit_residual"], payload["converged"]) == (None, False)


def test_geodesic_command(config, capsys):
    rc, out = run(capsys, "geodesic", "--config", config({"pair": "crossing_pair"}))
    assert rc == 0
    payload = json.loads(out)
    mid = payload["samples"][2]
    assert mid["t"] == 0.5
    assert mid["distance_from_start"] == pytest.approx(
        payload["endpoint_distance"] / 2, rel=1e-9
    )


def test_energy_command(config, capsys):
    rc, out = run(capsys, "energy", "--config", config({"potential": "dual_quadratic"}))
    assert rc == 0
    assert json.loads(out)["energy"] == pytest.approx(-1 / 6, abs=1e-3)


def test_ma_command_mass(config, capsys):
    rc, out = run(capsys, "ma", "--config", config({}))
    assert rc == 0
    assert json.loads(out)["total_mass"] == pytest.approx(1.0, rel=1e-12)


def test_envelope_command(config, capsys):
    rc, out = run(capsys, "envelope", "--config", config({}))
    assert rc == 0
    payload = json.loads(out)
    assert 0 < payload["contact_fraction"] < 1


def test_corpus_listing(capsys):
    rc, out = run(capsys, "corpus")
    assert rc == 0
    payload = json.loads(out)
    assert "ramp_pair" in payload["pairs"]
    assert payload["closed_forms"]["dual_log_barrier"]["singular"] is True


def test_verify_exit_code_and_determinism(config, capsys):
    cfg = config({})
    rc1, out1 = run(capsys, "verify", "--suite", "pythagorean", "--config", cfg)
    rc2, out2 = run(capsys, "verify", "--suite", "pythagorean", "--config", cfg)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_report_file(config, tmp_path, capsys):
    out_file = tmp_path / "report.json"
    rc, _ = run(
        capsys, "verify", "--suite", "geodesic_metric", "--config", config({}),
        "--out", str(out_file),
    )
    assert rc == 0
    payload = json.loads(out_file.read_text())
    assert payload["suites"][0]["verdict"] == "pass"


# 2d configs for polygon bodies; a dart is a square with a dent, so not convex
PLANE = {"dimension": 2, "moment_cells": 16,
         "spatial": {"lo": [-4.0, -4.0], "hi": [5.0, 5.0], "cells": [16, 16]}}
BOX = [[-1, -1], [1, -1], [1, 1], [-1, 1]]
P_DART = [[0, 0], [2, 0], [2, 2], [1, 0.5], [0, 2]]
Q_DART = [[-1, -1], [1, -1], [1, 1], [0, 0.5], [-1, 1]]
# on [0, 1.5] the log barrier of [0, 1] is +inf on a third of the body's cells
SINGULAR = {"p_body": [[0], [1.5]], "q_body": [[-1], [1]], "pair": "log_barrier_singular"}


@pytest.mark.parametrize(
    "cfg, argv",
    [
        ({"unknown_key": 1}, ["distance"]),
        (None, ["distance"]),
        ({}, ["distance", "--p", "nan"]),
        ({}, ["distance", "--p", "inf"]),
        ({}, ["distance", "--route", "oracle", "--p", "0.5"]),
        ({"pair": {"seed_index": -1}}, ["distance"]),
        ({"moment_cells": "abc"}, ["distance"]),
        ({"spatial": {"lo": [-4.0], "cells": [512]}}, ["distance"]),
        ({"obstacles": ["quadratic"]}, ["distance", "--route", "limit"]),
        ({"epsilon_schedule": [0.1]}, ["distance", "--route", "limit"]),
        ({"obstacles": ["dual_quadratic", "dual_ramp"]}, ["distance", "--route", "limit"]),
        ({"obstacles": ["dual_quadratic"]}, ["envelope"]),
        ({}, ["corpus", "--out", "{tmp}/missing/x.json"]),
        ({}, ["distance", "--out", "{tmp}"]),
        ({**PLANE, "p_body": P_DART, "q_body": BOX}, ["distance"]),
        ({**PLANE, "p_body": BOX, "q_body": Q_DART}, ["distance"]),
        (SINGULAR, ["distance", "--route", "endpoint"]),
        (SINGULAR, ["distance", "--route", "oracle"]),
        (SINGULAR, ["distance", "--route", "energy", "--p", "1"]),
        (SINGULAR, ["geodesic"]),
        ({**SINGULAR, "potential": "dual_log_barrier"}, ["energy"]),
    ],
    ids=["unknown-key", "missing-file", "p-nan", "p-inf", "oracle-p-below-1",
         "negative-seed-index", "moment-cells-not-integer", "spatial-without-hi",
         "limit-with-one-obstacle", "one-entry-schedule", "limit-with-dual-obstacles",
         "envelope-of-a-dual-obstacle", "out-in-missing-directory", "out-is-a-directory",
         "dart-p-body", "dart-q-body", "singular-endpoint", "singular-oracle",
         "singular-energy-route", "singular-geodesic", "singular-energy"],
)
def test_config_error_exit_code(capsys, tmp_path, cfg, argv):
    path = tmp_path / "config.json"
    if cfg is not None:
        path.write_text(json.dumps(cfg))
    argv = [a.format(tmp=tmp_path) for a in argv]
    rc = main(argv + ["--config", str(path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("command, work", [("distance", "dp_endpoint"), ("verify", "run_suites")])
def test_unwritable_out_fails_before_any_work(config, capsys, tmp_path, monkeypatch,
                                              command, work):
    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.setattr(ppgeo.cli, work, never)
    rc = main([command, "--config", config({}), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write {str(tmp_path)!r}")


def test_out_check_leaves_no_file_on_a_config_error(capsys, tmp_path):
    out_file = tmp_path / "d.json"
    rc = main(["distance", "--config", str(tmp_path / "missing.json"), "--out", str(out_file)])
    assert rc == 2
    assert not out_file.exists()


def test_seed_flag_changes_seeded_pair(config, capsys):
    cfg = config({"pair": {"seed_index": 0}})
    _, out1 = run(capsys, "distance", "--config", cfg, "--seed", "1")
    _, out2 = run(capsys, "distance", "--config", cfg, "--seed", "2")
    assert json.loads(out1)["value"] != json.loads(out2)["value"]


SQUARE = {
    "dimension": 2,
    "moment_cells": 32,
    "spatial": {"lo": [-4.0, -4.0], "hi": [5.0, 5.0], "cells": [64, 64]},
    "suite_pairs": 4,
}


@pytest.mark.parametrize("argv", [
    *(["distance", "--route", route] for route in ("endpoint", "oracle", "limit", "singular")),
    ["distance", "--route", "energy", "--p", "1"],
    ["geodesic"], ["envelope"], ["ma"], ["energy"], ["corpus"],
])
def test_every_command_runs_on_a_2d_square(config, capsys, argv):
    rc, out = run(capsys, *argv, "--config", config(SQUARE))
    assert rc == 0
    assert out


@pytest.mark.parametrize("pair, p, expected", [
    ("ramp_pair", 1.0, 2.0**-1.0),
    ("ramp_pair", 2.0, 3.0**-0.5),
    ("crossing_pair", 2.0, 3.0**-0.5),
])
def test_2d_closed_form_pairs_match_their_distances(config, capsys, pair, p, expected):
    # on the unit square both duals depend on p1 only, so d_p is the 1d value:
    # (p+1)^(-1/p) for 0 and p1, and 3^(-1/2) for p1 and 1-p1 at p = 2
    rc, out = run(capsys, "distance", "--config", config({**SQUARE, "pair": pair}), "--p", str(p))
    assert rc == 0
    h = 1.0 / SQUARE["moment_cells"]
    assert json.loads(out)["value"] == pytest.approx(expected, rel=quadrature_tol(h))


def test_2d_verify_passes_and_reports_identical_bytes(config, tmp_path, capsys):
    cfg = config(SQUARE)
    outs, files = [], []
    for i in (0, 1):
        out_file = tmp_path / f"rep{i}.json"
        rc, out = run(capsys, "verify", "--config", cfg, "--out", str(out_file))
        assert rc == 0, out
        outs.append(out)
        files.append(out_file.read_bytes())
    assert outs[0] == outs[1]
    assert files[0] == files[1]


@pytest.mark.parametrize("command", ["ma", "geodesic"])
def test_reports_print_no_negative_zero(config, capsys, command):
    rc, out = run(capsys, command, "--config", config({}))
    assert rc == 0
    assert "-0.0" not in out


def _interval(lo, width):
    return [[lo], [lo + width]]


VALID = {
    "dimension": st.sampled_from([1, 2]),
    "moment_cells": st.integers(8, 48),
    "spatial": st.builds(lambda lo, width, cells: {"lo": [lo], "hi": [lo + width], "cells": [cells]},
                         st.floats(-8.0, 0.0), st.floats(0.5, 12.0), st.integers(8, 96)),
    "epsilon_schedule": st.none() | st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=4,
                                             unique=True).map(lambda e: sorted(e, reverse=True)),
    "pair": st.sampled_from(sorted(PAIR_CATALOG))
    | st.lists(st.sampled_from(sorted(CLOSED_FORMS)), min_size=2, max_size=2)
    | st.builds(lambda k: {"seed_index": k}, st.integers(0, 3)),
    "obstacles": st.lists(st.sampled_from(sorted(CLOSED_FORMS)), min_size=1, max_size=3),
    "potential": st.sampled_from(sorted(CLOSED_FORMS)),
    "p": st.floats(1.0, 4.0),
    "seed": st.integers(0, 50),
    "t_samples": st.lists(st.floats(0.0, 1.0), max_size=3),
    "suite_pairs": st.integers(1, 3),
    "p_body": st.builds(_interval, st.floats(-2.0, 1.0), st.floats(0.25, 2.0)),
    "q_body": st.builds(_interval, st.floats(-2.0, 0.0), st.floats(0.25, 2.0)),
    "unknown_key": st.just(1),
}
SCALARS = st.none() | st.booleans() | st.integers(-3, 48) | st.floats() | st.text(max_size=4)
INVALID = (SCALARS | st.lists(SCALARS, max_size=3)
           | st.dictionaries(st.sampled_from(["lo", "hi", "cells", "seed_index"]), SCALARS,
                             max_size=3))


@st.composite
def configs(draw):
    """SMALL with one or two keys replaced; p_body brings a valid q_body along."""
    keys = draw(st.lists(st.sampled_from(sorted(VALID)), min_size=1, max_size=2, unique=True))
    cfg = {**SMALL, **{k: draw(VALID[k] if draw(st.booleans()) else INVALID) for k in keys}}
    if "p_body" in keys and "q_body" not in keys:
        cfg["q_body"] = draw(VALID["q_body"])
    return cfg


@settings(max_examples=200, deadline=None)
@given(cfg=configs(), argv=st.sampled_from([
    ["corpus"], ["distance"], ["distance", "--route", "limit"], ["envelope"],
]))
def test_fuzzed_configs_exit_with_a_documented_code(cfg, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv + ["--config", path])
    assert rc in (0, 1, 2)


def test_one_dimensional_commands_never_import_scipy_spatial(config):
    # scipy.spatial costs about a third of a second per process; in 1d only
    # 2d Minkowski sums need it, so none of these commands may import it
    script = (
        "import contextlib, io, sys\n"
        "from ppgeo.cli import main\n"
        f"cfg = {config({})!r}\n"
        "for argv in (['distance', '--route', 'limit'], ['envelope'],\n"
        "             ['verify', '--suite', 'epsilon_lemmas']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv + ['--config', cfg]) == 0, argv\n"
        "assert 'scipy.spatial' not in sys.modules, 'scipy.spatial was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(ppgeo.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
