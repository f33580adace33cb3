import json

import pytest

from ppgeo.cli import main

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
    ],
    ids=["unknown-key", "missing-file", "p-nan", "p-inf", "oracle-p-below-1",
         "negative-seed-index", "moment-cells-not-integer", "spatial-without-hi",
         "limit-with-one-obstacle"],
)
def test_config_error_exit_code(capsys, tmp_path, cfg, argv):
    path = tmp_path / "config.json"
    if cfg is not None:
        path.write_text(json.dumps(cfg))
    rc = main(argv + ["--config", str(path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_seed_flag_changes_seeded_pair(config, capsys):
    cfg = config({"pair": {"seed_index": 0}})
    _, out1 = run(capsys, "distance", "--config", cfg, "--seed", "1")
    _, out2 = run(capsys, "distance", "--config", cfg, "--seed", "2")
    assert json.loads(out1)["value"] != json.loads(out2)["value"]


def test_two_dimensional_closed_forms_are_a_config_error(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "moment_cells": 16,
        "spatial": {"lo": [-4.0, -4.0], "hi": [5.0, 5.0], "cells": [16, 16]},
    }))
    rc = main(["distance", "--config", str(path)])
    assert rc == 2
    assert "closed forms are 1d" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ma", "geodesic"])
def test_reports_print_no_negative_zero(config, capsys, command):
    rc, out = run(capsys, command, "--config", config({}))
    assert rc == 0
    assert "-0.0" not in out
