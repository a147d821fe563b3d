"""The experiment scripts run end to end and write what they promise."""

import csv
import importlib.util
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts")


def load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_obstruction_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert load("obstruction_sweep").main(["--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 6
    for row in rows:
        q, r_phi = int(row["q"]), float(row["r_phi"])
        if row["perturbation"] in ("transverse", "mixed"):
            # eps = 1 for xi = -2 e^1 ^ e^567, so r_phi = eps * q = q
            assert r_phi == pytest.approx(q, abs=1e-9)
            obstructed = q != 0
        else:
            assert r_phi == 0.0
            obstructed = False
        want = "instanton-obstructed" if obstructed else "instanton-survives"
        assert row["verdict"] == want, row
    assert "csv written to" in capsys.readouterr().out


def test_cooling_experiment(tmp_path, capsys):
    out = tmp_path / "cooling.csv"
    code = load("cooling_experiment").main(
        ["--lattice", "4x4x4x4", "--tgrid", "2x2x2", "--out", str(out)])
    assert code == 0, capsys.readouterr().out
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "step,asd_fraction,charge"
    assert len(lines) >= 2
    assert "converged      True" in capsys.readouterr().out
