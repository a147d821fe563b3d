"""The experiment scripts run end to end and write what they promise."""

import csv
import importlib.util
import json
import os

import pytest

from g2lab import chernsimons, cli
from g2lab.gauge import lattice

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


def test_obstruction_sweep_reads_the_standard_context(tmp_path, monkeypatch):
    """The sweep builds no fibration of its own: every verdict gets the one
    shared ``CSContext.standard()``."""
    seen, verdict = [], chernsimons.obstruction_verdict
    monkeypatch.setattr(chernsimons, "obstruction_verdict",
                        lambda ctx, *a, **k: seen.append(ctx) or verdict(ctx, *a, **k))
    assert load("obstruction_sweep").main(["--out", str(tmp_path / "sweep.csv")]) == 0
    assert len(seen) == 3 * 6
    assert all(ctx is chernsimons.CSContext.standard() for ctx in seen)


def test_cooling_experiment_is_the_flow_pipeline(tmp_path, capsys, monkeypatch):
    """The script runs flow's start, extent parser and CSV writer: its CSV is
    the bytes ``g2lab flow --group su2 --start half-flux`` writes, and its 7D
    f7_norm is what ``residual`` reads from the ``lift`` of flow's field."""
    calls = []
    for name in ("_flow_start", "_parse_dims", "_write_history_csv"):
        monkeypatch.setattr(cli, name, lambda *a, real=getattr(cli, name), name=name:
                            calls.append((name, a)) or real(*a))
    args = ["--lattice", "4x4x4x4", "--noise", "0.01", "--seed", "5", "--tol", "2e-3"]
    history = tmp_path / "cooling.csv"
    code = load("cooling_experiment").main(
        args + ["--tgrid", "3x2x2", "--out", str(history)])
    printed = capsys.readouterr().out
    assert calls[:3] == [("_parse_dims", ("4x4x4x4", 4)), ("_parse_dims", ("3x2x2", 3)),
                         ("_flow_start", ((4, 4, 4, 4), "su2", "half-flux", 0.01, 5))]
    assert [(name, a[0]) for name, a in calls[3:]] == [("_write_history_csv", str(history))]

    snap, lifted = str(tmp_path / "flow.lat"), str(tmp_path / "lift.lat")
    assert cli.run(["flow", "--group", "su2", "--start", "half-flux", *args,
                    "--out", snap]) == code
    flow = json.loads(capsys.readouterr().out)
    assert history.read_bytes() == open(snap + ".csv", "rb").read()
    assert f"clover charge  {flow['final_charge']:+.4f}\n" in printed
    assert cli.run(["lift", "--in", snap, "--tgrid", "3x2x2", "--out", lifted]) == 0
    capsys.readouterr()
    assert cli.run(["residual", "--in", lifted]) == 0
    f7 = json.loads(capsys.readouterr().out)["f7_norm"]
    assert f"7D f7_norm     {f7:.3e}\n" in printed


@pytest.fixture
def no_work(monkeypatch):
    """Cooling and verdicts that fail the test if a rejected run reaches them."""
    def refuse(*args, **kwargs):
        raise AssertionError("a rejected argument reached the work")
    monkeypatch.setattr(lattice, "cool_to_sd", refuse)
    monkeypatch.setattr(chernsimons, "obstruction_verdict", refuse)


HOSTILE = {   # id: (script, arguments); {tmp} is the test's own directory
    "cooling-three-extents": ("cooling_experiment", ["--lattice", "4x4x4"]),
    "cooling-zero-extent": ("cooling_experiment", ["--lattice", "0x4x4x4"]),
    "cooling-letter-extents": ("cooling_experiment", ["--lattice", "axbxcxd"]),
    "cooling-tgrid-zero-extent": ("cooling_experiment", ["--tgrid", "0x2x2"]),
    "cooling-tgrid-two-extents": ("cooling_experiment", ["--tgrid", "2x2"]),
    "cooling-noise-nan": ("cooling_experiment", ["--noise", "nan"]),
    "cooling-noise-negative": ("cooling_experiment", ["--noise", "-0.1"]),
    "cooling-tol-zero": ("cooling_experiment", ["--tol", "0"]),
    "cooling-tol-inf": ("cooling_experiment", ["--tol", "inf"]),
    "cooling-steps-negative": ("cooling_experiment", ["--steps", "-1"]),
    "cooling-out-in-missing-dir": ("cooling_experiment", ["--out", "{tmp}/missing/c.csv"]),
    "cooling-out-is-a-dir": ("cooling_experiment", ["--out", "{tmp}"]),
    "sweep-tol-nan": ("obstruction_sweep", ["--tol", "nan"]),
    "sweep-tol-inf": ("obstruction_sweep", ["--tol", "inf"]),
    "sweep-tol-zero": ("obstruction_sweep", ["--tol", "0"]),
    "sweep-tol-negative": ("obstruction_sweep", ["--tol", "-1"]),
    "sweep-out-in-missing-dir": ("obstruction_sweep", ["--out", "{tmp}/missing/s.csv"]),
    "sweep-out-is-a-dir": ("obstruction_sweep", ["--out", "{tmp}"]),
}


@pytest.mark.parametrize("case", HOSTILE)
def test_scripts_reject_bad_arguments_before_any_work(case, tmp_path, capsys, no_work):
    script, bad = HOSTILE[case]
    out = str(tmp_path / "out.csv")
    argv = ["--lattice", "4x4x4x4", "--tgrid", "2x2x2"] if script == "cooling_experiment" else []
    argv += ["--out", out] + [a.format(tmp=tmp_path) for a in bad]
    with pytest.raises(SystemExit) as exc:
        load(script).main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(out)
