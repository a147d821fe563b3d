"""The README's experiments run end to end and write what they promise."""

import csv
import hashlib
import importlib.util
import json
import math
import os
import shlex

import pytest

from g2lab import chernsimons, cli

ROOT = os.path.dirname(os.path.dirname(__file__))
SCRIPTS = os.path.join(ROOT, "scripts")


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


def test_obstruction_sweep_reads_the_standard_context(tmp_path, monkeypatch):
    """The sweep builds no fibration of its own: every verdict gets the one
    shared ``CSContext.standard()``."""
    seen, verdict = [], chernsimons.obstruction_verdict
    monkeypatch.setattr(chernsimons, "obstruction_verdict",
                        lambda ctx, *a, **k: seen.append(ctx) or verdict(ctx, *a, **k))
    assert load("obstruction_sweep").main(["--out", str(tmp_path / "sweep.csv")]) == 0
    assert len(seen) == 3 * 6
    assert all(ctx is chernsimons.CSContext.standard() for ctx in seen)


def test_output_digests_hash_every_output(tmp_path, capsys):
    """Each command's stdout and every file it writes gets one ``md5 name``
    line, sorted; paths are relative to OUTDIR, so stdout does not name it."""
    digests, outdir = load("output_digests"), tmp_path / "out"
    cmds = [("flow", ["flow", "--group", "u1", "--lattice", "2x2x2x2", "--tol", "1",
                      "--out", "f.lat"]),
            ("deform", ["deform", "--xi", "xi.json"])]
    assert digests.main([str(outdir)], cmds) == 0
    names = sorted(os.listdir(outdir))
    assert names == ["deform.out", "f.lat", "f.lat.csv", "f.lat.json", "flow.out", "xi.json"]
    assert capsys.readouterr().out.splitlines() == [
        f"{hashlib.md5((outdir / n).read_bytes()).hexdigest()} {n}" for n in names]
    assert json.loads((outdir / "flow.out").read_text())["out"] == "f.lat"
    with pytest.raises(SystemExit, match="not empty"):
        digests.main([str(outdir)], cmds)


def readme_recipe():
    """The argv of each ``g2lab`` line in the README's Experiments block."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("## Experiments", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("g2lab ")]


def test_readme_cooling_recipe(tmp_path, monkeypatch, capsys):
    """The ``g2lab`` lines of the README's Experiments block run as written:
    ``flow`` writes its descent history, ``lift`` the 7D field, and
    ``residual`` reads a finite f7_norm from it."""
    recipe = readme_recipe()
    monkeypatch.chdir(tmp_path)
    assert [argv[0] for argv in recipe] == ["flow", "lift", "residual"]
    docs = []
    for argv in recipe:
        assert cli.run(argv) == 0, capsys.readouterr().err
        docs.append(json.loads(capsys.readouterr().out))
    flow, _, residual = docs
    with open(flow["history_csv"]) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "step,asd_fraction,charge"
    assert len(lines) == flow["steps"] + 2
    assert math.isfinite(residual["f7_norm"])


@pytest.fixture
def no_work(monkeypatch):
    """Cooling and verdicts that fail the test if a rejected run reaches them."""
    def refuse(*args, **kwargs):
        raise AssertionError("a rejected argument reached the work")
    monkeypatch.setattr(cli, "cool_to_sd", refuse)
    monkeypatch.setattr(chernsimons, "obstruction_verdict", refuse)


HOSTILE = {   # id: arguments made bad; {tmp} is the test's own directory
    "sweep-tol-nan": ["--tol", "nan"],
    "sweep-tol-inf": ["--tol", "inf"],
    "sweep-tol-zero": ["--tol", "0"],
    "sweep-tol-negative": ["--tol", "-1"],
    "sweep-out-in-missing-dir": ["--out", "{tmp}/missing/s.csv"],
    "sweep-out-is-a-dir": ["--out", "{tmp}"],
    # the README's cooling line, ``g2lab flow``, with one argument made bad
    "cooling-noise-nan": ["--noise", "nan"],
    "cooling-noise-negative": ["--noise", "-0.1"],
    "cooling-tol-zero": ["--tol", "0"],
    "cooling-steps-negative": ["--steps", "-1"],
    "cooling-out-in-missing-dir": ["--out", "{tmp}/missing/c.lat"],
}


@pytest.mark.parametrize("case", HOSTILE)
def test_scripts_reject_bad_arguments_before_any_work(case, tmp_path, capsys, no_work):
    """The sweep exits 2 with argparse's reason on stderr; the README's
    ``g2lab flow`` line exits 1 with a JSON validation error. Neither writes
    a file."""
    argv = ["--out", str(tmp_path / "out.csv")] + [a.format(tmp=tmp_path) for a in HOSTILE[case]]
    if case.startswith("cooling-"):
        assert cli.run(readme_recipe()[0] + argv) == cli.EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["code"] == "validation"
    else:
        with pytest.raises(SystemExit) as exc:
            load("obstruction_sweep").main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
