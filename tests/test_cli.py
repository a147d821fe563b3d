"""End-to-end CLI checks: schemas, exit codes, and the snapshot pipeline."""

import contextlib
import io
import itertools
import json
import os
import struct
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from g2lab import cli
from g2lab.gauge.lattice import (
    cool_to_sd, identity_field, lift_lattice_7d, read_snapshot, write_snapshot,
)

SCHEMA_DIR = os.path.join(os.path.dirname(cli.__file__), "schemas")


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name + ".json")) as fh:
        return json.load(fh)


def _no_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def strict_json(text):
    return json.loads(text, parse_constant=_no_constant)


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    out = strict_json(captured.out) if captured.out.startswith("{") else None
    err = None
    if captured.err:
        # argparse may print usage text before the error JSON line
        err = strict_json(captured.err.strip().splitlines()[-1])
    return code, out, err


def write_xi(tmp_path, name="xi.json"):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump({"dim": 7, "degree": 4,
                   "terms": [{"idx": [1, 5, 6, 7], "c": -2.0}]}, fh)
    return path


def test_identities_exact_all_pass(capsys):
    code, out, _ = run_cli(["identities"], capsys)
    assert code == 0
    jsonschema.validate(out, load_schema("identities"))
    assert out["all_pass"]
    assert all(it["residual"] == 0.0 for it in out["identities"])


def test_identities_double_mode(capsys):
    code, out, _ = run_cli(["identities", "--mode", "double"], capsys)
    assert code == 0
    assert out["all_pass"]


def test_fibration_default_spec(capsys):
    code, out, _ = run_cli(["fibration"], capsys)
    assert code == 0
    jsonschema.validate(out, load_schema("fibration"))
    assert out["diagnosis"] == "product"
    assert out["orthonormality_residual"] == 0.0


def test_fibration_missing_spec_file(capsys):
    code, out, err = run_cli(["fibration", "--spec", "/no/such.json"], capsys)
    assert code == 1 and out is None
    jsonschema.validate(err, load_schema("error"))
    assert err["error"]["code"] == "validation"


def test_deform_splits_transverse_form(tmp_path, capsys):
    xi = write_xi(tmp_path)
    code, out, _ = run_cli(["deform", "--xi", xi], capsys)
    assert code == 0
    jsonschema.validate(out, load_schema("deform"))
    assert out["split"]["c_IV"] == [-2.0, 0.0, 0.0, 0.0]


# A xi with terms in all five blocks and one exact "p/q" coefficient, and the
# deform stdout recorded for it from the form-algebra split.
PINNED_XI = {"dim": 7, "degree": 4, "terms": [
    {"idx": [1, 2, 3, 4], "c": 0.5}, {"idx": [1, 2, 3, 6], "c": -1.25},
    {"idx": [1, 2, 5, 6], "c": "2/3"}, {"idx": [3, 4, 5, 6], "c": 0.75},
    {"idx": [2, 5, 6, 7], "c": -3.0}]}
PINNED_DEFORM = (
    '{"command":"deform","split":{"block_norms_sq":{"I":0.25,"II":1.5625,'
    '"III_mp":1.0034722222222217,"III_pp":0.0034722222222222246,"IV":9.0},'
    '"c_I":0.5,"c_II":[[0.0,0.0,0.0,0.0],[0.0,0.0,0.0,1.25],'
    '[0.0,0.0,0.0,0.0]],"c_III_mp":[[0.0,0.0,0.0],[0.0,0.0,0.0],'
    '[1.001734606680942,0.0,0.0]],"c_III_pp":[[0.0,0.0,0.0],[0.0,0.0,0.0],'
    '[-0.05892556509887898,0.0,0.0]],"c_IV":[0.0,-3.0,0.0,0.0]}}\n')


def test_deform_stdout_bytes_are_pinned(tmp_path, capsys):
    path = str(tmp_path / "pinned.json")
    with open(path, "w") as fh:
        json.dump(PINNED_XI, fh)
    assert cli.run(["deform", "--xi", path]) == 0
    assert capsys.readouterr().out == PINNED_DEFORM


PINNED_DIR = os.path.join(os.path.dirname(__file__), "pinned")


def _pinned(name):
    with open(os.path.join(PINNED_DIR, name)) as fh:
        return fh.read()


# stdout of the exact and double pipelines, written by an earlier version of
# g2lab: exact coefficients must print as the same reduced fractions, and the
# float path must keep every digit
@pytest.mark.parametrize("argv,pinned", [
    (["identities", "--mode", "exact"], "identities-exact.out"),
    (["identities", "--mode", "double"], "identities-double.out"),
    (["fibration", "--spec", "spec-rational.json"], "fibration-rational.out"),
    (["fibration", "--spec", "spec-float.json"], "fibration-float.out"),
])
def test_exact_and_double_stdout_bytes_are_pinned(argv, pinned, capsys):
    argv = [os.path.join(PINNED_DIR, a) if a.endswith(".json") else a for a in argv]
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == _pinned(pinned)


# stdout and history CSV of 4^4 flows, and the residual stdout of their 2^3
# lifts, recorded once; the test below keeps them independent of the BLAS
# thread count
def _flow(group, capsys):
    argv = ["flow", "--group", group, "--lattice", "4x4x4x4", "--seed", "3"]
    assert cli.run(argv + ["--out", f"flow-{group}.lat"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("group", ["u1", "su2"])
def test_flow_stdout_and_csv_bytes_are_pinned(group, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _flow(group, capsys) == _pinned(f"flow-{group}.out")
    with open(f"flow-{group}.lat.csv") as fh:
        assert fh.read() == _pinned(f"flow-{group}.csv")


@pytest.mark.parametrize("group", ["u1", "su2"])
def test_residual_stdout_bytes_of_the_flow_lifts_are_pinned(group, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _flow(group, capsys)
    lift = ["lift", "--in", f"flow-{group}.lat", "--tgrid", "2x2x2", "--out", "lift.lat"]
    assert cli.run(lift) == 0
    capsys.readouterr()
    assert cli.run(["residual", "--in", "lift.lat"]) == 0
    assert capsys.readouterr().out == _pinned(f"residual-{group}.out")


_RUN_ALL = """import json, sys
from g2lab import cli
for argv in json.loads(sys.argv[1]):
    assert cli.run(argv) == 0, argv
"""


def test_lattice_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """OpenBLAS splits some sums by its thread count, np.vdot's among them,
    and tensordot and einsum may call it: flows, and the residual, cs and
    obstruct of both groups' lifts, in fresh processes under 1 and 2 threads
    write the same stdout and the same files, byte for byte."""
    flow = ["flow", "--seed", "3", "--lattice"]
    argvs = [flow + ["6x6x6x6", "--group", "su2", "--out", "six.lat"]]
    for group in ("su2", "u1"):
        four, lift = f"four-{group}.lat", f"lift-{group}.lat"
        argvs += [flow + ["4x4x4x4", "--group", group, "--out", four],
                  ["lift", "--in", four, "--tgrid", "2x2x2", "--out", lift],
                  ["residual", "--in", lift], ["cs", "--field", lift],
                  ["obstruct", "--field", lift, "--xi", "xi.json"]]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        write_xi(cwd)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _RUN_ALL, json.dumps(argvs)], cwd=cwd,
                             env=env, capture_output=True, check=True)
        outputs.append((run.stdout.decode(), {p.name: p.read_bytes() for p in cwd.iterdir()}))
    (out1, files1), (out2, files2) = outputs
    assert out1 == out2
    assert sorted(files1) == sorted(files2) == [
        "four-su2.lat", "four-su2.lat.csv", "four-su2.lat.json",
        "four-u1.lat", "four-u1.lat.csv", "four-u1.lat.json",
        "lift-su2.lat", "lift-su2.lat.json", "lift-u1.lat", "lift-u1.lat.json",
        "six.lat", "six.lat.csv", "six.lat.json", "xi.json"]
    assert [json.loads(line)["command"] for line in out1.splitlines()] == [
        argv[0] for argv in argvs]
    assert [name for name in sorted(files1) if files1[name] != files2[name]] == []


def test_deform_rejects_wrong_degree(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"dim": 7, "degree": 3,
                   "terms": [{"idx": [1, 2, 3], "c": 1.0}]}, fh)
    code, _, err = run_cli(["deform", "--xi", path], capsys)
    assert code == 1
    assert err["error"]["code"] == "validation"


def test_bad_subcommand_is_validation_error(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 1
    jsonschema.validate(err, load_schema("error"))


def test_bad_lattice_string(tmp_path, capsys):
    code, _, err = run_cli(["flow", "--lattice", "6x6", "--out",
                            str(tmp_path / "f.lat")], capsys)
    assert code == 1
    assert err["error"]["code"] == "validation"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """flow -> lift snapshots shared by the downstream subcommand tests."""
    root = tmp_path_factory.mktemp("pipeline")
    four = str(root / "cooled.lat")
    seven = str(root / "lifted.lat")
    code = cli.run(["flow", "--lattice", "4x4x4x4", "--group", "u1",
                    "--noise", "0.02", "--out", four])
    assert code == 0
    code = cli.run(["lift", "--in", four, "--tgrid", "3x3x3",
                    "--out", seven])
    assert code == 0
    return {"root": root, "four": four, "seven": seven}


def test_flow_divergence_exits_2_and_keeps_the_history(tmp_path, rising_energies, capsys):
    out = str(tmp_path / "diverged.lat")
    code, doc, err = run_cli(FLOW + ["--noise", "0.05", "--out", out], capsys)
    assert code == 2 and doc is None and not os.path.exists(out)
    jsonschema.validate(err, load_schema("error"))
    assert err["error"]["code"] == "numerical"
    assert "no acceptable step" in err["error"]["message"]
    csv = open(out + ".csv").read().splitlines()
    assert csv[0] == "step,asd_fraction,charge" and len(csv) == 2
    assert csv[1].startswith("0,")


def test_overflowing_su2_noise_exits_2_and_writes_nothing(tmp_path, capsys):
    # exp of su2 noise squares its coefficients, which overflows above ~1e154;
    # u1 noise overflows when the draws are scaled by 1e308
    seven = str(tmp_path / "su2.lat")
    write_snapshot(lift_lattice_7d(identity_field((2,) * 4, "su2"), (2, 2, 2)), seven)
    before = sorted(os.listdir(tmp_path))
    out = str(tmp_path / "c.lat")
    for argv in (["flow", "--lattice", "3x3x3x3", "--group", "su2", "--noise", "1e300",
                  "--out", out],
                 ["cs", "--field", seven, "--probe-amplitude", "1e300"],
                 ["flow", "--lattice", "3x3x3x3", "--group", "u1", "--noise", "1e308",
                  "--out", out]):
        code, doc, err = run_cli(argv, capsys)
        assert code == 2 and doc is None
        jsonschema.validate(err, load_schema("error"))
        assert err["error"]["code"] == "numerical"
        assert "non-finite links" in err["error"]["message"]
    assert sorted(os.listdir(tmp_path)) == before


def test_flow_outputs(pipeline, capsys):
    code, out, _ = run_cli(["flow", "--lattice", "4x4x4x4", "--group", "u1",
                            "--noise", "0.02",
                            "--out", str(pipeline["root"] / "again.lat")],
                           capsys)
    assert code == 0
    jsonschema.validate(out, load_schema("flow"))
    assert out["converged"]
    assert out["final_asd_fraction"] < 1e-3
    csv = open(str(pipeline["root"] / "again.lat.csv")).read().splitlines()
    assert csv[0] == "step,asd_fraction,charge"
    assert len(csv) == out["steps"] + 2  # header + initial row + steps


def test_lift_and_residual(pipeline, capsys):
    code, out, _ = run_cli(["residual", "--in", pipeline["seven"]], capsys)
    assert code == 0
    jsonschema.validate(out, load_schema("residual"))
    assert out["dims"] == [4, 4, 4, 4, 3, 3, 3]
    assert out["f7_norm"] >= 0


def test_lift_schema(pipeline, capsys):
    code, out, _ = run_cli(["lift", "--in", pipeline["four"],
                            "--tgrid", "3x3x3",
                            "--out", str(pipeline["root"] / "l2.lat")],
                           capsys)
    assert code == 0
    jsonschema.validate(out, load_schema("lift"))


def test_residual_rejects_4d_snapshot(pipeline, capsys):
    code, _, err = run_cli(["residual", "--in", pipeline["four"]], capsys)
    assert code == 1
    assert err["error"]["code"] == "validation"


def _header(ndim, dims, code, spacing=0.25):
    return (b"G2LAT001" + struct.pack("<II", 1, ndim)
            + struct.pack(f"<{ndim}I", *dims) + struct.pack("<Id", code, spacing))


BAD_SPACINGS = {"nan-spacing": float("nan"), "inf-spacing": float("inf"),
                "zero-spacing": 0.0, "negative-spacing": -3.0}


@pytest.mark.parametrize("case", ["unknown-group", "huge-header",
                                  "short-file", *BAD_SPACINGS])
def test_residual_rejects_bad_snapshot_header(pipeline, case, capsys):
    with open(pipeline["seven"], "rb") as fh:
        good = fh.read()
    dims = (4, 4, 4, 4, 3, 3, 3)
    header = len(_header(7, dims, 1))
    if case == "unknown-group":
        data = _header(7, dims, 9) + good[header:]
    elif case == "huge-header":
        data = _header(7, (100000,) * 7, 1) + good[header:]
    elif case in BAD_SPACINGS:
        data = _header(7, dims, 1, BAD_SPACINGS[case]) + good[header:]
    else:
        data = good[:-16]
    path = str(pipeline["root"] / f"{case}.lat")
    with open(path, "wb") as fh:
        fh.write(data)
    code, out, err = run_cli(["residual", "--in", path], capsys)
    assert code == 1 and out is None
    jsonschema.validate(err, load_schema("error"))
    assert err["error"]["code"] == "validation"


# a well-formed 2^4 u1 snapshot with all-zero links
_SMALL = _header(4, (2, 2, 2, 2), 1) + bytes(16 * 4 * 2 ** 4)


def _any_header(ndim):
    return st.builds(
        lambda version, dims, code, spacing, body: (
            b"G2LAT001" + struct.pack("<II", version, ndim)
            + struct.pack(f"<{ndim}I", *dims) + struct.pack("<Id", code, spacing) + body),
        st.integers(0, 2), st.lists(st.integers(0, 2 ** 32 - 1), min_size=ndim, max_size=ndim),
        st.integers(0, 3), st.floats(), st.binary(max_size=64))


SNAPSHOT_BYTES = st.one_of(
    st.integers(0, len(_SMALL) - 1).map(lambda n: _SMALL[:n]),       # truncated
    st.binary(min_size=1, max_size=64).map(lambda extra: _SMALL + extra),  # oversized
    st.integers(0, 9).flatmap(_any_header),                          # any header
    st.binary(max_size=128),                                         # garbage
    st.binary(max_size=128).map(lambda tail: b"G2LAT001" + tail),
)


@given(data=SNAPSHOT_BYTES)
@example(data=_SMALL)
def test_snapshot_fuzz_loads_or_is_a_validation_error(tmp_path_factory, data):
    path = str(tmp_path_factory.mktemp("fuzz") / "f.lat")
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        U = read_snapshot(path)
    except ValueError:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["residual", "--in", path])
        assert code == 1 and out.getvalue() == ""
        doc = strict_json(err.getvalue())
        jsonschema.validate(doc, load_schema("error"))
        assert doc["error"]["code"] == "validation"
    else:
        assert U.links.shape == (U.rank, U.ndim, *U.dims)


# JSON values a form or spec file may hold by mistake, and files built from
# them: a valid document with at most one value made hostile, or any JSON
# value, or text that is not JSON
LEAVES = st.one_of(
    st.integers(-2, 8), st.integers(), st.floats(), st.booleans(), st.none(),
    st.sampled_from(["1", "-2/3", "1/0", "1e400", "0.5", "x", ""]))
JSON_VALUES = st.recursive(
    LEAVES, lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3), max_leaves=8)
FORM_TERMS = st.lists(st.fixed_dictionaries({
    "c": st.one_of(st.floats(-4, 4), st.sampled_from(["1", "-2/3"])),
    "idx": st.lists(st.integers(1, 7), min_size=4, max_size=4,
                    unique=True).map(sorted)}), min_size=1, max_size=4)


@st.composite
def forms(draw):
    form = {"dim": 7, "degree": 4, "terms": draw(FORM_TERMS)}
    term = form["terms"][0]
    spot = draw(st.sampled_from(["none", "dim", "degree", "terms", "c", "idx",
                                 "idx-entry"]))
    bad = draw(JSON_VALUES)
    if spot in form:
        form[spot] = bad
    elif spot in term:
        term[spot] = bad
    elif spot == "idx-entry":
        term["idx"][draw(st.integers(0, 3))] = bad
    return form


@st.composite
def specs(draw):
    alpha = st.lists(st.lists(st.sampled_from(["0", "1/2", "-3"]),
                              min_size=4, max_size=4), min_size=3, max_size=3)
    spec = {"eta": [["1" if i == j else "0" for j in range(4)] for i in range(4)],
            "l_basis": [["1" if i == j else "0" for j in range(3)] for i in range(3)],
            "alpha": draw(alpha)}
    spot = draw(st.sampled_from(["none", "entry", *spec]))
    bad = draw(JSON_VALUES)
    if spot in spec:
        spec[spot] = bad
    elif spot == "entry":
        rows = spec[draw(st.sampled_from(sorted(spec)))]
        rows[draw(st.integers(0, len(rows) - 1))][
            draw(st.integers(0, len(rows[0]) - 1))] = bad
    return spec


def _file_text(documents):
    return st.one_of(documents.map(json.dumps), JSON_VALUES.map(json.dumps),
                     st.text(max_size=40))


def _write(tmp_path_factory, text):
    path = str(tmp_path_factory.mktemp("fuzz") / "input.json")
    with open(path, "w") as fh:
        fh.write(text)
    return path


@given(text=_file_text(forms()))
@example(text=json.dumps(PINNED_XI))
def test_form_fuzz_loads_or_is_a_validation_error(tmp_path_factory, text):
    path = _write(tmp_path_factory, text)
    try:
        cli._load_xi(path)
    except cli.ValidationFailure:
        loaded = False
    else:
        loaded = True
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["deform", "--xi", path])
    if loaded:
        assert code == 0 and err.getvalue() == ""
        jsonschema.validate(strict_json(out.getvalue()), load_schema("deform"))
    else:
        assert code == 1 and out.getvalue() == ""
        doc = strict_json(err.getvalue())
        jsonschema.validate(doc, load_schema("error"))
        assert doc["error"]["code"] == "validation"


@given(text=_file_text(specs()))
@example(text=json.dumps({"eta": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                          "l_basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                          "alpha": [["1/2", 0, 0, 0], [0] * 4, [0] * 4]}))
def test_spec_fuzz_loads_or_is_a_validation_error(tmp_path_factory, text):
    path = _write(tmp_path_factory, text)
    try:
        spec = cli._load_spec(path)
    except cli.ValidationFailure as exc:
        assert str(exc)
    else:
        assert len(spec.alpha) == 3 and spec.eta.dim == 4


def test_cs_probe_values(pipeline, capsys):
    code, out, _ = run_cli(["cs", "--field", pipeline["seven"],
                            "--probe-offsets", "2"], capsys)
    assert code == 0
    jsonschema.validate(out, load_schema("cs"))
    assert len(out["rho_values"]) == 3
    assert out["spread"] >= 0


def test_obstruct_verdict(pipeline, tmp_path, capsys):
    xi = write_xi(tmp_path)
    code, out, _ = run_cli(["obstruct", "--field", pipeline["seven"],
                            "--xi", xi], capsys)
    assert code == 0
    jsonschema.validate(out, load_schema("obstruct"))
    assert out["report"]["verdict"] in ("instanton-survives",
                                        "instanton-obstructed")


def test_report_schema_and_determinism(tmp_path, capsys):
    a, b = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    code, _, _ = run_cli(["report", "--seed", "7", "--out", a], capsys)
    assert code == 0
    code, _, _ = run_cli(["report", "--seed", "7", "--out", b], capsys)
    assert code == 0
    with open(a, "rb") as f1, open(b, "rb") as f2:
        assert f1.read() == f2.read()
    jsonschema.validate(json.load(open(a)), load_schema("report"))


def test_obstruction_report_schemas_stay_equal():
    """Two copies of one definition: each schema file is validated on its
    own, with no resolver for a cross-file $ref."""
    assert load_schema("obstruct")["properties"]["report"] \
        == load_schema("report")["definitions"]["obstruction_report"]


def test_report_stdout_json(capsys):
    code, out, _ = run_cli(["report", "--seed", "3"], capsys)
    assert code == 0
    jsonschema.validate(out, load_schema("report"))
    assert out["identities"]["all_pass"]
    # both obstruction blocks are checked through the one shared definition
    out["obstruction"]["conformal"]["verdict"] = "unknown"
    with pytest.raises(jsonschema.ValidationError, match="'unknown' is not one of"):
        jsonschema.validate(out, load_schema("report"))


def test_report_flow_block_is_the_last_history_row(capsys):
    code, out, _ = run_cli(["report", "--seed", "42"], capsys)
    assert code == 0
    U = cli._flow_start((4, 4, 4, 4), "u1", "sd-flux", 0.02, 42)
    flow = cool_to_sd(U, max_steps=2000, tol=1e-3)
    step, asd_fraction, charge = flow["history"][-1]
    assert out["flow"]["steps"] == step == flow["steps"]
    assert out["flow"]["final_asd_fraction"] == asd_fraction
    assert out["flow"]["final_charge"] == charge


XI_TEXT = '{"dim": 7, "degree": 4, "terms": [{"idx": [1, 5, 6, 7], "c": %s}]}'
SPEC_TEXT = ('{"eta": [["1", "0", "0", "0"], ["0", "1", "0", "0"], '
             '["0", "0", "1", "0"], ["0", "0", "0", "1"]], '
             '"l_basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], '
             '"alpha": [[%s, "0", "0", "0"], ["0", "0", "0", "0"], '
             '["0", "0", "0", "0"]]}')
BAD_INDEX_XI = '{"dim": 7, "degree": 4, "terms": [{"c": "1", "idx": [1.5, 2, 3, 4]}]}'
SHAPED_XI = '{"dim": %s, "degree": %s, "terms": [{"c": -2.0, "idx": [1, 5, 6, 7]}]}'
FLOW = ["flow", "--lattice", "4x4x4x4", "--group", "u1"]

# each builds the argv of one hostile input from a helper `h`
HOSTILE = {
    "form-zero-denominator": lambda h: ["deform", "--xi", h.text(XI_TEXT % '"1/0"')],
    "form-coefficient-NaN": lambda h: ["deform", "--xi", h.text(XI_TEXT % "NaN")],
    "form-coefficient-Infinity": lambda h: ["deform", "--xi", h.text(XI_TEXT % "Infinity")],
    "form-coefficient-1e400": lambda h: ["deform", "--xi", h.text(XI_TEXT % "1e400")],
    "form-coefficient-boolean": lambda h: ["deform", "--xi", h.text(XI_TEXT % "true")],
    "form-coefficient-string-1e400": lambda h: ["deform", "--xi", h.text(XI_TEXT % '"1e400"')],
    "form-index-not-an-integer": lambda h: ["deform", "--xi", h.text(BAD_INDEX_XI)],
    "form-dim-float": lambda h: ["deform", "--xi", h.text(SHAPED_XI % ("7.0", "4"))],
    "form-degree-float": lambda h: ["deform", "--xi", h.text(SHAPED_XI % ("7", "4.0"))],
    "form-coefficient-1e200": lambda h: ["deform", "--xi", h.text(XI_TEXT % "1e200")],
    "form-is-a-directory": lambda h: ["deform", "--xi", str(h.root)],
    "form-nested-too-deep": lambda h: ["deform", "--xi", h.text("[" * 10**5 + "]" * 10**5)],
    "spec-zero-denominator": lambda h: ["fibration", "--spec", h.text(SPEC_TEXT % '"1/0"')],
    "spec-alpha-NaN": lambda h: ["fibration", "--spec", h.text(SPEC_TEXT % "NaN")],
    "spec-coefficient-boolean": lambda h: ["fibration", "--spec", h.text(SPEC_TEXT % "false")],
    "spec-coefficient-string-1e400": lambda h: ["fibration", "--spec", h.text(SPEC_TEXT % '"1e400"')],
    "flow-noise-nan": lambda h: FLOW + ["--noise", "nan", "--out", h.out],
    "flow-noise-inf": lambda h: FLOW + ["--noise", "inf", "--out", h.out],
    "flow-noise-negative": lambda h: FLOW + ["--noise", "-0.1", "--out", h.out],
    "flow-tol-zero": lambda h: FLOW + ["--tol", "0", "--out", h.out],
    "flow-tol-inf": lambda h: FLOW + ["--tol", "inf", "--out", h.out],
    "flow-steps-negative": lambda h: FLOW + ["--steps", "-3", "--out", h.out],
    "flow-lattice-superscript": lambda h: ["flow", "--lattice", "¹x4x4x4", "--out", h.out],
    "flow-lattice-three-extents": lambda h: ["flow", "--lattice", "4x4x4", "--out", h.out],
    "flow-lattice-zero-extent": lambda h: ["flow", "--lattice", "0x4x4x4", "--out", h.out],
    "flow-lattice-letters": lambda h: ["flow", "--lattice", "axbxcxd", "--out", h.out],
    "lift-tgrid-superscript": lambda h: ["lift", "--in", h.four, "--tgrid", "²x2x2",
                                         "--out", h.out],
    "lift-tgrid-zero-extent": lambda h: ["lift", "--in", h.four, "--tgrid", "0x2x2",
                                         "--out", h.out],
    "lift-tgrid-two-extents": lambda h: ["lift", "--in", h.four, "--tgrid", "2x2",
                                         "--out", h.out],
    "cs-probe-amplitude-nan": lambda h: ["cs", "--field", h.seven, "--probe-amplitude", "nan"],
    "cs-probe-offsets-negative": lambda h: ["cs", "--field", h.seven, "--probe-offsets", "-1"],
    "residual-nan-link": lambda h: ["residual", "--in", h.nan_link()],
    "residual-su2-link-off-form": lambda h: ["residual", "--in", h.su2_off_form()],
    "cs-nan-link": lambda h: ["cs", "--field", h.nan_link()],
    "obstruct-nan-link": lambda h: ["obstruct", "--field", h.nan_link(),
                                    "--xi", h.text(XI_TEXT % "-2.0")],
    "obstruct-form-index-not-an-integer": lambda h: [
        "obstruct", "--field", h.seven, "--xi", h.text(BAD_INDEX_XI)],
    "obstruct-form-coefficient-string-1e400": lambda h: [
        "obstruct", "--field", h.seven, "--xi", h.text(XI_TEXT % '"1e400"')],
    "obstruct-form-coefficient-1e200": lambda h: [
        "obstruct", "--field", h.seven, "--xi", h.text(XI_TEXT % "-1e200")],
    "lift-nan-spacing": lambda h: ["lift", "--in", h.nan_spacing(), "--out", h.out],
    "residual-in-a-directory": lambda h: ["residual", "--in", str(h.root)],
    "cs-field-a-directory": lambda h: ["cs", "--field", str(h.root)],
    "flow-out-in-a-missing-directory": lambda h: ["flow", "--out", h.missing],
    "flow-out-a-directory": lambda h: ["flow", "--out", str(h.root)],
    "lift-out-in-a-missing-directory": lambda h: ["lift", "--in", h.four, "--out", h.missing],
    "report-out-in-a-missing-directory": lambda h: ["report", "--out", h.missing],
    "report-out-a-directory": lambda h: ["report", "--out", str(h.root)],
}


class HostileFiles:
    def __init__(self, pipeline, tmp_path):
        self.root, self.four, self.seven = tmp_path, pipeline["four"], pipeline["seven"]
        self.out = str(tmp_path / "never.lat")
        self.missing = str(tmp_path / "no-such-directory" / "out.lat")

    def text(self, text, name="input.json"):
        path = self.root / name
        path.write_text(text)
        return str(path)

    def nan_spacing(self):
        with open(self.four, "rb") as fh:
            data = fh.read()
        header = _header(4, (4, 4, 4, 4), 1, float("nan"))
        path = self.root / "nan-spacing.lat"
        path.write_bytes(header + data[len(header):])
        return str(path)

    def su2_off_form(self):
        """A 2^7 su2 file of all-zero links, but one link's u11 is 1, not conj u00."""
        body = bytes(16 * 4 * 7 * 2 ** 7 - 16) + struct.pack("<dd", 1.0, 0.0)
        path = self.root / "off-form.lat"
        path.write_bytes(_header(7, (2,) * 7, 2) + body)
        return str(path)

    def nan_link(self):
        with open(self.seven, "rb") as fh:
            data = fh.read()[:-16] + struct.pack("<dd", float("nan"), 0.0)
        path = self.root / "nan-link.lat"
        path.write_bytes(data)
        return str(path)


# an --out that cannot be written is found before any work: in those cases
# the work functions the commands call raise, so running one first fails
WORK_BEFORE_OUTPUT = {"flow": ("cool_to_sd",), "lift": ("lift_lattice_7d",),
                      "report": ("identity_suite", "cool_to_sd")}


def _work_before_the_output_check(*args, **kwargs):
    raise AssertionError("work ran before the output path was checked")


def _read_before_the_tgrid_check(*args, **kwargs):
    raise AssertionError("the input snapshot was read before --tgrid was checked")


# cases whose whole message is pinned
HOSTILE_MESSAGES = {
    "lift-tgrid-two-extents": "expected 3 lattice extents >= 2 like 6x6x6, got '2x2'",
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_is_a_validation_error(pipeline, tmp_path, case, capsys, monkeypatch):
    files = HostileFiles(pipeline, tmp_path)
    if "-out-" in case:
        for name in WORK_BEFORE_OUTPUT[case.split("-")[0]]:
            monkeypatch.setattr(cli, name, _work_before_the_output_check)
    if case.startswith("lift-tgrid-"):
        # a malformed grid is refused before any link of the input is read
        monkeypatch.setattr(cli, "read_snapshot", _read_before_the_tgrid_check)
    code, out, err = run_cli(HOSTILE[case](files), capsys)
    assert code == 1 and out is None and not os.path.exists(files.out)
    jsonschema.validate(err, load_schema("error"))
    assert err["error"]["code"] == "validation"
    if case in HOSTILE_MESSAGES:
        assert err["error"]["message"] == HOSTILE_MESSAGES[case]


def test_form_coefficients_are_bounded_by_1e150(tmp_path, capsys):
    path = tmp_path / "xi.json"
    path.write_text(XI_TEXT % "1e200")
    code, _, err = run_cli(["deform", "--xi", str(path)], capsys)
    assert code == 1 and err["error"]["message"] == (
        "invalid form JSON: coefficient 1e+200 of [1, 5, 6, 7] exceeds 1e150 in size")
    # at the bound, every one of the 35 coefficients still gives finite block norms
    terms = [{"idx": list(idx), "c": (-1) ** k * 1e150}
             for k, idx in enumerate(itertools.combinations(range(1, 8), 4))]
    path.write_text(json.dumps({"dim": 7, "degree": 4, "terms": terms}))
    code, out, _ = run_cli(["deform", "--xi", str(path)], capsys)
    norms = out["split"]["block_norms_sq"].values()
    assert code == 0 and min(norms) > 1e299 and max(norms) < float("inf")


@pytest.mark.parametrize("argv, reason", [
    (FLOW + ["--noise", "nan", "--out", "never.lat"],
     "argument --noise: expected a finite number >= 0, got 'nan'"),
    (["flow", "--lattice", "4x4x4x4"], "the following arguments are required: --out"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["flow", "--group", "so3", "--out", "never.lat"], "argument --group: invalid choice"),
])
def test_bad_arguments_name_the_reason(argv, reason, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out is None
    jsonschema.validate(err, load_schema("error"))
    assert err["error"]["code"] == "validation"
    assert err["error"]["message"].startswith(reason)


def test_help_exits_zero(capsys):
    assert cli.run(["flow", "--help"]) == 0
    assert "--noise" in capsys.readouterr().out


def test_the_parser_is_built_once_per_process(pipeline, monkeypatch, capsys):
    """``run`` builds its parser on its first call only, and a parse leaves
    nothing behind in it: a default ``--seed`` after ``--seed 5`` prints what
    a fresh process prints."""
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cs = ["cs", "--field", pipeline["seven"], "--probe-offsets", "1"]
    assert cli.run(cs + ["--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    assert cli.run(cs) == 0
    again = capsys.readouterr().out
    assert cli.run(["residual", "--in", pipeline["seven"]]) == 0
    assert built == [1]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    fresh = subprocess.run([sys.executable, "-m", "g2lab.cli", *cs], env=env,
                           capture_output=True, text=True, check=True)
    assert again == fresh.stdout
