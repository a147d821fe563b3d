#!/usr/bin/env python3
"""Print the md5 of every output of a fixed list of g2lab commands.

Runs each command in process, inside OUTDIR (created, and refused if not
empty), keeps its stdout as NAME.out next to the snapshots, manifests and
CSVs it writes, and prints one ``md5 file`` line per file, sorted:

    python scripts/output_digests.py OUTDIR

Every path a command sees is relative to OUTDIR, so two checkouts run on two
directories print the same lines for the same bytes; diffing the two listings
shows which outputs a change moves.  The ``start`` flows stop before their
first step (``--tol 1``), so their snapshots are the noised start fields,
and the lift, residual, cs and obstruct lines below them compare the read
path on the same input.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from g2lab import cli

PINNED = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tests", "pinned")

# an exact 4-form with a term of each type: transverse along e1, then I-III
XI = {"dim": 7, "degree": 4, "terms": [
    {"idx": [1, 5, 6, 7], "c": "-2"}, {"idx": [1, 2, 3, 4], "c": "1/2"},
    {"idx": [1, 2, 3, 6], "c": "-5/4"}, {"idx": [2, 4, 5, 6], "c": "2/3"}]}

# name: flow arguments; the 4^4 flows of tests/pinned, their uncooled start
# fields, and the flows of the benchmark's lattice workload
FLOWS = {
    "u1-4": ["--group", "u1", "--lattice", "4x4x4x4", "--seed", "3"],
    "su2-4": ["--group", "su2", "--lattice", "4x4x4x4", "--seed", "3"],
    "u1-4-start": ["--group", "u1", "--lattice", "4x4x4x4", "--noise", "0.05",
                   "--seed", "3", "--tol", "1"],
    "su2-4-start": ["--group", "su2", "--lattice", "4x4x4x4", "--noise", "0.05",
                    "--seed", "3", "--tol", "1"],
    "su2-7": ["--group", "su2", "--lattice", "7x7x7x7", "--noise", "0.002",
              "--tol", "0.003", "--seed", "42"],
    "u1-8-s1": ["--group", "u1", "--lattice", "8x8x8x8", "--noise", "0.05", "--seed", "1"],
    "u1-8-s2": ["--group", "u1", "--lattice", "8x8x8x8", "--noise", "0.05", "--seed", "2"],
}
LIFTED = ("u1-4", "su2-4", "u1-4-start", "su2-4-start")


def commands() -> list:
    """(name, argv) of every command, in the order they run."""
    out = [("identities-exact", ["identities", "--mode", "exact"]),
           ("identities-double", ["identities", "--mode", "double"]),
           ("fibration-rational", ["fibration", "--spec", os.path.join(PINNED, "spec-rational.json")]),
           ("fibration-float", ["fibration", "--spec", os.path.join(PINNED, "spec-float.json")]),
           ("deform", ["deform", "--xi", "xi.json"]),
           ("report-1", ["report", "--seed", "1"]),
           ("report-42", ["report", "--seed", "42"])]
    out += [(f"flow-{k}", ["flow", *v, "--out", f"{k}.lat"]) for k, v in FLOWS.items()]
    for k in LIFTED:
        lift = f"{k}-lift.lat"
        out += [(f"lift-{k}", ["lift", "--in", f"{k}.lat", "--tgrid", "2x2x2", "--out", lift]),
                (f"residual-{k}", ["residual", "--in", lift]),
                (f"cs-{k}", ["cs", "--field", lift, "--seed", "3"]),
                (f"obstruct-{k}", ["obstruct", "--field", lift, "--xi", "xi.json"])]
    return out


def main(argv=None, cmds=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit("usage: output_digests.py OUTDIR")
    outdir = args[0]
    os.makedirs(outdir, exist_ok=True)
    if os.listdir(outdir):
        sys.exit(f"{outdir} is not empty")
    here = os.getcwd()
    os.chdir(outdir)
    try:
        with open("xi.json", "w") as fh:
            json.dump(XI, fh)
        for name, cmd in commands() if cmds is None else cmds:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(cmd)
            if code != 0:
                sys.exit(f"g2lab {' '.join(cmd)} exited {code}: {err.getvalue().strip()}")
            with open(name + ".out", "w") as fh:
                fh.write(out.getvalue())
        for fname in sorted(os.listdir(".")):
            with open(fname, "rb") as fh:
                print(hashlib.md5(fh.read()).hexdigest(), fname)
    finally:
        os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
