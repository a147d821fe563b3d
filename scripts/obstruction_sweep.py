#!/usr/bin/env python3
"""Sweep instanton charge against perturbation type and print the verdicts.

For each constant-flux charge q and each 4-form perturbation class, lift
the field to 7D, evaluate the perturbed 1-form on the translation tangent,
and report the obstruction verdict.  Writes a CSV and prints a table:

    python scripts/obstruction_sweep.py --out sweep.csv
"""

import argparse
import sys

from g2lab.chernsimons import CSContext, obstruction_verdict
from g2lab.cli import ValidationFailure, _bounded, _check_outputs
from g2lab.exterior import ConstForm, wedge
from g2lab.gauge.fourier import constant_curvature_u1, lift_to_7d

FLUXES = {
    0: [[0, 0, 0, 0]] * 4,
    -1: [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    -2: [[0, 1, 1, 0], [-1, 0, 0, -1], [-1, 0, 0, 1], [0, 1, -1, 0]],
}

XI_IV = wedge(ConstForm.basis(7, (1,), -2.0), ConstForm.basis(7, (5, 6, 7)))
XIS = {
    "conformal": ConstForm.basis(7, (1, 2, 3, 4), 1.0),
    "one-fiber-leg": ConstForm.basis(7, (1, 2, 3, 6), 1.0),
    "two-fiber-legs": ConstForm.basis(7, (1, 2, 6, 7), 1.0),
    "transverse": XI_IV,
    "mixed": XI_IV + ConstForm.basis(7, (1, 2, 3, 4), 3.0),
    "zero": ConstForm.zero(7, 4),
}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--tol", type=_bounded(float, 0, strict=True), default=1e-9)
    a = p.parse_args(argv)
    try:
        _check_outputs(a.out)
    except ValidationFailure as exc:
        p.error(str(exc))
    ctx = CSContext.standard()
    rows = []
    for q, flux in FLUXES.items():
        F7 = lift_to_7d(constant_curvature_u1(flux), ctx.fib)
        for name, xi in XIS.items():
            rep = obstruction_verdict(ctx, F7, xi, tol=a.tol)
            rows.append((q, name, rep.r_phi_value, rep.verdict.value))

    with open(a.out, "w") as fh:
        fh.write("q,perturbation,r_phi,verdict\n")
        for q, name, r, verdict in rows:
            fh.write(f"{q},{name},{r!r},{verdict}\n")

    width = max(len(n) for n in XIS)
    print(f"{'q':>3}  {'perturbation'.ljust(width)}  {'r_phi':>12}  verdict")
    for q, name, r, verdict in rows:
        print(f"{q:>3}  {name.ljust(width)}  {r:>12.4e}  {verdict}")
    print(f"csv written to {a.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
