#!/usr/bin/env python3
"""Cool a noisy SU(2) lattice field to the self-dual locus and record the
descent history, then lift the endpoint to 7D and report its residual.

This runs the code, and the input and output checks, of ``g2lab flow --group
su2 --start half-flux``, ``lift`` and ``residual``.  Writes a CSV with columns
``step,asd_fraction,charge`` and prints a short summary.  Example:

    python scripts/cooling_experiment.py --lattice 6x6x6x6 --noise 0.005 \
        --seed 42 --out cooling.csv
"""

import argparse
import sys

from g2lab.cli import (ValidationFailure, _bounded, _check_outputs, _flow_start,
                       _parse_dims, _write_history_csv)
from g2lab.gauge.lattice import asd_residual_4d, cool_to_sd, lift_lattice_7d, residual_7d


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--lattice", default="6x6x6x6")
    p.add_argument("--noise", type=_bounded(float, 0), default=0.005)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--steps", type=_bounded(int, 0), default=5000)
    p.add_argument("--tol", type=_bounded(float, 0, strict=True), default=1e-3)
    p.add_argument("--tgrid", default="4x4x4")
    p.add_argument("--out", default="cooling.csv")
    a = p.parse_args(argv)
    try:
        dims, t_dims = _parse_dims(a.lattice, 4), _parse_dims(a.tgrid, 3)
        _check_outputs(a.out)
    except ValidationFailure as exc:
        p.error(str(exc))
    U = _flow_start(dims, "su2", "half-flux", a.noise, a.seed)
    out = cool_to_sd(U, max_steps=a.steps, tol=a.tol)
    _write_history_csv(a.out, out["history"])

    field = out["field"]
    _, asd_fraction, charge = out["history"][-1]
    res = residual_7d(lift_lattice_7d(field, t_dims))
    print(f"converged      {out['converged']} in {out['steps']} steps")
    print(f"asd_fraction   {asd_fraction:.3e}")
    print(f"clover charge  {charge:+.4f}")
    print(f"asd residual   {asd_residual_4d(field):.3e}")
    print(f"7D f7_norm     {res['f7_norm']:.3e}")
    print(f"history csv    {a.out}")
    return 0 if out["converged"] else 2


if __name__ == "__main__":
    sys.exit(main())
