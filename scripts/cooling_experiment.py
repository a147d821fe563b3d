#!/usr/bin/env python3
"""Cool a noisy SU(2) lattice field to the self-dual locus and record the
descent history, then lift the endpoint to 7D and report its residual.

Writes a CSV with columns ``step,asd_fraction,charge`` and prints a short
summary.  Example:

    python scripts/cooling_experiment.py --lattice 6x6x6x6 --noise 0.005 \
        --seed 42 --out cooling.csv
"""

import argparse
import sys

from g2lab.g2core import standard_structure
from g2lab.gauge.lattice import (
    add_link_noise, asd_residual_4d, constant_flux_field, cool_to_sd,
    lift_lattice_7d, residual_7d,
)

HALF_FLUX = [[0, 0.5, 0.5, 0], [-0.5, 0, 0, -0.5],
             [-0.5, 0, 0, 0.5], [0, 0.5, -0.5, 0]]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--lattice", default="6x6x6x6")
    p.add_argument("--noise", type=float, default=0.005)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--tgrid", default="4x4x4")
    p.add_argument("--out", default="cooling.csv")
    a = p.parse_args(argv)
    dims = tuple(int(x) for x in a.lattice.split("x"))
    t_dims = tuple(int(x) for x in a.tgrid.split("x"))
    U = add_link_noise(constant_flux_field(dims, HALF_FLUX, "su2"), a.noise, a.seed)
    out = cool_to_sd(U, max_steps=a.steps, tol=a.tol)
    with open(a.out, "w") as fh:
        fh.write("step,asd_fraction,charge\n")
        for step, frac, charge in out["history"]:
            fh.write(f"{step},{frac!r},{charge!r}\n")

    field = out["field"]
    _, asd_fraction, charge = out["history"][-1]
    # lattice work runs in adapted coordinates, where phi is standard
    res = residual_7d(lift_lattice_7d(field, t_dims), standard_structure())
    print(f"converged      {out['converged']} in {out['steps']} steps")
    print(f"asd_fraction   {asd_fraction:.3e}")
    print(f"clover charge  {charge:+.4f}")
    print(f"asd residual   {asd_residual_4d(field):.3e}")
    print(f"7D f7_norm     {res['f7_norm']:.3e}")
    print(f"history csv    {a.out}")
    return 0 if out["converged"] else 2


if __name__ == "__main__":
    sys.exit(main())
