"""Command-line front end.

Subcommands: identities, fibration, deform, flow, lift, residual, cs,
obstruct, report.  Every subcommand prints a JSON document on stdout
(deterministic for a fixed seed: sorted keys, shortest-repr floats) and
exits 0 on success, 1 on validation errors and 2 on numerical failures,
with a machine-readable error JSON on stderr.

Randomness everywhere flows through the documented 64-bit splitmix-style
generator (see rng.py for the exact recurrence), keyed by ``--seed`` on
the commands that draw random numbers (flow, cs, report).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .exterior import ConstForm, interior, lex_basis, wedge
from .fibration import (FibrationSpec, TorusFibration, build_fibration,
                        decompose_deformation)
from .g2core import (OMEGA_BASE, eigen_split, metric_from_phi, standard_phi,
                     standard_star_phi, standard_structure)
from .gauge.fibered import q_map
from .gauge.lattice import (
    CoolingDivergence, add_link_noise, constant_flux_field,
    cool_to_sd, identity_field, lift_lattice_7d, read_snapshot, residual_7d,
    write_snapshot,
)
from .gauge.fourier import (
    constant_curvature_u1, instanton_residual_field, lift_to_7d,
    topological_charge,
)
from .chernsimons import (
    CSContext, obstruction_verdict, obstruction_verdict_lattice, rho_lattice,
    rho_on_translation, random_offsets,
)

EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL = 0, 1, 2


class ValidationFailure(Exception):
    pass


class NumericalFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ValidationFailure with argparse's reason."""
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationFailure(message)


def _json_line(obj: dict) -> str:
    """RFC 8259 JSON: a NaN or infinity is a numerical failure, not a token."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _emit(obj: dict) -> None:
    sys.stdout.write(_json_line(obj))


def _emit_error(code: str, message: str) -> None:
    sys.stderr.write(json.dumps(
        {"error": {"code": code, "message": message}}, sort_keys=True))
    sys.stderr.write("\n")


def _finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text} is not a finite JSON number")
    return x


def _reject_bools(obj) -> None:
    # form and spec files hold no booleans, and true must not count as 1
    if isinstance(obj, bool):
        raise ValueError("a boolean is not a number")
    for v in obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ():
        _reject_bools(v)


def _load_json(path: str) -> dict:
    """A form or spec file: finite numbers only, no NaN, Infinity or true."""
    if not os.path.exists(path):
        raise ValidationFailure(f"file not found: {path}")
    try:
        with open(path) as fh:
            d = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
        _reject_bools(d)
        return d
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationFailure(f"invalid JSON in {path}: {exc}") from exc


def _load_spec(path: str | None) -> FibrationSpec:
    if path is None:
        return FibrationSpec.standard()
    try:
        spec = FibrationSpec.from_json_dict(_load_json(path))
        # every exact entry must fit a double: the outputs are doubles
        [float(x) for m in (spec.eta.mat, spec.l_basis, spec.alpha) for r in m for x in r]
        return spec
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationFailure(f"invalid fibration spec: {exc}") from exc


def _load_xi(path: str) -> ConstForm:
    """The perturbation 4-form on the 7-torus in a form JSON file."""
    d = _load_json(path)
    try:
        xi = ConstForm.from_json_dict(d)
        # every coefficient must fit a double, and 35 squares of it too
        for idx, c in xi.to_double().coeffs.items():
            if abs(c) > 1e150:
                raise ValueError(f"coefficient {c!r} of {list(idx)} exceeds 1e150 in size")
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationFailure(f"invalid form JSON: {exc}") from exc
    if (xi.dim, xi.degree) != (7, 4):
        raise ValidationFailure("xi must be a 4-form on the 7-torus")
    return xi


def _bounded(kind, low: float, strict: bool = False):
    """argparse type: a finite ``kind`` number >= low, or > low if strict."""
    def parse(text: str):
        x = kind(text)
        if not math.isfinite(x) or x < low or (strict and x == low):
            raise argparse.ArgumentTypeError(
                f"expected a finite number {'>' if strict else '>='} {low}, got {text!r}")
        return x
    return parse


def _check_outputs(*paths) -> None:
    """Before any work: each output path is a file in a writable directory."""
    for path in filter(None, paths):
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ValidationFailure(f"cannot write {path}: no writable directory for it")


def _parse_dims(text: str, n: int) -> tuple:
    parts = text.lower().split("x")
    if len(parts) != n or not all(p.isdecimal() and int(p) >= 2 for p in parts):
        raise ValidationFailure(
            f"expected {n} lattice extents >= 2 like 6x6x6x6, got {text!r}")
    return tuple(int(p) for p in parts)


# ---------------------------------------------------------------------------
# identities


def _max_abs(form: ConstForm) -> float:
    return max((abs(float(c)) for c in form.coeffs.values()), default=0.0)


def _identity_deviation(g) -> float:
    """max |g_ij - delta_ij| over a 7 x 7 metric."""
    return float(np.abs(np.array(g, dtype=float) - np.eye(7)).max())


def identity_suite(mode: str) -> list:
    """The exact identity checks behind ``g2lab identities``.

    In exact mode every residual must be exactly zero (rational
    arithmetic); double mode tolerates accumulated rounding.
    """
    exact = mode == "exact"
    phi = standard_phi() if exact else standard_phi().to_double()
    s = standard_structure() if exact else eigen_split(phi)
    items = []

    def add(name, residual):
        tol = 0.0 if exact else 1e-12
        r = float(residual)
        items.append({"name": name, "residual": r, "pass": r <= tol})

    # the coassociative 4-form in closed form
    target = standard_star_phi() if exact else standard_star_phi().to_double()
    add("coassociative-dual", _max_abs(s.star_phi - target))

    # the induced metric of the model form is the identity
    add("induced-metric-identity", _identity_deviation(s.metric.mat))

    # the 7-block is spanned by the vector contractions of phi
    res = 0.0
    one = 1 if exact else 1.0
    for i in range(7):
        v = [one if j == i else one * 0 for j in range(7)]
        gen = interior(v, phi)
        res = max(res, _max_abs(s.apply_p7(gen) - gen))
    add("two-form-7-block-span", res)

    # wedging with the coassociative form kills the 14-block and has rank 7
    kill = 0.0
    cols = []
    for idx in lex_basis(7, 2):
        eta = ConstForm.basis(7, idx, one)
        kill = max(kill, _max_abs(wedge(s.apply_p14(eta), s.star_phi)))
        cols.append([float(c) for c in wedge(eta, s.star_phi).coeff_vector(
            lex_basis(7, 6))])
    rank = int(np.linalg.matrix_rank(np.array(cols).T, tol=1e-9))
    add("coassociative-wedge-kernel", kill)
    add("coassociative-wedge-rank", abs(rank - 7))

    # the fiber-plane map sends the three coordinate planes to the omegas
    res = 0.0
    blocks = [([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], OMEGA_BASE[2]),
              ([[0, 0, 0], [0, 0, 1], [0, -1, 0]], OMEGA_BASE[0]),
              ([[0, 0, -1], [0, 0, 0], [1, 0, 0]], OMEGA_BASE[1])]
    for blk, want in blocks:
        res = max(res, _max_abs(q_map(blk) - want))
    add("fiber-plane-map", res)

    # the 4-form split round-trips and its blocks count 1+12+9+9+4 = 35
    res = 0.0
    active = set()   # (block, row, column) of every entry some basis form reaches
    for idx in lex_basis(7, 4):
        xi = ConstForm.basis(7, idx, one)
        sp = decompose_deformation(xi)
        res = max(res, _max_abs(sp.reassemble() - xi))
        blocks = ([[sp.c_i]], sp.c_ii, sp.c_iii_pp, sp.c_iii_mp, [sp.c_iv])
        active.update((b, i, j) for b, m in enumerate(blocks)
                      for i, row in enumerate(m) for j, c in enumerate(row) if c != 0)
    add("deformation-split-roundtrip", res)
    counts = tuple(sum(1 for p in active if p[0] == b) for b in range(5))
    add("deformation-split-dimensions",
        0.0 if counts == (1, 12, 9, 9, 4) else 1.0)
    return items


def cmd_identities(args) -> int:
    items = identity_suite(args.mode)
    ok = all(it["pass"] for it in items)
    _emit({"command": "identities", "mode": args.mode, "identities": items,
           "all_pass": ok})
    if not ok:
        raise NumericalFailure("identity suite failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fibration / deform


def _diagnosis(fib: TorusFibration) -> str:
    """Product exactly when the base-to-fiber block of the generators is 0."""
    return "product" if np.abs(fib.mixing_block()).max() == 0.0 else "non-product"


def cmd_fibration(args) -> int:
    fib = build_fibration(_load_spec(args.spec))
    ortho = _identity_deviation(metric_from_phi(fib.phi)[0].mat)
    _emit({
        "command": "fibration",
        "generator_matrix": [[float(x) for x in row] for row in fib.ltilde],
        "phi": fib.phi.to_json_dict(),
        "orthonormality_residual": ortho,
        "diagnosis": _diagnosis(fib),
    })
    return EXIT_OK


def cmd_deform(args) -> int:
    sp = decompose_deformation(_load_xi(args.xi))
    _emit({"command": "deform", "split": sp.to_json_dict()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# lattice pipeline


_HALF_FLUX = ((0, 0.5, 0.5, 0), (-0.5, 0, 0, -0.5),
              (-0.5, 0, 0, 0.5), (0, 0.5, -0.5, 0))
_UNIT_SD_FLUX = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))


def _flow_start(dims, group: str, start: str, noise: float, seed: int):
    if start == "auto":
        start = "half-flux" if group == "su2" else "sd-flux"
    if start == "half-flux":
        if group != "su2":
            raise ValidationFailure("half-flux start requires --group su2")
        U = constant_flux_field(dims, _HALF_FLUX, "su2")
    elif start == "sd-flux":
        U = constant_flux_field(dims, _UNIT_SD_FLUX, group)
    elif start == "identity":
        U = identity_field(dims, group)
    if noise > 0:
        U = add_link_noise(U, noise, seed)
    return U


def cmd_flow(args) -> int:
    dims = _parse_dims(args.lattice, 4)
    _check_outputs(args.out, args.out + ".csv")
    U = _flow_start(dims, args.group, args.start, args.noise, args.seed)
    try:
        result = cool_to_sd(U, max_steps=args.steps, tol=args.tol)
    except CoolingDivergence as exc:
        _write_history_csv(args.out + ".csv", exc.history)
        raise NumericalFailure(str(exc)) from exc
    write_snapshot(result["field"], args.out)
    _write_history_csv(args.out + ".csv", result["history"])
    _, asd_fraction, charge = result["history"][-1]
    _emit({
        "command": "flow", "seed": args.seed,
        "lattice": list(dims), "group": args.group, "start": args.start,
        "noise": args.noise, "tol": args.tol,
        "converged": bool(result["converged"]),
        "plateau": bool(result["plateau"]),
        "steps": int(result["steps"]),
        "final_asd_fraction": float(asd_fraction),
        "final_charge": float(charge),
        "out": args.out, "history_csv": args.out + ".csv",
    })
    if not result["converged"]:
        raise NumericalFailure("cooling did not reach tolerance")
    return EXIT_OK


def _write_history_csv(path: str, history) -> None:
    with open(path, "w") as fh:
        fh.write("step,asd_fraction,charge\n")
        for step, frac, charge in history:
            fh.write(f"{step},{frac!r},{charge!r}\n")


def cmd_lift(args) -> int:
    _check_outputs(args.out)
    U = _read_field(args.infile, ndim=4)
    t_dims = _parse_dims(args.tgrid, 3)
    U7 = lift_lattice_7d(U, t_dims)
    write_snapshot(U7, args.out)
    _emit({"command": "lift",
           "base_dims": list(U.dims), "t_dims": list(t_dims),
           "dims": list(U7.dims), "out": args.out})
    return EXIT_OK


def _read_field(path: str, ndim: int):
    if not os.path.exists(path):
        raise ValidationFailure(f"file not found: {path}")
    try:
        U = read_snapshot(path)
    except (ValueError, EOFError) as exc:
        raise ValidationFailure(f"bad snapshot {path}: {exc}") from exc
    if U.ndim != ndim:
        raise ValidationFailure(f"expected a {ndim}D snapshot, got {U.ndim}D")
    return U


def cmd_residual(args) -> int:
    U7 = _read_field(args.infile, ndim=7)
    _emit({"command": "residual", "dims": list(U7.dims), **residual_7d(U7)})
    return EXIT_OK


def cmd_cs(args) -> int:
    U7 = _read_field(args.field, ndim=7)
    ctx = CSContext.standard()
    v = tuple(float(x) for x in (1, 0, 0, 0, 0, 0, 0))
    values = [rho_lattice(ctx, U7, v)]
    for k in range(args.probe_offsets):
        probe = add_link_noise(U7, args.probe_amplitude, args.seed + k + 1)
        values.append(rho_lattice(ctx, probe, v))
    _emit({
        "command": "cs", "seed": args.seed,
        "v": list(v), "probe_offsets": args.probe_offsets,
        "probe_amplitude": args.probe_amplitude,
        "rho_values": values,
        "spread": max(values) - min(values),
    })
    return EXIT_OK


def cmd_obstruct(args) -> int:
    U7 = _read_field(args.field, ndim=7)
    rep = obstruction_verdict_lattice(CSContext.standard(), U7, _load_xi(args.xi))
    _emit({"command": "obstruct", "report": rep.to_json_dict()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    _check_outputs(args.out)
    ids = identity_suite("exact")

    ctx = CSContext.standard()
    fib = ctx.fib

    # continuum lift of the unit SD flux and its residual triple
    F4 = constant_curvature_u1(_UNIT_SD_FLUX)
    F7 = lift_to_7d(F4, fib)
    res = instanton_residual_field(F7)

    # Chern-Simons constancy probe on the lifted field
    v = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    offsets = random_offsets(7, 1, 5, seed=args.seed)
    rho_vals = rho_on_translation(ctx, F7, v, offsets)

    # obstruction verdicts: transverse perturbation vs conformal one
    xi_iv = wedge(ConstForm.basis(7, (1,), -2.0), ConstForm.basis(7, (5, 6, 7)))
    xi_i = ConstForm.basis(7, (1, 2, 3, 4), 1.0)
    rep_iv = obstruction_verdict(ctx, F7, xi_iv)
    rep_i = obstruction_verdict(ctx, F7, xi_i)

    # small abelian lattice flow for the pipeline section
    U = _flow_start((4, 4, 4, 4), "u1", "sd-flux", 0.02, args.seed)
    flow = cool_to_sd(U, max_steps=2000, tol=1e-3)
    _, asd_fraction, charge = flow["history"][-1]

    report = {
        "command": "report",
        "seed": args.seed,
        "identities": {"items": ids, "all_pass": all(i["pass"] for i in ids)},
        "fibration": {
            "generator_matrix": [[float(x) for x in row] for row in fib.ltilde],
            "diagnosis": _diagnosis(fib),
        },
        "lift": {
            "flux": [list(r) for r in _UNIT_SD_FLUX],
            "charge": float(topological_charge(F4)),
            "residual": {k: float(vv) for k, vv in res.items()},
        },
        "cs": {
            "v": list(v),
            "rho_values": [float(x) for x in rho_vals],
            "spread": float(max(rho_vals) - min(rho_vals)),
        },
        "obstruction": {
            "transverse": rep_iv.to_json_dict(),
            "conformal": rep_i.to_json_dict(),
        },
        "flow": {
            "lattice": [4, 4, 4, 4], "group": "u1",
            "converged": bool(flow["converged"]),
            "steps": int(flow["steps"]),
            "final_asd_fraction": float(asd_fraction),
            "final_charge": float(charge),
        },
    }
    text = _json_line(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _print_report_table(report)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _print_report_table(report: dict) -> None:
    rows = [
        ("identity suite", "pass" if report["identities"]["all_pass"] else "FAIL"),
        ("fibration", report["fibration"]["diagnosis"]),
        ("lift charge", f"{report['lift']['charge']:+.3f}"),
        ("lift residual r_a", f"{report['lift']['residual']['r_a']:.2e}"),
        ("rho spread", f"{report['cs']['spread']:.2e}"),
        ("transverse verdict", report["obstruction"]["transverse"]["verdict"]),
        ("conformal verdict", report["obstruction"]["conformal"]["verdict"]),
        ("flow converged", str(report["flow"]["converged"]).lower()),
        ("flow charge", f"{report['flow']['final_charge']:+.3f}"),
    ]
    width = max(len(k) for k, _ in rows)
    for k, val in rows:
        sys.stdout.write(f"{k.ljust(width)}  {val}\n")


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, default=42,
                        help="seed for the documented splitmix-style PRNG")

    p = _Parser(prog="g2lab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("identities", help="run the exact identity suite")
    q.add_argument("--mode", choices=("exact", "double"), default="exact",
                   help="arithmetic: exact rationals or floats")

    q = sub.add_parser("fibration",
                       help="build a torus fibration from a spec file")
    q.add_argument("--spec", default=None, help="fibration spec JSON")

    q = sub.add_parser("deform",
                       help="split a 4-form perturbation into its blocks")
    q.add_argument("--xi", required=True, help="4-form JSON file")

    q = sub.add_parser("flow", parents=[seeded], help="cool a lattice field")
    q.add_argument("--lattice", default="6x6x6x6")
    q.add_argument("--group", default="su2", choices=("u1", "su2"))
    q.add_argument("--tol", type=_bounded(float, 0, strict=True), default=1e-3)
    q.add_argument("--steps", type=_bounded(int, 0), default=5000)
    q.add_argument("--noise", type=_bounded(float, 0), default=0.005)
    q.add_argument("--start", default="auto",
                   choices=("auto", "half-flux", "sd-flux", "identity"))
    q.add_argument("--out", required=True)

    q = sub.add_parser("lift", help="lift a 4D snapshot")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--tgrid", default="4x4x4")
    q.add_argument("--out", required=True)

    q = sub.add_parser("residual", help="7D instanton residuals of a snapshot")
    q.add_argument("--in", dest="infile", required=True)

    q = sub.add_parser("cs", parents=[seeded],
                       help="Chern-Simons 1-form on translation tangents")
    q.add_argument("--field", required=True)
    q.add_argument("--probe-offsets", type=_bounded(int, 0), default=5)
    q.add_argument("--probe-amplitude", type=_bounded(float, 0), default=0.02)

    q = sub.add_parser("obstruct", help="deformation obstruction verdict")
    q.add_argument("--field", required=True)
    q.add_argument("--xi", required=True)

    q = sub.add_parser("report", parents=[seeded],
                       help="bundle module outputs into one JSON report")
    q.add_argument("--out", default=None)

    return p


_COMMANDS = {
    "identities": cmd_identities,
    "fibration": cmd_fibration,
    "deform": cmd_deform,
    "flow": cmd_flow,
    "lift": cmd_lift,
    "residual": cmd_residual,
    "cs": cmd_cs,
    "obstruct": cmd_obstruct,
    "report": cmd_report,
}


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit:  # --help printed its text
        return EXIT_OK
    except (ValidationFailure, OSError) as exc:  # OSError: unreadable input, unwritable --out
        _emit_error("validation", str(exc))
        return EXIT_VALIDATION
    except NumericalFailure as exc:
        _emit_error("numerical", str(exc))
        return EXIT_NUMERICAL
    except (ValueError, ArithmeticError) as exc:
        _emit_error("numerical", str(exc))
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
