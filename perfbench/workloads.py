"""The benchmark workloads: seeded inputs, job lists and output checks.

A workload is made of parts.  Each part has ``fixtures()``, the objects
that do not depend on the seed, built once per run; ``draw(fx, rnd,
workdir)``, which draws a pass's inputs from the benchmark's own generator
(``random.Random(seed)``) and returns a state object; and ``jobs(state)``,
a list of ``(kind, fn)`` pairs.  Every pass draws fresh inputs, so a cache
keyed on an input object cannot carry work from one pass to the next.  A
pass runs the list in order; a job calls into g2lab, checks the result and
raises ``CheckFailed`` on a wrong answer.  Tolerances are the ones the
package's tests use.  g2lab only ever sees the generated inputs, never the
seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
from fractions import Fraction

import jsonschema
import numpy as np

from g2lab import cli
from g2lab.chernsimons import (
    CSContext, Verdict, cs_functional, obstruction_verdict, path_integrate,
    rho_on_translation,
)
from g2lab.exterior import ConstForm, lex_basis
from g2lab.fibration import decompose_deformation
from g2lab.gauge.fibered import (
    FiberedConnection, block_norms, fibered_curvature,
)
from g2lab.gauge.fourier import (
    FourierField, constant_curvature_u1, curvature, lift_to_7d,
)
from g2lab.gauge.lattice import (
    add_link_noise, asd_residual_4d, constant_flux_field, lift_lattice_7d,
    random_gauge_transform, write_snapshot,
)


class CheckFailed(Exception):
    pass


def check(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# shared input generators


def su2(g) -> np.ndarray:
    """The su(2) element with real coordinates g in the Pauli basis."""
    return np.array([[1j * g[0], g[1] + 1j * g[2]],
                     [-g[1] + 1j * g[2], -1j * g[0]]])


def axis_map(rnd, dim: int):
    """A seeded signed permutation of the axes, as (perm, signs)."""
    perm = rnd.sample(range(dim), dim)
    return perm, [rnd.choice((-1, 1)) for _ in range(dim)]


def pattern_field(rnd, rank: int, cutoff: int, pattern,
                  amp: float = 0.5) -> FourierField:
    """A real Lie-algebra valued 1-form on a fixed frequency pattern.

    The seed picks the amplitudes and a signed permutation of the axes
    applied to the pattern.  That keeps the number of modes and of distinct
    products the same for every seed, so the seed moves values, not the
    amount of work.
    """
    dim = len(pattern[0][0])
    perm, signs = axis_map(rnd, dim)
    f = FourierField.zero(dim, 1, rank, cutoff)
    for freq, idx in pattern:
        m = [0] * dim
        for axis, x in enumerate(freq):
            m[perm[axis]] = signs[axis] * x
        c = amp * complex(rnd.gauss(0, 1), rnd.gauss(0, 1))
        if rank == 2:
            c = c * su2([rnd.gauss(0, 1) for _ in range(3)])
        f.add_coeff(m, tuple(perm[i - 1] + 1 for i in idx), c)
    return f.symmetrized()


# frequency patterns of the seeded fields: (frequency, 1-form index)
POTENTIAL_7D = [((1, 0, 0, 0, 0, 0, 0), (2,)), ((0, 1, 1, 0, 0, 0, 0), (5,)),
                ((0, 0, 0, 1, 0, -1, 0), (1,)), ((0, 0, 0, 0, 0, 0, 0), (3,)),
                ((2, 0, 0, 0, 1, 0, 0), (7,))]
OFFSET_7D = [((0, 1, 0, 0, 0, 0, 0), (1,)), ((1, 0, 0, 0, 0, 0, 1), (4,)),
             ((0, 0, 2, 0, -1, 0, 0), (6,)), ((0, 0, 0, 1, 0, 1, 0), (2,))]


def sd_flux(a, b, c):
    return [[0, a, b, c], [-a, 0, c, -b], [-b, -c, 0, a], [-c, b, -a, 0]]


def asd_flux(a, b, c):
    return [[0, a, b, c], [-a, 0, -c, b], [-b, c, 0, -a], [-c, -b, a, 0]]


ZERO_FLUX = [[0] * 4 for _ in range(4)]
SD_TWO = [[0, 1, 1, 0], [-1, 0, 0, -1], [-1, 0, 0, 1], [0, 1, -1, 0]]
HALF_FLUX = ((0, 0.5, 0.5, 0), (-0.5, 0, 0, -0.5),
             (-0.5, 0, 0, 0.5), (0, 0.5, -0.5, 0))
E1 = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def xi_transverse(i: int, s) -> ConstForm:
    """s * (-2 e^i ^ e^567): the type-IV class with eps(e_i) = s."""
    return ConstForm.basis(7, (i, 5, 6, 7), -2 * s)


def rational(rnd, lo: int = -9, hi: int = 9) -> Fraction:
    num = 0
    while num == 0:
        num = rnd.randint(lo, hi)
    return Fraction(num, rnd.randint(1, 7))


def form_json(terms: dict) -> dict:
    """Form JSON with Fraction coefficients as exact "p/q" strings, which
    g2lab reads as Fractions."""
    return {"dim": 7, "degree": 4,
            "terms": [{"idx": list(idx), "c": str(c)}
                      for idx, c in sorted(terms.items())]}


def write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


class Cli:
    """Runs g2lab subcommands in process and validates their stdout JSON."""

    def __init__(self):
        schema_dir = os.path.join(os.path.dirname(cli.__file__), "schemas")
        self.validators = {}
        for fname in sorted(os.listdir(schema_dir)):
            with open(os.path.join(schema_dir, fname)) as fh:
                schema = json.load(fh)
            self.validators[fname[:-5]] = jsonschema.Draft7Validator(schema)

    def raw(self, argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        check(code == 0, f"g2lab {' '.join(argv)} exited {code}: "
                         f"{err.getvalue().strip()[-300:]}")
        return out.getvalue()

    def __call__(self, argv) -> dict:
        doc = json.loads(self.raw(argv))
        self.validate(argv[0], doc)
        return doc

    def validate(self, schema: str, doc) -> None:
        errors = list(self.validators[schema].iter_errors(doc))
        check(not errors, f"{schema} output violates its schema: "
                          f"{errors[0].message if errors else ''}")


# ---------------------------------------------------------------------------
# continuum-cs: Fourier convolutions and the Chern-Simons API


class ContinuumCS:
    """Path consistency, translation constancy, the verdict truth table and
    the report bundle, all on seeded continuum fields."""

    name = "continuum-cs"
    PATH_STEPS = 16
    RHO_OFFSETS = 4
    sizes = {"path_potentials": "u1 and su2 7D 1-forms, cutoff 2, 5 modes",
             "path_steps": PATH_STEPS, "rho_offsets": RHO_OFFSETS,
             "verdict_charges": [0, -1, -2], "verdict_xi": "6 classes"}

    def fixtures(self):
        ctx = CSContext.standard()
        # the unit fluxes and charges are fixed by the checks, not seeded;
        # "report" keeps the first report's bytes for the later passes
        return {"ctx": ctx, "cli": Cli(), "report": {},
                "rho_fields": [lift_to_7d(constant_curvature_u1(m), ctx.fib)
                               for m in (sd_flux(1, 0, 0), asd_flux(1, 0, 0))],
                "verdict_fields": [
                    (q, lift_to_7d(constant_curvature_u1(m), ctx.fib))
                    for q, m in ((0, ZERO_FLUX), (-1, sd_flux(1, 0, 0)),
                                 (-2, SD_TWO))]}

    def draw(self, fx, rnd, workdir):
        st = dict(fx)
        st["potentials"] = [pattern_field(rnd, rank, 2, POTENTIAL_7D)
                            for rank in (1, 2)]
        st["offsets"] = [pattern_field(rnd, 1, 2, OFFSET_7D, amp=1.0)
                         for _ in range(self.RHO_OFFSETS)]
        i = rnd.randint(1, 4)
        s = [float(rational(rnd, 1, 9)) for _ in range(5)]
        st["xis"] = [
            ("I", ConstForm.basis(7, (1, 2, 3, 4), s[0])),
            ("II", ConstForm.basis(7, (1, 2, 3, 6), s[1])),
            ("III", ConstForm.basis(7, (1, 2, 6, 7), s[2])),
            ("IV", xi_transverse(i, s[3])),
            ("mixed", xi_transverse(i, s[3])
             + ConstForm.basis(7, (1, 2, 3, 4), s[4])),
            ("0", ConstForm.zero(7, 4))]
        return st

    def jobs(self, st):
        job = functools.partial
        out = [("path", job(self.path_job, st, a)) for a in st["potentials"]]
        out += [("rho", job(self.rho_job, st, F)) for F in st["rho_fields"]]
        out += [("verdict", job(self.verdict_job, st, q, F, kind, xi))
                for q, F in st["verdict_fields"] for kind, xi in st["xis"]]
        out.append(("report", job(self.report_job, st)))
        return out

    def path_job(self, st, a):
        theta = cs_functional(st["ctx"], a)
        line = path_integrate(st["ctx"], a, self.PATH_STEPS, "linear")
        check(abs(line - theta) < 1e-8,
              f"path integral {line!r} != functional {theta!r}")

    def rho_job(self, st, F):
        vals = rho_on_translation(st["ctx"], F, E1, st["offsets"])
        check(len(vals) == len(st["offsets"])
              and all(math.isfinite(v) for v in vals), "rho values")
        check(max(vals) - min(vals) < 1e-9,
              f"rho spread {max(vals) - min(vals)!r} >= 1e-9")

    def verdict_job(self, st, q, F, kind, xi):
        rep = obstruction_verdict(st["ctx"], F, xi)
        expect = q != 0 and kind in ("IV", "mixed")
        check((rep.verdict is Verdict.OBSTRUCTED) == expect,
              f"verdict {rep.verdict.value} for charge {q}, class {kind}")
        check(abs(rep.r_phi_value - rep.n_phi_value) < 1e-9,
              f"r_phi {rep.r_phi_value!r} != eps*q {rep.n_phi_value!r}")

    def report_job(self, st):
        # a fixed seed: the report's own random probes and flow would
        # otherwise change its cost from one benchmark seed to the next
        text = st["cli"].raw(["report", "--seed", "42"])
        st["cli"].validate("report", json.loads(text))
        check(text == st["report"].setdefault("text", text),
              "report bytes differ between passes")


# ---------------------------------------------------------------------------
# fibered-grid: thousands of tiny 4D Fourier fields


def _family(rnd, rank: int):
    """Seeded gauge-exact family A_t = A0 + sum sin(2 pi t_i)/(2 pi) d chi_i,
    sigma_i = cos(2 pi t_i) chi_i, with all fields in one abelian direction,
    so the mixed block is pure t-grid error of order 2."""
    gen = su2([0, 0, 1]) if rank == 2 else 1j * np.eye(1)
    perm, signs = axis_map(rnd, 4)

    def unit_freq(axis):
        m = [0, 0, 0, 0]
        m[perm[axis]] = signs[axis]
        return m

    chi = []
    for i in range(3):
        f = FourierField.zero(4, 0, rank, 2)
        f.add_coeff(unit_freq(i), (), rnd.uniform(0.1, 0.5) * gen)
        chi.append(f.symmetrized())
    A0 = FourierField.zero(4, 1, rank, 2)
    A0.add_coeff(unit_freq(3), (perm[0] + 1,), rnd.uniform(0.2, 0.8) * gen)
    return A0.symmetrized(), chi


def _family_connection(A0, chi, T: int) -> FiberedConnection:
    idxs = [(i, j, k) for i in range(T) for j in range(T) for k in range(T)]
    base, sigma = {}, ({}, {}, {})
    dchi = [c.d() for c in chi]
    for t in idxs:
        At = A0
        for i in range(3):
            s = np.sin(2 * np.pi * t[i] / T) / (2 * np.pi)
            At = At + dchi[i].scale(s)
        base[t] = At
        for i in range(3):
            sigma[i][t] = chi[i].scale(np.cos(2 * np.pi * t[i] / T))
    return FiberedConnection((T, T, T), base, sigma)


class FiberedGrid:
    """fibered_curvature + block_norms on seeded t-dependent connections."""

    name = "fibered-grid"
    sizes = {"order_pair": "u1 T=4 then T=8", "su2_family": "T=4",
             "commutator": "su2, T=4"}

    def fixtures(self):
        return {}

    def draw(self, fx, rnd, workdir):
        A0, chi = _family(rnd, 1)
        st = {"u1": {T: _family_connection(A0, chi, T) for T in (4, 8)},
              "norms": {}}
        A0, chi = _family(rnd, 2)
        st["su2"] = _family_connection(A0, chi, 4)
        # the family is gauge-exact in one abelian direction, so every base
        # block is the curvature of A0
        st["su2_base"] = math.sqrt(curvature(A0).full_field().norm_sq())
        T = 4
        idxs = [(i, j, k)
                for i in range(T) for j in range(T) for k in range(T)]
        zero1 = FourierField.zero(4, 1, 2, 2)
        s1, s2 = (su2([rnd.gauss(0, 1) for _ in range(3)]) for _ in "12")
        cs = []
        for s in (s1, s2, np.zeros((2, 2))):
            c = FourierField.zero(4, 0, 2, 2)
            if s.any():
                c.add_coeff((0, 0, 0, 0), (), s)
            cs.append(c)
        st["commutator"] = (
            FiberedConnection((T, T, T), {t: zero1 for t in idxs},
                              tuple({t: c for t in idxs} for c in cs)),
            0.5 * (s1 @ s2 - s2 @ s1))
        return st

    def jobs(self, st):
        job = functools.partial
        return [("order-T4", job(self.order_job, st, 4)),
                ("order-T8", job(self.order_job, st, 8)),
                ("su2-family", job(self.su2_job, st)),
                ("commutator", job(self.commutator_job, *st["commutator"]))]

    def order_job(self, st, T):
        norms = st["norms"]   # the T=8 job checks the order against T=4's
        norms[T] = block_norms(fibered_curvature(st["u1"][T]))["mixed"]
        if T == 8:
            check(4 in norms, "T=4 run missing")
            order = math.log2(norms[4] / norms[8])
            check(abs(order - 2.0) < 0.2, f"mixed-block order {order!r}")
            norms.clear()

    def su2_job(self, st):
        norms = block_norms(fibered_curvature(st["su2"]))
        check(norms["f_sigma"] < 1e-14, f"F_sigma {norms['f_sigma']!r} != 0")
        want = st["su2_base"]
        check(abs(norms["base"] - want) <= 1e-12 * want,
              f"base block {norms['base']!r} != |F(A0)| {want!r}")
        check(norms["mixed"] > 0, "mixed block vanished")

    def commutator_job(self, conn, want):
        blocks = fibered_curvature(conn)
        zero = np.zeros((2, 2))
        for comps in blocks["F_sigma"].values():
            got = comps[(0, 1)].modes.get((0, 0, 0, 0), {}).get((), zero)
            check(np.abs(got - want).max() < 1e-14, "F_sigma != [s1,s2]/2")
            for key in ((0, 2), (1, 2)):
                check(comps[key].is_zero(1e-14), f"F_sigma{key} != 0")


# ---------------------------------------------------------------------------
# lattice-cool: the update/write path through `g2lab flow`


class LatticeCool:
    """In-process `g2lab flow` runs that each write a snapshot and a CSV."""

    name = "lattice-cool"
    # (lattice, group, noise, tol, count)
    RUNS = (("7x7x7x7", "su2", 0.002, 3e-3, 1),
            ("8x8x8x8", "u1", 0.05, 1e-3, 3))
    # The su2 flow's noise seed is fixed: its accepted steps, and so its
    # cost, depend on the noise draw, while the u1 flows take 22 or 23
    # steps whatever the draw.
    SU2_SEED = 42
    sizes = {"flows": [f"{n} x {g} {d} noise {s} tol {t}"
                       for d, g, s, t, n in RUNS],
             "su2_noise_seed": SU2_SEED}

    def fixtures(self):
        return {"cli": Cli()}

    def draw(self, fx, rnd, workdir):
        st = dict(fx, runs=[])
        for k, (dims, group, noise, tol, count) in enumerate(
                r for r in self.RUNS for _ in range(r[4])):
            seed = self.SU2_SEED if group == "su2" else rnd.randrange(2 ** 31)
            st["runs"].append((dims, group, noise, tol, seed,
                               os.path.join(workdir, f"flow{k}.lat")))
        return st

    def jobs(self, st):
        return [(f"flow-{run[1]}-{run[0]}",
                 functools.partial(self.flow_job, st, *run))
                for run in st["runs"]]

    def flow_job(self, st, dims, group, noise, tol, seed, out):
        doc = st["cli"](["flow", "--lattice", dims, "--group", group,
                         "--noise", repr(noise), "--seed", str(seed),
                         "--tol", repr(tol), "--out", out])
        check(doc["converged"], "flow did not converge")
        check(doc["final_asd_fraction"] < tol,
              f"asd fraction {doc['final_asd_fraction']!r}")
        check(abs(doc["final_charge"] + 1.0) < 0.1,
              f"charge {doc['final_charge']!r}")
        n = [int(x) for x in dims.split("x")]
        rank = 2 if group == "su2" else 1
        header = 8 + 4 + 4 + 4 * len(n) + 4 + 8
        want = header + 16 * len(n) * math.prod(n) * rank * rank
        check(os.path.getsize(out) == want, "snapshot size")
        with open(out + ".csv") as fh:
            rows = fh.read().splitlines()
        check(rows[0] == "step,asd_fraction,charge"
              and len(rows) == doc["steps"] + 2, "history CSV")


# ---------------------------------------------------------------------------
# lattice-measure: the read path over snapshots written before each pass


class LatticeMeasure:
    """residual, cs, obstruct on three 7D snapshots; fibration and deform on
    seeded spec and form files."""

    name = "lattice-measure"
    # random probe fields per cs job; each costs about as much as the
    # unprobed field, in noise draws and in rho_lattice
    PROBE_OFFSETS = 1
    sizes = {"su2_lift": "4^4 x 2^3", "u1_lift": "4^4 x 2^3",
             "noisy_u1": "4^4 x 2^3", "probe_offsets": PROBE_OFFSETS,
             "fibration_spec": "3 rational twist entries",
             "deform_xi": "6 rational terms"}

    def fixtures(self):
        return {"cli": Cli()}

    def draw(self, fx, rnd, workdir):
        st = dict(fx, fields=[])
        t3 = (2, 2, 2)
        su2_base = add_link_noise(
            constant_flux_field((4,) * 4, HALF_FLUX, "su2"), 0.05,
            rnd.randrange(2 ** 31))
        u1_base = random_gauge_transform(
            constant_flux_field((4,) * 4, sd_flux(1, 0, 0), "u1"),
            rnd.randrange(2 ** 31))
        noisy = add_link_noise(
            lift_lattice_7d(constant_flux_field((4,) * 4, sd_flux(1, 0, 0),
                                                "u1"), t3),
            0.05, rnd.randrange(2 ** 31))
        for name, U7, base in (("su2-lift", lift_lattice_7d(su2_base, t3),
                                su2_base),
                               ("u1-lift", lift_lattice_7d(u1_base, t3),
                                u1_base),
                               ("u1-noisy", noisy, None)):
            path = os.path.join(workdir, name + ".lat")
            write_snapshot(U7, path)
            asd = asd_residual_4d(base) if base is not None else None
            st["fields"].append({"path": path, "dims": list(U7.dims),
                                 "asd4": asd, "cs": None,
                                 "seed": rnd.randrange(2 ** 31)})
        # transverse class along e1, so obstruct's rho is cs's first probe,
        # plus exact rational classes of types I-III
        s = rational(rnd, 1, 9) + 1
        terms = {(1, 5, 6, 7): -2 * s, (1, 2, 3, 4): rational(rnd),
                 (1, 2, 3, 6): rational(rnd), (2, 4, 5, 6): rational(rnd)}
        st["xi"] = write_json(os.path.join(workdir, "xi.json"),
                              form_json(terms))
        # a twisted fibration with 3 seeded rational entries
        alpha = [[Fraction(0)] * 4 for _ in range(3)]
        for pos in rnd.sample(range(12), 3):
            alpha[pos // 4][pos % 4] = rational(rnd)
        spec = {"eta": [[str(int(i == j)) for j in range(4)]
                        for i in range(4)],
                "l_basis": [[str(int(i == j)) for j in range(3)]
                            for i in range(3)],
                "alpha": [[str(x) for x in row] for row in alpha]}
        st["spec"] = (write_json(os.path.join(workdir, "spec.json"), spec),
                      alpha)
        # seeded exact Fraction terms: the exact path of exterior
        basis = lex_basis(7, 4)
        terms = {idx: rational(rnd) for idx in rnd.sample(basis, 6)}
        want = _combine([(float(c), decompose_deformation(
            ConstForm.basis(7, idx, Fraction(1))).to_json_dict())
            for idx, c in terms.items()])
        st["deform"] = (write_json(os.path.join(workdir, "xi-exact.json"),
                                   form_json(terms)), want)
        return st

    def jobs(self, st):
        job = functools.partial
        out = []
        for f in st["fields"]:
            # cs before obstruct: obstruct checks its rho against cs's
            out.append(("residual", job(self.residual_job, st, f)))
            out.append(("cs", job(self.cs_job, st, f)))
            out.append(("obstruct", job(self.obstruct_job, st, f)))
        out.append(("fibration", job(self.fibration_job, st, *st["spec"])))
        out.append(("deform", job(self.deform_job, st, *st["deform"])))
        return out

    def residual_job(self, st, f):
        doc = st["cli"](["residual", "--in", f["path"]])
        check(doc["dims"] == f["dims"], "residual dims")
        vals = [doc["r_a"], doc["r_b"], doc["f7_norm"]]
        check(all(math.isfinite(v) and v >= 0 for v in vals), "residuals")
        if f["asd4"] is not None:
            # a lift's 7-component is its base ASD part times sqrt(2/3); an
            # SD base has ASD part 0 up to rounding
            want = math.sqrt(2.0 / 3.0) * f["asd4"]
            check(abs(doc["f7_norm"] - want) <= 1e-10 * want + 1e-12,
                  f"f7 {doc['f7_norm']!r} != sqrt(2/3) ASD {want!r}")
        else:
            check(doc["f7_norm"] > 1e-6, "noisy field has no 7-component")

    def cs_job(self, st, f):
        doc = st["cli"](["cs", "--field", f["path"], "--probe-offsets",
                         str(self.PROBE_OFFSETS),
                         "--seed", str(f["seed"])])
        vals = doc["rho_values"]
        check(len(vals) == 1 + self.PROBE_OFFSETS
              and all(math.isfinite(v) for v in vals),
              "cs probe values")
        check(doc["spread"] == max(vals) - min(vals), "cs spread")
        if f["asd4"] is not None:
            check(abs(vals[0]) < 1e-10, f"rho on a lift {vals[0]!r} != 0")
        f["cs"] = vals[0]

    def obstruct_job(self, st, f):
        rep = st["cli"](["obstruct", "--field", f["path"],
                         "--xi", st["xi"]])["report"]
        check(rep["v"] == list(E1), "obstruct direction")
        check(f["cs"] is not None and rep["rho_value"] == f["cs"],
              "obstruct rho differs from the cs probe on the same field")
        if f["asd4"] is not None:
            check(abs(rep["r_phi_value"] - rep["n_phi_value"]) < 1e-9,
                  f"r_phi {rep['r_phi_value']!r} != eps*q "
                  f"{rep['n_phi_value']!r}")
            check(rep["verdict"] == Verdict.OBSTRUCTED.value,
                  "charged lift not obstructed")
        f["cs"] = None

    def fibration_job(self, st, path, alpha):
        doc = st["cli"](["fibration", "--spec", path])
        G = np.eye(7)
        G[4:, :4] = [[float(x) for x in row] for row in alpha]
        check(np.array_equal(np.array(doc["generator_matrix"]), G),
              "generator matrix")
        M = np.linalg.inv(G)
        want = float(np.abs(M.T @ M - np.eye(7)).max())
        check(abs(doc["orthonormality_residual"] - want) <= 1e-9 * (1 + want),
              f"orthonormality {doc['orthonormality_residual']!r} != {want!r}")
        product = not any(x for row in alpha for x in row)
        check(doc["diagnosis"] == ("product" if product else "non-product"),
              "diagnosis")

    def deform_job(self, st, path, want):
        got = st["cli"](["deform", "--xi", path])["split"]
        for key, w in want.items():
            g = np.array(_values(got[key]))
            check(np.allclose(g, _values(w), rtol=1e-9, atol=1e-12),
                  f"deform block {key}")


def _values(x):
    return [x[k] for k in sorted(x)] if isinstance(x, dict) else x


def _combine(parts):
    """Linear combination of per-basis split JSON: the split is linear in xi,
    so sum c_k split(e_k) is the expected split of sum c_k e_k."""
    out = {}
    for c, split in parts:
        for key, val in split.items():
            if key == "block_norms_sq":
                continue
            v = c * np.array(val, dtype=float)
            out[key] = out[key] + v if key in out else v
    return {k: v.tolist() for k, v in out.items()}


class Workload:
    """Parts run one after the other in every pass.

    Two workloads of two parts each, rather than four of one: a run then
    measures about twice the work within the same total benchmark time,
    which matters on a machine whose speed drifts from run to run.
    """

    def __init__(self, name: str, parts):
        self.name = name
        self.parts = parts
        self.sizes = {part.name: part.sizes for part in parts}

    def fixtures(self):
        return [part.fixtures() for part in self.parts]

    def draw(self, fixtures, rnd, workdir):
        """One pass's job list, on fresh inputs for every part."""
        jobs = []
        for part, fx in zip(self.parts, fixtures):
            sub = os.path.join(workdir, part.name)
            os.makedirs(sub, exist_ok=True)
            jobs += [(f"{part.name}.{kind}", fn)
                     for kind, fn in part.jobs(part.draw(fx, rnd, sub))]
        return jobs


# continuum-cs and fibered-grid share gauge.fourier; lattice-cool and
# lattice-measure share gauge.lattice.  Their job kinds stay separate in the
# spans and per-layer metrics.
WORKLOADS = {w.name: w for w in (
    Workload("continuum", [ContinuumCS(), FiberedGrid()]),
    Workload("lattice", [LatticeCool(), LatticeMeasure()]),
)}
