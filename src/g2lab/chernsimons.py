"""The Chern-Simons functional on the 7-torus and its obstruction pipeline.

theta(a) integrates tr(da ^ a + 2/3 a^3) against the coassociative 4-form;
its differential rho vanishes exactly at instantons.  Perturbing the
4-form by a class transverse to the fibred structures turns rho, evaluated
on translation tangents, into a nonvanishing linear functional proportional
to the topological charge: the deformation obstruction.

All integrals run in lattice-adapted coordinates, where the torus is the
unit cube and the structure forms are the standard constants; Jacobian
factors would enter only through the generator matrix and are applied
nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exterior import ConstForm, interior
from .fibration import (DeformationSplit, FibrationSpec, TorusFibration,
                        build_fibration, decompose_deformation)
from .g2core import G2Structure, standard_structure
from .gauge.fourier import CurvatureField, FourierField, curvature, topological_charge
from .gauge.lattice import (_BASE_PLANES, _PLANES7, _charge, _clover_stack,
                            _cs_integral, su2)
from .rng import SplitMix64

EIGHT_PI_SQ = 8.0 * np.pi ** 2


@dataclass(frozen=True)
class CSContext:
    """Fibration, structure, and the quadrature convention for CS integrals.

    The reference connection is the zero potential of the trivial sector;
    the functional on nontrivial sectors is never evaluated directly, only
    its differential rho is.
    """

    fib: TorusFibration
    s: G2Structure

    def __post_init__(self):
        if self.s is not self.fib.g2 and self.s.phi.coeffs != self.fib.g2.phi.coeffs:
            raise ValueError("structure must come from the fibration")

    @staticmethod
    def standard() -> "CSContext":
        """The standard fibration's context, built on first use and shared
        (read-only) afterwards, like ``g2core.standard_structure()``."""
        global _STANDARD
        if _STANDARD is None:
            fib = build_fibration(FibrationSpec.standard())
            _STANDARD = CSContext(fib, fib.g2)
        return _STANDARD

    def adapted(self) -> G2Structure:
        return standard_structure()


_STANDARD: CSContext | None = None


def _integral_against(field: FourierField, four_form: ConstForm) -> float:
    """Re of the integral of tr(field) ^ four_form over the unit torus."""
    return float(np.real(field.trace().wedge_const(four_form).integrate_top()))


def cs_one_form(ctx: CSContext, F: CurvatureField, b: FourierField) -> float:
    """rho_A(b): the integral of tr(F_A ^ b) ^ star_phi.

    Vanishes for every b exactly when F has no 7-component; linear in b.
    """
    if F.dim != 7 or b.dim != 7 or b.degree != 1:
        raise ValueError("expected 7D curvature and a 7D 1-form direction")
    if F.group_rank != b.group_rank:
        raise ValueError("group rank mismatch")
    star_phi = ctx.adapted().star_phi.to_double()
    return _integral_against(F.full_field().wedge(b), star_phi)


def cs_functional(ctx: CSContext, a: FourierField) -> float:
    """theta(a) = 1/2 integral of tr(da ^ a + 2/3 a^3) ^ star_phi.

    Normalized so theta vanishes at the flat reference connection; the
    cubic term drops in the abelian case.
    """
    if a.dim != 7 or a.degree != 1:
        raise ValueError("expected a 7D 1-form potential")
    star_phi = ctx.adapted().star_phi.to_double()
    val = _integral_against(a.d().wedge(a), star_phi)
    if a.group_rank > 1:
        val += (2.0 / 3.0) * _integral_against(a.wedge(a).wedge(a), star_phi)
    return 0.5 * val


def default_detour(a: FourierField) -> FourierField:
    """A deterministic direction transverse to the ray through ``a``.

    Reweights each mode by 1 + |m|_1 so the quadratic path genuinely leaves
    the line spanned by ``a``.
    """
    w = 1.0 + np.abs(a.freqs).sum(axis=1)
    return FourierField(a.dim, a.degree, a.group_rank, a.cutoff,
                        a.freqs, a.masks, a.coeffs * w[:, None, None])


def path_integrate(ctx: CSContext, a: FourierField, n_steps: int = 64,
                   path: str = "linear", detour: FourierField | None = None) -> float:
    """Integrate rho along a path from 0 to ``a`` by Simpson quadrature.

    ``linear`` takes A(t) = t a; ``quadratic-detour`` adds t(1-t) c for a
    detour direction c.  Both must agree with cs_functional up to
    quadrature error: the 1-form is the differential of the functional and
    the result is path independent.
    """
    if n_steps < 16 or n_steps % 2:
        raise ValueError("n_steps must be even and >= 16")
    if path not in ("linear", "quadratic-detour"):
        raise ValueError(f"unknown path {path!r}")
    c = None
    if path == "quadratic-detour":
        c = detour if detour is not None else default_detour(a)

    def rho_at(t: float) -> float:
        At = a.scale(t)
        dAt = a
        if c is not None:
            At = At + c.scale(t * (1.0 - t))
            dAt = dAt + c.scale(1.0 - 2.0 * t)
        return cs_one_form(ctx, curvature(At), dAt)

    h = 1.0 / n_steps
    total = rho_at(0.0) + rho_at(1.0)
    for k in range(1, n_steps):
        total += (4.0 if k % 2 else 2.0) * rho_at(k * h)
    return total * h / 3.0


def closedness_residual(ctx: CSContext, A: FourierField | None,
                        a: FourierField, b: FourierField) -> float:
    """|integral of tr(d_A a ^ b - a ^ d_A b) ^ star_phi|.

    Vanishes by Stokes because the coassociative form is constant; this is
    the closedness of rho as a 1-form on the space of connections.
    """
    star_phi = ctx.adapted().star_phi.to_double()

    def d_cov(x: FourierField) -> FourierField:
        out = x.d()
        if A is not None and A.group_rank > 1:
            out = out + A.wedge(x) + x.wedge(A)
        return out

    val = _integral_against(d_cov(a).wedge(b), star_phi) \
        - _integral_against(a.wedge(d_cov(b)), star_phi)
    return abs(val)


def translation_tangent(F: CurvatureField, v) -> FourierField:
    """beta_v = v -| F, the tangent generated by translating along v.

    Globally defined even on nontrivial bundles, since it contracts the
    tensorial curvature rather than the potential.
    """
    if len(v) != F.dim:
        raise ValueError("vector dimension mismatch")
    return F.full_field().contract(v)


def _probe_curvature(F: CurvatureField, offset: FourierField, h: float) -> CurvatureField:
    """Curvature at A + h*offset given the curvature at A.

    The cross term [A, offset] requires a global potential; it vanishes for
    abelian fields and for offsets commuting with the holonomy, which are
    the probes used here.
    """
    dF = offset.d().scale(h) + offset.wedge(offset).scale(h * h)
    return CurvatureField((F.fluctuation + dF).prune(), flux=F.flux,
                          truncation_error=F.truncation_error)


def random_offsets(dim: int, group_rank: int, count: int, seed: int,
                   cutoff: int = 2) -> list:
    """Seeded real 1-form fields used as probe directions."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        f = FourierField.zero(dim, 1, group_rank, cutoff)
        for _ in range(4):
            m = tuple(int(rng.uniform() * (2 * cutoff + 1)) - cutoff
                      for _ in range(dim))
            i = (int(rng.uniform() * dim) + 1,)
            if group_rank == 1:
                c = rng.gauss() + 1j * rng.gauss()
            else:
                c = su2([rng.gauss() for _ in range(3)])
            f.add_coeff(m, i, c)
        out.append(f.symmetrized())
    return out


def rho_on_translation(ctx: CSContext, F: CurvatureField, v,
                       offsets, h: float = 0.1) -> list:
    """Evaluate rho(beta_v) at probe points A + h*offset.

    The values are all equal (translation invariance of the integrand plus
    d(v -| star_phi) = 0), so the spread over probes measures quadrature
    noise only.  The contraction v -| star_phi is checked to be constant
    before integrating, which here is automatic.
    """
    star_phi = ctx.adapted().star_phi
    contracted = interior([float(x) for x in v], star_phi.to_double())
    if contracted.degree != 3:
        raise RuntimeError("contraction degree")
    values = []
    for off in offsets:
        Fp = _probe_curvature(F, off, h)
        beta = translation_tangent(Fp, v)
        values.append(cs_one_form(ctx, Fp, beta))
    return values


def perturbed_rho(ctx: CSContext, F: CurvatureField, b: FourierField,
                  xi: ConstForm, normalized: bool = True) -> float:
    """(r_phi)_A(b): the integral of tr(F ^ b) ^ xi.

    ``normalized`` divides by 8 pi^2 so that on translation tangents the
    value reads directly in charge units: for xi = -2 eps ^ e567 and a
    lifted field of charge q it equals eps(v) * q.
    """
    if xi.dim != 7 or xi.degree != 4:
        raise ValueError("expected a 4-form perturbation")
    val = _integral_against(F.full_field().wedge(b), xi.to_double())
    return val / EIGHT_PI_SQ if normalized else val


def pairing_oracle(ctx: CSContext, F: CurvatureField, v, xi: ConstForm) -> float:
    """-1/2 integral of tr(F ^ F) ^ (v -| xi), in charge units.

    Integration by parts identity for r_phi(beta_v) with constant xi; used
    as an independent cross-check of perturbed_rho.
    """
    contracted = interior([float(x) for x in v], xi.to_double())
    full = F.full_field()
    val = _integral_against(full.wedge(full), contracted)
    return -0.5 * val / EIGHT_PI_SQ


class Verdict(str, Enum):
    SURVIVES = "instanton-survives"
    OBSTRUCTED = "instanton-obstructed"


@dataclass(frozen=True)
class ObstructionReport:
    xi: ConstForm
    split: DeformationSplit
    v: tuple
    rho_value: float
    r_phi_value: float
    n_phi_value: float
    q: float
    verdict: Verdict
    tolerance: float

    def to_json_dict(self) -> dict:
        return {
            "xi": self.xi.to_json_dict(),
            "split": self.split.to_json_dict(),
            "v": [float(x) for x in self.v],
            "rho_value": self.rho_value,
            "r_phi_value": self.r_phi_value,
            "n_phi_value": self.n_phi_value,
            "q": self.q,
            "verdict": self.verdict.value,
            "tolerance": self.tolerance,
        }


def _verdict(xi: ConstForm, tol: float, measure) -> ObstructionReport:
    """Decompose xi, pick the unit base translation v maximizing |eps(v)|
    for the transverse block eps = -c_IV/2, and threshold r_phi(beta_v) at
    10 tol.  ``measure(v)`` returns (q, rho(beta_v), r_phi(beta_v))."""
    split = decompose_deformation(xi)
    eps = [-float(c) / 2.0 for c in split.c_iv]
    best = int(np.argmax([abs(e) for e in eps]))
    v = tuple(1.0 if i == best else 0.0 for i in range(7))
    q, rho_val, r_phi = measure(v)
    verdict = Verdict.OBSTRUCTED if abs(r_phi) > 10.0 * tol else Verdict.SURVIVES
    return ObstructionReport(xi=xi, split=split, v=v, rho_value=rho_val,
                             r_phi_value=r_phi, n_phi_value=eps[best] * q, q=q,
                             verdict=verdict, tolerance=tol)


def obstruction_verdict(ctx: CSContext, F: CurvatureField, xi: ConstForm,
                        tol: float = 1e-9) -> ObstructionReport:
    """Does the perturbed structure still admit this instanton family?

    Tests the linear functional r_phi(beta_v) along the transverse base
    translation (see _verdict).  Obstructed exactly when the charge and the
    transverse block are both nonzero; the numeric verdict uses a
    10x-tolerance threshold to separate signal from quadrature rounding.
    """
    def measure(v):
        beta = translation_tangent(F, v)
        return (topological_charge(_restrict_base(F)),
                cs_one_form(ctx, F, beta),
                perturbed_rho(ctx, F, beta, xi, normalized=True))
    return _verdict(xi, tol, measure)


# ---------------------------------------------------------------------------
# lattice (site-sum) quadrature


def rho_lattice(ctx: CSContext, U, v) -> float:
    """rho(beta_v) by site-sum quadrature on a 7D lattice field."""
    return _cs_integral(U, _clover_stack(U, _PLANES7), v,
                        ctx.adapted().star_phi)


def perturbed_rho_lattice(ctx: CSContext, U, v, xi: ConstForm,
                          normalized: bool = True) -> float:
    """(r_phi)(beta_v) by site-sum quadrature, in charge units if normalized."""
    val = _cs_integral(U, _clover_stack(U, _PLANES7), v, xi)
    return val / EIGHT_PI_SQ if normalized else val


def obstruction_verdict_lattice(ctx: CSContext, U, xi: ConstForm,
                                tol: float = 0.05) -> ObstructionReport:
    """Lattice analogue of obstruction_verdict, with clover charge and
    site-sum quadrature; the tolerance reflects discretization error.  One
    clover pass over the 21 planes serves q, rho and r_phi."""
    F = _clover_stack(U, _PLANES7)

    def measure(v):
        return (_charge(U, F[_BASE_PLANES]),
                _cs_integral(U, F, v, ctx.adapted().star_phi),
                _cs_integral(U, F, v, xi) / EIGHT_PI_SQ)
    return _verdict(xi, tol, measure)


def _restrict_base(F: CurvatureField) -> CurvatureField:
    """Base 4-torus field under a lifted 7D field (fiber modes must vanish)."""
    if F.dim == 4:
        return F
    fl = F.fluctuation
    if fl.freqs[:, 4:].any():
        raise ValueError("field is not a lift: fiber frequencies present")
    if (fl.masks >> 4).any():
        raise ValueError("field is not a lift: fiber legs present")
    out = FourierField(4, 2, fl.group_rank, fl.cutoff,
                       fl.freqs[:, :4], fl.masks, fl.coeffs)
    return CurvatureField(out, flux=F.flux, truncation_error=F.truncation_error)
