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

from .exterior import ConstForm
from .fibration import (DeformationSplit, FibrationSpec, TorusFibration,
                        build_fibration, decompose_deformation)
from .g2core import standard_structure
from .gauge.fourier import FourierField, _pairing, curvature
from .gauge.lattice import (_BASE_PLANES, _PLANES7, _charge, _clover_stack,
                            _cs_integral, su2)
from .rng import SplitMix64

EIGHT_PI_SQ = 8.0 * np.pi ** 2


@dataclass(frozen=True)
class CSContext:
    """Fibration and the quadrature convention for CS integrals.

    The reference connection is the zero potential of the trivial sector;
    the functional on nontrivial sectors is never evaluated directly, only
    its differential rho is.
    """

    fib: TorusFibration

    @staticmethod
    def standard() -> "CSContext":
        """The standard fibration's context, built on first use and shared
        (read-only) afterwards, like ``g2core.standard_structure()``."""
        global _STANDARD
        if _STANDARD is None:
            _STANDARD = CSContext(build_fibration(FibrationSpec.standard()))
        return _STANDARD


_STANDARD: CSContext | None = None


def cs_one_form(ctx: CSContext, F: FourierField, b: FourierField) -> float:
    """rho_A(b): the integral of tr(F_A ^ b) ^ star_phi.

    Vanishes for every b exactly when F has no 7-component; linear in b.
    """
    if F.dim != 7 or b.dim != 7 or b.degree != 1:
        raise ValueError("expected 7D curvature and a 7D 1-form direction")
    if F.group_rank != b.group_rank:
        raise ValueError("group rank mismatch")
    return _pairing(F, b, standard_structure().star_phi)


def cs_functional(ctx: CSContext, a: FourierField) -> float:
    """theta(a) = 1/2 integral of tr(da ^ a + 2/3 a^3) ^ star_phi.

    Normalized so theta vanishes at the flat reference connection; the
    cubic term drops in the abelian case.
    """
    if a.dim != 7 or a.degree != 1:
        raise ValueError("expected a 7D 1-form potential")
    star_phi = standard_structure().star_phi
    val = _pairing(a.d(), a, star_phi)
    if a.group_rank > 1:
        val += (2.0 / 3.0) * _pairing(a.wedge(a), a, star_phi)
    return 0.5 * val


def path_integrate(ctx: CSContext, a: FourierField, n_steps: int = 64,
                   path: str = "linear") -> float:
    """Integrate rho along a path from 0 to ``a`` by Simpson quadrature.

    ``linear`` takes A(t) = t a; ``quadratic-detour`` adds t(1-t) c, where
    c reweights each mode of ``a`` by 1 + |m|_1 so the path leaves the line
    through ``a``.  Both must agree with cs_functional up to quadrature
    error: the 1-form is the differential of the functional and the result
    is path independent.
    """
    if n_steps < 16 or n_steps % 2:
        raise ValueError("n_steps must be even and >= 16")
    if path not in ("linear", "quadratic-detour"):
        raise ValueError(f"unknown path {path!r}")
    c = None
    if path == "quadratic-detour":
        w = 1.0 + np.abs(a.freqs).sum(axis=1)
        c = FourierField(a.dim, a.degree, a.group_rank, a.cutoff,
                         a.freqs, a.masks, a.coeffs * w[:, None, None])
    star_phi = standard_structure().star_phi

    def rho_at(t: float) -> float:
        At = a.scale(t)
        dAt = a
        if c is not None:
            At = At + c.scale(t * (1.0 - t))
            dAt = dAt + c.scale(1.0 - 2.0 * t)
        return _pairing(curvature(At), dAt, star_phi)

    h = 1.0 / n_steps
    total = rho_at(0.0) + rho_at(1.0)
    for k in range(1, n_steps):
        total += (4.0 if k % 2 else 2.0) * rho_at(k * h)
    return total * h / 3.0


def _probe_curvature(F: FourierField, offset: FourierField) -> FourierField:
    """Curvature at A + h*offset, h = 0.1, given the curvature at A.

    The cross term [A, offset] requires a global potential; it vanishes for
    abelian fields and for offsets commuting with the holonomy, which are
    the probes used here.
    """
    h = 0.1
    dF = offset.d().scale(h) + offset.wedge(offset).scale(h * h)
    return F + dF


def random_offsets(dim: int, group_rank: int, count: int, seed: int) -> list:
    """Seeded real 1-form fields with modes up to 2, used as probe directions."""
    cutoff = 2
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


def rho_on_translation(ctx: CSContext, F: FourierField, v, offsets) -> list:
    """Evaluate rho(beta_v) at probe points A + 0.1 offset.

    The values are all equal (translation invariance of the integrand plus
    d(v -| star_phi) = 0), so the spread over probes measures quadrature
    noise only.
    """
    star_phi = standard_structure().star_phi
    values = []
    for off in offsets:
        probe = _probe_curvature(F, off)
        values.append(_pairing(probe, probe.contract(v), star_phi))
    return values


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
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance {tol!r} must be finite and > 0")
    split = decompose_deformation(xi)
    eps = [-float(c) / 2.0 for c in split.c_iv]
    best = int(np.argmax([abs(e) for e in eps]))
    v = tuple(1.0 if i == best else 0.0 for i in range(7))
    q, rho_val, r_phi = measure(v)
    verdict = Verdict.OBSTRUCTED if abs(r_phi) > 10.0 * tol else Verdict.SURVIVES
    return ObstructionReport(xi=xi, split=split, v=v, rho_value=rho_val,
                             r_phi_value=r_phi, n_phi_value=eps[best] * q, q=q,
                             verdict=verdict, tolerance=tol)


def obstruction_verdict(ctx: CSContext, F: FourierField, xi: ConstForm,
                        tol: float = 1e-9) -> ObstructionReport:
    """Does the perturbed structure still admit this instanton family?

    Tests the linear functional r_phi(beta_v) along the transverse base
    translation (see _verdict).  Obstructed exactly when the charge and the
    transverse block are both nonzero; the numeric verdict uses a
    10x-tolerance threshold to separate signal from quadrature rounding.
    """
    def measure(v):
        beta = F.contract(v)
        # tr(F ^ F) ^ e^567: the base charge averaged over the fiber
        return (_pairing(F, F, ConstForm(7, 3, {(5, 6, 7): 1.0})) / EIGHT_PI_SQ,
                _pairing(F, beta, standard_structure().star_phi),
                _pairing(F, beta, xi) / EIGHT_PI_SQ)
    return _verdict(xi, tol, measure)


# ---------------------------------------------------------------------------
# lattice (site-sum) quadrature


def rho_lattice(ctx: CSContext, U, v) -> float:
    """rho(beta_v) by site-sum quadrature on a 7D lattice field."""
    return _cs_integral(U, _clover_stack(U, _PLANES7), v,
                        standard_structure().star_phi)


def perturbed_rho_lattice(ctx: CSContext, U, v, xi: ConstForm) -> float:
    """(r_phi)(beta_v) by site-sum quadrature, in charge units."""
    return _cs_integral(U, _clover_stack(U, _PLANES7), v, xi) / EIGHT_PI_SQ


def obstruction_verdict_lattice(ctx: CSContext, U, xi: ConstForm,
                                tol: float = 0.05) -> ObstructionReport:
    """Lattice analogue of obstruction_verdict, with clover charge and
    site-sum quadrature; the tolerance reflects discretization error.  One
    clover pass over the 21 planes serves q, rho and r_phi."""
    F = _clover_stack(U, _PLANES7)
    base = F[_BASE_PLANES].imag if U.rank == 1 else F[_BASE_PLANES]

    def measure(v):
        return (_charge(U, base),
                _cs_integral(U, F, v, standard_structure().star_phi),
                _cs_integral(U, F, v, xi) / EIGHT_PI_SQ)
    return _verdict(xi, tol, measure)

