import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings, HealthCheck

from g2lab.chernsimons import EIGHT_PI_SQ
from g2lab.exterior import (DimensionMismatch, hodge, interior, is_exact,
                            lex_basis, mat_minor_det, wedge)
from g2lab.g2core import metric_from_phi, standard_structure as _standard
from g2lab.gauge.fourier import _components, _pairing, topological_charge
from g2lab.gauge.lattice import (  # noqa: F401  (su2 is imported by the tests)
    _chirality, _dag, _mul, _norm_sq, _sd_asd, su2,
)

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def standard_structure():
    return _standard()


@pytest.fixture(scope="session")
def cs_context():
    from g2lab.chernsimons import CSContext
    return CSContext.standard()


@pytest.fixture(scope="session")
def standard_fibration(cs_context):
    return cs_context.fib


# ---------------------------------------------------------------------------
# Oracles: independent formulas that the tests compare g2lab's pipeline with.


def form_inner(a, b, g=None):
    """Inner product on Lambda^k induced by g (Gram determinants)."""
    a._check_same(b)
    if g is None:
        return sum((a.coeffs[k] * b.coeffs[k] for k in a.coeffs.keys() & b.coeffs.keys()),
                   start=0)
    if g.dim != a.dim:
        raise DimensionMismatch("metric dim")
    ginv = g.inverse_matrix()
    total = 0
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            total = total + ca * cb * mat_minor_det(ginv, ia, ib)
    return total


def energy_report(F7sq, F14sq) -> dict:
    """Yang-Mills energy and the kappa charge from the two component norms.

    kappa follows the -2/+1 weight convention, which matches the realized
    eigenvalues of the standard structure (lambda7 = -2, lambda14 = +1).
    """
    if F7sq < 0 or F14sq < 0:
        raise ValueError("component norms must be nonnegative")
    ym = F7sq + F14sq
    kappa = -2 * F7sq + F14sq
    return {
        "ym": ym,
        "kappa": kappa,
        "identity_residuals": {
            "ym_minus_half_kappa": ym - (-kappa / 2 + 3 * F14sq / 2),
            "ym_kappa_plus_3f7": ym - (kappa + 3 * F7sq),
        },
    }


def instanton_residual(F, s) -> dict:
    """Residuals of the two equivalent instanton equations plus |p7 F|.

    All three vanish simultaneously, exactly when F has no component in the
    7-dimensional eigenspace.  Norms use the g(phi)-induced inner products.
    """
    g = s.metric
    wa = wedge(F, s.star_phi)
    r_a = math.sqrt(max(float(form_inner(wa, wa, g)), 0.0))
    tf = hodge(wedge(F, s.phi), s.metric, metric_from_phi(s.phi)[1])
    inv14 = (Fraction(1) / Fraction(s.lambda14)) if is_exact(s.lambda14) \
        else 1.0 / float(s.lambda14)
    diff = F - tf.scale(inv14)
    r_b = math.sqrt(max(float(form_inner(diff, diff, g)), 0.0))
    f7 = s.apply_p7(F)
    f7_norm = math.sqrt(max(float(form_inner(f7, f7, g)), 0.0))
    return {"r_a": r_a, "r_b": r_b, "f7_norm": f7_norm}


def xi_from_perturbation(phi, dphi):
    """Exact coassociative deformation star(phi + dphi) - star(phi)."""
    g0, o0 = metric_from_phi(phi)
    phi1 = phi + dphi
    g1, o1 = metric_from_phi(phi1)
    return hodge(phi1, g1, o1) - hodge(phi, g0, o0)


def closedness_residual(A, a, b) -> float:
    """|integral of tr(d_A a ^ b - a ^ d_A b) ^ star_phi|.

    Vanishes by Stokes because the coassociative form is constant; this is
    the closedness of rho as a 1-form on the space of connections.
    """
    star_phi = _standard().star_phi.to_double()

    def d_cov(x):
        out = x.d()
        if A is not None and A.group_rank > 1:
            out = out + A.wedge(x) + x.wedge(A)
        return out

    val = _pairing(d_cov(a), b, star_phi) - _pairing(a, d_cov(b), star_phi)
    return abs(val)


def pairing_oracle(ctx, F, v, xi) -> float:
    """-1/2 integral of tr(F ^ F) ^ (v -| xi), in charge units.

    Integration by parts identity for r_phi(beta_v) with constant xi; used
    as an independent cross-check of obstruction_verdict's r_phi.
    """
    contracted = interior([float(x) for x in v], xi.to_double())
    val = _pairing(F, F, contracted)
    return -0.5 * val / EIGHT_PI_SQ


def convolution_pairing(a, b, form) -> float:
    """Re of the integral of tr(a ^ b) ^ form by mode convolution: the trace
    of the zero-mode top coefficient of the whole product a ^ b ^ form."""
    zero = a.wedge(b).wedge_const(form).modes.get((0,) * a.dim, {})
    top = zero.get(tuple(range(1, a.dim + 1)))
    return 0.0 if top is None else float(np.trace(top).real)


def ym_energy_4d(F) -> dict:
    """Yang-Mills energy split into SD and ASD parts, plus the charge.

    SD means the +1 eigenspace of the flat Hodge star with the +e^{1234}
    orientation: the e^{12}+e^{34} family, which is the chirality whose
    lifts are instantons.  Parseval makes every number exact in the modes;
    the split is the lattice one, applied to the mode stack.
    """
    if F.dim != 4:
        raise ValueError("expected a 4D field")
    en = _chirality(_components(F))
    return {"total": en["total"], "sd_part": en["sd_sq"],
            "asd_part": en["asd_sq"], "q": topological_charge(F)}


def energy_decomposition_7d(F, s) -> dict:
    """Split the 7D energy by the two curvature eigenspaces.

    kappa_integral is computed independently by integrating -tr(F^F)^phi
    and must match lambda7*F7sq + lambda14*F14sq by the eigen-calculus.
    """
    if F.dim != 7:
        raise ValueError("expected a 7D field")
    comps = _components(F)
    f7sq, f14sq = (_norm_sq(np.tensordot(p, comps, axes=(1, 0)))
                   for p in (s.p7_array(), p14_array(s)))
    kappa = -_pairing(F, F, s.phi)
    lam7 = float(s.lambda7)
    lam14 = float(s.lambda14)
    return {
        "F7sq": f7sq, "F14sq": f14sq, "ym": f7sq + f14sq,
        "kappa_integral": kappa,
        "identity_residual": abs(kappa - (lam7 * f7sq + lam14 * f14sq)),
    }


@pytest.fixture
def rising_energies(monkeypatch):
    """Make every ASD energy that cooling measures larger than the one before,
    keeping the real ASD fraction, so that no trial step is ever accepted."""
    from g2lab.gauge import lattice
    measure, calls = lattice.plaquette_chirality_energies, itertools.count(1)
    monkeypatch.setattr(lattice, "plaquette_chirality_energies",
                        lambda U: {**measure(U), "asd_sq": float(next(calls))})


def p14_array(s) -> np.ndarray:
    """The projector 1 - p7 onto Lambda^2_14 of the G2 structure ``s``,
    taken in the structure's arithmetic and then as floats."""
    return np.array([[float((i == j) - x) for j, x in enumerate(row)]
                     for i, row in enumerate(s.p7)])


def reality_defect(a) -> float:
    """max |c_{-m} + c_m^dagger| of a Fourier field; zero for a real
    Lie-algebra field."""
    return float(np.abs((a + a._reflected()).coeffs).max(initial=0.0))


def asd_defect_form(F) -> np.ndarray:
    """Components of the 4D ASD defect (F34-F12, F42-F13, F23-F14).

    For a constant-flux abelian field these are the three matrix
    coefficients whose norms control the 7D residual of the lift.
    """
    d = F.modes.get((0,) * F.dim, {})
    z = np.zeros((F.group_rank,) * 2, dtype=complex)
    return -np.stack(_sd_asd([d.get(idx, z) for idx in lex_basis(4, 2)])[1])


def unitarity_defect(U) -> float:
    """Largest entry of U U^+ - 1 over all links, and for su2 of det U - 1."""
    u = U.links
    d = np.abs(np.moveaxis(_mul(u, _dag(u)), (0, 1), (-2, -1)) - np.eye(U.rank)).max()
    if U.group == "su2":
        det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        d = max(float(d), float(np.abs(det - 1.0).max()))
    return float(d)
