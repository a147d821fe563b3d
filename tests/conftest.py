import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings, HealthCheck, strategies as st

from g2lab.chernsimons import EIGHT_PI_SQ
from g2lab.exterior import (DimensionMismatch, hodge, interior, is_exact,
                            lex_basis, mat_identity, mat_minor_det, wedge)
from g2lab.g2core import metric_from_phi, standard_structure as _standard
from g2lab.gauge.fourier import _components, _pairing, topological_charge
from g2lab.gauge.lattice import _sd_asd, su2  # noqa: F401  (su2 is imported by the tests)

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


#: exact scalars for the integer kernels: p/q with q of either sign, and ints
exact_scalars = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(-6, 6).filter(bool)),
    st.integers(-5, 5))


def leibniz_det(m):
    """det m = sum over permutations s of sign(s) prod_i m[i][s(i)], in the
    scalar type of m: no elimination, no pivots."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        term = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        for row, col in enumerate(perm):
            term = term * m[row][col]
        total = total + term
    return total


def fraction_gauss_jordan_inverse(m):
    """m^-1 by Gauss-Jordan in Fractions, pivoting on the largest entry and
    normalising each pivot row; ValueError for a singular m."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _complex(re, im):
    """re + i im with the bits of both parts, signed zeros included."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), complex)
    out.real, out.imag = re, im
    return out


def whole_matrices(x):
    """Row-0 arrays u or (a, b) on axis 0 as matrix-last (..., r, r) matrices,
    su2 row 1 (-conj b, conj a) spelled with 0 - x, as snapshots hold it."""
    if len(x) == 1:
        return x[0][..., None, None]
    a, b = x
    row1 = [_complex(0.0 - b.real, b.imag), _complex(a.real, 0.0 - a.imag)]
    return np.moveaxis(np.array([[a, b], row1]), (0, 1), (-2, -1))


def four_entry_mul(*factors):
    """factors[0] @ factors[1] @ ... for row-0 su2 arrays (2, *sites): each
    factor expanded to [[a, b], [-conj b, conj a]], each of the four entries
    of every 2x2 product summed out on its own, and row 0 of the product
    returned: the oracle for _mul's row-0 product."""
    m = [np.moveaxis(whole_matrices(f), (-2, -1), (0, 1)) for f in factors]
    a, b = m[0], m[-1]
    for f in m[1:-1]:
        a = [[a[i][0] * f[0, j] + a[i][1] * f[1, j] for j in (0, 1)] for i in (0, 1)]
    out = np.empty((2, 2, *np.broadcast_shapes(a[0][0].shape, b.shape[2:])), complex)
    for i, j in itertools.product((0, 1), repeat=2):
        np.add(np.multiply(a[i][0], b[0, j], out=out[i, j]), a[i][1] * b[1, j], out=out[i, j])
    return out[0]


def wedge_b_matrix(phi):
    """B_ij = -(1/6) top((e_i -| phi) ^ (e_j -| phi) ^ phi), read against
    -e^{1..7}, by ConstForm interior products and two wedges per entry."""
    exact = all(is_exact(c) for c in phi.coeffs.values())
    one_sixth = Fraction(1, 6) if exact else (1.0 / 6.0)
    contr = [interior(e, phi) for e in mat_identity(7, exact)]
    top = (1, 2, 3, 4, 5, 6, 7)
    B = [[None] * 7 for _ in range(7)]
    for i, j in itertools.combinations_with_replacement(range(7), 2):
        B[i][j] = B[j][i] = -(wedge(wedge(contr[i], contr[j]), phi)[top]) * one_sixth
    return B


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


def _vdot_norm_sq(c) -> float:
    """The sum of |c_ij|^2 over r x r coefficients, as FourierField.norm_sq sums it."""
    return float(np.vdot(c, c).real)


def ym_energy_4d(F) -> dict:
    """Yang-Mills energy split into SD and ASD parts, plus the charge.

    SD means the +1 eigenspace of the flat Hodge star with the +e^{1234}
    orientation: the e^{12}+e^{34} family, which is the chirality whose
    lifts are instantons.  Parseval makes every number exact in the modes;
    the split is the lattice one, applied to the mode stack.
    """
    if F.dim != 4:
        raise ValueError("expected a 4D field")
    sd, asd = (0.5 * sum(_vdot_norm_sq(x) for x in part) for part in _sd_asd(_components(F)))
    return {"total": sd + asd, "sd_part": sd, "asd_part": asd, "q": topological_charge(F)}


def energy_decomposition_7d(F, s) -> dict:
    """Split the 7D energy by the two curvature eigenspaces.

    kappa_integral is computed independently by integrating -tr(F^F)^phi
    and must match lambda7*F7sq + lambda14*F14sq by the eigen-calculus.
    """
    if F.dim != 7:
        raise ValueError("expected a 7D field")
    comps = _components(F)
    f7sq, f14sq = (_vdot_norm_sq(np.tensordot(p, comps, axes=(1, 0)))
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
    keeping the real ASD fraction, so that no trial step is ever accepted.
    Cooling that stops at its first step measures the start field and 30
    trials, and the fixture checks that it saw at least those."""
    from g2lab.gauge import lattice
    measure, calls = lattice._measure, []

    def rising(U):
        en, P, D = measure(U)
        calls.append(U)
        return {**en, "asd_sq": float(len(calls))}, P, D

    monkeypatch.setattr(lattice, "_measure", rising)
    yield
    assert len(calls) >= 31, f"saw {len(calls)} measurements, not the start field and 30 trials"


def p14_array(s) -> np.ndarray:
    """The projector 1 - p7 onto Lambda^2_14 of the G2 structure ``s``,
    taken in the structure's arithmetic and then as floats."""
    return np.array([[float((i == j) - Fraction(x) / s.p7_den)
                      for j, x in enumerate(row)] for i, row in enumerate(s.p7)])


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
    m = whole_matrices(U.links)
    d = np.abs(m @ np.conj(np.swapaxes(m, -1, -2)) - np.eye(U.rank)).max()
    if U.group == "su2":
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        d = max(float(d), float(np.abs(det - 1.0).max()))
    return float(d)
