"""Exact structure identities and the two-eigenvalue spectral calculus."""

import contextlib
import io
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from g2lab import cli, g2core
from g2lab.chernsimons import CSContext, obstruction_verdict, path_integrate
from g2lab.exterior import (ConstForm, hodge, interior, is_exact, lex_basis,
                            wedge)
from g2lab.fibration import FibrationSpec, build_fibration
from g2lab.g2core import (
    UnstableForm, eigen_split, metric_from_phi, standard_phi,
    standard_star_phi,
)
from g2lab.gauge.fourier import FourierField, constant_curvature_u1, lift_to_7d

from conftest import energy_report, exact_scalars, instanton_residual, wedge_b_matrix


def test_coassociative_dual_closed_form(standard_structure):
    s = standard_structure
    assert (s.star_phi - standard_star_phi()).is_zero()
    # and it is genuinely the Hodge dual under the induced metric
    o = metric_from_phi(s.phi)[1]
    assert (hodge(s.phi, s.metric, o) - s.star_phi).is_zero()


def test_model_metric_is_identity():
    g, o = metric_from_phi(standard_phi())
    for i in range(7):
        for j in range(7):
            assert g.mat[i][j] == (1 if i == j else 0)
    assert o.sign == 1
    vol = hodge(ConstForm(7, 0, {(): 1}), g, o)
    assert (vol - ConstForm.basis(7, tuple(range(1, 8)))).is_zero()


def test_metric_equivariance_under_scaling():
    """phi -> c^3 phi rescales the metric by c^2 (conformal weight)."""
    c = Fraction(2)
    g, _ = metric_from_phi(standard_phi().scale(c ** 3))
    for i in range(7):
        assert g.mat[i][i] == c ** 2


def test_unstable_form_rejected():
    with pytest.raises((UnstableForm, ValueError)):
        metric_from_phi(ConstForm.basis(7, (1, 2, 3)))


# doubles that cancel, and tiny ones whose products underflow to signed zeros
b_floats = st.sampled_from([1.0, -1.0, 2.0, 0.5, 0.1, 1e-170, -1e-160]) | st.floats(-1e3, 1e3)
three_forms = st.dictionaries(st.sampled_from(lex_basis(7, 3)), exact_scalars, min_size=1) | \
    st.dictionaries(st.sampled_from(lex_basis(7, 3)), b_floats | exact_scalars, min_size=1)
# the exact phi of a twisted rational fibration: 28 terms, denominators up to 3717
_TWISTED = build_fibration(FibrationSpec(
    FibrationSpec.standard().eta,
    [[2, Fraction(1, 3), 0], [0, 1, Fraction(1, 2)], [Fraction(-1, 5), 0, 1]],
    [[Fraction(3, 5), 0, Fraction(1, 7), 0], [0, Fraction(-7, 2), 0, 0],
     [Fraction(2, 9), 0, 0, Fraction(4, 3)]])).phi


@given(three_forms)
@example(standard_phi().coeffs)
@example(standard_phi().to_double().coeffs)
@example(_TWISTED.coeffs)
# float sums of more than two terms, whose order shows in the last bits
@example({k: math.sqrt(i + 2) * (-1) ** i for i, k in enumerate(lex_basis(7, 3))})
# top coefficients that cancel to +0.0
@example({(1, 3, 7): -1.0, (1, 5, 6): -1.0, (1, 5, 7): -1.0, (2, 3, 7): 1.0,
          (2, 4, 5): 2.0, (2, 5, 6): 1.0, (2, 5, 7): -1.0, (3, 4, 6): 0.5})
def test_b_matrix_is_the_wedge_spelling(coeffs):
    """metric_from_phi's B equals the ConstForm wedge spelling: == for exact
    phi, to the byte (signed zeros included) for doubles."""
    phi = ConstForm(7, 3, coeffs)
    got, want = g2core._b_matrix(phi), wedge_b_matrix(phi)
    if all(map(is_exact, phi.coeffs.values())):
        assert got == want and all(type(x) is Fraction for row in got for x in row)
    else:
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_spectral_eigenvalues(standard_structure):
    """T has eigenvalues of size 2 and 1, multiplicities 7 and 14, with
    opposite signs."""
    s = standard_structure
    o = metric_from_phi(s.phi)[1]
    T = np.zeros((21, 21))
    for j, idx in enumerate(lex_basis(7, 2)):
        img = hodge(wedge(ConstForm.basis(7, idx), s.phi), s.metric, o)
        for i, idx2 in enumerate(lex_basis(7, 2)):
            T[i, j] = float(img.coeffs.get(idx2, 0))
    vals = np.sort(np.linalg.eigvalsh(T))
    lam7, lam14 = float(s.lambda7), float(s.lambda14)
    assert {abs(lam7), abs(lam14)} == {2.0, 1.0}
    assert lam7 * lam14 < 0
    expected = np.sort(np.array([lam7] * 7 + [lam14] * 14))
    assert np.abs(vals - expected).max() < 1e-10


@pytest.fixture(scope="module")
def twisted_structure():
    """The exact structure of a twisted rational fibration: p7 has a
    denominator other than -3."""
    std = FibrationSpec.standard()
    alpha = [[Fraction(3, 5), 0, 0, 0], [0, Fraction(-7, 2), 0, 0], [0, 0, 0, Fraction(4, 3)]]
    s = eigen_split(build_fibration(FibrationSpec(std.eta, std.l_basis, alpha)).phi)
    assert s.p7_den not in (-3, 1.0)
    return s


two_forms = st.dictionaries(st.sampled_from(lex_basis(7, 2)), exact_scalars,
                            max_size=6).map(lambda c: ConstForm(7, 2, c))


@given(two_forms)
def test_exact_p7_is_the_fraction_matrix_product(standard_structure, twisted_structure, eta):
    """apply_p7 on rational 2-forms equals the plain Fraction product
    (p7 / p7_den) vec, and its coefficients stay exact."""
    for s in (standard_structure, twisted_structure):
        assert all(type(n) is int for row in s.p7 for n in row) and type(s.p7_den) is int
        vec = eta.coeff_vector(lex_basis(7, 2))
        want = [sum((Fraction(n, s.p7_den) * x for n, x in zip(row, vec)), start=0)
                for row in s.p7]
        got = s.apply_p7(eta)
        assert got == ConstForm(7, 2, dict(zip(lex_basis(7, 2), want)))
        assert all(map(is_exact, got.coeffs.values()))
        assert all(map(is_exact, s.apply_p14(eta).coeffs.values()))


def test_p7_doubles_are_the_rounded_fractions(standard_structure, twisted_structure):
    """p7_array() and apply_p7 on a float 2-form read each entry as the
    double nearest p7 / p7_den."""
    eta = ConstForm(7, 2, {idx: 0.1 * k - 0.7 for k, idx in enumerate(lex_basis(7, 2))})
    for s in (standard_structure, twisted_structure):
        want = [[float(Fraction(n, s.p7_den)) for n in row] for row in s.p7]
        assert s.p7_array().tolist() == want
        got = s.apply_p7(eta)
        assert all(type(c) is float for c in got.coeffs.values())
        assert got == ConstForm(7, 2, {
            idx: sum((a * x for a, x in zip(row, eta.coeff_vector(lex_basis(7, 2)))), start=0)
            for idx, row in zip(lex_basis(7, 2), want)})


def test_seven_block_is_contraction_span(standard_structure):
    s = standard_structure
    for i in range(7):
        v = [Fraction(1) if j == i else Fraction(0) for j in range(7)]
        gen = interior(v, s.phi)
        assert (s.apply_p7(gen) - gen).is_zero()
        assert s.apply_p14(gen).is_zero()


def test_coassociative_wedge_kills_14_and_has_rank_7(standard_structure):
    s = standard_structure
    cols = []
    for idx in lex_basis(7, 2):
        eta = ConstForm.basis(7, idx)
        assert wedge(s.apply_p14(eta), s.star_phi).is_zero()
        cols.append([float(c) for c in
                     wedge(eta, s.star_phi).coeff_vector(lex_basis(7, 6))])
    assert np.linalg.matrix_rank(np.array(cols).T, tol=1e-9) == 7


def test_projectors_are_complementary(standard_structure):
    s = standard_structure
    for idx in lex_basis(7, 2):
        eta = ConstForm.basis(7, idx)
        p7 = s.apply_p7(eta)
        p14 = s.apply_p14(eta)
        assert (s.apply_p7(p7) - p7).is_zero()
        assert s.apply_p7(p14).is_zero()


def test_energy_report_weights():
    rep = energy_report(2.0, 5.0)
    assert rep["kappa"] == pytest.approx(-2 * 2.0 + 5.0)
    assert rep["ym"] == pytest.approx(rep["kappa"] + 3 * 2.0)


def test_instanton_residual_zero_iff_14(standard_structure):
    s = standard_structure
    eta14 = s.apply_p14(ConstForm.basis(7, (1, 2)))
    res = instanton_residual(eta14.to_double(), s)
    assert max(res.values()) < 1e-14
    eta7 = s.apply_p7(ConstForm.basis(7, (1, 2)))
    res7 = instanton_residual(eta7.to_double(), s)
    assert min(res7.values()) > 1e-3


# --- the shared standard structure ------------------------------------------


@pytest.fixture(scope="module")
def exact_standard_builds():
    """Drive the lattice-adapted consumers from an empty structure slot and
    count the eigen_split calls made on the exact standard phi.

    eigen_split is replaced wherever a g2lab module holds it, so a caller
    that imported the name is counted too.  Yields inside the patch: the
    slot still holds the structure those consumers used.
    """
    original = g2core.eigen_split
    phi0 = standard_phi()
    builds = []

    def counted(phi, *args, **kwargs):
        if phi == phi0 and all(is_exact(c) for c in phi.coeffs.values()):
            builds.append(phi)
        return original(phi, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        for name, mod in list(sys.modules.items()):
            if (name == "g2lab" or name.startswith("g2lab.")) \
                    and getattr(mod, "eigen_split", None) is original:
                mp.setattr(mod, "eigen_split", counted)
        mp.setattr(g2core, "_STANDARD", None)
        a = FourierField.zero(7, 1, 1, 2)
        a.add_coeff((1, 0, 0, 0, 0, 0, 0), (2,), 0.2 + 0.9j)
        a.add_coeff((0, 0, 1, 0, 0, 0, 0), (5,), 0.1 - 0.5j)
        ctx = CSContext.standard()
        path_integrate(ctx, a.symmetrized(), 16, "linear")
        F7 = lift_to_7d(constant_curvature_u1(
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]),
            ctx.fib)
        for idx in ((1, 2, 3, 4), (1, 5, 6, 7), (1, 2, 6, 7)):
            obstruction_verdict(CSContext.standard(), F7,
                                ConstForm.basis(7, idx, 1.0))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["report", "--seed", "42"]) == cli.EXIT_OK
        yield builds


def test_exact_standard_structure_is_built_once(exact_standard_builds):
    # the slot starts empty, so exactly one build must be seen
    assert len(exact_standard_builds) == 1


def test_shared_structure_survives_a_report_run(exact_standard_builds):
    shared = g2core.standard_structure()
    fresh = eigen_split(standard_phi())
    for field in ("phi", "metric", "star_phi", "lambda7", "lambda14", "p7"):
        assert getattr(shared, field) == getattr(fresh, field), field
