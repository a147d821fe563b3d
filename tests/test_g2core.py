"""Exact structure identities and the two-eigenvalue spectral calculus."""

import contextlib
import io
import sys
from fractions import Fraction

import numpy as np
import pytest

from g2lab import cli, g2core
from g2lab.chernsimons import CSContext, obstruction_verdict, path_integrate
from g2lab.exterior import (ConstForm, hodge, interior, is_exact, lex_basis,
                            wedge)
from g2lab.g2core import (
    UnstableForm, eigen_split, energy_report, instanton_residual,
    l_star_phi, metric_from_phi, standard_phi, standard_star_phi, t_phi,
)
from g2lab.gauge.fourier import FourierField, constant_curvature_u1, lift_to_7d


def test_coassociative_dual_closed_form(standard_structure):
    s = standard_structure
    assert (s.star_phi - standard_star_phi()).is_zero()
    # and it is genuinely the Hodge dual under the induced metric
    assert (hodge(s.phi, s.metric, s.orientation) - s.star_phi).is_zero()


def test_model_metric_is_identity():
    g, o, vol = metric_from_phi(standard_phi())
    for i in range(7):
        for j in range(7):
            assert g.mat[i][j] == (1 if i == j else 0)
    assert o.sign == 1
    assert (vol - ConstForm.basis(7, tuple(range(1, 8)))).is_zero()


def test_metric_equivariance_under_scaling():
    """phi -> c^3 phi rescales the metric by c^2 (conformal weight)."""
    c = Fraction(2)
    g, _, _ = metric_from_phi(standard_phi().scale(c ** 3))
    for i in range(7):
        assert g.mat[i][i] == c ** 2


def test_unstable_form_rejected():
    with pytest.raises((UnstableForm, ValueError)):
        metric_from_phi(ConstForm.basis(7, (1, 2, 3)))


def test_spectral_eigenvalues(standard_structure):
    """T has eigenvalues of size 2 and 1, multiplicities 7 and 14, with
    opposite signs."""
    s = standard_structure
    T = np.zeros((21, 21))
    for j, idx in enumerate(lex_basis(7, 2)):
        img = t_phi(ConstForm.basis(7, idx), s)
        for i, idx2 in enumerate(lex_basis(7, 2)):
            T[i, j] = float(img.coeffs.get(idx2, 0))
    vals = np.sort(np.linalg.eigvalsh(T))
    lam7, lam14 = float(s.lambda7), float(s.lambda14)
    assert {abs(lam7), abs(lam14)} == {2.0, 1.0}
    assert lam7 * lam14 < 0
    expected = np.sort(np.array([lam7] * 7 + [lam14] * 14))
    assert np.abs(vals - expected).max() < 1e-10


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
        assert l_star_phi(s.apply_p14(eta), s).is_zero()
        cols.append([float(c) for c in
                     l_star_phi(eta, s).coeff_vector(lex_basis(7, 6))])
    assert np.linalg.matrix_rank(np.array(cols).T, tol=1e-9) == 7


def test_projectors_are_complementary(standard_structure):
    s = standard_structure
    for idx in lex_basis(7, 2):
        eta = ConstForm.basis(7, idx)
        p7 = s.apply_p7(eta)
        p14 = s.apply_p14(eta)
        assert (p7 + p14 - eta).is_zero()
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
    for field in ("phi", "metric", "star_phi", "lambda7", "lambda14",
                  "p7", "p14"):
        assert getattr(shared, field) == getattr(fresh, field), field
