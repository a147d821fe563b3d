"""G2-structure computations on R^7.

The standard associative 3-form, the metric a nondegenerate 3-form induces,
its coassociative 4-form, and the eigenspace split of 2-forms into the 7-
and 14-dimensional pieces, together with the energy bookkeeping that makes
instantons the absolute Yang-Mills minimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exterior import (
    ConstForm,
    ExactnessError,
    Metric,
    NotPositiveDefinite,
    Orientation,
    form_inner,
    hodge,
    interior,
    is_exact,
    lex_basis,
    mat_det,
    volume_form,
    wedge,
)

LAMBDA2_BASIS = lex_basis(7, 2)  # 21 increasing pairs, lexicographic

#: self-dual triple on the base R^4 entering the standard 3-form
OMEGA1 = ConstForm.from_terms(7, 2, {(1, 2): 1, (3, 4): -1})
OMEGA2 = ConstForm.from_terms(7, 2, {(1, 3): 1, (4, 2): -1})
OMEGA3 = ConstForm.from_terms(7, 2, {(1, 4): 1, (2, 3): -1})


class UnstableForm(ValueError):
    """The 3-form does not induce a definite bilinear form."""


class EigenvalueClustering(ValueError):
    pass


def standard_phi() -> ConstForm:
    """The model associative 3-form e^567 + w1^e5 + w2^e6 + w3^e7."""
    e5 = ConstForm.basis(7, (5,))
    e6 = ConstForm.basis(7, (6,))
    e7 = ConstForm.basis(7, (7,))
    return (ConstForm.basis(7, (5, 6, 7))
            + wedge(OMEGA1, e5) + wedge(OMEGA2, e6) + wedge(OMEGA3, e7))


def standard_star_phi() -> ConstForm:
    """e^1234 - w1^e67 - w2^e75 - w3^e56, the model coassociative 4-form."""
    e67 = ConstForm.basis(7, (6, 7))
    e75 = ConstForm.basis(7, (7, 5))
    e56 = ConstForm.basis(7, (5, 6))
    return (ConstForm.basis(7, (1, 2, 3, 4))
            - wedge(OMEGA1, e67) - wedge(OMEGA2, e75) - wedge(OMEGA3, e56))


def _basis_vector(i: int, exact: bool):
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    return [one if j == i else zero for j in range(7)]


def _ninth_root(x) -> object:
    """Signed real ninth root; exact when the input is a rational ninth power."""
    if is_exact(x):
        fr = Fraction(x)
        sgn = -1 if fr < 0 else 1
        fr = abs(fr)

        def root9(n: int) -> int | None:
            r = round(n ** (1.0 / 9.0))
            for cand in (r - 1, r, r + 1):
                if cand >= 0 and cand ** 9 == n:
                    return cand
            return None

        rn, rd = root9(fr.numerator), root9(fr.denominator)
        if rn is None or rd is None:
            raise ExactnessError(f"{x} has no rational ninth root")
        return sgn * Fraction(rn, rd)
    return math.copysign(abs(float(x)) ** (1.0 / 9.0), float(x))


def metric_from_phi(phi: ConstForm):
    """Metric, orientation and volume form induced by a stable 3-form.

    Forms the symmetric matrix B of top-form coefficients of
    (1/6)(u -| phi)^(v -| phi)^phi, then normalizes g = B / det(B)^{1/9};
    the ninth root is the unique power making <u,v> dVol_g = B_uv e^{1..7}
    self-consistent.  Returns (Metric, Orientation, volume ConstForm).
    """
    if phi.dim != 7 or phi.degree != 3:
        raise ValueError("expected a 3-form on R^7")
    exact = all(is_exact(c) for c in phi.coeffs.values())
    one_sixth = Fraction(1, 6) if exact else (1.0 / 6.0)
    contr = [interior(_basis_vector(i, exact), phi) for i in range(7)]
    top = (1, 2, 3, 4, 5, 6, 7)
    # Sign convention: the top coefficient is read against -e^{1..7}; this is
    # the choice that realizes orientation +1 for the standard 3-form, so the
    # coassociative 4-form reproduces the model expression on the nose.
    B = [[-(wedge(wedge(contr[i], contr[j]), phi)[top]) * one_sixth for j in range(7)]
         for i in range(7)]
    Bf = np.array([[float(x) for x in row] for row in B])
    evals = np.linalg.eigvalsh(0.5 * (Bf + Bf.T))
    tr = abs(np.trace(Bf))
    if tr == 0 or min(abs(evals)) < 1e-10 * max(tr, 1.0):
        raise UnstableForm("bilinear form is numerically degenerate")
    if np.all(evals > 0):
        orient = Orientation(1)
    elif np.all(evals < 0):
        orient = Orientation(-1)
    else:
        raise UnstableForm("bilinear form is indefinite")
    detB = np.linalg.det(Bf)
    if exact:
        try:
            scale = _ninth_root(mat_det(B))
            g = Metric(7, [[x / scale for x in row] for row in B])
        except ExactnessError:
            exact = False
    if not exact:
        scale = _ninth_root(detB)
        g = Metric(7, (Bf / scale).tolist())
    vol = volume_form(g, 7, orient)
    return g, orient, vol


def _t_matrix(phi: ConstForm, g: Metric, o: Orientation):
    """21x21 matrix of eta -> star(eta ^ phi) in the lexicographic basis."""
    cols = []
    for idx in LAMBDA2_BASIS:
        img = hodge(wedge(ConstForm.basis(7, idx), phi), g, o)
        cols.append(img.coeff_vector(LAMBDA2_BASIS))
    # cols[j][i] = component i of T(basis j)
    return [[cols[j][i] for j in range(21)] for i in range(21)]


@dataclass(frozen=True)
class G2Structure:
    phi: ConstForm
    metric: Metric
    orientation: Orientation
    vol: ConstForm
    star_phi: ConstForm
    lambda7: object
    lambda14: object
    p7: tuple
    p14: tuple

    def apply_p7(self, eta: ConstForm) -> ConstForm:
        return _apply_matrix(self.p7, eta)

    def apply_p14(self, eta: ConstForm) -> ConstForm:
        return _apply_matrix(self.p14, eta)

    def p7_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.p7])

    def p14_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.p14])


def _apply_matrix(mat, eta: ConstForm) -> ConstForm:
    if eta.degree != 2 or eta.dim != 7:
        raise ValueError("expected a 2-form on R^7")
    vec = eta.coeff_vector(LAMBDA2_BASIS)
    out = {}
    for i, idx in enumerate(LAMBDA2_BASIS):
        val = sum((mat[i][j] * vec[j] for j in range(21) if vec[j] != 0), start=0)
        if val != 0:
            out[idx] = val
    return ConstForm(7, 2, out)


def eigen_split(phi: ConstForm) -> G2Structure:
    """Assemble T_phi on Lambda^2 and split its two eigenspaces.

    The realized eigenvalues are computed, not assumed: for the standard
    orientation the 7-dimensional eigenspace (spanned by the e_i -| phi)
    comes out at -2 and the g2 subalgebra at +1, but downstream code only
    ever references the realized values.
    """
    g, orient, vol = metric_from_phi(phi)
    T = _t_matrix(phi, g, orient)
    Tf = np.array([[float(x) for x in row] for row in T])
    evals = np.linalg.eigvalsh(0.5 * (Tf + Tf.T))
    lo, hi = evals.min(), evals.max()
    if hi - lo < 1e-8:
        raise EigenvalueClustering("eigenvalue clusters are not separated")
    mid = 0.5 * (lo + hi)
    n_lo = int(np.sum(evals < mid))
    n_hi = 21 - n_lo
    if {n_lo, n_hi} != {7, 14}:
        raise EigenvalueClustering(f"multiplicities ({n_lo}, {n_hi}) != (7, 14)")
    lam_lo = float(np.mean(evals[evals < mid]))
    lam_hi = float(np.mean(evals[evals >= mid]))
    lam7, lam14 = (lam_lo, lam_hi) if n_lo == 7 else (lam_hi, lam_lo)

    exact = all(is_exact(x) for row in T for x in row)
    if exact:
        l7 = Fraction(round(lam7 * 2), 2)
        l14 = Fraction(round(lam14 * 2), 2)
        if _exact_spectrum_ok(T, l7, l14):
            lam7, lam14 = l7, l14
        else:
            exact = False
    if exact:
        denom = lam7 - lam14
        p7 = [[(T[i][j] - (lam14 if i == j else 0)) / denom for j in range(21)]
              for i in range(21)]
        p14 = [[(1 if i == j else 0) - p7[i][j] for j in range(21)] for i in range(21)]
    else:
        p7np = (Tf - lam14 * np.eye(21)) / (lam7 - lam14)
        p7 = tuple(tuple(row) for row in p7np.tolist())
        p14 = tuple(tuple(row) for row in (np.eye(21) - p7np).tolist())
    return G2Structure(
        phi=phi, metric=g, orientation=orient, vol=vol,
        star_phi=hodge(phi, g, orient),
        lambda7=lam7, lambda14=lam14,
        p7=tuple(tuple(r) for r in p7), p14=tuple(tuple(r) for r in p14),
    )


def _exact_spectrum_ok(T, l7, l14) -> bool:
    n = 21
    # (T - l7)(T - l14) == 0 certifies the spectrum exactly
    for i in range(n):
        for j in range(n):
            acc = sum(T[i][k] * T[k][j] for k in range(n))
            acc -= (l7 + l14) * T[i][j]
            if i == j:
                acc += l7 * l14
            if acc != 0:
                return False
    return True


_STANDARD: G2Structure | None = None


def standard_structure() -> G2Structure:
    """The exact G2 structure of ``standard_phi()``, shared and read-only.

    Built on first use (``eigen_split`` in Fraction arithmetic, the costly
    step of every lattice-adapted integral) and returned as the same object
    on every later call.  Callers must not mutate it: the coefficient dicts
    of its forms are shared by the whole process.
    """
    global _STANDARD
    if _STANDARD is None:
        _STANDARD = eigen_split(standard_phi())
    return _STANDARD


def t_phi(eta2: ConstForm, s: G2Structure) -> ConstForm:
    """T_phi(eta) = star(eta ^ phi)."""
    return hodge(wedge(eta2, s.phi), s.metric, s.orientation)


def l_star_phi(eta2: ConstForm, s: G2Structure) -> ConstForm:
    """eta -> eta ^ star phi; kills the 14-dimensional piece."""
    return wedge(eta2, s.star_phi)


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


def instanton_residual(F: ConstForm, s: G2Structure) -> dict:
    """Residuals of the two equivalent instanton equations plus |p7 F|.

    All three vanish simultaneously, exactly when F has no component in the
    7-dimensional eigenspace.  Norms use the g(phi)-induced inner products.
    """
    g = s.metric
    wa = wedge(F, s.star_phi)
    r_a = math.sqrt(max(float(form_inner(wa, wa, g)), 0.0))
    tf = t_phi(F, s)
    inv14 = (Fraction(1) / Fraction(s.lambda14)) if is_exact(s.lambda14) \
        else 1.0 / float(s.lambda14)
    diff = F - tf.scale(inv14)
    r_b = math.sqrt(max(float(form_inner(diff, diff, g)), 0.0))
    f7 = s.apply_p7(F)
    f7_norm = math.sqrt(max(float(form_inner(f7, f7, g)), 0.0))
    return {"r_a": r_a, "r_b": r_b, "f7_norm": f7_norm}
