"""G2-structure computations on R^7.

The standard associative 3-form, the metric a nondegenerate 3-form induces,
its coassociative 4-form, and the eigenspace split of 2-forms into the 7-
and 14-dimensional pieces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exterior import (
    INDEX_OF,
    MASK_OF,
    MERGE_SIGN,
    ConstForm,
    ExactnessError,
    Metric,
    Orientation,
    _scaled,
    hodge,
    is_exact,
    lex_basis,
    mat_det,
    wedge,
)

LAMBDA2_BASIS = lex_basis(7, 2)  # 21 increasing pairs, lexicographic

#: the three 2-forms omega_1, omega_2, omega_3 on the base R^4 that enter
#: the standard 3-form
OMEGA_BASE = (
    ConstForm.from_terms(4, 2, {(1, 2): 1, (3, 4): -1}),
    ConstForm.from_terms(4, 2, {(1, 3): 1, (4, 2): -1}),
    ConstForm.from_terms(4, 2, {(1, 4): 1, (2, 3): -1}),
)

#: their orthogonal complement in Lambda^2(R^4) (the opposite chirality)
OMEGA_BAR_BASE = (
    ConstForm.from_terms(4, 2, {(1, 2): 1, (3, 4): 1}),
    ConstForm.from_terms(4, 2, {(1, 3): 1, (4, 2): 1}),
    ConstForm.from_terms(4, 2, {(1, 4): 1, (2, 3): 1}),
)

#: omega_1, omega_2, omega_3 as 2-forms on R^7
_OMEGA7 = tuple(ConstForm(7, 2, w.coeffs) for w in OMEGA_BASE)


class UnstableForm(ValueError):
    """The 3-form does not induce a definite bilinear form."""


class EigenvalueClustering(ValueError):
    pass


def standard_phi() -> ConstForm:
    """The model associative 3-form e^567 + w1^e5 + w2^e6 + w3^e7."""
    phi = ConstForm.basis(7, (5, 6, 7))
    for w, e in zip(_OMEGA7, ((5,), (6,), (7,))):
        phi = phi + wedge(w, ConstForm.basis(7, e))
    return phi


def standard_star_phi() -> ConstForm:
    """e^1234 - w1^e67 - w2^e75 - w3^e56, the model coassociative 4-form."""
    psi = ConstForm.basis(7, (1, 2, 3, 4))
    for w, e in zip(_OMEGA7, ((6, 7), (7, 5), (5, 6))):
        psi = psi - wedge(w, ConstForm.basis(7, e))
    return psi


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


def _b_matrix(phi: ConstForm) -> list:
    """metric_from_phi's B_ij = -(1/6) top((e_i -| phi) ^ (e_j -| phi) ^ phi),
    read against -e^{1..7} so that the standard 3-form has orientation +1.
    Products run over (mask, value) pairs in key order, signed by MERGE_SIGN,
    and add up as wedge adds them, so doubles keep wedge's bytes; an exact
    phi runs in ints over one denominator q."""
    masks, vals = [MASK_OF[k] for k in phi.coeffs], list(phi.coeffs.values())
    exact = all(map(is_exact, vals))
    (vals,), q = _scaled([vals]) if exact else ([[float(c) for c in vals]], 1)
    coeff, sign = dict(zip(masks, vals)), MERGE_SIGN.tolist()
    # e_i -| phi as (2-mask, value) pairs
    contr = [[(m ^ b, sign[b][m ^ b] * c) for m, c in zip(masks, vals) if m & b]
             for b in (1, 2, 4, 8, 16, 32, 64)]
    B = [[None] * 7 for _ in range(7)]
    for i, j in itertools.combinations_with_replacement(range(7), 2):
        four = {}
        for (ma, ca), (mb, cb) in itertools.product(contr[i], contr[j]):
            if sign[ma][mb]:
                four[ma | mb] = four.get(ma | mb, 0) + sign[ma][mb] * ca * cb
        top = 0
        for m in sorted(four, key=INDEX_OF.__getitem__):
            if four[m] and 127 ^ m in coeff:
                top = top + sign[m][127 ^ m] * four[m] * coeff[127 ^ m]
        # wedge drops a zero top coefficient, so it reads as +0.0
        B[i][j] = B[j][i] = (Fraction(-top, 6 * q ** 3) if exact
                             else -top * (1.0 / 6.0) if top else 0.0)
    return B


def metric_from_phi(phi: ConstForm):
    """Metric and orientation induced by a stable 3-form.

    Forms the symmetric matrix B of top-form coefficients of
    (1/6)(u -| phi)^(v -| phi)^phi, then normalizes g = B / det(B)^{1/9};
    the ninth root is the unique power making <u,v> dVol_g = B_uv e^{1..7}
    self-consistent.  Returns (Metric, Orientation).
    """
    if phi.dim != 7 or phi.degree != 3:
        raise ValueError("expected a 3-form on R^7")
    B = _b_matrix(phi)
    exact = is_exact(B[0][0])
    Bf = np.array([[float(x) for x in row] for row in B])
    evals = np.linalg.eigvalsh(Bf)
    tr = abs(np.trace(Bf))
    if tr == 0 or min(abs(evals)) < 1e-10 * max(tr, 1.0):
        raise UnstableForm("bilinear form is numerically degenerate")
    if np.all(evals > 0):
        orient = Orientation(1)
    elif np.all(evals < 0):
        orient = Orientation(-1)
    else:
        raise UnstableForm("bilinear form is indefinite")
    if exact:
        try:
            scale = _ninth_root(mat_det(B))
            g = Metric(7, [[x / scale for x in row] for row in B])
        except ExactnessError:
            exact = False
    if not exact:
        scale = _ninth_root(np.linalg.det(Bf))
        g = Metric(7, (Bf / scale).tolist())
    return g, orient


def _t_matrix(phi: ConstForm, g: Metric, o: Orientation):
    """21x21 matrix of eta -> star(eta ^ phi) in the lexicographic basis."""
    cols = [hodge(wedge(ConstForm.basis(7, idx), phi), g, o).coeff_vector(LAMBDA2_BASIS)
            for idx in LAMBDA2_BASIS]
    return [list(row) for row in zip(*cols)]  # row i = component i of each T(basis j)


@dataclass(frozen=True)
class G2Structure:
    phi: ConstForm
    metric: Metric
    star_phi: ConstForm
    lambda7: object
    lambda14: object
    p7: tuple          # the projector onto Lambda^2_7 is p7 / p7_den:
    p7_den: object     # integer numerators and denominator, or doubles and 1.0

    def apply_p7(self, eta: ConstForm) -> ConstForm:
        if eta.degree != 2 or eta.dim != 7:
            raise ValueError("expected a 2-form on R^7")
        vec = eta.coeff_vector(LAMBDA2_BASIS)
        if is_exact(self.p7_den) and all(map(is_exact, vec)):
            # eta = m / e in ints: one division per output coefficient
            e = math.lcm(*(x.denominator for x in vec))
            m = [(j, x.numerator * (e // x.denominator)) for j, x in enumerate(vec) if x]
            out = [Fraction(sum(row[j] * x for j, x in m), e * self.p7_den) for row in self.p7]
        else:
            out = [sum((a * x for a, x in zip(row, vec) if x != 0), start=0)
                   for row in self.p7_array().tolist()]
        return ConstForm(7, 2, dict(zip(LAMBDA2_BASIS, out)))

    def apply_p14(self, eta: ConstForm) -> ConstForm:
        return eta - self.apply_p7(eta)

    def p7_array(self) -> np.ndarray:
        return np.array(self.p7, dtype=float) / self.p7_den


def eigen_split(phi: ConstForm) -> G2Structure:
    """Assemble T_phi on Lambda^2 and split its two eigenspaces.

    The realized eigenvalues are computed, not assumed: for the standard
    orientation the 7-dimensional eigenspace (spanned by the e_i -| phi)
    comes out at -2 and the g2 subalgebra at +1, but downstream code only
    ever references the realized values.
    """
    g, orient = metric_from_phi(phi)
    T = _t_matrix(phi, g, orient)
    Tf = np.array([[float(x) for x in row] for row in T])
    # T is self-adjoint for g's inner product on Lambda^2, not for the
    # coordinate one: its spectrum is real, but Tf is not symmetric.
    evals = np.linalg.eigvals(Tf)
    if np.abs(evals.imag).max() > 1e-8 * max(np.abs(evals).max(), 1.0):
        raise EigenvalueClustering("T has complex eigenvalues")
    evals = evals.real
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

    split = None
    if all(is_exact(x) for row in T for x in row):
        l7 = Fraction(round(lam7 * 2), 2)
        l14 = Fraction(round(lam14 * 2), 2)
        split = _exact_p7(T, l7, l14)
    if split:
        lam7, lam14 = l7, l14
        p7, den = split
    else:
        p7, den = ((Tf - lam14 * np.eye(21)) / (lam7 - lam14)).tolist(), 1.0
    return G2Structure(
        phi=phi, metric=g, star_phi=hodge(phi, g, orient), lambda7=lam7,
        lambda14=lam14, p7=tuple(tuple(r) for r in p7), p7_den=den,
    )


def _exact_p7(T, l7, l14) -> tuple | None:
    """(T - l7)(T - l14) == 0, checked in Python ints over one common
    denominator, certifies the spectrum exactly; then p7 = (T - l14) /
    (l7 - l14) is returned as (integer numerators, denominator), else None."""
    *N, (d7, d14) = _scaled([*T, [l7, l14]])[0]
    left, right = ([[x - dl * (i == j) for j, x in enumerate(row)] for i, row in enumerate(N)]
                   for dl in (d7, d14))
    for row in left:
        acc = [0] * len(T)
        for a, r in zip(row, right):
            if a:
                for j, b in enumerate(r):
                    acc[j] += a * b
        if any(acc):
            return None
    return right, d7 - d14


_STANDARD: G2Structure | None = None


def standard_structure() -> G2Structure:
    """The exact G2 structure of ``standard_phi()``, shared and read-only.

    Built on first use (``eigen_split`` exactly, in Python ints over common
    denominators: the costly step of every lattice-adapted integral) and
    returned as the same object on every later call.  Callers must not
    mutate it: the coefficient dicts of its forms are shared by the whole
    process.
    """
    global _STANDARD
    if _STANDARD is None:
        _STANDARD = eigen_split(standard_phi())
    return _STANDARD
