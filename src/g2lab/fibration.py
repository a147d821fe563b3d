"""G2-torus fibrations built from a (base metric, fiber lattice, twist) triplet.

The 7-torus is V/L with V = R^4 (+) R^3, the R^3 factor standing for the
self-dual 2-forms of the base.  The seven lattice generators are declared
orthonormal, which pins the flat G2-structure; twisting mixes base into
fiber and the total space stops being a Riemannian product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import g2core
from .exterior import (
    ConstForm,
    Metric,
    form_inner,
    hodge,
    interior,
    is_exact,
    lex_basis,
    mat_det,
    mat_inverse,
    Orientation,
    pullback_linear,
    wedge,
)
from .g2core import G2Structure, eigen_split, metric_from_phi, standard_phi

BASE_LAMBDA2 = lex_basis(4, 2)

#: the three 2-forms omega_1, omega_2, omega_3 on the base
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

EPSILON3 = {(1, 2): 3, (2, 3): 1, (1, 3): -2}  # (i,j) -> signed k with eps^ijk

#: the exact flat base metric, built once: its checks cost Fraction minors
_FLAT_ETA = Metric.identity(4)


def chirality_basis(eta: Metric, sign: int) -> tuple:
    """eta-orthogonal basis of one chirality of base 2-forms, |w|^2 = 2.

    ``sign`` picks the eigenvalue of the eta Hodge star taken with the fiber
    orientation (the one in which omega_1 = e^12 - e^34 is self-dual; it is
    opposite to +e^1234): +1 gives the omega chirality, -1 the opposite one.
    Continuity near the identity metric comes from Gram-Schmidt against the
    flat triple of that chirality, which is returned as is for eta = 1.
    """
    if eta.dim != 4:
        raise ValueError("base metric must be 4-dimensional")
    flat = OMEGA_BASE if sign > 0 else OMEGA_BAR_BASE
    if eta.mat == _FLAT_ETA.mat:
        return flat
    o = Orientation(-1)  # fiber-compatible orientation on the base
    star = np.zeros((6, 6))
    for j, idx in enumerate(BASE_LAMBDA2):
        img = hodge(ConstForm.basis(4, idx).to_double(), eta, o)
        star[:, j] = [float(x) for x in img.coeff_vector(BASE_LAMBDA2)]
    evals, evecs = np.linalg.eig(star)
    span = evecs[:, np.abs(evals - sign) < 1e-8].real
    if span.shape[1] != 3:
        raise ValueError(f"star eigenspace {sign:+d} is not 3-dimensional")
    proj = span @ np.linalg.pinv(span)

    def inner(u, v):
        a = ConstForm(4, 2, dict(zip(BASE_LAMBDA2, u)))
        b = ConstForm(4, 2, dict(zip(BASE_LAMBDA2, v)))
        return float(form_inner(a, b, eta))

    out, vecs = [], []
    for om in flat:
        v = proj @ np.array([float(x) for x in om.coeff_vector(BASE_LAMBDA2)])
        for w in vecs:
            v = v - (inner(w, v) / inner(w, w)) * w
        v = v * np.sqrt(2.0 / inner(v, v))
        vecs.append(v)
        out.append(ConstForm(4, 2, {k: c for k, c in zip(BASE_LAMBDA2, v) if c != 0.0}))
    return tuple(out)


@dataclass(frozen=True)
class FibrationSpec:
    """Triplet: base metric, fiber lattice basis, and base-to-fiber twist.

    ``l_basis`` columns are the three lattice generators of the fiber,
    ``alpha`` is the 3x4 twist matrix; both are written in the unit-norm
    eta-adapted self-dual frame of the fiber.
    """

    eta: Metric
    l_basis: tuple
    alpha: tuple

    def __post_init__(self):
        lb = tuple(tuple(r) for r in self.l_basis)
        al = tuple(tuple(r) for r in self.alpha)
        object.__setattr__(self, "l_basis", lb)
        object.__setattr__(self, "alpha", al)
        if self.eta.dim != 4:
            raise ValueError("eta must be a metric on R^4")
        if len(lb) != 3 or any(len(r) != 3 for r in lb):
            raise ValueError("l_basis must be 3x3 (columns = generators)")
        if len(al) != 3 or any(len(r) != 4 for r in al):
            raise ValueError("alpha must be 3x4")
        if abs(float(mat_det([list(r) for r in lb]))) < 1e-12:
            raise ValueError("l_basis is rank-deficient")

    @staticmethod
    def standard() -> "FibrationSpec":
        one = Fraction(1)
        zero = Fraction(0)
        eye3 = [[one if i == j else zero for j in range(3)] for i in range(3)]
        return FibrationSpec(_FLAT_ETA, eye3, [[zero] * 4 for _ in range(3)])

    def to_json_dict(self) -> dict:
        def num(x):
            return str(Fraction(x)) if is_exact(x) else float(x)
        return {
            "eta": [[num(x) for x in row] for row in self.eta.mat],
            "l_basis": [[num(x) for x in row] for row in self.l_basis],
            "alpha": [[num(x) for x in row] for row in self.alpha],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "FibrationSpec":
        def num(x):
            return Fraction(x) if isinstance(x, str) else (x if isinstance(x, float) else Fraction(x))
        return FibrationSpec(
            Metric(4, [[num(x) for x in row] for row in d["eta"]]),
            [[num(x) for x in row] for row in d["l_basis"]],
            [[num(x) for x in row] for row in d["alpha"]],
        )


def _sqrtm_spd(mat) -> list:
    rows = [list(r) for r in mat]
    if rows == [list(r) for r in Metric.identity(len(rows)).mat]:
        return rows  # keep exact identity exact
    m = np.array([[float(x) for x in r] for r in rows])
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    return (v @ np.diag(np.sqrt(w)) @ v.T).tolist()


@dataclass(frozen=True)
class TorusFibration:
    spec: FibrationSpec
    ltilde: tuple          # 7x7 generator matrix, columns = lattice generators
    phi: ConstForm         # ambient-coordinate 3-form
    g2: G2Structure
    f_matrix: tuple        # 4x7 matrix of the fibration map onto unit base coords

    def generator_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.ltilde])

    def adapted_g2(self) -> G2Structure:
        """Structure in lattice-adapted coordinates, where phi is standard."""
        return g2core.standard_structure()

    def mixing_block(self) -> np.ndarray:
        """Base-to-fiber block of the generator matrix (alpha); nonzero means
        the total space is not a Riemannian product."""
        return self.generator_array()[4:, :4]


def build_fibration(spec: FibrationSpec) -> TorusFibration:
    """Assemble the 7-torus carrying the G2-structure of the triplet.

    The generator matrix G stacks the twisted base generators over the fiber
    lattice; phi is the pullback of the standard 3-form under G^{-1}, which
    is exactly the normalization making the generators orthonormal.
    """
    F = _sqrtm_spd(spec.eta.mat)
    exact = is_exact(F[0][0]) and all(is_exact(x) for r in spec.alpha for x in r) \
        and all(is_exact(x) for r in spec.l_basis for x in r)
    zero = Fraction(0) if exact else 0.0
    G = [[zero] * 7 for _ in range(7)]
    for i in range(4):
        for j in range(4):
            G[i][j] = F[i][j] if is_exact(F[i][j]) or not exact else F[i][j]
    for i in range(3):
        for j in range(4):
            G[4 + i][j] = spec.alpha[i][j]
        for j in range(3):
            G[4 + i][4 + j] = spec.l_basis[i][j]
    if not exact:
        G = [[float(x) for x in row] for row in G]
    Ginv = mat_inverse(G)
    phi0 = standard_phi() if exact else standard_phi().to_double()
    phi = pullback_linear(Ginv, phi0)
    # An exact spec that leaves phi standard shares the one exact structure.
    # Only on the exact path: a float phi compares equal to it (1.0 == 1)
    # but must keep its own float split.
    g2s = g2core.standard_structure() if exact and phi == phi0 else eigen_split(phi)
    Finv = mat_inverse(F)
    f_matrix = tuple(tuple(Finv[i]) + (zero,) * 3 for i in range(4))
    return TorusFibration(spec=spec, ltilde=tuple(tuple(r) for r in G),
                          phi=phi, g2=g2s, f_matrix=f_matrix)


def pullback_along_f(fib: TorusFibration, a: ConstForm) -> ConstForm:
    """Pull a constant form on the base 4-torus back to the total space."""
    if a.dim != 4:
        raise ValueError("expected a form on the base 4-torus")
    return pullback_linear(fib.f_matrix, a)


# ---------------------------------------------------------------------------
# deformation decomposition


@dataclass(frozen=True)
class DeformationSplit:
    """Orthogonal pieces of a 4-form deformation, sorted by fiber leg count.

    c_i scales the base volume; c_ii redefines the twist; c_iii_pp / c_iii_mp
    act on the fiber lattice and on the conformal class; c_iv is the
    component transverse to every fibered structure.  beta_plus / beta_minus
    keep the chirality parts of the 2-fiber-leg block as forms, so the round
    trip through the split is exact even in rational mode.
    """

    c_i: object
    c_ii: tuple        # 3x4, [fiber leg, removed base index]
    c_iii_pp: tuple    # 3x3, [fiber pair dual, omega component] / sqrt(2)
    c_iii_mp: tuple    # 3x3, [fiber pair dual, opposite-chirality component]
    c_iv: tuple        # 4, coefficient of e^i ^ e^567
    beta_plus: tuple   # 3 base 2-forms, omega-chirality parts
    beta_minus: tuple  # 3 base 2-forms, opposite-chirality parts

    def block_norms_sq(self) -> dict:
        def fro(m):
            return sum(float(x) ** 2 for row in m for x in row)
        return {
            "I": float(self.c_i) ** 2,
            "II": fro(self.c_ii),
            "III_pp": fro(self.c_iii_pp),
            "III_mp": fro(self.c_iii_mp),
            "IV": sum(float(x) ** 2 for x in self.c_iv),
        }

    def reassemble(self) -> ConstForm:
        xi = ConstForm.basis(7, (1, 2, 3, 4), self.c_i) if self.c_i != 0 \
            else ConstForm.zero(7, 4)
        for f in range(3):
            for i in range(4):
                c = self.c_ii[f][i]
                if c != 0:
                    base3 = interior(_e4(i + 1), ConstForm.basis(4, (1, 2, 3, 4)))
                    xi = xi + wedge(_lift(base3).scale(c), ConstForm.basis(7, (5 + f,)))
        for k in range(3):
            b = self.beta_plus[k] + self.beta_minus[k]
            if not b.is_zero():
                xi = xi + wedge(_lift(b), _fiber_pair_form(k))
        for i in range(4):
            if self.c_iv[i] != 0:
                xi = xi + wedge(ConstForm.basis(7, (i + 1,), self.c_iv[i]),
                                ConstForm.basis(7, (5, 6, 7)))
        return xi

    def to_json_dict(self) -> dict:
        return {
            "c_I": float(self.c_i),
            "c_II": [[float(x) for x in row] for row in self.c_ii],
            "c_III_pp": [[float(x) for x in row] for row in self.c_iii_pp],
            "c_III_mp": [[float(x) for x in row] for row in self.c_iii_mp],
            "c_IV": [float(x) for x in self.c_iv],
            "block_norms_sq": self.block_norms_sq(),
        }


def _e4(i: int):
    return [1 if j == i else 0 for j in range(1, 5)]


def _lift(a: ConstForm) -> ConstForm:
    """Reinterpret a base form as an ambient form (base legs only)."""
    return ConstForm(7, a.degree, dict(a.coeffs))


def _fiber_pair_form(k: int) -> ConstForm:
    # dual of fiber axis k under eps^ijk on {5,6,7}
    pairs = {0: (6, 7), 1: (7, 5), 2: (5, 6)}
    return ConstForm.basis(7, pairs[k])


def decompose_deformation(xi: ConstForm, eta: Metric | None = None) -> DeformationSplit:
    """Split a 4-form on R^4 (+) R^3 by its number of fiber legs.

    0 legs -> I, 1 -> II, 2 -> III (resolved into the two chiralities of the
    base leg), 3 -> IV.  Reassembly is exact and the five blocks are
    pairwise orthogonal: 1 + 12 + 9 + 9 + 4 = 35.
    """
    if xi.dim != 7 or xi.degree != 4:
        raise ValueError("expected a 4-form on R^7")
    eta = eta if eta is not None else _FLAT_ETA
    plus, minus = chirality_basis(eta, 1), chirality_basis(eta, -1)
    # both bases are g-orthogonal with |w|^2 = 2: each part is <b, w>_g w / 2
    g = None if eta.mat == _FLAT_ETA.mat else eta
    c_i = xi[(1, 2, 3, 4)]
    c_ii = [[0] * 4 for _ in range(3)]
    c_iv = [0] * 4
    beta = [dict() for _ in range(3)]  # base 2-form attached to each fiber pair dual
    for idx, c in xi.coeffs.items():
        fiber = tuple(i for i in idx if i >= 5)
        base = tuple(i for i in idx if i <= 4)
        if len(fiber) == 1:
            miss = [i for i in range(1, 5) if i not in base][0]
            # coefficient against (e_miss -| e^1234) ^ e^fiber
            sign = (-1) ** (miss - 1)
            c_ii[fiber[0] - 5][miss - 1] = sign * c
        elif len(fiber) == 2:
            i, j = fiber[0] - 4, fiber[1] - 4
            k = EPSILON3[(i, j)]
            sgn = 1 if k > 0 else -1
            beta[abs(k) - 1][base] = beta[abs(k) - 1].get(base, 0) + sgn * c
        elif len(fiber) == 3:
            c_iv[base[0] - 1] = c
    c_iii_pp = [[0.0] * 3 for _ in range(3)]
    c_iii_mp = [[0.0] * 3 for _ in range(3)]
    beta_plus, beta_minus = [], []
    sqrt2 = float(np.sqrt(2.0))
    half = Fraction(1, 2)
    for k in range(3):
        b = ConstForm(4, 2, beta[k])
        bp = ConstForm.zero(4, 2)
        bm = ConstForm.zero(4, 2)
        for l in range(3):
            rp = form_inner(b, plus[l], g)
            rm = form_inner(b, minus[l], g)
            bp = bp + plus[l].scale(rp * half)
            bm = bm + minus[l].scale(rm * half)
            c_iii_pp[k][l] = float(rp) / sqrt2
            c_iii_mp[k][l] = float(rm) / sqrt2
        beta_plus.append(bp)
        beta_minus.append(bm)
    return DeformationSplit(
        c_i=c_i, c_ii=tuple(tuple(r) for r in c_ii),
        c_iii_pp=tuple(tuple(r) for r in c_iii_pp),
        c_iii_mp=tuple(tuple(r) for r in c_iii_mp),
        c_iv=tuple(c_iv),
        beta_plus=tuple(beta_plus), beta_minus=tuple(beta_minus),
    )


def xi_from_perturbation(phi: ConstForm, dphi: ConstForm) -> ConstForm:
    """Exact coassociative deformation star(phi + dphi) - star(phi)."""
    g0, o0, _ = metric_from_phi(phi)
    phi1 = phi + dphi
    g1, o1, _ = metric_from_phi(phi1)
    return hodge(phi1, g1, o1) - hodge(phi, g0, o0)


def poincare_pairing(xi: ConstForm, v, q, fib: TorusFibration):
    """N(v) = -1/2 q * (fiber-volume coefficient of v -| xi), in charge units.

    Both xi and v are taken in ambient coordinates and transported to the
    lattice-adapted frame, where every cycle has unit volume and the pairing
    is a plain coefficient read-off.
    """
    G = [list(r) for r in fib.ltilde]
    xi_ad = pullback_linear(G, xi)
    Ginv = mat_inverse(G)
    v_ad = [sum(Ginv[i][j] * v[j] for j in range(7)) for i in range(7)]
    contracted = interior(v_ad, xi_ad)
    half = Fraction(1, 2) if is_exact(q) and all(is_exact(c) for c in contracted.coeffs.values()) else 0.5
    return -half * q * contracted[(5, 6, 7)]
