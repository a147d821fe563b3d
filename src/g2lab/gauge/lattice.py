"""Lattice gauge fields on periodic hypercubic lattices.

Links live on (site, direction) pairs as U(1) phases or SU(2) matrices;
curvature is measured by the clover-averaged plaquette, and the cooling
flow drives the anti-self-dual energy to zero while the (quasi-conserved)
topological charge selects the sector.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from ..exterior import ConstForm, interior, lex_basis, wedge
from ..rng import SplitMix64

_MAGIC = b"G2LAT001"
_GROUP_CODE = {"u1": 1, "su2": 2}
_GROUP_NAME = {v: k for k, v in _GROUP_CODE.items()}
_RANK = {"u1": 1, "su2": 2}


class CoolingDivergence(RuntimeError):
    def __init__(self, message: str, history: list):
        super().__init__(message)
        self.history = history


@dataclass
class LatticeGaugeField:
    dims: tuple
    group: str
    links: np.ndarray      # (d, *dims, r, r) complex
    spacing: float = 0.0   # 0 means default 1/N

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if self.group not in _RANK:
            raise ValueError(f"unknown group {self.group!r}")
        r = _RANK[self.group]
        want = (len(self.dims), *self.dims, r, r)
        if self.links.shape != want:
            raise ValueError(f"links shape {self.links.shape} != {want}")
        if self.spacing == 0.0:
            object.__setattr__(self, "spacing", 1.0 / self.dims[0])

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def rank(self) -> int:
        return _RANK[self.group]

    def n_sites(self) -> int:
        return int(np.prod(self.dims))

    def copy(self) -> "LatticeGaugeField":
        return LatticeGaugeField(self.dims, self.group, self.links.copy(),
                                 self.spacing)

    def unitarity_defect(self) -> float:
        u = self.links
        eye = np.eye(self.rank)
        d = np.abs(u @ np.conj(np.swapaxes(u, -1, -2)) - eye).max()
        if self.group == "su2":
            det = u[..., 0, 0] * u[..., 1, 1] - u[..., 0, 1] * u[..., 1, 0]
            d = max(float(d), float(np.abs(det - 1.0).max()))
        return float(d)


def identity_field(dims, group: str) -> LatticeGaugeField:
    r = _RANK[group]
    links = np.zeros((len(dims), *dims, r, r), dtype=complex)
    links[...] = np.eye(r)
    return LatticeGaugeField(tuple(dims), group, links)


def _shift(a: np.ndarray, axis: int, n: int) -> np.ndarray:
    # site array axis 0 is direction; site axes start at 1
    return np.roll(a, -n, axis=1 + axis)


def _dag(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def plaquette_field(U: LatticeGaugeField, mu: int, nu: int) -> np.ndarray:
    """P_{mu nu}(x) = U_mu(x) U_nu(x+mu) U_mu(x+nu)^+ U_nu(x)^+, all sites."""
    u = U.links
    return (u[mu] @ _shift(u[nu:nu + 1], mu, 1)[0]
            @ _dag(_shift(u[mu:mu + 1], nu, 1)[0]) @ _dag(u[nu]))


def plaquette(U: LatticeGaugeField, site, mu: int, nu: int) -> np.ndarray:
    d = U.ndim
    if not (0 <= mu < d and 0 <= nu < d) or mu == nu:
        raise IndexError("invalid directions")
    site = tuple(int(s) for s in site)
    if len(site) != d or any(not 0 <= s < n for s, n in zip(site, U.dims)):
        raise IndexError("site out of range")
    return plaquette_field(U, mu, nu)[site]


def _project_algebra(m: np.ndarray, rank: int) -> np.ndarray:
    g = 0.5 * (m - _dag(m))
    if rank > 1:
        tr = np.trace(g, axis1=-2, axis2=-1) / rank
        g = g - tr[..., None, None] * np.eye(rank)
    return g


def clover_field(U: LatticeGaugeField, mu: int, nu: int) -> np.ndarray:
    """Anti-Hermitian traceless clover average F^_{mu nu}(x).

    Four plaquette leaves around the site, F^ = (C - C^+)/8 minus the trace
    part; approximates a^2 F_{mu nu} to O(a^4) with exact antisymmetry.
    """
    u = U.links
    um, un = u[mu], u[nu]
    um_mnu = _shift(u[mu:mu + 1], nu, -1)[0]          # U_mu(x - nu)
    un_mnu = _shift(u[nu:nu + 1], nu, -1)[0]          # U_nu(x - nu)
    un_mmu = _shift(u[nu:nu + 1], mu, -1)[0]          # U_nu(x - mu)
    um_mmu = _shift(u[mu:mu + 1], mu, -1)[0]          # U_mu(x - mu)
    # leaf 1: forward-forward
    p1 = um @ _shift(u[nu:nu + 1], mu, 1)[0] @ _dag(_shift(u[mu:mu + 1], nu, 1)[0]) @ _dag(un)
    # leaf 2: nu, -mu
    p2 = un @ _dag(_shift(um_mmu[None], nu, 1)[0]) @ _dag(un_mmu) @ um_mmu
    # leaf 3: -mu, -nu
    p3 = (_dag(um_mmu) @ _dag(_shift(un_mnu[None], mu, -1)[0])
          @ _shift(um_mnu[None], mu, -1)[0] @ un_mnu)
    # leaf 4: -nu, mu
    p4 = _dag(un_mnu) @ um_mnu @ _shift(un_mnu[None], mu, 1)[0] @ _dag(um)
    # the factors are powers of 2, so this is (C - C^+)/8 to the bit
    return _project_algebra(p1 + p2 + p3 + p4, U.rank) / 4.0


# (mu, nu) planes in lexicographic order: the six of the first four
# directions, all 21 of a 7D lattice, and where the six sit among the 21
_PLANES4 = tuple(itertools.combinations(range(4), 2))
_PLANES7 = tuple(itertools.combinations(range(7), 2))
_BASE_PLANES = [_PLANES7.index(p) for p in _PLANES4]


def _clover_stack(U: LatticeGaugeField, planes) -> np.ndarray:
    """clover_field of every (mu, nu) in ``planes``, stacked on axis 0.

    The one clover pass behind every lattice curvature observable."""
    F = np.empty((len(planes), *U.dims, U.rank, U.rank), dtype=complex)
    for k, (mu, nu) in enumerate(planes):
        F[k] = clover_field(U, mu, nu)
    return F


def _charge(U: LatticeGaugeField, f) -> float:
    """(1/8 pi^2) sum tr(F^F) from the six base planes ``f`` (_PLANES4)."""
    f01, f02, f03, f12, f13, f23 = f
    dens = f01 @ f23 - f02 @ f13 + f03 @ f12
    total = float(np.real(np.trace(dens, axis1=-2, axis2=-1)).sum())
    if U.ndim > 4:
        # lifted fields repeat each base slice across the fiber volume
        total /= float(np.prod(U.dims[4:]))
    return total / (4.0 * np.pi ** 2)


def clover_charge(U: LatticeGaugeField) -> float:
    """Charge (1/8 pi^2) sum tr(F^F) via the clover discretization on the
    first four directions; gauge invariant by construction."""
    if U.ndim < 4:
        raise ValueError("need at least 4 directions")
    return _charge(U, _clover_stack(U, _PLANES4))


def _norm_sq(a: np.ndarray) -> float:
    """Sum of |a_ij|^2 over all entries: sum over sites of tr(a a^+)."""
    return float(np.vdot(a, a).real)


def _sd_asd(f) -> tuple:
    """Self-dual and anti-self-dual parts of the six planes ``f`` (_PLANES4),
    three components each."""
    f01, f02, f03, f12, f13, f23 = f
    return ((f01 + f23, f02 - f13, f03 + f12),
            (f01 - f23, f02 + f13, f03 - f12))


def _chirality(f) -> dict:
    sd, asd = (0.5 * sum(_norm_sq(a) for a in part) for part in _sd_asd(f))
    total = sd + asd
    return {"sd_sq": sd, "asd_sq": asd, "total": total,
            "asd_fraction": asd / total if total > 0 else 0.0}


def chirality_energies(U: LatticeGaugeField) -> dict:
    """Per-site-summed |F+|^2 and |F-|^2 from the clover field (4D part)."""
    return _chirality(_clover_stack(U, _PLANES4))


# ---------------------------------------------------------------------------
# constructors


def constant_flux_field(dims, flux, group: str = "u1") -> LatticeGaugeField:
    """Links realizing uniform plaquette angles 2 pi f_jk / (N_j N_k).

    ``flux`` is a real antisymmetric 4x4 matrix; each (j, k) plane gets the
    standard transporter with a compensating boundary twist on the j links,
    which makes every plaquette in the plane exactly equal.  For su2 the
    phase sits on the sigma_3 generator, so a diagonal flux f contributes
    charge -2 f^2 per SD plane pair (each U(1) eigenvalue counts once).
    """
    if len(dims) != 4:
        raise ValueError("constant flux construction is 4D")
    for i in range(4):
        for j in range(4):
            if abs(flux[i][j] + flux[j][i]) > 1e-15:
                raise ValueError("flux must be antisymmetric")
    theta = np.zeros((4, *dims))
    grids = np.meshgrid(*[np.arange(n) for n in dims], indexing="ij")
    for j in range(4):
        for k in range(j + 1, 4):
            fjk = float(flux[j][k])
            if fjk == 0.0:
                continue
            nj, nk = dims[j], dims[k]
            theta[k] += 2.0 * np.pi * fjk * grids[j] / (nj * nk)
            theta[j] -= np.where(grids[j] == nj - 1,
                                 2.0 * np.pi * fjk * grids[k] / nk, 0.0)
    if group == "u1":
        links = np.exp(1j * theta)[..., None, None]
    else:
        ph = np.exp(1j * theta)
        links = np.zeros((4, *dims, 2, 2), dtype=complex)
        links[..., 0, 0] = ph
        links[..., 1, 1] = np.conj(ph)
    return LatticeGaugeField(tuple(dims), group, links)


def toron_su2(dims, f: float) -> LatticeGaugeField:
    """Self-dual SU(2) configuration with clover charge about -2 f^2.

    Equal flux f in the (1,2) and (3,4) planes on the sigma_3 generator;
    f = 1/sqrt(2) realizes the |q| = 1 sector.
    """
    flux = np.zeros((4, 4))
    flux[0, 1], flux[1, 0] = f, -f
    flux[2, 3], flux[3, 2] = f, -f
    return constant_flux_field(dims, flux, "su2")


def add_link_noise(U: LatticeGaugeField, amplitude: float, seed: int) -> LatticeGaugeField:
    """Multiply every link by exp(noise) with seeded Lie-algebra noise."""
    rng = SplitMix64(seed)
    out = U.copy()
    flat = out.links.reshape(-1, U.rank, U.rank)
    if U.group == "u1":
        angles = np.array(rng.gausses(flat.shape[0])) * amplitude
        flat[:, 0, 0] *= np.exp(1j * angles)
    else:
        coef = np.array(rng.gausses(3 * flat.shape[0])).reshape(-1, 3) * amplitude
        flat[:] = _expm_ah(su2(coef[:, ::-1])) @ flat
    return out


def random_gauge_transform(U: LatticeGaugeField, seed: int) -> LatticeGaugeField:
    """Site-wise conjugation U_mu(x) -> g(x) U_mu(x) g(x+mu)^+."""
    rng = SplitMix64(seed)
    n = U.n_sites()
    if U.group == "u1":
        g = np.exp(1j * 2 * np.pi * np.array(rng.uniforms(n))).reshape(*U.dims, 1, 1)
    else:
        coef = np.array(rng.gausses(3 * n)).reshape(-1, 3)
        g = _expm_ah(su2(coef[:, ::-1])).reshape(*U.dims, 2, 2)
    out = U.copy()
    for mu in range(U.ndim):
        g_up = np.roll(g, -1, axis=mu)
        out.links[mu] = g @ out.links[mu] @ _dag(g_up)
    return out


# ---------------------------------------------------------------------------
# group-manifold numerics


def su2(g) -> np.ndarray:
    """The su(2) element [[i g0, g1 + i g2], [-g1 + i g2, -i g0]] of real
    coordinates g = (g0, g1, g2) on the last axis; leading axes batch."""
    g = np.asarray(g, dtype=float)
    X = np.empty(g.shape[:-1] + (2, 2), dtype=complex)
    X[..., 0, 0] = 1j * g[..., 0]
    X[..., 1, 1] = -1j * g[..., 0]
    X[..., 0, 1] = g[..., 1] + 1j * g[..., 2]
    X[..., 1, 0] = -g[..., 1] + 1j * g[..., 2]
    return X


def _expm_ah(X: np.ndarray) -> np.ndarray:
    """Exponential of anti-Hermitian traceless 2x2 (or plain exp for 1x1)."""
    if X.shape[-1] == 1:
        return np.exp(X)
    a = np.imag(X[..., 0, 0])
    b = np.real(X[..., 0, 1])
    c = np.imag(X[..., 0, 1])
    th = np.sqrt(a * a + b * b + c * c)
    sinc = np.where(th > 1e-30, np.sin(np.maximum(th, 1e-30)) / np.maximum(th, 1e-30), 1.0)
    eye = np.eye(2)
    return np.cos(th)[..., None, None] * eye + sinc[..., None, None] * X


def reunitarize(U: LatticeGaugeField) -> None:
    """Project links back onto the group (polar projection, det fixed)."""
    if U.group == "u1":
        z = U.links[..., 0, 0]
        U.links[..., 0, 0] = z / np.abs(z)
        return
    w, s, vh = np.linalg.svd(U.links)
    u = w @ vh
    det = u[..., 0, 0] * u[..., 1, 1] - u[..., 0, 1] * u[..., 1, 0]
    u = u * (det ** -0.5)[..., None, None]
    U.links = u


# plane -> (its component in the ASD part of _sd_asd, its sign there); the
# order is the order in which asd_force accumulates
_PLANE_SIGNS = {(0, 1): (0, 1.0), (2, 3): (0, -1.0),
                (0, 2): (1, 1.0), (1, 3): (1, 1.0),
                (0, 3): (2, 1.0), (1, 2): (2, -1.0)}


def plaquette_chirality_energies(U: LatticeGaugeField) -> dict:
    """|F+|^2 and |F-|^2 from single-plaquette (not clover) curvature.

    This is the functional the cooling flow descends exactly, so its value
    is guaranteed monotone along accepted steps.
    """
    return _chirality([_project_algebra(plaquette_field(U, mu, nu), U.rank)
                       for mu, nu in _PLANES4])


def asd_force(U: LatticeGaugeField) -> np.ndarray:
    """Exact Lie-algebra gradient of the plaquette ASD energy.

    E = 1/2 sum_x sum_k |D_k(x)|^2 with D built from the projected
    plaquettes; the chain rule contributes four terms per (link, plane)
    since each link sits in two plaquettes of each containing plane.
    """
    P = {p: plaquette_field(U, *p) for p in _PLANES4}
    D = _sd_asd([_project_algebra(P[p], U.rank) for p in _PLANES4])[1]
    u = U.links
    out = np.zeros_like(u)
    for (mu, nu), (k, s) in _PLANE_SIGNS.items():
        d = D[k]
        p = P[(mu, nu)]
        dd = _dag(d)
        # U_mu(x): leading factor of P(x), daggered third factor of P(x-nu)
        out[mu] += s * (p @ dd)
        un_dn = _shift(u[nu][None], nu, -1)[0]
        dd_dn = _shift(dd[None], nu, -1)[0]
        p_dn = _shift(p[None], nu, -1)[0]
        out[mu] -= s * (_dag(un_dn) @ dd_dn @ p_dn @ un_dn)
        # U_nu(x): second factor of P(x-mu), daggered last factor of P(x)
        um_bk = _shift(u[mu][None], mu, -1)[0]
        um_bk_up = _shift(um_bk[None], nu, 1)[0]
        un_bk = _shift(u[nu][None], mu, -1)[0]
        dd_bk = _shift(dd[None], mu, -1)[0]
        out[nu] += s * (u[nu] @ _dag(um_bk_up) @ _dag(un_bk) @ dd_bk @ um_bk)
        out[nu] -= s * (dd @ p)
    # sign: Re tr(X M) = -<X, Pi(M)> for anti-Hermitian X, so the descent
    # update U <- exp(-tau G) U needs G = -Pi(M)
    for mu in range(U.ndim):
        out[mu] = -_project_algebra(out[mu], U.rank)
    return out


def cool_to_sd(U: LatticeGaugeField, max_steps: int = 5000,
               tol: float = 1e-3) -> dict:
    """Backtracking gradient descent on the anti-self-dual energy.

    Descends the exact gradient of the plaquette ASD energy, scaled so its
    largest entry moves by at most 0.1 per step; steps are only accepted
    when |F-|^2 does not increase, with up to 30 halvings.  A step
    that cannot decrease the energy despite a substantial gradient raises
    CoolingDivergence; a vanishing gradient above tolerance is reported as
    a plateau.  History rows are (step, asd_fraction, charge) for every step.
    """
    if U.ndim != 4:
        raise ValueError("cooling runs on 4D lattices")
    work = U.copy()
    tau = step_size = 0.1
    en = plaquette_chirality_energies(work)
    history = [(0, en["asd_fraction"], clover_charge(work))]
    if en["asd_fraction"] < tol:
        return {"field": work, "history": history, "converged": True,
                "steps": 0, "plateau": False}
    for step in range(1, max_steps + 1):
        force = asd_force(work)
        fmax = float(np.abs(force).max())
        if fmax < 1e-14:
            return {"field": work, "history": history, "converged": False,
                    "steps": step - 1, "plateau": True}
        accepted = False
        trial_tau = tau
        for _ in range(30):
            trial = work.copy()
            scale = trial_tau / fmax
            for mu in range(4):
                trial.links[mu] = _expm_ah(-scale * force[mu]) @ trial.links[mu]
            reunitarize(trial)
            trial_en = plaquette_chirality_energies(trial)
            if trial_en["asd_sq"] <= en["asd_sq"] * (1.0 + 1e-12):
                accepted = True
                break
            trial_tau *= 0.5
        if not accepted:
            if en["asd_sq"] < 1e-20 or fmax < 1e-9 * max(en["asd_sq"], 1.0):
                return {"field": work, "history": history, "converged": False,
                        "steps": step - 1, "plateau": True}
            raise CoolingDivergence(
                f"no acceptable step at iteration {step}", history)
        work, en, tau = trial, trial_en, min(trial_tau * 1.5, step_size)
        history.append((step, en["asd_fraction"], clover_charge(work)))
        if en["asd_fraction"] < tol:
            return {"field": work, "history": history, "converged": True,
                    "steps": step, "plateau": False}
    return {"field": work, "history": history, "converged": False,
            "steps": max_steps, "plateau": False}


# ---------------------------------------------------------------------------
# the 7D lift and residuals


def lift_lattice_7d(U: LatticeGaugeField, t_dims) -> LatticeGaugeField:
    """Copy base links across fiber slices; fiber links are identity."""
    if U.ndim != 4:
        raise ValueError("expected a 4D base field")
    t_dims = tuple(int(n) for n in t_dims)
    if len(t_dims) != 3:
        raise ValueError("three fiber directions required")
    dims7 = U.dims + t_dims
    r = U.rank
    links = np.zeros((7, *dims7, r, r), dtype=complex)
    base = U.links.reshape(4, *U.dims, 1, 1, 1, r, r)
    links[:4] = np.broadcast_to(base, (4, *dims7, r, r))
    links[4:] = np.eye(r)
    return LatticeGaugeField(dims7, U.group, links, U.spacing)


def _wedge_table(form: ConstForm, degree: int) -> np.ndarray:
    """Matrix of eta -> eta ^ form from lexicographic ``degree``-forms to
    lexicographic (degree + form.degree)-forms."""
    n = form.dim
    out = lex_basis(n, degree + form.degree)
    rows = [wedge(ConstForm.basis(n, idx, 1.0), form).coeff_vector(out)
            for idx in lex_basis(n, degree)]
    return np.array(rows, dtype=float).T


def _instanton_residuals(F: np.ndarray, s, n: int) -> dict:
    """RMS over the n columns of a 21-component 2-form stack ``F`` of the
    three instanton residuals: r_a of F ^ star_phi, r_b of F - T(F)/lambda14
    and f7_norm of p7 F, with T = p7 (lambda7 - lambda14) + lambda14."""
    p7 = s.p7_array()
    T = p7 * (float(s.lambda7) - float(s.lambda14)) + float(s.lambda14) * np.eye(21)
    maps = {"r_a": _wedge_table(s.star_phi, 2),
            "r_b": np.eye(21) - T / float(s.lambda14), "f7_norm": p7}
    return {k: float(np.sqrt(_norm_sq(np.tensordot(M, F, axes=(1, 0))) / n))
            for k, M in maps.items()}


def residual_7d(U: LatticeGaugeField, s) -> dict:
    """Per-site RMS instanton residuals of a 7D lattice field.

    Builds the 21-component clover curvature at every site and applies the
    structure's projectors; r_a comes from the constant map F -> F ^ star_phi.
    """
    if U.ndim != 7:
        raise ValueError("expected a 7D field")
    return _instanton_residuals(_clover_stack(U, _PLANES7), s, U.n_sites())


def _cs_integral(U: LatticeGaugeField, F: np.ndarray, v,
                 four_form: ConstForm) -> float:
    """Site average of the top coefficient of tr(F ^ (v -| F)) ^ four_form.

    ``F`` is the 21-plane clover stack of a 7D field.  In adapted
    coordinates the torus is the unit cube, so a_mu = 1/N_mu, the clover
    times N_mu N_nu is the curvature and the site average is the integral.
    The form algebra is a 21 x 21 table T with
    top(eta_k ^ (v -| eta_l) ^ four_form) = T[k, l]; the sites enter through
    one contraction of T with tr(F_k F_l).
    """
    if U.ndim != 7:
        raise ValueError("expected a 7D lattice field")
    v = [float(x) for x in v]
    covectors = [ConstForm.basis(7, (c,), 1.0) for c in range(1, 8)]
    # M[k, c] = top(eta_k ^ e^c ^ four_form), B[c, l] = e^c part of v -| eta_l
    M = np.stack([_wedge_table(wedge(e, four_form), 2)[0] for e in covectors],
                 axis=1)
    B = np.array([interior(v, ConstForm.basis(7, idx, 1.0)).coeff_vector(
        lex_basis(7, 1)) for idx in lex_basis(7, 2)], dtype=float).T
    scale = np.array([U.dims[i] * U.dims[j] for i, j in _PLANES7], dtype=float)
    T = (M @ B) * np.outer(scale, scale)
    total = np.einsum("kl,k...ab,l...ba->", T, F, F, optimize=True)
    return float(total.real) / U.n_sites()


def asd_residual_4d(U: LatticeGaugeField) -> float:
    """Per-site RMS norm of the ASD clover component of a 4D field."""
    en = chirality_energies(U)
    return float(np.sqrt(en["asd_sq"] / U.n_sites()))


# ---------------------------------------------------------------------------
# snapshots


def write_snapshot(U: LatticeGaugeField, path: str) -> None:
    """Binary snapshot: fixed header, then row-major complex links as
    little-endian float64 (re, im) pairs, with a JSON manifest alongside."""
    header = bytearray()
    header += _MAGIC
    header += struct.pack("<I", 1)                      # version
    header += struct.pack("<I", U.ndim)
    header += struct.pack(f"<{U.ndim}I", *U.dims)
    header += struct.pack("<I", _GROUP_CODE[U.group])
    header += struct.pack("<d", U.spacing)
    data = np.ascontiguousarray(U.links, dtype=np.complex128)
    with open(path, "wb") as fh:
        fh.write(bytes(header))
        fh.write(data.astype("<c16").tobytes())
    manifest = {
        "format": _MAGIC.decode(), "version": 1,
        "dims": list(U.dims), "group": U.group, "spacing": U.spacing,
        "link_matrices": int(np.prod(U.links.shape[:-2])),
        "rank": U.rank,
    }
    with open(path + ".json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_snapshot(path: str) -> LatticeGaugeField:
    """Read a write_snapshot file.  The header is checked, and the file
    length against it, before the links are allocated; any mismatch raises
    ValueError."""
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        def unpack(fmt):
            raw = fh.read(struct.calcsize(fmt))
            if len(raw) != struct.calcsize(fmt):
                raise ValueError("truncated snapshot header")
            return struct.unpack(fmt, raw)

        if fh.read(8) != _MAGIC:
            raise ValueError("not a lattice snapshot")
        version, ndim = unpack("<2I")
        if version != 1:
            raise ValueError(f"unsupported snapshot version {version}")
        if not 1 <= ndim <= 7:
            raise ValueError(f"snapshot claims {ndim} dimensions, not 1 to 7")
        dims = unpack(f"<{ndim}I")
        code, spacing = unpack("<Id")
        if code not in _GROUP_NAME:
            raise ValueError(f"unknown group code {code}")
        if min(dims) < 1:
            raise ValueError(f"snapshot extents {list(dims)} must be >= 1")
        group = _GROUP_NAME[code]
        r = _RANK[group]
        count = ndim * math.prod(dims) * r * r
        want = fh.tell() + 16 * count
        if size != want:
            raise ValueError(f"snapshot has {size} bytes, its header "
                             f"{list(dims)} {group} needs {want}")
        raw = np.frombuffer(fh.read(16 * count), dtype="<c16")
    links = raw.reshape(ndim, *dims, r, r).astype(complex)
    return LatticeGaugeField(dims, group, links, spacing)
