"""Lattice gauge fields on periodic hypercubic lattices.

Links live on (site, direction) pairs as U(1) phases or SU(2) matrices,
stored entry-major (i, j, direction, *sites); plane stacks and snapshots are
matrix-last.  Curvature is measured by the clover-averaged plaquette, and the
cooling flow drives the anti-self-dual energy to zero while the
(quasi-conserved) topological charge selects the sector.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from ..exterior import MERGE_SIGN, ConstForm, interior, lex_basis, top_coefficients
from ..g2core import OMEGA_BASE, standard_structure
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
    links: np.ndarray      # (r, r, d, *dims) complex

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if min(self.dims) < 1:
            raise ValueError(f"lattice extents {list(self.dims)} must be >= 1")
        if self.group not in _RANK:
            raise ValueError(f"unknown group {self.group!r}")
        want = (self.rank, self.rank, len(self.dims), *self.dims)
        if self.links.shape != want:
            raise ValueError(f"links shape {self.links.shape} != {want}")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def rank(self) -> int:
        return _RANK[self.group]

    def n_sites(self) -> int:
        return int(np.prod(self.dims))

    def copy(self) -> "LatticeGaugeField":
        return LatticeGaugeField(self.dims, self.group, self.links.copy())


def identity_field(dims, group: str) -> LatticeGaugeField:
    r = _RANK[group]
    links = np.zeros((r, r, len(dims), *dims), dtype=complex)
    links[range(r), range(r)] = 1.0
    return LatticeGaugeField(tuple(dims), group, links)


@functools.lru_cache(maxsize=None)
def _shift_index(extent: int, n: int) -> np.ndarray:
    return (np.arange(extent) + n) % extent


def _shift(a: np.ndarray, axis, n: int) -> np.ndarray:
    """The site array (r, r, *dims) ``a`` read at x + n e_axis (each axis of a
    tuple): np.roll(a, -n, 2 + axis) as a gather, without roll's setup."""
    for ax in axis if isinstance(axis, tuple) else (axis,):
        a = np.take(a, _shift_index(a.shape[2 + ax], n), axis=2 + ax)
    return a


# entry-major (r, r, ...) <-> matrix-last (..., r, r) views, 4x cheaper than np.moveaxis
_matrix_last = functools.partial(np.einsum, "ij...->...ij")
_entry_major = functools.partial(np.einsum, "...ij->ij...")


def _dag(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, 0, 1))


def _mul(*factors: np.ndarray) -> np.ndarray:
    """factors[0] @ factors[1] @ ... (two or more) over broadcast sites.
    Batched matmul is slow on tiny matrices, so rank 1 multiplies elementwise
    and rank 2 writes out the four entries (Creutz, Phys. Rev. D 21, 2308
    (1980)); the last product goes straight into the output's slabs."""
    if len(factors[0]) == 1:
        return functools.reduce(np.multiply, factors)
    a, b = factors[0], factors[-1]
    for f in factors[1:-1]:
        a = [[a[i][0] * f[0, j] + a[i][1] * f[1, j] for j in (0, 1)] for i in (0, 1)]
    out = np.empty((2, 2, *np.broadcast_shapes(a[0][0].shape, b.shape[2:])), complex)
    for i, j in itertools.product((0, 1), repeat=2):
        np.add(np.multiply(a[i][0], b[0, j], out=out[i, j]), a[i][1] * b[1, j], out=out[i, j])
    return out


def _plane_links(U: LatticeGaugeField, mu: int, nu: int) -> tuple:
    """The four factors a, b, c, d of P_{mu nu}(x) = a b c d: U_mu(x),
    U_nu(x+mu), U_mu(x+nu)^+ and U_nu(x)^+ at every site."""
    um, un = U.links[:, :, mu], U.links[:, :, nu]
    return um, _shift(un, mu, 1), _dag(_shift(um, nu, 1)), _dag(un)


def plaquette_field(U: LatticeGaugeField, mu: int, nu: int) -> np.ndarray:
    """P_{mu nu}(x) = U_mu(x) U_nu(x+mu) U_mu(x+nu)^+ U_nu(x)^+, all sites."""
    return _mul(*_plane_links(U, mu, nu))


def _project_algebra(m: np.ndarray, rank: int) -> np.ndarray:
    g = 0.5 * (m - _dag(m))
    if rank > 1:
        t = 0.5 * (g[0, 0] - g[1, 1])
        g[0, 0], g[1, 1] = t, -t
    return g


def clover_field(U: LatticeGaugeField, mu: int, nu: int) -> np.ndarray:
    """Anti-Hermitian traceless clover average F^_{mu nu}(x).

    Four plaquette leaves around the site, F^ = (C - C^+)/8 minus the trace
    part; approximates a^2 F_{mu nu} to O(a^4) with exact antisymmetry.
    """
    links = _plane_links(U, mu, nu)
    return _clover(U.rank, mu, nu, links, _mul(*links))


def _clover(rank: int, mu: int, nu: int, links, p: np.ndarray) -> np.ndarray:
    """clover_field from the plane's links a, b, c, d and its plaquette p = abcd."""
    a, b, c, d = links
    # the leaves are the cyclic words abcd, bcda, cdab, dabc: the plaquettes
    # at x, x - mu, x - mu - nu and x - nu, each read from its corner at x
    C = (p + _shift(_mul(b, c, d, a), mu, -1)
         + _shift(_mul(c, d, a, b), (mu, nu), -1) + _shift(_mul(d, a, b, c), nu, -1))
    # the factors are powers of 2, so this is (C - C^+)/8 to the bit
    return _project_algebra(C, rank) / 4.0


# (mu, nu) planes in lexicographic order: the six of the first four
# directions, all 21 of a 7D lattice, and where the six sit among the 21
_PLANES4 = tuple(itertools.combinations(range(4), 2))
_PLANES7 = tuple(itertools.combinations(range(7), 2))
_BASE_PLANES = [_PLANES7.index(p) for p in _PLANES4]
# the index masks of the 21 planes and of the seven covectors e^c
_MASKS2 = np.array([1 << mu | 1 << nu for mu, nu in _PLANES7])
_BITS = 1 << np.arange(7)


def _clover_stack(U: LatticeGaugeField, planes) -> np.ndarray:
    """clover_field of every (mu, nu) in ``planes``, matrix-last on axis 0.

    The one clover pass behind every lattice curvature observable."""
    F = np.empty((len(planes), *U.dims, U.rank, U.rank), dtype=complex)
    for k, (mu, nu) in enumerate(planes):
        F[k] = _matrix_last(clover_field(U, mu, nu))
    return F


def _charge(U: LatticeGaugeField, f) -> float:
    """(1/8 pi^2) sum tr(F^F) from the six base planes ``f`` (_PLANES4)."""
    f01, f02, f03, f12, f13, f23 = (_entry_major(x) for x in f)
    dens = _mul(f01, f23) - _mul(f02, f13) + _mul(f03, f12)
    total = float(np.real(np.trace(dens)).sum())
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
    ph, z = np.exp(1j * theta), np.zeros(theta.shape, complex)
    links = ph[None, None] if group == "u1" else np.array([[ph, z], [z, np.conj(ph)]])
    return LatticeGaugeField(tuple(dims), group, links)


def add_link_noise(U: LatticeGaugeField, amplitude: float, seed: int) -> LatticeGaugeField:
    """Multiply every link by exp(noise) with seeded Lie-algebra noise, drawn
    in snapshot order; ValueError if a noised link is not finite."""
    rng = SplitMix64(seed)
    # copied first, so the noised links sit below the temporaries on the heap
    out = U.copy()
    flat = out.links.reshape(U.rank, U.rank, -1)
    # a huge amplitude overflows here; the finiteness check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        if U.group == "u1":
            flat *= np.exp(1j * (np.array(rng.gausses(flat.shape[2])) * amplitude))
        else:
            coef = np.array(rng.gausses(3 * flat.shape[2])).reshape(-1, 3) * amplitude
            flat[:] = _mul(_expm_ah(_entry_major(su2(coef[:, ::-1]))), flat)
    if not np.isfinite(flat).all():
        raise ValueError(f"link noise of amplitude {amplitude!r} gives non-finite links")
    return out


def random_gauge_transform(U: LatticeGaugeField, seed: int) -> LatticeGaugeField:
    """Site-wise conjugation U_mu(x) -> g(x) U_mu(x) g(x+mu)^+."""
    rng = SplitMix64(seed)
    n = U.n_sites()
    if U.group == "u1":
        g = np.exp(1j * 2 * np.pi * np.array(rng.uniforms(n))).reshape(1, 1, *U.dims)
    else:
        coef = np.array(rng.gausses(3 * n)).reshape(-1, 3)
        g = _expm_ah(_entry_major(su2(coef[:, ::-1]))).reshape(2, 2, *U.dims)
    out = U.copy()
    for mu in range(U.ndim):
        out.links[:, :, mu] = _mul(g, out.links[:, :, mu], _dag(_shift(g, mu, 1)))
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
    if len(X) == 1:
        return np.exp(X)
    a, b, c = np.imag(X[0, 0]), np.real(X[0, 1]), np.imag(X[0, 1])
    th = np.sqrt(a * a + b * b + c * c)
    sinc = np.where(th > 1e-30, np.sin(np.maximum(th, 1e-30)) / np.maximum(th, 1e-30), 1.0)
    return np.cos(th) * np.eye(2).reshape(2, 2, *(1,) * th.ndim) + sinc * X


def reunitarize(U: LatticeGaugeField) -> None:
    """Project links back onto the group, in place; for su2 the nearest SU(2)
    matrix: the normalised quaternion part [[a, b], [-conj b, conj a]]."""
    u = U.links
    if U.group == "u1":
        u[0, 0] /= np.abs(u[0, 0])
        return
    a = 0.5 * (u[0, 0] + np.conj(u[1, 1]))
    b = 0.5 * (u[0, 1] - np.conj(u[1, 0]))
    n = np.sqrt(a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2)
    u[0, 0], u[0, 1] = a / n, b / n
    u[1, 0], u[1, 1] = -np.conj(u[0, 1]), np.conj(u[0, 0])


# plane -> (its component in the ASD part of _sd_asd, its sign there): the
# terms of the omega triple, in the order in which asd_force accumulates
_PLANE_SIGNS = {(i - 1, j - 1): (k, float(c))
                for k, w in enumerate(OMEGA_BASE) for (i, j), c in w.coeffs.items()}


def plaquette_chirality_energies(U: LatticeGaugeField) -> dict:
    """|F+|^2 and |F-|^2 from single-plaquette (not clover) curvature.

    This is the functional the cooling flow descends exactly, so its value
    is guaranteed monotone along accepted steps.
    """
    return _chirality([_matrix_last(_project_algebra(plaquette_field(U, mu, nu), U.rank))
                       for mu, nu in _PLANES4])


def _plane_sweep(U: LatticeGaugeField) -> tuple:
    """The clover charge of U and its ASD force: the plaquettes are built
    first, for the ASD part D, then each base plane's four links once more,
    for the clover leaves and the force terms."""
    P = {p: plaquette_field(U, *p) for p in _PLANES4}
    D = _sd_asd([_project_algebra(P[p], U.rank) for p in _PLANES4])[1]
    out, F = np.zeros_like(U.links), {}
    for (mu, nu), (k, s) in _PLANE_SIGNS.items():
        links = a, b, c, d = _plane_links(U, mu, nu)
        p, dd = P.pop((mu, nu)), _dag(D[k])
        F[(mu, nu)] = _matrix_last(_clover(U.rank, mu, nu, links, p))
        # U_mu(x): leading factor of P(x), daggered third factor of P(x-nu)
        out[:, :, mu] += s * _mul(p, dd)
        out[:, :, mu] -= s * _shift(_mul(d, dd, p, U.links[:, :, nu]), nu, -1)
        # U_nu(x): second factor of P(x-mu), daggered last factor of P(x)
        out[:, :, nu] += s * _shift(_mul(b, c, d, dd, a), mu, -1)
        out[:, :, nu] -= s * _mul(dd, p)
    # sign: Re tr(X M) = -<X, Pi(M)> for anti-Hermitian X, so the descent
    # update U <- exp(-tau G) U needs G = -Pi(M)
    return _charge(U, [F[p] for p in _PLANES4]), -_project_algebra(out, U.rank)


def asd_force(U: LatticeGaugeField) -> np.ndarray:
    """Exact Lie-algebra gradient of the plaquette ASD energy.

    E = 1/2 sum_x sum_k |D_k(x)|^2 with D built from the projected
    plaquettes; the chain rule contributes four terms per (link, plane)
    since each link sits in two plaquettes of each containing plane.
    """
    return _plane_sweep(U)[1]


def cool_to_sd(U: LatticeGaugeField, max_steps: int = 5000,
               tol: float = 1e-3) -> dict:
    """Gradient descent on the anti-self-dual energy with a model step.

    Steps along exp(-tau G) U, G the exact gradient of the plaquette ASD
    energy E.  Each trial fits E ~ E0 - |G|^2 tau + c tau^2 (the slope is
    exact) and proposes its minimiser next, clamped to [tau/2, 2 tau] after
    an accepted step and to [tau/10, tau/2] after a rise; no step moves the
    largest force entry by more than 0.1.  A step is accepted when |F-|^2
    does not increase, within 30 trials; else a substantial gradient raises
    CoolingDivergence and a vanishing one is reported as a plateau.
    History rows are (step, asd_fraction, charge) for every step.
    """
    if U.ndim != 4:
        raise ValueError("cooling runs on 4D lattices")
    work = U.copy()
    en = plaquette_chirality_energies(work)
    if not math.isfinite(en["total"]):
        raise ValueError("cooling needs finite links: the start field's energy is not finite")
    history, steps, plateau, tau = [], 0, False, np.inf
    while steps < max_steps and not en["asd_fraction"] < tol:
        # one sweep per accepted field: its charge, and the next step's force
        charge, force = _plane_sweep(work)
        history.append((steps, en["asd_fraction"], charge))
        fmax = float(np.abs(force).max())
        if fmax < 1e-14:
            plateau = True
            break
        g2, tau = _norm_sq(_matrix_last(force)), min(tau, 0.1 / fmax)
        for _ in range(30):
            rot = _expm_ah(-tau * force)
            trial = LatticeGaugeField(work.dims, work.group, _mul(rot, work.links))
            reunitarize(trial)
            trial_en = plaquette_chirality_energies(trial)
            c = (trial_en["asd_sq"] - en["asd_sq"] + g2 * tau) / (tau * tau)
            best = g2 / (2.0 * c) if c > 0 else np.inf
            if trial_en["asd_sq"] <= en["asd_sq"] * (1.0 + 1e-12):
                break
            tau = min(max(best, tau / 10), tau / 2)
        else:
            if en["asd_sq"] < 1e-20 or fmax < 1e-9 * max(en["asd_sq"], 1.0):
                plateau = True
                break
            raise CoolingDivergence(f"no acceptable step at iteration {steps + 1}", history)
        work, en, tau = trial, trial_en, min(max(best, tau / 2), 2 * tau)
        steps += 1
    else:
        # stopped by tol or max_steps: the last field needs no force
        history.append((steps, en["asd_fraction"], clover_charge(work)))
    return {"field": work, "history": history, "converged": en["asd_fraction"] < tol,
            "steps": steps, "plateau": plateau}


# ---------------------------------------------------------------------------
# the 7D lift and residuals


def lift_lattice_7d(U: LatticeGaugeField, t_dims) -> LatticeGaugeField:
    """Copy base links across fiber slices; fiber links are identity."""
    if U.ndim != 4:
        raise ValueError("expected a 4D base field")
    t_dims = tuple(int(n) for n in t_dims)
    if len(t_dims) != 3:
        raise ValueError("three fiber directions required")
    V = identity_field(U.dims + t_dims, U.group)
    V.links[:, :, :4] = U.links[..., None, None, None]
    return V


@functools.lru_cache(maxsize=None)
def _residual_maps() -> dict:
    """The three maps of _instanton_residuals, built on first use."""
    s = standard_structure()
    p7 = s.p7_array()
    T = p7 * (float(s.lambda7) - float(s.lambda14)) + float(s.lambda14) * np.eye(21)
    # row J (missing e^c, lex order) of eta ^ star_phi: sign(c, J) top(e^c ^ eta ^ star_phi)
    bits = _BITS[::-1, None]
    r_a = 0.0 + MERGE_SIGN[bits, 127 ^ bits] * top_coefficients(bits, _MASKS2, s.star_phi)
    return {"r_a": r_a,
            "r_b": np.eye(21) - T / float(s.lambda14), "f7_norm": p7}


def _instanton_residuals(F: np.ndarray, n: int) -> dict:
    """RMS over the n columns of a 21-component 2-form stack ``F`` of the
    three instanton residuals: r_a of F ^ star_phi, r_b of F - T(F)/lambda14
    and f7_norm of p7 F, with T = p7 (lambda7 - lambda14) + lambda14."""
    return {k: float(np.sqrt(_norm_sq(np.tensordot(M, F, axes=(1, 0))) / n))
            for k, M in _residual_maps().items()}


def residual_7d(U: LatticeGaugeField) -> dict:
    """Per-site RMS instanton residuals of a 7D lattice field: the clover
    curvature under the projectors of ``standard_structure()``.  The lattice
    generators are orthonormal, so in these adapted coordinates phi is the
    standard 3-form whatever the twist."""
    if U.ndim != 7:
        raise ValueError("expected a 7D field")
    return _instanton_residuals(_clover_stack(U, _PLANES7), U.n_sites())


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
    # M[k, c] = top(eta_k ^ e^c ^ four_form), B[c, l] = e^c part of v -| eta_l
    M = top_coefficients(_MASKS2[:, None], _BITS, four_form)
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
    little-endian float64 (re, im) pairs, with a JSON manifest alongside.
    The format's spacing slot holds 1/N of the first axis; nothing reads it."""
    spacing = 1.0 / U.dims[0]
    # magic, version 1, ndim, extents, group code, spacing
    header = _MAGIC + struct.pack(f"<2I{U.ndim}IId", 1, U.ndim, *U.dims,
                                  _GROUP_CODE[U.group], spacing)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(_matrix_last(U.links).astype("<c16").tobytes())
    manifest = {
        "format": _MAGIC.decode(), "version": 1,
        "dims": list(U.dims), "group": U.group, "spacing": spacing,
        "link_matrices": U.ndim * U.n_sites(),
        "rank": U.rank,
    }
    with open(path + ".json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_snapshot(path: str) -> LatticeGaugeField:
    """Read a write_snapshot file.  The header is checked, and the file
    length against it, before the links are allocated; any mismatch, a
    spacing that is not finite and positive, or a NaN or infinite link entry,
    raises ValueError.  The spacing is checked and then ignored."""
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
        if not 0.0 < spacing < math.inf:
            raise ValueError(f"snapshot spacing {spacing} must be finite and > 0")
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
    if not np.isfinite(raw).all():
        raise ValueError("snapshot has non-finite link entries")
    links = _entry_major(raw.reshape(ndim, *dims, r, r))
    return LatticeGaugeField(dims, group, np.ascontiguousarray(links, complex))
