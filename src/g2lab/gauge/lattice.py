"""Lattice gauge fields on periodic hypercubic lattices.

Links live on (site, direction) pairs as U(1) phases u or SU(2) matrices
[[a, b], [-conj b, conj a]], a form that products, sums and real multiples
keep, so every array stores row 0 alone, u or (a, b), on axis 0: links are
(r, direction, *sites), site arrays (r, *sites), plane stacks (planes, r,
*sites); snapshots hold whole matrices.  Every u(1)-valued array (the
SD/ASD parts, the force, the clovers and their stacks) stores i y as its real
coefficient y, and the U(1) force is the one field Y = Im(P conj D) per plane
read at x, x - mu and x - nu.  The clover-averaged plaquette measures
curvature; cooling drives the ASD energy to zero while the (quasi-conserved)
charge selects the sector.
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

from ..exterior import MERGE_SIGN, ConstForm, top_coefficients
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
    """Links (r, d, *dims): U(1) phases u, or su2 (a, b) of [[a, b], [-conj b, conj a]]."""
    dims: tuple
    group: str
    links: np.ndarray      # (r, d, *dims) complex

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if min(self.dims) < 1:
            raise ValueError(f"lattice extents {list(self.dims)} must be >= 1")
        if self.group not in _RANK:
            raise ValueError(f"unknown group {self.group!r}")
        want = (self.rank, len(self.dims), *self.dims)
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
    links = np.zeros((_RANK[group], len(dims), *dims), dtype=complex)
    links[0] = 1.0
    return LatticeGaugeField(tuple(dims), group, links)


@functools.lru_cache(maxsize=None)
def _shift_index(extent: int, n: int) -> np.ndarray:
    return (np.arange(extent) + n) % extent


def _shift(a: np.ndarray, axis, n: int) -> np.ndarray:
    """The site array (r, *dims) ``a`` read at x + n e_axis (each axis of a
    tuple): np.roll(a, -n, 1 + axis) as a gather, without roll's setup."""
    for ax in axis if isinstance(axis, tuple) else (axis,):
        a = np.take(a, _shift_index(a.shape[1 + ax], n), axis=1 + ax)
    return a


def _dag(x: np.ndarray) -> np.ndarray:
    """X^+: conj u, or (conj a, -b)."""
    out = np.empty_like(x)
    np.conjugate(x[:1], out=out[:1])
    np.negative(x[1:], out=out[1:])
    return out


def _mul(*factors: np.ndarray) -> np.ndarray:
    """factors[0] @ factors[1] @ ... (two or more) over broadcast sites: u1 u2, or (Creutz,
    PRD 21, 2308 (1980)) (a1, b1)(a2, b2) = (a1 a2 - b1 conj b2, a1 b2 + b1 conj a2)."""
    if len(factors[0]) == 1:
        return functools.reduce(np.multiply, factors)
    a, b = factors[0]
    for a2, b2 in factors[1:]:
        a, b = a * a2 - b * np.conj(b2), a * b2 + b * np.conj(a2)
    return np.stack((a, b))


def _plane_links(U: LatticeGaugeField, mu: int, nu: int) -> tuple:
    """The four factors a, b, c, d of P_{mu nu}(x) = a b c d: U_mu(x),
    U_nu(x+mu), U_mu(x+nu)^+ and U_nu(x)^+ at every site."""
    um, un = U.links[:, mu], U.links[:, nu]
    return um, _shift(un, mu, 1), _dag(_shift(um, nu, 1)), _dag(un)


def plaquette_field(U: LatticeGaugeField, mu: int, nu: int) -> np.ndarray:
    """P_{mu nu}(x) = U_mu(x) U_nu(x+mu) U_mu(x+nu)^+ U_nu(x)^+, all sites."""
    return _mul(*_plane_links(U, mu, nu))


def _project_algebra(m: np.ndarray) -> np.ndarray:
    """The anti-Hermitian traceless part: i Im u, or (i Im a, b); a - a keeps inf as nan."""
    g = m.copy()
    g[0].real -= m[0].real
    return g


def clover_field(U: LatticeGaugeField, mu: int, nu: int) -> np.ndarray:
    """Anti-Hermitian traceless clover average F^_{mu nu}(x), u(1) as its
    real coefficient of i.

    Four plaquette leaves around the site, F^ = (C - C^+)/8 minus the trace
    part; approximates a^2 F_{mu nu} to O(a^4) with exact antisymmetry.
    """
    links = _plane_links(U, mu, nu)
    return _clover(U, mu, nu, _mul(*links), links)


def _clover(U: LatticeGaugeField, mu: int, nu: int, p: np.ndarray, links=None,
            bcd=None) -> np.ndarray:
    """clover_field from the plane's plaquette p = abcd, u(1) as its real
    coefficient of i; su(2) reads the plane's links a, b, c, d (built when
    not given) and takes the partial product bcd when it is given."""
    if U.rank == 1:
        # U(1) leaves commute: each is the plaquette at x - mu, x - mu - nu
        # or x - nu (Sheikholeslami & Wohlert, Nucl. Phys. B 259, 572 (1985));
        # (C - C^+)/8 is i Im C / 4, and Im C sums the leaves' Im P
        q = p.imag
        qm = _shift(q, mu, -1)
        C = q + qm
        C += _shift(qm, nu, -1)
        C += _shift(q, nu, -1)
        return C / 4.0
    a, b, c, d = _plane_links(U, mu, nu) if links is None else links
    # the leaves are the cyclic words abcd, bcda, cdab, dabc: the plaquettes
    # at x, x - mu, x - mu - nu and x - nu, each read from its corner at x
    C = p + _shift(_mul(_mul(b, c, d) if bcd is None else bcd, a), mu, -1)
    C += _shift(_mul(c, d, a, b), (mu, nu), -1)
    C += _shift(_mul(d, a, b, c), nu, -1)
    # the factors are powers of 2, so this is (C - C^+)/8 to the bit
    return _project_algebra(C) / 4.0


# (mu, nu) planes in lexicographic order: the six of the first four
# directions, all 21 of a 7D lattice, and where the six sit among the 21
_PLANES4 = tuple(itertools.combinations(range(4), 2))
_PLANES7 = tuple(itertools.combinations(range(7), 2))
_BASE_PLANES = [_PLANES7.index(p) for p in _PLANES4]
# the index masks of the 21 planes and of the seven covectors e^c
_MASKS2 = np.array([1 << mu | 1 << nu for mu, nu in _PLANES7])
_BITS = 1 << np.arange(7)
# _INTERIOR[i, c, l]: the e^c coefficient of e_i -| eta_l (eta_l = +-e^ic)
_INTERIOR = np.where(_BITS[:, None, None] | _BITS[:, None] == _MASKS2,
                     MERGE_SIGN[_BITS[:, None, None], _BITS[:, None]], 0)


def _clover_stack(U: LatticeGaugeField, planes) -> np.ndarray:
    """clover_field of every (mu, nu) in ``planes``, stacked on axis 0.

    The one clover pass behind every lattice curvature observable."""
    F = np.empty((len(planes), U.rank, *U.dims), dtype=float if U.rank == 1 else complex)
    for k, (mu, nu) in enumerate(planes):
        F[k] = clover_field(U, mu, nu)
    return F


def _charge(U: LatticeGaugeField, f) -> float:
    """(1/8 pi^2) sum tr(F^F) from the six base planes ``f`` (_PLANES4),
    u(1) ones real, as clover_field returns them."""
    f01, f02, f03, f12, f13, f23 = f
    dens = _mul(f01, f23) - _mul(f02, f13) + _mul(f03, f12)
    if U.rank == 1:
        # tr(i f i g) = -f g; 0.0 - s keeps a zero sum +0
        total = 0.0 - float(dens[0].sum())
    else:
        # the trace of [[a, b], [-conj b, conj a]] is 2 Re a
        total = 2.0 * float(dens[0].real.sum())
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


def _norm_sq(x: np.ndarray, rank: int) -> float:
    """The sum over sites of tr(X X^+), rank |row 0|^2, in an order numpy
    fixes (BLAS's np.vdot splits its sum by the thread count)."""
    v = np.ascontiguousarray(x).view(float).ravel()
    return rank * float(np.einsum("i,i->", v, v))


def _sd_asd(f) -> tuple:
    """Self-dual and anti-self-dual parts of the six planes ``f`` (_PLANES4),
    three components each."""
    f01, f02, f03, f12, f13, f23 = f
    return ((f01 + f23, f02 - f13, f03 + f12),
            (f01 - f23, f02 + f13, f03 - f12))


def _energies(parts, rank: int) -> dict:
    """|F+|^2, |F-|^2, their total and the ASD fraction from the two parts
    that _sd_asd returns."""
    sd, asd = (0.5 * sum(_norm_sq(a, rank) for a in part) for part in parts)
    total = sd + asd
    return {"sd_sq": sd, "asd_sq": asd, "total": total,
            "asd_fraction": asd / total if total > 0 else 0.0}


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
    ph = np.exp(1j * theta)
    links = ph[None] if group == "u1" else np.stack((ph, np.zeros(theta.shape, complex)))
    return LatticeGaugeField(tuple(dims), group, links)


def add_link_noise(U: LatticeGaugeField, amplitude: float, seed: int) -> LatticeGaugeField:
    """Multiply every link by exp(noise) with seeded Lie-algebra noise, drawn
    in snapshot order; ValueError if a noised link is not finite."""
    rng = SplitMix64(seed)
    # copied first, so the noised links sit below the temporaries on the heap
    out = U.copy()
    flat = out.links.reshape(U.rank, -1)
    # a huge amplitude overflows here; the finiteness check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        if U.group == "u1":
            flat *= np.exp(1j * (np.array(rng.gausses(flat.shape[1])) * amplitude))
        else:
            coef = np.array(rng.gausses(3 * flat.shape[1])).reshape(-1, 3) * amplitude
            flat[:] = _mul(_expm_ah(_su2_row0(coef)), flat)
    if not np.isfinite(flat).all():
        raise ValueError(f"link noise of amplitude {amplitude!r} gives non-finite links")
    return out


def random_gauge_transform(U: LatticeGaugeField, seed: int) -> LatticeGaugeField:
    """Site-wise conjugation U_mu(x) -> g(x) U_mu(x) g(x+mu)^+."""
    rng = SplitMix64(seed)
    n = U.n_sites()
    if U.group == "u1":
        g = np.exp(1j * 2 * np.pi * rng.uniforms(n)).reshape(1, *U.dims)
    else:
        coef = np.array(rng.gausses(3 * n)).reshape(-1, 3)
        g = _expm_ah(_su2_row0(coef)).reshape(2, *U.dims)
    out = U.copy()
    for mu in range(U.ndim):
        out.links[:, mu] = _mul(g, out.links[:, mu], _dag(_shift(g, mu, 1)))
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


def _su2_row0(c: np.ndarray) -> np.ndarray:
    """Row 0 (i c2, c1 + i c0) of su2(c[:, ::-1]) for coefficient rows c (n, 3)."""
    return np.stack((1j * c[:, 2], c[:, 1] + 1j * c[:, 0]))


def _expm_ah(X: np.ndarray) -> np.ndarray:
    """exp X of the Lie algebra: exp(i x) for u(1) stored as its real x; for
    su(2) (i alpha, beta), (cos th + sinc th i alpha, sinc th beta) with
    th^2 = alpha^2 + |beta|^2."""
    if len(X) == 1:
        return np.exp(1j * X)
    a, b, c = X[0].imag, X[1].real, X[1].imag
    th = np.sqrt(a * a + b * b + c * c)
    sinc = np.where(th > 1e-30, np.sin(np.maximum(th, 1e-30)) / np.maximum(th, 1e-30), 1.0)
    return np.stack((np.cos(th) + sinc * X[0], sinc * X[1]))


def reunitarize(U: LatticeGaugeField) -> None:
    """Project links back onto the group, in place: row 0 over its norm, which
    for su2 is the SU(2) matrix nearest a real multiple of one."""
    u = U.links
    if U.group == "u1":
        u /= np.abs(u)
    else:
        u /= np.sqrt(u[0].real ** 2 + u[0].imag ** 2 + u[1].real ** 2 + u[1].imag ** 2)


# plane -> (its component in the ASD part of _sd_asd, its sign there): the
# terms of the omega triple, in the order in which asd_force accumulates
_PLANE_SIGNS = {(i - 1, j - 1): (k, float(c))
                for k, w in enumerate(OMEGA_BASE) for (i, j), c in w.coeffs.items()}


def _measure(U: LatticeGaugeField) -> tuple:
    """The single-plaquette chirality energies of the base planes, the six
    plaquettes P by plane and the ASD part D of their projections (u(1) ones
    i Im P as Im P): what a cooling trial measures, and what the sweep of an
    accepted field reuses."""
    P = {p: plaquette_field(U, *p) for p in _PLANES4}
    parts = _sd_asd([P[p].imag if U.rank == 1 else _project_algebra(P[p]) for p in _PLANES4])
    return _energies(parts, U.rank), P, list(parts[1])


def plaquette_chirality_energies(U: LatticeGaugeField) -> dict:
    """|F+|^2 and |F-|^2 from single-plaquette (not clover) curvature.

    This is the functional the cooling flow descends exactly, so its value
    is guaranteed monotone along accepted steps.
    """
    return _measure(U)[0]


def _plane_sweep(U: LatticeGaugeField, P: dict, D) -> tuple:
    """The clover charge of U and its ASD force, from _measure's plaquettes P
    and ASD part D, which the sweep empties.  U(1) commutes, so a plane's four
    force terms are one real field Y = Im(P conj D_k) = -Re P delta_k (D_k =
    i delta_k) read at x, x - mu and x - nu, and the force is real; su(2)
    builds each base plane's four links once more, for the clover leaves and
    the force terms."""
    abelian = U.rank == 1
    out, F = np.zeros(U.links.shape, float if abelian else complex), {}
    dd = [x if abelian else _dag(x) for x in D]
    D.clear()
    for (mu, nu), (k, s) in _PLANE_SIGNS.items():
        p = P.pop((mu, nu))
        # s = +-1, so adding s X is adding or subtracting X
        add, sub = (np.add, np.subtract) if s > 0 else (np.subtract, np.add)
        om, on = out[:, mu], out[:, nu]
        if abelian:
            # Pi takes the four terms of M below to i Y(x) - i Y(x - nu) on
            # U_mu and i Y(x - mu) - i Y(x) on U_nu (|U_nu|^2 = 1), so
            # G = -Pi(M) = i g adds them for y = -Y = Re P delta_k
            F[(mu, nu)], y = _clover(U, mu, nu, p), p.real * dd[k]
            add(om, y - _shift(y, nu, -1), out=om)
            add(on, _shift(y, mu, -1) - y, out=on)
            continue
        links = a, b, c, d = _plane_links(U, mu, nu)
        bcd = _mul(b, c, d)
        F[(mu, nu)] = _clover(U, mu, nu, p, links, bcd)
        # U_mu(x): leading factor of P(x), daggered third factor of P(x-nu)
        add(om, _mul(p, dd[k]), out=om)
        sub(om, _shift(_mul(d, dd[k], p, U.links[:, nu]), nu, -1), out=om)
        # U_nu(x): second factor of P(x-mu), daggered last factor of P(x)
        add(on, _shift(_mul(bcd, dd[k], a), mu, -1), out=on)
        sub(on, _mul(dd[k], p), out=on)
    # sign: Re tr(X M) = -<X, Pi(M)> for anti-Hermitian X, so the descent
    # update U <- exp(-tau G) U needs G = -Pi(M)
    return _charge(U, [F[p] for p in _PLANES4]), out if abelian else -_project_algebra(out)


def asd_force(U: LatticeGaugeField) -> np.ndarray:
    """Exact Lie-algebra gradient of the plaquette ASD energy.

    E = 1/2 sum_x sum_k |D_k(x)|^2 with D built from the projected
    plaquettes; the chain rule contributes four terms per (link, plane)
    since each link sits in two plaquettes of each containing plane.  The
    U(1) force i g comes back as its real coefficient g: the four terms are
    Y = Im(P conj D) read at x, x - mu and x - nu.
    """
    return _plane_sweep(U, *_measure(U)[1:])[1]


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
    en, P, D = _measure(work)
    if not math.isfinite(en["total"]):
        raise ValueError("cooling needs finite links: the start field's energy is not finite")
    history, steps, plateau, tau = [], 0, False, np.inf
    while steps < max_steps and not en["asd_fraction"] < tol:
        # one sweep per accepted field: its charge, and the next step's force
        charge, force = _plane_sweep(work, P, D)
        history.append((steps, en["asd_fraction"], charge))
        fmax = float(np.abs(force).max())
        if fmax < 1e-14:
            plateau = True
            break
        g2, tau = _norm_sq(force, work.rank), min(tau, 0.1 / fmax)
        for _ in range(30):
            rot = _expm_ah(-tau * force)
            trial = LatticeGaugeField(work.dims, work.group, _mul(rot, work.links))
            reunitarize(trial)
            trial_en, P, D = _measure(trial)
            c = (trial_en["asd_sq"] - en["asd_sq"] + g2 * tau) / (tau * tau)
            best = g2 / (2.0 * c) if c > 0 else np.inf
            if trial_en["asd_sq"] <= en["asd_sq"] * (1.0 + 1e-12):
                break
            tau = min(max(best, tau / 10), tau / 2)
            del P, D  # drop a rejected trial's plaquettes: one field's at a time
        else:
            if en["asd_sq"] < 1e-20 or fmax < 1e-9 * max(en["asd_sq"], 1.0):
                plateau = True
                break
            raise CoolingDivergence(f"no acceptable step at iteration {steps + 1}", history)
        work, en, tau = trial, trial_en, min(max(best, tau / 2), 2 * tau)
        steps += 1
    else:
        # stopped by tol or max_steps: the last field needs no force, and its
        # clover reads the plaquettes that measured it
        F = [_clover(work, *q, P[q]) for q in _PLANES4]
        history.append((steps, en["asd_fraction"], _charge(work, F)))
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
    V.links[:, :4] = U.links[..., None, None, None]
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


def _instanton_residuals(F: np.ndarray, n: int, norm_sq) -> dict:
    """RMS over the n columns of a 21-component 2-form stack ``F`` of the
    three instanton residuals: r_a of F ^ star_phi, r_b of F - T(F)/lambda14
    and f7_norm of p7 F, with T = p7 (lambda7 - lambda14) + lambda14, each
    measured by ``norm_sq``."""
    return {k: float(np.sqrt(norm_sq(np.tensordot(M, F, axes=(1, 0))) / n))
            for k, M in _residual_maps().items()}


def residual_7d(U: LatticeGaugeField) -> dict:
    """Per-site RMS instanton residuals of a 7D lattice field: the clover
    curvature under the projectors of ``standard_structure()``.  The lattice
    generators are orthonormal, so in these adapted coordinates phi is the
    standard 3-form whatever the twist."""
    if U.ndim != 7:
        raise ValueError("expected a 7D field")
    return _instanton_residuals(_clover_stack(U, _PLANES7), U.n_sites(),
                                functools.partial(_norm_sq, rank=U.rank))


def _cs_integral(U: LatticeGaugeField, F: np.ndarray, v,
                 four_form: ConstForm) -> float:
    """Site average of the top coefficient of tr(F ^ (v -| F)) ^ four_form.

    ``F`` is the 21-plane clover stack of a 7D field.  In adapted
    coordinates the torus is the unit cube, so a_mu = 1/N_mu, the clover
    times N_mu N_nu is the curvature and the site average is the integral.
    The form algebra is a 21 x 21 table T with
    top(eta_k ^ (v -| eta_l) ^ four_form) = T[k, l]; the sites enter through
    one contraction of T with tr(F_k F_l) = rank Re sum_r F_k[r] W_l[r]:
    tr (a, b)(c, d) = 2 Re(a c - b conj d) for W = (c, -conj d), and u(1)
    planes, stored as their real coefficients y, have tr(i y i y') = -y y'
    for W = -F.
    """
    if U.ndim != 7:
        raise ValueError("expected a 7D lattice field")
    v = [float(x) for x in v]
    # M[k, c] = top(eta_k ^ e^c ^ four_form), B[c, l] = e^c part of v -| eta_l
    M = top_coefficients(_MASKS2[:, None], _BITS, four_form)
    B = np.tensordot(v, _INTERIOR, 1)
    scale = np.array([U.dims[i] * U.dims[j] for i, j in _PLANES7], dtype=float)
    T = (M @ B) * np.outer(scale, scale)
    W = -F if U.rank == 1 else np.concatenate((F[:, :1], -np.conj(F[:, 1:])), axis=1)
    total = np.einsum("kl,kr...,lr...->", T, F, W, optimize=True)
    return U.rank * float(total.real) / U.n_sites()


def asd_residual_4d(U: LatticeGaugeField) -> float:
    """Per-site RMS norm of the ASD clover component of a 4D field."""
    en = _energies(_sd_asd(_clover_stack(U, _PLANES4)), U.rank)
    return float(np.sqrt(en["asd_sq"] / U.n_sites()))


# ---------------------------------------------------------------------------
# snapshots


def write_snapshot(U: LatticeGaugeField, path: str) -> None:
    """Binary snapshot: fixed header, then the link matrices (d, *dims, r, r),
    row-major, as little-endian float64 (re, im) pairs, su2 row 1 (-conj b,
    conj a) with 0 - x for -x; a JSON manifest alongside.  The format's spacing
    slot holds 1/N of the first axis; nothing reads it."""
    spacing = 1.0 / U.dims[0]
    full = np.empty((U.rank, *U.links.shape), complex)
    full[0] = U.links
    if U.rank == 2:
        a, b = U.links
        full[1, 0].real, full[1, 0].imag = 0.0 - b.real, b.imag
        full[1, 1].real, full[1, 1].imag = a.real, 0.0 - a.imag
    # magic, version 1, ndim, extents, group code, spacing
    header = _MAGIC + struct.pack(f"<2I{U.ndim}IId", 1, U.ndim, *U.dims,
                                  _GROUP_CODE[U.group], spacing)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.einsum("ij...->...ij", full).astype("<c16").tobytes())
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
    """Read a write_snapshot file.  The header, and the file length against it,
    are checked before the links are allocated; a mismatch, a spacing not finite
    and > 0 (checked, then ignored), a NaN or infinite link entry or an su2 link
    not [[a, b], [-conj b, conj a]] in value raises ValueError; row 0 is kept."""
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
    if r == 2 and ((raw[3::4] != raw[::4].conj()) | (raw[2::4] != -raw[1::4].conj())).any():
        raise ValueError("snapshot has su2 links not of the form [[a, b], [-conj b, conj a]]")
    links = np.moveaxis(raw.reshape(ndim, *dims, r, r)[..., 0, :], -1, 0)
    return LatticeGaugeField(dims, group, np.ascontiguousarray(links, complex))
