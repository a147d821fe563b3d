"""Connections on the total space written in fibered form.

A connection is A_t(x) + sum_i sigma_i(x, t) dt^i: a t-parametrized family
of base potentials plus three Lie-algebra scalars.  Its curvature splits
into a base block, three mixed 1-form blocks and a fiber-fiber block; the
instanton condition forces the last two to vanish and the base block to be
self-dual slice-wise.  Each family is stacked into one FourierField with
t-grid axes, so the number of field operations does not depend on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exterior import ConstForm
from ..fibration import EPSILON3, OMEGA_BASE
from .fourier import CurvatureField, FourierField, _curvature_and_tail


def _t_indices(t_dims):
    return list(np.ndindex(*t_dims))


@dataclass
class FiberedConnection:
    """t-grid of base 1-form potentials plus three scalar fields sigma_i.

    ``base`` maps a t-index tuple to a FourierField(dim 4, degree 1);
    ``sigma`` is a list of three maps with FourierField(dim 4, degree 0)
    values.  Grids are periodic in t.
    """

    t_dims: tuple
    base: dict
    sigma: tuple

    def __post_init__(self):
        object.__setattr__(self, "t_dims", tuple(int(n) for n in self.t_dims))
        if len(self.t_dims) != 3:
            raise ValueError("three fiber directions required")
        if any(n < 2 for n in self.t_dims):
            raise ValueError("need at least 2 grid points per fiber direction")
        want = set(_t_indices(self.t_dims))
        if set(self.base.keys()) != want:
            raise ValueError("base grid shape mismatch")
        if len(self.sigma) != 3 or any(set(s.keys()) != want for s in self.sigma):
            raise ValueError("sigma grid shape mismatch")

    @staticmethod
    def pullback(A: FourierField, t_dims) -> "FiberedConnection":
        """The t-independent family with sigma = 0 (a pulled-back connection)."""
        idxs = _t_indices(tuple(t_dims))
        base = {t: A for t in idxs}
        r, M = A.group_rank, A.cutoff
        zero = FourierField.zero(4, 0, r, M)
        return FiberedConnection(tuple(t_dims), base,
                                 tuple({t: zero for t in idxs} for _ in range(3)))

    def t_shift(self, t, i: int, step: int):
        lst = list(t)
        lst[i] = (lst[i] + step) % self.t_dims[i]
        return tuple(lst)


def _stack(family: dict, t_dims: tuple) -> FourierField:
    """One field with t-grid axes from a map of per-point fields, at their
    largest cutoff, on the union of their rows in canonical (m, J) order."""
    fields = [family[t] for t in _t_indices(t_dims)]
    rows, row = np.unique(np.concatenate([np.column_stack([f.freqs, f.masks])
                                          for f in fields]),
                          axis=0, return_inverse=True)
    point = np.repeat(np.arange(len(fields)), [len(f.masks) for f in fields])
    f0, r = fields[0], fields[0].group_rank
    coeffs = np.zeros((len(rows), len(fields), r, r), dtype=complex)
    coeffs[row.ravel(), point] = np.concatenate([f.coeffs for f in fields])
    return FourierField(f0.dim, f0.degree, r, max(f.cutoff for f in fields),
                        rows[:, :-1], rows[:, -1],
                        coeffs.reshape((len(rows), *t_dims, r, r)))


def _by_point(f: FourierField, t_dims: tuple) -> dict:
    """{t: f at grid point t, without the rows that vanish there}."""
    c = f.coeffs.reshape((len(f.masks), *t_dims) + f.coeffs.shape[-2:])
    return {t: FourierField(f.dim, f.degree, f.group_rank, f.cutoff, f.freqs, f.masks,
                            c[(slice(None), *t)]).prune() for t in _t_indices(t_dims)}


def _t_derivative(f: FourierField, t_dims: tuple, i: int) -> FourierField:
    """Centred difference along t-grid axis i (periodic, h = 1/T_i)."""
    h = 1.0 / t_dims[i]
    up, dn = (FourierField(f.dim, f.degree, f.group_rank, f.cutoff, f.freqs,
                           f.masks, np.roll(f.coeffs, -step, axis=1 + i))
              for step in (1, -1))
    return (up - dn).scale(1.0 / (2.0 * h))


def covariant_d_scalar(A: FourierField, chi: FourierField) -> FourierField:
    """d_A chi = d chi + [A, chi] for a Lie-algebra scalar chi."""
    out = chi.d()
    if A.group_rank > 1:
        out = out + A.wedge(chi) - chi.wedge(A)
    return out


def fibered_curvature(conn: FiberedConnection) -> dict:
    """The three curvature blocks of A_t + sum sigma_i dt^i.

    Returns maps over the t-grid of the base curvatures, the mixed blocks
    d_{A_t} sigma_i - dA_t/dt^i, and the fiber-fiber block
    F_sigma = sum_{i<j} (dsigma_i/dt^j - dsigma_j/dt^i
    + 1/2 [sigma_i, sigma_j]) dt^i dt^j.  t-derivatives use centered
    differences, so the last two blocks carry O(h^2) grid error.  Each
    family is truncated at the largest cutoff of its slices.
    """
    dims = conn.t_dims
    A = _stack(conn.base, dims)
    sigma = [_stack(s, dims) for s in conn.sigma]
    F, tail = _curvature_and_tail(A)
    mixed = [covariant_d_scalar(A, s) - _t_derivative(A, dims, i)
             for i, s in enumerate(sigma)]
    f_sigma = {(i, j): (_t_derivative(sigma[i], dims, j)
                        - _t_derivative(sigma[j], dims, i))
               + (sigma[i].wedge(sigma[j]) - sigma[j].wedge(sigma[i])).scale(0.5)
               for i, j in ((0, 1), (0, 2), (1, 2))}
    base, tails = _by_point(F, dims), _by_point(tail, dims)
    f_sigma = {k: _by_point(c, dims) for k, c in f_sigma.items()}
    return {"F_base": {t: CurvatureField(base[t], truncation_error=np.sqrt(
                tails[t].norm_sq())) for t in base},
            "mixed": tuple(_by_point(m, dims) for m in mixed),
            "F_sigma": {t: {k: c[t] for k, c in f_sigma.items()} for t in base}}


def block_norms(blocks: dict) -> dict:
    """Grid-averaged L^2 norms of the three curvature blocks."""
    idxs = list(blocks["F_base"].keys())
    n = len(idxs)
    base = np.sqrt(sum(blocks["F_base"][t].full_field().norm_sq() for t in idxs) / n)
    mixed = np.sqrt(sum(blocks["mixed"][i][t].norm_sq()
                        for i in range(3) for t in idxs) / n)
    fsig = np.sqrt(sum(c.norm_sq() for t in idxs
                       for c in blocks["F_sigma"][t].values()) / n)
    return {"base": float(base), "mixed": float(mixed), "f_sigma": float(fsig)}


def q_map(block) -> ConstForm:
    """Linear map sending dt^i ^ dt^j to eps^{ijk} omega_k on the base.

    ``block`` is a 3x3 antisymmetric matrix of scalars; the image is the
    corresponding self-dual base 2-form.
    """
    rows = [list(r) for r in block]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("expected a 3x3 block")
    for i in range(3):
        for j in range(3):
            if rows[i][j] != -rows[j][i]:
                raise ValueError("block must be antisymmetric")
    out = ConstForm.zero(4, 2)
    for i in range(3):
        for j in range(i + 1, 3):
            k = EPSILON3[(i + 1, j + 1)]
            sgn = 1 if k > 0 else -1
            omega = OMEGA_BASE[abs(k) - 1]
            if rows[i][j] != 0:
                out = out + omega.scale(sgn * rows[i][j])
    return out
