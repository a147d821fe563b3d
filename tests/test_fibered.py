"""Fibered connections: curvature blocks and the fiber-plane map."""

import itertools

import numpy as np
import pytest

from conftest import su2
from g2lab.exterior import INDEX_OF, ConstForm
from g2lab.g2core import OMEGA_BASE
from g2lab.gauge.fibered import (
    FiberedConnection, block_norms, covariant_d_scalar, fibered_curvature,
    q_map,
)
from g2lab.gauge.fourier import FourierField, curvature


def _scalar_su2(coeffs, cutoff=2):
    f = FourierField.zero(4, 0, 2, cutoff)
    f.add_coeff((1, 0, 0, 0), (), coeffs)
    return f.symmetrized()


def _su2_field(degree, terms, cutoff=2):
    f = FourierField.zero(4, degree, 2, cutoff)
    for m, idx, g in terms:
        f.add_coeff(m, idx, su2(g))
    return f.symmetrized()


def varying_su2_family(t_dims, seed=7):
    """A non-abelian family whose row supports vary with t: each slice adds
    seeded multiples of fixed fields, with about a quarter of the weights 0.
    A0 carries a mode beyond its cutoff, so curvature has a nonzero tail."""
    rng = np.random.default_rng(seed)
    A0 = _su2_field(1, [((3, 0, 1, 0), (2,), [0.3, -0.2, 0.5]),
                        ((0, 1, 0, 0), (1,), [0.1, 0.4, 0.0])], cutoff=1)
    B = [_su2_field(1, [((1, 0, 0, 0), (3,), [0.0, 0.6, -0.1])], cutoff=1),
         _su2_field(1, [((0, 0, 1, -1), (4,), [0.2, 0.0, 0.3])], cutoff=1)]
    C = [_su2_field(0, [((0, 0, 0, 0), (), [1.0, 0.0, 0.0])]),
         _su2_field(0, [((0, 1, 0, 0), (), [0.0, 0.8, 0.2])]),
         _su2_field(0, [((1, 0, 0, 1), (), [0.3, 0.0, -0.7])])]
    w = rng.uniform(-1.0, 1.0, size=(len(B) + 3 * len(C), *t_dims))
    w[w < -0.5] = 0.0
    base, sigma = {}, ({}, {}, {})
    for t in itertools.product(*map(range, t_dims)):
        At = A0
        for k, b in enumerate(B):
            At = At + b.scale(w[(k, *t)])
        base[t] = At
        for i in range(3):
            s = FourierField.zero(4, 0, 2, 2)
            for k, c in enumerate(C):
                s = s + c.scale(w[(len(B) + 3 * i + k, *t)])
            sigma[i][t] = s
    return FiberedConnection(t_dims, base, sigma)


def _same_field(a, b):
    return ((a.dim, a.degree, a.group_rank, a.cutoff)
            == (b.dim, b.degree, b.group_rank, b.cutoff)
            and np.array_equal(a.freqs, b.freqs)
            and np.array_equal(a.masks, b.masks)
            and np.array_equal(a.coeffs, b.coeffs))


def test_grid_blocks_match_per_point_formulas(monkeypatch):
    """Every per-t block equals the formula on that t-point's fields."""
    t_dims = (4, 3, 5)
    conn = varying_su2_family(t_dims)
    assert len({len(a.masks) for a in conn.base.values()}) > 1
    blocks = fibered_curvature(conn)

    def d_t(grid, t, i):
        up, dn = list(t), list(t)
        up[i] = (t[i] + 1) % t_dims[i]
        dn[i] = (t[i] - 1) % t_dims[i]
        return (grid[tuple(up)] - grid[tuple(dn)]).scale(1.0 / (2.0 / t_dims[i]))

    base_sq, mixed_sq, fsig_sq = [], ([], [], []), []
    for t, A in conn.base.items():
        got, want = blocks["F_base"][t], curvature(A)
        assert _same_field(got, want)
        base_sq.append(want.norm_sq())
        # A ^ A reaches beyond twice the cutoff; the base block drops it there
        AA = A.wedge(A, cutoff=4 * A.cutoff)
        assert np.abs(AA.freqs).max() > 2 * A.cutoff \
            >= np.abs((got - A.d()).freqs).max(initial=0)
        for i in range(3):
            want = covariant_d_scalar(A, conn.sigma[i][t]) - d_t(conn.base, t, i)
            assert _same_field(blocks["mixed"][i][t], want)
            mixed_sq[i].append(want.norm_sq())
        for i, j in ((0, 1), (0, 2), (1, 2)):
            si, sj = conn.sigma[i][t], conn.sigma[j][t]
            want = (d_t(conn.sigma[i], t, j) - d_t(conn.sigma[j], t, i)) \
                + (si.wedge(sj) - sj.wedge(si)).scale(0.5)
            assert _same_field(blocks["F_sigma"][t][(i, j)], want)
            fsig_sq.append(want.norm_sq())
    # the norms are these per-point sums, bit for bit
    n = len(conn.base)
    assert block_norms(blocks) == {
        "base": float(np.sqrt(sum(base_sq) / n)),
        "mixed": float(np.sqrt(sum(mixed_sq[0] + mixed_sq[1] + mixed_sq[2]) / n)),
        "f_sigma": float(np.sqrt(sum(fsig_sq) / n))}

    # neither the field products nor the dict <-> grid conversions grow
    # with the grid
    calls = []
    for name in ("wedge", "prune"):
        def counted(self, *args, _name=name, _method=getattr(FourierField, name),
                    **kwargs):
            calls.append(_name)
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(FourierField, name, counted)
    counts = []
    for T in (4, 8):
        family = varying_su2_family((T, T, T))
        calls.clear()
        fibered_curvature(family)
        counts.append({name: calls.count(name) for name in ("wedge", "prune")})
    assert counts[0] == counts[1] and min(counts[0].values()) > 0


def test_per_t_blocks_share_arrays_safely():
    """A per-t block may view its grid block's arrays; editing it through the
    field API leaves the other blocks, the inputs and the norms as they were."""
    conn = varying_su2_family((4, 3, 5))
    given = [*conn.base.values(), *(f for s in conn.sigma for f in s.values())]
    inputs = [f.copy() for f in given]
    blocks = fibered_curvature(conn)
    norms = block_norms(blocks)
    every = [*blocks["F_base"].values(), *(f for m in blocks["mixed"] for f in m.values()),
             *(f for comps in blocks["F_sigma"].values() for f in comps.values())]
    saved = [f.copy() for f in every]
    # a point where every row is live: its block is a view
    view = next(f for f in blocks["F_base"].values() if not f.coeffs.flags.owndata)
    k = every.index(view)
    assert all(not c.flags.writeable for d in view.modes.values() for c in d.values())

    def others_unchanged():
        assert all(_same_field(f, g) for j, (f, g) in enumerate(zip(every, saved))
                   if j != k)
        assert all(_same_field(f, g) for f, g in zip(given, inputs))

    m, idx, value = tuple(view.freqs[0]), INDEX_OF[view.masks[0]], view.coeffs[0].copy()
    view.add_coeff(m, idx, 2.0 * value)
    others_unchanged()
    view.set_coeff(m, idx, value)
    view.add_coeff((0, 0, 0, 5), (1, 2), value)
    view.set_coeff((0, 0, 0, 5), (1, 2), 0.0 * value)
    view.prune()
    others_unchanged()
    assert _same_field(view, saved[k])
    assert block_norms(blocks) == norms


def test_rows_beyond_the_key_range_are_refused():
    conn = varying_su2_family((2, 2, 2))
    A = conn.base[(1, 0, 1)]
    # |m| = 8192 is the dimension-4 key offset; the field API refuses such a
    # row, so it is built from arrays
    conn.base[(1, 0, 1)] = FourierField(
        4, 1, 2, A.cutoff, np.vstack([A.freqs, [0, -8192, 0, 0]]),
        np.append(A.masks, 1), np.concatenate([A.coeffs, [su2([0.1, 0.0, 0.0])]]))
    with pytest.raises(ValueError, match="frequency too large to index"):
        fibered_curvature(conn)


def test_pullback_connection_has_base_block_only():
    A = FourierField.zero(4, 1, 2, 2)
    A.add_coeff((0, 1, 0, 0), (1,), su2([0.4, -0.1, 0.2]))
    A = A.symmetrized()
    conn = FiberedConnection.pullback(A, (4, 4, 4))
    blocks = fibered_curvature(conn)
    norms = block_norms(blocks)
    assert norms["mixed"] == pytest.approx(0.0, abs=1e-14)
    assert norms["f_sigma"] == pytest.approx(0.0, abs=1e-14)
    assert norms["base"] > 0


def test_gauge_exact_family_mixed_block_second_order():
    """A_t = A + sin(2 pi t_i)/(2 pi) d chi_i, sigma_i = cos(2 pi t_i) chi_i
    satisfies the compatibility condition up to the t-grid error O(h^2)."""
    def scalar_u1(c, freq):
        f = FourierField.zero(4, 0, 1, 2)
        f.add_coeff(freq, (), c)
        return f.symmetrized()

    chi = [scalar_u1(0.3j, (1, 0, 0, 0)),
           scalar_u1(-0.4j, (0, 1, 0, 0)),
           scalar_u1(0.2j, (0, 0, 1, 0))]
    A0 = FourierField.zero(4, 1, 1, 2)
    A0.add_coeff((0, 0, 1, 0), (4,), 0.5j)
    A0 = A0.symmetrized()

    def build(T):
        idxs = [(i, j, k) for i in range(T) for j in range(T)
                for k in range(T)]
        base, sigma = {}, ({}, {}, {})
        for t in idxs:
            At = A0
            for i in range(3):
                s = np.sin(2 * np.pi * t[i] / T) / (2 * np.pi)
                At = At + chi[i].d().scale(s)
            base[t] = At
            for i in range(3):
                sigma[i][t] = chi[i].scale(np.cos(2 * np.pi * t[i] / T))
        return FiberedConnection((T, T, T), base, sigma)

    norms = []
    for T in (4, 8, 16):
        blocks = fibered_curvature(build(T))
        norms.append(block_norms(blocks)["mixed"])
    slopes = [np.log2(norms[i] / norms[i + 1]) for i in range(2)]
    for s in slopes:
        assert abs(s - 2.0) < 0.2


def test_constant_noncommuting_sigmas_give_half_commutator():
    s1 = su2([1.0, 0.0, 0.0])
    s2 = su2([0.0, 1.0, 0.0])
    T = 4
    idxs = [(i, j, k) for i in range(T) for j in range(T) for k in range(T)]
    zero1 = FourierField.zero(4, 1, 2, 2)
    c1 = FourierField.zero(4, 0, 2, 2)
    c1.add_coeff((0, 0, 0, 0), (), s1)
    c2 = FourierField.zero(4, 0, 2, 2)
    c2.add_coeff((0, 0, 0, 0), (), s2)
    c0 = FourierField.zero(4, 0, 2, 2)
    conn = FiberedConnection((T, T, T), {t: zero1 for t in idxs},
                             ({t: c1 for t in idxs}, {t: c2 for t in idxs},
                              {t: c0 for t in idxs}))
    blocks = fibered_curvature(conn)
    comp = blocks["F_sigma"][(0, 0, 0)]
    want = 0.5 * (s1 @ s2 - s2 @ s1)
    got = comp[(0, 1)].modes.get((0, 0, 0, 0), {}).get((), np.zeros((2, 2)))
    assert np.abs(got - want).max() < 1e-14
    for key in ((0, 2), (1, 2)):
        assert comp[key].is_zero(1e-14)


def test_covariant_derivative_reduces_to_d_for_abelian():
    chi = FourierField.zero(4, 0, 1, 2)
    chi.add_coeff((1, 0, 0, 0), (), 0.5j)
    chi = chi.symmetrized()
    A = FourierField.zero(4, 1, 1, 2)
    A.add_coeff((0, 1, 0, 0), (3,), 0.7j)
    A = A.symmetrized()
    d1 = covariant_d_scalar(A, chi)
    assert (d1 - chi.d()).is_zero(1e-14)


def test_q_map_plane_identities():
    cases = [([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], OMEGA_BASE[2], 1),
             ([[0, -1, 0], [1, 0, 0], [0, 0, 0]], OMEGA_BASE[2], -1),
             ([[0, 0, 0], [0, 0, 1], [0, -1, 0]], OMEGA_BASE[0], 1),
             ([[0, 0, -1], [0, 0, 0], [1, 0, 0]], OMEGA_BASE[1], 1)]
    for blk, omega, sign in cases:
        assert (q_map(blk) - omega.scale(sign)).is_zero()
    assert q_map([[0, 0, 0]] * 3).is_zero()
    with pytest.raises(ValueError):
        q_map([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
