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

from .exterior import (
    ConstForm,
    Metric,
    is_exact,
    lex_basis,
    mat_det,
    mat_identity,
    mat_inverse,
    pullback_linear,
)
from .g2core import OMEGA_BAR_BASE, OMEGA_BASE, standard_phi

BASE_LAMBDA2 = lex_basis(4, 2)

EPSILON3 = {(1, 2): 3, (2, 3): 1, (1, 3): -2}  # (i,j) -> signed k with eps^ijk

#: the exact flat base metric, built once: its checks cost Fraction minors
_FLAT_ETA = Metric.identity(4)


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
        return FibrationSpec(_FLAT_ETA, mat_identity(3), [[Fraction(0)] * 4 for _ in range(3)])

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
    if rows == mat_identity(len(rows)):
        return rows  # keep exact identity exact
    m = np.array([[float(x) for x in r] for r in rows])
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    return (v @ np.diag(np.sqrt(w)) @ v.T).tolist()


@dataclass(frozen=True)
class TorusFibration:
    """The 7-torus of a spec, in ambient coordinates.  Its G2 structure is
    ``eigen_split(phi)``; lattice-adapted work reads the standard one."""

    ltilde: tuple          # 7x7 generator matrix, columns = lattice generators
    phi: ConstForm         # ambient-coordinate 3-form

    def mixing_block(self) -> np.ndarray:
        """Base-to-fiber block of the generator matrix (alpha); nonzero means
        the total space is not a Riemannian product."""
        return np.array([[float(x) for x in row[:4]] for row in self.ltilde[4:]])


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
    G = [list(row) + [zero] * 3 for row in F] \
        + [list(a) + list(lb) for a, lb in zip(spec.alpha, spec.l_basis)]
    if not exact:
        G = [[float(x) for x in row] for row in G]
    phi0 = standard_phi() if exact else standard_phi().to_double()
    phi = pullback_linear(mat_inverse(G), phi0)
    return TorusFibration(ltilde=tuple(tuple(r) for r in G), phi=phi)


# ---------------------------------------------------------------------------
# deformation decomposition


def _split_table() -> dict:
    """Coordinate 4-form -> (block, row, column, sign) of the 5-block split.

    The number of fiber legs picks the block: 0 -> I, 1 -> II (row = fiber
    axis, column = removed base index), 2 -> III (row = dual fiber axis,
    column = base pair in BASE_LAMBDA2), 3 -> IV (column = base index).
    A block entry is sign * coefficient, and the coefficient is sign * entry.
    """
    table = {}
    for idx in lex_basis(7, 4):
        base = tuple(i for i in idx if i <= 4)
        fiber = tuple(i - 4 for i in idx if i >= 5)
        if not fiber:
            table[idx] = (0, 0, 0, 1)
        elif len(fiber) == 1:
            miss = next(i for i in range(1, 5) if i not in base)
            # against (e_miss -| e^1234) ^ e^fiber
            table[idx] = (1, fiber[0] - 1, miss - 1, (-1) ** (miss - 1))
        elif len(fiber) == 2:
            k = EPSILON3[fiber]
            table[idx] = (2, abs(k) - 1, BASE_LAMBDA2.index(base), 1 if k > 0 else -1)
        else:
            table[idx] = (3, 0, base[0] - 1, 1)
    return table


_SPLIT = _split_table()

#: (column, coefficient) pairs of each omega / omega-bar on BASE_LAMBDA2
_CHIRAL_COLS = tuple(
    tuple(tuple((BASE_LAMBDA2.index(p), c) for p, c in w.coeffs.items()) for w in triple)
    for triple in (OMEGA_BASE, OMEGA_BAR_BASE))


@dataclass(frozen=True)
class DeformationSplit:
    """Orthogonal pieces of a 4-form deformation, sorted by fiber leg count.

    The split is taken in the flat, lattice-adapted frame.  c_i scales the
    base volume; c_ii redefines the twist; c_iii_pp / c_iii_mp act on the
    fiber lattice and on the conformal class; c_iv is the component
    transverse to every fibered structure.  r_plus / r_minus keep the exact
    inner products <b_k, omega_l> and <b_k, omega-bar_l> of the base 2-form
    b_k on each fiber pair, so the round trip through the split is exact
    even in rational mode: b_k = sum_l (r+_kl omega_l + r-_kl omega-bar_l) / 2.
    """

    c_i: object
    c_ii: tuple        # 3x4, [fiber leg, removed base index]
    c_iii_pp: tuple    # 3x3, [fiber pair dual, omega component] / sqrt(2)
    c_iii_mp: tuple    # 3x3, [fiber pair dual, opposite-chirality component]
    c_iv: tuple        # 4, coefficient of e^i ^ e^567
    r_plus: tuple      # 3x3, <b_k, omega_l>
    r_minus: tuple     # 3x3, <b_k, omega-bar_l>

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
        beta = [[0] * 6 for _ in range(3)]
        for k in range(3):
            for r, triple in zip((self.r_plus, self.r_minus), _CHIRAL_COLS):
                for l in range(3):
                    for col, w in triple[l]:
                        beta[k][col] += r[k][l] * w
        # halved once per entry: exact on ints and on doubles
        beta = [[x * Fraction(1, 2) for x in row] for row in beta]
        blocks = ([[self.c_i]], self.c_ii, beta, [self.c_iv])
        return ConstForm(7, 4, {idx: sign * blocks[b][row][col]
                                for idx, (b, row, col, sign) in _SPLIT.items()})

    def to_json_dict(self) -> dict:
        return {
            "c_I": float(self.c_i),
            "c_II": [[float(x) for x in row] for row in self.c_ii],
            "c_III_pp": [[float(x) for x in row] for row in self.c_iii_pp],
            "c_III_mp": [[float(x) for x in row] for row in self.c_iii_mp],
            "c_IV": [float(x) for x in self.c_iv],
            "block_norms_sq": self.block_norms_sq(),
        }


def decompose_deformation(xi: ConstForm) -> DeformationSplit:
    """Split a 4-form on R^4 (+) R^3 by its number of fiber legs.

    0 legs -> I, 1 -> II, 2 -> III (resolved into the two chiralities of the
    base leg), 3 -> IV.  Reassembly is exact and the five blocks are
    pairwise orthogonal: 1 + 12 + 9 + 9 + 4 = 35.
    """
    if xi.dim != 7 or xi.degree != 4:
        raise ValueError("expected a 4-form on R^7")
    blocks = ([[0]], [[0] * 4 for _ in range(3)], [[0] * 6 for _ in range(3)], [[0] * 4])
    for idx, c in xi.coeffs.items():
        b, row, col, sign = _SPLIT[idx]
        blocks[b][row][col] = sign * c
    beta = blocks[2]
    # omega and omega-bar are orthogonal with |w|^2 = 2: each part is <b, w> w / 2
    r_plus, r_minus = (tuple(tuple(sum(w * beta[k][col] for col, w in triple[l])
                                   for l in range(3)) for k in range(3))
                       for triple in _CHIRAL_COLS)
    sqrt2 = float(np.sqrt(2.0))
    return DeformationSplit(
        c_i=blocks[0][0][0], c_ii=tuple(tuple(r) for r in blocks[1]),
        c_iii_pp=tuple(tuple(float(x) / sqrt2 for x in r) for r in r_plus),
        c_iii_mp=tuple(tuple(float(x) / sqrt2 for x in r) for r in r_minus),
        c_iv=tuple(blocks[3][0]), r_plus=r_plus, r_minus=r_minus,
    )
