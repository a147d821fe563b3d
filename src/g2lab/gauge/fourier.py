"""Fourier-represented gauge fields on the unit n-torus.

A field of degree k with group rank r is a finite sum

    a(x) = sum_m  sum_{|J|=k}  c_{m,J} e^{2 pi i m.x} e^J

with c_{m,J} an r x r complex matrix (anti-Hermitian values once the
reality condition c_{-m,J} = -c_{m,J}^dagger holds).  All integrals reduce
to reading off the zero mode, so quadrature is exact for polynomial
expressions in the modes.

A field stores its terms as three arrays, one row per (m, J): frequencies,
index masks and coefficients.  Products, derivatives and contractions are
array operations on the index kernel of ``exterior``, followed by one
canonicaliser that sums rows with equal (m, J) and prunes.  Grid axes between
the row and matrix axes make a field a family on one set of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ..exterior import INDEX_OF, MASK_OF, MERGE_SIGN, ConstForm, lex_basis, top_coefficients
from ..fibration import TorusFibration
from .lattice import _instanton_residuals, _norm_sq

TWO_PI_I = 2.0j * np.pi

_KEY_OFFSET = {n: 1 << (56 // n - 1) for n in range(1, 8)}
_KEY_WEIGHTS = {n: 1 << (7 + 56 // n * np.arange(n - 1, -1, -1))
                for n in range(1, 8)}


def _row_keys(freqs: np.ndarray, masks: np.ndarray, dim: int) -> np.ndarray:
    """Row keys (m, J) -> int64 that sort as the rows do lexicographically: the mask
    in the low 7 bits, above it each m_i + offset in 56 // dim bits, m_0 highest."""
    if len(masks) and np.abs(freqs).max() >= _KEY_OFFSET[dim]:
        raise ValueError("frequency too large to index")
    return (freqs + _KEY_OFFSET[dim]) @ _KEY_WEIGHTS[dim] + masks


@dataclass(eq=False)
class FourierField:
    """One row per term: ``freqs`` (n, dim) integer frequencies m, ``masks``
    (n,) index masks J (see ``exterior``) and ``coeffs`` (n, *grid, r, r)
    c_{m,J}; array operations act pointwise over the grid, which a single
    field lacks and an empty field matches.

    Rows have distinct (m, J).  Operations build new arrays and never write
    into existing ones, so fields may share them.  Build single fields with
    add_coeff / set_coeff and read them through the ``modes`` view.
    """

    dim: int
    degree: int
    group_rank: int = 1
    cutoff: int = 8
    freqs: np.ndarray = None
    masks: np.ndarray = None
    coeffs: np.ndarray = None

    def __post_init__(self):
        if self.freqs is None:
            r = self.group_rank
            self.freqs = np.zeros((0, self.dim), dtype=np.int64)
            self.masks = np.zeros(0, dtype=np.int64)
            self.coeffs = np.zeros((0, r, r), dtype=complex)

    @staticmethod
    def zero(dim: int, degree: int, group_rank: int = 1, cutoff: int = 8) -> "FourierField":
        return FourierField(dim, degree, group_rank, cutoff)

    def _canonical(self, freqs, masks, coeffs, degree=None, cutoff=None,
                   tol: float = 0.0) -> "FourierField":
        """The canonicaliser: a field of this dimension from rows that may
        repeat (m, J).  Repeats are summed in row order, then rows with
        every |entry| <= tol are dropped."""
        if len(masks):
            keys = _row_keys(freqs, masks, self.dim)
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            first = np.empty(len(keys), dtype=bool)
            first[0] = True
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            # 0 + the sum: a -0.0 total reads +0.0, as when summing from 0
            coeffs = 0 + np.add.reduceat(coeffs[order], starts, axis=0)
            live = np.abs(coeffs).max(axis=tuple(range(1, coeffs.ndim))) > tol
            rows = order[starts[live]]
            freqs, masks, coeffs = freqs[rows], masks[rows], coeffs[live]
        return FourierField(self.dim, self.degree if degree is None else degree,
                            coeffs.shape[-1], self.cutoff if cutoff is None else cutoff,
                            freqs, masks, coeffs)

    @property
    def modes(self):
        """Read-only {freq: {idx: (r, r) coefficient}} view of the rows."""
        coeffs = self.coeffs.view()
        coeffs.flags.writeable = False
        out: dict = {}
        for m, mask, c in zip(self.freqs.tolist(), self.masks.tolist(), coeffs):
            out.setdefault(tuple(m), {})[INDEX_OF[mask]] = c
        return MappingProxyType({m: MappingProxyType(d) for m, d in out.items()})

    def copy(self) -> "FourierField":
        return FourierField(self.dim, self.degree, self.group_rank, self.cutoff,
                            self.freqs.copy(), self.masks.copy(), self.coeffs.copy())

    def _put(self, freq: tuple, idx: tuple, value, add: bool) -> None:
        freq = [int(f) for f in freq]
        mask = MASK_OF.get(tuple(idx), -1)
        if len(freq) != self.dim or len(idx) != self.degree \
                or not 0 <= mask < 1 << self.dim \
                or max(map(abs, freq), default=0) >= _KEY_OFFSET[self.dim]:
            raise ValueError(f"freq {freq} / index {tuple(idx)} do not fit "
                             f"a {self.dim}D {self.degree}-form")
        value = np.asarray(value, dtype=complex).reshape(np.shape(value) or (1, 1))
        if value.shape != (self.group_rank,) * 2:
            raise ValueError(f"coefficient shape {value.shape} is not "
                             f"({self.group_rank}, {self.group_rank})")
        row = np.flatnonzero((self.masks == mask) & (self.freqs == freq).all(axis=1))
        if row.size:
            coeffs = self.coeffs.copy()
            coeffs[row[0]] = coeffs[row[0]] + value if add else value
            self.coeffs = coeffs
            return
        self.freqs = np.vstack([self.freqs, freq])
        self.masks = np.append(self.masks, mask)
        self.coeffs = np.concatenate([self.coeffs, [0 + value if add else value]])

    def set_coeff(self, freq: tuple, idx: tuple, value) -> None:
        self._put(freq, idx, value, add=False)

    def add_coeff(self, freq: tuple, idx: tuple, value) -> None:
        self._put(freq, idx, value, add=True)

    def prune(self) -> "FourierField":
        keep = np.abs(self.coeffs).max(axis=tuple(range(1, self.coeffs.ndim))) > 0
        self.freqs, self.masks, self.coeffs = \
            self.freqs[keep], self.masks[keep], self.coeffs[keep]
        return self

    def is_zero(self, tol: float = 0.0) -> bool:
        return not (np.abs(self.coeffs) > tol).any()

    def __add__(self, other: "FourierField") -> "FourierField":
        if self.degree != other.degree:
            raise ValueError("field shape mismatch")
        self._check_compat(other)
        cutoff = max(self.cutoff, other.cutoff)
        a, b = (other, self) if not len(self.masks) else (self, other)
        if not len(b.masks):
            coeffs = 0 + a.coeffs
        elif len(a.masks) == len(b.masks) and (a.masks == b.masks).all() \
                and (a.freqs == b.freqs).all():
            coeffs = 0 + a.coeffs + b.coeffs
        else:
            return self._canonical(np.concatenate([a.freqs, b.freqs]),
                                   np.concatenate([a.masks, b.masks]),
                                   np.concatenate([a.coeffs, b.coeffs]),
                                   cutoff=cutoff)
        # the rows of a as they are: nothing to merge
        return FourierField(a.dim, a.degree, a.group_rank, cutoff,
                            a.freqs, a.masks, coeffs).prune()

    def __sub__(self, other: "FourierField") -> "FourierField":
        return self + other.scale(-1.0)

    def scale(self, s) -> "FourierField":
        return FourierField(self.dim, self.degree, self.group_rank, self.cutoff,
                            self.freqs, self.masks, self.coeffs * s)

    def _check_compat(self, other: "FourierField") -> None:
        if (self.dim, self.group_rank) != (other.dim, other.group_rank) or (
                len(self.masks) and len(other.masks)
                and self.coeffs.shape[1:] != other.coeffs.shape[1:]):
            raise ValueError("field shape mismatch")

    # -- reality -----------------------------------------------------------

    def _reflected(self) -> "FourierField":
        """c_m -> c_{-m}^dagger."""
        return FourierField(self.dim, self.degree, self.group_rank, self.cutoff,
                            -self.freqs, self.masks,
                            self.coeffs.conj().swapaxes(-1, -2))

    def symmetrized(self) -> "FourierField":
        """Project onto the real Lie-algebra subspace, c_{-m} = -c_m^dagger."""
        return (self - self._reflected()).scale(0.5)

    # -- calculus ----------------------------------------------------------

    def d(self) -> "FourierField":
        """Exterior derivative, exact in Fourier space: d(e^{2pi i m.x} e^J)
        = 2 pi i sum_j m_j e^j ^ e^J."""
        bits = 1 << np.arange(self.dim)
        sign = MERGE_SIGN[bits, self.masks[:, None]]
        row, j = np.nonzero((self.freqs != 0) & (sign != 0))
        scal = TWO_PI_I * self.freqs[row, j] * sign[row, j]
        return self._canonical(self.freqs[row], self.masks[row] | bits[j],
                               _per_row(scal, self.coeffs) * self.coeffs[row],
                               degree=self.degree + 1)

    def _product(self, other: "FourierField", lim, cutoff: int,
                 tol: float) -> "FourierField":
        """Matrix-valued wedge by mode convolution, dropping output modes
        with a frequency beyond ``lim`` (none when lim is None)."""
        if not (len(self.masks) and len(other.masks)):
            return FourierField(self.dim, self.degree + other.degree,
                                self.group_rank, cutoff)
        sign = MERGE_SIGN[self.masks[:, None], other.masks]
        freqs = self.freqs[:, None] + other.freqs
        keep = sign != 0
        if lim is not None:
            keep &= np.abs(freqs).max(axis=2, initial=0) <= lim
        i, j = np.nonzero(keep)
        coeffs = self.coeffs[i] @ other.coeffs[j]
        return self._canonical(freqs[i, j], self.masks[i] | other.masks[j],
                               _per_row(sign[i, j], coeffs) * coeffs,
                               degree=self.degree + other.degree, cutoff=cutoff,
                               tol=tol)

    def wedge(self, other: "FourierField", cutoff: int | None = None) -> "FourierField":
        """Matrix-valued wedge by mode convolution.

        Output modes beyond ``cutoff`` (default: sum of the operand cutoffs)
        are dropped; with polynomially generated fields the convolution is
        exact below that bound.
        """
        self._check_compat(other)
        lim = cutoff if cutoff is not None else self.cutoff + other.cutoff
        return self._product(other, lim, lim, 1e-300)

    def contract(self, v) -> "FourierField":
        """Interior product with a constant vector (1-indexed components v)."""
        if len(v) != self.dim:
            raise ValueError("vector dimension mismatch")
        bits = 1 << np.arange(self.dim)
        rest = self.masks[:, None] ^ bits
        # zero unless bit j is in the mask: e^j in front of the rest
        sign = MERGE_SIGN[bits, rest]
        v = np.array([float(x) for x in v])
        row, j = np.nonzero((sign != 0) & (v != 0))
        return self._canonical(self.freqs[row], rest[row, j],
                               _per_row(sign[row, j] * v[j], self.coeffs) * self.coeffs[row],
                               degree=self.degree - 1)

    def wedge_const(self, a: ConstForm) -> "FourierField":
        """Wedge with a constant scalar-coefficient form on the right: the
        wedge with the zero-mode field a times the identity."""
        if a.dim != self.dim or self.coeffs.ndim > 3:
            raise ValueError("expected a single field of the form's dimension")
        const = _zero_mode(self.dim, a.degree, self.group_rank,
                           [MASK_OF[i] for i in a.coeffs],
                           [float(c) for c in a.coeffs.values()])
        return self._product(const, None, self.cutoff, 0.0)

    def norm_sq(self) -> float:
        """Parseval L^2 norm squared with the tr(c c^dagger) matrix norm."""
        return _norm_sq(self.coeffs)

    def full_field(self) -> "FourierField":
        """The field itself.  Kept only for the benchmark's
        ``perfbench/workloads.py:317``; goes with ROADMAP item 12's
        benchmark change."""
        return self


def _per_row(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Per-row factors ``x`` shaped to scale the rows of ``coeffs``."""
    return x.reshape((-1,) + (1,) * (coeffs.ndim - 1))


def _zero_mode(dim: int, degree: int, rank: int, masks, values) -> FourierField:
    """The constant field sum_J values_J e^J, times the r x r identity."""
    return FourierField(dim, degree, rank, 0,
                        np.zeros((len(masks), dim), dtype=np.int64),
                        np.asarray(masks, dtype=np.int64),
                        np.asarray(values)[:, None, None] * np.eye(rank, dtype=complex))


def _components(f: FourierField) -> np.ndarray:
    """Lexicographic components of ``f``, one column per frequency:
    (components, modes, r, r), zero where a term is absent.  By Parseval,
    sums of squares over it are L^2 norms."""
    basis = [MASK_OF[i] for i in lex_basis(f.dim, f.degree)]
    pos = np.zeros(1 << f.dim, dtype=np.int64)
    pos[basis] = np.arange(len(basis))
    _, col = np.unique(f.freqs, axis=0, return_inverse=True)
    r = f.group_rank
    out = np.zeros((len(basis), col.max(initial=-1) + 1, r, r), dtype=complex)
    out[pos[f.masks], col.ravel()] = f.coeffs
    return out


# ---------------------------------------------------------------------------
# curvature


def curvature(A: FourierField) -> FourierField:
    """F = dA + A ^ A for a globally defined (topologically trivial) potential.

    The quadratic term is a mode convolution truncated at twice the cutoff.
    """
    if A.degree != 1:
        raise ValueError("potential must be a 1-form")
    return A.d() + A.wedge(A, cutoff=2 * A.cutoff)


def constant_curvature_u1(m) -> FourierField:
    """Abelian connection with constant curvature 2 pi i sum m_{jk} e^{jk}.

    The flux matrix must be integer-valued and antisymmetric: these are the
    first Chern numbers of the line bundle over the coordinate 2-tori, so no
    global potential exists unless m = 0.
    """
    raw = tuple(tuple(row) for row in m)
    if len(raw) != 4 or any(len(r) != 4 for r in raw):
        raise ValueError("flux must be 4x4")
    flux = tuple(tuple(int(x) for x in r) for r in raw)
    if flux != raw:
        raise ValueError("flux entries must be integers")
    if any(flux[i][j] != -flux[j][i] for i in range(4) for j in range(4)):
        raise ValueError("flux must be antisymmetric")
    j, k = np.nonzero(np.triu(flux))
    # the sum, like every field sum, turns a -0.0 part into +0.0
    return FourierField.zero(4, 2, 1, 0) + _zero_mode(
        4, 2, 1, (1 << j) | (1 << k), TWO_PI_I * np.array(flux)[j, k])


def _pairing(a: FourierField, b: FourierField, form: ConstForm) -> float:
    """Re of the integral of tr(a ^ b) ^ form over the unit torus, for a constant
    form: by Parseval only rows at opposite frequencies meet, each pair weighted by
    the top coefficient of its masks and the form (rho, 8 pi^2 r_phi, 8 pi^2 q)."""
    if not a.dim == b.dim == form.dim == a.degree + b.degree + form.degree \
            or a.coeffs.ndim > 3 or b.coeffs.ndim > 3:
        raise ValueError("expected single fields whose degrees fill the dimension")
    i, j = np.nonzero((a.freqs[:, None] == -b.freqs).all(axis=2))
    w = top_coefficients(a.masks[i], b.masks[j], form)
    return float((w * np.einsum("nab,nba->n", a.coeffs[i], b.coeffs[j])).sum().real)


def topological_charge(F: FourierField) -> float:
    """(1/8 pi^2) integral of tr(F ^ F); exact mode arithmetic."""
    if F.dim != 4 or F.degree != 2:
        raise ValueError("charge is defined for 4D 2-forms")
    return _pairing(F, F, ConstForm(4, 0, {(): 1.0})) / (8.0 * np.pi ** 2)


# ---------------------------------------------------------------------------
# the 7D lift


def lift_to_7d(F: FourierField, fib: TorusFibration) -> FourierField:
    """Pull a base field up the fibration, in lattice-adapted coordinates.

    The fibration map is projection onto the first four coordinates there,
    so modes pad with zero fiber frequencies and index tuples are reused;
    the lift has no fiber legs and no fiber dependence by construction.
    """
    if F.dim != 4 or F.degree != 2:
        raise ValueError("expected a base 2-form")
    del fib  # adapted coordinates make the map the same for every spec
    return FourierField(7, 2, F.group_rank, F.cutoff,
                        np.pad(F.freqs, ((0, 0), (0, 3))), F.masks, F.coeffs)


def instanton_residual_field(F: FourierField) -> dict:
    """L^2 residuals of the instanton conditions for a 7D curvature: the maps
    of ``lattice.residual_7d``, in the same adapted frame, on the mode stack."""
    if F.dim != 7 or F.degree != 2:
        raise ValueError("expected a 7D 2-form")
    return _instanton_residuals(_components(F), 1)
