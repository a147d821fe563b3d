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
from functools import cached_property
from types import MappingProxyType

import numpy as np

from ..exterior import INDEX_OF, MASK_OF, MERGE_SIGN, ConstForm, lex_basis
from ..fibration import TorusFibration
from .lattice import _chirality, _instanton_residuals, _norm_sq, _sd_asd

TWO_PI_I = 2.0j * np.pi

# row keys (m, J) -> int64: the mask in the low 7 bits, above it each
# frequency plus an offset in 56 // dim bits, the first frequency highest
_KEY_OFFSET = {n: 1 << (56 // n - 1) for n in range(1, 8)}
_KEY_WEIGHTS = {n: 1 << (7 + 56 // n * np.arange(n - 1, -1, -1))
                for n in range(1, 8)}


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
            if np.abs(freqs).max() >= _KEY_OFFSET[self.dim]:
                raise ValueError("frequency too large to index")
            keys = (freqs + _KEY_OFFSET[self.dim]) @ _KEY_WEIGHTS[self.dim] + masks
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

    def prune(self, tol: float = 0.0) -> "FourierField":
        keep = np.abs(self.coeffs).max(axis=tuple(range(1, self.coeffs.ndim))) > tol
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

    def reality_defect(self) -> float:
        """max |c_{-m} + c_m^dagger|; zero for a real Lie-algebra field."""
        return float(np.abs((self + self._reflected()).coeffs).max(initial=0.0))

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

    def trace(self) -> "FourierField":
        """tr c_{m,J} as a rank-1 field; a rank-1 field is its own trace."""
        if self.group_rank == 1:
            return FourierField(self.dim, self.degree, 1, self.cutoff,
                                self.freqs, self.masks, self.coeffs)
        return self._canonical(self.freqs, self.masks,
                               np.trace(self.coeffs, axis1=-2, axis2=-1)[..., None, None])

    def wedge_const(self, a: ConstForm) -> "FourierField":
        """Wedge with a constant scalar-coefficient form on the right: the
        wedge with the zero-mode field a times the identity."""
        if a.dim != self.dim or self.coeffs.ndim > 3:
            raise ValueError("expected a single field of the form's dimension")
        const = _zero_mode(self.dim, a.degree, self.group_rank,
                           [MASK_OF[i] for i in a.coeffs],
                           [float(c) for c in a.coeffs.values()])
        return self._product(const, None, self.cutoff, 0.0)

    def integrate_top(self) -> complex:
        """Integral over the unit torus of the top-degree component.

        Only the zero mode survives; returns the trace of its coefficient at
        the top index (scalar for group_rank 1).
        """
        if self.degree != self.dim or self.coeffs.ndim > 3:
            raise ValueError("integrand must be a single top-degree form")
        row = np.flatnonzero(~self.freqs.any(axis=1))   # every mask is the top one
        if not row.size:
            return 0.0
        c = self.coeffs[row[0]]
        return complex(np.trace(c)) if self.group_rank > 1 else complex(c[0, 0])

    def norm_sq(self) -> float:
        """Parseval L^2 norm squared with the tr(c c^dagger) matrix norm."""
        return _norm_sq(self.coeffs)


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


@dataclass
class CurvatureField:
    """Degree-2 field plus the integer flux block of a nontrivial bundle.

    The constant part 2 pi i m_{jk} e^{jk} is stored separately in ``flux``
    (a 4x4 antisymmetric integer matrix over the base coordinates) so that
    topological data stays exact; ``fluctuation`` carries the Fourier part.
    The flux is fixed at construction: its zero-mode field is built once.
    """

    fluctuation: FourierField
    flux: tuple = ((0,) * 4,) * 4
    truncation_error: float = 0.0

    def __post_init__(self):
        if self.fluctuation.degree != 2:
            raise ValueError("curvature must have degree 2")
        fl = tuple(tuple(int(x) for x in row) for row in self.flux)
        if len(fl) != 4 or any(len(r) != 4 for r in fl):
            raise ValueError("flux must be 4x4")
        if any(fl[i][j] != -fl[j][i] for i in range(4) for j in range(4)):
            raise ValueError("flux must be antisymmetric")
        object.__setattr__(self, "flux", fl)

    @property
    def dim(self) -> int:
        return self.fluctuation.dim

    @property
    def group_rank(self) -> int:
        return self.fluctuation.group_rank

    @cached_property
    def _flux_field(self) -> FourierField:
        """The constant part 2 pi i m_{jk} e^{jk} as a zero-mode field."""
        j, k = np.nonzero(np.triu(self.flux))
        return _zero_mode(self.dim, 2, self.group_rank, (1 << j) | (1 << k),
                          TWO_PI_I * np.array(self.flux)[j, k])

    def full_field(self) -> FourierField:
        """Fluctuation plus the constant flux part folded into the zero mode."""
        return self.fluctuation + self._flux_field


def _curvature_and_tail(A: FourierField) -> tuple:
    """The fields F of ``curvature`` and the dropped tail of A ^ A."""
    if A.degree != 1:
        raise ValueError("potential must be a 1-form")
    lim = 2 * A.cutoff
    AA = A.wedge(A, cutoff=4 * A.cutoff)
    far = np.abs(AA.freqs).max(axis=1, initial=0) > lim
    near, tail = (FourierField(A.dim, 2, A.group_rank, lim, AA.freqs[rows],
                               AA.masks[rows], AA.coeffs[rows])
                  for rows in (~far, far))
    F = A.d() + near
    F.cutoff = lim
    return F, tail


def curvature(A: FourierField) -> CurvatureField:
    """F = dA + A ^ A for a globally defined (topologically trivial) potential.

    The quadratic term is a mode convolution truncated at twice the cutoff;
    the dropped tail is reported as ``truncation_error``.
    """
    F, tail = _curvature_and_tail(A)
    return CurvatureField(F, truncation_error=np.sqrt(tail.norm_sq()))


def constant_curvature_u1(m) -> CurvatureField:
    """Abelian connection with constant curvature 2 pi i sum m_{jk} e^{jk}.

    The flux matrix must be integer-valued and antisymmetric: these are the
    first Chern numbers of the line bundle over the coordinate 2-tori, so no
    global potential exists unless m = 0.
    """
    rows = [list(r) for r in m]
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ValueError("flux matrix must be 4x4")
    for i in range(4):
        for j in range(4):
            if rows[i][j] != int(rows[i][j]):
                raise ValueError("flux entries must be integers")
            if rows[i][j] != -rows[j][i]:
                raise ValueError("flux matrix must be antisymmetric")
    return CurvatureField(FourierField.zero(4, 2, 1, 0), flux=rows)


def is_self_dual_flux(m) -> bool:
    return m[0][1] == m[2][3] and m[0][2] == m[3][1] and m[0][3] == m[1][2]


def flux_charge(m) -> int:
    """q = -(m12 m34 + m13 m42 + m14 m23), the second Chern number of the
    direct-sum bundle in the anti-Hermitian trace convention."""
    return -(m[0][1] * m[2][3] + m[0][2] * m[3][1] + m[0][3] * m[1][2])


def topological_charge(F: CurvatureField) -> float:
    """(1/8 pi^2) integral of tr(F ^ F); exact mode arithmetic."""
    if F.dim != 4:
        raise ValueError("charge is defined for 4D fields")
    return _full_charge(F.full_field())


def _full_charge(full: FourierField) -> float:
    """topological_charge from the full 4D curvature field."""
    FF = full.wedge(full, cutoff=2 * full.cutoff + 1)
    return float(np.real(FF.trace().integrate_top())) / (8.0 * np.pi ** 2)


def ym_energy_4d(F: CurvatureField) -> dict:
    """Yang-Mills energy split into SD and ASD parts, plus the charge.

    SD means the +1 eigenspace of the flat Hodge star with the +e^{1234}
    orientation: the e^{12}+e^{34} family, which is the chirality whose
    lifts are instantons.  Parseval makes every number exact in the modes;
    the split is the lattice one, applied to the mode stack.
    """
    if F.dim != 4:
        raise ValueError("expected a 4D field")
    en = _chirality(_components(F.full_field()))
    return {"total": en["total"], "sd_part": en["sd_sq"],
            "asd_part": en["asd_sq"], "q": topological_charge(F)}


# ---------------------------------------------------------------------------
# the 7D lift


def lift_to_7d(F: CurvatureField, fib: TorusFibration) -> CurvatureField:
    """Pull a base field up the fibration, in lattice-adapted coordinates.

    The fibration map is projection onto the first four coordinates there,
    so modes pad with zero fiber frequencies and index tuples are reused;
    the lift has no fiber legs and no fiber dependence by construction.
    """
    if F.dim != 4:
        raise ValueError("expected a base field")
    del fib  # adapted coordinates make the map the same for every spec
    fl = F.fluctuation
    out = FourierField(7, 2, fl.group_rank, fl.cutoff,
                       np.pad(fl.freqs, ((0, 0), (0, 3))), fl.masks, fl.coeffs)
    return CurvatureField(out, flux=F.flux, truncation_error=F.truncation_error)


def energy_decomposition_7d(F: CurvatureField, s) -> dict:
    """Split the 7D energy by the two curvature eigenspaces.

    kappa_integral is computed independently by integrating -tr(F^F)^phi
    and must match lambda7*F7sq + lambda14*F14sq by the eigen-calculus.
    """
    if F.dim != 7:
        raise ValueError("expected a 7D field")
    full = F.full_field()
    comps = _components(full)
    f7sq, f14sq = (_norm_sq(np.tensordot(p, comps, axes=(1, 0)))
                   for p in (s.p7_array(), s.p14_array()))
    FF = full.wedge(full, cutoff=2 * full.cutoff + 1)
    kappa = -float(np.real(FF.trace().wedge_const(s.phi).integrate_top()))
    lam7 = float(s.lambda7)
    lam14 = float(s.lambda14)
    return {
        "F7sq": f7sq, "F14sq": f14sq, "ym": f7sq + f14sq,
        "kappa_integral": kappa,
        "identity_residual": abs(kappa - (lam7 * f7sq + lam14 * f14sq)),
    }


def instanton_residual_field(F: CurvatureField, s) -> dict:
    """L^2 residuals of the instanton conditions for a 7D Fourier field:
    the maps of ``lattice.residual_7d`` on the mode stack."""
    if F.dim != 7:
        raise ValueError("expected a 7D field")
    return _instanton_residuals(_components(F.full_field()), s, 1)


def asd_defect_form(F: CurvatureField) -> np.ndarray:
    """Components of the 4D ASD defect (F34-F12, F42-F13, F23-F14).

    For a constant-flux abelian field these are the three matrix
    coefficients whose norms control the 7D residual of the lift.
    """
    d = F.full_field().modes.get((0,) * F.dim, {})
    z = np.zeros((F.group_rank,) * 2, dtype=complex)
    return -np.stack(_sd_asd([d.get(idx, z) for idx in lex_basis(4, 2)])[1])
