"""Constant-coefficient exterior algebra on R^n, n <= 7.

Forms are sparse maps from strictly increasing index tuples (1-based) to
scalars.  Scalars are either exact (int / Fraction) or floats; every
operation propagates whichever kind it is given, so the same code path
serves both the exact identity suite and the floating-point pipelines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Tuple

import numpy as np

Index = Tuple[int, ...]


class DimensionMismatch(ValueError):
    pass


class DegreeMismatch(ValueError):
    pass


class NotPositiveDefinite(ValueError):
    pass


class ExactnessError(ValueError):
    """Raised when an exact computation would require an irrational scalar."""


# ---------------------------------------------------------------------------
# index bookkeeping: the one index kernel of the package
#
# An increasing index tuple over 1..7 is also a 7-bit mask (bit i - 1 for
# index i).  MERGE_SIGN[a, b] is the sign that sorts the concatenation
# (a, b), or 0 when a and b share an index; it drives every form product
# and contraction here and in gauge.fourier.


def _merge_sign_table() -> np.ndarray:
    masks = np.arange(128, dtype=np.int16)
    bits = (masks[:, None] >> np.arange(7, dtype=np.int16)) & 1
    # inversions of (a, b): pairs i in a, j in b with i > j
    inversions = bits @ np.tril(np.ones((7, 7), dtype=np.int16), -1) @ bits.T
    sign = np.where(masks[:, None] & masks, 0, 1 - 2 * (inversions & 1))
    return sign.astype(np.int8)


MERGE_SIGN = _merge_sign_table()
#: mask -> index tuple, and back
INDEX_OF = tuple(tuple(i + 1 for i in range(7) if m >> i & 1) for m in range(128))
MASK_OF = {idx: m for m, idx in enumerate(INDEX_OF)}


def top_coefficients(left, right, form: "ConstForm") -> np.ndarray:
    """Top-degree coefficient of e^left ^ e^right ^ form, in doubles, for
    broadcast mask arrays: only the form's term on the complement of
    left | right reaches the top degree."""
    coeff = np.zeros(128)
    coeff[[MASK_OF[idx] for idx in form.coeffs]] = [float(c) for c in form.coeffs.values()]
    both = np.bitwise_or(left, right)
    rest = both ^ ((1 << form.dim) - 1)
    # 0.0 + turns the -0.0 of a sign times a zero into +0.0
    return 0.0 + MERGE_SIGN[left, right] * MERGE_SIGN[both, rest] * coeff[rest]


def sort_indices(seq: Sequence[int]) -> Tuple[int, Index] | None:
    """Sort ``seq`` into increasing order, returning (sign, tuple).

    Returns None if an index repeats (the wedge monomial vanishes).  The
    reference for arbitrary sequences; increasing tuples use MERGE_SIGN.
    """
    idx = list(seq)
    sign = 1
    # insertion sort; k <= 7 so quadratic cost is irrelevant
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None
    return sign, tuple(idx)


def merge_indices(left: Index, right: Index) -> Tuple[int, Index] | None:
    """Sign and sorted tuple of the concatenation of two increasing index
    tuples, or None if they collide."""
    a, b = MASK_OF[left], MASK_OF[right]
    sign = MERGE_SIGN.item(a, b)
    return (sign, INDEX_OF[a | b]) if sign else None


def complement(idx: Index, dim: int) -> Index:
    return INDEX_OF[MASK_OF[idx] ^ ((1 << dim) - 1)]


def perm_sign(idx: Index, rest: Index) -> int:
    """Sign of the permutation (idx, rest) relative to increasing order."""
    sign = MERGE_SIGN.item(MASK_OF[idx], MASK_OF[rest])
    assert sign
    return sign


def increasing_tuples(dim: int, degree: int) -> Iterable[Index]:
    return itertools.combinations(range(1, dim + 1), degree)


def lex_basis(dim: int, degree: int) -> list[Index]:
    return list(increasing_tuples(dim, degree))


# ---------------------------------------------------------------------------
# scalar helpers


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def sqrt_exact(x: Fraction) -> Fraction:
    """Exact square root of a nonnegative rational, or raise ExactnessError."""
    fr = Fraction(x)
    if fr < 0:
        raise ExactnessError("square root of negative rational")
    pn, pd = math.isqrt(fr.numerator), math.isqrt(fr.denominator)
    if pn * pn != fr.numerator or pd * pd != fr.denominator:
        raise ExactnessError(f"{fr} is not a rational square")
    return Fraction(pn, pd)


# ---------------------------------------------------------------------------
# small exact/float matrix helpers (dims <= 7: plain Python is fine)


def mat_identity(n: int, exact: bool = True):
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_det(m) -> object:
    """Determinant by fraction-free-ish Gaussian elimination (exact or float);
    written out for 2x2, the minors of the 5-form Hodge stars."""
    n = len(m)
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    a = [list(row) for row in m]
    det = a[0][0] - a[0][0] + 1  # one, in the scalar type of the matrix
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return det * 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        pval = a[col][col]
        det = det * pval
        inv = Fraction(1, 1) / pval if is_exact(pval) else 1.0 / pval
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f == 0:
                continue
            for c in range(col, n):
                a[r][c] = a[r][c] - f * a[col][c]
    return det


def mat_inverse(m):
    n = len(m)
    a = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    exact = is_exact(m[0][0])
    if exact:
        a = [[Fraction(x) for x in row] for row in a]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        pval = a[col][col]
        inv = (Fraction(1) / pval) if exact else 1.0 / pval
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def mat_minor_det(m, rows: Index, cols: Index):
    sub = [[m[r - 1][c - 1] for c in cols] for r in rows]
    if not sub:
        return 1
    return mat_det(sub)


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True)
class Orientation:
    """Sign relative to the standard frame order e^1 ^ ... ^ e^n."""

    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("orientation sign must be +1 or -1")


@dataclass(frozen=True)
class Metric:
    """Symmetric positive-definite inner product on R^dim."""

    dim: int
    mat: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.mat)
        object.__setattr__(self, "mat", rows)
        if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
            raise DimensionMismatch("metric matrix shape")
        for i in range(self.dim):
            for j in range(i):
                if not _close(rows[i][j], rows[j][i]):
                    raise ValueError("metric must be symmetric")
        # Leading principal minors: positive for SPD (exact when rational).
        for k in range(1, self.dim + 1):
            d = mat_minor_det(rows, tuple(range(1, k + 1)), tuple(range(1, k + 1)))
            if not d > 0:
                raise NotPositiveDefinite(f"leading minor {k} is {d}")

    @staticmethod
    def identity(dim: int, exact: bool = True) -> "Metric":
        return Metric(dim, mat_identity(dim, exact=exact))

    def inverse_matrix(self):
        return mat_inverse([list(r) for r in self.mat])

    def det(self):
        return mat_det([list(r) for r in self.mat])

    def is_exact(self) -> bool:
        return is_exact(self.mat[0][0])


def _close(a, b, tol: float = 1e-12) -> bool:
    if is_exact(a) and is_exact(b):
        return a == b
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) <= tol * scale


@dataclass(frozen=True)
class ConstForm:
    """A constant-coefficient k-form, canonically sparse (no zero entries)."""

    dim: int
    degree: int
    coeffs: Mapping[Index, object] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for idx, c in self.coeffs.items():
            idx = tuple(idx)
            if len(idx) != self.degree:
                raise DegreeMismatch(f"key {idx} has wrong degree")
            if any(not (1 <= i <= self.dim) for i in idx):
                raise DimensionMismatch(f"key {idx} outside 1..{self.dim}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"key {idx} not strictly increasing")
            if c != 0:
                clean[idx] = c
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero(dim: int, degree: int) -> "ConstForm":
        return ConstForm(dim, degree, {})

    @staticmethod
    def basis(dim: int, idx: Sequence[int], coeff=1) -> "ConstForm":
        res = sort_indices(idx)
        if res is None:
            return ConstForm.zero(dim, len(idx))
        sign, key = res
        return ConstForm(dim, len(idx), {key: sign * coeff})

    @staticmethod
    def from_terms(dim: int, degree: int, terms: Mapping[Sequence[int], object]) -> "ConstForm":
        out: dict = {}
        for idx, c in terms.items():
            res = sort_indices(idx)
            if res is None:
                continue
            sign, key = res
            out[key] = out.get(key, 0) + sign * c
        return ConstForm(dim, degree, out)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "ConstForm") -> "ConstForm":
        self._check_same(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return ConstForm(self.dim, self.degree, out)

    def __sub__(self, other: "ConstForm") -> "ConstForm":
        return self + (-other)

    def __neg__(self) -> "ConstForm":
        return ConstForm(self.dim, self.degree, {k: -c for k, c in self.coeffs.items()})

    def scale(self, s) -> "ConstForm":
        return ConstForm(self.dim, self.degree, {k: s * c for k, c in self.coeffs.items()})

    def __getitem__(self, idx: Sequence[int]):
        res = sort_indices(idx)
        if res is None:
            return 0
        sign, key = res
        return sign * self.coeffs.get(key, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_same(self, other: "ConstForm"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} vs {other.dim}")
        if self.degree != other.degree:
            raise DegreeMismatch(f"{self.degree} vs {other.degree}")

    # -- mode conversion -----------------------------------------------------

    def to_double(self) -> "ConstForm":
        return ConstForm(self.dim, self.degree, {k: float(c) for k, c in self.coeffs.items()})

    def coeff_vector(self, basis: Sequence[Index] | None = None) -> list:
        basis = basis if basis is not None else lex_basis(self.dim, self.degree)
        return [self.coeffs.get(k, 0) for k in basis]

    # -- serialization (spec wire format) ------------------------------------

    def to_json_dict(self) -> dict:
        terms = []
        for idx, c in self.coeffs.items():
            cv = str(Fraction(c)) if is_exact(c) else float(c)
            terms.append({"idx": list(idx), "c": cv})
        return {"dim": self.dim, "degree": self.degree, "terms": terms}

    @staticmethod
    def from_json_dict(d: dict) -> "ConstForm":
        if type(d["dim"]) is not int or type(d["degree"]) is not int:
            raise ValueError("form dim and degree must be integers")
        coeffs = {}
        for t in d["terms"]:
            c = t["c"]
            idx = tuple(t["idx"])
            if any(type(i) is not int for i in idx):
                raise ValueError(f"form index {list(idx)} has a non-integer entry")
            coeffs[idx] = Fraction(c) if isinstance(c, str) else float(c)
        return ConstForm(d["dim"], d["degree"], coeffs)


# ---------------------------------------------------------------------------
# operations


def wedge(a: ConstForm, b: ConstForm) -> ConstForm:
    if a.dim != b.dim:
        raise DimensionMismatch(f"{a.dim} vs {b.dim}")
    deg = a.degree + b.degree
    if deg > a.dim:
        # degree overflow is not an error: the product is identically zero
        return ConstForm.zero(a.dim, a.dim)
    out: dict = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            res = merge_indices(ia, ib)
            if res is None:
                continue
            sign, key = res
            out[key] = out.get(key, 0) + sign * ca * cb
    return ConstForm(a.dim, deg, out)


def interior(v: Sequence, a: ConstForm) -> ConstForm:
    """Interior product v -| a for a plain vector v (no metric involved)."""
    if len(v) != a.dim:
        raise DimensionMismatch(f"vector dim {len(v)} vs form dim {a.dim}")
    if a.degree == 0:
        return ConstForm.zero(a.dim, 0)
    out: dict = {}
    for idx, c in a.coeffs.items():
        for i in idx:
            vi = v[i - 1]
            if vi == 0:
                continue
            rest = INDEX_OF[MASK_OF[idx] ^ 1 << (i - 1)]
            out[rest] = out.get(rest, 0) + perm_sign((i,), rest) * vi * c
    return ConstForm(a.dim, a.degree - 1, out)


def hodge(a: ConstForm, g: Metric, o: Orientation) -> ConstForm:
    """Hodge star for an arbitrary SPD metric and explicit orientation.

    Defined by b ^ (star a) = <b, a>_g dVol for every b, with
    dVol = sign * sqrt(det g) e^{1...n}.  Jacobi's identity
    det(g^-1)[J, I] = (-1)^(sum I + sum J) det g[J^c, I^c] / det g turns the
    raised coefficients into complementary minors of g itself:
    (star a)_K = sign * det(g)^(-1/2) * sum_I sign(I, I^c) a_I det g[I^c, K]:
    the pullback along g of sum_I sign(I, I^c) a_I e^{I^c}, scaled.
    """
    n = a.dim
    if g.dim != n:
        raise DimensionMismatch("metric dim")
    exact = g.is_exact() and all(is_exact(c) for c in a.coeffs.values())
    detg = g.det()
    scale = o.sign / sqrt_exact(Fraction(detg)) if exact else o.sign / math.sqrt(float(detg))
    rests = {idx: complement(idx, n) for idx in a.coeffs}
    dual = ConstForm(n, n - a.degree, {rests[idx]: perm_sign(idx, rests[idx]) * c
                                       for idx, c in a.coeffs.items()})
    return pullback_linear(g.mat, dual).scale(scale)


def pullback_linear(M, a: ConstForm) -> ConstForm:
    """Pullback of a along the linear map with matrix M (rows = a.dim).

    M is an n x m array-like; the result lives in dimension m.  Satisfies
    (M^* a)(v_1,...,v_k) = a(M v_1, ..., M v_k) via Cauchy-Binet.
    """
    rows = [list(r) for r in M]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    if a.dim != n:
        raise DimensionMismatch(f"matrix has {n} rows, form dim {a.dim}")
    if a.degree == 0:
        return ConstForm(m, 0, dict(a.coeffs))
    out: dict = {}
    for jdx in increasing_tuples(m, a.degree):
        total = 0
        for idx, c in a.coeffs.items():
            total = total + c * mat_minor_det(rows, idx, jdx)
        if total != 0:
            out[jdx] = total
    return ConstForm(m, a.degree, out)
