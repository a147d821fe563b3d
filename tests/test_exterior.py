"""Properties of the sparse constant-coefficient exterior algebra."""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from g2lab.exterior import (
    INDEX_OF, MASK_OF, MERGE_SIGN, ConstForm, DimensionMismatch, Metric,
    NotPositiveDefinite, Orientation, hodge, interior, lex_basis, mat_det,
    mat_inverse, merge_indices, pullback_linear, sort_indices, top_coefficients,
    wedge,
)
from g2lab.gauge.fourier import FourierField

from conftest import form_inner

DIM = 5
EUCLID = Metric.identity(DIM)
POS = Orientation(1)

rationals = st.fractions(
    min_value=-4, max_value=4,
    max_denominator=8,
)


def forms(dim=DIM, degree=None):
    degs = st.integers(0, dim) if degree is None else st.just(degree)

    @st.composite
    def build(draw):
        k = draw(degs)
        basis = lex_basis(dim, k)
        coeffs = {}
        for idx in draw(st.lists(st.sampled_from(basis), max_size=4,
                                 unique=True)):
            coeffs[idx] = draw(rationals)
        return ConstForm(dim, k, coeffs)

    return build()


@given(forms(), forms())
def test_wedge_graded_commutativity(a, b):
    if a.degree + b.degree > DIM:
        return
    left = wedge(a, b)
    sign = (-1) ** (a.degree * b.degree)
    right = wedge(b, a).scale(sign)
    assert (left - right).is_zero()


@given(forms(), forms(), forms())
def test_wedge_associativity(a, b, c):
    if a.degree + b.degree + c.degree > DIM:
        return
    assert (wedge(wedge(a, b), c) - wedge(a, wedge(b, c))).is_zero()


@given(forms(), forms(), forms())
def test_wedge_bilinearity(a, b, c):
    if b.degree != c.degree or a.degree + b.degree > DIM:
        return
    assert (wedge(a, b + c) - wedge(a, b) - wedge(a, c)).is_zero()


@given(forms(degree=3))
def test_double_hodge_is_signed_identity(a):
    k = a.degree
    twice = hodge(hodge(a, EUCLID, POS), EUCLID, POS)
    sign = (-1) ** (k * (DIM - k))
    assert (twice - a.scale(sign)).is_zero()


@given(forms())
def test_inner_via_hodge(a):
    """<a,a> dVol = a ^ *a, the defining property of the star."""
    lhs = wedge(a, hodge(a, EUCLID, POS))
    inner = form_inner(a, a)
    rhs = ConstForm.basis(DIM, tuple(range(1, DIM + 1))).scale(inner)
    assert (lhs - rhs).is_zero()
    assert inner >= 0


@given(forms(degree=None))
def test_interior_is_antiderivation(a):
    if a.degree == 0 or a.degree == DIM:
        return
    v = [Fraction(1), Fraction(-2), Fraction(0), Fraction(1), Fraction(3)]
    e1 = ConstForm.basis(DIM, (1,))
    lhs = interior(v, wedge(e1, a))
    # v -| (e1 ^ a) = (v -| e1) a - e1 ^ (v -| a)
    rhs = a.scale(v[0]) - wedge(e1, interior(v, a))
    assert (lhs - rhs).is_zero()


@given(forms(), forms())
def test_pullback_respects_wedge(a, b):
    if a.degree + b.degree > DIM:
        return
    M = [[Fraction(1), Fraction(1), 0, 0, 0],
         [0, Fraction(1), Fraction(-1), 0, 0],
         [0, 0, Fraction(2), 0, 0],
         [0, 0, 0, Fraction(1), Fraction(1, 2)],
         [Fraction(1), 0, 0, 0, Fraction(1)]]
    lhs = pullback_linear(M, wedge(a, b))
    rhs = wedge(pullback_linear(M, a), pullback_linear(M, b))
    assert (lhs - rhs).is_zero()


@given(forms())
def test_exact_vs_double_agreement(a):
    """The float path tracks the rational path to near machine precision."""
    d = a.to_double()
    star_exact = hodge(a, EUCLID, POS).to_double()
    star_float = hodge(d, EUCLID, POS)
    diff = star_exact - star_float
    worst = max((abs(float(c)) for c in diff.coeffs.values()), default=0.0)
    assert worst < 1e-13


def test_json_roundtrip_exact():
    a = ConstForm(7, 3, {(1, 2, 5): Fraction(3, 7), (5, 6, 7): Fraction(-2)})
    back = ConstForm.from_json_dict(json.loads(json.dumps(a.to_json_dict())))
    assert back.coeffs == a.coeffs
    assert all(isinstance(c, Fraction) for c in back.coeffs.values())


def test_hodge_euclidean_examples():
    e12, g = ConstForm.basis(4, (1, 2)), Metric.identity(4)
    assert (hodge(e12, g, POS) - ConstForm.basis(4, (3, 4))).is_zero()
    rev = hodge(e12, g, Orientation(-1))
    assert (rev + ConstForm.basis(4, (3, 4))).is_zero()


def test_hodge_nontrivial_metric():
    g = Metric(2, ((Fraction(4), 0), (0, Fraction(1))))
    e1 = ConstForm.basis(2, (1,))
    # *e1 = sqrt(det g) g^{11} e2 = 2 * (1/4) e2
    assert (hodge(e1, g, POS) - ConstForm.basis(2, (2,), Fraction(1, 2))).is_zero()


def _spd_metric(dim, seed):
    """Exact non-identity SPD metric A^T A, A upper triangular, so that
    sqrt(det g) = |det A| is rational."""
    rnd = random.Random(seed)
    A = [[Fraction(rnd.choice((1, 2, 3)), rnd.choice((1, 2))) if i == j
          else Fraction(rnd.randint(-2, 2), rnd.choice((1, 2, 3))) if i < j else 0
          for j in range(dim)] for i in range(dim)]
    return Metric(dim, [[sum(A[k][i] * A[k][j] for k in range(dim))
                         for j in range(dim)] for i in range(dim)])


def _random_form(dim, degree, rnd):
    basis = lex_basis(dim, degree)
    return ConstForm(dim, degree, {
        idx: Fraction(rnd.randint(-4, 4), rnd.randint(1, 5))
        for idx in rnd.sample(basis, min(len(basis), 3))})


@pytest.mark.parametrize("dim", range(2, 8))
def test_hodge_with_a_metric(dim):
    """b ^ star a = <b, a>_g dVol for every basis form b, star star =
    (-1)^(k(n-k)), and the float star tracks the exact one; form_inner
    raises through minors of g^-1, so it checks the star independently."""
    g = _spd_metric(dim, dim)
    gf = Metric(dim, [[float(x) for x in row] for row in g.mat])
    rnd = random.Random(100 + dim)
    for o in (Orientation(1), Orientation(-1)):
        vol = hodge(ConstForm(dim, 0, {(): Fraction(1)}), g, o)
        for k in range(dim + 1):
            a = _random_form(dim, k, rnd)
            star = hodge(a, g, o)
            assert all(isinstance(c, Fraction) for c in star.coeffs.values())
            for idx in lex_basis(dim, k):
                b = ConstForm.basis(dim, idx)
                assert wedge(b, star) == vol.scale(form_inner(b, a, g))
            assert hodge(star, g, o) == a.scale((-1) ** (k * (dim - k)))
            approx = hodge(a.to_double(), gf, o)
            scale = max([1.0] + [abs(float(c)) for c in star.coeffs.values()])
            for idx in lex_basis(dim, dim - k):
                assert abs(approx[idx] - float(star[idx])) <= 1e-13 * scale


def test_metric_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        Metric(2, ((1, 0), (0, -1)))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        wedge(ConstForm.basis(4, (1,)), ConstForm.basis(5, (1,)))


def test_matrix_helpers_exact():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert mat_det(m) == 1
    inv = mat_inverse(m)
    assert inv[0][0] == 1 and inv[0][1] == -1


# ---------------------------------------------------------------------------
# the bitmask index kernel


def test_merge_sign_table_matches_sort_indices():
    for a in range(128):
        for b in range(128):
            ref = sort_indices(INDEX_OF[a] + INDEX_OF[b])
            if ref is None:
                assert MERGE_SIGN[a, b] == 0, (a, b)
                assert merge_indices(INDEX_OF[a], INDEX_OF[b]) is None
            else:
                assert MERGE_SIGN[a, b] == ref[0], (a, b)
                assert INDEX_OF[a | b] == ref[1]
                assert merge_indices(INDEX_OF[a], INDEX_OF[b]) == ref
    assert all(MASK_OF[INDEX_OF[m]] == m for m in range(128))


@given(forms())
def test_top_coefficients_read_the_top_of_the_wedge(form):
    """For every pair of masks, the top coefficient of e^left ^ e^right ^ form;
    zero unless the degrees add up to the dimension."""
    masks = np.arange(1 << DIM)
    got = top_coefficients(masks[:, None], masks, form)
    top = tuple(range(1, DIM + 1))
    for left, right in itertools.product(range(1 << DIM), repeat=2):
        idx_l, idx_r = INDEX_OF[left], INDEX_OF[right]
        if len(idx_l) + len(idx_r) + form.degree != DIM:
            assert got[left, right] == 0.0
            continue
        want = wedge(wedge(ConstForm.basis(DIM, idx_l), ConstForm.basis(DIM, idx_r)), form)
        assert got[left, right] == float(want.coeffs.get(top, 0))


def zero_mode(a: ConstForm) -> FourierField:
    """The constant form a as a scalar (rank 1) Fourier field."""
    f = FourierField.zero(a.dim, a.degree, 1, 0)
    for idx, c in a.coeffs.items():
        f.add_coeff((0,) * a.dim, idx, float(c))
    return f


def assert_matches(field: FourierField, form: ConstForm):
    assert (field.dim, field.degree) == (form.dim, form.degree)
    got = {idx: complex(c[0, 0])
           for idx, c in field.modes.get((0,) * form.dim, {}).items()}
    assert set(field.modes) <= {(0,) * form.dim}
    for idx in set(got) | set(form.coeffs):
        assert got.get(idx, 0) == pytest.approx(float(form.coeffs.get(idx, 0)),
                                                abs=1e-12), idx


@given(forms(), forms())
def test_fourier_wedge_matches_constant_wedge(a, b):
    if a.degree + b.degree > DIM:
        return
    assert_matches(zero_mode(a).wedge(zero_mode(b)), wedge(a, b))
    assert_matches(zero_mode(a).wedge_const(b), wedge(a, b))


@given(forms(degree=1), forms(degree=1))
def test_fourier_wedge_of_one_forms_anticommutes(a, b):
    # odd degrees: the order of the factors shows in the sign
    assert_matches(zero_mode(a).wedge(zero_mode(b)), wedge(a, b))
    assert_matches(zero_mode(a).wedge_const(b), wedge(a, b))
    assert_matches(zero_mode(b).wedge_const(a), wedge(a, b).scale(-1))


@given(forms())
def test_fourier_contract_matches_interior(a):
    if a.degree == 0:
        return
    v = [Fraction(1), Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(3)]
    assert_matches(zero_mode(a).contract(v), interior(v, a))
