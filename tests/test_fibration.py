"""Torus fibrations, the 4-form deformation split, and the pairing oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from g2lab.exterior import (ConstForm, Metric, interior, is_exact, lex_basis, mat_det,
                            mat_inverse, pullback_linear, wedge)
from g2lab.fibration import FibrationSpec, build_fibration, decompose_deformation
from g2lab.g2core import (_exact_p7, _t_matrix, eigen_split,
                          metric_from_phi, standard_phi, standard_star_phi,
                          standard_structure)

from conftest import xi_from_perturbation

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
# floats spread over 16 decades
wide_floats = st.builds(lambda s, m, e: s * m * 10.0 ** e, st.sampled_from((-1, 1)),
                        st.floats(min_value=1, max_value=10), st.integers(-8, 7))


def fiber_generators(fib):
    cols = [[fib.ltilde[i][j] for i in range(7)] for j in range(4, 7)]
    return cols


def test_standard_fibration_is_adapted(standard_fibration):
    fib = standard_fibration
    assert (fib.phi - standard_phi()).is_zero()
    g = metric_from_phi(fib.phi)[0].mat
    for i in range(7):
        for j in range(7):
            assert g[i][j] == (1 if i == j else 0)
    assert np.abs(fib.mixing_block()).max() == 0.0


def test_fibers_are_calibrated(standard_fibration):
    """phi restricted to the fiber directions equals their volume."""
    fib = standard_fibration
    l1, l2, l3 = fiber_generators(fib)
    # innermost contraction is the first slot: phi(l1, l2, l3)
    val = interior(l3, interior(l2, interior(l1, fib.phi.to_double())))
    assert float(val.coeffs.get((), 0)) == pytest.approx(1.0)


def test_twisted_fibration_is_non_product():
    spec = FibrationSpec.standard()
    alpha = [[Fraction(1, 2), 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    twisted = FibrationSpec(spec.eta, spec.l_basis, alpha)
    fib = build_fibration(twisted)
    assert fib.mixing_block().tolist() == [[float(x) for x in r] for r in alpha]


def test_only_exact_standard_spec_shares_the_standard_structure():
    """The exact standard spec's phi is the one standard_structure() splits,
    exactly; a float spec keeps float phi, whose split stays float."""
    exact = build_fibration(FibrationSpec.standard())
    assert exact.phi == standard_structure().phi
    assert all(type(c) is not float for c in exact.phi.coeffs.values())
    # identity entries as floats compare equal to the exact ones (1.0 == 1),
    # yet the float spec must keep float arithmetic
    eye = [[1.0 if i == j else 0.0 for j in range(3)] for i in range(3)]
    floats = build_fibration(FibrationSpec(Metric.identity(4, exact=False),
                                           eye, [[0.0] * 4 for _ in range(3)]))
    assert all(type(c) is float for c in floats.phi.coeffs.values())
    assert type(eigen_split(floats.phi).lambda7) is float


def test_nonflat_eta_induces_inverse_metric_on_base():
    eta = Metric(4, ((Fraction(4), 0, 0, 0), (0, Fraction(1), 0, 0),
                     (0, 0, Fraction(1), 0), (0, 0, 0, Fraction(4))))
    spec = FibrationSpec(eta, FibrationSpec.standard().l_basis,
                         FibrationSpec.standard().alpha)
    fib = build_fibration(spec)
    g = metric_from_phi(fib.phi)[0].mat
    want = [Fraction(1, 4), 1, 1, Fraction(1, 4), 1, 1, 1]
    for i in range(7):
        for j in range(7):
            assert g[i][j] == (want[i] if i == j else 0)


def _twisted_spec(seed, l_basis=None):
    """Exact flat-base spec with three seeded rational twist entries."""
    rnd = random.Random(seed)
    alpha = [[Fraction(0)] * 4 for _ in range(3)]
    for pos in rnd.sample(range(12), 3):
        alpha[pos // 4][pos % 4] = Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 9),
                                            rnd.randint(1, 7))
    return FibrationSpec(Metric.identity(4),
                         l_basis or FibrationSpec.standard().l_basis, alpha)


SWAPPED_FIBER = ((0, 1, 0), (1, 0, 0), (0, 0, Fraction(2)))  # det -2


@pytest.mark.parametrize("spec", [
    _twisted_spec(1), _twisted_spec(2), _twisted_spec(3),
    _twisted_spec(4, SWAPPED_FIBER)], ids=["s1", "s2", "s3", "det<0"])
def test_twisted_structure_is_the_pulled_back_standard_one(spec):
    """Naturality: with A = G^-1, phi = A^* phi0 carries g = A^T A and
    star phi = A^* star phi0, and T keeps the exact spectrum -2 / +1."""
    fib = build_fibration(spec)
    A = mat_inverse([list(r) for r in fib.ltilde])
    s = eigen_split(fib.phi)
    orientation = metric_from_phi(fib.phi)[1]
    assert all(s.metric.mat[i][j] == sum(A[k][i] * A[k][j] for k in range(7))
               for i in range(7) for j in range(7))
    assert s.star_phi == pullback_linear(A, standard_star_phi())
    assert orientation.sign == (1 if mat_det(A) > 0 else -1)
    assert type(s.lambda7) is Fraction and type(s.lambda14) is Fraction
    assert (s.lambda7, s.lambda14) == (-2, 1)
    p7 = np.array(s.p7, dtype=object)
    assert (p7.dot(p7) == s.p7_den * p7).all()
    T = _t_matrix(s.phi, s.metric, orientation)
    assert _exact_p7(T, Fraction(-2), Fraction(3, 2)) is None


def test_float_twisted_structure_has_the_model_spectrum():
    """A non-orthonormal float phi: T is self-adjoint for g, not for the
    coordinate inner product, and still has eigenvalues -2 and +1."""
    eta = Metric(4, ((Fraction(4), 0, 0, 0), (0, Fraction(1), 0, 0),
                     (0, 0, Fraction(1), 0), (0, 0, 0, Fraction(4))))
    s = eigen_split(build_fibration(FibrationSpec(
        eta, FibrationSpec.standard().l_basis, _twisted_spec(5).alpha)).phi)
    assert type(s.lambda7) is float
    assert abs(s.lambda7 + 2) < 1e-12 and abs(s.lambda14 - 1) < 1e-12
    p7 = s.p7_array()
    assert np.abs(p7 @ p7 - p7).max() < 1e-12


@given(st.lists(st.tuples(st.sampled_from(lex_basis(7, 4)), rationals),
                max_size=6))
def test_split_roundtrip_is_exact(terms):
    coeffs = {}
    for idx, c in terms:
        coeffs[idx] = coeffs.get(idx, Fraction(0)) + c
    xi = ConstForm(7, 4, {k: v for k, v in coeffs.items() if v != 0})
    back = decompose_deformation(xi).reassemble()
    assert (back - xi).is_zero() and all(map(is_exact, back.coeffs.values()))


@given(st.lists(st.tuples(st.sampled_from(lex_basis(7, 4)), rationals),
                max_size=6))
def test_float_split_matches_exact_split(terms):
    """A float xi takes the exact projection in doubles: the blocks agree
    with the exact split of the same rational xi, and reassemble xi."""
    coeffs = {}
    for idx, c in terms:
        coeffs[idx] = coeffs.get(idx, Fraction(0)) + c
    xi = ConstForm(7, 4, coeffs)
    tol = 1e-15 * max([1.0] + [abs(float(c)) for c in xi.coeffs.values()])
    split = decompose_deformation(xi.to_double())
    exact, approx = decompose_deformation(xi).to_json_dict(), split.to_json_dict()
    for key in ("c_I", "c_II", "c_III_pp", "c_III_mp", "c_IV"):
        assert np.abs(np.subtract(approx[key], exact[key])).max() <= tol
    back = split.reassemble() - xi.to_double()
    assert all(abs(c) <= tol for c in back.coeffs.values())


@given(st.one_of(*(st.dictionaries(st.sampled_from(lex_basis(7, 4)), c,
                                   min_size=1, max_size=12)
                   for c in (rationals, wide_floats))))
def test_block_norms_sum_to_the_norm_of_xi(coeffs):
    """Parseval: the blocks are orthonormal coordinates of xi, which pins the
    1/sqrt(2) of block III and the orthogonality of the five blocks."""
    xi = ConstForm(7, 4, coeffs)
    want = sum(float(c) ** 2 for c in xi.coeffs.values())
    got = sum(decompose_deformation(xi).block_norms_sq().values())
    assert abs(got - want) <= 1e-12 * want


def test_split_block_dimensions():
    active = [set(), set(), set(), set(), set()]
    for idx in lex_basis(7, 4):
        sp = decompose_deformation(ConstForm.basis(7, idx))
        if sp.c_i != 0:
            active[0].add(0)
        for a in range(3):
            for b in range(4):
                if sp.c_ii[a][b] != 0:
                    active[1].add((a, b))
            for b in range(3):
                if sp.c_iii_pp[a][b] != 0:
                    active[2].add((a, b))
                if sp.c_iii_mp[a][b] != 0:
                    active[3].add((a, b))
        for b in range(4):
            if sp.c_iv[b] != 0:
                active[4].add(b)
    assert tuple(len(a) for a in active) == (1, 12, 9, 9, 4)


def test_fibred_variations_have_no_transverse_block():
    """Perturbing the fibration data moves *phi only in blocks I-III."""
    spec = FibrationSpec.standard()
    base = build_fibration(spec)
    alpha = [[Fraction(1, 3), 0, 0, 0], [0, Fraction(1, 2), 0, 0],
             [0, 0, 0, 0]]
    eta = Metric(4, ((Fraction(4), 0, 0, 0), (0, 1, 0, 0),
                     (0, 0, 1, 0), (0, 0, 0, 1)))
    for moved_spec in (FibrationSpec(spec.eta, spec.l_basis, alpha),
                       FibrationSpec(eta, spec.l_basis, spec.alpha)):
        moved = build_fibration(moved_spec)
        xi = eigen_split(moved.phi).star_phi - eigen_split(base.phi).star_phi
        sp = decompose_deformation(xi)
        assert all(c == 0 for c in sp.c_iv)
    # and the exact coassociative difference map agrees with the structures
    dphi = build_fibration(FibrationSpec(spec.eta, spec.l_basis, alpha)).phi \
        - base.phi
    xi2 = xi_from_perturbation(base.phi, dphi)
    assert all(c == 0 for c in decompose_deformation(xi2).c_iv)


def test_transverse_block_detected():
    xi = wedge(ConstForm.basis(7, (1,), Fraction(-2)),
               ConstForm.basis(7, (5, 6, 7)))
    sp = decompose_deformation(xi)
    assert list(sp.c_iv) == [Fraction(-2), 0, 0, 0]
    assert sp.c_i == 0


def test_poincare_pairing_oracle():
    xi = wedge(ConstForm.basis(7, (1,), Fraction(-2)),
               ConstForm.basis(7, (5, 6, 7)))
    # eps = -c_IV / 2 is the transverse block's pairing with base
    # translations; the verdict's n_phi is eps(v) q, here at v = e_1, q = 3
    eps = [-c / 2 for c in decompose_deformation(xi).c_iv]
    assert eps[0] * 3 == 3
