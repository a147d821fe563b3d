"""Torus fibrations, the 4-form deformation split, and the pairing oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from g2lab.exterior import ConstForm, Metric, interior, lex_basis, wedge
from g2lab.fibration import (
    OMEGA_BAR_BASE, OMEGA_BASE, FibrationSpec, build_fibration,
    chirality_basis, decompose_deformation, poincare_pairing,
    pullback_along_f, xi_from_perturbation,
)
from g2lab.g2core import standard_phi, standard_structure

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def fiber_generators(fib):
    cols = [[fib.ltilde[i][j] for i in range(7)] for j in range(4, 7)]
    return cols


def test_standard_fibration_is_adapted(standard_fibration):
    fib = standard_fibration
    assert (fib.phi - standard_phi()).is_zero()
    g = fib.g2.metric.mat
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
    assert np.abs(fib.mixing_block()).max() > 0
    # the adapted-coordinate structure is still the model one
    g = fib.adapted_g2().metric.mat
    for i in range(7):
        for j in range(7):
            assert g[i][j] == (1 if i == j else 0)


def test_only_exact_standard_spec_shares_the_standard_structure():
    exact = build_fibration(FibrationSpec.standard())
    assert exact.g2 is standard_structure()
    assert isinstance(exact.g2.lambda7, Fraction)
    # identity entries as floats compare equal to the exact ones (1.0 == 1),
    # yet the float spec must get its own float split
    eye = [[1.0 if i == j else 0.0 for j in range(3)] for i in range(3)]
    floats = build_fibration(FibrationSpec(Metric.identity(4, exact=False),
                                           eye, [[0.0] * 4 for _ in range(3)]))
    assert floats.g2 is not standard_structure()
    assert type(floats.g2.lambda7) is float
    assert all(type(c) is float for c in floats.g2.phi.coeffs.values())


# Both chirality bases of a tilted base metric, recorded before sd_basis and
# _asd_basis were merged into chirality_basis (numpy 2.4, OpenBLAS, x86-64).
TILTED_ETA = Metric(4, [[2.0, 0.3, 0.0, 0.1], [0.3, 1.5, 0.2, 0.0],
                        [0.0, 0.2, 1.0, 0.05], [0.1, 0.0, 0.05, 1.2]])
TILTED_BASES = {
    1: [
        {(1, 2): 1.701190892551154, (1, 3): 0.1369485162893838,
         (1, 4): 0.016768022801321173, (2, 3): -0.009883046871164501,
         (2, 4): -0.1756701785698374, (3, 4): -1.0937090472133577},
        {(1, 2): 0.1167376858855193, (1, 3): 1.406320528451018,
         (1, 4): 0.13433106611772241, (2, 3): 0.16387050756273047,
         (2, 4): 1.3246541878779363, (3, 4): 0.035632524575323794},
        {(1, 2): -0.048185680394719495, (1, 3): -0.05922562910926536,
         (1, 4): 1.54002402516552, (2, 3): -1.1971001554321492,
         (2, 4): 0.1201302247508364, (3, 4): 0.005553668700783046},
    ],
    -1: [
        {(1, 2): 1.6879083304642517, (1, 3): 0.03023114019500496,
         (1, 4): -0.021933070563246622, (2, 3): 0.009365252032991449,
         (2, 4): 0.103121361347471, (3, 4): 1.090129523576437},
        {(1, 2): 0.24628531387923905, (1, 3): 1.406976765430074,
         (1, 4): -0.08167102081865074, (2, 3): 0.09345300941158823,
         (2, 4): -1.32752575668018, (3, 4): -0.09521344593552805},
        {(1, 2): 0.01757874047784666, (1, 3): 0.13965120730747835,
         (1, 4): 1.5436478823793027, (2, 3): 1.2046488397397295,
         (2, 4): 0.1644425437183454, (3, 4): 0.007212595933020403},
    ],
}


@pytest.mark.parametrize("sign", [1, -1])
def test_chirality_basis_is_bit_identical_on_tilted_metric(sign):
    got = [{k: float(c) for k, c in f.coeffs.items()}
           for f in chirality_basis(TILTED_ETA, sign)]
    assert got == TILTED_BASES[sign]


def test_chirality_basis_of_flat_metric_is_the_omega_triples():
    assert chirality_basis(Metric.identity(4), 1) is OMEGA_BASE
    assert chirality_basis(Metric.identity(4), -1) is OMEGA_BAR_BASE


def test_nonflat_eta_induces_inverse_metric_on_base():
    eta = Metric(4, ((Fraction(4), 0, 0, 0), (0, Fraction(1), 0, 0),
                     (0, 0, Fraction(1), 0), (0, 0, 0, Fraction(4))))
    spec = FibrationSpec(eta, FibrationSpec.standard().l_basis,
                         FibrationSpec.standard().alpha)
    fib = build_fibration(spec)
    g = fib.g2.metric.mat
    want = [Fraction(1, 4), 1, 1, Fraction(1, 4), 1, 1, 1]
    for i in range(7):
        for j in range(7):
            assert g[i][j] == (want[i] if i == j else 0)


def test_pullback_along_f_kills_nothing_on_base(standard_fibration):
    a = ConstForm.basis(4, (1, 2))
    lifted = pullback_along_f(standard_fibration, a)
    assert lifted.dim == 7
    assert (lifted - ConstForm.basis(7, (1, 2))).is_zero()


@given(st.lists(st.tuples(st.sampled_from(lex_basis(7, 4)), rationals),
                max_size=6))
def test_split_roundtrip_is_exact(terms):
    coeffs = {}
    for idx, c in terms:
        coeffs[idx] = coeffs.get(idx, Fraction(0)) + c
    xi = ConstForm(7, 4, {k: v for k, v in coeffs.items() if v != 0})
    sp = decompose_deformation(xi)
    assert (sp.reassemble() - xi).is_zero()


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
        xi = moved.g2.star_phi - base.g2.star_phi
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


def test_poincare_pairing_oracle(standard_fibration):
    xi = wedge(ConstForm.basis(7, (1,), Fraction(-2)),
               ConstForm.basis(7, (5, 6, 7)))
    v = (Fraction(1), 0, 0, 0, 0, 0, 0)
    assert poincare_pairing(xi, v, 3, standard_fibration) == 3
