"""Continuum Fourier gauge fields: charge, energy split, and the 7D lift."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import su2
from g2lab.gauge.fourier import (
    CurvatureField, FourierField, asd_defect_form, constant_curvature_u1,
    curvature, energy_decomposition_7d, flux_charge, instanton_residual_field,
    is_self_dual_flux, lift_to_7d, topological_charge, ym_energy_4d,
)
from g2lab.exterior import MASK_OF
from g2lab.rng import SplitMix64


def sd_flux(a, b, c):
    return [[0, a, b, c], [-a, 0, c, -b], [-b, -c, 0, a], [-c, b, -a, 0]]


def random_field(dim, degree, rank, seed, n_modes=4, cutoff=3):
    rng = SplitMix64(seed)
    f = FourierField.zero(dim, degree, rank, cutoff)
    basis = None
    from g2lab.exterior import lex_basis
    basis = lex_basis(dim, degree)
    for _ in range(n_modes):
        m = tuple(int(rng.uniform() * (2 * cutoff + 1)) - cutoff
                  for _ in range(dim))
        idx = basis[int(rng.uniform() * len(basis))]
        if rank == 1:
            c = rng.gauss() + 1j * rng.gauss()
        else:
            c = (rng.gauss() + 1j * rng.gauss()) * su2(
                [rng.gauss(), rng.gauss(), rng.gauss()])
        f.add_coeff(m, idx, c)
    return f.symmetrized()


def test_d_squared_is_zero():
    a = random_field(7, 1, 2, seed=11)
    dd = a.d().d()
    assert dd.is_zero(1e-12)


def su2_one_form(terms):
    f = FourierField.zero(4, 1, 2, 2)
    for m, i, g in terms:
        f.add_coeff(m, (i,), su2(g))
    return f.symmetrized()


su2_one_forms = st.builds(
    su2_one_form,
    st.lists(st.tuples(st.tuples(*[st.integers(-2, 2)] * 4),
                       st.integers(1, 4),
                       st.tuples(*[st.floats(-1, 1)] * 3)),
             min_size=1, max_size=4))


@given(su2_one_forms, su2_one_forms)
def test_leibniz_rule(a, b):
    """d(a ^ b) = da ^ b - a ^ db for Lie-algebra valued 1-forms."""
    lhs = a.wedge(b).d()
    rhs = a.d().wedge(b) - a.wedge(b.d())
    assert (lhs - rhs).is_zero(1e-9)


# quarter-integer entries: products stay exact and far from underflow, so a
# row vanishes at a grid point exactly when it vanishes in that slice alone
quarter_su2_one_forms = st.builds(
    su2_one_form,
    st.lists(st.tuples(st.tuples(*[st.integers(-2, 2)] * 4),
                       st.integers(1, 4),
                       st.tuples(*[st.integers(-4, 4).map(lambda n: n / 4)] * 3)),
             min_size=1, max_size=4))


def on_grid(fields):
    """The fields as one field with a grid axis, on the union of their rows."""
    f0 = fields[0]
    rows = sorted({(m, idx) for f in fields for m, d in f.modes.items() for idx in d})
    zero = np.zeros((f0.group_rank,) * 2)
    coeffs = [[f.modes.get(m, {}).get(idx, zero) for f in fields] for m, idx in rows]
    r = f0.group_rank
    return FourierField(f0.dim, f0.degree, r, f0.cutoff,
                        np.array([m for m, _ in rows], dtype=np.int64).reshape(-1, f0.dim),
                        np.array([MASK_OF[idx] for _, idx in rows], dtype=np.int64),
                        np.array(coeffs, dtype=complex).reshape(-1, len(fields), r, r))


def at_point(f, k):
    if not len(f.masks):
        return FourierField.zero(f.dim, f.degree, f.group_rank, f.cutoff)
    return FourierField(f.dim, f.degree, f.group_rank, f.cutoff,
                        f.freqs, f.masks, f.coeffs[:, k]).prune()


def terms(f):
    return {(m, idx): c.tolist() for m, d in f.modes.items() for idx, c in d.items()}


@given(quarter_su2_one_forms, quarter_su2_one_forms,
       quarter_su2_one_forms, quarter_su2_one_forms)
def test_grid_operations_act_per_point(a0, a1, b0, b1):
    """Each operation on a field with a 2-point grid equals the operation on
    each slice: the same terms, with equal coefficients."""
    a, b = on_grid([a0, a1]), on_grid([b0, b1])
    assert a.coeffs.shape[1:-2] == b.coeffs.shape[1:-2] == (2,)
    ops = [lambda f, g: f.wedge(g), lambda f, g: f.d(),
           lambda f, g: f.contract((0.5, -1.0, 0.0, 2.0)),
           lambda f, g: f.trace(), lambda f, g: f + g,
           lambda f, g: f.symmetrized()]
    for op in ops:
        out = op(a, b)
        for k, (f, g) in enumerate(((a0, b0), (a1, b1))):
            got, want = at_point(out, k), op(f, g)
            assert (got.degree, got.group_rank, got.cutoff) \
                == (want.degree, want.group_rank, want.cutoff)
            assert terms(got) == terms(want)


@pytest.mark.parametrize("freq, idx", [
    ((0, 0, 0), (1,)),            # frequency of the wrong length
    ((0, 0, 0, 0), (2, 1)),       # index not increasing
    ((0, 0, 0, 0), (5,)),         # index beyond the dimension
    ((0, 0, 0, 0), (1, 2)),       # index of the wrong degree
    ((9000, 0, 0, 0), (1,)),      # frequency beyond the row keys
])
def test_add_coeff_rejects_terms_that_do_not_fit(freq, idx):
    with pytest.raises(ValueError):
        FourierField.zero(4, 1, 1, 2).add_coeff(freq, idx, 1.0)


def test_symmetrized_field_is_real():
    a = random_field(7, 1, 2, seed=5)
    assert a.reality_defect() < 1e-14
    # symmetrization creates the missing conjugate modes
    b = FourierField.zero(4, 1, 1, 2)
    b.add_coeff((1, 0, 0, 0), (2,), 0.3 + 0.4j)
    assert b.reality_defect() > 0.1
    assert b.symmetrized().reality_defect() == 0.0


def test_flux_charge_matches_integral():
    for a, b, c in itertools.product((-1, 0, 1), repeat=3):
        m = sd_flux(a, b, c)
        assert is_self_dual_flux(m)
        F = constant_curvature_u1(m)
        assert topological_charge(F) == pytest.approx(flux_charge(m), abs=1e-12)
    assert flux_charge(sd_flux(1, 0, 0)) == -1
    assert flux_charge(sd_flux(1, 1, 0)) == -2


def test_constant_flux_rejects_global_potential_representation():
    F = constant_curvature_u1(sd_flux(1, 0, 0))
    assert F.fluctuation.is_zero()
    assert F.flux[0][1] == 1 and F.flux[2][3] == 1


def test_ym_energy_sd_asd_split():
    F = constant_curvature_u1(sd_flux(1, 0, 0))
    en = ym_energy_4d(F)
    assert en["asd_part"] == pytest.approx(0.0, abs=1e-12)
    assert en["total"] == pytest.approx(2 * (2 * np.pi) ** 2)
    assert en["q"] == pytest.approx(-1.0)
    G = constant_curvature_u1([[0, 1, 0, 0], [-1, 0, 0, 0],
                               [0, 0, 0, -1], [0, 0, 1, 0]])
    en2 = ym_energy_4d(G)
    assert en2["sd_part"] == pytest.approx(0.0, abs=1e-12)
    assert en2["q"] == pytest.approx(1.0)


def test_curvature_of_potential_and_bianchi():
    A = random_field(4, 1, 2, seed=3, cutoff=2)
    F = curvature(A)
    # d F + [A, F] = 0 (Bianchi) for the computed curvature
    full = F.full_field()
    bianchi = full.d() + A.wedge(full) - full.wedge(A)
    assert bianchi.is_zero(1e-10)
    assert F.truncation_error == pytest.approx(0.0, abs=1e-14)


def test_charge_of_trivial_sector_vanishes():
    A = random_field(4, 1, 2, seed=9, cutoff=2)
    assert topological_charge(curvature(A)) == pytest.approx(0.0, abs=1e-10)


def test_lift_residuals_sd_and_asd(standard_fibration):
    s = standard_fibration.adapted_g2()
    for a, b, c in itertools.product((-1, 0, 1), repeat=3):
        F7 = lift_to_7d(constant_curvature_u1(sd_flux(a, b, c)),
                        standard_fibration)
        res = instanton_residual_field(F7, s)
        assert max(res.values()) < 1e-12
    # anti-self-dual single planes: residual is governed by the defect form
    asd = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    F4 = constant_curvature_u1(asd)
    F7 = lift_to_7d(F4, standard_fibration)
    res = instanton_residual_field(F7, s)
    O = asd_defect_form(F4)
    nO = float(np.sqrt(sum(np.real(np.trace(o @ o.conj().T)) for o in O)))
    assert res["r_a"] == pytest.approx(nO, abs=1e-10)
    assert res["f7_norm"] == pytest.approx(nO / np.sqrt(3.0), abs=1e-10)


def test_energy_decomposition_identity_random_fields(standard_fibration):
    s = standard_fibration.adapted_g2()
    for seed in range(20):
        A = random_field(7, 1, 2, seed=100 + seed, cutoff=2)
        F = curvature(A)
        en = energy_decomposition_7d(F, s)
        assert en["identity_residual"] < 1e-9 * max(1.0, en["ym"])


def test_asd_fraction_of_lifted_field(standard_fibration):
    """For a lifted ASD plane the 7-component carries 2/3 of the energy."""
    s = standard_fibration.adapted_g2()
    asd = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    F7 = lift_to_7d(constant_curvature_u1(asd), standard_fibration)
    en = energy_decomposition_7d(F7, s)
    assert en["F7sq"] / en["ym"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert en["kappa_integral"] < 0
    assert en["ym"] == pytest.approx(en["kappa_integral"]
                                     + 3 * en["F7sq"], abs=1e-9)


def test_kappa_positive_for_sd_lift(standard_fibration):
    s = standard_fibration.adapted_g2()
    F7 = lift_to_7d(constant_curvature_u1(sd_flux(1, 0, 0)),
                    standard_fibration)
    en = energy_decomposition_7d(F7, s)
    assert en["F7sq"] == pytest.approx(0.0, abs=1e-12)
    assert en["kappa_integral"] == pytest.approx(en["ym"], abs=1e-9)
    assert en["kappa_integral"] > 0
