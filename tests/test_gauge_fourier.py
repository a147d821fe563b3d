"""Continuum Fourier gauge fields: charge, energy split, and the 7D lift."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (asd_defect_form, convolution_pairing, energy_decomposition_7d,
                      reality_defect, su2, ym_energy_4d)
from g2lab.gauge.fourier import (
    FourierField, _pairing, _row_keys, constant_curvature_u1, curvature,
    instanton_residual_field, lift_to_7d, topological_charge,
)
from g2lab.exterior import MASK_OF, ConstForm, lex_basis
from g2lab.g2core import standard_structure
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
           lambda f, g: f + g,
           lambda f, g: f.symmetrized()]
    for op in ops:
        out = op(a, b)
        for k, (f, g) in enumerate(((a0, b0), (a1, b1))):
            got, want = at_point(out, k), op(f, g)
            assert (got.degree, got.group_rank, got.cutoff) \
                == (want.degree, want.group_rank, want.cutoff)
            assert terms(got) == terms(want)


def every_index_field(dim, degree, rank, seed):
    """A real field with a random coefficient at every index of three
    frequencies (one of them zero) and, after symmetrizing, their negatives."""
    rng = SplitMix64(seed)
    freqs = [(0,) * dim] + [tuple(int(rng.uniform() * 3) - 1 for _ in range(dim))
                            for _ in range(2)]
    f = FourierField.zero(dim, degree, rank, 2)
    for m in freqs:
        for idx in lex_basis(dim, degree):
            g = [rng.gauss() for _ in range(3)]
            f.add_coeff(m, idx, g[0] + 1j * g[1] if rank == 1 else su2(g))
    return f.symmetrized()


def random_form(dim, degree, seed):
    rng = SplitMix64(seed)
    return ConstForm(dim, degree, {idx: rng.gauss() for idx in lex_basis(dim, degree)})


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("form_degree", [4, 3])
def test_parseval_pairing_matches_the_convolution(rank, form_degree):
    """Pairing rows at opposite frequencies gives the zero-mode top coefficient
    of the whole product, for fields with every index at every mode."""
    a = every_index_field(7, 2, rank, seed=10 * rank + form_degree)
    b = every_index_field(7, 5 - form_degree, rank, seed=20 * rank + form_degree)
    form = random_form(7, form_degree, seed=form_degree)
    bound = 1e-12 * np.sqrt(a.norm_sq() * b.norm_sq()) * max(map(abs, form.coeffs.values()))
    want = convolution_pairing(a, b, form)
    assert abs(want) > 1e3 * bound
    assert _pairing(a, b, form) == pytest.approx(want, abs=bound, rel=0)


@pytest.mark.parametrize("rank", [1, 2])
def test_topological_charge_matches_the_convolution(rank):
    F = every_index_field(4, 2, rank, seed=rank)
    want = convolution_pairing(F, F, ConstForm(4, 0, {(): 1.0})) / (8 * np.pi ** 2)
    bound = 1e-12 * F.norm_sq() / (8 * np.pi ** 2)
    assert abs(want) > 1e3 * bound
    assert topological_charge(F) == pytest.approx(want, abs=bound, rel=0)


def test_pairing_refuses_grid_fields_and_degree_mismatches():
    F = every_index_field(4, 2, 1, seed=3)
    one = ConstForm(4, 0, {(): 1.0})
    grid = on_grid([F, F.scale(2.0)])
    for a, b, form in [(grid, F, one), (F, grid, one), (F, F.d(), one),
                       (F, F, ConstForm(4, 1, {(1,): 1.0})), (F, F, ConstForm(5, 1, {}))]:
        with pytest.raises(ValueError):
            _pairing(a, b, form)


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


def test_row_keys_order_rows_lexicographically():
    rng = np.random.default_rng(3)
    freqs = np.concatenate([rng.integers(-3, 4, size=(200, 4)),
                            [[8191, 0, 0, -8191], [-8191, 8191, 0, 0]]])
    masks = rng.integers(0, 16, size=len(freqs))
    keys = _row_keys(freqs, masks, 4)
    assert keys.dtype == np.int64
    assert (np.argsort(keys, kind="stable")
            == np.lexsort([masks, *freqs.T[::-1]])).all()
    with pytest.raises(ValueError, match="frequency too large to index"):
        _row_keys(np.array([[0, 0, 0, -8192]]), np.array([1]), 4)


def test_symmetrized_field_is_real():
    a = random_field(7, 1, 2, seed=5)
    assert reality_defect(a) < 1e-14
    # symmetrization creates the missing conjugate modes
    b = FourierField.zero(4, 1, 1, 2)
    b.add_coeff((1, 0, 0, 0), (2,), 0.3 + 0.4j)
    assert reality_defect(b) > 0.1
    assert reality_defect(b.symmetrized()) == 0.0


def test_flux_charge_matches_integral():
    for a, b, c in itertools.product((-1, 0, 1), repeat=3):
        m = sd_flux(a, b, c)
        assert m[0][1] == m[2][3] and m[0][2] == m[3][1] and m[0][3] == m[1][2]
        F = constant_curvature_u1(m)
        # q = -(m12 m34 + m13 m42 + m14 m23) in the anti-Hermitian convention
        assert topological_charge(F) == pytest.approx(-(a * a + b * b + c * c),
                                                      abs=1e-12)


def test_constant_flux_rejects_global_potential_representation():
    """The whole field is the zero mode 2 pi i m_jk e^{jk}: no potential."""
    m = sd_flux(1, 0, 0)
    full = constant_curvature_u1(m)
    assert list(full.modes) == [(0, 0, 0, 0)]
    assert {idx: c[0, 0] for idx, c in full.modes[(0, 0, 0, 0)].items()} == {
        (j + 1, k + 1): 2j * np.pi * m[j][k]
        for j in range(4) for k in range(j + 1, 4) if m[j][k]}


def test_flux_must_be_integer_antisymmetric_4x4():
    """A half-integer flux is no Chern class: it is rejected, not rounded."""
    half = ((0, .5, 0, 0), (-.5, 0, 0, 0), (0, 0, 0, 1.5), (0, 0, -1.5, 0))
    for bad, reason in ((half, "integers"),
                        (sd_flux(1, 0, 0)[:3], "4x4"),
                        ([[0, 1, 0, 0], [1, 0, 0, 0], [0] * 4, [0] * 4],
                         "antisymmetric")):
        with pytest.raises(ValueError, match=reason):
            constant_curvature_u1(bad)
    got, want = (constant_curvature_u1(m) for m in
                 ([[float(x) for x in r] for r in sd_flux(1, 0, 0)], sd_flux(1, 0, 0)))
    for name in ("freqs", "masks", "coeffs"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("entry, dim", [
    (lambda F: lift_to_7d(F, None), 4),
    (topological_charge, 4),
    (instanton_residual_field, 7),
], ids=["lift_to_7d", "topological_charge", "instanton_residual_field"])
def test_curvature_entry_points_reject_other_degrees(entry, dim):
    """A curvature is a 2-form; a potential passed in its place is refused."""
    with pytest.raises(ValueError, match="2-form"):
        entry(random_field(dim, 1, 1, seed=5, cutoff=2))


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
    bianchi = F.d() + A.wedge(F) - F.wedge(A)
    assert bianchi.is_zero(1e-10)
    # A ^ A has no mode beyond twice the cutoff, so the truncation drops nothing
    AA = A.wedge(A, cutoff=4 * A.cutoff)
    assert np.abs(AA.freqs).max() <= 2 * A.cutoff


def test_charge_of_trivial_sector_vanishes():
    A = random_field(4, 1, 2, seed=9, cutoff=2)
    assert topological_charge(curvature(A)) == pytest.approx(0.0, abs=1e-10)


def test_lift_residuals_sd_and_asd(standard_fibration):
    for a, b, c in itertools.product((-1, 0, 1), repeat=3):
        F7 = lift_to_7d(constant_curvature_u1(sd_flux(a, b, c)),
                        standard_fibration)
        res = instanton_residual_field(F7)
        assert max(res.values()) < 1e-12
    # anti-self-dual single planes: residual is governed by the defect form
    asd = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    F4 = constant_curvature_u1(asd)
    F7 = lift_to_7d(F4, standard_fibration)
    res = instanton_residual_field(F7)
    O = asd_defect_form(F4)
    nO = float(np.sqrt(sum(np.real(np.trace(o @ o.conj().T)) for o in O)))
    assert res["r_a"] == pytest.approx(nO, abs=1e-10)
    assert res["f7_norm"] == pytest.approx(nO / np.sqrt(3.0), abs=1e-10)


def test_energy_decomposition_identity_random_fields():
    s = standard_structure()
    for seed in range(20):
        A = random_field(7, 1, 2, seed=100 + seed, cutoff=2)
        F = curvature(A)
        en = energy_decomposition_7d(F, s)
        assert en["identity_residual"] < 1e-9 * max(1.0, en["ym"])


def test_asd_fraction_of_lifted_field(standard_fibration):
    """For a lifted ASD plane the 7-component carries 2/3 of the energy."""
    s = standard_structure()
    asd = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    F7 = lift_to_7d(constant_curvature_u1(asd), standard_fibration)
    en = energy_decomposition_7d(F7, s)
    assert en["F7sq"] / en["ym"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert en["kappa_integral"] < 0
    assert en["ym"] == pytest.approx(en["kappa_integral"]
                                     + 3 * en["F7sq"], abs=1e-9)


def test_kappa_positive_for_sd_lift(standard_fibration):
    s = standard_structure()
    F7 = lift_to_7d(constant_curvature_u1(sd_flux(1, 0, 0)),
                    standard_fibration)
    en = energy_decomposition_7d(F7, s)
    assert en["F7sq"] == pytest.approx(0.0, abs=1e-12)
    assert en["kappa_integral"] == pytest.approx(en["ym"], abs=1e-9)
    assert en["kappa_integral"] > 0
