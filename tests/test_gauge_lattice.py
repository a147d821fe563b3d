"""Lattice gauge fields: clover observables, cooling, lifting, snapshots."""

import functools
import itertools
import math
import struct
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import chirality_energies, four_entry_mul, unitarity_defect, whole_matrices
from g2lab.gauge.lattice import (
    CoolingDivergence, LatticeGaugeField, add_link_noise, asd_force,
    asd_residual_4d, clover_charge, clover_field,
    constant_flux_field, cool_to_sd, identity_field, lift_lattice_7d,
    plaquette_chirality_energies, plaquette_field, random_gauge_transform,
    read_snapshot, residual_7d, reunitarize, write_snapshot,
)
from g2lab.chernsimons import Verdict, obstruction_verdict_lattice, rho_lattice
from g2lab.exterior import ConstForm, interior, lex_basis, top_coefficients, wedge
from g2lab.g2core import OMEGA_BAR_BASE, OMEGA_BASE, standard_structure
from g2lab.gauge.lattice import (
    _BITS, _INTERIOR, _MASKS2, _PLANE_SIGNS, _PLANES4, _PLANES7, _clover_stack,
    _energies, _expm_ah, _mul, _norm_sq, _residual_maps, _sd_asd, _shift, _su2_row0, su2,
)
from g2lab.rng import SplitMix64

SD_UNIT = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
HALF_FLUX = [[0, 0.5, 0.5, 0], [-0.5, 0, 0, -0.5],
             [-0.5, 0, 0, 0.5], [0, 0.5, -0.5, 0]]


def test_identity_field_trivial():
    U = identity_field((4, 4, 4, 4), "su2")
    assert unitarity_defect(U) < 1e-14
    p = _ml(plaquette_field(U, 0, 1))[0, 0, 0, 0]
    assert np.abs(p - np.eye(2)).max() == 0.0
    assert clover_charge(U) == 0.0
    en = chirality_energies(U)
    assert en["total"] == 0.0


def test_u1_discretized_charge_within_5pct():
    U = constant_flux_field((8, 8, 8, 8), SD_UNIT, "u1")
    q = clover_charge(U)
    assert abs(q + 1.0) < 0.05


@pytest.mark.parametrize("group", ["u1", "su2"])
def test_clover_charge_converges_at_fourth_order(group):
    # the plaquette angle of the unit SD flux is 2 pi / N^2, and the clover
    # reads sin of it, so the charge error falls as N^-4
    sizes, q_exact = [6, 8, 12], {"u1": -1.0, "su2": -2.0}[group]
    err = [abs(clover_charge(constant_flux_field((n,) * 4, SD_UNIT, group)) - q_exact)
           for n in sizes]
    order = -np.polyfit(np.log(sizes), np.log(err), 1)[0]
    assert order == pytest.approx(4.0, abs=0.1)


@pytest.mark.parametrize("group", ["u1", "su2"])
def test_gauge_invariance_of_observables(group):
    U = add_link_noise(constant_flux_field((6, 6, 6, 6), SD_UNIT, group), 0.1, seed=11)
    q0 = clover_charge(U)
    en0 = chirality_energies(U)
    # a lift with noise on every link, so rho is not zero by symmetry
    U7 = add_link_noise(lift_lattice_7d(U, (2, 2, 2)), 0.1, seed=12)
    v = (0.0, 1.0, 0.0, 0.0, 0.5, 0.0, 0.0)
    res0, rho0 = residual_7d(U7), rho_lattice(U7, v)
    assert abs(rho0) > 1e-6
    xi = wedge(ConstForm.basis(7, (1,), -2.0), ConstForm.basis(7, (5, 6, 7)))
    rep0 = obstruction_verdict_lattice(U7, xi)
    rep = obstruction_verdict_lattice(random_gauge_transform(U7, seed=4), xi)
    assert rep.verdict is rep0.verdict is Verdict.OBSTRUCTED
    assert rep.r_phi_value == pytest.approx(rep0.r_phi_value, rel=1e-12)
    for seed in range(3):
        V = random_gauge_transform(U, seed=seed + 1)
        assert abs(clover_charge(V) - q0) < 1e-10
        en = chirality_energies(V)
        assert abs(en["asd_sq"] - en0["asd_sq"]) < 1e-8
        assert abs(en["total"] - en0["total"]) < 1e-8
        V7 = random_gauge_transform(U7, seed=seed + 1)
        assert residual_7d(V7) == pytest.approx(res0, rel=1e-12)
        assert rho_lattice(V7, v) == pytest.approx(rho0, rel=1e-10)


def test_clover_field_is_antihermitian_traceless():
    U = add_link_noise(identity_field((4, 4, 4, 4), "su2"), 0.2, seed=2)
    f = _ml(clover_field(U, 0, 1))
    assert np.abs(f + np.conj(np.swapaxes(f, -1, -2))).max() < 1e-14
    assert np.abs(np.trace(f, axis1=-2, axis2=-1)).max() < 1e-14


def test_chirality_tables_are_the_omega_triples():
    # SD pairs a plane stack with omega-bar and ASD with omega, the triples
    # that build phi; _PLANE_SIGNS lists omega's planes in the force's order
    rng = np.random.default_rng(8)
    f = [rng.normal(size=(3, 3, 2, 2)) + 1j * rng.normal(size=(3, 3, 2, 2))
         for _ in _PLANES4]

    def pair(w):
        return sum(c * f[_PLANES4.index((i - 1, j - 1))] for (i, j), c in w.coeffs.items())

    sd, asd = _sd_asd(f)
    for k in range(3):
        assert np.array_equal(sd[k], pair(OMEGA_BAR_BASE[k]))
        assert np.array_equal(asd[k], pair(OMEGA_BASE[k]))
    signs = [((i - 1, j - 1), (k, float(c)))
             for k, w in enumerate(OMEGA_BASE) for (i, j), c in w.coeffs.items()]
    assert list(_PLANE_SIGNS.items()) == signs


def test_single_plaquette_excitation_is_topologically_trivial():
    U = identity_field((6, 6, 6, 6), "u1")
    U.links[0, 0, 0, 0, 0, 0] = np.exp(0.3j)
    assert abs(clover_charge(U)) < 1e-3


def test_asd_force_is_gradient_of_asd_energy():
    U = add_link_noise(constant_flux_field((4, 4, 4, 4), HALF_FLUX, "su2"),
                       0.05, seed=7)
    G = _ml(asd_force(U))
    rng = np.random.default_rng(0)
    X = rng.normal(size=(U.ndim, *U.dims, 3))
    # anti-Hermitian direction fields, (d, *dims, 2, 2)
    H = np.zeros(G.shape, dtype=complex)
    H[..., 0, 0] = 1j * X[..., 2]
    H[..., 1, 1] = -1j * X[..., 2]
    H[..., 0, 1] = X[..., 1] + 1j * X[..., 0]
    H[..., 1, 0] = -X[..., 1] + 1j * X[..., 0]
    eps = 1e-6

    def energy(V):
        return plaquette_chirality_energies(V)["asd_sq"]

    Up, Um = U.copy(), U.copy()
    Up.links = _mul(_expm_ah(_em(eps * H)), Up.links)
    Um.links = _mul(_expm_ah(_em(-eps * H)), Um.links)
    fd = (energy(Up) - energy(Um)) / (2 * eps)
    # the derivative along H is <H, G>, so exp(-tau G) is a descent update
    pair = float(np.real(np.trace(
        H @ np.conj(np.swapaxes(G, -1, -2)), axis1=-2, axis2=-1)).sum())
    assert fd == pytest.approx(pair, rel=1e-5)


def test_cooling_identity_start_stops_immediately():
    U = identity_field((4, 4, 4, 4), "su2")
    out = cool_to_sd(U, max_steps=10, tol=1e-3)
    assert out["steps"] == 0 and out["converged"]


def test_cooling_monotone_and_converges():
    U = add_link_noise(constant_flux_field((6, 6, 6, 6), HALF_FLUX, "su2"),
                       0.005, seed=42)
    out = cool_to_sd(U, max_steps=5000, tol=1e-3)
    assert out["converged"]
    fracs = [row[1] for row in out["history"]]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(fracs, fracs[1:]))
    assert abs(out["history"][-1][2] + 1.0) < 0.1


@pytest.mark.parametrize("group, n, seed", [
    ("u1", 8, 7), ("u1", 8, 11), ("u1", 8, 3), ("su2", 4, 42), ("su2", 4, 7)])
def test_cooling_never_raises_the_asd_energy(group, n, seed, monkeypatch):
    # the flow only promises that |F-|^2 does not rise: the ASD fraction of
    # these u1 histories does rise once.  Each accepted field is swept once,
    # so its |F-|^2 is the energy measured for that field.
    from g2lab.gauge import lattice
    energies, swept = {}, []
    measure, sweep = lattice._measure, lattice._plane_sweep
    monkeypatch.setattr(lattice, "_measure",
                        lambda U: energies.setdefault(id(U), (U, measure(U)))[1])
    monkeypatch.setattr(lattice, "_plane_sweep",
                        lambda U, P, D: swept.append(U) or sweep(U, P, D))
    flux = SD_UNIT if group == "u1" else HALF_FLUX
    U = add_link_noise(constant_flux_field((n,) * 4, flux, group), 0.05, seed)
    out = cool_to_sd(U, max_steps=5000, tol=1e-3)
    assert out["converged"] and len(swept) == out["steps"]
    assert len(energies) >= out["steps"] + 1, "the spy missed cooling's measurements"
    asd = [energies[id(V)][1][0]["asd_sq"] for V in swept + [out["field"]]]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(asd, asd[1:]))


@pytest.mark.parametrize("group, n, seed, halving_steps", [
    ("u1", 8, 7, 23), ("u1", 8, 11, 22), ("u1", 8, 3, 23), ("su2", 4, 42, 19), ("su2", 4, 7, 19)])
def test_cooling_needs_few_trials_per_accepted_step(group, n, seed, halving_steps, monkeypatch):
    # the flows above; halving_steps is what each took when every rise halved
    # the step and every accepted step grew the next by 1.5 (1.74-1.78 trials
    # per accepted step)
    from g2lab.gauge import lattice
    calls, measure = [], lattice._measure
    monkeypatch.setattr(lattice, "_measure", lambda U: calls.append(U) or measure(U))
    flux = SD_UNIT if group == "u1" else HALF_FLUX
    U = add_link_noise(constant_flux_field((n,) * 4, flux, group), 0.05, seed)
    out = cool_to_sd(U, max_steps=5000, tol=1e-3)
    assert len(calls) >= out["steps"] + 1, "the spy missed cooling's measurements"
    trials = len(calls) - 1  # the first call measures the start field
    assert out["converged"] and out["steps"] <= halving_steps
    assert trials <= 1.4 * out["steps"]


@pytest.mark.parametrize("group, flux", [("u1", SD_UNIT), ("su2", HALF_FLUX)])
def test_cooling_builds_each_fields_plaquettes_once(group, flux, monkeypatch):
    # every trial is reunitarized once and measured once; an accepted trial's
    # plaquettes feed the next sweep, so no plane is built a second time
    from g2lab.gauge import lattice
    plaquettes, trials = [], []
    build, project = lattice.plaquette_field, lattice.reunitarize
    monkeypatch.setattr(lattice, "plaquette_field",
                        lambda U, mu, nu: plaquettes.append(U) or build(U, mu, nu))
    monkeypatch.setattr(lattice, "reunitarize", lambda U: trials.append(U) or project(U))
    U = add_link_noise(constant_flux_field((4,) * 4, flux, group), 0.05, seed=7)
    out = cool_to_sd(U, max_steps=5000, tol=1e-3)
    assert out["converged"] and len(trials) >= out["steps"] > 0
    assert len(plaquettes) == 6 * (1 + len(trials))


@pytest.mark.parametrize("group, flux", [("u1", SD_UNIT), ("su2", HALF_FLUX)])
def test_last_history_row_is_the_clover_charge_of_the_field(group, flux):
    # a converged and a step-capped flow: the last row's charge comes from
    # the plaquettes its trial measured, to the bit
    U = add_link_noise(constant_flux_field((4,) * 4, flux, group), 0.05, seed=7)
    for max_steps, converged in ((5000, True), (2, False)):
        out = cool_to_sd(U, max_steps=max_steps, tol=1e-3)
        assert out["converged"] is converged
        assert repr(out["history"][-1][2]) == repr(clover_charge(out["field"]))


@pytest.mark.parametrize("group", ["u1", "su2"])
def test_cooling_flat_field_below_zero_tol_is_a_plateau(group):
    out = cool_to_sd(identity_field((4,) * 4, group), tol=0)
    assert out["plateau"] and out["steps"] == 0 and not out["converged"]
    assert out["history"] == [(0, 0.0, 0.0)]


def test_cooling_that_only_rises_raises_with_its_history(rising_energies):
    U = add_link_noise(constant_flux_field((4,) * 4, HALF_FLUX, "su2"), 0.05, seed=3)
    with pytest.raises(CoolingDivergence, match="iteration 1") as exc:
        cool_to_sd(U, max_steps=5000, tol=1e-3)
    frac = plaquette_chirality_energies(U)["asd_fraction"]
    assert frac > 1e-3
    assert exc.value.history == [(0, frac, clover_charge(U))]


def test_overflowing_su2_noise_is_refused():
    # exp of the noise squares its coefficients, which overflows above ~1e154
    with pytest.raises(ValueError, match="non-finite links"):
        add_link_noise(identity_field((3,) * 4, "su2"), 1e300, seed=1)


def test_cooling_refuses_a_start_field_of_infinite_energy():
    U = identity_field((3,) * 4, "su2")
    U.links *= 1e100   # a plaquette is a product of four links: 1e400 overflows
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="energy is not finite"):
        cool_to_sd(U)


def test_residual_maps_are_built_once(monkeypatch):
    from g2lab.gauge import lattice
    calls, table = [], lattice.top_coefficients
    monkeypatch.setattr(lattice, "top_coefficients", lambda *a: calls.append(a) or table(*a))
    lattice._residual_maps.cache_clear()
    U7 = add_link_noise(lift_lattice_7d(identity_field((2,) * 4, "su2"), (2, 2, 2)), 0.1, 3)
    assert residual_7d(U7) == residual_7d(U7)
    assert len(calls) == 1


def wedge_table(form, degree):
    """The matrix of eta -> eta ^ form from lexicographic ``degree``-forms to
    lexicographic forms of the product's degree, by ConstForm wedges."""
    out = lex_basis(form.dim, degree + form.degree)
    return np.array([wedge(ConstForm.basis(form.dim, idx, 1.0), form).coeff_vector(out)
                     for idx in lex_basis(form.dim, degree)], dtype=float).T


def test_pairing_tables_are_the_constform_tables():
    """M[k, c] = top(eta_k ^ e^c ^ form) of the site contraction and the map
    eta -> eta ^ star_phi of r_a, to the byte (signed zeros included)."""
    star_phi = standard_structure().star_phi
    xi = ConstForm(7, 4, {(1, 2, 3, 4): 3.0, (1, 5, 6, 7): Fraction(-2),
                          (2, 3, 5, 7): -0.7, (3, 4, 6, 7): 1e-3})
    for form in (star_phi, xi):
        M = np.stack([wedge_table(wedge(ConstForm.basis(7, (c,), 1.0), form), 2)[0]
                      for c in range(1, 8)], axis=1)
        assert top_coefficients(_MASKS2[:, None], _BITS, form).tobytes() == M.tobytes()
    assert _residual_maps()["r_a"].tobytes() == wedge_table(star_phi, 2).tobytes()


@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e3, 1e3),
                min_size=7, max_size=7))
@example([0.0] + [-1.0] * 6)  # a zero beside negatives: the sum of -0.0 terms
def test_interior_table_is_the_constform_table(v):
    """B[c, l], the e^c part of v -| eta_l, as _cs_integral reads it from
    _INTERIOR, equals 21 ConstForm interior products to the byte."""
    B = np.array([interior(v, ConstForm.basis(7, idx, 1.0)).coeff_vector(lex_basis(7, 1))
                  for idx in lex_basis(7, 2)], dtype=float).T
    assert np.tensordot(v, _INTERIOR, 1).tobytes() == B.tobytes()


def test_reunitarize_projects_back():
    U = identity_field((3, 3, 3, 3), "su2")
    U.links = U.links + 0.05 * (np.random.default_rng(1).normal(
        size=U.links.shape) + 1j * np.random.default_rng(2).normal(
        size=U.links.shape))
    reunitarize(U)
    assert unitarity_defect(U) < 1e-12


def test_lift_and_7d_residual_ratio():
    """A lifted 4D field has 7D residual sqrt(2/3) times its ASD residual."""
    U = constant_flux_field((6, 6, 6, 6),
                            [[0, 1, 0, 0], [-1, 0, 0, 0],
                             [0, 0, 0, -1], [0, 0, 1, 0]], "u1")
    U7 = lift_lattice_7d(U, (3, 3, 3))
    assert U7.ndim == 7
    res = residual_7d(U7)
    asd4 = asd_residual_4d(U)
    assert res["f7_norm"] == pytest.approx(np.sqrt(2.0 / 3.0) * asd4, rel=1e-10)
    # an SD flux lifts with residual at discretization level only
    V7 = lift_lattice_7d(constant_flux_field((6, 6, 6, 6), SD_UNIT, "u1"),
                         (3, 3, 3))
    resV = residual_7d(V7)
    assert resV["f7_norm"] < 2 * asd_residual_4d(
        constant_flux_field((6, 6, 6, 6), SD_UNIT, "u1")) + 1e-12


def test_zero_lattice_extents_are_refused():
    """An empty lattice has no sites to average over: residual_7d would
    divide by a site count of 0."""
    with pytest.raises(ValueError, match="extents"):
        LatticeGaugeField((0, 2, 2, 2), "u1", np.ones((1, 4, 0, 2, 2, 2), complex))
    with pytest.raises(ValueError, match="extents"):
        lift_lattice_7d(identity_field((2, 2, 2, 2), "su2"), (0, 2, 2))


def test_snapshot_roundtrip(tmp_path):
    U = add_link_noise(constant_flux_field((4, 4, 4, 4), SD_UNIT, "su2"),
                       0.1, seed=5)
    path = str(tmp_path / "field.lat")
    write_snapshot(U, path)
    V = read_snapshot(path)
    assert V.dims == U.dims and V.group == U.group
    assert np.abs(V.links - U.links).max() == 0.0
    import json
    manifest = json.load(open(path + ".json"))
    assert manifest["dims"] == list(U.dims)
    assert manifest["group"] == "su2"
    assert manifest["spacing"] == 0.25


def test_snapshot_file_holds_the_matrix_last_links(tmp_path):
    # format v1 is (d, *dims, r, r) row-major, whatever the in-memory layout
    U = add_link_noise(constant_flux_field((3, 4, 2, 2), HALF_FLUX, "su2"), 0.1, seed=5)
    path = str(tmp_path / "field.lat")
    write_snapshot(U, path)
    with open(path, "rb") as fh:
        raw = fh.read()
    body = _ml(U.links).tobytes()
    assert len(raw) == 8 + 4 * (2 + 4 + 1) + 8 + len(body)
    assert raw.endswith(body)
    assert read_snapshot(path).links.tobytes() == U.links.tobytes()


def test_snapshot_header_spacing_is_ignored(tmp_path):
    # a hand-made header spacing is read, and written back as 1/N of axis 0
    path = str(tmp_path / "field.lat")
    write_snapshot(identity_field((4, 2, 2, 2), "u1"), path)
    with open(path, "rb") as fh:
        raw = fh.read()
    at = 8 + 4 * (2 + 4 + 1)   # magic, version, ndim, four extents, group
    assert struct.unpack_from("<d", raw, at) == (0.25,)
    hand = str(tmp_path / "hand.lat")
    with open(hand, "wb") as fh:
        fh.write(raw[:at] + struct.pack("<d", 0.5) + raw[at + 8:])
    again = str(tmp_path / "again.lat")
    write_snapshot(read_snapshot(hand), again)
    with open(again, "rb") as fh:
        assert fh.read() == raw


def test_snapshot_rejects_garbage(tmp_path):
    p = tmp_path / "junk.lat"
    p.write_bytes(b"NOTAFILE" + b"\0" * 64)
    with pytest.raises(ValueError):
        read_snapshot(str(p))


def test_snapshot_refuses_su2_links_off_the_quaternion_form(tmp_path):
    """su2 links must read [[a, b], [-conj b, conj a]] by value: identity
    links, whose u10 is +0 where -conj u01 is -0, and all-zero links pass."""
    path = str(tmp_path / "field.lat")
    for U in (identity_field((2, 2, 2, 2), "su2"),
              LatticeGaugeField((2, 2, 2, 2), "su2", np.zeros((2, 4, 2, 2, 2, 2), complex))):
        write_snapshot(U, path)
        assert read_snapshot(path).links.tobytes() == U.links.tobytes()
    # row 1 lives only in the file: set u11 of one all-zero link to 1
    shape = (4, 2, 2, 2, 2, 2, 2)   # (d, *dims, r, r)
    entry = np.ravel_multi_index((3, 1, 0, 1, 1, 1, 1), shape)
    with open(path, "r+b") as fh:
        fh.seek(-16 * (np.prod(shape) - entry), 2)
        fh.write(struct.pack("<dd", 1.0, 0.0))
    with pytest.raises(ValueError, match="not of the form"):
        read_snapshot(path)


# The library stores row 0 of each link on the first axis, (r, d, *dims).  The
# references below keep whole matrix-last matrices, (d, *dims, r, r), and sum
# every entry of every product on its own: the library's arrays must match
# the references' row 0 bit for bit.
_ml = whole_matrices


def _em(a):
    """Row 0 of matrix-last matrices, as a contiguous row-0 array."""
    return np.ascontiguousarray(np.moveaxis(a[..., 0, :], -1, 0))


def _ml_dag(a):
    return np.conj(np.swapaxes(a, -1, -2))


def _ml_mul(*factors):
    if factors[0].shape[-1] == 1:
        return functools.reduce(np.multiply, factors)
    a = [[factors[0][..., i, j] for j in (0, 1)] for i in (0, 1)]
    for b in factors[1:]:
        a = [[a[i][0] * b[..., 0, j] + a[i][1] * b[..., 1, j] for j in (0, 1)]
             for i in (0, 1)]
    return np.stack(a[0] + a[1], axis=-1).reshape(*a[0][0].shape, 2, 2)


def _ml_project_algebra(m, rank):
    g = 0.5 * (m - _ml_dag(m))
    if rank > 1:
        t = 0.5 * (g[..., 0, 0] - g[..., 1, 1])
        g[..., 0, 0], g[..., 1, 1] = t, -t
    return g


def _ml_expm_ah(X):
    if X.shape[-1] == 1:
        return np.exp(1j * X)
    a, b, c = np.imag(X[..., 0, 0]), np.real(X[..., 0, 1]), np.imag(X[..., 0, 1])
    th = np.sqrt(a * a + b * b + c * c)
    sinc = np.where(th > 1e-30, np.sin(np.maximum(th, 1e-30)) / np.maximum(th, 1e-30), 1.0)
    return np.cos(th)[..., None, None] * np.eye(2) + sinc[..., None, None] * X


def _ml_reunitarize(u, rank):
    if rank == 1:
        u[..., 0, 0] /= np.abs(u[..., 0, 0])
        return
    a = 0.5 * (u[..., 0, 0] + np.conj(u[..., 1, 1]))
    b = 0.5 * (u[..., 0, 1] - np.conj(u[..., 1, 0]))
    n = np.sqrt(a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2)
    u[..., 0, 0], u[..., 0, 1] = a / n, b / n
    u[..., 1, 0], u[..., 1, 1] = -np.conj(u[..., 0, 1]), np.conj(u[..., 0, 0])


def _ml_charge(f):
    """The clover charge of a 4D field from its six planes (_PLANES4)."""
    f01, f02, f03, f12, f13, f23 = f
    dens = _ml_mul(f01, f23) - _ml_mul(f02, f13) + _ml_mul(f03, f12)
    return float(np.real(np.trace(dens, axis1=-2, axis2=-1)).sum()) / (4.0 * np.pi ** 2)


def _roll(a, axis, n):
    return np.roll(a, -n, axis=axis)


# Reference spellings of the plaquette, the clover leaves and the force terms
# with every link shifted by hand, on matrix-last links u.
def _reference_plaquette(u, mu, nu):
    return _ml_mul(u[mu], _roll(u[nu], mu, 1), _ml_dag(_roll(u[mu], nu, 1)), _ml_dag(u[nu]))


def _abelian_leaves(p, mu, nu):
    """U(1) leaves commute, so the four leaves are the plaquette p read from
    the corners x, x - mu, x - mu - nu and x - nu."""
    return p + _roll(p, mu, -1) + _roll(p, (mu, nu), -1) + _roll(p, nu, -1)


def _reference_clover(u, rank, mu, nu):
    if rank == 1:
        p = _reference_plaquette(u, mu, nu)
        return _ml_project_algebra(_abelian_leaves(p, mu, nu), rank) / 4.0
    return _four_word_clover(u, rank, mu, nu)


def _four_word_clover(u, rank, mu, nu):
    """The clover with each leaf multiplied out as its own word of links."""
    um, un = u[mu], u[nu]
    um_mnu = _roll(um, nu, -1)          # U_mu(x - nu)
    un_mnu = _roll(un, nu, -1)          # U_nu(x - nu)
    um_mmu = _roll(um, mu, -1)          # U_mu(x - mu)
    p1 = _reference_plaquette(u, mu, nu)
    p2 = _ml_mul(un, _ml_dag(_roll(um_mmu, nu, 1)), _ml_dag(_roll(un, mu, -1)), um_mmu)
    p3 = _ml_mul(_ml_dag(um_mmu), _ml_dag(_roll(un_mnu, mu, -1)), _roll(um_mnu, mu, -1), un_mnu)
    p4 = _ml_mul(_ml_dag(un_mnu), um_mnu, _roll(un_mnu, mu, 1), _ml_dag(um))
    return _ml_project_algebra(p1 + p2 + p3 + p4, rank) / 4.0


def _abelian_force(P, u):
    """The u(1) force i g as its real coefficient g.  U(1) commutes, so a
    plane's four force terms are one real field, y = Re P delta_k for
    D_k = i delta_k, read at x and x - nu on U_mu, at x - mu and x on U_nu."""
    D = _sd_asd([P[p].imag for p in _PLANES4])[1]
    g = np.zeros(u.shape)
    for (mu, nu), (k, s) in _PLANE_SIGNS.items():
        y = P[(mu, nu)].real * D[k]
        g[mu] += s * (y - _roll(y, nu, -1))
        g[nu] += s * (_roll(y, mu, -1) - y)
    return g


def _reference_asd_force(u, rank):
    if rank == 1:
        return _abelian_force({p: _reference_plaquette(u, *p) for p in _PLANES4}, u)
    return _four_word_force(u, rank)


def _four_word_force(u, rank):
    """The force with each term multiplied out as its own word of links."""
    P = {p: _reference_plaquette(u, *p) for p in _PLANES4}
    D = _sd_asd([_ml_project_algebra(P[p], rank) for p in _PLANES4])[1]
    out = np.zeros_like(u)
    for (mu, nu), (k, s) in _PLANE_SIGNS.items():
        p, dd = P[(mu, nu)], _ml_dag(D[k])
        out[mu] += s * _ml_mul(p, dd)
        un_dn = _roll(u[nu], nu, -1)
        out[mu] -= s * _ml_mul(_ml_dag(un_dn), _roll(dd, nu, -1), _roll(p, nu, -1), un_dn)
        um_bk = _roll(u[mu], mu, -1)
        out[nu] += s * _ml_mul(u[nu], _ml_dag(_roll(um_bk, nu, 1)),
                               _ml_dag(_roll(u[nu], mu, -1)), _roll(dd, mu, -1), um_bk)
        out[nu] -= s * _ml_mul(dd, p)
    return -_ml_project_algebra(out, rank)


def _noisy_field(dims, group):
    if len(dims) == 4:
        return add_link_noise(constant_flux_field(dims, HALF_FLUX, group), 0.3, seed=8)
    base = constant_flux_field(dims[:4], HALF_FLUX, group)
    return add_link_noise(lift_lattice_7d(base, dims[4:]), 0.3, seed=9)


@pytest.mark.parametrize("group", ["u1", "su2"])
@pytest.mark.parametrize("dims", [(4, 4, 4, 4), (3, 4, 5, 2), (4, 4, 4, 4, 2, 3, 2)],
                         ids=["4x4x4x4", "3x4x5x2", "7d-lift"])
def test_loop_words_are_bit_identical_to_the_explicit_leaves(group, dims):
    U = _noisy_field(dims, group)
    u = np.ascontiguousarray(_ml(U.links))
    # u(1)-valued arrays hold their real coefficient of i, su(2) ones row 0
    algebra = np.dtype(float if U.rank == 1 else complex)
    for mu, nu in itertools.permutations(range(U.ndim), 2):
        want = _reference_plaquette(u, mu, nu)
        assert plaquette_field(U, mu, nu).tobytes() == _em(want).tobytes()
        want = _em(_reference_clover(u, U.rank, mu, nu))
        if U.rank == 1:
            # i Im C / 4, with the real part +0 that (C - C^+)/8 has
            assert not want.real.any() and not np.signbit(want.real).any()
            want = want.imag
        got = clover_field(U, mu, nu)
        assert got.dtype == algebra and got.tobytes() == want.tobytes()
    assert _clover_stack(U, _PLANES4).dtype == algebra
    got = asd_force(U)
    assert got.dtype == algebra
    assert got.tobytes() == _em(_reference_asd_force(u, U.rank)).tobytes()


@pytest.mark.parametrize("dims", [(4, 4, 4, 4), (3, 4, 5, 2), (4, 4, 4, 4, 2, 3, 2)],
                         ids=["4x4x4x4", "3x4x5x2", "7d-lift"])
def test_abelian_clover_is_the_four_word_clover_to_a_few_ulps(dims):
    U = _noisy_field(dims, "u1")
    u = np.ascontiguousarray(_ml(U.links))
    # Both spellings share the leaf p.  Each other leaf is a word of four
    # links of modulus 1, within 4 * 4 eps of its exact value in either
    # spelling, as in test_mul_is_matmul_to_a_few_ulps; each of the three
    # sums of leaves rounds by at most 4 eps on either side.  C - conj(C) =
    # 2i Im C is exact, so F = i Im C / 4 adds no rounding of its own.
    bound = (2 * 3 * 4 * 4 + 2 * 3 * 4) * np.finfo(float).eps / 4
    for mu, nu in itertools.permutations(range(U.ndim), 2):
        got, want = _ml(clover_field(U, mu, nu)), _four_word_clover(u, 1, mu, nu)
        assert not want.real.any()
        assert np.abs(got - want.imag).max() <= bound


@pytest.mark.parametrize("dims", [(4, 4, 4, 4), (3, 4, 5, 2), (4, 4, 4, 4, 2, 3, 2)],
                         ids=["4x4x4x4", "3x4x5x2", "7d-lift"])
def test_abelian_force_is_the_four_word_force_to_a_few_ulps(dims):
    U = _noisy_field(dims, "u1")
    u = np.ascontiguousarray(_ml(U.links))
    got, want = asd_force(U), _em(_four_word_force(u, 1))
    # Both spellings share P, delta_k (D_k = i delta_k) and the two-factor
    # terms P conj D_k at x, which equal -y = -Re P delta_k to the bit.  Per
    # plane the other term is a word of four factors (d conj D_k p U_nu, read
    # at x - nu) or five (b c d conj D_k a, at x - mu), within 4 * 5 eps
    # |delta| of its exact value as in test_mul_is_matmul_to_a_few_ulps.  The
    # five-factor word's exact value holds the exact plaquette, which p misses
    # by 4 * 4 eps; the four-factor word's holds |U_nu|^2, off 1 by at most the
    # unitarity defect (plus eps, as that measure rounds once); y rounds by
    # eps/2.  An entry meets such a term in three base planes, and each
    # spelling rounds at most six additions, each by eps/2 of at most 6 delta.
    # C - conj(C) = 2i Im C, so the four-word force's -Pi adds no rounding.
    eps = np.finfo(float).eps
    D = _sd_asd([plaquette_field(U, *p).imag for p in _PLANES4])[1]
    delta = max(float(np.abs(d).max()) for d in D)
    defect = unitarity_defect(U) + eps
    bound = (3 * ((4 * 5 + 4 * 4 + 0.5) * eps + defect) + 2 * 6 * 3 * eps) * delta
    assert got.dtype == float and got.shape == U.links.shape
    assert not want.real.any()
    assert np.abs(got - want.imag).max() <= bound


# The cooling loop spelled as separate passes with np.roll shifts on
# matrix-last links: the force, then the trial energies, then a fresh clover
# charge for every history row.  cool_to_sd's single plane sweep per field
# must reproduce it bit for bit.
def _roll_links(u, mu, nu):
    return u[mu], _roll(u[nu], mu, 1), _ml_dag(_roll(u[mu], nu, 1)), _ml_dag(u[nu])


def _roll_clover_charge(u, rank):
    F = []
    for mu, nu in _PLANES4:
        a, b, c, d = _roll_links(u, mu, nu)
        if rank == 1:
            C = _abelian_leaves(_ml_mul(a, b, c, d), mu, nu)
        else:
            C = (_ml_mul(a, b, c, d) + _roll(_ml_mul(b, c, d, a), mu, -1)
                 + _roll(_ml_mul(c, d, a, b), (mu, nu), -1) + _roll(_ml_mul(d, a, b, c), nu, -1))
        F.append(_ml_project_algebra(C, rank) / 4.0)
    return _ml_charge(F)


def _roll_energies(u, rank):
    if rank == 1:
        # the u(1) parts i Im P as their real coefficient Im P
        return _energies(_sd_asd([_em(_ml_mul(*_roll_links(u, *p)).imag) for p in _PLANES4]),
                         rank)
    return _energies(_sd_asd([_em(_ml_project_algebra(_ml_mul(*_roll_links(u, *p)), rank))
                              for p in _PLANES4]), rank)


def _roll_asd_force(u, rank):
    P = {p: _ml_mul(*_roll_links(u, *p)) for p in _PLANES4}
    if rank == 1:
        return _abelian_force(P, u)
    D = _sd_asd([_ml_project_algebra(P[p], rank) for p in _PLANES4])[1]
    out = np.zeros_like(u)
    for (mu, nu), (k, s) in _PLANE_SIGNS.items():
        a, b, c, d = _roll_links(u, mu, nu)
        p, dd = P[(mu, nu)], _ml_dag(D[k])
        out[mu] += s * _ml_mul(p, dd)
        out[mu] -= s * _roll(_ml_mul(d, dd, p, u[nu]), nu, -1)
        out[nu] += s * _roll(_ml_mul(b, c, d, dd, a), mu, -1)
        out[nu] -= s * _ml_mul(dd, p)
    return -_ml_project_algebra(out, rank)


def _roll_cool(U, max_steps, tol):
    work, rank = np.ascontiguousarray(_ml(U.links)), U.rank
    tau = np.inf
    en = _roll_energies(work, rank)
    history = [(0, en["asd_fraction"], _roll_clover_charge(work, rank))]
    steps, plateau = 0, False
    while steps < max_steps and not en["asd_fraction"] < tol:
        force = _roll_asd_force(work, rank)
        fmax = float(np.abs(force).max())
        if fmax < 1e-14:
            plateau = True
            break
        # the quadratic model of E(tau) from its exact slope -|G|^2 at 0
        g2 = _norm_sq(_em(force), rank)
        tau = min(tau, 0.1 / fmax)
        for _ in range(30):
            rot = _ml_expm_ah(-tau * force)
            trial = _ml_mul(rot, work)
            _ml_reunitarize(trial, rank)
            trial_en = _roll_energies(trial, rank)
            c = (trial_en["asd_sq"] - en["asd_sq"] + g2 * tau) / (tau * tau)
            best = g2 / (2.0 * c) if c > 0 else np.inf
            if trial_en["asd_sq"] <= en["asd_sq"] * (1.0 + 1e-12):
                break
            tau = min(max(best, tau / 10), tau / 2)
        else:
            if en["asd_sq"] < 1e-20 or fmax < 1e-9 * max(en["asd_sq"], 1.0):
                plateau = True
                break
            raise CoolingDivergence(f"no acceptable step at iteration {steps + 1}", history)
        work, en, tau = trial, trial_en, min(max(best, tau / 2), 2 * tau)
        steps += 1
        history.append((steps, en["asd_fraction"], _roll_clover_charge(work, rank)))
    return {"links": work, "history": history, "converged": en["asd_fraction"] < tol,
            "steps": steps, "plateau": plateau}


def _assert_same_cooling(U, max_steps, tol=1e-3):
    got, want = cool_to_sd(U, max_steps, tol), _roll_cool(U, max_steps, tol)
    assert got["history"] == want["history"]
    for key in ("steps", "converged", "plateau"):
        assert got[key] == want[key], key
    assert got["field"].links.tobytes() == _em(want["links"]).tobytes()
    return got


def test_shift_is_np_roll():
    a = _random_links(np.random.default_rng(6), (3, 4, 5, 2), 2)
    axes = list(range(4)) + list(itertools.permutations(range(4), 2))
    b = _em(a)
    for axis, n in itertools.product(axes, (1, -1)):
        got = _shift(b, axis, n)
        assert got.tobytes() == _em(_roll(a, axis, n)).tobytes(), (axis, n)
        assert not np.shares_memory(got, b)


@pytest.mark.parametrize("group", ["u1", "su2"])
@pytest.mark.parametrize("dims", [(4, 4, 4, 4), (3, 4, 5, 2), (6, 6, 6, 6)],
                         ids=["4x4x4x4", "3x4x5x2", "6x6x6x6"])
def test_cooling_sweep_is_bit_identical_to_separate_passes(group, dims):
    flux, noise = (SD_UNIT, 0.05) if group == "u1" else (HALF_FLUX, 0.02)
    U = add_link_noise(constant_flux_field(dims, flux, group), noise, seed=5)
    u = np.ascontiguousarray(_ml(U.links))
    assert asd_force(U).tobytes() == _em(_roll_asd_force(u, U.rank)).tobytes()
    assert clover_charge(U) == _roll_clover_charge(u, U.rank)
    # 4^4 and 6^4 converge within 40 steps, 3x4x5x2 is stopped by max_steps
    out = _assert_same_cooling(U, max_steps=40)
    assert out["converged"] == (dims != (3, 4, 5, 2))


@pytest.mark.parametrize("group", ["u1", "su2"])
def test_short_and_trivial_cooling_are_bit_identical_to_separate_passes(group):
    U = add_link_noise(constant_flux_field((4, 4, 4, 4), SD_UNIT, group), 0.1, seed=6)
    out = _assert_same_cooling(U, max_steps=3)
    assert out["steps"] == 3 and not out["converged"]
    out = _assert_same_cooling(identity_field((4, 4, 4, 4), group), max_steps=10)
    assert out["steps"] == 0 and out["history"] == [(0, 0.0, 0.0)]


def _random_links(rng, shape, rank):
    return rng.normal(size=shape + (rank, rank)) + 1j * rng.normal(size=shape + (rank, rank))


def _quaternion_links(rng, shape):
    """Matrix-last [[a, b], [-conj b, conj a]] with complex normal a and b:
    real multiples of SU(2) links, the 2x2 matrices that _mul multiplies."""
    a, b = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
    return np.stack([a, b, -np.conj(b), np.conj(a)], axis=-1).reshape(*shape, 2, 2)


def _half_flux_links(rng, shape):
    """Diagonal links (z, 0) drawn from the sites of the su2 half-flux field."""
    links = constant_flux_field((4, 4, 4, 4), HALF_FLUX, "su2").links.reshape(2, -1)
    return links[:, rng.integers(links.shape[1], size=shape)]


MUL_SHAPES = [[(7,), (7,)], [(3, 1, 4), (5, 1), (1,)], [(2, 3), (3,), (2, 1), (2, 3)]]
MUL_FACTORS = {
    "quaternion": lambda rng, shape: _em(_quaternion_links(rng, shape)),
    "identity": lambda rng, shape: identity_field(shape, "su2").links[:, 0],
    "half-flux": _half_flux_links,
}


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("shapes", MUL_SHAPES)
def test_mul_is_matmul_to_a_few_ulps(rank, shapes):
    # rank 1 takes general complex factors, rank 2 the form [[a, b], [-conj b, conj a]]
    rng = np.random.default_rng(rank)
    factors = [_random_links(rng, s, 1) if rank == 1 else _quaternion_links(rng, s)
               for s in shapes]
    got, want, bound = _ml(_mul(*map(_em, factors))), factors[0], np.abs(factors[0])
    for f in factors[1:]:
        want, bound = want @ f, bound @ np.abs(f)
    assert got.shape == want.shape
    # the rounding bound of a length-`rank` dot product, per product
    assert np.all(np.abs(got - want) <= 4 * len(factors) * np.finfo(float).eps * bound)


@pytest.mark.parametrize("kind", sorted(MUL_FACTORS))
@pytest.mark.parametrize("shapes", MUL_SHAPES)
def test_mul_is_the_four_entry_product_to_the_bit(kind, shapes):
    """The row-0 product is row 0 of the four-entry product, bit for bit but
    for the sign of an exact zero: (a1 a2 - b1 conj b2) takes the sign of a
    zero where the four entries add b1 (-conj b2).  Adding 0.0 turns -0 into
    +0 and leaves every other entry's bits."""
    rng = np.random.default_rng(3)
    factors = [MUL_FACTORS[kind](rng, s) for s in shapes]
    got, want = _mul(*factors), four_entry_mul(*factors)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


def test_lattice_pipelines_are_bit_identical_with_the_four_entry_product(monkeypatch):
    """The 21-plane clover stacks of an su2 lift and of a noised 7D field that
    is no lift, and a whole su2 cooling run, do not move a bit when _mul is
    the four-entry oracle; both sides multiply links without BLAS, so the
    comparison does not depend on the thread count."""
    import g2lab.gauge.lattice as lattice

    base = add_link_noise(constant_flux_field((4, 4, 4, 4), HALF_FLUX, "su2"), 0.05, seed=3)
    lift = lift_lattice_7d(base, (2, 2, 2))
    fields = (lift, add_link_noise(lift, 0.05, seed=4))
    start = add_link_noise(constant_flux_field((4, 4, 4, 4), HALF_FLUX, "su2"), 0.02, seed=5)

    def run():
        flow = cool_to_sd(start, max_steps=40)
        return ([_clover_stack(V, _PLANES7).tobytes() for V in fields],
                np.array(flow["history"]).tobytes(), flow["field"].links.tobytes())

    got = run()
    monkeypatch.setattr(lattice, "_mul", four_entry_mul)
    assert run() == got


def test_su2_producers_write_snapshots_that_read_back(tmp_path):
    # each file passes read_snapshot's check that its links are
    # [[a, b], [-conj b, conj a]] by value, and holds the field's row 0
    dims = (4, 4, 4, 4)
    U = add_link_noise(constant_flux_field(dims, HALF_FLUX, "su2"), 0.02, seed=5)
    trial = LatticeGaugeField(dims, "su2", _mul(_expm_ah(-0.01 * asd_force(U)), U.links))
    reunitarize(trial)
    path = str(tmp_path / "field.lat")
    write_snapshot(U, path)
    fields = {"identity_field": identity_field(dims, "su2"),
              "constant_flux_field": constant_flux_field(dims, HALF_FLUX, "su2"),
              "add_link_noise": U, "random_gauge_transform": random_gauge_transform(U, 6),
              "reunitarize": trial, "lift_lattice_7d": lift_lattice_7d(U, (2, 2, 2)),
              "cool_to_sd": cool_to_sd(U, max_steps=40)["field"],
              "read_snapshot": read_snapshot(path)}
    for name, V in fields.items():
        write_snapshot(V, path)
        assert np.array_equal(read_snapshot(path).links, V.links), name


def _su2_links(rng, n):
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1)[:, None]
    a, b = q[:, 0] + 1j * q[:, 1], q[:, 2] + 1j * q[:, 3]
    return np.stack([a, b, -np.conj(b), np.conj(a)], axis=-1).reshape(n, 2, 2)


def _svd_projection(u):
    """Polar projection onto U(2), then the determinant divided out."""
    w, _, vh = np.linalg.svd(u)
    p = w @ vh
    det = p[..., 0, 0] * p[..., 1, 1] - p[..., 0, 1] * p[..., 1, 0]
    return p * (det ** -0.5)[..., None, None]


def _as_field(links):
    """A 1D su2 field with the (n, 2, 2) matrices ``links`` as its links."""
    return LatticeGaugeField((len(links),), "su2", _em(links[None]))


def test_reunitarize_matches_svd_projection_near_su2():
    # links after a first-order step (1 + 1e-3 X) U, X in su(2): what cooling
    # hands to reunitarize, off the group by about 1e-6
    rng = np.random.default_rng(3)
    U = _su2_links(rng, 5000)
    X = np.zeros_like(U)
    g = 1e-3 * rng.normal(size=(5000, 3))
    X[:, 0, 0], X[:, 1, 1] = 1j * g[:, 0], -1j * g[:, 0]
    X[:, 0, 1], X[:, 1, 0] = g[:, 1] + 1j * g[:, 2], -g[:, 1] + 1j * g[:, 2]
    V = _as_field(U + X @ U)
    assert unitarity_defect(V) > 1e-8
    reunitarize(V)
    assert np.abs(_ml(V.links)[0] - _svd_projection(U + X @ U)).max() < 1e-14
    assert unitarity_defect(V) < 1e-15


def test_reunitarize_is_the_nearest_su2_matrix():
    # off the quaternion directions the two projections differ at second
    # order; the normalised quaternion part, the row 0 that a field stores,
    # is the one nearest the input
    rng = np.random.default_rng(4)
    M = _su2_links(rng, 5000) + 1e-3 * _random_links(rng, (5000,), 2)
    q = 0.5 * (M + np.conj(M[:, ::-1, ::-1]) * [[1, -1], [-1, 1]])
    V = _as_field(q)
    reunitarize(V)
    assert unitarity_defect(V) < 1e-15
    near = np.linalg.norm(_ml(V.links)[0] - M, axis=(-2, -1))
    svd = np.linalg.norm(_svd_projection(M) - M, axis=(-2, -1))
    assert np.all(near <= svd * (1 + 1e-12))


def test_reunitarize_keeps_su2_links():
    U = _su2_links(np.random.default_rng(5), 5000)
    V = _as_field(U)
    reunitarize(V)
    assert np.abs(_ml(V.links)[0] - U).max() < 1e-15


def _state_before(output):
    """The generator state whose next_u64() returns ``output``: the mix
    run backwards, then one step of the sequence undone."""
    from g2lab.rng import _GAMMA, _M1, _M2, _MASK
    z = output
    for k, m in ((31, None), (27, _M2), (30, _M1)):
        if m is not None:
            z = (z * pow(m, -1, 1 << 64)) & _MASK
        y = z
        for _ in range(64 // k):
            y = z ^ (y >> k)
        z = y
    return (z - _GAMMA) & _MASK


def test_state_before_inverts_the_mix():
    for out in (0, 1, 12345, (1 << 64) - 1):
        assert SplitMix64(_state_before(out)).next_u64() == out


# seeds whose first uniform is 0 (clamped to 2^-64) and 1.0 (whose tail
# argument 1 - u = 0 is clamped to 2^-64)
PRNG_SEEDS = list(range(18)) + [_state_before(0), _state_before((1 << 64) - 1)]


@pytest.mark.parametrize("seed", PRNG_SEEDS)
def test_batch_draws_are_bit_identical_to_single_draws(seed):
    def bits(xs):
        return np.asarray(xs, dtype=float).view(np.uint64).tolist()

    for n in (1, 2, 10 ** 5):
        batch, single = SplitMix64(seed), SplitMix64(seed)
        assert bits(batch.gausses(n)) == bits([single.gauss() for _ in range(n)])
        assert batch.state == single.state
        assert bits(batch.uniforms(n)) == bits([single.uniform() for _ in range(n)])
        assert batch.state == single.state
    assert SplitMix64(seed).gausses(0) == [] and len(SplitMix64(seed).uniforms(0)) == 0


def test_draws_at_both_ends_of_the_unit_interval_are_finite_and_opposite():
    lo, hi = SplitMix64(_state_before(0)), SplitMix64(_state_before((1 << 64) - 1))
    assert lo.uniform() == 0.0 and hi.uniform() == 1.0
    lo, hi = SplitMix64(_state_before(0)), SplitMix64(_state_before((1 << 64) - 1))
    z = lo.gauss()
    assert hi.gauss() == -z and -9.09 < z < -9.07


def test_draws_match_the_standard_library_inverse_normal_cdf():
    # NormalDist.inv_cdf is AS241 with the same coefficients and order; the
    # two agree to the bit here, but a C build may contract to FMA
    inv_cdf = NormalDist().inv_cdf
    u = SplitMix64(1).uniforms(149644)
    assert 0.0 < u.min() and u.max() < 1.0
    z = np.array(SplitMix64(1).gausses(len(u)))
    ref = np.array([inv_cdf(x) for x in u.tolist()])
    assert np.all(np.abs(z - ref) <= 2 * np.spacing(np.abs(ref)))


def test_only_tail_draws_call_log(monkeypatch):
    seen, log = [], math.log

    def counting_log(x):
        seen.append(x)
        return log(x)

    u = SplitMix64(3).uniforms(10 ** 5)
    monkeypatch.setattr(math, "log", counting_log)
    SplitMix64(3).gausses(10 ** 5)
    tail = u[np.abs(u - 0.5) > 0.425]
    assert 0.14 < len(tail) / len(u) < 0.16
    assert seen == np.minimum(tail, 1.0 - tail).tolist()


def test_su2_noise_row_is_row_0_of_the_whole_matrix():
    # signed zeros in every slot, then normal draws
    c = np.random.default_rng(8).standard_normal((5000, 3))
    c[:27] = list(itertools.product((0.0, -0.0, -1.5), repeat=3))
    row = _su2_row0(c)
    whole = su2(c[:, ::-1])[:, 0].T
    assert row.tobytes() == whole.tobytes()
    assert _expm_ah(row).tobytes() == _expm_ah(whole).tobytes()
