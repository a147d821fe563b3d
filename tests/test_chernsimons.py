"""The Chern-Simons functional, its 1-form, and the obstruction pipeline."""

import itertools

import numpy as np
import pytest

from conftest import closedness_residual, pairing_oracle, su2
from g2lab.chernsimons import (
    CSContext, cs_functional, cs_one_form, obstruction_verdict, path_integrate,
    perturbed_rho_lattice, random_offsets, rho_lattice, rho_on_translation,
    obstruction_verdict_lattice, Verdict,
)
from g2lab.exterior import ConstForm, wedge
from g2lab.gauge.fibered import covariant_d_scalar
from g2lab.gauge.fourier import (
    FourierField, constant_curvature_u1, curvature, lift_to_7d,
    topological_charge,
)

XI_IV = wedge(ConstForm.basis(7, (1,), -2.0), ConstForm.basis(7, (5, 6, 7)))
E1 = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def u1_potential(seed=0):
    a = FourierField.zero(7, 1, 1, 2)
    a.add_coeff((1, 0, 0, 0, 0, 0, 0), (2,), 0.2 + 0.9j)
    a.add_coeff((1, 0, 0, 0, 0, 0, 0), (5,), 0.4 - 0.3j)
    a.add_coeff((0, 0, 1, 0, 0, 0, 0), (4,), 0.7 + 0.2j)
    a.add_coeff((0, 0, 1, 0, 0, 0, 0), (5,), 0.1 - 0.5j)
    return a.symmetrized()


def su2_potential():
    a = FourierField.zero(7, 1, 2, 2)
    a.add_coeff((1, 0, 0, 0, 0, 0, 0), (2,), (0.2 + 0.9j) * su2([1, 0.3, -0.2]))
    a.add_coeff((1, 0, 0, 0, 0, 0, 0), (5,), (0.4 - 0.3j) * su2([0.2, -1, 0.5]))
    a.add_coeff((0, 0, 1, 0, 0, 0, 0), (4,), (0.7 + 0.2j) * su2([-0.5, 0.4, 1]))
    a.add_coeff((0, 0, 0, 0, 0, 0, 0), (2,), su2([0.5, -0.2, 0.1]))
    return a.symmetrized()


def lifted(flux, fib):
    return lift_to_7d(constant_curvature_u1(flux), fib)


SD_UNIT = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
SD_TWO = [[0, 1, 1, 0], [-1, 0, 0, -1], [-1, 0, 0, 1], [0, 1, -1, 0]]
ASD_UNIT = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
ZERO_FLUX = [[0, 0, 0, 0]] * 4


def test_functional_vanishes_at_reference(cs_context):
    assert cs_functional(cs_context, FourierField.zero(7, 1, 1, 2)) == 0.0


def test_rho_vanishes_at_lifted_instanton(cs_context):
    F7 = lifted(SD_UNIT, cs_context.fib)
    for b in random_offsets(7, 1, 4, seed=1):
        assert abs(cs_one_form(F7, b)) < 1e-10


def test_path_integration_matches_functional(cs_context):
    for a in (u1_potential(), su2_potential()):
        th = cs_functional(cs_context, a)
        assert abs(th) > 1e-3  # a genuinely nontrivial value
        lin = path_integrate(cs_context, a, 64, "linear")
        quad = path_integrate(cs_context, a, 64, "quadratic-detour")
        assert abs(lin - th) < 1e-10
        assert abs(lin - quad) < 1e-8


def test_gradient_slope_two(cs_context):
    a = su2_potential()
    # three modes summing to zero over a calibrated index triple, so the
    # cubic term of the functional is active along this direction
    bb = FourierField.zero(7, 1, 2, 2)
    bb.add_coeff((1, 0, 0, 0, 0, 0, 0), (1,), su2([0.3, -0.2, 0.4]))
    bb.add_coeff((0, 1, 0, 0, 0, 0, 0), (2,), su2([-0.1, 0.5, 0.2]))
    bb.add_coeff((-1, -1, 0, 0, 0, 0, 0), (5,), su2([0.4, 0.1, -0.3]))
    bb = bb.symmetrized()
    F = curvature(a)
    rho = cs_one_form(F, bb)
    errs = []
    for h in (1e-2, 1e-3, 1e-4):
        fd = (cs_functional(cs_context, a + bb.scale(h))
              - cs_functional(cs_context, a + bb.scale(-h))) / (2 * h)
        errs.append(abs(fd - rho))
    slope = np.polyfit(np.log10([1e-2, 1e-3, 1e-4]), np.log10(errs), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_closedness():
    a = su2_potential()
    offs = random_offsets(7, 2, 4, seed=5)
    for x, y in itertools.combinations(offs, 2):
        assert closedness_residual(a, x, y) < 1e-10
    assert closedness_residual(a, offs[0], offs[0]) == 0.0


def test_gauge_orbit_annihilation():
    a = su2_potential()
    F = curvature(a)
    chi = FourierField.zero(7, 0, 2, 2)
    chi.add_coeff((0, 1, 0, 0, 0, 0, 0), (), su2([0.4, 0.1, -0.3]))
    chi = chi.symmetrized()
    b = covariant_d_scalar(a, chi)
    assert abs(cs_one_form(F, b)) < 1e-10


def test_translation_tangent_structure(cs_context):
    F7 = lifted(SD_UNIT, cs_context.fib)
    beta = F7.contract(E1)
    # no fiber legs for a base direction on a lifted field
    for d in beta.modes.values():
        for idx in d:
            assert all(i <= 4 for i in idx)
    zero = F7.contract((0.0,) * 7)
    assert zero.is_zero()


def test_standard_context_is_built_once(monkeypatch):
    """CSContext.standard() builds the standard fibration on first use and
    returns that one context afterwards."""
    from g2lab import chernsimons
    builds = []
    build = chernsimons.build_fibration
    monkeypatch.setattr(chernsimons, "build_fibration",
                        lambda spec: builds.append(spec) or build(spec))
    monkeypatch.setattr(chernsimons, "_STANDARD", None)
    contexts = [CSContext.standard() for _ in range(4)]
    assert len(builds) == 1
    assert all(ctx is contexts[0] for ctx in contexts)


def test_rho_on_translation_constant(cs_context):
    offs = random_offsets(7, 1, 10, seed=42)
    for flux in (SD_UNIT, ASD_UNIT):
        F7 = lifted(flux, cs_context.fib)
        vals = rho_on_translation(cs_context, F7, E1, offs)
        assert max(vals) - min(vals) < 1e-9


def test_perturbed_rho_charge_formula(cs_context):
    for flux, q in ((SD_UNIT, -1.0), (SD_TWO, -2.0)):
        F7 = lifted(flux, cs_context.fib)
        r = obstruction_verdict(cs_context, F7, XI_IV).r_phi_value
        assert r == pytest.approx(q, abs=1e-9)
        assert pairing_oracle(cs_context, F7, E1, XI_IV) == pytest.approx(
            q, abs=1e-9)


def test_perturbed_rho_types_i_to_iii_vanish(cs_context):
    F7 = lifted(SD_UNIT, cs_context.fib)
    xis = [ConstForm.basis(7, (1, 2, 3, 4), 1.0),           # conformal
           ConstForm.basis(7, (1, 2, 3, 6), 1.0),           # one fiber leg
           ConstForm.basis(7, (1, 2, 6, 7), 1.0)]           # two fiber legs
    for xi in xis:
        assert abs(obstruction_verdict(cs_context, F7, xi).r_phi_value) < 1e-10


def test_obstruction_bilinearity(cs_context):
    """r_phi(beta_v) = eps(v) * q across scales of both inputs."""
    vals = np.zeros((3, 3))
    scales = (0.5, 1.0, 2.0)
    fluxes = {0: ZERO_FLUX, -1: SD_UNIT, -2: SD_TWO}
    qs = (0.0, -1.0, -2.0)
    for i, sc in enumerate(scales):
        for j, q in enumerate(qs):
            F7 = lifted(fluxes[int(q)], cs_context.fib)
            vals[i, j] = obstruction_verdict(cs_context, F7,
                                             XI_IV.scale(sc)).r_phi_value
    for i, sc in enumerate(scales):
        for j, q in enumerate(qs):
            assert vals[i, j] == pytest.approx(sc * q, abs=1e-9)


def xi_case(kind):
    if kind == "I":
        return ConstForm.basis(7, (1, 2, 3, 4), 1.0)
    if kind == "II":
        return ConstForm.basis(7, (1, 2, 3, 6), 1.0)
    if kind == "III":
        return ConstForm.basis(7, (1, 2, 6, 7), 1.0)
    if kind == "IV":
        return XI_IV
    if kind == "mixed":
        return XI_IV + ConstForm.basis(7, (1, 2, 3, 4), 3.0)
    return ConstForm.zero(7, 4)


def test_obstruction_truth_table(cs_context):
    for q in (0, -1):
        flux = SD_UNIT if q else ZERO_FLUX
        F7 = lifted(flux, cs_context.fib)
        for kind in ("I", "II", "III", "IV", "mixed", "0"):
            rep = obstruction_verdict(cs_context, F7, xi_case(kind))
            expect = q != 0 and kind in ("IV", "mixed")
            assert (rep.verdict is Verdict.OBSTRUCTED) == expect, (q, kind)
            if expect:
                assert rep.r_phi_value == pytest.approx(rep.n_phi_value,
                                                        abs=1e-9)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_verdicts_refuse_a_tolerance_that_is_not_positive_and_finite(cs_context, tol):
    """A nan tolerance would pass every verdict as "survives", and a negative
    one would call the charge-0 field obstructed under the conformal class."""
    from g2lab.gauge.lattice import constant_flux_field, lift_lattice_7d
    xi = ConstForm.basis(7, (1, 2, 3, 4), 1.0)
    F7 = lifted(ZERO_FLUX, cs_context.fib)
    U7 = lift_lattice_7d(constant_flux_field((2, 2, 2, 2), ZERO_FLUX, "u1"), (2, 2, 2))
    with pytest.raises(ValueError, match="tolerance"):
        obstruction_verdict(cs_context, F7, xi, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        obstruction_verdict_lattice(U7, xi, tol=tol)


def test_lattice_quadrature_matches_continuum():
    from g2lab.gauge.lattice import constant_flux_field, lift_lattice_7d
    U7 = lift_lattice_7d(constant_flux_field((8, 8, 8, 8), SD_UNIT, "u1"),
                         (4, 4, 4))
    assert abs(rho_lattice(U7, E1)) < 1e-10
    r = perturbed_rho_lattice(U7, E1, XI_IV)
    assert r == pytest.approx(-1.0, rel=0.05)
    rep = obstruction_verdict_lattice(U7, XI_IV)
    assert rep.verdict is Verdict.OBSTRUCTED
    rep0 = obstruction_verdict_lattice(U7, ConstForm.basis(7, (1, 2, 3, 4), 1.0))
    assert rep0.verdict is Verdict.SURVIVES


def test_lattice_r_phi_converges_at_fourth_order():
    # r_phi(beta_e1) reads the clover curvature, whose error on the unit SD
    # flux falls as N^-4; the continuum value is eps(e1) q = -1
    from g2lab.gauge.lattice import constant_flux_field, lift_lattice_7d
    sizes = [6, 8, 12]
    err = [abs(perturbed_rho_lattice(lift_lattice_7d(constant_flux_field((n,) * 4, SD_UNIT, "u1"),
                                                     (2, 2, 2)), E1, XI_IV) + 1.0)
           for n in sizes]
    order = -np.polyfit(np.log(sizes), np.log(err), 1)[0]
    assert order == pytest.approx(4.0, abs=0.1)


def test_lattice_verdict_is_one_clover_pass(monkeypatch):
    """obstruction_verdict_lattice builds the 21 clover planes once and
    reads q, rho and r_phi from them."""
    from g2lab.gauge import lattice
    base = lattice.add_link_noise(
        lattice.constant_flux_field((4, 4, 4, 4), SD_UNIT, "su2"), 0.05, 3)
    # fiber noise makes rho nonzero, so equality is not 0 == 0
    U7 = lattice.add_link_noise(lattice.lift_lattice_7d(base, (2, 2, 2)),
                                0.05, 4)
    planes = []
    clover = lattice.clover_field
    monkeypatch.setattr(lattice, "clover_field",
                        lambda U, mu, nu: planes.append((mu, nu))
                        or clover(U, mu, nu))
    rep = obstruction_verdict_lattice(U7, XI_IV)
    assert len(planes) == 21 and len(set(planes)) == 21
    monkeypatch.undo()
    assert rep.rho_value != 0.0
    assert rep.rho_value == rho_lattice(U7, rep.v)
    assert rep.q == lattice.clover_charge(U7)
    assert rep.r_phi_value == perturbed_rho_lattice(U7, rep.v, XI_IV)
