"""Top-level acceptance suite.

Each test pins one externally visible guarantee of the package: the exact
identity layer, the two-form spectrum, lifting of (anti-)self-dual fluxes,
the curvature block decomposition, the functional/1-form consistency, the
constancy and charge pairing of the 1-form on translation tangents, the
lattice cooling pipeline, and byte-level determinism of the report command.
"""

import itertools
import json
import time

import numpy as np
import pytest

from conftest import (asd_defect_form, closedness_residual,
                      energy_decomposition_7d, p14_array, su2)
from g2lab import cli
from g2lab.chernsimons import (
    CSContext, cs_functional, cs_one_form, obstruction_verdict, path_integrate,
    random_offsets, rho_on_translation, Verdict,
)
from g2lab.exterior import ConstForm, wedge
from g2lab.fibration import FibrationSpec, build_fibration
from g2lab.g2core import eigen_split, standard_phi, standard_structure
from g2lab.gauge.fibered import (
    FiberedConnection, block_norms, covariant_d_scalar, fibered_curvature,
)
from g2lab.gauge.fourier import (
    FourierField, constant_curvature_u1, curvature, instanton_residual_field,
    lift_to_7d,
)
from g2lab.gauge.lattice import (
    add_link_noise, asd_residual_4d, clover_charge, constant_flux_field,
    cool_to_sd, lift_lattice_7d, plaquette_chirality_energies, residual_7d,
)

XI_IV = wedge(ConstForm.basis(7, (1,), -2.0), ConstForm.basis(7, (5, 6, 7)))
E1 = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def sd_flux(a, b, c):
    return [[0, a, b, c], [-a, 0, c, -b], [-b, -c, 0, a], [-c, b, -a, 0]]


def asd_flux(a, b, c):
    return [[0, a, b, c], [-a, 0, -c, b], [-b, c, 0, -a], [-c, -b, a, 0]]


# --- 1: exact identity layer ----------------------------------------------


def test_exact_identity_suite_under_one_second():
    t0 = time.monotonic()
    items = cli.identity_suite("exact")
    elapsed = time.monotonic() - t0
    assert all(it["pass"] for it in items)
    assert all(it["residual"] == 0.0 for it in items)
    names = {it["name"] for it in items}
    assert {"coassociative-dual", "induced-metric-identity",
            "two-form-7-block-span", "coassociative-wedge-kernel",
            "coassociative-wedge-rank", "fiber-plane-map",
            "deformation-split-roundtrip",
            "deformation-split-dimensions"} <= names
    assert elapsed < 1.0


# --- 2: two-form spectrum and the energy-weight identity ------------------


def test_spectrum_and_kappa_weight_identity():
    s = eigen_split(standard_phi().to_double())
    assert abs(float(s.lambda7) + 2.0) < 1e-10
    assert abs(float(s.lambda14) - 1.0) < 1e-10
    assert float(s.lambda7) * float(s.lambda14) < 0  # opposite signs
    p7, p14 = s.p7_array(), p14_array(s)
    assert abs(np.trace(p7) - 7.0) < 1e-10
    assert abs(np.trace(p14) - 14.0) < 1e-10

    sx = standard_structure()
    from test_gauge_fourier import random_field
    for seed in range(20):
        F = curvature(random_field(7, 1, 2, seed=500 + seed, cutoff=2))
        en = energy_decomposition_7d(F, sx)
        # kappa = lambda7 |F7|^2 + lambda14 |F14|^2
        assert en["identity_residual"] < 1e-9 * max(1.0, en["ym"])


# --- 3: lifting of constant-flux fields -----------------------------------


def test_lifting_sd_exact_asd_matches_defect(standard_fibration):
    t0 = time.monotonic()
    sd_nine = [sd_flux(1, 0, 0), sd_flux(-1, 0, 0), sd_flux(0, 1, 0),
               sd_flux(0, -1, 0), sd_flux(0, 0, 1), sd_flux(0, 0, -1),
               sd_flux(1, 1, 0), sd_flux(1, 0, 1), sd_flux(0, 1, 1)]
    for m in sd_nine:
        F7 = lift_to_7d(constant_curvature_u1(m), standard_fibration)
        res = instanton_residual_field(F7)
        assert max(res.values()) < 1e-12
    for m in (asd_flux(1, 0, 0), asd_flux(0, 1, 0), asd_flux(0, 0, 1)):
        F4 = constant_curvature_u1(m)
        F7 = lift_to_7d(F4, standard_fibration)
        res = instanton_residual_field(F7)
        O = asd_defect_form(F4)
        nO = float(np.sqrt(sum(np.real(np.trace(o @ o.conj().T))
                               for o in O)))
        assert res["r_a"] == pytest.approx(nO, abs=1e-10)
    assert time.monotonic() - t0 < 5.0


# --- 4: curvature block decomposition -------------------------------------


def test_mixed_block_second_order_and_commutator_term():
    def scalar_u1(c, freq):
        f = FourierField.zero(4, 0, 1, 2)
        f.add_coeff(freq, (), c)
        return f.symmetrized()

    chi = [scalar_u1(0.3j, (1, 0, 0, 0)), scalar_u1(-0.4j, (0, 1, 0, 0)),
           scalar_u1(0.2j, (0, 0, 1, 0))]
    A0 = FourierField.zero(4, 1, 1, 2)
    A0.add_coeff((0, 0, 1, 0), (4,), 0.5j)
    A0 = A0.symmetrized()

    def build(T):
        idxs = [(i, j, k) for i in range(T) for j in range(T)
                for k in range(T)]
        base, sigma = {}, ({}, {}, {})
        for t in idxs:
            At = A0
            for i in range(3):
                At = At + chi[i].d().scale(
                    np.sin(2 * np.pi * t[i] / T) / (2 * np.pi))
            base[t] = At
            for i in range(3):
                sigma[i][t] = chi[i].scale(np.cos(2 * np.pi * t[i] / T))
        return FiberedConnection((T, T, T), base, sigma)

    norms = [block_norms(fibered_curvature(build(T)))["mixed"]
             for T in (4, 8, 16)]
    for a, b in zip(norms, norms[1:]):
        assert abs(np.log2(a / b) - 2.0) < 0.2

    # constant noncommuting fiber components produce the half-commutator
    s1, s2 = su2([1, 0, 0]), su2([0, 1, 0])
    T = 4
    idxs = [(i, j, k) for i in range(T) for j in range(T) for k in range(T)]
    c1 = FourierField.zero(4, 0, 2, 2)
    c1.add_coeff((0, 0, 0, 0), (), s1)
    c2 = FourierField.zero(4, 0, 2, 2)
    c2.add_coeff((0, 0, 0, 0), (), s2)
    c0 = FourierField.zero(4, 0, 2, 2)
    zero1 = FourierField.zero(4, 1, 2, 2)
    conn = FiberedConnection((T, T, T), {t: zero1 for t in idxs},
                             ({t: c1 for t in idxs}, {t: c2 for t in idxs},
                              {t: c0 for t in idxs}))
    comp = fibered_curvature(conn)["F_sigma"][(0, 0, 0)]
    got = comp[(0, 1)].modes.get((0, 0, 0, 0), {}).get((),
                                                       np.zeros((2, 2)))
    assert np.abs(got - 0.5 * (s1 @ s2 - s2 @ s1)).max() < 1e-14


# --- 5: functional / 1-form consistency -----------------------------------


def test_functional_one_form_consistency(cs_context):
    t0 = time.monotonic()
    from test_chernsimons import su2_potential
    a = su2_potential()
    F = curvature(a)

    # gradient check: the central-difference error falls off like h^2
    bb = FourierField.zero(7, 1, 2, 2)
    bb.add_coeff((1, 0, 0, 0, 0, 0, 0), (1,), su2([0.3, -0.2, 0.4]))
    bb.add_coeff((0, 1, 0, 0, 0, 0, 0), (2,), su2([-0.1, 0.5, 0.2]))
    bb.add_coeff((-1, -1, 0, 0, 0, 0, 0), (5,), su2([0.4, 0.1, -0.3]))
    bb = bb.symmetrized()
    rho = cs_one_form(cs_context, F, bb)
    errs = [abs((cs_functional(cs_context, a + bb.scale(h))
                 - cs_functional(cs_context, a + bb.scale(-h))) / (2 * h)
                - rho) for h in (1e-2, 1e-3, 1e-4)]
    slope = np.polyfit(np.log10([1e-2, 1e-3, 1e-4]), np.log10(errs), 1)[0]
    assert abs(slope - 2.0) < 0.1

    # path independence of the line integral
    th = cs_functional(cs_context, a)
    assert abs(path_integrate(cs_context, a, 64, "linear") - th) < 1e-8
    assert abs(path_integrate(cs_context, a, 64, "quadratic-detour")
               - th) < 1e-8

    # closedness and gauge-orbit annihilation
    offs = random_offsets(7, 2, 3, seed=5)
    assert closedness_residual(a, offs[0], offs[1]) < 1e-10
    chi = FourierField.zero(7, 0, 2, 2)
    chi.add_coeff((0, 1, 0, 0, 0, 0, 0), (), su2([0.4, 0.1, -0.3]))
    chi = chi.symmetrized()
    assert abs(cs_one_form(cs_context, F,
                           covariant_d_scalar(a, chi))) < 1e-10
    assert time.monotonic() - t0 < 30.0


# --- 6: constancy of the 1-form on translation tangents -------------------


def test_rho_constant_across_probe_points(cs_context):
    offs = random_offsets(7, 1, 10, seed=42)
    for m in (sd_flux(1, 0, 0), asd_flux(1, 0, 0)):
        F7 = lift_to_7d(constant_curvature_u1(m), cs_context.fib)
        vals = rho_on_translation(cs_context, F7, E1, offs)
        assert max(vals) - min(vals) < 1e-9


# --- 7: charge pairing and the obstruction truth table --------------------


def test_charge_pairing_and_truth_table(cs_context):
    fluxes = {-1: sd_flux(1, 0, 0),
              -2: [[0, 1, 1, 0], [-1, 0, 0, -1],
                   [-1, 0, 0, 1], [0, 1, -1, 0]]}
    for q, m in fluxes.items():
        F7 = lift_to_7d(constant_curvature_u1(m), cs_context.fib)
        assert obstruction_verdict(cs_context, F7, XI_IV).r_phi_value == \
            pytest.approx(float(q), abs=1e-9)

    cases = {"I": ConstForm.basis(7, (1, 2, 3, 4), 1.0),
             "II": ConstForm.basis(7, (1, 2, 3, 6), 1.0),
             "III": ConstForm.basis(7, (1, 2, 6, 7), 1.0),
             "IV": XI_IV,
             "mixed": XI_IV + ConstForm.basis(7, (1, 2, 3, 4), 3.0),
             "0": ConstForm.zero(7, 4)}
    for q in (0, -1):
        m = fluxes[-1] if q else [[0, 0, 0, 0]] * 4
        F7 = lift_to_7d(constant_curvature_u1(m), cs_context.fib)
        for kind, xi in cases.items():
            rep = obstruction_verdict(cs_context, F7, xi)
            expect = q != 0 and kind in ("IV", "mixed")
            assert (rep.verdict is Verdict.OBSTRUCTED) == expect, (q, kind)


# --- 8: lattice cooling pipeline ------------------------------------------


def test_lattice_cooling_and_lift():
    t0 = time.monotonic()
    start = constant_flux_field((6, 6, 6, 6),
                                [[0, 0.5, 0.5, 0], [-0.5, 0, 0, -0.5],
                                 [-0.5, 0, 0, 0.5], [0, 0.5, -0.5, 0]],
                                "su2")
    U = add_link_noise(start, 0.005, seed=42)
    out = cool_to_sd(U, max_steps=5000, tol=1e-3)
    assert out["converged"] and out["steps"] <= 5000
    field = out["field"]
    en = plaquette_chirality_energies(field)
    assert en["asd_fraction"] < 1e-3
    assert abs(clover_charge(field) + 1.0) < 0.1
    U7 = lift_lattice_7d(field, (4, 4, 4))
    res = residual_7d(U7)
    assert res["f7_norm"] <= 2.0 * asd_residual_4d(field)
    assert time.monotonic() - t0 < 300.0


# --- 9: determinism of the report command ---------------------------------


def test_report_is_bit_identical_for_same_seed(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli.run(["report", "--seed", "42", "--out", a]) == 0
    assert cli.run(["report", "--seed", "42", "--out", b]) == 0
    with open(a, "rb") as f1, open(b, "rb") as f2:
        ba, bb = f1.read(), f2.read()
    assert ba == bb
    json.loads(ba)  # and it is valid JSON
