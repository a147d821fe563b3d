"""Gauge fields: Fourier continuum fields, lattice link fields, and the
fibered-connection curvature decomposition."""

from .fibered import (
    FiberedConnection,
    block_norms,
    covariant_d_scalar,
    fibered_curvature,
    q_map,
)
from .fourier import (
    CurvatureField,
    FourierField,
    constant_curvature_u1,
    curvature,
    instanton_residual_field,
    lift_to_7d,
    topological_charge,
)
from .lattice import (
    CoolingDivergence,
    LatticeGaugeField,
    add_link_noise,
    asd_force,
    asd_residual_4d,
    chirality_energies,
    clover_charge,
    clover_field,
    constant_flux_field,
    cool_to_sd,
    identity_field,
    lift_lattice_7d,
    plaquette_chirality_energies,
    plaquette_field,
    random_gauge_transform,
    read_snapshot,
    residual_7d,
    reunitarize,
    write_snapshot,
)

__all__ = [
    "CoolingDivergence", "CurvatureField", "FiberedConnection", "FourierField",
    "LatticeGaugeField", "add_link_noise", "asd_force", "asd_residual_4d",
    "block_norms", "chirality_energies", "clover_charge", "clover_field",
    "constant_curvature_u1", "constant_flux_field", "cool_to_sd",
    "covariant_d_scalar", "curvature", "fibered_curvature", "identity_field",
    "instanton_residual_field", "lift_lattice_7d", "lift_to_7d",
    "plaquette_chirality_energies", "plaquette_field", "q_map",
    "random_gauge_transform", "read_snapshot", "residual_7d", "reunitarize",
    "topological_charge", "write_snapshot",
]
