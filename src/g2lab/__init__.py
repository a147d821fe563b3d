"""Flat-torus G2 gauge theory: exterior algebra, G2-structures, torus
fibrations, self-dual lifting, Chern-Simons evaluation and the deformation
obstruction, with a CLI front end."""

from .exterior import (
    ConstForm,
    Metric,
    Orientation,
    hodge,
    interior,
    pullback_linear,
    wedge,
)
from .fibration import (
    DeformationSplit,
    FibrationSpec,
    TorusFibration,
    build_fibration,
    decompose_deformation,
)
from .g2core import (
    G2Structure,
    eigen_split,
    metric_from_phi,
    standard_phi,
    standard_star_phi,
    standard_structure,
)
from .chernsimons import (
    CSContext,
    ObstructionReport,
    Verdict,
    cs_functional,
    cs_one_form,
    obstruction_verdict,
    obstruction_verdict_lattice,
    path_integrate,
    perturbed_rho_lattice,
    rho_lattice,
    rho_on_translation,
)
from .rng import SplitMix64
from . import gauge

__version__ = "0.1.0"
