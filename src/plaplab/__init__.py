"""Desk-scale laboratory for generalized p-Laplacian energy minimization.

Builds 1D/2D simplicial grids, assembles the weighted-diffusion energy with
subhomogeneous reactions, finds nonnegative minimizers and critical points by
scaled descent, verifies the power-path convexity structure that underpins
uniqueness of strongly positive solutions, and classifies solutions against
the strong-positivity cone (including dead-core detection).
"""

from .classify import (
    ComparabilityResult,
    ConeClassification,
    classify_cone,
    comparability_delta,
    neumann_integral_condition,
)
from .coefficients import CoefficientDef
from .config import ScenarioConfig, load_config
from .energy import EnergyBreakdown, energy, energy_grad, residual_norm
from .errors import BoundaryViolationError, ConfigError, InvariantViolation, PlapLabError
from .grid import (
    Grid,
    ScalarField,
    build_interval_grid,
    build_rectangle_grid,
    integrate_nodal,
)
from .model import (
    DiffusionSpec,
    ProblemSpec,
    ReactionSpec,
    audit_diffusion,
    audit_growth,
    audit_subhomogeneity,
)
from .paths import (
    ConcavityReport,
    HiddenConvexityReport,
    MidpointReport,
    PathDiagnostics,
    edge_difference_violation,
    midpoint_energy_test,
    path_energy_profile,
    pointwise_hidden_convexity,
    power_path,
    power_product,
    power_product_concavity,
    power_product_concavity_grid,
    reaction_pullback_concavity,
)
from .solve import (
    EigenReport,
    MultiStartResult,
    SolveOptions,
    SolveReport,
    first_eigenvalue,
    minimize,
    multi_start,
)

__version__ = "0.1.0"
