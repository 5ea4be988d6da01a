"""Discrete energy, its nodal gradient, and the scaled stationarity residual.

The energy of a nodal field u is

    sum_elements  volume * (1/p) * W(|grad u|^p)   -   sum_nodes  m_i * G(x_i, u_i)

where W is the diffusion primitive and G the reaction primitive, with lumped
node masses m_i. Dirichlet problems freeze the boundary entries: fields must
vanish there and the gradient is zeroed there, which keeps energy values
exactly comparable across iterates (no penalty terms).

Overflowing evaluations are reported as infinities rather than raised, so a
line search can treat them as rejected steps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryViolationError
from .grid import Grid, ScalarField
from .model import DiffusionSpec, ProblemSpec, power_sum

BOUNDARY_TOL = 1e-12

# Regularization of the |grad u|^(p-2) weight for p < 2, applied in the
# gradient assembly only: the energy itself stays exact.
GRAD_WEIGHT_FLOOR = 1e-10

# Floor under nodal values when estimating reaction curvature: exponents below
# 2 give unbounded curvature at 0, which would freeze scaled descent there.
CURVATURE_VALUE_FLOOR = 1e-13


@dataclass(frozen=True)
class EnergyBreakdown:
    diffusion_part: float
    reaction_part: float
    total: float


class DiffusionPlan:
    """Read-only tables and kernels of a diffusion energy on one grid.

    The kernels validate nothing (the public functions below check their
    inputs) and repeat the floating-point operations of the direct formulas
    (``einsum`` gradients, ``np.add.at`` scatter, checked model methods) in
    the same order, so their results are bitwise equal to those formulas.
    """

    def __init__(self, grid: Grid, diffusion: DiffusionSpec):
        self.assembly = grid.assembly
        self.volume = grid.element_volume
        self.p = diffusion.p
        # w = 1 needs neither the weight nor a copy for its primitive
        constant = diffusion.family == "constant"
        self.weight = None if constant else diffusion._weight
        self.weight_primitive = None if constant else diffusion._weight_primitive

    def gather(self, values: np.ndarray):
        """Element gradients of a nodal field and their norms."""
        grads = self.assembly.gradients(values)
        return grads, self.assembly.norms(grads)

    def diffusion_value(self, norms: np.ndarray) -> float:
        """sum volume * W(norms^p) / p; overflows follow the caller's ``np.errstate``."""
        norm_p = norms**self.p
        if self.weight_primitive is not None:
            norm_p = self.weight_primitive(norm_p)
        norm_p /= self.p  # in place on the fresh array: same bits as norm_p / p
        return float(self.volume @ norm_p)

    def diffusion_flux(self, grads: np.ndarray, norms: np.ndarray):
        """Nodal gradient of the value, and the volumes times w |grad u|^(p-2) it scatters."""
        p = self.p
        weight = (np.maximum(norms, GRAD_WEIGHT_FLOOR) if p < 2 else norms) ** (p - 2.0)
        if self.weight is not None:
            weight = self.weight(norms**p) * weight
        scaled_volume = self.volume * weight
        return self.assembly.scatter(scaled_volume, grads), scaled_volume


class EvaluationPlan(DiffusionPlan):
    """The diffusion kernels plus the reaction of one problem's energy, built by ``ps.plan``."""

    def __init__(self, ps: ProblemSpec):
        super().__init__(ps.grid, ps.diffusion)
        self.node_mass = ps.grid.node_mass
        self.frozen = ps.grid.boundary_nodes if ps.is_dirichlet else None
        self.reaction = ps.reaction
        self.terms = ps.reaction.terms(*ps.nodal_coefficients)

    def energy_parts(self, values: np.ndarray) -> tuple[float, float]:
        """(diffusion, reaction) parts; infinities where the energy overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            diffusion = self.diffusion_value(self.gather(values)[1])
            primitive = self.reaction.evaluate(self.terms, values, "primitive")
            reaction = float(self.node_mass @ primitive)
        return (
            math.inf if math.isnan(diffusion) else diffusion,
            -math.inf if math.isnan(reaction) else reaction,
        )

    def gradient(self, values: np.ndarray, scaling: bool = False):
        """Nodal energy gradient, with the curvature estimate when ``scaling``."""
        # held to the end: freed earlier, 2D solves ran 20% slower from page faults
        grads, norms = self.gather(values)
        out, scaled_volume = self.diffusion_flux(grads, norms)
        out -= self.node_mass * self.reaction.evaluate(self.terms, values, "value")
        if self.frozen is not None:
            out[self.frozen] = 0.0
        if not scaling:
            return out
        diag = self.assembly.scatter_diagonal(scaled_volume)
        floored = np.maximum(np.abs(values), CURVATURE_VALUE_FLOOR)
        slope = power_sum(self.terms["derivative"], floored)
        diag += self.node_mass * np.maximum(-slope, 0.0)
        return out, np.maximum(diag, 1e-30)


def check_admissible(ps: ProblemSpec, values: np.ndarray) -> None:
    if ps.is_dirichlet:
        worst = np.max(np.abs(values[ps.grid.boundary_nodes]), initial=0.0)
        if worst > BOUNDARY_TOL:
            raise BoundaryViolationError(
                f"field has boundary values up to {worst:.3e} under a "
                "zero-Dirichlet condition"
            )


def _admissible_values(ps: ProblemSpec, u: ScalarField) -> np.ndarray:
    if u.grid is not ps.grid:
        raise ValueError("field and problem live on different grids")
    check_admissible(ps, u.values)
    return u.values


def energy_parts(ps: ProblemSpec, values: np.ndarray) -> tuple[float, float]:
    """(diffusion, reaction) parts for raw nodal values; may return infinities."""
    return ps.plan.energy_parts(values)


def energy_total(ps: ProblemSpec, values: np.ndarray) -> float:
    diffusion, reaction = energy_parts(ps, values)
    total = diffusion - reaction
    return math.inf if math.isnan(total) else total


def energy(ps: ProblemSpec, u: ScalarField) -> EnergyBreakdown:
    """Energy of an admissible field, split into diffusion and reaction parts."""
    diffusion, reaction = energy_parts(ps, _admissible_values(ps, u))
    return EnergyBreakdown(diffusion, reaction, diffusion - reaction)


def energy_grad_values(ps: ProblemSpec, values: np.ndarray) -> np.ndarray:
    """Nodal partial derivatives of the discrete energy.

    Dirichlet boundary entries are forced to zero (frozen degrees of freedom).
    """
    return ps.plan.gradient(values)


def energy_grad(ps: ProblemSpec, u: ScalarField) -> ScalarField:
    return ScalarField(ps.grid, energy_grad_values(ps, _admissible_values(ps, u)))


def energy_grad_and_scaling(ps: ProblemSpec, values: np.ndarray):
    """Gradient plus a positive per-node curvature estimate.

    The estimate is the lumped diagonal of the weighted diffusion operator
    plus the repulsive part of the reaction slope; it equals the exact Jacobi
    diagonal for constant-weight diffusion with exponent 2. Solvers use it to
    scale descent directions across the very unequal nodal stiffness that
    dead-core tails produce.
    """
    return ps.plan.gradient(values, scaling=True)


def residual_norm(ps: ProblemSpec, u: ScalarField) -> float:
    """Euclidean norm of the free-node gradient, scaled by 1/sqrt(node count)."""
    g = energy_grad_values(ps, _admissible_values(ps, u))
    return float(np.linalg.norm(g[ps.free_nodes]) / np.sqrt(ps.grid.n_nodes))
