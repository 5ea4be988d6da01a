"""Discrete energy, its nodal gradient and preconditioner parts, and the scaled residual.

The energy of a nodal field u is

    sum_elements  volume * (1/p) * W(|grad u|^p)   -   sum_nodes  m_i * G(x_i, u_i)

where W is the diffusion primitive and G the reaction primitive, with lumped
node masses m_i. Fields must vanish on ``ProblemSpec.held_nodes`` (a Dirichlet
problem's boundary) and the gradient is zeroed there, which keeps energy
values exactly comparable across iterates (no penalty terms).

Overflowing evaluations are reported as infinities rather than raised, so a
line search can treat them as rejected steps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryViolationError
from .grid import Grid, ScalarField, _frozen_array
from .model import DiffusionSpec, ProblemSpec, power_sum

BOUNDARY_TOL = 1e-12

# Regularization of the |grad u|^(p-2) weight for p < 2, applied in the
# gradient assembly only: the energy itself stays exact.
GRAD_WEIGHT_FLOOR = 1e-10

# Floor under nodal values when estimating reaction curvature: exponents below
# 2 give unbounded curvature at 0, which would freeze preconditioned descent there.
CURVATURE_VALUE_FLOOR = 1e-13

# Floor under |grad u| in the weighted stiffness, whose weight |grad u|^(p-2)
# would vanish or blow up on flat elements
STIFFNESS_GRAD_FLOOR = 1e-6


@dataclass(frozen=True)
class EnergyBreakdown:
    diffusion_part: float
    reaction_part: float

    @property
    def total(self) -> float:
        return self.diffusion_part - self.reaction_part


class DiffusionPlan:
    """Read-only tables and kernels of a diffusion energy on one grid.

    The kernels validate nothing (the public functions below check their
    inputs). Norms and values repeat the floating-point operations of the
    direct formulas (``einsum`` gradients, checked model methods) in the same
    order, so they are bitwise equal to those formulas; the flux applies the
    weighted stiffness on edges (``ElementAssembly.band_product``), equal to
    the element sum of scale * grad u . grad(hat) to roundoff.
    """

    def __init__(self, grid: Grid, diffusion: DiffusionSpec):
        self.assembly = grid.assembly
        self.volume = grid.element_volume
        self.p = diffusion.p
        # w = 1 needs neither the weight nor a copy for its primitive
        constant = diffusion.family == "constant"
        self.weight = None if constant else diffusion._weight
        self.weight_primitive = None if constant else diffusion._weight_primitive
        # w = 1, p = 2: K's edge bands, the same at every iterate, read-only
        self.stiffness = None
        if constant and self.p == 2.0:
            self.stiffness = tuple(map(_frozen_array, self.assembly.edge_bands(self.volume)))

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Element gradient norms of a nodal field."""
        return self.assembly.norms(self.assembly.gradients(values))

    def diffusion_value(self, norms: np.ndarray) -> float:
        """sum volume * W(norms^p) / p; overflows follow the caller's ``np.errstate``."""
        norm_p = norms**self.p
        if self.weight_primitive is not None:
            norm_p = self.weight_primitive(norm_p)
        norm_p /= self.p  # in place on the fresh array: same bits as norm_p / p
        return float(self.volume @ norm_p)

    def _element_weights(self, norms: np.ndarray, floor: float) -> np.ndarray:
        """volume * w(|grad u|^p) * max(|grad u|, floor)^(p-2) at gradient norms ``norms``."""
        weight = np.maximum(norms, floor) ** (self.p - 2.0)
        if self.weight is not None:
            weight *= self.weight(norms**self.p)
        return self.volume * weight

    def diffusion_flux(self, values: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """Nodal gradient of the value: the weighted stiffness with element weights
        volume * w |grad u|^(p-2), |grad u| floored for p < 2, applied to ``values``."""
        floor = GRAD_WEIGHT_FLOOR if self.p < 2 else 0.0
        bands = self.stiffness or self.assembly.edge_bands(self._element_weights(norms, floor))
        return self.assembly.band_product(bands, values)

    def stiffness_weights(self, norms: np.ndarray) -> np.ndarray:
        """Element weights of the weighted stiffness K_w at gradient norms ``norms``:
        volume * w(|grad u|^p) * max(|grad u|, STIFFNESS_GRAD_FLOOR)^(p-2)."""
        return self._element_weights(norms, STIFFNESS_GRAD_FLOOR)

    def stiffness_bands(self, norms: np.ndarray) -> tuple:
        """Edge bands of K_w at ``norms``: ``stiffness`` when held, else built from its weights."""
        return self.stiffness or self.assembly.edge_bands(self.stiffness_weights(norms))


class EvaluationPlan(DiffusionPlan):
    """The diffusion kernels plus the reaction of one problem's energy, built by ``ps.plan``."""

    def __init__(self, ps: ProblemSpec):
        super().__init__(ps.grid, ps.diffusion)
        self.node_mass = ps.grid.node_mass
        self.held = ps.held_nodes
        self.reaction = ps.reaction
        self.terms = ps.reaction.terms(*ps.nodal_coefficients)

    def energy_parts(self, values: np.ndarray, norms=None) -> tuple[float, float]:
        """(diffusion, reaction) parts; infinities where the energy overflows.
        ``norms``, when given, is ``gather(values)``."""
        with np.errstate(over="ignore", invalid="ignore"):
            diffusion = self.diffusion_value(self.gather(values) if norms is None else norms)
            primitive = self.reaction.evaluate(self.terms, values, "primitive")
            reaction = float(self.node_mass @ primitive)
        return (
            math.inf if math.isnan(diffusion) else diffusion,
            -math.inf if math.isnan(reaction) else reaction,
        )

    def gradient(self, values: np.ndarray, norms=None) -> np.ndarray:
        """Nodal energy gradient, zero on ``held``; ``norms``, when given, is ``gather(values)``."""
        norms = self.gather(values) if norms is None else norms
        out = self.diffusion_flux(values, norms)
        out -= self.node_mass * self.reaction.evaluate(self.terms, values, "value")
        out[self.held] = 0.0
        return out

    def reaction_curvature(self, values: np.ndarray) -> np.ndarray:
        """The lumped positive reaction curvature m * max(-dg/dt, 0), the
        descent preconditioner's nodal shift."""
        floored = np.maximum(np.abs(values), CURVATURE_VALUE_FLOOR)
        slope = power_sum(self.terms["derivative"], floored)
        return self.node_mass * np.maximum(-slope, 0.0)


def check_admissible(ps: ProblemSpec, values: np.ndarray) -> None:
    worst = np.max(np.abs(values[ps.held_nodes]), initial=0.0)
    if worst > BOUNDARY_TOL:
        raise BoundaryViolationError(
            f"field has boundary values up to {worst:.3e} under a zero-Dirichlet condition"
        )


def _admissible_values(ps: ProblemSpec, u: ScalarField) -> np.ndarray:
    if u.grid is not ps.grid:
        raise ValueError("field and problem live on different grids")
    check_admissible(ps, u.values)
    return u.values


def energy_parts(ps: ProblemSpec, values: np.ndarray, norms=None) -> tuple[float, float]:
    """(diffusion, reaction) parts for raw nodal values; may return infinities.
    ``norms``, when given, is ``ps.plan.gather(values)``."""
    return ps.plan.energy_parts(values, norms)


def energy_total(ps: ProblemSpec, values: np.ndarray, norms=None) -> float:
    diffusion, reaction = energy_parts(ps, values, norms)
    total = diffusion - reaction
    return math.inf if math.isnan(total) else total


def energy(ps: ProblemSpec, u: ScalarField) -> EnergyBreakdown:
    """Energy of an admissible field, split into diffusion and reaction parts."""
    diffusion, reaction = energy_parts(ps, _admissible_values(ps, u))
    return EnergyBreakdown(diffusion, reaction)


def ray_energies(ps: ProblemSpec, values: np.ndarray, scales) -> np.ndarray:
    """Energies of t * values, t > 0 in ``scales``, under constant diffusion: the exact
    power sum t^p D - sum_k sign_k t^e_k R_k of the diffusion part D and reaction
    terms R_k of ``values`` (from |u| under the odd extension), from one gather.
    Infinities where it overflows."""
    plan = ps.plan
    if plan.weight is not None:
        raise ValueError("the ray energy is a power sum under constant diffusion only")
    t = np.asarray(scales, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        total = plan.diffusion_value(plan.gather(values)) * t**plan.p
        for term in plan.terms["primitive"]:  # (sign, c, e, e)
            part = plan.reaction.evaluate({"primitive": [term]}, values, "primitive")
            total -= term[0] * float(plan.node_mass @ part) * t ** term[2]
    return np.where(np.isnan(total), np.inf, total)


def energy_grad_values(ps: ProblemSpec, values: np.ndarray, norms=None) -> np.ndarray:
    """Nodal partial derivatives of the discrete energy; ``norms``, when given,
    is ``ps.plan.gather(values)``.

    Entries on the held nodes are forced to zero (frozen degrees of freedom).
    """
    return ps.plan.gradient(values, norms)


def energy_grad(ps: ProblemSpec, u: ScalarField) -> ScalarField:
    return ScalarField(ps.grid, energy_grad_values(ps, _admissible_values(ps, u)))


def stationarity_residual(g: np.ndarray, free) -> float:
    """The descent's stopping residual: |g on ``free``| / sqrt(node count)."""
    g_free = g[free]
    return math.sqrt(g_free @ g_free) / math.sqrt(len(g))


def residual_norm(ps: ProblemSpec, u: ScalarField) -> float:
    """``stationarity_residual`` of the energy gradient on the free nodes."""
    return stationarity_residual(energy_grad_values(ps, _admissible_values(ps, u)), ps.free_nodes)
