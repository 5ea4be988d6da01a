"""Solution classification: positivity cone, dead cores, comparability.

The discrete strong-positivity cone uses absolute thresholds: a field is in
the cone when it clears ``tol_zero`` at every relevant node, and (for
Dirichlet problems) the one-sided difference quotient from each interior
neighbor toward the boundary is below ``-tol_zero``, the discrete surrogate
for a strictly negative outward normal derivative. Boundary nodes without an
interior neighbor (two of the four corners of a structured rectangle mesh)
are skipped; corner data is reporting-only throughout the package.
"""

from dataclasses import dataclass

import numpy as np

from .grid import ScalarField
from .model import ProblemSpec

KIND_TRIVIAL = "trivial"
KIND_INTERIOR_CONE = "interior_cone"
KIND_DEAD_CORE = "dead_core"
KIND_NONNEGATIVE_DEGENERATE = "nonnegative_degenerate"
KIND_SIGN_CHANGING = "sign_changing"

DEFAULT_TOL_ZERO = 1e-8
DEFAULT_MIN_REGION = 3


@dataclass(frozen=True)
class ConeClassification:
    kind: str
    positivity_margin: float
    normal_derivative_margin: float | None
    dead_core_regions: list


def _zero_regions(grid, candidates: np.ndarray, min_size: int) -> list:
    """Connected components (by mesh edges) of the candidate node set."""
    candidate_set = set(int(i) for i in candidates)
    seen: set[int] = set()
    regions = []
    for start in candidates:
        start = int(start)
        if start in seen:
            continue
        stack = [start]
        component = []
        seen.add(start)
        while stack:
            node = stack.pop()
            component.append(node)
            for nbr in grid.node_neighbors[node]:
                nbr = int(nbr)
                if nbr in candidate_set and nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        if len(component) >= min_size:
            regions.append(np.array(sorted(component), dtype=int))
    return regions


def classify_cone(
    ps: ProblemSpec,
    u: ScalarField,
    tol_zero: float = DEFAULT_TOL_ZERO,
    min_region_size: int = DEFAULT_MIN_REGION,
) -> ConeClassification:
    """Classify a field against the discrete strong-positivity cone.

    Kinds: ``trivial`` (zero up to tol), ``sign_changing``, ``interior_cone``,
    ``dead_core`` (a connected interior region of at least ``min_region_size``
    near-zero nodes in an otherwise nonnegative, somewhere-positive field), or
    ``nonnegative_degenerate`` for everything else nonnegative.
    """
    if u.grid is not ps.grid:
        raise ValueError("field and problem live on different grids")
    grid = ps.grid
    vals = u.values
    relevant = grid.interior_nodes if ps.is_dirichlet else np.arange(grid.n_nodes)
    positivity_margin = float(vals[relevant].min())

    normal_margin = None
    if ps.is_dirichlet:
        # edges from a boundary node to an interior one, as (boundary, interior)
        is_boundary = np.zeros(grid.n_nodes, dtype=bool)
        is_boundary[grid.boundary_nodes] = True
        on_boundary = is_boundary[grid.edges]
        crossing = on_boundary[:, 0] != on_boundary[:, 1]
        pairs = grid.edges[crossing]
        b, inner = np.where(on_boundary[crossing, :1], pairs, pairs[:, ::-1]).T
        if len(b):
            dist = np.linalg.norm(grid.nodes[inner] - grid.nodes[b], axis=1)
            normal_margin = -float(((vals[b] - vals[inner]) / dist).max())

    if np.all(np.abs(vals) <= tol_zero):
        return ConeClassification(KIND_TRIVIAL, positivity_margin, normal_margin, [])
    if np.any(vals < -tol_zero):
        return ConeClassification(KIND_SIGN_CHANGING, positivity_margin, normal_margin, [])

    in_cone = positivity_margin > tol_zero
    if ps.is_dirichlet:
        in_cone = in_cone and normal_margin is not None and normal_margin > tol_zero
    if in_cone:
        return ConeClassification(KIND_INTERIOR_CONE, positivity_margin, normal_margin, [])

    candidates = grid.interior_nodes[np.abs(vals[grid.interior_nodes]) <= tol_zero]
    regions = _zero_regions(grid, candidates, min_region_size)
    if regions and np.any(vals > tol_zero):
        return ConeClassification(KIND_DEAD_CORE, positivity_margin, normal_margin, regions)
    return ConeClassification(
        KIND_NONNEGATIVE_DEGENERATE, positivity_margin, normal_margin, []
    )


@dataclass(frozen=True)
class ComparabilityResult:
    comparable: bool
    delta: float | None
    reason: str | None = None


def comparability_delta(
    u: ScalarField, v: ScalarField, tol: float = DEFAULT_TOL_ZERO
) -> ComparabilityResult:
    """Smallest delta >= 1 with u/delta <= v <= delta * u on the positive set.

    Incomparable when one field clears ``tol`` at a node where the other does
    not (the two-sided bound would need an unbounded constant), or when both
    fields vanish everywhere.
    """
    if u.grid is not v.grid:
        raise ValueError("fields live on different grids")
    pos_u = u.values > tol
    pos_v = v.values > tol
    if not pos_u.any() and not pos_v.any():
        return ComparabilityResult(False, None, "both fields vanish up to tolerance")
    mismatch = pos_u != pos_v
    if mismatch.any():
        node = int(np.flatnonzero(mismatch)[0])
        return ComparabilityResult(
            False, None, f"one field vanishes where the other is positive (node {node})"
        )
    both = pos_u
    over = u.values[both] / v.values[both]
    under = v.values[both] / u.values[both]
    delta = float(max(over.max(), under.max()))
    return ComparabilityResult(True, delta)


def neumann_integral_condition(ps: ProblemSpec) -> float:
    """Lumped integral of the reaction coefficient a over the domain.

    Only meaningful for the pure subhomogeneous family under the natural
    boundary condition, where a nonnegative integral rules out strongly
    positive critical points and makes the energy unbounded below over
    constants when positive.
    """
    if ps.reaction.family != "pure_subhomogeneous":
        raise ValueError("integral condition applies to the pure subhomogeneous family")
    if ps.boundary != "natural":
        raise ValueError("integral condition applies to the natural boundary condition")
    a, _ = ps.nodal_coefficients
    return float(ps.grid.node_mass @ a)
