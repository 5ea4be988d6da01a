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


def _zero_regions(grid, candidate: np.ndarray) -> list:
    """Connected components (by mesh edges) of the ``candidate`` nodes, of at least
    DEFAULT_MIN_REGION nodes, each sorted, in order of least node. Each candidate
    takes the least label across its edges, then its label's label (so sweeps do not
    grow with a region's diameter), until no label moves: its component's least node."""
    inside = grid.edges[candidate[grid.edges].all(axis=1)]
    tails, heads = np.concatenate([inside, inside[:, ::-1]]).T  # each edge both ways
    label = np.arange(grid.n_nodes)
    while True:
        before = label.copy()
        np.minimum.at(label, tails, label[heads])
        label = label[label]
        if (label == before).all():
            break
    members = np.flatnonzero(candidate)
    labels = label[members]
    # members grouped by label, in increasing order within each group
    grouped = np.sort(labels * grid.n_nodes + members) % grid.n_nodes
    sizes = np.bincount(labels, minlength=grid.n_nodes)[members[labels == members]]
    ends = np.cumsum(sizes).tolist()
    return [grouped[end - size:end] for size, end in zip(sizes.tolist(), ends)
            if size >= DEFAULT_MIN_REGION]


def classify_cone(
    ps: ProblemSpec,
    u: ScalarField,
    tol_zero: float = DEFAULT_TOL_ZERO,
) -> ConeClassification:
    """Classify a field against the discrete strong-positivity cone.

    Kinds: ``trivial`` (zero up to tol), ``sign_changing``, ``interior_cone``,
    ``dead_core`` (a connected interior region of at least ``DEFAULT_MIN_REGION``
    near-zero nodes in an otherwise nonnegative, somewhere-positive field), or
    ``nonnegative_degenerate`` for everything else nonnegative.
    """
    if u.grid is not ps.grid:
        raise ValueError("field and problem live on different grids")
    grid = ps.grid
    vals = u.values
    positivity_margin = float(vals[ps.free_nodes].min())

    is_boundary = np.zeros(grid.n_nodes, dtype=bool)
    is_boundary[grid.boundary_nodes] = True
    normal_margin = None
    if ps.is_dirichlet:
        # edges from a boundary node to an interior one, as (boundary, interior)
        on_boundary = is_boundary[grid.edges]
        crossing = on_boundary[:, 0] != on_boundary[:, 1]
        pairs = grid.edges[crossing]
        b, inner = np.where(on_boundary[crossing, :1], pairs, pairs[:, ::-1]).T
        if len(b):
            dist = np.linalg.norm(grid.nodes[inner] - grid.nodes[b], axis=1)
            # 0 - x, not -x: a field flat at the boundary gets +0, not -0
            normal_margin = 0.0 - float(((vals[b] - vals[inner]) / dist).max())

    if np.all(np.abs(vals) <= tol_zero):
        return ConeClassification(KIND_TRIVIAL, positivity_margin, normal_margin, [])
    if np.any(vals < -tol_zero):
        return ConeClassification(KIND_SIGN_CHANGING, positivity_margin, normal_margin, [])

    in_cone = positivity_margin > tol_zero
    if ps.is_dirichlet:
        in_cone = in_cone and normal_margin is not None and normal_margin > tol_zero
    if in_cone:
        return ConeClassification(KIND_INTERIOR_CONE, positivity_margin, normal_margin, [])

    regions = _zero_regions(grid, (np.abs(vals) <= tol_zero) & ~is_boundary)
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


def comparability_delta(u: ScalarField, v: ScalarField) -> ComparabilityResult:
    """Smallest delta >= 1 with u/delta <= v <= delta * u on the positive set.

    Incomparable when one field clears ``DEFAULT_TOL_ZERO`` at a node where the
    other does not (the two-sided bound would need an unbounded constant), or
    when both fields vanish everywhere.
    """
    if u.grid is not v.grid:
        raise ValueError("fields live on different grids")
    pos_u = u.values > DEFAULT_TOL_ZERO
    pos_v = v.values > DEFAULT_TOL_ZERO
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
