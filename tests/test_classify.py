import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plaplab.classify import (
    DEFAULT_MIN_REGION,
    classify_cone,
    comparability_delta,
    neumann_integral_condition,
)
from plaplab.coefficients import CoefficientDef
from plaplab.grid import Grid, ScalarField, build_interval_grid, build_rectangle_grid
from plaplab.model import DiffusionSpec, ProblemSpec, ReactionSpec


def make_problem(n=30, boundary="dirichlet_zero", a=1.0, family="pure_subhomogeneous"):
    g = build_interval_grid(n, 0.0, 1.0)
    return ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec(family, q=1.5, a=a),
        boundary,
    )


def test_constant_one_natural_is_interior_cone():
    ps = make_problem(boundary="natural")
    cls = classify_cone(ps, ScalarField.constant(ps.grid, 1.0))
    assert cls.kind == "interior_cone"
    assert cls.positivity_margin == 1.0


def test_zero_field_is_trivial():
    ps = make_problem()
    cls = classify_cone(ps, ScalarField.constant(ps.grid, 0.0))
    assert cls.kind == "trivial"


def test_bump_is_interior_cone_dirichlet():
    ps = make_problem()
    u = ScalarField.from_function(ps.grid, lambda x: np.sin(np.pi * x))
    cls = classify_cone(ps, u)
    assert cls.kind == "interior_cone"
    assert cls.normal_derivative_margin is not None
    assert cls.normal_derivative_margin > 0


def adjacency(grid):
    """Each node's edge neighbors, as lists."""
    neighbors = [[] for _ in range(grid.n_nodes)]
    for i, j in grid.edges.tolist():
        neighbors[i].append(j)
        neighbors[j].append(i)
    return neighbors


def reference_normal_margin(grid, vals):
    """Minus the largest one-sided quotient toward the boundary, node by node."""
    interior = np.ones(grid.n_nodes, dtype=bool)
    interior[grid.boundary_nodes] = False
    quotients = []
    neighbors = adjacency(grid)
    for b in grid.boundary_nodes:
        inner = [i for i in neighbors[b] if interior[i]]
        if inner:
            dist = np.linalg.norm(grid.nodes[inner] - grid.nodes[b], axis=1)
            quotients.append(float(((vals[b] - vals[inner]) / dist).max()))
    return -max(quotients) if quotients else None


@pytest.mark.parametrize(
    "grid",
    [build_interval_grid(128, 0.0, 1.0), build_interval_grid(2, -1.0, 1.0),
     build_rectangle_grid(7, 3, (0.0, 1.0, 0.0, 2.0)), build_rectangle_grid(2, 2, (0.0, 1.0, 0.0, 1.0))],
    ids=["interval-128", "interval-2", "rectangle-7x3", "rectangle-2x2"],
)
def test_normal_derivative_margin_equals_node_by_node_reference(grid):
    ps = ProblemSpec(grid, DiffusionSpec("constant", p=2.0), ReactionSpec("pure_subhomogeneous", q=1.5),
                     "dirichlet_zero")
    rng = np.random.default_rng(4)
    for k in range(10):
        vals = rng.uniform(-1.0, 2.0, grid.n_nodes)
        if k % 2:
            vals[grid.boundary_nodes] = 0.0
        margin = classify_cone(ps, ScalarField(grid, vals)).normal_derivative_margin
        assert margin == reference_normal_margin(grid, vals)


def test_normal_derivative_margin_of_a_field_flat_at_the_boundary_is_positive_zero():
    ps = make_problem(n=30)
    bump = np.zeros(ps.grid.n_nodes)
    bump[5:-5] = 1.0  # zero on the boundary and next to it
    for vals in (np.zeros(ps.grid.n_nodes), bump):
        margin = classify_cone(ps, ScalarField(ps.grid, vals)).normal_derivative_margin
        assert margin == 0.0 and math.copysign(1.0, margin) == 1.0


def test_dead_core_middle_third():
    ps = make_problem(n=30)
    x = ps.grid.nodes[:, 0]
    vals = np.where(x < 1 / 3, np.sin(3 * np.pi * x), 0.0)
    vals = np.where(x > 2 / 3, np.sin(3 * np.pi * (x - 2 / 3)), vals)
    vals = np.maximum(vals, 0.0)
    vals[ps.grid.boundary_nodes] = 0.0
    cls = classify_cone(ps, ScalarField(ps.grid, vals))
    assert cls.kind == "dead_core"
    assert len(cls.dead_core_regions) == 1
    region_x = ps.grid.nodes[cls.dead_core_regions[0], 0]
    assert region_x.min() > 0.25 and region_x.max() < 0.75


def bfs_regions(grid, candidate):
    """Breadth-first components of the candidate nodes over ``grid.edges``, of at
    least DEFAULT_MIN_REGION nodes, sorted, in order of their least node."""
    neighbors = adjacency(grid)
    seen, regions = set(), []
    for start in np.flatnonzero(candidate).tolist():
        if start in seen:
            continue
        seen.add(start)
        queue, component = deque([start]), []
        while queue:
            node = queue.popleft()
            component.append(node)
            for nbr in neighbors[node]:
                if candidate[nbr] and nbr not in seen:
                    seen.add(nbr)
                    queue.append(nbr)
        if len(component) >= DEFAULT_MIN_REGION:
            regions.append(np.array(sorted(component), dtype=int))
    return regions


def remeshed(grid, nodes, order):
    """``grid``'s triangles over ``nodes``, taken in ``order``, with their P1 tables."""
    elements = grid.elements[order]
    corners = np.concatenate([np.ones((len(elements), 3, 1)), nodes[elements]], axis=2)
    coeffs = np.linalg.inv(corners)[:, 1:, :].transpose(0, 2, 1)  # column j: hat j's gradient
    volume = 0.5 * np.abs(np.linalg.det(corners))
    return Grid(2, nodes, elements, volume, coeffs, grid.boundary_nodes)


def region_meshes():
    rectangle = build_rectangle_grid(12, 9, (0.0, 1.0, 0.0, 1.0))
    rng = np.random.default_rng(7)
    order = rng.permutation(rectangle.n_elements)
    nodes = np.array(rectangle.nodes)
    inner = rectangle.interior_nodes
    nodes[inner] += rng.uniform(-0.3, 0.3, (len(inner), 2)) / (12, 9)
    return {
        "interval": build_interval_grid(60, 0.0, 1.0),
        "rectangle": rectangle,
        "permuted-rectangle": remeshed(rectangle, rectangle.nodes, order),
        "distorted-rectangle": remeshed(rectangle, nodes, order),
    }


@pytest.mark.parametrize(
    "name", ["interval", "rectangle", "permuted-rectangle", "distorted-rectangle"]
)
def test_dead_core_regions_equal_a_breadth_first_search(name):
    grid = region_meshes()[name]
    ps = ProblemSpec(grid, DiffusionSpec("constant", p=2.0),
                     ReactionSpec("pure_subhomogeneous", q=1.5), "dirichlet_zero")
    interior = np.zeros(grid.n_nodes, dtype=bool)
    interior[grid.interior_nodes] = True
    rng = np.random.default_rng(3)
    masks = [np.zeros(grid.n_nodes, dtype=bool)]
    # along the first interior row: components of one and two nodes, below
    # DEFAULT_MIN_REGION, and one of three
    sparse = np.zeros(grid.n_nodes, dtype=bool)
    sparse[grid.interior_nodes[[1, 4, 5, 7, 8, 9]]] = True
    masks.append(sparse)
    masks += [(rng.uniform(size=grid.n_nodes) < density) & interior
              for density in (0.2, 0.4, 0.5, 0.6, 0.7) for _ in range(3)]
    kinds = set()
    for candidate in masks:
        vals = np.where(candidate | ~interior, 0.0, rng.uniform(0.5, 2.0, grid.n_nodes))
        cls = classify_cone(ps, ScalarField(grid, vals))
        expected = bfs_regions(grid, candidate)
        kinds.add(cls.kind)
        degenerate = "nonnegative_degenerate" if candidate.any() else "interior_cone"
        assert cls.kind == ("dead_core" if expected else degenerate)
        assert len(cls.dead_core_regions) == len(expected)
        for region, reference in zip(cls.dead_core_regions, expected):
            assert region.dtype == reference.dtype
            np.testing.assert_array_equal(region, reference)
    assert kinds == {"dead_core", "interior_cone", "nonnegative_degenerate"}


def test_isolated_zero_is_degenerate_not_dead_core():
    ps = make_problem(n=30)
    vals = np.sin(np.pi * ps.grid.nodes[:, 0])
    vals[15] = 0.0
    vals[ps.grid.boundary_nodes] = 0.0
    cls = classify_cone(ps, ScalarField(ps.grid, vals))
    assert cls.kind == "nonnegative_degenerate"


def test_sign_changing_classification():
    ps = make_problem(boundary="natural")
    vals = np.sin(2 * np.pi * ps.grid.nodes[:, 0])
    cls = classify_cone(ps, ScalarField(ps.grid, vals))
    assert cls.kind == "sign_changing"


def test_scaling_preserves_cone_verdict():
    ps = make_problem()
    tol = 1e-8
    u = np.sin(np.pi * ps.grid.nodes[:, 0]) + 0.0
    u[ps.grid.boundary_nodes] = 0.0
    base = classify_cone(ps, ScalarField(ps.grid, u), tol_zero=tol)
    assert base.kind == "interior_cone"
    assert base.positivity_margin >= 2 * tol
    for alpha in (1.0, 2.5, 10.0):
        cls = classify_cone(ps, ScalarField(ps.grid, alpha * u), tol_zero=tol)
        assert cls.kind == "interior_cone"


def test_comparability_identity():
    ps = make_problem(boundary="natural")
    u = ScalarField.from_function(ps.grid, lambda x: 1.0 + x)
    result = comparability_delta(u, u)
    assert result.comparable and result.delta == 1.0


def test_comparability_scaling():
    ps = make_problem(boundary="natural")
    u = ScalarField.from_function(ps.grid, lambda x: 1.0 + 0 * x)
    v = ScalarField.from_function(ps.grid, lambda x: 3.0 + 0 * x)
    result = comparability_delta(v, u)
    assert result.comparable
    assert abs(result.delta - 3.0) <= 1e-12


def test_comparability_dead_core_incomparable():
    ps = make_problem(n=30)
    x = ps.grid.nodes[:, 0]
    dead = np.where((x > 0.4) & (x < 0.6), 0.0, np.sin(np.pi * x))
    dead[ps.grid.boundary_nodes] = 0.0
    positive = ScalarField.constant(ps.grid, 1.0)
    result = comparability_delta(ScalarField(ps.grid, dead), positive)
    assert not result.comparable
    assert result.delta is None


def test_comparability_both_zero():
    ps = make_problem()
    zero = ScalarField.constant(ps.grid, 0.0)
    result = comparability_delta(zero, zero)
    assert not result.comparable
    assert "vanish" in result.reason


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_comparability_symmetric(seed):
    g = build_interval_grid(16, 0.0, 1.0)
    rng = np.random.default_rng(seed)
    u = ScalarField(g, rng.uniform(0.5, 2.0, g.n_nodes))
    v = ScalarField(g, rng.uniform(0.5, 2.0, g.n_nodes))
    assert comparability_delta(u, v).delta == comparability_delta(v, u).delta


def test_cone_fields_always_comparable():
    ps = make_problem()
    rng = np.random.default_rng(31)
    x = ps.grid.nodes[:, 0]
    for _ in range(10):
        u_vals = np.sin(np.pi * x) * rng.uniform(0.5, 2.0)
        v_vals = np.sin(np.pi * x) ** 0.5 * rng.uniform(0.5, 2.0)
        u_vals[ps.grid.boundary_nodes] = 0.0
        v_vals[ps.grid.boundary_nodes] = 0.0
        u, v = ScalarField(ps.grid, u_vals), ScalarField(ps.grid, v_vals)
        if (
            classify_cone(ps, u).kind == "interior_cone"
            and classify_cone(ps, v).kind == "interior_cone"
        ):
            assert comparability_delta(u, v).comparable


def test_neumann_integral_constant():
    ps = make_problem(boundary="natural", a=-1.0)
    assert abs(neumann_integral_condition(ps) - (-1.0)) <= 1e-12


def test_neumann_integral_piecewise():
    g = build_interval_grid(5, 0.0, 1.0)
    a = CoefficientDef.parse("1*box(0,0.5) - 3*box(0.5,1)").evaluate(g)
    ps = ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("pure_subhomogeneous", q=1.5, a=a),
        "natural",
    )
    assert abs(neumann_integral_condition(ps) - (-1.0)) <= 1e-12


def test_neumann_integral_positive_flags_exclusion():
    ps = make_problem(boundary="natural", a=1.0)
    assert neumann_integral_condition(ps) > 0


def test_neumann_integral_rejects_wrong_setting():
    with pytest.raises(ValueError):
        neumann_integral_condition(make_problem(boundary="dirichlet_zero"))
    g = build_interval_grid(8, 0.0, 1.0)
    ps = ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("double_power", q=1.5, r=3.0),
        "natural",
    )
    with pytest.raises(ValueError):
        neumann_integral_condition(ps)
