import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest

from plaplab.energy import (
    energy,
    energy_grad,
    energy_grad_values,
    energy_total,
    ray_energies,
    reaction_curvature,
    residual_norm,
)
from plaplab.errors import BoundaryViolationError
from plaplab.grid import ScalarField, build_interval_grid, build_rectangle_grid
from plaplab.model import DiffusionSpec, ProblemSpec, ReactionSpec


def interval_problem(n=16, diffusion=None, reaction=None, boundary="dirichlet_zero"):
    g = build_interval_grid(n, 0.0, 1.0)
    diffusion = diffusion or DiffusionSpec("constant", p=2.0)
    reaction = reaction or ReactionSpec("pure_subhomogeneous", q=1.5, a=0.0)
    return ProblemSpec(g, diffusion, reaction, boundary)


def smooth_field(grid, rng, dirichlet):
    """Random band-limited field with values in [0.1, 10] (interior)."""
    x = grid.nodes[:, 0] / np.ptp(grid.nodes[:, 0])
    vals = np.zeros(grid.n_nodes)
    for k in (1, 2, 3):
        vals += rng.uniform(-1, 1) * np.sin(k * np.pi * x)
        vals += rng.uniform(-1, 1) * np.cos(k * np.pi * x)
    lo, hi = vals.min(), vals.max()
    vals = 0.1 + (vals - lo) / (hi - lo) * 9.9
    if dirichlet:
        vals = vals * np.sin(np.pi * x)
        vals[grid.boundary_nodes] = 0.0
    return vals


def test_zero_field_has_zero_energy():
    ps = interval_problem(reaction=ReactionSpec("pure_subhomogeneous", q=1.5, a=0.7))
    breakdown = energy(ps, ScalarField.constant(ps.grid, 0.0))
    assert breakdown.total == 0.0


def test_dirichlet_violation_rejected():
    ps = interval_problem()
    u = ScalarField.from_function(ps.grid, lambda x: x)
    with pytest.raises(BoundaryViolationError):
        energy(ps, u)
    with pytest.raises(BoundaryViolationError):
        energy_grad(ps, u)


def test_linear_field_natural_bc():
    ps = interval_problem(boundary="natural")
    u = ScalarField.from_function(ps.grid, lambda x: x)
    breakdown = energy(ps, u)
    assert abs(breakdown.total - 0.5) <= 1e-12


def test_breakdown_identity():
    rng = np.random.default_rng(2)
    ps = interval_problem(
        diffusion=DiffusionSpec("power_shift", p=2.0, r=3.0),
        reaction=ReactionSpec("two_term", q=1.5, r=2.5, a=0.5, b=-0.3),
        boundary="natural",
    )
    u = ScalarField(ps.grid, rng.uniform(0.1, 2.0, ps.grid.n_nodes))
    breakdown = energy(ps, u)
    assert abs(breakdown.total - (breakdown.diffusion_part - breakdown.reaction_part)) <= 1e-12


def test_translation_invariance_without_reaction():
    ps = interval_problem(boundary="natural")  # reaction coefficient is zero
    rng = np.random.default_rng(4)
    vals = rng.uniform(0.0, 2.0, ps.grid.n_nodes)
    base = energy_total(ps, vals)
    for c in (0.5, -1.0, 3.25):
        assert abs(energy_total(ps, vals + c) - base) <= 1e-12 * (1 + abs(base))


def test_gradient_zero_at_origin_for_superlinear_reaction():
    ps = interval_problem(reaction=ReactionSpec("pure_subhomogeneous", q=1.5, a=0.9))
    g = energy_grad(ps, ScalarField.constant(ps.grid, 0.0))
    np.testing.assert_allclose(g.values, 0.0, atol=1e-15)


def test_gradient_vanishes_at_double_power_constant():
    ps = interval_problem(
        reaction=ReactionSpec("double_power", q=1.5, r=3.0), boundary="natural"
    )
    g = energy_grad(ps, ScalarField.constant(ps.grid, 1.0))
    np.testing.assert_allclose(g.values, 0.0, atol=1e-15)


def diffusion_cases():
    return [
        DiffusionSpec("constant", p=2.0),
        DiffusionSpec("power_shift", p=2.0, r=3.0),
        DiffusionSpec("saturating", p=1.7),
    ]


def reaction_cases(grid, p):
    x = grid.nodes[:, 0]
    a = np.sin(2 * np.pi * x) + 0.3
    return [
        ReactionSpec("pure_subhomogeneous", q=1.5, a=a),
        ReactionSpec("two_term", q=1.5, r=2.5, a=a, b=-1.0),
        ReactionSpec("logistic", q=p + 2.0, p=p, a=4.0, b=1.0),
        ReactionSpec("double_power", q=1.5, r=3.0),
    ]


RAY_MESHES = {
    "interval": lambda: build_interval_grid(24, 0.0, 1.0),
    "rectangle": lambda: build_rectangle_grid(8, 6, (0.0, 1.0, 0.0, 0.75)),
}


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("extension", ["zero", "odd"])
@pytest.mark.parametrize("mesh", list(RAY_MESHES))
def test_ray_energies_equal_the_energy_of_the_scaled_field(mesh, extension, p):
    grid = RAY_MESHES[mesh]()
    u = np.random.default_rng(7).uniform(-1.0, 2.0, grid.n_nodes)  # sign-changing
    scales = np.ldexp(1.0, np.array([-30, -10, 0, 10]))
    for reaction in reaction_cases(grid, p):
        reaction = dataclasses.replace(reaction, negative_extension=extension)
        ps = ProblemSpec(grid, DiffusionSpec("constant", p=p), reaction, "natural")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ray = ray_energies(ps, u, scales)
            direct = np.array([energy_total(ps, t * u) for t in scales])
        assert np.all(np.isfinite(ray)), reaction.family
        assert np.all(np.abs(ray - direct) <= 1e-12 * np.abs(direct)), (reaction.family, ray, direct)


def test_ray_energies_need_constant_diffusion():
    ps = interval_problem(diffusion=DiffusionSpec("power_shift", p=2.0, r=3.0))
    with pytest.raises(ValueError, match="constant diffusion"):
        ray_energies(ps, np.zeros(ps.grid.n_nodes), [1.0])


@pytest.mark.parametrize("diffusion", diffusion_cases())
@pytest.mark.parametrize("boundary", ["dirichlet_zero", "natural"])
def test_gradient_matches_central_differences(diffusion, boundary):
    grid = build_interval_grid(16, 0.0, 1.0)
    rng = np.random.default_rng(17)
    eps = 1e-6
    for reaction in reaction_cases(grid, diffusion.p):
        ps = ProblemSpec(grid, diffusion, reaction, boundary)
        vals = smooth_field(grid, rng, ps.is_dirichlet)
        grad = energy_grad(ps, ScalarField(grid, vals)).values
        for _ in range(10):
            i = int(rng.choice(ps.free_nodes))
            up = vals.copy()
            up[i] += eps
            dn = vals.copy()
            dn[i] -= eps
            fd = (energy_total(ps, up) - energy_total(ps, dn)) / (2 * eps)
            assert abs(grad[i] - fd) <= 1e-5


def test_gradient_matches_central_differences_2d():
    grid = build_rectangle_grid(6, 6, (0, 1, 0, 1))
    rng = np.random.default_rng(23)
    x, y = grid.nodes[:, 0], grid.nodes[:, 1]
    vals = 0.1 + 4.9 * (1 + np.sin(np.pi * x) * np.sin(np.pi * y))
    vals[grid.boundary_nodes] = 0.0
    ps = ProblemSpec(
        grid,
        DiffusionSpec("power_shift", p=2.0, r=3.0),
        ReactionSpec("pure_subhomogeneous", q=1.5, a=1.0),
        "dirichlet_zero",
    )
    grad = energy_grad(ps, ScalarField(grid, vals)).values
    eps = 1e-6
    for _ in range(20):
        i = int(rng.choice(ps.free_nodes))
        up = vals.copy()
        up[i] += eps
        dn = vals.copy()
        dn[i] -= eps
        fd = (energy_total(ps, up) - energy_total(ps, dn)) / (2 * eps)
        assert abs(grad[i] - fd) <= 1e-5


def test_residual_zero_at_rest():
    ps = interval_problem(reaction=ReactionSpec("pure_subhomogeneous", q=1.5, a=1.0))
    assert residual_norm(ps, ScalarField.constant(ps.grid, 0.0)) == 0.0


def test_residual_scales_linearly_near_constant_solution():
    g = build_interval_grid(64, 0.0, 1.0)
    ps = ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("double_power", q=1.5, r=3.0),
        "natural",
    )
    rng = np.random.default_rng(5)
    w = rng.standard_normal(g.n_nodes)
    ratios = []
    for delta in (1e-3, 1e-4):
        res = residual_norm(ps, ScalarField(g, 1.0 + delta * w))
        ratios.append(res / delta)
    assert abs(ratios[0] - ratios[1]) <= 0.01 * ratios[0]


def test_dirichlet_gradient_frozen_on_boundary():
    grid = build_rectangle_grid(4, 4, (0, 1, 0, 1))
    ps = ProblemSpec(
        grid,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("pure_subhomogeneous", q=1.5, a=1.0),
        "dirichlet_zero",
    )
    vals = np.zeros(grid.n_nodes)
    vals[grid.interior_nodes] = 1.0
    g = energy_grad(ps, ScalarField(grid, vals)).values
    np.testing.assert_array_equal(g[grid.boundary_nodes], 0.0)


def test_overflow_reported_as_infinity():
    ps = interval_problem(
        diffusion=DiffusionSpec("power_shift", p=2.0, r=4.0), boundary="natural"
    )
    vals = np.full(ps.grid.n_nodes, 0.0)
    vals[1] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow is an infinity, not a RuntimeWarning
        assert energy_total(ps, vals) == np.inf


def test_both_parts_overflowing_give_one_infinite_total():
    # diffusion and reaction both overflow: inf - inf is +inf for every caller
    ps = interval_problem(reaction=ReactionSpec("pure_subhomogeneous", q=1.9, a=1.0))
    vals = np.zeros(ps.grid.n_nodes)
    vals[ps.grid.interior_nodes] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parts = energy(ps, ScalarField(ps.grid, vals))
        assert parts.diffusion_part == parts.reaction_part == np.inf
        assert parts.total == energy_total(ps, vals) == np.inf


@pytest.mark.parametrize("family", ["constant", "power_shift", "saturating"])
def test_diffusion_weight_rejects_negative_argument(family):
    d = DiffusionSpec(family, p=2.0, r=3.0 if family == "power_shift" else None)
    with pytest.raises(ValueError):
        d.value(-1.0)
    with pytest.raises(ValueError):
        d.primitive(np.array([0.5, -1.0]))


def test_residual_norm_rejects_boundary_violation():
    ps = interval_problem()
    with pytest.raises(BoundaryViolationError):
        residual_norm(ps, ScalarField.constant(ps.grid, 1.0))


def preconditioner_parts(ps, values):
    """The gradient and the parts of the descent's preconditioner."""
    return energy_grad_values(ps, values), ps.plan.stiffness_weights(ps.plan.gather(values)), \
        reaction_curvature(ps, values)


def arrays_in(value):
    """The arrays in an attribute value, looking into (nested) tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [arr for item in value for arr in arrays_in(item)]
    return []


def reversed_elements(grid):
    """The same mesh with its element table reversed: not the builder's table."""
    tables = ("elements", "element_volume", "element_grad_coeffs")
    return dataclasses.replace(grid, **{name: getattr(grid, name)[::-1] for name in tables})


@pytest.mark.parametrize(
    "grid",
    [build_interval_grid(12, 0.0, 1.0), build_rectangle_grid(4, 3, (0.0, 1.0, 0.0, 1.0)),
     reversed_elements(build_rectangle_grid(4, 3, (0.0, 1.0, 0.0, 1.0)))],
)
def test_evaluation_plan_holds_only_read_only_arrays(grid):
    # the second, w = 1 and p = 2, holds K's edge bands
    for diffusion in (DiffusionSpec("saturating", p=1.5), DiffusionSpec("constant", p=2.0)):
        a = np.linspace(-1.0, 1.0, grid.n_nodes)
        ps = ProblemSpec(
            grid,
            diffusion,
            ReactionSpec("pure_subhomogeneous", q=1.2, a=a, negative_extension="odd"),
            "natural",
        )
        values = np.cos(3.0 * grid.nodes[:, 0])
        first = (energy_total(ps, values), *preconditioner_parts(ps, values))
        assert (ps.plan.stiffness is not None) == (diffusion.p == 2.0)
        for owner in (ps.plan, ps.plan.assembly):
            arrays = [arr for v in vars(owner).values() for arr in arrays_in(v)]
            assert arrays and not any(arr.flags.writeable for arr in arrays)
        assert not any(arr.flags.writeable for arr in (ps.grid.node_mass, ps.held_nodes))
        assert a.flags.writeable  # the caller's coefficient array is left alone
        second = (energy_total(ps, values), *preconditioner_parts(ps, values))
        assert first[0] == second[0]
        for x, y in zip(first[1:], second[1:]):
            np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("dimension", [1, 2])
def test_problem_and_grid_are_freed_without_the_cycle_collector(dimension):
    gc.disable()
    try:
        if dimension == 1:
            grid = build_interval_grid(8, 0.0, 1.0)
        else:
            grid = build_rectangle_grid(3, 3, (0.0, 1.0, 0.0, 1.0))
        ps = ProblemSpec(grid, DiffusionSpec("constant", p=2.0),
                         ReactionSpec("pure_subhomogeneous", q=1.5), "natural")
        energy_total(ps, np.ones(grid.n_nodes))
        preconditioner_parts(ps, np.ones(grid.n_nodes))
        refs = (weakref.ref(ps), weakref.ref(grid))
        del ps, grid
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
