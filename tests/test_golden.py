"""Regression of the energy kernels and the solvers built on them.

The kernel checks compare the energy functions and their plan against the direct formulas
(``einsum`` element gradients, ``np.add.at`` scatter, the checked diffusion
methods, each reaction family's g, G and dg/dt and both negative extensions),
written out below as the reference. Energy values, the stiffness weights and
the reaction curvature are bitwise equal to them. The nodal gradient is not:
the plan applies the weighted stiffness on edges, the reference scatters
element terms, and the two agree per node within 16 eps times the sum of the
magnitudes of the terms added there. The solver checks pin status, iteration
count, final energy and a digest of the solution bytes, recorded with the
plan; any change of floating-point operations or their order shows up here.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from plaplab.config import ScenarioConfig, load_config
from plaplab.energy import energy_grad_values, energy_parts, energy_total, reaction_curvature
from plaplab.grid import ScalarField, build_interval_grid, build_rectangle_grid
from plaplab.model import DiffusionSpec, ProblemSpec, ReactionSpec
from plaplab.solve import SolveOptions, first_eigenvalue, minimize, random_start

SEED = 5

# scenario: (status, iterations, energy.total.hex(), sha256 of solution bytes);
# the pins of the descent preconditioned by the weighted stiffness plus the
# reaction curvature (each checked against the Jacobi-scaled descent it replaced,
# then re-captured, within a few ulps, when P's products and then the energy's
# flux moved to per-edge bands, and again, each against a run of the code before,
# when p = 2 constant-diffusion starts were refined by ray-scaled Picard steps,
# and when projected Picard steps were clipped to the source's positive part,
# and the 2D p = 2 pins when the held rectangle's sine solve became DST-I
# matrix products: CHANGES.md)
GOLDEN_SOLVES = {
    "E1": ("converged", 7, "-0x1.54054ab0a87b2p-17",
           "5d141bf399f25256672b6cd80cb49706d82da8a09e0cdf3c1fecbdce6e034d36"),
    "E2": ("converged", 11, "-0x1.3beb11178094ep-21",
           "8788f245c554f53148280a301f1f6d838f7d27a891b44f7b6e15a66f98505a02"),
    "E3": ("converged", 7, "-0x1.512a065b39700p-17",
           "707c943ee41060dbfdfb3b6d9d885b8e0b48f3aeb89598af50fc95d95727aa9d"),
    "E4": ("converged", 2, "-0x1.5555555555554p-2",
           "6892fc6a4ce66634f462dd9b4dc810a21363cc3c1e72e58b28416e3d0b4d4f03"),
    "E5": ("converged", 6, "-0x1.e0005f8557af0p-10",
           "46bc7736f71c94576403b4fd957b63a88ba42f5309bf70895ada51b49ed9d3f5"),
    "E6": ("converged", 7, "-0x1.fffffffffffffp+1",
           "15fe0abeb6f35141878e00faf0e1e5d6763489f69545ef4fbbb110bffb2a10c8"),
    "E6B": ("converged", 20, "-0x1.4c962f02a398cp-17",
            "0e7ae1768132529036d2a15afe2317239d283bf22b92224db80b407a7bf79e32"),
    # the refined start, of tiny sup and energy below 0, is already converged
    "E7": ("converged", 0, "-0x1.029cfaeae54d0p-74",
           "0e05642631b6a152dc4b41cf772e3a319d459a599530faef0a6d77c79412a244"),
    # the refined start is a constant-like field at the top of the ray scan,
    # and the first step's energy is below -1e12
    "E1N_POS": ("not_bounded_below", 1, "-0x1.0d2b5727995fbp+219",
                "e895cabf5431d537fcbe490581ae9ee449c7d9a0ced82642880f6ccf40975c2a"),
    "E1N_NEG": ("converged", 26, "-0x1.cef520a4a5318p-19",
                "66eb747dc91556aec82585d12d17b82df4025f6a34ee4a3c0f578a9fa1069bd1"),
    # an unprojected descent: iterates with negative entries
    "E1-odd": ("converged", 7, "-0x1.54054ab0a1fa4p-17",
               "2eb4955f6a8587212056bfa8065c07e688f1d2d76c866cf87243fc2f6b6aa7e2"),
}
# variant: (scenario, config fields, shift of the random start)
SOLVE_VARIANTS = {
    "E1-odd": ("E1", {"negative_extension": "odd"}, -0.5),
}
GOLDEN_DEAD_CORE_2D = ("converged", 9, "-0x1.19a05ceb69198p-21",
                       "6bcc67c4c46952f2d5b203489f3c15d88a3f9b67d8cee02a735bebfff00e2637")
# the benchmark's 2D E1-type problem on a non-square 20x12 rectangle
RECTANGLE_E1 = """scenario_id = RECT_E1
grid.dimension = 2
grid.n = 20
grid.ny = 12
grid.ymax = 0.6
diffusion.family = constant
diffusion.p = 2.0
reaction.family = pure_subhomogeneous
reaction.q = 1.5
reaction.a = 1*sin(2*pi*x) + 0.3
boundary = dirichlet_zero
"""
GOLDEN_RECTANGLE_E1 = ("converged", 6, "-0x1.38af215c44228p-22",
                       "3e4e7210959a283f0747200799343dd0c00d6671ccb48c941d9836e0de25519f")
# (grid, p): (converged, iterations, lambda1.hex(), eigenfunction digest, history digest);
# the pins of the descent preconditioned by the weighted stiffness (tridiagonal
# sweep on the interval, conjugate gradients on the rectangle, there
# preconditioned by the sine-transform solve at p = 2, re-captured when it became
# DST-I matrix products; products on per-edge bands)
GOLDEN_EIGEN = {
    ("interval-50", 3.0): (True, 15, "0x1.c454081702f3ap+4",
                           "a43444b8505261f715fed058534798eee3e6d06f9672102fba456982a7bf7472",
                           "ad78a23ff6a59ae33b481a6107734bce0e52eec86d837b049fd2cb0393a82cd6"),
    ("interval-50", 1.5): (True, 12, "0x1.545069ac77748p+2",
                           "e6e68eb2c6375d6a1c5c5acc598d945cba627fe7c6146aa68ea652ac76308331",
                           "e8507d7e166bec9b87bd4222225d547afcd8af1f53be6e5665c0172273c76b99"),
    ("rectangle-24", 2.0): (True, 10, "0x1.3b606ad829456p+4",
                            "be2d8f5e601b75b71cd727b663037311af548f63852026d70da09f6743379f97",
                            "80332f62f02c208e3d818c9442c418261b5a1ce4d2bc7f4049ee7e6d16333c23"),
}
EIGEN_GRIDS = {
    "interval-50": lambda: build_interval_grid(50, 0.0, 1.0),
    "rectangle-24": lambda: build_rectangle_grid(24, 24, (0.0, 1.0, 0.0, 1.0)),
}


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def solve_fingerprint(report):
    return (report.status, report.iterations, report.energy.total.hex(),
            digest(report.solution.values))


@pytest.mark.parametrize("scenario", list(GOLDEN_SOLVES))
def test_builtin_scenario_solve_is_bitwise_unchanged(scenario):
    name, fields, shift = SOLVE_VARIANTS.get(scenario, (scenario, {}, 0.0))
    config = dataclasses.replace(load_config(name), n=48, **fields)
    ps = config.build_problem()
    if config.init_spec == "random":
        init = random_start(ps, SEED)
    else:
        init = ScalarField.constant(ps.grid, float(config.init_spec.split(":", 1)[1]))
    if shift:  # a sign-changing start on a Dirichlet problem
        values = init.values + shift
        values[ps.grid.boundary_nodes] = 0.0
        init = ScalarField(ps.grid, values)
    report = minimize(ps, init, config.solve_options(SEED))
    assert solve_fingerprint(report) == GOLDEN_SOLVES[scenario]


def test_dead_core_2d_solve_is_bitwise_unchanged():
    grid = build_rectangle_grid(24, 24, (0.0, 1.0, 0.0, 1.0))
    x, y = grid.nodes[:, 0], grid.nodes[:, 1]
    a = 1.0 - 200.0 * ((np.abs(x - 0.5) <= 0.15) & (np.abs(y - 0.5) <= 0.15))
    ps = ProblemSpec(
        grid,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("pure_subhomogeneous", q=1.5, a=a),
        "dirichlet_zero",
    )
    report = minimize(ps, random_start(ps, SEED), SolveOptions(random_seed=SEED))
    assert solve_fingerprint(report) == GOLDEN_DEAD_CORE_2D


def test_rectangle_e1_solve_is_bitwise_unchanged():
    config = ScenarioConfig.from_text(RECTANGLE_E1)
    ps = config.build_problem()
    report = minimize(ps, random_start(ps, SEED), config.solve_options(SEED))
    assert solve_fingerprint(report) == GOLDEN_RECTANGLE_E1


def test_first_eigenvalue_is_bitwise_unchanged():
    for (grid_name, p), expected in GOLDEN_EIGEN.items():
        report = first_eigenvalue(EIGEN_GRIDS[grid_name](), p, SolveOptions(random_seed=SEED))
        assert (
            report.converged,
            report.iterations,
            report.lambda1.hex(),
            digest(report.eigenfunction.values),
            digest(report.rayleigh_history),
        ) == expected, (grid_name, p)


# ---- reference formulas --------------------------------------------------


def reference_gradients(grid, values):
    return np.einsum("ej,ejd->ed", values[grid.elements], grid.element_grad_coeffs)


def reference_scatter(grid, per_local):
    out = np.zeros(grid.n_nodes)
    for local in range(grid.dimension + 1):
        np.add.at(out, grid.elements[:, local], per_local[:, local])
    return out


def reference_positive(rs, t, primitive):
    """g or G of the reaction at t >= 0, written out per family."""
    a, b, q, r, p = rs.a, rs.b, rs.q, rs.r, rs.p
    if rs.family == "pure_subhomogeneous":
        return a * t**q / q if primitive else a * t ** (q - 1.0)
    if rs.family == "two_term":
        if primitive:
            return a * t**q / q + b * t**r / r
        return a * t ** (q - 1.0) + b * t ** (r - 1.0)
    if rs.family == "logistic":
        if primitive:
            return a * t**p / p - b * t**q / q
        return a * t ** (p - 1.0) - b * t ** (q - 1.0)
    if primitive:
        return t**q / q - t**r / r
    return t ** (q - 1.0) - t ** (r - 1.0)


def reference_derivative(rs, t):
    """dg/dt of the reaction at t > 0, written out per family."""
    a, b, q, r, p = rs.a, rs.b, rs.q, rs.r, rs.p
    if rs.family == "pure_subhomogeneous":
        return a * (q - 1.0) * t ** (q - 2.0)
    if rs.family == "two_term":
        return a * (q - 1.0) * t ** (q - 2.0) + b * (r - 1.0) * t ** (r - 2.0)
    if rs.family == "logistic":
        return a * (p - 1.0) * t ** (p - 2.0) - b * (q - 1.0) * t ** (q - 2.0)
    return (q - 1.0) * t ** (q - 2.0) - (r - 1.0) * t ** (r - 2.0)


def reference_reaction(rs, t, primitive):
    """g or G at any t: the zero extension, or g odd (G even) for t < 0."""
    if np.all(t >= 0):
        return reference_positive(rs, t, primitive)
    pos = reference_positive(rs, np.abs(t), primitive)
    if rs.negative_extension == "zero":
        return np.where(t >= 0, pos, 0.0)
    assert rs.negative_extension == "odd"
    return pos if primitive else np.where(t >= 0, pos, -pos)


def reference_parts(ps, values):
    grid, p = ps.grid, ps.diffusion.p
    with np.errstate(over="ignore", invalid="ignore"):
        norm_p = np.linalg.norm(reference_gradients(grid, values), axis=1) ** p
        diffusion = float(grid.element_volume @ (ps.diffusion.primitive(norm_p) / p))
        reaction = float(grid.node_mass @ reference_reaction(ps.reaction, values, True))
    if np.isnan(diffusion):
        diffusion = np.inf
    if np.isnan(reaction):
        reaction = -np.inf
    return diffusion, reaction


def reference_grad_and_curvature(ps, values):
    """The gradient, the weighted stiffness's element weights and the positive
    reaction curvature: what the plan gives the descent; and
    per node, the sum of the magnitudes of the diffusion terms added there."""
    grid, p = ps.grid, ps.diffusion.p
    grads = reference_gradients(grid, values)
    norms = np.linalg.norm(grads, axis=1)
    weight_norms = np.maximum(norms, 1e-10) if p < 2 else norms
    weight = ps.diffusion.value(norms**p) * weight_norms ** (p - 2.0)
    scaled_volume = grid.element_volume * weight
    flux = scaled_volume[:, None] * grads
    out = reference_scatter(grid, np.einsum("ed,eld->el", flux, grid.element_grad_coeffs))
    out -= grid.node_mass * reference_reaction(ps.reaction, values, False)
    if ps.is_dirichlet:
        out[grid.boundary_nodes] = 0.0
    stiffness = grid.element_volume * (ps.diffusion.value(norms**p) * np.maximum(norms, 1e-6) ** (p - 2.0))
    slope = reference_derivative(ps.reaction, np.maximum(np.abs(values), 1e-13))
    # each element term is the sum over the element's other nodes j of
    # scale * (grad phi_i . grad phi_j) * (u_j - u_i) (local stiffness rows sum to 0)
    local = np.einsum("eld,emd->elm", grid.element_grad_coeffs, grid.element_grad_coeffs)
    nodal = values[grid.elements]
    pairs = scaled_volume[:, None, None] * local * (nodal[:, None, :] - nodal[:, :, None])
    magnitude = reference_scatter(grid, np.abs(pairs).sum(axis=2))
    return (out, stiffness, grid.node_mass * np.maximum(-slope, 0.0)), magnitude


def permuted_elements(grid):
    order = np.random.default_rng(2).permutation(grid.n_elements)
    tables = {"elements": grid.elements[order], "element_volume": grid.element_volume[order],
              "element_grad_coeffs": grid.element_grad_coeffs[order]}
    for arr in tables.values():
        arr.setflags(write=False)
    return dataclasses.replace(grid, **tables)


GRIDS = {
    "interval": build_interval_grid(40, -0.5, 1.0),
    "rectangle": build_rectangle_grid(7, 5, (0.0, 1.0, 0.0, 2.0)),
    "rectangle-20x12": build_rectangle_grid(20, 12, (0.0, 1.0, 0.0, 0.6)),
    # the generic path: the elements of a builder mesh in another order
    "rectangle-permuted": permuted_elements(build_rectangle_grid(7, 5, (0.0, 1.0, 0.0, 2.0))),
    "interval-permuted": permuted_elements(build_interval_grid(40, -0.5, 1.0)),
}
DIFFUSIONS = [
    DiffusionSpec("constant", p=1.5),
    DiffusionSpec("constant", p=2.0),
    DiffusionSpec("constant", p=3.0),
    DiffusionSpec("power_shift", p=3.0, r=4.5),
    DiffusionSpec("saturating", p=1.7),
    DiffusionSpec("saturating", p=2.5),
]


def reactions(grid, p, extension):
    a = np.sin(3.0 * grid.nodes[:, 0]) + 0.2
    return [
        ReactionSpec("pure_subhomogeneous", q=1.2, a=a, negative_extension=extension),
        ReactionSpec("two_term", q=1.2, r=1.0, a=a, b=-0.5, negative_extension=extension),
        ReactionSpec("logistic", q=p + 1.0, p=p, a=a, b=2.0, negative_extension=extension),
        ReactionSpec("double_power", q=1.1, r=3.0, negative_extension=extension),
    ]


def fields(ps, rng):
    """A sign-changing random field, one with flat patches and exact zeros, and
    the same with negative zeros (stencil terms may differ in the sign of a zero)."""
    n = ps.grid.n_nodes
    rough = rng.uniform(-1.0, 2.0, n)
    flat = np.where(rng.uniform(size=n) < 0.5, 0.0, np.round(rng.uniform(0.0, 2.0, n)))
    for values in (rough, flat, np.where(flat == 0.0, -0.0, flat)):
        if ps.is_dirichlet:
            values[ps.grid.boundary_nodes] = 0.0
        yield values


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize("diffusion", DIFFUSIONS, ids=lambda d: f"{d.family}-p{d.p}")
@pytest.mark.parametrize("boundary", ["dirichlet_zero", "natural"])
@pytest.mark.parametrize("extension", ["zero", "odd"])
def test_plan_kernels_equal_reference_formulas(grid_name, diffusion, boundary, extension):
    grid = GRIDS[grid_name]
    rng = np.random.default_rng(11)
    for reaction in reactions(grid, diffusion.p, extension):
        ps = ProblemSpec(grid, diffusion, reaction, boundary)
        for values in fields(ps, rng):
            parts = energy_parts(ps, values)
            expected_parts = reference_parts(ps, values)
            parts = (parts.diffusion_part, parts.reaction_part)
            assert [x.hex() for x in parts] == [x.hex() for x in expected_parts]
            assert energy_total(ps, values) == expected_parts[0] - expected_parts[1]
            expected, magnitude = reference_grad_and_curvature(ps, values)
            gradient = energy_grad_values(ps, values)
            weights = ps.plan.stiffness_weights(ps.plan.gather(values))
            curvature = reaction_curvature(ps, values)
            assert same_bits(weights, expected[1]) and same_bits(curvature, expected[2])
            # the flux adds the edge terms, the reference the element terms they
            # sum to: they agree to roundoff in the edge terms, which a 2D
            # element term can cancel exactly (integer fields on square cells)
            bound = 16.0 * np.finfo(float).eps * magnitude
            assert np.all(np.abs(gradient - expected[0]) <= bound)
            assert same_bits(energy_grad_values(ps, values, ps.plan.gather(values)), gradient)


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_assembly_norms_equal_linalg_norm_of_reference_gradients(grid_name):
    grid = GRIDS[grid_name]
    for values in fields(ProblemSpec(grid, DiffusionSpec("constant", p=2.0),
                                     ReactionSpec("double_power", q=1.1, r=3.0), "natural"),
                         np.random.default_rng(5)):
        norms = grid.assembly.norms(grid.assembly.gradients(values))
        assert same_bits(norms, np.linalg.norm(reference_gradients(grid, values), axis=1))
