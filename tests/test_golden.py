"""Bitwise regression of the energy kernels and the solvers built on them.

The kernel checks compare the evaluation plan against the direct formulas
(``einsum`` element gradients, ``np.add.at`` scatter, the checked diffusion
methods, each reaction family's g, G and dg/dt and both negative extensions),
written out below as the reference. The solver checks pin status, iteration
count, final energy and a digest of the solution bytes, recorded with those
direct formulas; any change of floating-point operations or their order shows
up here.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from plaplab.config import ScenarioConfig, load_config
from plaplab.energy import energy_grad_and_scaling, energy_grad_values, energy_parts, energy_total
from plaplab.grid import ScalarField, build_interval_grid, build_rectangle_grid
from plaplab.model import DiffusionSpec, ProblemSpec, ReactionSpec
from plaplab.solve import SolveOptions, first_eigenvalue, minimize, random_start

SEED = 5

# scenario: (status, iterations, energy.total.hex(), sha256 of solution bytes)
GOLDEN_SOLVES = {
    "E1": ("converged", 1041, "-0x1.54054ab08f6bep-17",
           "3b1bff422b48bbb71cb306e7cd6526c24159e269cf695cdbfade2c56a5eb2227"),
    "E2": ("converged", 338, "-0x1.3beb11174dad2p-21",
           "fbc5996abc79949b3631cbdb72b97a1c8e39783147a0068ff1729cb76af1b573"),
    "E3": ("converged", 911, "-0x1.512a065b39798p-17",
           "cb8908f32b9254e7f8cd59504494428347f63d4b8d51e3d85adea427e88cee37"),
    "E4": ("converged", 8, "-0x1.5555555555556p-2",
           "8af00ed3bd8b97b2a8145b358520d60a75069647cc4ced2c87dfcaedeed22c71"),
    "E5": ("converged", 466, "-0x1.e0005f8557a94p-10",
           "5da17387c266c43cc72e15f05b7ea9e748c27b8b0cf066bfee78333fc5bfcf64"),
    "E6": ("converged", 6, "-0x1.fffffffffffffp+1",
           "0cc3c42ccc85964aeade2ca741feea863a561c95950835d8eea42be6e35b6015"),
    "E6B": ("converged", 1212, "-0x1.4c962f028c828p-17",
            "5ed5ad40c077e408fb77e95b82f3af5e9d353983e4abc0b8bde2a181405c1d74"),
    "E7": ("converged", 877, "0x1.d88966d1fb1d4p-53",
           "015a1208ac04f3654e8aaafb107b87d75c4e278f35fa7959d1a3f045123c996a"),
    "E1N_POS": ("not_bounded_below", 1, "-0x1.54abf3d076fedp+17",
                "294fa0ae7a3ecc4460f689f04f39b4b9ad55ebf210f9c664c4020214e6345274"),
    "E1N_NEG": ("converged", 1650, "-0x1.cef520a3e6404p-19",
                "6985538633e3b10d8d017f93ae1f592de81f94e34559d5e86b19fc54b88929a6"),
    # an unprojected descent: iterates with negative entries
    "E1-odd": ("converged", 884, "-0x1.54054ab0919e4p-17",
               "aa1f09c5aaa01a35f2ef92a09aaa0c3e9790ec61931757e3701f4210325a4bc4"),
}
# variant: (scenario, config fields, shift of the random start)
SOLVE_VARIANTS = {
    "E1-odd": ("E1", {"negative_extension": "odd"}, -0.5),
}
GOLDEN_DEAD_CORE_2D = ("converged", 198, "-0x1.19a05ceb69f54p-21",
                       "1e1ce772b5718f8d02b78390943971af37e5f7cb45bfa7843aa58d9b8f0e0b93")
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
GOLDEN_RECTANGLE_E1 = ("converged", 163, "-0x1.38af2152c0af4p-22",
                       "e6a1def71a0578ad1c5fa721ec9a6d8db7883e6952c2fd51411c59ba6a92c940")
# (grid, p): (converged, iterations, lambda1.hex(), eigenfunction digest, history digest);
# the interval-50 pins are those of the quotient D(u) / (sum m |u|^p / p) on the plan's
# diffusion kernels, with their p < 2 weight floor
GOLDEN_EIGEN = {
    ("interval-50", 3.0): (True, 433, "0x1.c454081702f3ap+4",
                           "3aca872a7ecc03aff14a0cd79f13a2cc86215b186f062ecf8c37981459c5caf6",
                           "c3e774de23e1090a07a17110f37b55b7ef437d955ee3091ac9c973c585e06f72"),
    ("interval-50", 1.5): (True, 3088, "0x1.545069ac77746p+2",
                           "2ad4e0fa2923974920613112d698b75cf6c7cb3c8f3262d0ad8dd9b614fc52d5",
                           "bce28983c4f3b860c82371a08ffad0c8c06e59bcff65bc10b0b0ed621da8e73f"),
    ("rectangle-24", 2.0): (True, 191, "0x1.3b606ad829456p+4",
                            "e0ae41931019c7c68b621dc57365308a16edf6516c4778676b1e7dbda8a8e0d4",
                            "9789ea92ab04fe80261dbd78a26c0559c49e6b7062da624b44ce4e08e02c2700"),
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


def reference_grad_and_scaling(ps, values):
    grid, p = ps.grid, ps.diffusion.p
    grads = reference_gradients(grid, values)
    norms = np.linalg.norm(grads, axis=1)
    weight_norms = np.maximum(norms, 1e-10) if p < 2 else norms
    weight = ps.diffusion.value(norms**p) * weight_norms ** (p - 2.0)
    scaled_volume = grid.element_volume * weight
    flux = scaled_volume[:, None] * grads
    out = reference_scatter(grid, np.einsum("ed,eld->el", flux, grid.element_grad_coeffs))
    coeff_sq = np.einsum("eld,eld->el", grid.element_grad_coeffs, grid.element_grad_coeffs)
    diag = reference_scatter(grid, scaled_volume[:, None] * coeff_sq)
    out -= grid.node_mass * reference_reaction(ps.reaction, values, False)
    slope = reference_derivative(ps.reaction, np.maximum(np.abs(values), 1e-13))
    diag += grid.node_mass * np.maximum(-slope, 0.0)
    if ps.is_dirichlet:
        out[grid.boundary_nodes] = 0.0
    return out, np.maximum(diag, 1e-30)


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
            assert [x.hex() for x in parts] == [x.hex() for x in expected_parts]
            assert energy_total(ps, values) == expected_parts[0] - expected_parts[1]
            grad, scaling = energy_grad_and_scaling(ps, values)
            expected_grad, expected_scaling = reference_grad_and_scaling(ps, values)
            assert same_bits(grad, expected_grad)
            assert same_bits(scaling, expected_scaling)
            assert same_bits(energy_grad_values(ps, values), expected_grad)


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_assembly_norms_equal_linalg_norm_of_reference_gradients(grid_name):
    grid = GRIDS[grid_name]
    for values in fields(ProblemSpec(grid, DiffusionSpec("constant", p=2.0),
                                     ReactionSpec("double_power", q=1.1, r=3.0), "natural"),
                         np.random.default_rng(5)):
        norms = grid.assembly.norms(grid.assembly.gradients(values))
        assert same_bits(norms, np.linalg.norm(reference_gradients(grid, values), axis=1))
