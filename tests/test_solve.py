import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from plaplab.energy import residual_norm
from plaplab.grid import ScalarField, build_interval_grid, build_rectangle_grid
from plaplab.model import DiffusionSpec, ProblemSpec, ReactionSpec
from plaplab.solve import (
    SolveOptions,
    _descent,
    _Rayleigh,
    chain_pivots,
    chain_solve,
    first_eigenvalue,
    minimize,
    multi_start,
)


def double_power_problem(n=64):
    g = build_interval_grid(n, 0.0, 1.0)
    return ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("double_power", q=1.5, r=3.0),
        "natural",
    )


def test_double_power_converges_to_one():
    ps = double_power_problem()
    report = minimize(ps, ScalarField.constant(ps.grid, 0.5), SolveOptions())
    assert report.converged
    assert report.residual < 1e-9
    assert np.abs(report.solution.values - 1.0).max() < 1e-6


def test_zero_reaction_dirichlet_goes_to_zero():
    g = build_interval_grid(32, 0.0, 1.0)
    ps = ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("pure_subhomogeneous", q=1.5, a=0.0),
        "dirichlet_zero",
    )
    rng = np.random.default_rng(1)
    init = rng.uniform(0, 2, g.n_nodes)
    init[g.boundary_nodes] = 0.0
    report = minimize(ps, ScalarField(g, init), SolveOptions())
    assert report.converged
    assert np.abs(report.solution.values).max() < 1e-7


def test_unbounded_below_detected():
    g = build_interval_grid(64, 0.0, 1.0)
    ps = ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("pure_subhomogeneous", q=1.5, a=1.0),
        "natural",
    )
    report = minimize(ps, ScalarField.constant(g, 0.7), SolveOptions())
    assert report.status == "not_bounded_below"
    assert not report.converged


def test_minimize_requires_negative_extension():
    g = build_interval_grid(16, 0.0, 1.0)
    ps = ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("pure_subhomogeneous", q=1.5, a=1.0, negative_extension="none"),
        "dirichlet_zero",
    )
    with pytest.raises(ValueError):
        minimize(ps, ScalarField.constant(g, 0.0), SolveOptions())


def test_critical_point_stays_at_trivial_rest():
    g = build_interval_grid(32, 0.0, 1.0)
    ps = ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("pure_subhomogeneous", q=1.5, a=0.6),
        "dirichlet_zero",
    )
    report = minimize(ps, ScalarField.constant(g, 0.0), SolveOptions())
    assert report.converged
    assert report.iterations == 0
    assert np.abs(report.solution.values).max() == 0.0


def test_critical_point_double_power_immediate():
    ps = double_power_problem()
    report = minimize(ps, ScalarField.constant(ps.grid, 1.0), SolveOptions())
    assert report.converged
    assert report.iterations == 0


def test_logistic_constant_solution():
    g = build_interval_grid(64, 0.0, 1.0)
    ps = ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("logistic", q=4.0, p=2.0, a=4.0, b=1.0),
        "natural",
    )
    report = minimize(ps, ScalarField.constant(g, 1.5), SolveOptions())
    assert report.converged
    assert np.abs(report.solution.values - 2.0).max() < 1e-7


def test_energies_monotone_and_residual_reproducible():
    g = build_interval_grid(64, 0.0, 1.0)
    a = np.sin(2 * np.pi * g.nodes[:, 0]) + 0.3
    ps = ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("pure_subhomogeneous", q=1.5, a=a),
        "dirichlet_zero",
    )
    rng = np.random.default_rng(3)
    init = rng.uniform(0, 2, g.n_nodes)
    init[g.boundary_nodes] = 0.0
    report = minimize(ps, ScalarField(g, init), SolveOptions())
    assert report.converged
    increments = np.diff(report.energy_history)
    slack = 16 * np.finfo(float).eps * (1.0 + np.abs(report.energy_history[:-1]))
    assert np.all(increments <= slack)
    # independent residual recomputation matches the report
    assert abs(residual_norm(ps, report.solution) - report.residual) <= 1e-12


def test_converged_respects_tolerance():
    ps = double_power_problem()
    opts = SolveOptions(residual_tolerance=1e-11)
    report = minimize(ps, ScalarField.constant(ps.grid, 0.5), opts)
    assert report.converged
    assert report.residual <= 1e-11


def test_max_iterations_reported():
    g = build_interval_grid(64, 0.0, 1.0)
    a = np.sin(2 * np.pi * g.nodes[:, 0]) + 0.3
    ps = ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("pure_subhomogeneous", q=1.5, a=a),
        "dirichlet_zero",
    )
    report = minimize(ps, ScalarField.constant(g, 0.0).with_values(
        np.zeros(g.n_nodes) + 0.5 * np.sin(np.pi * g.nodes[:, 0])
    ), SolveOptions(max_iterations=3))
    assert report.status == "max_iterations"
    assert not report.converged
    assert report.iterations == 3


def test_multi_start_deterministic():
    ps = double_power_problem(n=32)
    opts = SolveOptions(random_seed=7)
    first = multi_start(ps, 4, opts)
    second = multi_start(ps, 4, opts)
    assert first.n_clusters == second.n_clusters
    for a, b in zip(first.reports, second.reports):
        assert a.iterations == b.iterations
        assert np.array_equal(a.solution.values, b.solution.values)
        assert a.energy.total == b.energy.total


def test_multi_start_double_power_single_cluster():
    ps = double_power_problem(n=32)
    result = multi_start(ps, 8, SolveOptions(random_seed=11))
    assert result.n_clusters == 1
    rep = result.representative_report(result.clusters[0])
    assert np.abs(rep.solution.values - 1.0).max() < 1e-6
    members = sorted(m for c in result.clusters for m in c.members)
    assert members == list(range(8))


def test_multi_start_zero_reaction_single_trivial_cluster():
    g = build_interval_grid(32, 0.0, 1.0)
    ps = ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("pure_subhomogeneous", q=1.5, a=0.0),
        "dirichlet_zero",
    )
    result = multi_start(ps, 4, SolveOptions(random_seed=5))
    assert result.n_clusters == 1
    rep = result.representative_report(result.clusters[0])
    assert np.abs(rep.solution.values).max() < 1e-6


def test_multi_start_requires_two_starts():
    ps = double_power_problem(n=32)
    with pytest.raises(ValueError):
        multi_start(ps, 1, SolveOptions())


def test_2d_double_power_converges_to_one():
    g = build_rectangle_grid(8, 8, (0, 1, 0, 1))
    ps = ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("double_power", q=1.5, r=3.0),
        "natural",
    )
    report = minimize(ps, ScalarField.constant(g, 0.5), SolveOptions())
    assert report.converged
    assert np.abs(report.solution.values - 1.0).max() < 1e-6


def test_2d_dirichlet_sign_changing_single_cluster():
    g = build_rectangle_grid(12, 12, (0, 1, 0, 1))
    a = np.sin(2 * np.pi * g.nodes[:, 0]) + 0.3
    ps = ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("pure_subhomogeneous", q=1.5, a=a),
        "dirichlet_zero",
    )
    result = multi_start(ps, 4, SolveOptions(random_seed=2))
    assert result.n_clusters == 1
    rep = result.representative_report(result.clusters[0])
    assert rep.converged
    assert rep.solution.values.min() >= 0.0


def tridiagonal_oracle(n, length=1.0):
    """Smallest eigenvalue of the standard second-difference matrix with
    lumped mass, the exact discrete optimum of the p=2 quotient."""
    h = length / n
    main = np.full(n - 1, 2.0 / h**2)
    off = np.full(n - 2, -1.0 / h**2)
    vals = scipy.linalg.eigh_tridiagonal(main, off, select="i", select_range=(0, 0))[0]
    return float(vals[0])


def test_eigenvalue_1d_matches_oracle():
    g = build_interval_grid(200, 0.0, 1.0)
    report = first_eigenvalue(g, 2.0, SolveOptions(random_seed=3))
    oracle = tridiagonal_oracle(200)
    assert report.converged
    assert abs(report.lambda1 - oracle) <= 5e-3
    assert report.lambda1 >= oracle - 1e-9  # quotient minimum cannot undercut
    assert abs(oracle - np.pi**2) <= 5e-3


def test_eigenfunction_normalized_and_nonnegative():
    g = build_interval_grid(100, 0.0, 1.0)
    report = first_eigenvalue(g, 2.0, SolveOptions(random_seed=3))
    u = report.eigenfunction
    norm = float(g.node_mass @ np.abs(u.values) ** 2)
    assert abs(norm - 1.0) <= 1e-10
    assert u.values.min() >= -1e-8
    np.testing.assert_array_equal(u.values[g.boundary_nodes], 0.0)
    assert len(report.rayleigh_history) == report.iterations + 1


def test_eigenvalue_scaling_law():
    opts = SolveOptions(random_seed=3)
    lam_1 = first_eigenvalue(build_interval_grid(80, 0.0, 1.0), 2.0, opts).lambda1
    lam_2 = first_eigenvalue(build_interval_grid(80, 0.0, 2.0), 2.0, opts).lambda1
    assert abs(lam_2 - lam_1 / 4.0) <= 1e-6 * lam_1


def test_eigenvalue_2d_tensor_oracle():
    g = build_rectangle_grid(24, 24, (0, 1, 0, 1))
    report = first_eigenvalue(g, 2.0, SolveOptions(random_seed=3))
    oracle = 2.0 * tridiagonal_oracle(24)
    assert report.converged
    assert abs(report.lambda1 - oracle) <= 1e-6 * oracle
    assert abs(report.lambda1 - 2 * np.pi**2) <= 1e-1


def test_eigenvalue_unit_square_64():
    g = build_rectangle_grid(64, 64, (0, 1, 0, 1))
    report = first_eigenvalue(g, 2.0, SolveOptions(random_seed=3))
    assert report.converged
    assert abs(report.lambda1 - 2.0 * tridiagonal_oracle(64)) <= 1e-6 * report.lambda1
    assert abs(report.lambda1 - 2 * np.pi**2) <= 1e-1


def lindqvist_eigenvalue(p):
    """First Dirichlet eigenvalue of the 1D p-Laplacian on (0, 1) (Lindqvist, 1995)."""
    return (p - 1.0) * (2.0 * np.pi / (p * np.sin(np.pi / p))) ** p


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_eigenvalue_p_not_two_matches_closed_form_at_second_order(p):
    errors = {}
    for n in (50, 100):
        report = first_eigenvalue(build_interval_grid(n, 0.0, 1.0), p, SolveOptions(random_seed=3))
        assert report.converged
        errors[n] = (report.lambda1 - lindqvist_eigenvalue(p)) / lindqvist_eigenvalue(p)
        assert abs(errors[n]) <= 10.0 / n**2
    assert 3.5 <= errors[50] / errors[100] <= 4.5


def test_eigenvalue_rejects_bad_p():
    g = build_interval_grid(50, 0.0, 1.0)
    with pytest.raises(ValueError):
        first_eigenvalue(g, 1.0, SolveOptions())


def test_logistic_threshold_against_eigenvalue():
    # nontrivial minimizer appears exactly when the linear coefficient
    # exceeds the first eigenvalue
    n = 64
    g = build_interval_grid(n, 0.0, 1.0)
    lam1 = first_eigenvalue(g, 2.0, SolveOptions(random_seed=3)).lambda1
    for a0, expect_nontrivial in ((lam1 + 2.0, True), (lam1 - 2.0, False)):
        ps = ProblemSpec(
            g,
            DiffusionSpec("constant", p=2.0),
            ReactionSpec("logistic", q=4.0, p=2.0, a=a0, b=1.0),
            "dirichlet_zero",
        )
        result = multi_start(ps, 4, SolveOptions(random_seed=9))
        assert result.n_clusters == 1
        rep = result.representative_report(result.clusters[0])
        amplitude = np.abs(rep.solution.values).max()
        if expect_nontrivial:
            assert amplitude > 1e-2
            assert rep.energy.total < -1e-8
        else:
            assert amplitude < 1e-6


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(residual_tolerance=0.0)
    with pytest.raises(ValueError):
        SolveOptions(initial_step=-1.0)
    with pytest.raises(ValueError):
        SolveOptions(residual_tolerance=float("nan"))
    with pytest.raises(ValueError):
        SolveOptions(max_iterations=-1)
    with pytest.raises(ValueError):
        SolveOptions(random_seed=-1)


def test_descent_stalls_once_the_shrunk_step_is_below_the_stall_step():
    class Rejecting:
        """An objective no trial point satisfies."""

        project = False
        free = slice(None)
        stall_step = 1e-6
        trials = 0

        def gradient(self, u):
            return 0.0, np.ones_like(u), self

        def direction(self, g):  # the identity preconditioner
            return g

        def metric(self, s):
            return s

        def value(self, u):
            self.trials += 1
            return math.inf

        def accepted(self, u, value, iteration):
            raise AssertionError("no step can be accepted")

    objective = Rejecting()
    start = np.zeros(4)
    u, residual, iterations, status, history = _descent(objective, start, 10, SolveOptions())
    assert (status, iterations, history, residual) == ("stalled", 0, [0.0], 1.0)
    assert u is start
    # unit first trial, direction norm 2: trials 1, 1/2, ..., 2^-20 are
    # evaluated, and 2 * 2^-21 falls below the stall step
    assert objective.trials == 21


# ---- the preconditioned Rayleigh descent -----------------------------------


def rayleigh_preconditioner(grid, p, iterations, seed=3):
    """The gradient and the weighted stiffness at a real iterate of the eigen descent."""
    u = first_eigenvalue(grid, p, SolveOptions(random_seed=seed, max_iterations=iterations))
    _, g, stiffness = _Rayleigh(grid, p).gradient(u.eigenfunction.values)
    return g, stiffness


def banded_chain_solve(bands, rhs):
    """scipy's banded LU on the chain system of ``chain_pivots``, inner nodes only."""
    bands = np.asarray(bands)
    upper = np.concatenate([[0.0], -bands[1:-1]])
    lower = np.concatenate([-bands[1:-1], [0.0]])
    x = scipy.linalg.solve_banded((1, 1), np.array([upper, bands[:-1] + bands[1:], lower]),
                                  np.asarray(rhs)[1:-1])
    return np.concatenate([[0.0], x, [0.0]])


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("iterations", [0, 3, 1000])
def test_chain_solve_matches_banded_lu_on_real_iterates(p, iterations):
    g, stiffness = rayleigh_preconditioner(build_interval_grid(200, 0.0, 1.0), p, iterations)
    bands = stiffness.weights * stiffness.assembly.coeff_sq[0]
    expected = banded_chain_solve(bands, g)
    mine = stiffness.direction(g)
    # early p = 4 iterates have bands spanning seven decades: there the banded
    # LU is off by 8e-11 relative (the sweep by 5e-16, against 50-digit arithmetic)
    assert np.abs(mine - expected).max() <= 1e-9 * np.abs(expected).max()
    # and the product undoes the solve
    np.testing.assert_allclose(stiffness.metric(mine), g, rtol=0, atol=1e-10 * np.abs(g).max())


def test_chain_pivots_stay_positive_on_bands_spanning_nineteen_decades():
    rng = np.random.default_rng(11)
    spread = 10.0 ** rng.uniform(-12.0, 7.0, 8192)
    # a stiff element next to a soft one: a_i - a_i^2 / m_i cancels to exactly 0
    alternating = np.tile([1e7, 1e-12], 4096)
    for bands in (spread, alternating, np.sort(spread), np.sort(spread)[::-1]):
        pivots, ratios = chain_pivots(bands.tolist())
        assert min(pivots) > 0.0 and len(pivots) == len(bands) - 1
        assert all(0.0 < r <= 1.0 for r in ratios)
        x = np.array(chain_solve(bands.tolist(), [0.0] + [1.0] * (len(bands) - 1) + [0.0]))
        assert np.all(np.isfinite(x)) and np.all(x[1:-1] > 0.0)  # K is an M-matrix


def sparse_stiffness(grid, weights):
    """sum_e c_e grad phi_i . grad phi_j assembled with scipy, interior rows and columns."""
    coeffs = grid.element_grad_coeffs
    local = np.einsum("e,eid,ejd->eij", weights, coeffs, coeffs)
    rows = np.repeat(grid.elements, grid.dimension + 1, axis=1).ravel()
    cols = np.tile(grid.elements, grid.dimension + 1).ravel()
    matrix = scipy.sparse.csr_matrix((local.ravel(), (rows, cols)), (grid.n_nodes,) * 2)
    inner = grid.interior_nodes
    return matrix[inner][:, inner]


def permuted(grid, seed=0):
    """The same mesh with its element table shuffled: not the builder's table."""
    order = np.random.default_rng(seed).permutation(grid.n_elements)
    fields = {"elements": grid.elements[order], "element_volume": grid.element_volume[order],
              "element_grad_coeffs": grid.element_grad_coeffs[order]}
    for arr in fields.values():
        arr.setflags(write=False)
    return dataclasses.replace(grid, **fields)


@pytest.mark.parametrize("mesh", ["rectangle", "permuted-rectangle", "permuted-interval"])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_stiffness_cg_matches_a_sparse_direct_solve(mesh, p):
    grid = {
        "rectangle": lambda: build_rectangle_grid(14, 10, (0.0, 1.0, 0.0, 0.7)),
        "permuted-rectangle": lambda: permuted(build_rectangle_grid(14, 10, (0.0, 1.0, 0.0, 0.7))),
        "permuted-interval": lambda: permuted(build_interval_grid(60, 0.0, 1.0)),
    }[mesh]()
    assert (grid.assembly.cells is None) == mesh.startswith("permuted")
    g, stiffness = rayleigh_preconditioner(grid, p, 4)
    expected = np.zeros(grid.n_nodes)
    expected[grid.interior_nodes] = scipy.sparse.linalg.spsolve(
        sparse_stiffness(grid, stiffness.weights), g[grid.interior_nodes]
    )
    mine = stiffness.direction(g, tolerance=1e-13)
    assert np.abs(mine - expected).max() <= 1e-10 * np.abs(expected).max()
    assert np.all(mine[grid.boundary_nodes] == 0.0)


def test_stiffness_cg_stops_at_its_loose_tolerance():
    g, stiffness = rayleigh_preconditioner(build_rectangle_grid(24, 24, (0, 1, 0, 1)), 2.0, 2)
    x = stiffness.direction(g)
    residual = np.linalg.norm(g - stiffness.metric(x))
    assert 1e-3 * np.linalg.norm(g) < residual <= 0.1 * np.linalg.norm(g)
    assert g @ x > 0.0  # a descent direction


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_eigen_n200_converges_to_the_closed_form(p, seed):
    """The checks the benchmark's ``verify`` workload applies to ``eigen``."""
    n = 200
    report = first_eigenvalue(build_interval_grid(n, 0.0, 1.0), p, SolveOptions(random_seed=seed))
    assert report.converged and report.residual <= 1e-9
    assert report.iterations <= 100
    oracle = lindqvist_eigenvalue(p)
    assert abs(report.lambda1 - oracle) <= 10.0 / n**2 * oracle
    if p == 2.0:
        assert abs(report.lambda1 - tridiagonal_oracle(n)) <= 1e-6 * tridiagonal_oracle(n)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_eigen_iterations_stay_bounded_on_a_fine_interval(p):
    report = first_eigenvalue(build_interval_grid(2048, 0.0, 1.0), p,
                              SolveOptions(random_seed=3, max_iterations=100))
    assert report.converged


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_eigen_iterations_stay_bounded_on_a_square(n, p):
    report = first_eigenvalue(build_rectangle_grid(n, n, (0, 1, 0, 1)), p,
                              SolveOptions(random_seed=3, max_iterations=100))
    assert report.converged
