import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import plaplab.solve
from plaplab.classify import classify_cone
from plaplab.cli import _initial_field
from plaplab.config import BUILTIN_SCENARIOS, ScenarioConfig, load_config
from plaplab.energy import (
    DiffusionPlan,
    check_admissible,
    energy_grad_values,
    reaction_curvature,
    residual_norm,
)
from plaplab.errors import BoundaryViolationError
from plaplab.grid import (
    ElementAssembly,
    ScalarField,
    build_interval_grid,
    build_rectangle_grid,
    sine_solver,
)
from plaplab.model import DiffusionSpec, ProblemSpec, ReactionSpec
from plaplab.solve import (
    NATURAL_MASS_SHIFT,
    PICARD_STEPS,
    SolveOptions,
    WeightedStiffness,
    _descent,
    _Energy,
    _Rayleigh,
    chain_solve,
    first_eigenvalue,
    lumped_l2_distance,
    minimize,
    multi_start,
    random_start,
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


@pytest.mark.parametrize(
    "grid, p",
    [
        (lambda: build_interval_grid(64, 0.0, 1.0), 2.0),
        (lambda: build_interval_grid(2048, 0.0, 1.0), 2.0),
        (lambda: build_rectangle_grid(32, 32, (0.0, 1.0, 0.0, 1.0)), 2.0),
        (lambda: build_rectangle_grid(32, 32, (0.0, 1.0, 0.0, 1.0)), 3.0),
    ],
    ids=["1d-n64", "1d-n2048", "2d-32-p2", "2d-32-p3"],
)
def test_unbounded_below_detected(grid, p):
    # a positive-mean coefficient on a natural problem: the energy falls without
    # bound along the constants, which the divergence rules must diagnose
    g = grid()
    ps = ProblemSpec(
        g,
        DiffusionSpec("constant", p=p),
        ReactionSpec("pure_subhomogeneous", q=1.5, a=1.0),
        "natural",
    )
    report = minimize(ps, random_start(ps, 1), SolveOptions())
    assert report.status == "not_bounded_below"
    assert not report.converged
    assert report.iterations <= 40  # 1 from a refined p = 2 start, 29 at p = 3
    # the residual is that of the returned solution, not of the iterate before it
    assert report.residual == residual_norm(ps, report.solution)
    assert len(report.energy_history) == report.iterations + 1


def test_refinement_keeps_no_field_whose_energy_overflows():
    """From the constant 1e190 the ray scan's best scale overflows the reaction
    part (energy -inf): no such field is kept, and the descent diagnoses."""
    ps = ProblemSpec(build_interval_grid(64, 0.0, 1.0), DiffusionSpec("constant", p=2.0),
                     ReactionSpec("pure_subhomogeneous", q=1.5, a=1.0), "natural")
    report = minimize(ps, ScalarField.constant(ps.grid, 1e190))
    assert report.status == "not_bounded_below" and math.isfinite(report.energy.total)


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
    init = ScalarField(g, 0.5 * np.sin(np.pi * g.nodes[:, 0]))
    report = minimize(ps, init, SolveOptions(max_iterations=3))
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
        reach = None
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

        def accepted(self, u, value):
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
    """The gradient, the weighted stiffness and its element weights at a real
    iterate of the eigen descent."""
    u = first_eigenvalue(grid, p, SolveOptions(random_seed=seed, max_iterations=iterations))
    objective = _Rayleigh(grid, p)
    _, g, stiffness = objective.gradient(u.eigenfunction.values)
    weights = objective.plan.stiffness_weights(objective.plan.gather(u.eigenfunction.values))
    return g, stiffness, weights


def chain_bands(grid, weights):
    """The interval's chain bands c_e |grad phi|^2, from the element coefficients."""
    slope = grid.element_grad_coeffs[:, 0, 0]
    return weights * (slope * slope)


def banded_chain_solve(bands, rhs):
    """scipy's banded LU on the chain system of ``chain_solve``, inner nodes only."""
    bands = np.asarray(bands)
    upper = np.concatenate([[0.0], -bands[1:-1]])
    lower = np.concatenate([-bands[1:-1], [0.0]])
    x = scipy.linalg.solve_banded((1, 1), np.array([upper, bands[:-1] + bands[1:], lower]),
                                  np.asarray(rhs)[1:-1])
    return np.concatenate([[0.0], x, [0.0]])


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("iterations", [0, 3, 1000])
def test_chain_solve_matches_banded_lu_on_real_iterates(p, iterations):
    grid = build_interval_grid(200, 0.0, 1.0)
    g, stiffness, weights = rayleigh_preconditioner(grid, p, iterations)
    bands = chain_bands(grid, weights)
    expected = banded_chain_solve(bands, g)
    mine = stiffness.direction(g)
    # early p = 4 iterates have bands spanning seven decades: there the banded
    # LU is off by 8e-11 relative (the sweep by 5e-16, against 50-digit arithmetic)
    assert np.abs(mine - expected).max() <= 1e-9 * np.abs(expected).max()
    # and the product undoes the solve
    np.testing.assert_allclose(stiffness.metric(mine), g, rtol=0, atol=1e-10 * np.abs(g).max())


def traced_chain_solve(bands, rhs):
    """``chain_solve``'s solution on a held chain with the pivots m_i and
    multipliers r_i it forms: each band is a float that records its division
    r_i = a_i / m_i."""
    pivots, ratios = [], []

    class Band(float):
        def __truediv__(self, m):
            r = float(self) / m
            pivots.append(m)
            ratios.append(r)
            return r

    x = chain_solve([Band(a) for a in bands], rhs)
    return x, pivots, ratios


def test_chain_pivots_stay_positive_on_bands_spanning_nineteen_decades():
    rng = np.random.default_rng(11)
    spread = 10.0 ** rng.uniform(-12.0, 7.0, 8192)
    # a stiff element next to a soft one: a_i - a_i^2 / m_i cancels to exactly 0
    alternating = np.tile([1e7, 1e-12], 4096)
    for bands in (spread, alternating, np.sort(spread), np.sort(spread)[::-1]):
        rhs = [0.0] + [1.0] * (len(bands) - 1) + [0.0]
        x, pivots, ratios = traced_chain_solve(bands.tolist(), rhs)
        assert min(pivots) > 0.0 and len(pivots) == len(bands) - 1
        assert all(0.0 < r <= 1.0 for r in ratios)
        assert x == chain_solve(bands.tolist(), rhs)  # the recording changes no bit
        x = np.array(x)
        assert np.all(np.isfinite(x)) and np.all(x[1:-1] > 0.0)  # K is an M-matrix


def three_loop_sweep(bands, rhs, shift=None, natural=False):
    """The sweep in three loops: the pivots m_i = a_i + s_i + d_i and multipliers
    r_i = a_i / m_i, with s_(i+1) = a_i (s_i + d_i) / m_i; then the forward and
    the backward substitution. ``chain_solve`` fuses the first two."""
    a, s = (bands + [0.0], 0.0) if natural else (bands[1:], bands[0])
    d = [0.0] * len(a) if shift is None else shift if natural else shift[1:-1]
    pivots, ratios = [], []
    for a_i, d_i in zip(a, d):
        s += d_i
        m = a_i + s
        r = a_i / m
        pivots.append(m)
        ratios.append(r)
        s *= r
    scaled, carry = [], 0.0
    for g, m, r in zip(rhs if natural else rhs[1:-1], pivots, ratios):
        y = g + carry
        scaled.append(y / m)
        carry = r * y
    x = [0.0]
    for q, r in zip(reversed(scaled), reversed(ratios)):
        x.append(q + r * x[-1])
    return x[:0:-1] if natural else [0.0, *reversed(x)]


@pytest.mark.parametrize("p", [1.5, 4.0])
def test_chain_solve_without_shift_is_the_unshifted_sweep_bitwise(p):
    grid = build_interval_grid(200, 0.0, 1.0)
    g, _, weights = rayleigh_preconditioner(grid, p, 3)
    bands = chain_bands(grid, weights).tolist()
    expected = three_loop_sweep(bands, g.tolist())
    assert chain_solve(bands, g.tolist()) == expected
    assert chain_solve(bands, g.tolist(), [0.0] * len(g)) == expected


def chain_matrix(bands, shift, natural):
    """The chain system of ``chain_solve`` as (row nodes, banded lower/diagonal/upper)."""
    bands, shift = np.asarray(bands), np.asarray(shift)
    a = np.concatenate([[0.0], bands, [0.0]])
    diagonal = a[:-1] + a[1:] + shift
    rows = np.arange(len(shift)) if natural else np.arange(1, len(bands))
    off = -a[rows[1:]]
    return rows, np.array([np.concatenate([[0.0], off]), diagonal[rows], np.concatenate([off, [0.0]])])


def exact_chain_solve(bands, rhs, shift, natural):
    """Gaussian elimination on the chain system in exact rational arithmetic."""
    rows, (upper, diagonal, lower) = chain_matrix(bands, shift, natural)
    # the diagonal in exact sums: a float sum would round away a small shift
    a = [Fraction(0), *map(Fraction, bands), Fraction(0)]
    exact_diagonal = [a[i] + a[i + 1] + Fraction(shift[i]) for i in rows]
    m, y = [exact_diagonal[0]], [Fraction(rhs[rows[0]])]
    for k in range(1, len(rows)):
        factor = Fraction(lower[k - 1]) / m[-1]
        m.append(exact_diagonal[k] - factor * Fraction(upper[k]))
        y.append(Fraction(rhs[rows[k]]) - factor * y[-1])
    x = [y[-1] / m[-1]]
    for k in range(len(rows) - 2, -1, -1):
        x.append((y[k] - Fraction(upper[k + 1]) * x[-1]) / m[k])
    out = np.zeros(len(shift))
    out[rows] = [float(v) for v in reversed(x)]
    return out


def wide_chains(n, natural, seed=5):
    """Bands and shifts spanning 1e-8 to 1e11: random, sorted, alternating, and
    the 1e-8 mass shift alone; with a random right-hand side (zero at held ends)."""
    rng = np.random.default_rng(seed)
    random_shift = 10.0 ** rng.uniform(-8.0, 11.0, n + 1) * (rng.uniform(size=n + 1) < 0.5)
    for bands, shift in [
        (10.0 ** rng.uniform(-8.0, 11.0, n), random_shift),
        (np.sort(10.0 ** rng.uniform(-8.0, 11.0, n)), random_shift),
        (np.tile([1e11, 1e-8], n // 2), random_shift),
        (10.0 ** rng.uniform(-8.0, 11.0, n), np.full(n + 1, 1e-8)),
    ]:
        rhs = rng.normal(size=n + 1)
        if not natural:
            rhs[[0, -1]] = 0.0
        yield bands, shift, rhs


@pytest.mark.parametrize("natural", [False, True], ids=["held", "free"])
def test_shifted_chain_solve_is_exact_to_roundoff_on_bands_spanning_nineteen_decades(natural):
    for bands, shift, rhs in wide_chains(60, natural):
        mine = np.array(chain_solve(bands.tolist(), rhs.tolist(), shift.tolist(), natural))
        exact = exact_chain_solve(bands, rhs, shift, natural)
        rows = slice(None) if natural else slice(1, -1)
        # componentwise: no pivot cancels, so every entry keeps its relative accuracy
        assert np.all(np.abs(mine - exact)[rows] <= 1e-12 * np.abs(exact)[rows])
        if not natural:
            assert mine[0] == mine[-1] == 0.0


@pytest.mark.parametrize("natural", [False, True], ids=["held", "free"])
def test_chain_solve_is_the_three_loop_sweep_bitwise_on_bands_spanning_nineteen_decades(natural):
    for n in (60, 1000):
        for bands, shift, rhs in wide_chains(n, natural):
            bands, shift, rhs = bands.tolist(), shift.tolist(), rhs.tolist()
            expected = three_loop_sweep(bands, rhs, shift, natural)
            assert chain_solve(bands, rhs, shift, natural) == expected
            if not natural:
                assert chain_solve(bands, rhs) == three_loop_sweep(bands, rhs)


@pytest.mark.parametrize("natural", [False, True], ids=["held", "free"])
def test_shifted_chain_solve_matches_banded_lu(natural):
    """Against LAPACK where its banded LU is accurate: bands from 1e-8 to 1e11
    that vary monotonically. (On random or alternating spans, or with shifts
    far below the bands, as the 1e-8 mass shift, the LU can lose every digit
    or find the matrix singular, while the sweep stays at roundoff: the exact
    test above.)"""
    rng = np.random.default_rng(7)
    n = 400
    for bands in (np.geomspace(1e-8, 1e11, n), np.geomspace(1e11, 1e-8, n)):
        for shift in (10.0 ** rng.uniform(-2.0, 6.0, n + 1), np.zeros(n + 1)):
            if natural and not shift.any():
                continue  # a free chain needs a shift
            rhs = rng.normal(size=n + 1)
            if not natural:
                rhs[[0, -1]] = 0.0
            rows, banded = chain_matrix(bands, shift, natural)
            expected = np.zeros(n + 1)
            expected[rows] = scipy.linalg.solve_banded((1, 1), banded, rhs[rows])
            mine = np.array(chain_solve(bands.tolist(), rhs.tolist(), shift.tolist(), natural))
            assert np.abs(mine - expected).max() <= 1e-9 * np.abs(expected).max()


def sparse_stiffness(grid, weights, nodes=None):
    """sum_e c_e grad phi_i . grad phi_j assembled with scipy, on the rows and
    columns of ``nodes`` (default: the interior nodes)."""
    coeffs = grid.element_grad_coeffs
    local = np.einsum("e,eid,ejd->eij", weights, coeffs, coeffs)
    rows = np.repeat(grid.elements, grid.dimension + 1, axis=1).ravel()
    cols = np.tile(grid.elements, grid.dimension + 1).ravel()
    matrix = scipy.sparse.csr_matrix((local.ravel(), (rows, cols)), (grid.n_nodes,) * 2)
    inner = grid.interior_nodes if nodes is None else nodes
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
    g, stiffness, weights = rayleigh_preconditioner(grid, p, 4)
    expected = np.zeros(grid.n_nodes)
    expected[grid.interior_nodes] = scipy.sparse.linalg.spsolve(
        sparse_stiffness(grid, weights), g[grid.interior_nodes]
    )
    mine = stiffness.direction(g, tolerance=1e-13)
    assert np.abs(mine - expected).max() <= 1e-10 * np.abs(expected).max()
    assert np.all(mine[grid.boundary_nodes] == 0.0)


def test_stiffness_cg_stops_at_its_loose_tolerance():
    """On the Jacobi path (p = 3): at p = 2 the sine solve makes the first step exact."""
    g, stiffness, _ = rayleigh_preconditioner(build_rectangle_grid(24, 24, (0, 1, 0, 1)), 3.0, 2)
    assert stiffness.sines is None
    x = stiffness.direction(g)
    residual = np.linalg.norm(g - stiffness.metric(x))
    assert 1e-3 * np.linalg.norm(g) < residual <= 0.1 * np.linalg.norm(g)
    assert g @ x > 0.0  # a descent direction


BUILDER_MESHES = {
    "interval-128": lambda: build_interval_grid(128, 0.0, 1.0),
    "square-32": lambda: build_rectangle_grid(32, 32, (0.0, 1.0, 0.0, 1.0)),
    "rectangle-20x12": lambda: build_rectangle_grid(20, 12, (0.0, 1.0, 0.0, 0.6)),
    "rectangle-7x5": lambda: build_rectangle_grid(7, 5, (0.0, 1.0, 0.0, 1.0)),
}


def stiffness_on(grid, natural, seed=0):
    """A weighted stiffness with element weights spanning 1e-8...1e8 and a nodal
    shift, and its element weights."""
    rng = np.random.default_rng(seed)
    weights = 10.0 ** rng.uniform(-8.0, 8.0, grid.n_elements)
    shift = rng.uniform(0.0, 1.0, grid.n_nodes)
    held = np.empty(0, dtype=int) if natural else grid.boundary_nodes
    bands = grid.assembly.edge_bands(weights)
    return WeightedStiffness(grid.assembly, bands, held, shift), weights


@pytest.mark.parametrize("natural", [False, True], ids=["dirichlet", "natural"])
@pytest.mark.parametrize("mesh", list(BUILDER_MESHES))
def test_edge_bands_apply_the_element_scatter(mesh, natural):
    def close(mine, theirs):
        assert np.abs(mine - theirs).max() <= 1e-13 * np.abs(theirs).max()

    grid = BUILDER_MESHES[mesh]()
    assembly = grid.assembly
    stiffness, weights = stiffness_on(grid, natural)
    shift, held = stiffness.shift, stiffness.held
    v = np.random.default_rng(1).normal(size=grid.n_nodes)
    matrix = sparse_stiffness(grid, weights, np.arange(grid.n_nodes))
    product = matrix @ v
    close(assembly.band_product(stiffness.bands, v), product)
    close(assembly.band_diagonal(stiffness.bands), matrix.diagonal())
    if grid.dimension == 1:  # the chain sweep's bands, c_e |grad phi|^2, bitwise
        assert np.array_equal(stiffness.bands[0], chain_bands(grid, weights))
    expected = product + shift * v
    expected[held] = 0.0
    close(stiffness.metric(v), expected)


@pytest.mark.parametrize("natural", [False, True], ids=["dirichlet", "natural"])
@pytest.mark.parametrize("mesh", list(BUILDER_MESHES))
def test_builder_mesh_stiffness_skips_the_element_gather_and_scatter(mesh, natural, monkeypatch):
    grid = BUILDER_MESHES[mesh]()
    stiffness, _ = stiffness_on(grid, natural)

    def refuse(*args):
        raise AssertionError("element gather on a builder mesh")

    monkeypatch.setattr(ElementAssembly, "gradients", refuse)
    g = np.random.default_rng(2).normal(size=grid.n_nodes)
    g[stiffness.held] = 0.0
    stiffness.metric(g)
    assert g @ stiffness.direction(g) > 0.0


@pytest.mark.parametrize("natural", [False, True], ids=["dirichlet", "natural"])
@pytest.mark.parametrize("mesh", ["rectangle-8x8", "permuted-rectangle", "interval-32"])
def test_direction_of_a_gradient_zero_off_the_boundary_is_zero(mesh, natural):
    grid = {
        "rectangle-8x8": lambda: build_rectangle_grid(8, 8, (0.0, 1.0, 0.0, 1.0)),
        "permuted-rectangle": lambda: permuted(build_rectangle_grid(8, 8, (0.0, 1.0, 0.0, 1.0))),
        "interval-32": lambda: build_interval_grid(32, 0.0, 1.0),
    }[mesh]()
    stiffness, _ = stiffness_on(grid, natural)
    held_only = np.zeros(grid.n_nodes)
    held_only[stiffness.held] = np.random.default_rng(5).normal(size=len(stiffness.held))
    for g in (np.zeros(grid.n_nodes), held_only):
        x = stiffness.direction(g)
        assert x.shape == (grid.n_nodes,)
        assert np.array_equal(x, np.zeros(grid.n_nodes))


@pytest.mark.parametrize("natural", [False, True], ids=["dirichlet", "natural"])
@pytest.mark.parametrize("mesh", list(BUILDER_MESHES))
def test_direction_and_products_leave_their_inputs_and_buffers_no_trace(mesh, natural):
    grid = BUILDER_MESHES[mesh]()
    assembly = grid.assembly
    stiffness, _ = stiffness_on(grid, natural)
    rng = np.random.default_rng(3)
    g = rng.normal(size=grid.n_nodes)
    g[stiffness.held] = 0.0
    inputs = [g, *stiffness.bands, stiffness.shift]
    before = [a.tobytes() for a in inputs]
    first, second = stiffness.direction(g), stiffness.direction(g)
    assert first.tobytes() == second.tobytes()
    assert [a.tobytes() for a in inputs] == before
    v = rng.normal(size=grid.n_nodes)
    product, metric = assembly.band_product(stiffness.bands, v), stiffness.metric(v)
    for fill in (0.0, np.nan):
        out, work = np.full(grid.n_nodes, fill), np.full(grid.n_nodes, fill)
        mine = assembly.band_product(stiffness.bands, v, out, work)
        assert mine is out and mine.tobytes() == product.tobytes()
        out, work = np.full(grid.n_nodes, fill), np.full(grid.n_nodes, fill)
        assert stiffness.metric(v, out, work).tobytes() == metric.tobytes()


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


# ---- the preconditioned energy descent -------------------------------------


def coefficient_problem(grid, p=2.0, q=1.5, dead_core=False, boundary="dirichlet_zero"):
    """The benchmark's E1-type coefficient sin(2 pi x) + 0.3, or its dead-core
    coefficient 1 - 200 on the middle fifth (1D) or the middle square (2D)."""
    x = grid.nodes[:, 0]
    if dead_core:
        inside = np.all(np.abs(grid.nodes - 0.5) <= (0.1 if grid.dimension == 1 else 0.15), axis=1)
        a = 1.0 - 200.0 * inside
    else:
        a = np.sin(2 * np.pi * x) + 0.3
    return ProblemSpec(grid, DiffusionSpec("constant", p=p),
                       ReactionSpec("pure_subhomogeneous", q=q, a=a), boundary)


def builtin_solve(name, seed, n=128, **fields):
    config = dataclasses.replace(load_config(name), n=n, **fields)
    ps = config.build_problem()
    if config.init_spec == "random":
        init = random_start(ps, seed)
    else:
        init = ScalarField.constant(ps.grid, float(config.init_spec.split(":", 1)[1]))
    return ps, minimize(ps, init, config.solve_options(seed))


@pytest.mark.parametrize("name", [s for s in BUILTIN_SCENARIOS if s != "E1N_POS"])
def test_every_bounded_builtin_converges_within_fifty_iterations(name):
    for seed in (1, 2, 3):
        _, report = builtin_solve(name, seed)
        assert report.converged and report.iterations <= 50, (seed, report.iterations)


@pytest.mark.parametrize("n", [128, 256, 512, 1024, 2048])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_energy_iterations_stay_bounded_on_a_fine_interval(n, p):
    ps = coefficient_problem(build_interval_grid(n, 0.0, 1.0), p=p)
    report = minimize(ps, random_start(ps, 1), SolveOptions(random_seed=1, max_iterations=100))
    assert report.converged and np.abs(report.solution.values).max() > 1e-3


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("dead_core", [False, True], ids=["e1", "dead_core"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_energy_iterations_stay_bounded_on_a_square(n, dead_core, p):
    ps = coefficient_problem(build_rectangle_grid(n, n, (0, 1, 0, 1)), p=p, dead_core=dead_core)
    report = minimize(ps, random_start(ps, 1), SolveOptions(random_seed=1, max_iterations=50))
    assert report.converged and np.abs(report.solution.values).max() > 1e-4


@pytest.mark.parametrize("n", [128, 512])
def test_singular_p_converges_on_an_interval(n):
    """p = 1.5, q = 1.2: no iteration bound is claimed (27-30 iterations at
    n = 128 and about 100 at 512 from these seeds)."""
    ps = coefficient_problem(build_interval_grid(n, 0.0, 1.0), p=1.5, q=1.2)
    for seed in (1, 2):
        report = minimize(ps, random_start(ps, seed), SolveOptions(random_seed=seed, max_iterations=2000))
        assert report.converged and np.abs(report.solution.values).max() > 1e-4


def test_dead_core_starts_never_stop_at_the_trivial_point():
    """A full preconditioned step from a rough start can put every node on the
    trivial point, which is critical under projection: the step cap keeps 250
    seeded E2 starts off it."""
    assert_one_nontrivial_cluster("E2", 250, sup=3e-4)


def test_negative_mean_natural_starts_reach_the_nontrivial_minimizer():
    assert_one_nontrivial_cluster("E1N_NEG", 60, sup=2e-3)


def assert_one_nontrivial_cluster(name, n_starts, sup):
    """Every seeded start of the builtin converges, within multi_start's cluster
    threshold of the first, to a solution of sup norm above ``sup``."""
    config = load_config(name)
    ps = config.build_problem()
    solutions = []
    for seed in range(n_starts):
        report = minimize(ps, random_start(ps, seed), config.solve_options(seed))
        assert report.converged and np.abs(report.solution.values).max() > sup, seed
        solutions.append(report.solution.values)
    threshold = 1e-5 * np.sqrt(ps.grid.measure)
    assert max(lumped_l2_distance(ps.grid, u, solutions[0]) for u in solutions) <= threshold


def test_dead_core_2d_starts_never_stop_at_the_trivial_point():
    ps = coefficient_problem(build_rectangle_grid(24, 24, (0, 1, 0, 1)), dead_core=True)
    for seed in range(20):
        report = minimize(ps, random_start(ps, seed), SolveOptions(random_seed=seed))
        assert report.converged and np.abs(report.solution.values).max() > 3e-4, seed


MESH_2D = """scenario_id = MESH
grid.dimension = 2
grid.n = {n}
diffusion.family = constant
diffusion.p = 2.0
reaction.family = pure_subhomogeneous
reaction.q = 1.5
reaction.a = {a}
boundary = dirichlet_zero
"""
MESH_2D_COEFFICIENTS = {"e1": "1*sin(2*pi*x) + 0.3", "dead_core": "1 - 200*box(0.4,0.6,0.4,0.6)"}


def mesh_2d_problem(n, coefficient):
    """The benchmark's 2D E1-type or dead-core problem on the unit square."""
    text = MESH_2D.format(n=n, a=MESH_2D_COEFFICIENTS[coefficient])
    return ScenarioConfig.from_text(text).build_problem()


def test_refined_dead_core_2d_starts_end_in_a_dead_core():
    """A refined p = 2 start is kept only below the trivial point's energy 0,
    so the descent from it cannot reach the trivial point."""
    ps = mesh_2d_problem(32, "dead_core")
    for seed in range(20):
        report = minimize(ps, random_start(ps, seed), SolveOptions(random_seed=seed))
        assert report.converged and report.energy.total < 0.0, seed
        assert classify_cone(ps, report.solution).kind == "dead_core", seed


# ElementAssembly.band_product calls (the flux's, P's in the inner solve, and
# the metric's) summed over the 32 x 32 E1-type and dead-core solves from
# seeds 1-3: 2,411 descending from the raw starts, 1,498 from refined ones,
# 222 with the sine-transform inner preconditioner and the clipped Picard step
PRODUCTS_32 = 255


def test_refined_2d_solves_stay_within_their_product_budget(monkeypatch):
    calls, original = [], ElementAssembly.band_product

    def counting(self, bands, values, *args):
        calls.append(len(values))
        return original(self, bands, values, *args)

    monkeypatch.setattr(ElementAssembly, "band_product", counting)
    for coefficient in MESH_2D_COEFFICIENTS:
        ps = mesh_2d_problem(32, coefficient)
        for seed in (1, 2, 3):
            assert minimize(ps, random_start(ps, seed), SolveOptions(random_seed=seed)).converged
    assert len(calls) <= PRODUCTS_32


@pytest.mark.parametrize("coefficient", list(MESH_2D_COEFFICIENTS))
def test_2d_solves_stop_near_their_tightened_solves(coefficient):
    """The 1e-9 stop is within 5e-5 (lumped L2 distance over the sup norm) of the
    same solve tightened to 1e-13 (2.1e-5 and 1.9e-5 at worst, measured)."""
    ps = mesh_2d_problem(32, coefficient)
    for seed in (5, 6, 7):
        start, opts = random_start(ps, seed), SolveOptions(random_seed=seed)
        report = minimize(ps, start, opts)
        tight = minimize(ps, start, dataclasses.replace(opts, residual_tolerance=1e-13))
        assert report.converged and tight.converged, seed
        reference = tight.solution.values
        distance = lumped_l2_distance(ps.grid, report.solution.values, reference)
        assert distance <= 5e-5 * np.abs(reference).max(), seed


def test_64_square_dead_core_solve_does_not_depend_on_blas_threads():
    """The sine solve's matrix products go through BLAS, whose thread count may
    change their summation order; at the benchmark's largest mesh it does not."""
    code = (
        "import hashlib, sys; from plaplab.config import ScenarioConfig; "
        "from plaplab.solve import minimize, random_start; "
        "config = ScenarioConfig.from_text(sys.argv[1]); ps = config.build_problem(); "
        "r = minimize(ps, random_start(ps, 1), config.solve_options(1)); "
        "print(r.status, r.iterations, r.energy.total.hex(), "
        "hashlib.sha256(r.solution.values.tobytes()).hexdigest())"
    )
    text = MESH_2D.format(n=64, a=MESH_2D_COEFFICIENTS["dead_core"])
    src = str(Path(plaplab.solve.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs[threads] = subprocess.run([sys.executable, "-c", code, text], env=env, capture_output=True,
                                       text=True, check=True, timeout=120).stdout.split()
    assert runs["1"][0] == "converged" and runs["1"] == runs["2"]


# ---- the sine-transform solve of K on held rectangles (w = 1, p = 2) --------


SINE_MESHES = {
    "square-16": lambda: build_rectangle_grid(16, 16, (0.0, 1.0, 0.0, 1.0)),
    "rectangle-20x12": lambda: build_rectangle_grid(20, 12, (0.0, 1.0, 0.0, 0.6)),
    "rectangle-24x8": lambda: build_rectangle_grid(24, 8, (0.0, 3.0, 0.0, 1.0)),
    # the others have square cells; here the x band is 1/16 of the y band
    "rectangle-10x20": lambda: build_rectangle_grid(10, 20, (0.0, 1.0, 0.0, 0.5)),
}


def held_stiffness(grid, shift=None):
    plan = DiffusionPlan(grid, DiffusionSpec("constant", p=2.0))
    return WeightedStiffness(plan.assembly, plan.stiffness, grid.boundary_nodes, shift, plan.sines)


@pytest.mark.parametrize("mesh", list(SINE_MESHES))
def test_sine_solve_inverts_the_held_stiffness(mesh):
    grid = SINE_MESHES[mesh]()
    stiffness = held_stiffness(grid)
    solve = sine_solver(stiffness.sines)
    rng = np.random.default_rng(4)
    for _ in range(3):
        v = rng.normal(size=grid.n_nodes)
        v[grid.boundary_nodes] = 0.0
        x = solve(stiffness.metric(v), np.zeros(grid.n_nodes))
        assert np.abs(x - v).max() <= 1e-12 * np.abs(v).max()
        assert np.all(x[grid.boundary_nodes] == 0.0)


@pytest.mark.parametrize("mesh", list(SINE_MESHES))
def test_block_sine_preconditioner_is_symmetric_and_positive(mesh):
    """Shifts from 1e-3 to 1e3 times K's diagonal make both blocks nonempty: the
    stiff nodes take r over P's diagonal, the others the sine solve."""
    grid = SINE_MESHES[mesh]()
    plain = held_stiffness(grid)
    k_diagonal = plain.assembly.band_diagonal(plain.bands)
    rng = np.random.default_rng(6)
    shift = k_diagonal * 10.0 ** rng.uniform(-3.0, 3.0, grid.n_nodes)
    stiffness = held_stiffness(grid, shift)
    stiff = np.flatnonzero(shift > k_diagonal)
    assert 0 < len(np.setdiff1d(stiff, grid.boundary_nodes)) < len(grid.interior_nodes)
    apply = stiffness.preconditioner()

    def inverse(r):
        return apply(r, np.zeros(grid.n_nodes)).copy()

    x, y = rng.normal(size=(2, grid.n_nodes))
    x[grid.boundary_nodes] = y[grid.boundary_nodes] = 0.0
    mx, my = inverse(x), inverse(y)
    assert abs(x @ my - y @ mx) <= 1e-14 * np.linalg.norm(x) * np.linalg.norm(my)
    assert x @ mx > 0.0 and y @ my > 0.0
    np.testing.assert_array_equal(mx[stiff], x[stiff] / (k_diagonal + shift)[stiff])
    assert np.all(mx[grid.boundary_nodes] == 0.0)


@pytest.mark.parametrize("mesh", list(SINE_MESHES))
def test_sine_preconditioned_cg_matches_a_sparse_direct_solve(mesh):
    """P at a dead-core start of sup norm 2e-8, whose reaction curvature makes
    the dead core's nodes stiff."""
    grid = SINE_MESHES[mesh]()
    ps = coefficient_problem(grid, p=2.0, dead_core=True)
    g, stiffness, weights = energy_preconditioner(ps)
    assert stiffness.sines is not None and stiffness.shift.max() > 1e2
    free = ps.free_nodes
    matrix = sparse_stiffness(grid, weights, free) + scipy.sparse.diags(stiffness.shift[free])
    expected = np.zeros(grid.n_nodes)
    expected[free] = scipy.sparse.linalg.spsolve(matrix.tocsc(), g[free])
    mine = stiffness.direction(g, tolerance=1e-13)
    assert np.abs(mine - expected).max() <= 1e-9 * np.abs(expected).max()


def count_sine_solvers(monkeypatch) -> list:
    calls, original = [], plaplab.solve.sine_solver

    def counting(sines):
        calls.append(sines[1].shape)  # the eigenvalue table's
        return original(sines)

    monkeypatch.setattr(plaplab.solve, "sine_solver", counting)
    return calls


BUILDER_RECTANGLES = {
    **SINE_MESHES,
    "square-2": lambda: build_rectangle_grid(2, 2, (0.0, 1.0, 0.0, 1.0)),
    "rectangle-7x5": lambda: build_rectangle_grid(7, 5, (0.0, 1.0, 0.0, 1.0)),
    "rectangle-12x10": lambda: build_rectangle_grid(12, 10, (0.0, 1.0, 0.0, 0.8)),
    "rectangle-9x30": lambda: build_rectangle_grid(9, 30, (-1.0, 2.0, 0.5, 0.9)),
    "square-64": lambda: build_rectangle_grid(64, 64, (0.0, 1.0, 0.0, 1.0)),
}


@pytest.mark.parametrize("mesh", list(BUILDER_RECTANGLES))
def test_every_held_p2_direction_on_a_builder_rectangle_takes_the_sine_solve(mesh, monkeypatch):
    """Energy and eigen descents alike: one sine solver per inner solve, none skipped."""
    grid = BUILDER_RECTANGLES[mesh]()
    ps = coefficient_problem(grid)
    ny, nx = grid.assembly.cells
    sy, table, sx = ps.plan.sines
    assert (sy.shape, table.shape, sx.shape) == ((ny - 1, ny - 1), (ny - 1, nx - 1), (nx - 1, nx - 1))
    solvers, directions = count_sine_solvers(monkeypatch), count_directions(monkeypatch)
    report = minimize(ps, random_start(ps, 1))
    assert report.converged and len(directions) == report.iterations + PICARD_STEPS
    eigen = first_eigenvalue(grid, 2.0)
    assert eigen.converged
    assert len(directions) == report.iterations + PICARD_STEPS + eigen.iterations
    assert solvers == [(ny - 1, nx - 1)] * len(directions)


@pytest.mark.parametrize(
    "variant", ["natural", "p3", "power_shift", "permuted", "interval"],
)
def test_other_problems_keep_the_diagonal_preconditioner(variant, monkeypatch):
    rectangle = build_rectangle_grid(12, 10, (0.0, 1.0, 0.0, 0.8))
    ps = {
        "natural": lambda: coefficient_problem(rectangle, boundary="natural"),
        "p3": lambda: coefficient_problem(rectangle, p=3.0),
        "power_shift": lambda: band_problem(rectangle, DiffusionSpec("power_shift", p=2.0, r=3.0)),
        "permuted": lambda: coefficient_problem(permuted(rectangle)),
        "interval": lambda: coefficient_problem(build_interval_grid(64, 0.0, 1.0)),
    }[variant]()
    solvers, directions = count_sine_solvers(monkeypatch), count_directions(monkeypatch)
    minimize(ps, random_start(ps, 1), SolveOptions(max_iterations=20))
    assert len(directions) > 2 and solvers == []


def e1_with_a_scaled(k: int):
    """E1 at n = 128 with its coefficient a scaled by 2^k, exactly."""
    ps = load_config("E1").build_problem()
    reaction = dataclasses.replace(
        ps.reaction, a=ScalarField(ps.grid, np.ldexp(ps.nodal_coefficients[0], k))
    )
    return dataclasses.replace(ps, reaction=reaction)


@pytest.fixture(scope="module")
def e1_minimizer():
    """E1's minimizer u1 at n = 128, to the residual 1e-14."""
    ps = e1_with_a_scaled(0)
    return minimize(ps, random_start(ps, 0), SolveOptions(residual_tolerance=1e-14)).solution.values


@pytest.mark.parametrize("k", [-2, 0, 2, 4, 8])
def test_e1_with_a_scaled_converges_to_the_scaled_solution(k, e1_minimizer):
    """With p = 2 and q = 1.5, a -> 2^k a maps the minimizer u1 to 2^(2k) u1
    (1.3e-7 to 1.7e-6 measured from seeds 1-3)."""
    ps = e1_with_a_scaled(k)
    report = minimize(ps, random_start(ps, 1), SolveOptions(random_seed=1))
    target = np.ldexp(e1_minimizer, 2 * k)
    assert report.converged
    assert np.abs(report.solution.values - target).max() <= 1e-5 * np.abs(target).max()


def test_step_cap_does_not_hold_a_descent_at_zero():
    """At u = 0 the cap (half the sup norm) would be zero: it is lifted there."""
    ps = ProblemSpec(build_interval_grid(64, 0.0, 1.0), DiffusionSpec("constant", p=2.0),
                     ReactionSpec("two_term", q=1.5, r=1.0, a=1.0, b=1.0), "dirichlet_zero")
    report = minimize(ps, ScalarField.constant(ps.grid, 0.0), SolveOptions())
    assert report.converged and report.iterations <= 50
    assert report.solution.values[ps.free_nodes].min() > 0.0


def test_odd_extension_dead_core_converges_from_a_sign_changing_start():
    """E2 with the odd extension from its n = 48 seed-5 start minus 0.5 ran to
    the 50,000-iteration cap under the Jacobi-scaled descent."""
    ps, projected = builtin_solve("E2", 5, n=48)
    odd = dataclasses.replace(load_config("E2"), n=48, negative_extension="odd").build_problem()
    values = random_start(odd, 5).values - 0.5
    values[odd.grid.boundary_nodes] = 0.0
    report = minimize(odd, ScalarField(odd.grid, values), SolveOptions(random_seed=5))
    assert report.converged and report.iterations <= 1000
    assert report.solution.values.min() < 0.0  # a sign-changing critical point
    assert abs(report.energy.total - projected.energy.total) <= 1e-12 * abs(projected.energy.total)


def energy_preconditioner(ps, seed=3):
    """The gradient, P and P's element weights at a random start of sup norm
    2e-8, where a dead core's reaction curvature is large."""
    values = 1e-8 * random_start(ps, seed).values
    _, g, stiffness = _Energy(ps, values, project=True).gradient(values)
    return g, stiffness, ps.plan.stiffness_weights(ps.plan.gather(values))


@pytest.mark.parametrize("boundary", ["dirichlet_zero", "natural"])
@pytest.mark.parametrize("mesh", ["interval", "rectangle", "permuted-rectangle"])
def test_energy_preconditioner_matches_a_sparse_direct_solve(mesh, boundary):
    grid = {
        "interval": lambda: build_interval_grid(80, 0.0, 1.0),
        "rectangle": lambda: build_rectangle_grid(14, 10, (0.0, 1.0, 0.0, 0.7)),
        "permuted-rectangle": lambda: permuted(build_rectangle_grid(14, 10, (0.0, 1.0, 0.0, 0.7))),
    }[mesh]()
    ps = coefficient_problem(grid, p=3.0, dead_core=True, boundary=boundary)
    g, stiffness, weights = energy_preconditioner(ps)
    assert stiffness.shift.min() >= (0.0 if boundary == "dirichlet_zero" else 1e-8 * grid.node_mass.min())
    assert stiffness.shift.max() > 1e2  # the dead core's reaction curvature
    free = ps.free_nodes
    matrix = sparse_stiffness(grid, weights, free) + scipy.sparse.diags(stiffness.shift[free])
    expected = np.zeros(grid.n_nodes)
    expected[free] = scipy.sparse.linalg.spsolve(matrix.tocsc(), g[free])
    mine = stiffness.direction(g, tolerance=1e-13)
    assert np.abs(mine - expected).max() <= 1e-9 * np.abs(expected).max()
    np.testing.assert_allclose(stiffness.metric(mine), g, rtol=0, atol=1e-9 * np.abs(g).max())


# ---- edge bands built once per problem (w = 1, p = 2) or shared per iteration


BAND_MESHES = {
    "interval": lambda: build_interval_grid(64, 0.0, 1.0),
    "rectangle": lambda: build_rectangle_grid(12, 10, (0.0, 1.0, 0.0, 0.8)),
}


def band_problem(grid, diffusion, boundary="dirichlet_zero"):
    a = 1.0 + 0.5 * np.sin(3.0 * grid.nodes[:, 0])
    return ProblemSpec(grid, diffusion, ReactionSpec("pure_subhomogeneous", q=1.2, a=a), boundary)


def count_edge_bands(monkeypatch) -> list:
    calls, original = [], ElementAssembly.edge_bands

    def counting(self, scale):
        calls.append(len(scale))
        return original(self, scale)

    monkeypatch.setattr(ElementAssembly, "edge_bands", counting)
    return calls


def count_directions(monkeypatch) -> list:
    calls, original = [], WeightedStiffness.direction

    def counting(self, g, *args):
        calls.append(len(g))
        return original(self, g, *args)

    monkeypatch.setattr(WeightedStiffness, "direction", counting)
    return calls


@pytest.mark.parametrize("mesh", list(BAND_MESHES))
def test_p2_constant_solves_build_the_stiffness_bands_once_per_problem(mesh, monkeypatch):
    grid = BAND_MESHES[mesh]()
    calls = count_edge_bands(monkeypatch)
    result = multi_start(band_problem(grid, DiffusionSpec("constant", p=2.0)), 3)
    assert all(r.converged and r.iterations > 2 for r in result.reports)
    assert len(calls) == 1
    calls.clear()
    report = first_eigenvalue(grid, 2.0)
    assert report.converged and report.iterations > 2
    assert len(calls) == 1


@pytest.mark.parametrize(
    "diffusion",
    [DiffusionSpec("constant", p=2.0), DiffusionSpec("constant", p=3.0),
     DiffusionSpec("constant", p=1.5), DiffusionSpec("power_shift", p=2.0, r=3.0)],
    ids=["constant-p2", "constant-p3", "constant-p1.5", "power_shift-p2"],
)
@pytest.mark.parametrize("mesh", list(BAND_MESHES))
def test_only_starts_of_problems_holding_the_stiffness_are_refined(mesh, diffusion, monkeypatch):
    calls = count_directions(monkeypatch)
    ps = band_problem(BAND_MESHES[mesh](), diffusion)
    report = minimize(ps, random_start(ps, 1))
    assert report.converged
    holds = diffusion.family == "constant" and diffusion.p == 2.0
    assert (ps.plan.stiffness is not None) == holds
    # one direction per descent iteration, and one per refinement step
    assert len(calls) == report.iterations + (PICARD_STEPS if holds else 0)


def builtin_with_a(name: str, a: str) -> ScenarioConfig:
    """A builtin scenario with its coefficient ``reaction.a`` replaced."""
    text = load_config(name).serialize()
    line = next(line for line in text.splitlines() if line.startswith("reaction.a ="))
    return ScenarioConfig.from_text(text.replace(line, f"reaction.a = {a}"))


@pytest.mark.parametrize(
    "name, a, steps",
    [("E1", None, 2), ("E2", None, 2), ("E1N_NEG", None, 2), ("E1", "-1", 1)],
    ids=["E1", "E2", "E1N_NEG", "E1-negative"],
)
def test_refinement_stops_at_a_step_to_the_zero_field(name, a, steps, monkeypatch):
    """With a = -1 the source's positive part vanishes (n = 128, seed 5): the first
    refinement step is u = 0, from where every step is zero, so the refinement
    takes no second one. The clipped step keeps E2's and E1N_NEG's positive part."""
    calls = count_directions(monkeypatch)
    config = load_config(name) if a is None else builtin_with_a(name, a)
    ps = config.build_problem()
    assert ps.grid.n_elements == 128 and PICARD_STEPS == 2
    report = minimize(ps, random_start(ps, 5), config.solve_options(5))
    assert report.converged
    assert len(calls) == report.iterations + steps


def test_dead_core_refinement_is_kept_and_shortens_the_descent(monkeypatch):
    """E2 (n = 128): the clipped Picard steps keep the source outside the dead
    core, so neither empties the field, the refined start is kept, and the
    descent takes 9 iterations, not 22."""
    calls = count_directions(monkeypatch)
    config = load_config("E2")
    ps = config.build_problem()
    for seed in (5, 6, 7):
        calls.clear()
        report = minimize(ps, random_start(ps, seed), config.solve_options(seed))
        assert report.converged and report.iterations <= 12, seed
        assert len(calls) == report.iterations + PICARD_STEPS, seed


@pytest.mark.parametrize(
    "diffusion", [DiffusionSpec("constant", p=3.0), DiffusionSpec("power_shift", p=2.0, r=3.0)],
    ids=["constant-p3", "power_shift-p2"],
)
@pytest.mark.parametrize("mesh", list(BAND_MESHES))
def test_other_solves_build_edge_bands_per_iteration(mesh, diffusion, monkeypatch):
    grid = BAND_MESHES[mesh]()
    calls = count_edge_bands(monkeypatch)
    report = minimize(band_problem(grid, diffusion), random_start(band_problem(grid, diffusion), 1))
    assert report.converged and report.iterations > 2
    # the flux's and P's, at one gradient per iteration and one at the end
    assert len(calls) == 2 * (report.iterations + 1)


def flux_as_built_per_call(plan, values, norms):
    """The energy's flux with its own edge bands, from the element weights
    volume * w |grad u|^(p-2) (the p < 2 floor 1e-10)."""
    p = plan.p
    weight = (np.maximum(norms, 1e-10) if p < 2 else norms) ** (p - 2.0)
    if plan.weight is not None:
        weight = plan.weight(norms**p) * weight
    return plan.assembly.band_product(plan.assembly.edge_bands(plan.volume * weight), values)


@pytest.mark.parametrize("field", ["smooth", "flat"])
@pytest.mark.parametrize(
    "diffusion",
    [DiffusionSpec("constant", p=2.0), DiffusionSpec("constant", p=3.0),
     DiffusionSpec("saturating", p=3.0), DiffusionSpec("power_shift", p=2.0, r=3.0),
     DiffusionSpec("constant", p=1.5)],
    ids=lambda d: f"{d.family}-p{d.p}",
)
@pytest.mark.parametrize("mesh", list(BAND_MESHES))
def test_held_edge_bands_leave_the_gradient_and_p_bitwise(mesh, diffusion, field):
    """Held (w = 1, p = 2) or not, the gradient and P's bands and shift are the
    bits built per call from their own formulas. The flat field tilts a
    plateau by 1e-9: there the flux's and P's weights differ, and the flux's
    edge differences are not zero. Natural boundaries: a zero Dirichlet
    rectangle has flat corner triangles."""
    grid = BAND_MESHES[mesh]()
    ps = band_problem(grid, diffusion, "natural")
    plan = ps.plan
    x, y = grid.nodes[:, 0], grid.nodes[:, -1]
    values = 1.0 + np.sin(np.pi * x) + 0.3 * y
    if field == "flat":
        values = np.minimum(values, 1.8) + 1e-9 * x
    norms = plan.gather(values)
    assert (norms.min() < 1e-6) == (field == "flat") and norms.min() > 1e-10
    assert (plan.stiffness is not None) == (diffusion.p == 2.0 and plan.weight is None)
    flux = flux_as_built_per_call(plan, values, norms)
    assert plan.diffusion_flux(values, norms).tobytes() == flux.tobytes()

    expected = flux - grid.node_mass * ps.reaction.evaluate(ps.reaction_terms, values, "value")
    own_bands = plan.assembly.edge_bands(plan.stiffness_weights(norms))
    _, g, stiffness = _Energy(ps, values, project=True).gradient(values)
    assert g.tobytes() == expected.tobytes()
    assert [b.tobytes() for b in stiffness.bands] == [b.tobytes() for b in own_bands]
    shift = reaction_curvature(ps, values) + NATURAL_MASS_SHIFT * grid.node_mass
    assert stiffness.shift.tobytes() == shift.tobytes()
    if diffusion.family == "constant":
        _, _, stiffness = _Rayleigh(grid, diffusion.p).gradient(values)
        assert [b.tobytes() for b in stiffness.bands] == [b.tobytes() for b in own_bands]


# ---- one held-at-zero node set, named by the problem


@pytest.mark.parametrize("boundary", ["dirichlet_zero", "natural"])
@pytest.mark.parametrize("mesh", ["interval", "rectangle", "permuted-rectangle"])
def test_every_consumer_holds_the_problems_held_nodes(mesh, boundary):
    grid = {
        "interval": lambda: build_interval_grid(24, 0.0, 1.0),
        "rectangle": lambda: build_rectangle_grid(7, 5, (0.0, 1.0, 0.0, 0.7)),
        "permuted-rectangle": lambda: permuted(build_rectangle_grid(7, 5, (0.0, 1.0, 0.0, 0.7))),
    }[mesh]()
    ps = coefficient_problem(grid, p=3.0, boundary=boundary)
    held = ps.held_nodes
    assert not held.flags.writeable and held.dtype.kind == "i"
    if boundary == "dirichlet_zero":
        np.testing.assert_array_equal(held, grid.boundary_nodes)
    else:
        assert len(held) == 0
    free = np.setdiff1d(np.arange(grid.n_nodes), held)
    np.testing.assert_array_equal(ps.free_nodes, free)

    values = random_start(ps, 4).values
    assert np.all(values[held] == 0.0) and values[free].min() > 0.0
    assert np.all(energy_grad_values(ps, values)[held] == 0.0)
    nudged = np.full(grid.n_nodes, 1e-6)
    if len(held):
        with pytest.raises(BoundaryViolationError):
            check_admissible(ps, nudged)
    else:
        check_admissible(ps, nudged)
    start = _initial_field(SimpleNamespace(init_spec="const:0.7"), ps, 0).values
    assert np.all(start[held] == 0.0) and np.all(start[free] == 0.7)

    _, g, stiffness = _Energy(ps, values, project=True).gradient(values)
    np.testing.assert_array_equal(stiffness.held, held)
    assert np.all(g[held] == 0.0) and np.all(stiffness.direction(g)[held] == 0.0)
