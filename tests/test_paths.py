import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import plaplab
from plaplab.energy import EnergyBreakdown
from plaplab.errors import InvariantViolation
from plaplab.grid import ScalarField, build_interval_grid, build_rectangle_grid
from plaplab.model import DiffusionSpec, ProblemSpec, ReactionSpec
from plaplab.paths import (
    SLAB_VALUES,
    edge_difference_violation,
    midpoint_energy_test,
    path_energy_profile,
    pointwise_hidden_convexity,
    power_path,
    power_product,
    power_product_concavity,
    power_product_concavity_grid,
    reaction_pullback_concavity,
)


@pytest.fixture
def grid():
    return build_interval_grid(32, 0.0, 1.0)


@pytest.fixture
def field_pair(grid):
    rng = np.random.default_rng(21)
    u = rng.uniform(0.0, 2.0, grid.n_nodes)
    v = rng.uniform(0.0, 2.0, grid.n_nodes)
    u[grid.boundary_nodes] = 0.0
    v[grid.boundary_nodes] = 0.0
    return ScalarField(grid, u), ScalarField(grid, v)


def test_endpoints_exact(grid, field_pair):
    u, v = field_pair
    np.testing.assert_array_equal(power_path(u, v, 1.5, 0.0).values, u.values)
    np.testing.assert_array_equal(power_path(u, v, 1.5, 1.0).values, v.values)


def test_equal_endpoints_give_constant_path(grid):
    u = ScalarField.from_function(grid, lambda x: x * (1 - x))
    for t in (0.25, 0.5, 0.9):
        np.testing.assert_allclose(power_path(u, u, 2.0, t).values, u.values, atol=1e-14)


def test_symmetric_two_node_example():
    g = build_interval_grid(2, 0.0, 1.0)
    # three nodes; use the outer two to mirror a single-element swap
    u = ScalarField(g, np.array([0.0, 1.0, 0.0]))
    v = ScalarField(g, np.array([1.0, 0.0, 1.0]))
    mid = power_path(u, v, 1.5, 0.5).values
    np.testing.assert_allclose(mid, 0.5 ** (2.0 / 3.0), atol=1e-14)


def test_rejects_negative_endpoints(grid):
    u = ScalarField(grid, np.full(grid.n_nodes, -0.1))
    v = ScalarField.constant(grid, 1.0)
    with pytest.raises(ValueError):
        power_path(u, v, 1.5, 0.5)


def test_rejects_bad_parameters(grid):
    u = ScalarField.constant(grid, 1.0)
    with pytest.raises(ValueError):
        power_path(u, u, 1.0, 0.5)
    with pytest.raises(ValueError):
        power_path(u, u, 1.5, 1.5)


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(0.0, 1.0),
    s=st.floats(0.0, 1.0),
    alpha=st.floats(0.0, 1.0),
    q=st.floats(1.05, 4.0),
)
def test_reparametrization_identity(t, s, alpha, q):
    rng = np.random.default_rng(9)
    u = rng.uniform(0.0, 2.0, 12)
    v = rng.uniform(0.0, 2.0, 12)
    g = build_interval_grid(11, 0.0, 1.0)
    fu, fv = ScalarField(g, u), ScalarField(g, v)
    inner_t = power_path(fu, fv, q, t)
    inner_s = power_path(fu, fv, q, s)
    direct = power_path(fu, fv, q, (1 - alpha) * t + alpha * s).values
    nested = power_path(inner_t, inner_s, q, alpha).values
    np.testing.assert_allclose(direct, nested, atol=1e-14)


@settings(max_examples=500, deadline=None)
@given(
    ui=st.floats(0.0, 10.0),
    uj=st.floats(0.0, 10.0),
    vi=st.floats(0.0, 10.0),
    vj=st.floats(0.0, 10.0),
    t=st.floats(0.0, 1.0),
    p=st.floats(1.01, 4.0),
    frac=st.floats(0.0, 1.0),
)
def test_scalar_hidden_convexity_property(ui, uj, vi, vj, t, p, frac):
    q = 1.0 + frac * (p - 1.0)
    if q <= 1.0:
        q = 1.0 + 1e-9
    violation = edge_difference_violation(ui, uj, vi, vj, p, q, t)
    # adversarial corners (exact ties) see a few ulps of roundtrip noise at
    # the scale of the compared powers, on top of the random-suite tolerance
    scale = max(abs(uj - ui), abs(vj - vi), 1.0) ** p
    assert violation <= 1e-12 + 32 * np.finfo(float).eps * scale


def test_pointwise_equal_fields_no_violation(grid):
    u = ScalarField.from_function(grid, lambda x: x * (1 - x))
    report = pointwise_hidden_convexity(u, u, 2.0, 1.5, 0.5)
    assert report.max_violation <= 1e-12
    assert report.n_active == 0


def test_pointwise_symmetric_strict():
    g = build_interval_grid(2, 0.0, 1.0)
    u = ScalarField(g, np.array([0.0, 1.0, 0.0]))
    v = ScalarField(g, np.array([1.0, 0.0, 1.0]))
    report = pointwise_hidden_convexity(u, v, 2.0, 1.5, 0.5)
    assert report.max_violation <= 1e-12
    assert report.n_strict == report.n_active == 2


def test_pointwise_rejects_q_above_p(grid, field_pair):
    u, v = field_pair
    with pytest.raises(ValueError):
        pointwise_hidden_convexity(u, v, 1.5, 2.0, 0.5)


def test_pointwise_element_mode_2d():
    g = build_rectangle_grid(6, 6, (0, 1, 0, 1))
    rng = np.random.default_rng(3)
    u = ScalarField(g, rng.uniform(0, 2, g.n_nodes))
    v = ScalarField(g, rng.uniform(0, 2, g.n_nodes))
    report = pointwise_hidden_convexity(u, v, 2.0, 1.5, 0.3, mode="element_gradients")
    assert report.mode == "element_gradients"
    assert np.isfinite(report.max_violation)
    with pytest.raises(ValueError):
        pointwise_hidden_convexity(u, v, 2.0, 1.5, 0.3, mode="nodes")


def sign_changing_problem(n=64, boundary="dirichlet_zero"):
    g = build_interval_grid(n, 0.0, 1.0)
    a = np.sin(2 * np.pi * g.nodes[:, 0]) + 0.3
    return ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("pure_subhomogeneous", q=1.5, a=a),
        boundary,
    )


def test_profile_constant_pair_degenerate():
    ps = ProblemSpec(
        build_interval_grid(32, 0.0, 1.0),
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("double_power", q=1.5, r=3.0),
        "natural",
    )
    u = ScalarField.constant(ps.grid, 1.0)
    v = ScalarField.constant(ps.grid, 2.0)
    diag = path_energy_profile(ps, u, v, 1.5)
    assert np.abs(diag.diffusion_energy).max() < 1e-14
    assert diag.degenerate_constant_pair
    assert not diag.strictly_convex_diffusion


def test_profile_dirichlet_pair_exactly_convex(field_pair):
    ps = sign_changing_problem(n=32)
    u, v = field_pair
    diag = path_energy_profile(ps, u, v, 1.5)
    assert diag.min_second_difference_I >= -1e-10
    assert diag.min_second_difference_D >= -1e-10
    assert diag.pointwise_max_violation <= 1e-12
    assert diag.strictly_convex_diffusion


def test_profile_equal_endpoints_flat(grid):
    ps = sign_changing_problem(n=32)
    u = ScalarField.from_function(ps.grid, lambda x: np.sin(np.pi * x))
    diag = path_energy_profile(ps, u, u, 1.5)
    assert np.ptp(diag.total_energy) <= 1e-13


def scripted_totals(monkeypatch, totals):
    """Make the profile read ``totals`` as its sampled total energies, in order."""
    samples = iter(totals)
    monkeypatch.setattr(plaplab.paths, "energy_parts",
                        lambda ps, values: EnergyBreakdown(0.0, -next(samples)))


def test_profile_tolerance_is_relative_to_the_energies(field_pair, monkeypatch):
    """A flat profile of energies near -1e200 with relative roundoff 1e-15 passes
    (its second differences reach 1e185, far above the absolute 1e-10), and a
    concave bump of relative size 1e-6 still raises."""
    ps = sign_changing_problem(n=32)
    u, v = field_pair
    roundoff = -1e200 * (1.0 + 1e-15 * np.random.default_rng(2).uniform(-1.0, 1.0, 41))
    scripted_totals(monkeypatch, roundoff)
    diag = path_energy_profile(ps, u, v, 1.5)
    assert diag.min_second_difference_I < -1e-10
    bumped = np.full(41, -1e200)
    bumped[20] += 1e194
    scripted_totals(monkeypatch, bumped)
    with pytest.raises(InvariantViolation, match="lost exact convexity"):
        path_energy_profile(ps, u, v, 1.5)


def test_profile_validates_sample_count(field_pair):
    ps = sign_changing_problem(n=32)
    u, v = field_pair
    with pytest.raises(ValueError):
        path_energy_profile(ps, u, v, 1.5, n_samples=2)


def test_midpoint_equal_fields(grid):
    ps = sign_changing_problem(n=32)
    u = ScalarField.from_function(ps.grid, lambda x: x * (1 - x))
    report = midpoint_energy_test(ps, u, u, 1.5)
    assert report.verdict == "equal"
    assert abs(report.gap) <= 1e-14


def test_midpoint_distinct_fields_nonnegative_gap(field_pair):
    ps = sign_changing_problem(n=32)
    u, v = field_pair
    report = midpoint_energy_test(ps, u, v, 1.5)
    assert report.gap >= -1e-10
    assert report.verdict in ("strict", "equal")


@pytest.mark.parametrize(
    "path_q, verdict, sign", [(1.5, "equal", 0.0), (2.0, "violated", -1.0), (10.0, "violated", -1.0)]
)
def test_midpoint_verdicts_between_constants_under_a_negative_weight(path_q, verdict, sign):
    """-u'' = -u^(1/2) with natural boundary: the energy of a constant c is
    (2/3)c^(3/2), linear along the q = 1.5 path. A path with larger q takes the
    larger power mean at t = 1/2, so its midpoint energy lies above the chord."""
    ps = ProblemSpec(
        build_interval_grid(16, 0.0, 1.0),
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("pure_subhomogeneous", q=1.5, a=-1.0),
        "natural",
    )
    u, v = ScalarField.constant(ps.grid, 1.0), ScalarField.constant(ps.grid, 2.0)
    report = midpoint_energy_test(ps, u, v, path_q)
    assert report.verdict == verdict
    if sign:
        assert np.sign(report.gap) == sign
    else:
        assert abs(report.gap) <= 1e-14


def overflowing_constant_pair():
    """Constants 1e200 and 1e100 under a cubic reaction primitive: float64 overflows."""
    ps = ProblemSpec(
        build_interval_grid(32, 0.0, 1.0),
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("double_power", q=1.5, r=3.0),
        "natural",
    )
    return ps, ScalarField.constant(ps.grid, 1e200), ScalarField.constant(ps.grid, 1e100)


def test_profile_rejects_overflowing_energies():
    ps, u, v = overflowing_constant_pair()
    with pytest.raises(ValueError, match="overflow float64"):
        path_energy_profile(ps, u, v, 1.5)


def test_midpoint_rejects_overflowing_energies():
    ps, u, v = overflowing_constant_pair()
    with pytest.raises(ValueError, match="overflow float64"):
        midpoint_energy_test(ps, u, v, 1.5)


def test_power_product_vanishes_on_axes():
    assert power_product(0.0, 1.0, 2.0, 1.5) == 0.0
    assert power_product(1.0, 0.0, 2.0, 1.5) == 0.0
    assert power_product(0.5, 0.5, 2.0, 1.5) > 0.0


def test_power_product_rejects_negative():
    with pytest.raises(ValueError):
        power_product(-0.1, 1.0, 2.0, 1.5)


def test_concavity_points_version_small_grid():
    axis = np.linspace(0.1, 10.0, 20)
    pts = np.array([(z1, z2) for z1 in axis for z2 in axis])
    report = power_product_concavity(2.0, 1.5, pts)
    assert report.max_violation <= 1e-12
    assert report.strict_fraction > 0.99


def _concavity_axes():
    rng = np.random.default_rng(15)
    unsorted_13 = np.r_[rng.uniform(0.0, 10.0, 12), 0.0][rng.permutation(13)]
    unsorted_7 = np.r_[rng.uniform(0.0, 10.0, 6), 0.0][::-1]
    repeated = np.r_[1.0, 2.0, 2.0, 3.0, 0.5, 0.5, 4.0, 5.0, 6.0, 7.0]
    rows = SLAB_VALUES // 50**2  # rows per slab when n2 = 50
    assert 1 < rows < 30 and 30 % rows, "30 rows must end in a partial slab"
    assert SLAB_VALUES // 100**2 < 6, "the 6-value cluster must span slabs"
    cluster = np.linspace(1, 1 + 1e-5, 6)
    clustered_20 = np.r_[cluster, np.linspace(2, 10, 14)]
    clustered_100 = np.r_[cluster, np.linspace(2, 10, 94)]
    return {
        "square-12": (np.linspace(0.1, 10.0, 12), None),
        "unsorted-13x7-with-zero": (unsorted_13, unsorted_7),
        "repeated-entries": (repeated, None),
        "partial-slab-30x50": (rng.uniform(0.0, 10.0, 30), np.linspace(0.0, 10.0, 50)),
        # a cluster of near-identical values gives gaps under the strictness
        # gap; with 100 values on the second axis a slab is fewer rows than the
        # cluster, so slabs away from it are strict throughout and the rest
        # are counted
        "clustered-20": (clustered_20, None),
        "clustered-20x100": (clustered_20, clustered_100),
    }


@pytest.mark.parametrize("case", sorted(_concavity_axes()))
def test_concavity_grid_matches_points_version(case):
    axis1, axis2 = _concavity_axes()[case]
    other = axis1 if axis2 is None else axis2
    pts = np.array([(z1, z2) for z1 in axis1 for z2 in other])
    for p, q in ((2.0, 1.5), (3.0, 1.2)):
        a = power_product_concavity(p, q, pts)
        b = power_product_concavity_grid(p, q, axis1, axis2)
        assert a.n_pairs == b.n_pairs
        assert a.n_strict == b.n_strict
        assert abs(a.max_violation - b.max_violation) <= 1e-15


@pytest.mark.parametrize(
    ("q", "p", "max_violation_hex", "n_strict"),
    [
        (1.5, 2.0, "-0x0.0p+0", 99_990_000),
        (2.0, 3.0, "-0x0.0p+0", 99_990_000),
        (1.1, 1.2, "-0x0.0p+0", 99_990_000),
    ],
)
def test_concavity_grid_criterion_2_reports_are_pinned(q, p, max_violation_hex, n_strict):
    # captured from the ordered-pair sweep that the unordered one replaced
    report = power_product_concavity_grid(p, q, np.linspace(0.1, 10.0, 100))
    assert report.max_violation.hex() == max_violation_hex
    assert report.n_strict == n_strict
    assert report.n_pairs == 99_990_000


@pytest.mark.parametrize("n2", [1, 7, 100])
@pytest.mark.parametrize("k", [4, 3], ids=["full-slab", "partial-slab"])
def test_rank_two_matmul_is_the_exact_sum(n2, k):
    # the certificate's averaged values: [h_a, 1] @ [1; h_c] == h_a[:, None] + h_c[None, :]
    rng = np.random.default_rng(n2 + 10 * k)
    h = 10.0 ** rng.uniform(-300, 300, (k + 1, n2)) * rng.uniform(0.5, 1.0, (k + 1, n2))
    h[rng.random((k + 1, n2)) < 0.2] = 0.0
    h_a, h_c = h[0], h[1:]
    left = np.ones((n2, 2))
    left[:, 0] = h_a
    right = np.ones((k, 2, n2))
    right[:, 1] = h_c
    slab = np.full((4, n2, n2), np.nan)  # a kernel that reads out leaves NaN behind
    out = slab[:k]
    np.matmul(left, right, out=out)
    expected = np.add(h_a[None, :, None], h_c[:, None, :])
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_concavity_grid_report_does_not_depend_on_blas_threads(threads):
    # BLAS threads split the batched matmul of the averaged values differently
    code = (
        "import numpy as np; from plaplab.paths import power_product_concavity_grid as g; "
        "r = g(2.0, 1.5, np.linspace(0.1, 10.0, 100)); "
        "print(r.max_violation.hex(), r.n_strict, r.n_pairs)"
    )
    src = str(Path(plaplab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout.split()
    assert out == ["-0x0.0p+0", "99990000", "99990000"]


def test_concavity_rejects_overflowing_values():
    # inf - inf gaps are NaN, which a running maximum skips
    axis = np.array([1.0, 2.0, 1e308, 1.5e308])
    with pytest.raises(ValueError, match="overflow"):
        power_product_concavity_grid(4.0, 3.99, axis)
    pts = np.array([(z1, z2) for z1 in axis for z2 in axis])
    with pytest.raises(ValueError, match="overflow"):
        power_product_concavity(4.0, 3.99, pts)


def test_concavity_values_whose_sums_overflow_agree():
    # the largest value is about 1.3e308: it fits, but the sum of two does not
    axis = np.array([1.0, 2.0, 5e307])
    pts = np.array([(z1, z2) for z1 in axis for z2 in axis])
    assert power_product_concavity(4.0, 3.99, pts) == power_product_concavity_grid(4.0, 3.99, axis)


def test_concavity_grid_peak_allocation_is_a_few_slabs():
    axis = np.linspace(0.1, 10.0, 100)
    tracemalloc.start()
    try:
        power_product_concavity_grid(2.0, 1.5, axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


GOOD_AXIS = np.linspace(0.1, 1.0, 5)


@pytest.mark.parametrize(
    "bad",
    [np.r_[-1.0, GOOD_AXIS], np.r_[np.nan, GOOD_AXIS], np.r_[GOOD_AXIS, np.inf], np.array([]),
     np.outer(GOOD_AXIS, GOOD_AXIS)],
    ids=["negative", "nan", "inf", "empty", "2d"],
)
def test_concavity_grid_rejects_bad_axes(bad):
    with pytest.raises(ValueError, match="grid axis"):
        power_product_concavity_grid(2.0, 1.5, bad)
    with pytest.raises(ValueError, match="grid axis"):
        power_product_concavity_grid(2.0, 1.5, GOOD_AXIS, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_concavity_points_rejects_non_finite_points(bad):
    pts = np.array([[0.5, 1.0], [1.0, bad], [2.0, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        power_product_concavity(2.0, 1.5, pts)


def test_concavity_boundary_pair_strict():
    pts = np.array([[0.0, 1.0], [1.0, 0.0]])
    report = power_product_concavity(2.0, 1.5, pts)
    # averaged endpoint values vanish, midpoint value is positive
    assert report.max_violation <= 0.0
    assert report.n_strict == report.n_pairs == 2


def test_concavity_rejects_bad_exponents():
    axis = np.linspace(0.1, 1.0, 5)
    with pytest.raises(ValueError):
        power_product_concavity_grid(1.5, 2.0, axis)
    with pytest.raises(ValueError):
        power_product_concavity_grid(2.0, 2.0, axis)


def test_pullback_affine_for_matching_exponent():
    rs = ReactionSpec("pure_subhomogeneous", q=1.5, a=-3.0)
    result = reaction_pullback_concavity(rs, 1.5, np.linspace(0.1, 50.0, 200))
    assert result.passed


def test_pullback_double_power_concave():
    rs = ReactionSpec("double_power", q=1.5, r=3.0)
    assert reaction_pullback_concavity(rs, 1.5, np.geomspace(0.01, 100, 100)).passed


def test_pullback_superlinear_fails():
    # plain power above the pullback exponent turns convex
    rs = ReactionSpec("pure_subhomogeneous", q=2.0, a=1.0)
    result = reaction_pullback_concavity(rs, 1.5, np.linspace(0.1, 10.0, 50))
    assert not result.passed
    assert result.witness is not None


@pytest.mark.parametrize(
    "rs",
    [
        ReactionSpec("pure_subhomogeneous", q=1.5, a=-0.4),
        ReactionSpec("two_term", q=1.5, r=2.5, a=0.7, b=-1.0),
        ReactionSpec("two_term", q=1.7, r=1.2, a=-0.2, b=0.5),
        ReactionSpec("logistic", q=4.0, p=2.0, a=4.0, b=1.0),
        ReactionSpec("double_power", q=1.5, r=3.0),
    ],
)
def test_pullback_concave_at_natural_exponent(rs):
    s_grid = np.geomspace(1e-3, 1e2, 120)
    result = reaction_pullback_concavity(rs, rs.natural_subhomogeneity_exponent, s_grid)
    assert result.passed


def test_profile_from_minimizer_has_flat_start():
    # path out of a converged minimizer: the profile slope vanishes at the
    # minimizer end and not at the perturbed end
    from plaplab.solve import SolveOptions, minimize

    ps = sign_changing_problem(n=64)
    init = ScalarField.from_function(ps.grid, lambda x: np.sin(np.pi * x))
    report = minimize(ps, init, SolveOptions())
    assert report.converged
    u = report.solution
    bump = 0.3 * np.sin(np.pi * ps.grid.nodes[:, 0]) ** 2
    v = ScalarField(ps.grid, u.values + bump)
    diag = path_energy_profile(ps, u, v, 1.5, n_samples=41)
    dt = diag.t_samples[1] - diag.t_samples[0]
    slope_start = (diag.total_energy[1] - diag.total_energy[0]) / dt
    slope_end = (diag.total_energy[-1] - diag.total_energy[-2]) / dt
    assert diag.min_second_difference_I >= -1e-10
    assert abs(slope_start) < 0.2 * abs(slope_end)
    assert abs(slope_end) > 1e-3


def test_profile_rejects_inadmissible_endpoint():
    from plaplab.errors import BoundaryViolationError

    ps = sign_changing_problem(n=32)
    u = ScalarField.constant(ps.grid, 1.0)  # nonzero on a Dirichlet boundary
    v = ScalarField.constant(ps.grid, 0.0)
    with pytest.raises(BoundaryViolationError):
        path_energy_profile(ps, u, v, 1.5)


def test_profile_2d_reported_not_asserted():
    g = build_rectangle_grid(6, 6, (0, 1, 0, 1))
    a = np.sin(2 * np.pi * g.nodes[:, 0]) + 0.3
    ps = ProblemSpec(
        g,
        DiffusionSpec("constant", p=2.0),
        ReactionSpec("pure_subhomogeneous", q=1.5, a=a),
        "dirichlet_zero",
    )
    rng = np.random.default_rng(12)
    u = rng.uniform(0, 2, g.n_nodes)
    v = rng.uniform(0, 2, g.n_nodes)
    u[g.boundary_nodes] = 0.0
    v[g.boundary_nodes] = 0.0
    diag = path_energy_profile(ps, ScalarField(g, u), ScalarField(g, v), 1.5)
    assert np.isfinite(diag.min_second_difference_I)
    # the scalar edge inequality stays exact even in 2D
    assert diag.pointwise_max_violation <= 1e-12
