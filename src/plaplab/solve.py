"""Energy minimization, multi-start experiments, and the first eigenvalue.

All solvers are monotone first-order descent methods: the direction is the
negative nodal gradient, scaled per node by a diagonal curvature estimate, and
every accepted step satisfies the Armijo sufficient-decrease condition under
backtracking (up to the floating-point resolution of the energy). The trial
step per iteration is the two-point (Barzilai-Borwein) quotient in the scaled
metric. No curvature matrices are ever formed; the diagonal scaling is what
lets dead-core problems, whose reaction slope is unbounded near zero values,
reach tight residuals within the desk-scale iteration budgets.

Runs are deterministic: identical problem, options, and seed reproduce the
iterate sequence bitwise (sequential execution, per-start seeded generators).
"""

import math
from dataclasses import dataclass

import numpy as np

from .energy import (
    EnergyBreakdown,
    check_admissible,
    energy_grad_and_scaling,
    energy_parts,
    energy_total,
)
from .grid import Grid, ScalarField
from .model import ProblemSpec

DIVERGENCE_ENERGY = -1e12
DIVERGENCE_DOUBLINGS = 10
DIVERGENCE_NORM_FACTOR = 1e3
MEAN_SHIFT_CADENCE = 8

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_STALLED = "stalled"
STATUS_NOT_BOUNDED_BELOW = "not_bounded_below"


@dataclass(frozen=True)
class SolveOptions:
    """Descent and line-search parameters.

    ``max_iterations=None`` resolves to 50000 on 1D grids and 20000 in 2D.
    ``project_nonnegative=None`` means automatic: iterates are truncated at
    zero whenever the reaction uses the zero negative extension. Truncation
    is 1-Lipschitz nodally, so it never increases the discrete energy on
    interval or right-triangle meshes, and it keeps descent out of the flat
    negative-value basin that the zero extension creates.
    """

    max_iterations: int | None = None
    residual_tolerance: float = 1e-9
    shrink: float = 0.5
    sufficient_decrease: float = 1e-4
    initial_step: float = 1.0
    random_seed: int = 0
    project_nonnegative: bool | None = None

    def __post_init__(self):
        if self.residual_tolerance <= 0:
            raise ValueError("residual tolerance must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("backtracking shrink factor must lie in (0, 1)")
        if self.sufficient_decrease <= 0 or self.initial_step <= 0:
            raise ValueError("line-search constants must be positive")

    def budget(self, grid: Grid) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return 50_000 if grid.dimension == 1 else 20_000


@dataclass(frozen=True)
class SolveReport:
    solution: ScalarField
    energy: EnergyBreakdown
    residual: float
    iterations: int
    converged: bool
    status: str
    energy_history: np.ndarray = None


def _mean_shift(ps: ProblemSpec, u, e_total, scale, project, norm_limit):
    """Scalar search along constant shifts (natural boundary condition only).

    The diffusion energy cannot see constant shifts, so descent creeps along
    that mode; a doubling walk on the shift handles it directly. Ten straight
    energy-decreasing doublings past the norm limit is the unbounded-energy
    diagnosis (the known escape ray for noncoercive natural-BC problems).
    Downward shifts on projected problems stop where a node would clamp, so
    the walk cannot tunnel across basins to the trivial critical point.
    Returns (values, energy, next_scale, unbounded).
    """
    best_c = 0.0
    best_e = e_total
    best_u = u
    down_limit = float(u.min()) if project else np.inf
    for sign in (1.0, -1.0):
        c = sign * scale
        doublings = 0
        while abs(c) <= 1e14 and (sign > 0 or abs(c) <= down_limit):
            candidate = u + c
            e_candidate = energy_total(ps, candidate)
            if not (math.isfinite(e_candidate) and e_candidate < best_e):
                break
            best_c, best_e, best_u = c, e_candidate, candidate
            doublings += 1
            if doublings >= DIVERGENCE_DOUBLINGS and abs(c) >= norm_limit:
                return best_u, best_e, abs(c), True
            c *= 2.0
        if best_c != 0.0:
            break
    if best_c != 0.0:
        return best_u, best_e, max(abs(best_c) * 0.5, 1e-14), False
    return u, e_total, max(scale * 0.25, 1e-14), False


def _descent(ps: ProblemSpec, values: np.ndarray, opts: SolveOptions):
    """Shared Armijo-backtracked descent loop; returns the final state."""
    grid = ps.grid
    n_sqrt = math.sqrt(grid.n_nodes)
    project = opts.project_nonnegative
    if project is None:
        project = ps.reaction.negative_extension == "zero"
    u = values.copy()
    if project:
        u = np.maximum(u, 0.0)
    e_total = energy_total(ps, u)
    if not math.isfinite(e_total):
        raise ValueError("initial field has non-finite energy")
    e_init = e_total
    u_max = float(np.abs(u).max())
    init_scale = 1.0 + u_max
    eps = float(np.finfo(float).eps)
    shift_scale = 1.0 if ps.boundary == "natural" else None

    budget = opts.budget(grid)
    step = opts.initial_step
    prev_u = None
    prev_g = None
    doublings = 0
    watermark = u_max
    history = [e_total]

    for iteration in range(budget + 1):
        g, scaling = energy_grad_and_scaling(ps, u)
        g_free = g[ps.free_nodes]
        residual = math.sqrt(g_free @ g_free) / n_sqrt
        if residual <= opts.residual_tolerance:
            return u, e_total, residual, iteration, STATUS_CONVERGED, history
        if iteration == budget:
            return u, e_total, residual, iteration, STATUS_MAX_ITERATIONS, history

        # Descent direction: negative gradient scaled by the per-node
        # curvature estimate (dead-core tails otherwise pin the step size for
        # the whole mesh). Trial step from the two-point quotient in the
        # scaled metric, safeguarded, then Armijo-backtracked.
        direction = g / scaling
        if prev_u is not None:
            s = u - prev_u
            y = g - prev_g
            sy = float(s @ y)
            trial = float(s @ (scaling * s)) / sy if sy > 0 else step * 4.0
        else:
            trial = step
        if not math.isfinite(trial):
            trial = step
        trial = min(max(trial, 1e-13), 1e13)

        # Sufficient decrease is required whenever the energy can resolve it;
        # once the demanded decrease sinks below the energy's floating-point
        # resolution, a step is accepted as long as no resolvable increase
        # shows up (otherwise tight residual tolerances are unreachable).
        slack = 16.0 * eps * (1.0 + abs(e_total))
        direction_norm = math.sqrt(direction @ direction)
        stall_step = 1e-18 * (1.0 + u_max)
        e_new = None
        while True:
            candidate = u - trial * direction
            if project:
                np.maximum(candidate, 0.0, out=candidate)
            decrease = opts.sufficient_decrease * float(g @ (u - candidate))
            e_candidate = energy_total(ps, candidate)
            if math.isfinite(e_candidate) and (
                e_candidate <= e_total - decrease
                or (decrease <= slack and e_candidate <= e_total + slack)
            ):
                e_new = e_candidate
                break
            trial *= opts.shrink
            if trial * direction_norm < stall_step:
                return u, e_total, residual, iteration, STATUS_STALLED, history

        prev_u, prev_g = u, g
        u, e_total, step = candidate, e_new, trial
        history.append(e_total)

        if shift_scale is not None and iteration % MEAN_SHIFT_CADENCE == 0:
            u, e_total, shift_scale, unbounded = _mean_shift(
                ps, u, e_total, shift_scale, project, DIVERGENCE_NORM_FACTOR * init_scale
            )
            history[-1] = e_total
            if unbounded:
                return u, e_total, residual, iteration + 1, STATUS_NOT_BOUNDED_BELOW, history

        if e_total < DIVERGENCE_ENERGY:
            return u, e_total, residual, iteration + 1, STATUS_NOT_BOUNDED_BELOW, history
        u_max = float(np.abs(u).max())
        if u_max >= 2.0 * watermark:
            doublings += 1
            watermark = u_max
        elif u_max < 0.5 * watermark:
            doublings = 0
            watermark = u_max
        if (
            doublings >= DIVERGENCE_DOUBLINGS
            and u_max >= DIVERGENCE_NORM_FACTOR * init_scale
            and e_total < min(e_init, 0.0)
        ):
            return u, e_total, residual, iteration + 1, STATUS_NOT_BOUNDED_BELOW, history


def _finish(ps: ProblemSpec, state) -> SolveReport:
    values, _, residual, iterations, status, history = state
    diffusion, reaction = energy_parts(ps, values)
    return SolveReport(
        solution=ScalarField(ps.grid, values),
        energy=EnergyBreakdown(diffusion, reaction, diffusion - reaction),
        residual=residual,
        iterations=iterations,
        converged=status == STATUS_CONVERGED,
        status=status,
        energy_history=np.asarray(history),
    )


def _check_start(ps: ProblemSpec, init: ScalarField) -> np.ndarray:
    if init.grid is not ps.grid:
        raise ValueError("initial field and problem live on different grids")
    if ps.reaction.negative_extension == "none":
        raise ValueError(
            "minimization needs a negative extension on the reaction so the "
            "energy is defined on every trial field"
        )
    check_admissible(ps, init.values)
    return init.values


def minimize(ps: ProblemSpec, init: ScalarField, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Descend from ``init`` until the stationarity residual meets tolerance.

    Divergence is reported with status ``not_bounded_below``; it is diagnosed
    from an energy below -1e12, from ten cumulative norm doublings far above
    the initial scale with the energy decreasing, or (natural boundary) from a
    runaway doubling walk along constant shifts. Coercivity is otherwise the
    caller's concern.
    """
    values = _check_start(ps, init)
    return _finish(ps, _descent(ps, values, opts))


def critical_point_from(
    ps: ProblemSpec, init: ScalarField, opts: SolveOptions = SolveOptions()
) -> SolveReport:
    """Same iteration as ``minimize``; a separate entry point so stationary
    points reached from crafted starts are labeled as such, without any claim
    of minimality."""
    values = _check_start(ps, init)
    return _finish(ps, _descent(ps, values, opts))


@dataclass(frozen=True)
class Cluster:
    members: list[int]
    representative: int  # index into the report list, lowest energy member


@dataclass(frozen=True)
class MultiStartResult:
    reports: list[SolveReport]
    clusters: list[Cluster]
    threshold: float

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def statuses(self) -> list[str]:
        return sorted({r.status for r in self.reports})

    def representative_report(self, cluster: Cluster) -> SolveReport:
        return self.reports[cluster.representative]


def lumped_l2_distance(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(grid.node_mass @ (a - b) ** 2))


def random_start(ps: ProblemSpec, seed: int, amplitude: float = 2.0) -> ScalarField:
    """Nonnegative random field, uniform entries in [0, amplitude], zeroed on
    the boundary for Dirichlet problems."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, amplitude, ps.grid.n_nodes)
    if ps.is_dirichlet:
        values[ps.grid.boundary_nodes] = 0.0
    return ScalarField(ps.grid, values)


def multi_start(
    ps: ProblemSpec, n_starts: int, opts: SolveOptions = SolveOptions()
) -> MultiStartResult:
    """Independent minimizations from seeded random nonnegative starts.

    Converged solutions are clustered by lumped L2 distance with threshold
    1e-5 * sqrt(domain measure); clusters are ordered by representative energy.
    Start ``k`` draws from seed ``random_seed + k``, so the result is
    deterministic and independent of scheduling.
    """
    if n_starts < 2:
        raise ValueError(f"need at least 2 starts, got {n_starts}")
    reports = []
    for k in range(n_starts):
        init = random_start(ps, opts.random_seed + k)
        reports.append(minimize(ps, init, opts))

    threshold = 1e-5 * np.sqrt(ps.grid.measure)
    clusters: list[list[int]] = []
    for idx, report in enumerate(reports):
        if not report.converged:
            continue
        for members in clusters:
            rep = reports[members[0]]
            if (
                lumped_l2_distance(ps.grid, report.solution.values, rep.solution.values)
                <= threshold
            ):
                members.append(idx)
                break
        else:
            clusters.append([idx])

    built = []
    for members in clusters:
        rep = min(members, key=lambda i: reports[i].energy.total)
        built.append(Cluster(members=members, representative=rep))
    built.sort(key=lambda c: reports[c.representative].energy.total)
    return MultiStartResult(reports=reports, clusters=built, threshold=threshold)


@dataclass(frozen=True)
class EigenReport:
    lambda1: float
    eigenfunction: ScalarField
    rayleigh_history: np.ndarray
    iterations: int
    converged: bool
    residual: float


def _p_dirichlet_value(grid: Grid, values: np.ndarray, p: float) -> float:
    """Integral of |grad u|^p."""
    assembly = grid.assembly
    return float(grid.element_volume @ assembly.norms(assembly.gradients(values)) ** p)


def _p_dirichlet_value_and_grad(grid: Grid, values: np.ndarray, p: float):
    """Integral of |grad u|^p and its nodal gradient (no 1/p factor)."""
    assembly = grid.assembly
    grads = assembly.gradients(values)
    norms = assembly.norms(grads)
    value = float(grid.element_volume @ norms**p)
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(norms > 0.0, norms ** (p - 2.0), 0.0)
    return value, assembly.scatter(p * grid.element_volume * weight, grads)


def _p_mass(grid: Grid, values: np.ndarray, p: float) -> float:
    """Lumped integral of |u|^p."""
    return float(grid.node_mass @ np.abs(values) ** p)


def first_eigenvalue(grid: Grid, p: float, opts: SolveOptions = SolveOptions()) -> EigenReport:
    """Minimize the Rayleigh quotient over the zero-boundary discrete space.

    Projected descent: the iterate is renormalized to unit lumped p-norm after
    every accepted step (the quotient is 0-homogeneous, so the line search can
    work on the unnormalized quotient directly).
    """
    if not p > 1:
        raise ValueError(f"exponent p must exceed 1, got {p}")
    rng = np.random.default_rng(opts.random_seed)
    u = np.zeros(grid.n_nodes)
    u[grid.interior_nodes] = rng.uniform(0.5, 1.5, len(grid.interior_nodes))

    def normalize(w):
        return w / _p_mass(grid, w, p) ** (1.0 / p)

    u = normalize(u)
    budget = opts.budget(grid)
    n_sqrt = math.sqrt(grid.n_nodes)
    eps = float(np.finfo(float).eps)
    history = []
    step = opts.initial_step
    prev_u = None
    prev_g = None
    status = STATUS_MAX_ITERATIONS
    residual = np.inf
    rayleigh = np.inf

    for iteration in range(budget + 1):
        num, num_grad = _p_dirichlet_value_and_grad(grid, u, p)
        den = _p_mass(grid, u, p)
        den_grad = p * grid.node_mass * np.sign(u) * np.abs(u) ** (p - 1.0)
        rayleigh = num / den
        history.append(rayleigh)
        g = (num_grad - rayleigh * den_grad) / den
        g[grid.boundary_nodes] = 0.0
        gg = float(g @ g)
        residual = math.sqrt(gg) / n_sqrt
        if residual <= opts.residual_tolerance:
            status = STATUS_CONVERGED
            break
        if iteration == budget:
            break

        if prev_u is not None:
            s = u - prev_u
            y = g - prev_g
            sy = float(s @ y)
            trial = float(s @ s) / sy if sy > 0 else step * 4.0
        else:
            trial = step
        if not math.isfinite(trial):
            trial = step
        trial = min(max(trial, 1e-13), 1e13)

        g_norm = math.sqrt(gg)
        slack = 16.0 * eps * (1.0 + abs(rayleigh))
        accepted = False
        while trial * g_norm >= 1e-18:
            candidate = u - trial * g
            c_num = _p_dirichlet_value(grid, candidate, p)
            c_den = _p_mass(grid, candidate, p)
            decrease = opts.sufficient_decrease * trial * gg
            if c_den > 0 and math.isfinite(c_num / c_den):
                quotient = c_num / c_den
                if quotient <= rayleigh - decrease or (
                    decrease <= slack and quotient <= rayleigh + slack
                ):
                    accepted = True
                    break
            trial *= opts.shrink
        if not accepted:
            status = STATUS_STALLED
            break
        prev_u, prev_g = u, g
        u = normalize(candidate)
        step = trial

    u = normalize(u)
    if float(grid.node_mass @ u) < 0.0:
        u = -u
    lambda1 = _p_dirichlet_value(grid, u, p)
    return EigenReport(
        lambda1=lambda1,
        eigenfunction=ScalarField(grid, u),
        rayleigh_history=np.asarray(history),
        iterations=len(history) - 1,
        converged=status == STATUS_CONVERGED,
        residual=residual,
    )
