"""Energy minimization, multi-start experiments, and the first eigenvalue.

Both minimizations run through one monotone first-order descent engine,
``_descent``: the direction is the negative nodal gradient, scaled per node by
a diagonal curvature estimate, and every accepted step satisfies the Armijo
sufficient-decrease condition under backtracking (up to the floating-point
resolution of the objective). The trial step per iteration is the two-point
(Barzilai-Borwein) quotient in the scaled metric. No curvature matrices are
ever formed; the diagonal scaling is what lets dead-core problems, whose
reaction slope is unbounded near zero values, reach tight residuals within the
desk-scale iteration budgets.

The engine has two objectives. ``_Energy`` is the discrete energy: it owns
projection at zero, the constant-shift walk of natural-boundary problems and
the divergence diagnosis. ``_Rayleigh`` is the Rayleigh quotient, unscaled: it
owns the renormalization of every accepted iterate to unit lumped p-norm. Both
share the flux kernel of ``energy.DiffusionPlan`` and its p < 2 weight floor.

Runs are deterministic: identical problem, options, and seed reproduce the
iterate sequence bitwise (sequential execution, per-start seeded generators).
"""

import math
from dataclasses import dataclass

import numpy as np

from .energy import (
    DiffusionPlan,
    EnergyBreakdown,
    check_admissible,
    energy_grad_and_scaling,
    energy_parts,
    energy_total,
)
from .grid import Grid, ScalarField
from .model import DiffusionSpec, ProblemSpec

DIVERGENCE_ENERGY = -1e12
DIVERGENCE_DOUBLINGS = 10
DIVERGENCE_NORM_FACTOR = 1e3
MEAN_SHIFT_CADENCE = 8
# Armijo backtracking: the factor a rejected trial step shrinks by, and the
# fraction of the first-order decrease an accepted step must achieve
BACKTRACK_SHRINK = 0.5
SUFFICIENT_DECREASE = 1e-4

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_STALLED = "stalled"
STATUS_NOT_BOUNDED_BELOW = "not_bounded_below"


@dataclass(frozen=True)
class SolveOptions:
    """Descent and line-search parameters.

    ``max_iterations=None`` resolves to 50000 on 1D grids and 20000 in 2D.
    """

    max_iterations: int | None = None
    residual_tolerance: float = 1e-9
    initial_step: float = 1.0
    random_seed: int = 0

    def __post_init__(self):
        if not (self.residual_tolerance > 0 and self.initial_step > 0):
            raise ValueError("residual tolerance and initial step must be positive")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError(f"max_iterations must be nonnegative, got {self.max_iterations}")
        if self.random_seed < 0:
            raise ValueError(f"random_seed must be nonnegative, got {self.random_seed}")

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


def _descent(objective, values: np.ndarray, budget: int, opts: SolveOptions):
    """Scaled Barzilai-Borwein descent with Armijo backtracking on ``objective``.

    The objective provides ``gradient(u) -> (value, gradient, scaling)`` (a
    positive per-node scaling, or None), ``value(u)`` at trial points, the
    flag ``project`` (truncate trial points at zero), the residual's index
    ``free``, the ``stall_step`` below which trial step times direction norm
    gives up, and ``accepted(u, value, iteration) -> (u, value, status)``,
    run after each accepted step; a status other than None ends the descent.
    Returns (values, residual, iterations, status, value history).
    """
    n_sqrt = math.sqrt(len(values))
    eps = float(np.finfo(float).eps)
    u = values
    step = opts.initial_step
    prev_u = prev_g = None
    history = []
    for iteration in range(budget + 1):
        value, g, scaling = objective.gradient(u)
        history.append(value)
        g_free = g[objective.free]
        residual = math.sqrt(g_free @ g_free) / n_sqrt
        if residual <= opts.residual_tolerance:
            return u, residual, iteration, STATUS_CONVERGED, history
        if iteration == budget:
            return u, residual, iteration, STATUS_MAX_ITERATIONS, history

        # Descent direction: negative gradient scaled by the per-node
        # curvature estimate (dead-core tails otherwise pin the step size for
        # the whole mesh). Trial step from the two-point quotient in the
        # scaled metric, safeguarded, then Armijo-backtracked.
        direction = g if scaling is None else g / scaling
        if prev_u is not None:
            s = u - prev_u
            y = g - prev_g
            sy = float(s @ y)
            scaled_s = s if scaling is None else scaling * s
            trial = float(s @ scaled_s) / sy if sy > 0 else step * 4.0
        else:
            trial = step
        if not math.isfinite(trial):
            trial = step
        trial = min(max(trial, 1e-13), 1e13)

        # Sufficient decrease is required whenever the value can resolve it;
        # once the demanded decrease sinks below the value's floating-point
        # resolution, a step is accepted as long as no resolvable increase
        # shows up (otherwise tight residual tolerances are unreachable).
        slack = 16.0 * eps * (1.0 + abs(value))
        while True:
            candidate = u - trial * direction
            if objective.project:
                np.maximum(candidate, 0.0, out=candidate)
            decrease = SUFFICIENT_DECREASE * float(g @ (u - candidate))
            trial_value = objective.value(candidate)
            if math.isfinite(trial_value) and (
                trial_value <= value - decrease
                or (decrease <= slack and trial_value <= value + slack)
            ):
                break
            trial *= BACKTRACK_SHRINK
            if trial * math.sqrt(direction @ direction) < objective.stall_step:
                return u, residual, iteration, STATUS_STALLED, history

        prev_u, prev_g, step = u, g, trial
        u, value, status = objective.accepted(candidate, trial_value, iteration)
        if status is not None:
            history.append(value)
            return u, residual, iteration + 1, status, history


class _Energy:
    """The discrete energy as a descent objective.

    It looks up the module-level energy functions on every call, so wrappers
    installed on those names see every evaluation.
    """

    def __init__(self, ps: ProblemSpec, values: np.ndarray, project: bool):
        self.ps = ps
        self.free = ps.free_nodes
        self.project = project
        self.current = energy_total(ps, values)
        if not math.isfinite(self.current):
            raise ValueError("initial field has non-finite energy")
        self.initial = self.current
        self.watermark = float(np.abs(values).max())
        self.stall_step = 1e-18 * (1.0 + self.watermark)
        self.doublings = 0
        self.norm_limit = DIVERGENCE_NORM_FACTOR * (1.0 + self.watermark)
        self.shift_scale = 1.0 if ps.boundary == "natural" else None

    def value(self, u: np.ndarray) -> float:
        return energy_total(self.ps, u)

    def gradient(self, u: np.ndarray):
        g, scaling = energy_grad_and_scaling(self.ps, u)
        return self.current, g, scaling

    def accepted(self, u: np.ndarray, value: float, iteration: int):
        if self.shift_scale is not None and iteration % MEAN_SHIFT_CADENCE == 0:
            u, value, unbounded = self._shift_walk(u, value)
            if unbounded:
                return u, value, STATUS_NOT_BOUNDED_BELOW
        self.current = value
        if value < DIVERGENCE_ENERGY:
            return u, value, STATUS_NOT_BOUNDED_BELOW
        u_max = float(np.abs(u).max())
        self.stall_step = 1e-18 * (1.0 + u_max)
        if u_max >= 2.0 * self.watermark:
            self.doublings += 1
            self.watermark = u_max
        elif u_max < 0.5 * self.watermark:
            self.doublings = 0
            self.watermark = u_max
        diverged = (
            self.doublings >= DIVERGENCE_DOUBLINGS
            and u_max >= self.norm_limit
            and value < min(self.initial, 0.0)
        )
        return u, value, STATUS_NOT_BOUNDED_BELOW if diverged else None

    def _shift_walk(self, u: np.ndarray, value: float):
        """Scalar search along constant shifts (natural boundary condition only).

        The diffusion energy cannot see constant shifts, so descent creeps
        along that mode; a doubling walk on the shift handles it directly. Ten
        straight energy-decreasing doublings past the norm limit is the
        unbounded-energy diagnosis (the known escape ray for noncoercive
        natural-BC problems). Downward shifts on projected problems stop where
        a node would clamp, so the walk cannot tunnel across basins to the
        trivial critical point. Returns (values, energy, unbounded).
        """
        best_c = 0.0
        best_e = value
        best_u = u
        down_limit = float(u.min()) if self.project else np.inf
        for sign in (1.0, -1.0):
            c = sign * self.shift_scale
            doublings = 0
            while abs(c) <= 1e14 and (sign > 0 or abs(c) <= down_limit):
                candidate = u + c
                e_candidate = energy_total(self.ps, candidate)
                if not (math.isfinite(e_candidate) and e_candidate < best_e):
                    break
                best_c, best_e, best_u = c, e_candidate, candidate
                doublings += 1
                if doublings >= DIVERGENCE_DOUBLINGS and abs(c) >= self.norm_limit:
                    return best_u, best_e, True
                c *= 2.0
            if best_c != 0.0:
                break
        if best_c != 0.0:
            self.shift_scale = max(abs(best_c) * 0.5, 1e-14)
        else:
            self.shift_scale = max(self.shift_scale * 0.25, 1e-14)
        return best_u, best_e, False


def minimize(ps: ProblemSpec, init: ScalarField, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Descend from ``init`` until the stationarity residual meets tolerance.

    Divergence is reported with status ``not_bounded_below``; it is diagnosed
    from an energy below -1e12, from ten cumulative norm doublings far above
    the initial scale with the energy decreasing, or (natural boundary) from a
    runaway doubling walk along constant shifts. Coercivity is otherwise the
    caller's concern.

    Iterates are truncated at zero when the reaction uses the zero negative
    extension. Truncation is 1-Lipschitz nodally, so it never increases the
    discrete energy on interval or right-triangle meshes, and it keeps descent
    out of the flat negative-value basin that the zero extension creates.
    """
    if init.grid is not ps.grid:
        raise ValueError("initial field and problem live on different grids")
    if ps.reaction.negative_extension == "none":
        raise ValueError(
            "minimization needs a negative extension on the reaction so the "
            "energy is defined on every trial field"
        )
    check_admissible(ps, init.values)
    project = ps.reaction.negative_extension == "zero"
    values = np.maximum(init.values, 0.0) if project else init.values
    objective = _Energy(ps, values, project)
    values, residual, iterations, status, history = _descent(
        objective, values, opts.budget(ps.grid), opts
    )
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


class _Rayleigh:
    """The Rayleigh quotient as a descent objective, on the zero-boundary space.

    The quotient D(u) / (sum m |u|^p / p), D the value of a constant ``DiffusionPlan``,
    is 0-homogeneous, so the line search works on unnormalized trial points;
    renormalization reuses the lumped p-mass, sum m |u|^p, of the accepted one.
    """

    project = False
    free = slice(None)  # the gradient is zeroed on the boundary
    stall_step = 1e-18  # iterates have unit p-norm

    def __init__(self, grid: Grid, p: float):
        self.grid = grid
        self.plan = DiffusionPlan(grid, DiffusionSpec("constant", p))
        self.p = p
        self.mass = None  # lumped p-mass of the last trial point

    def normalize(self, u: np.ndarray) -> np.ndarray:
        return u / float(self.grid.node_mass @ np.abs(u) ** self.p) ** (1.0 / self.p)

    def value(self, u: np.ndarray) -> float:
        numerator = self.plan.diffusion_value(self.plan.gather(u)[1])
        self.mass = float(self.grid.node_mass @ np.abs(u) ** self.p)
        return numerator / (self.mass / self.p) if self.mass > 0 else math.inf

    def gradient(self, u: np.ndarray):
        grid, p = self.grid, self.p
        grads, norms = self.plan.gather(u)
        flux, _ = self.plan.diffusion_flux(grads, norms)
        magnitude = np.abs(u)
        mass = float(grid.node_mass @ magnitude**p) / p
        rayleigh = self.plan.diffusion_value(norms) / mass
        mass_grad = grid.node_mass * np.sign(u) * magnitude ** (p - 1.0)
        g = (flux - rayleigh * mass_grad) / mass
        g[grid.boundary_nodes] = 0.0
        return rayleigh, g, None

    def accepted(self, u: np.ndarray, value: float, iteration: int):
        return u / self.mass ** (1.0 / self.p), value, None


def first_eigenvalue(grid: Grid, p: float, opts: SolveOptions = SolveOptions()) -> EigenReport:
    """Minimize the Rayleigh quotient over the zero-boundary discrete space.

    The eigenfunction has unit lumped p-norm and nonnegative mean.
    """
    if not p > 1:
        raise ValueError(f"exponent p must exceed 1, got {p}")
    rng = np.random.default_rng(opts.random_seed)
    u = np.zeros(grid.n_nodes)
    u[grid.interior_nodes] = rng.uniform(0.5, 1.5, len(grid.interior_nodes))
    objective = _Rayleigh(grid, p)
    u, residual, iterations, status, history = _descent(
        objective, objective.normalize(u), opts.budget(grid), opts
    )
    u = objective.normalize(u)
    if float(grid.node_mass @ u) < 0.0:
        u = -u
    return EigenReport(
        lambda1=p * objective.plan.diffusion_value(objective.plan.gather(u)[1]),
        eigenfunction=ScalarField(grid, u),
        rayleigh_history=np.asarray(history),
        iterations=iterations,
        converged=status == STATUS_CONVERGED,
        residual=residual,
    )
