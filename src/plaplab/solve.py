"""Energy minimization, multi-start experiments, and the first eigenvalue.

Both minimizations run through one monotone first-order descent engine,
``_descent``: the direction is the nodal gradient preconditioned by the
objective's P, and every accepted step satisfies the Armijo sufficient-decrease
condition under backtracking (up to the floating-point resolution of the
objective). The trial step per iteration is the two-point (Barzilai-Borwein)
quotient in P's metric; the first trial is the full preconditioned step,
which P itself scales (capped by the energy's reach; for the quotient, an
inverse-iteration step).

Both objectives take as P the weighted stiffness ``WeightedStiffness`` of the
current iterate. ``_Energy`` is the discrete energy; its P adds the lumped
positive reaction curvature (dead-core reaction slopes are unbounded near 0)
and, on natural-boundary problems, 1e-8 times the lumped mass. It caps each
step's reach at half the iterate's sup norm, and owns projection at zero and
the divergence diagnosis. ``_Rayleigh`` is the Rayleigh quotient; it owns the
renormalization of every accepted iterate to unit lumped p-norm. Both share
``energy.DiffusionPlan``'s flux kernel, its p < 2 weight floor and its
stiffness weights and bands.

Where w = 1 and p = 2, ``minimize`` first refines the start by Picard steps, each
scaled to its ray's least energy (``_picard_start``), in place of sup-halving steps.
There, on the builders' rectangles held at zero, K's exact sine-transform solve (four
DST-I matrix products) preconditions P's inner conjugate gradients.

Runs are deterministic: identical problem, options, and seed reproduce the
iterate sequence bitwise (sequential execution, per-start seeded generators)
under a fixed BLAS thread count. The 2D matrix products go through BLAS, whose
summation order may follow its thread count: 64^2 solves are equal under one
and two threads, larger ones can differ in their last bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .energy import (
    DiffusionPlan,
    EnergyBreakdown,
    check_admissible,
    energy_grad_values,
    energy_parts,
    energy_total,
    ray_energies,
    reaction_curvature,
    stationarity_residual,
)
from .grid import Grid, ScalarField, sine_solver
from .model import DiffusionSpec, ProblemSpec

DIVERGENCE_ENERGY = -1e12
DIVERGENCE_DOUBLINGS = 10
DIVERGENCE_NORM_FACTOR = 1e3
# The first trial step, in units of the preconditioned gradient
INITIAL_STEP = 1.0
# Armijo backtracking: the factor a rejected trial step shrinks by, and the
# fraction of the first-order decrease an accepted step must achieve
BACKTRACK_SHRINK = 0.5
SUFFICIENT_DECREASE = 1e-4
# The weighted stiffness's inner solve off interval chains stops at this
# relative residual
INNER_TOLERANCE = 0.1
# On natural-boundary problems the energy's preconditioner adds this multiple
# of the lumped mass, which makes it definite on the constants
NATURAL_MASS_SHIFT = 1e-8
# Picard steps of a p = 2 start, and the powers of two that scale each along its ray
PICARD_STEPS = 2
RAY_SCALES = np.ldexp(1.0, np.arange(-60, 61))

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
    random_seed: int = 0

    def __post_init__(self):
        if not self.residual_tolerance > 0:
            raise ValueError("residual tolerance must be positive")
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
    status: str
    energy_history: np.ndarray

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


def _descent(objective, values: np.ndarray, budget: int, opts: SolveOptions):
    """Preconditioned Barzilai-Borwein descent with Armijo backtracking on ``objective``.

    The objective provides ``gradient(u) -> (value, gradient, P)``, where the
    preconditioner P gives the direction ``P.direction(g)`` (P^-1 g) and the
    metric ``P.metric(s)`` (P s) of the trial step; ``value(u)`` at trial
    points, the flag ``project`` (truncate trial points at zero), the
    residual's index ``free``, the ``stall_step`` below which trial step times
    direction norm gives up, the ``reach`` that caps trial step times the
    direction's sup norm (None or 0: no cap), and ``accepted(u, value) ->
    (u, status)``, run after each accepted step; a status other than None ends
    the descent once the returned ``u``'s gradient and residual are in. The
    first trial step is INITIAL_STEP, then the two-point quotient. Returns
    (values, residual, iterations, status, history).
    """
    eps = float(np.finfo(float).eps)
    u = values
    step = INITIAL_STEP
    prev_u = prev_g = status = None
    history = []
    for iteration in range(budget + 1):
        value, g, precondition = objective.gradient(u)
        history.append(value)
        residual = stationarity_residual(g, objective.free)
        if status is not None:
            return u, residual, iteration, status, history
        if residual <= opts.residual_tolerance:
            return u, residual, iteration, STATUS_CONVERGED, history
        if iteration == budget:
            return u, residual, iteration, STATUS_MAX_ITERATIONS, history

        # Descent direction: the preconditioned gradient (a bare gradient
        # lets dead-core tails or flat elements pin the step size for the
        # whole mesh). Trial step from the two-point quotient in P's metric,
        # safeguarded, then Armijo-backtracked.
        direction = precondition.direction(g)
        if prev_u is not None:
            s = u - prev_u
            y = g - prev_g
            sy = float(s @ y)
            trial = float(s @ precondition.metric(s)) / sy if sy > 0 else step * 4.0
        else:
            trial = step
        if not math.isfinite(trial):
            trial = step
        trial = min(max(trial, 1e-13), 1e13)
        if objective.reach:
            d_max = float(np.abs(direction).max())
            if trial * d_max > objective.reach:
                trial = objective.reach / d_max

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
            # not >=, so that a NaN direction (an overflowed gradient) stalls too
            if not trial * math.sqrt(direction @ direction) >= objective.stall_step:
                return u, residual, iteration, STATUS_STALLED, history

        prev_u, prev_g, step = u, g, trial
        u, status = objective.accepted(candidate, trial_value)


class _Energy:
    """The discrete energy as a descent objective.

    Its preconditioner is the iterate's weighted stiffness plus the lumped
    positive reaction curvature (and NATURAL_MASS_SHIFT times the lumped mass
    on natural-boundary problems). A step moves no node by more than half the
    iterate's sup norm (``reach``): a full step of this Newton-like direction
    from a rough start can land every node on the trivial point at once; it stays
    for starts ``minimize`` does not refine (p != 2, w != 1) or refines in vain
    (no step below energy 0), and does not bind at a refined start's scale.
    Only a Dirichlet P takes the plan's sine table; a natural K is singular. It
    looks up the module-level energy functions on every call, so wrappers
    installed on those names see every evaluation. It keeps the gradient norms
    of the last point it evaluated, so the gradient of an accepted trial point
    does not gather it again.
    """

    def __init__(self, ps: ProblemSpec, values: np.ndarray, project: bool):
        self.ps = ps
        self.free = ps.free_nodes
        self.project = project
        self.current = self.value(values)
        if not math.isfinite(self.current):
            raise ValueError("initial field has non-finite energy")
        self.initial = self.current
        self.watermark = float(np.abs(values).max())
        self.stall_step = 1e-18 * (1.0 + self.watermark)
        self.reach = 0.5 * self.watermark
        self.doublings = 0
        self.norm_limit = DIVERGENCE_NORM_FACTOR * (1.0 + self.watermark)
        self.held = ps.held_nodes
        self.mass_shift = None if ps.is_dirichlet else NATURAL_MASS_SHIFT * ps.grid.node_mass
        self.sines = ps.plan.sines if ps.is_dirichlet else None

    def value(self, u: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            self.evaluated = u, self.ps.plan.gather(u)
        return energy_total(self.ps, u, self.evaluated[1])

    def gradient(self, u: np.ndarray):
        plan, (point, norms) = self.ps.plan, self.evaluated
        norms = norms if point is u else plan.gather(u)
        g = energy_grad_values(self.ps, u, norms)
        shift = reaction_curvature(self.ps, u)
        if self.mass_shift is not None:
            shift += self.mass_shift
        bands = plan.stiffness_bands(norms)
        stiffness = WeightedStiffness(plan.assembly, bands, self.held, shift, self.sines)
        return self.current, g, stiffness

    def accepted(self, u: np.ndarray, value: float):
        self.current = value
        if value < DIVERGENCE_ENERGY:
            return u, STATUS_NOT_BOUNDED_BELOW
        u_max = float(np.abs(u).max())
        self.stall_step = 1e-18 * (1.0 + u_max)
        self.reach = 0.5 * u_max
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
        return u, STATUS_NOT_BOUNDED_BELOW if diverged else None


def _picard_start(objective: _Energy, values: np.ndarray) -> np.ndarray:
    """Of PICARD_STEPS refinements from ``values``, the one of least finite energy
    below both that of ``values`` and the trivial point's 0; else ``values``. Each is
    the full step u - P^-1 g (a Picard step when P = K + the lumped reaction
    curvature), times the RAY_SCALES entry of least energy; when projecting,
    P^-1 (P u - g)^+, truncated: a monotone step on the source's positive part
    (unclipped, a dead core's negative source spreads through an accurate P^-1
    and zeroes the whole field). A step to the zero field ends the refinement:
    its energy is 0, and so are its gradient and every later step."""
    u = best = values
    bound = min(objective.current, 0.0)
    for _ in range(PICARD_STEPS):
        _, g, precondition = objective.gradient(u)
        if objective.project:
            u = precondition.direction(np.maximum(precondition.metric(u) - g, 0.0))
            np.maximum(u, 0.0, out=u)
        else:
            u = u - precondition.direction(g)
        if not u.any():
            break
        u *= RAY_SCALES[np.argmin(ray_energies(objective.ps, u, RAY_SCALES))]
        value = objective.value(u)
        if -math.inf < value < bound:
            best, bound = u, value
    return best


def minimize(ps: ProblemSpec, init: ScalarField, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Descend from ``init`` until the stationarity residual meets tolerance.

    Divergence is reported with status ``not_bounded_below``; it is diagnosed
    from an energy below -1e12, or from ten cumulative norm doublings far above
    the initial scale with the energy decreasing. On natural-boundary problems
    the preconditioner's mass shift sees the constants, so an escape along them
    is a run of full preconditioned steps and trips the same rules. Coercivity
    is otherwise the caller's concern.

    Iterates are truncated at zero when the reaction uses the zero negative
    extension. Truncation is 1-Lipschitz nodally, so it never increases the
    discrete energy on interval or right-triangle meshes, and it keeps descent
    out of the flat negative-value basin that the zero extension creates.

    Where the plan holds K's bands (w = 1, p = 2) it starts from ``_picard_start``'s
    field, below energy 0 and so away from the trivial point, or else from ``init``.
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
    if ps.plan.stiffness is not None:
        values = _picard_start(_Energy(ps, values, project), values)
    objective = _Energy(ps, values, project)
    values, residual, iterations, status, history = _descent(
        objective, values, opts.budget(ps.grid), opts
    )
    return SolveReport(
        solution=ScalarField(ps.grid, values),
        energy=energy_parts(ps, values),
        residual=residual,
        iterations=iterations,
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


def random_start(ps: ProblemSpec, seed: int) -> ScalarField:
    """Nonnegative random field, uniform entries in [0, 2], zeroed on the
    problem's held nodes."""
    values = np.random.default_rng(seed).uniform(0.0, 2.0, ps.grid.n_nodes)
    values[ps.held_nodes] = 0.0
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
    return MultiStartResult(reports=reports, clusters=built)


@dataclass(frozen=True)
class EigenReport:
    lambda1: float
    eigenfunction: ScalarField
    rayleigh_history: np.ndarray
    iterations: int
    converged: bool
    residual: float


def chain_solve(bands: list, rhs: list, shift: list | None = None, natural: bool = False) -> list:
    """Nodal solution of the tridiagonal system on a chain of n elements, for a
    right-hand side of n + 1 nodal values; on a held chain both end entries are zero.

    Element i joins nodes i and i + 1 with stiffness ``bands[i]``, node i
    carries the shift d_i (n + 1 nodal values, zero when None), and node i's
    row reads -a[i-1] x[i-1] + (a[i-1] + a[i] + d[i]) x[i] - a[i] x[i+1], with
    a[-1] = a[n] = 0. The rows are the n - 1 inner nodes of a chain held at
    zero at both ends, or all n + 1 of a ``natural`` (free) one. One forward
    loop eliminates: the pivots are m_i = a_i + s_i + d_i, with
    s_(i+1) = a_i (s_i + d_i) / m_i from s_1 = a_0 (held) or s_0 = 0 (free):
    sums and products of nonnegative numbers, so no pivot cancels to zero, as
    the textbook m_(i+1) = a_i + a_(i+1) + d_(i+1) - a_i^2 / m_i does when the
    bands span many decades. The multipliers r_i = a_i / m_i carry the
    right-hand side forward and the solution back, in one backward loop.
    Python floats throughout: a loop over lists beats NumPy per-element calls.
    """
    a, s = (bands + [0.0], 0.0) if natural else (bands[1:], bands[0])
    d = [0.0] * len(a) if shift is None else shift if natural else shift[1:-1]
    scaled, ratios = [], []
    carry = 0.0
    for a_i, d_i, g in zip(a, d, rhs if natural else rhs[1:-1]):
        s += d_i
        m = a_i + s
        r = a_i / m
        s *= r
        y = g + carry
        scaled.append(y / m)
        ratios.append(r)
        carry = r * y
    x, solution = 0.0, []  # the held end, or a zero past the free one
    for q, r in zip(reversed(scaled), reversed(ratios)):
        x = q + r * x
        solution.append(x)
    solution.reverse()
    return solution if natural else [0.0, *solution, 0.0]


class WeightedStiffness:
    """The weighted stiffness K_w of Huang, Li & Liu (J. Sci. Comput. 32, 2007)
    plus a nodal shift d, as a descent preconditioner:
    (P v)_i = sum_e c_e grad v . grad phi_i + d_i v_i, with element weights c_e,
    on the space held at zero on the nodes ``held`` (empty: all nodes are free).

    ``direction`` solves P x = g, taking g as zero on ``held`` (a g zero
    elsewhere gives x = 0): exactly by ``chain_solve`` on the grid builders'
    intervals (``assembly.cells`` one-dimensional), else by matrix-free
    conjugate gradients preconditioned with ``preconditioner()``, stopped at
    relative residual ``tolerance``, in buffers allocated once per call.
    ``metric`` is the product. The sweep, the product and the diagonal all
    read ``bands``, the edge bands ``assembly.edge_bands`` builds from the
    element weights; ``sines`` is their ``sine_table`` where they are K's.
    """

    def __init__(self, assembly, bands, held: np.ndarray, shift=None, sines=None):
        self.assembly = assembly
        self.held = held
        self.shift = shift
        self.bands = bands
        self.sines = sines

    def metric(self, s: np.ndarray, out=None, work=None) -> np.ndarray:
        out = self.assembly.band_product(self.bands, s, out, work)
        if self.shift is not None:
            out += np.multiply(self.shift, s, out=work)
        out[self.held] = 0.0
        return out

    def preconditioner(self):
        """The conjugate gradients' M^-1 as a function (r, z) -> z writing M^-1 r
        to ``z``, for r zero on ``held`` and z zero on the boundary, with its own
        buffers. Without ``sines``, r over P's diagonal. With them, block
        diagonal: r over P's diagonal on the stiff nodes, whose shift exceeds
        K's diagonal, and on the others the sine solve K^-1 of r with the stiff
        entries zeroed (``sine_solver``: four matrix products). Each block is SPD."""
        diagonal = self.assembly.band_diagonal(self.bands)
        shift = self.shift
        stiff = [] if shift is None or self.sines is None else np.flatnonzero(shift > diagonal)
        if shift is not None:
            diagonal += shift
        diagonal[self.held] = 1.0
        if self.sines is None:
            return lambda r, z: np.divide(r, diagonal, out=z)
        solve, stiff_diagonal, soft = sine_solver(self.sines), diagonal[stiff], diagonal.copy()

        def apply(r, z):
            np.copyto(soft, r)
            soft[stiff] = 0.0
            solve(soft, z)
            z[stiff] = r[stiff] / stiff_diagonal
            return z

        return apply

    def direction(self, g: np.ndarray, tolerance: float = INNER_TOLERANCE) -> np.ndarray:
        cells, bands, shift = self.assembly.cells, self.bands, self.shift
        if cells is not None and len(cells) == 1:
            shift = None if shift is None else shift.tolist()
            return np.array(chain_solve(bands[0].tolist(), g.tolist(), shift, not len(self.held)))
        precondition = self.preconditioner()
        x = np.zeros_like(g)
        r = g.copy()
        r[self.held] = 0.0
        rr = float(r @ r)
        if rr == 0.0:
            return x
        z = precondition(r, np.zeros_like(g))
        d, kd, t = z.copy(), np.empty_like(g), np.empty_like(g)
        rz = float(r @ z)
        stop = tolerance**2 * rr
        for _ in range(len(g)):
            kd = self.metric(d, kd, t)
            alpha = rz / float(d @ kd)
            x += np.multiply(d, alpha, out=t)
            r -= np.multiply(kd, alpha, out=t)
            if float(r @ r) <= stop:
                break
            precondition(r, z)
            rz, rz_old = float(r @ z), rz
            d *= rz / rz_old
            d += z
        return x


class _Rayleigh:
    """The Rayleigh quotient as a descent objective, on the zero-boundary space.

    The quotient D(u) / (sum m |u|^p / p), D the value of a constant ``DiffusionPlan``,
    is 0-homogeneous, so the line search works on unnormalized trial points;
    renormalization reuses the lumped p-mass, sum m |u|^p, of the accepted one.
    Its preconditioner is the weighted stiffness with element weights
    volume * max(|grad u|, STIFFNESS_GRAD_FLOOR)^(p-2): for p = 2 the stiffness
    itself, which makes the descent an inverse iteration.
    """

    project = False
    free = slice(None)  # the gradient is zeroed on ``held``
    stall_step = 1e-18  # iterates have unit p-norm
    reach = None  # the quotient is 0-homogeneous: no step is too long

    def __init__(self, grid: Grid, p: float):
        self.grid = grid
        self.held = grid.boundary_nodes
        self.plan = DiffusionPlan(grid, DiffusionSpec("constant", p))
        self.p = p
        self.mass = None  # lumped p-mass of the last trial point

    def normalize(self, u: np.ndarray) -> np.ndarray:
        return u / float(self.grid.node_mass @ np.abs(u) ** self.p) ** (1.0 / self.p)

    def value(self, u: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            numerator = self.plan.diffusion_value(self.plan.gather(u))
            self.mass = float(self.grid.node_mass @ np.abs(u) ** self.p)
        return numerator / (self.mass / self.p) if self.mass > 0 else math.inf

    def gradient(self, u: np.ndarray):
        grid, p, plan = self.grid, self.p, self.plan
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow stalls the descent
            norms = plan.gather(u)
            flux = plan.diffusion_flux(u, norms)
            magnitude = np.abs(u)
            mass = float(grid.node_mass @ magnitude**p) / p
            rayleigh = plan.diffusion_value(norms) / mass
            mass_grad = grid.node_mass * np.sign(u) * magnitude ** (p - 1.0)
            g = (flux - rayleigh * mass_grad) / mass
            bands = plan.stiffness_bands(norms)
        g[self.held] = 0.0
        return rayleigh, g, WeightedStiffness(plan.assembly, bands, self.held, sines=plan.sines)

    def accepted(self, u: np.ndarray, value: float):
        return u / self.mass ** (1.0 / self.p), None


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
    with np.errstate(over="ignore", invalid="ignore"):
        lambda1 = p * objective.plan.diffusion_value(objective.plan.gather(u))
    return EigenReport(
        lambda1=lambda1,
        eigenfunction=ScalarField(grid, u),
        rayleigh_history=np.asarray(history),
        iterations=iterations,
        converged=status == STATUS_CONVERGED,
        residual=residual,
    )
