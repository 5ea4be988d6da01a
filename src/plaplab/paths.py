"""Power-mean interpolation paths and discrete convexity diagnostics.

The central object is the path between two nonnegative fields

    path(t) = ((1 - t) * u^q + t * v^q)^(1/q),      t in [0, 1],

along which the diffusion energy is convex whenever the weight is
nondecreasing, and the full energy is convex whenever the reaction passes the
subhomogeneity audit at the same exponent q. On 1D grids with lumped reaction
quadrature this convexity is exact at the discrete level, so the profile
routine asserts it; in 2D the element-gradient version carries interpolation
error and is reported as a diagnostic only.
"""

from dataclasses import dataclass

import numpy as np

from .energy import check_admissible, energy_parts
from .errors import InvariantViolation
from .grid import ScalarField
from .model import AuditResult, ProblemSpec, ReactionSpec, audit_samples, audit_subhomogeneity

STRICTNESS_GAP = 1e-10
EXACT_1D_TOL = 1e-10
DEFAULT_T_SAMPLES = 41
SLAB_VALUES = 32768  # values per slab of the grid certificate: 256 KB of float64


def check_endpoints(u: ScalarField, v: ScalarField, ps: ProblemSpec | None = None) -> None:
    """Path endpoints are nonnegative fields on one grid, admissible for ``ps`` if given."""
    if u.grid is not v.grid:
        raise ValueError("endpoint fields live on different grids")
    if np.any(u.values < 0) or np.any(v.values < 0):
        raise ValueError("path endpoints must be nonnegative fields")
    if ps is not None:
        check_admissible(ps, u.values)
        check_admissible(ps, v.values)


def _power_mean(u, v, q, t):
    return ((1.0 - t) * u**q + t * v**q) ** (1.0 / q)


def _excess(d_path, d_u, d_v, p, t):
    """|d_path|^p - ((1 - t) |d_u|^p + t |d_v|^p); nonpositive where the inequality holds."""
    return np.abs(d_path) ** p - ((1.0 - t) * np.abs(d_u) ** p + t * np.abs(d_v) ** p)


def power_path_values(u: np.ndarray, v: np.ndarray, q: float, t: float) -> np.ndarray:
    """Nodal values of the q-power interpolation at parameter t."""
    if not q > 1:
        raise ValueError(f"path exponent must exceed 1, got q={q}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"path parameter must lie in [0, 1], got t={t}")
    if t == 0.0:
        return u.copy()
    if t == 1.0:
        return v.copy()
    return _power_mean(u, v, q, t)


def power_path(u: ScalarField, v: ScalarField, q: float, t: float) -> ScalarField:
    """q-power interpolation between nonnegative fields; exact at the endpoints."""
    check_endpoints(u, v)
    return ScalarField(u.grid, power_path_values(u.values, v.values, q, t))


def edge_difference_violation(ui, uj, vi, vj, p, q, t):
    """Excess of |path difference|^p over the convex bound, per edge quadruple.

    Evaluates |d_path|^p - ((1 - t) |d_u|^p + t |d_v|^p) where d_u = uj - ui
    etc.; nonpositive values mean the scalar hidden-convexity inequality holds.
    All arguments broadcast, so randomized suites can run in one call.
    """
    ui, uj, vi, vj = (np.asarray(x, dtype=float) for x in (ui, uj, vi, vj))
    t = np.asarray(t, dtype=float)
    d_path = _power_mean(uj, vj, q, t) - _power_mean(ui, vi, q, t)
    return _excess(d_path, uj - ui, vj - vi, p, t)


@dataclass(frozen=True)
class HiddenConvexityReport:
    """Pointwise convexity-inequality check at one path parameter."""

    mode: str
    t: float
    max_violation: float
    active_set: np.ndarray  # edges/elements where the endpoints differ and move
    strict_set: np.ndarray  # subset where a strict gap was observed

    @property
    def n_active(self) -> int:
        return int(self.active_set.sum())

    @property
    def n_strict(self) -> int:
        return int(self.strict_set.sum())


def pointwise_hidden_convexity(
    u: ScalarField,
    v: ScalarField,
    p: float,
    q: float,
    t: float,
    mode: str = "edge_differences",
) -> HiddenConvexityReport:
    """Check the pointwise convexity inequality along the path at parameter t.

    ``edge_differences`` evaluates the scalar inequality on every mesh edge,
    the exact discrete analogue. ``element_gradients`` evaluates it on P1
    element gradients, which in 2D is subject to interpolation error and is
    therefore diagnostic only.
    """
    check_endpoints(u, v)
    if q > p:
        raise ValueError(f"requires q <= p, got q={q} > p={p}")
    grid = u.grid
    gamma = power_path_values(u.values, v.values, q, t)

    if mode == "edge_differences":
        i, j = grid.edges[:, 0], grid.edges[:, 1]
        du = np.abs(u.values[j] - u.values[i])
        dv = np.abs(v.values[j] - v.values[i])
        excess = _excess(gamma[j] - gamma[i], du, dv, p, t)
        differs = (u.values[i] != v.values[i]) | (u.values[j] != v.values[j])
        active = differs & ((du + dv) > 0)
    elif mode == "element_gradients":
        assembly = grid.assembly
        gu, gv, gg = (assembly.norms(assembly.gradients(w)) for w in (u.values, v.values, gamma))
        excess = _excess(gg, gu, gv, p, t)
        differs = np.any(u.values[grid.elements] != v.values[grid.elements], axis=1)
        active = differs & ((gu + gv) > 0)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    return HiddenConvexityReport(
        mode=mode,
        t=t,
        max_violation=float(excess.max()) if len(excess) else 0.0,
        active_set=active,
        strict_set=active & (excess < -STRICTNESS_GAP),
    )


@dataclass(frozen=True)
class PathDiagnostics:
    """Sampled energies along the path with convexity second differences."""

    t_samples: np.ndarray
    diffusion_energy: np.ndarray
    total_energy: np.ndarray
    second_difference_D: np.ndarray  # length n - 2
    second_difference_I: np.ndarray
    pointwise_max_violation: float
    strict_convexity_witness: tuple[float, float, float] | None
    degenerate_constant_pair: bool

    @property
    def min_second_difference_D(self) -> float:
        return float(self.second_difference_D.min())

    @property
    def min_second_difference_I(self) -> float:
        return float(self.second_difference_I.min())

    @property
    def strictly_convex_diffusion(self) -> bool:
        return self.strict_convexity_witness is not None


def path_energy_profile(
    ps: ProblemSpec,
    u: ScalarField,
    v: ScalarField,
    q: float,
    n_samples: int = DEFAULT_T_SAMPLES,
) -> PathDiagnostics:
    """Sample the diffusion and total energy along the path between u and v.

    On 1D grids, when q does not exceed the diffusion exponent and the
    reaction passes the subhomogeneity audit at q, the discrete total energy
    is exactly convex along the path; a second difference below -1e-10 then
    raises ``InvariantViolation``. Otherwise convexity is reported, not
    asserted. Energies that overflow float64 raise ``ValueError``.
    """
    check_endpoints(u, v, ps)
    if n_samples < 3:
        raise ValueError(f"need at least 3 path samples, got {n_samples}")
    grid = ps.grid
    ts = np.linspace(0.0, 1.0, n_samples)
    diffusion = np.empty(n_samples)
    total = np.empty(n_samples)
    max_violation = -np.inf
    i, j = grid.edges[:, 0], grid.edges[:, 1]
    du = u.values[j] - u.values[i]
    dv = v.values[j] - v.values[i]
    for k, t in enumerate(ts):
        gamma = power_path_values(u.values, v.values, q, t)
        d_part, r_part = energy_parts(ps, gamma)
        diffusion[k] = d_part
        total[k] = d_part - r_part
        excess = _excess(gamma[j] - gamma[i], du, dv, ps.diffusion.p, t)
        max_violation = max(max_violation, float(excess.max()))

    if not np.isfinite(total).all():  # finite only where both parts are; nan passes sign tests
        raise ValueError("path energies overflow float64 on these endpoints")
    d2_D = diffusion[:-2] - 2.0 * diffusion[1:-1] + diffusion[2:]
    d2_I = total[:-2] - 2.0 * total[1:-1] + total[2:]

    witness = None
    strict_idx = np.flatnonzero(d2_D > STRICTNESS_GAP)
    if len(strict_idx):
        k = int(strict_idx[0])
        witness = (float(ts[k]), float(ts[k + 1]), float(ts[k + 2]))

    degenerate = np.ptp(u.values) == 0.0 and np.ptp(v.values) == 0.0

    if (
        grid.dimension == 1
        and q <= ps.diffusion.p
        and audit_subhomogeneity(ps.reaction, q, grid=grid).passed
        and d2_I.min() < -EXACT_1D_TOL
    ):
        raise InvariantViolation(
            f"1D path energy lost exact convexity: min second difference "
            f"{d2_I.min():.3e} below -{EXACT_1D_TOL:g}"
        )

    return PathDiagnostics(
        t_samples=ts,
        diffusion_energy=diffusion,
        total_energy=total,
        second_difference_D=d2_D,
        second_difference_I=d2_I,
        pointwise_max_violation=max_violation,
        strict_convexity_witness=witness,
        degenerate_constant_pair=bool(degenerate),
    )


@dataclass(frozen=True)
class MidpointReport:
    verdict: str  # "strict" | "equal" | "violated"
    gap: float


def midpoint_energy_test(
    ps: ProblemSpec, u: ScalarField, v: ScalarField, q: float
) -> MidpointReport:
    """Gap between the average endpoint energy and the energy at the midpoint:
    "strict" above STRICTNESS_GAP, "violated" below its negative, else "equal".

    A strictly positive gap at two equal-energy global-minimizer candidates is
    a contradiction: both cannot be global minimizers. Overflowing energies raise ``ValueError``.
    """
    check_endpoints(u, v, ps)
    mid = power_path_values(u.values, v.values, q, 0.5)
    e_u = energy_parts(ps, u.values)
    e_v = energy_parts(ps, v.values)
    e_m = energy_parts(ps, mid)
    gap = 0.5 * ((e_u[0] - e_u[1]) + (e_v[0] - e_v[1])) - (e_m[0] - e_m[1])
    if not np.isfinite(gap):
        raise ValueError("path energies overflow float64 on these endpoints")
    if gap > STRICTNESS_GAP:
        verdict = "strict"
    elif gap < -STRICTNESS_GAP:
        verdict = "violated"
    else:
        verdict = "equal"
    return MidpointReport(verdict=verdict, gap=float(gap))


def power_product(z1, z2, p: float, q: float):
    """The separable product q * z1^(1 - 1/q) * z2^(1/p), defined for z >= 0.

    Its concavity on the closed quadrant, strict on the open quadrant, is the
    scalar certificate behind the pointwise path inequality.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if np.any(z1 < 0) or np.any(z2 < 0):
        raise ValueError("power product is defined on the nonnegative quadrant")
    return q * z1 ** (1.0 - 1.0 / q) * z2 ** (1.0 / p)


@dataclass(frozen=True)
class ConcavityReport:
    max_violation: float
    n_pairs: int
    n_strict: int

    @property
    def strict_fraction(self) -> float:
        return self.n_strict / self.n_pairs if self.n_pairs else 0.0

    @property
    def passed(self) -> bool:
        return self.max_violation <= 1e-12


def _require_q_lt_p(p: float, q: float) -> None:
    if not 1 < q < p:
        raise ValueError(f"requires 1 < q < p, got q={q}, p={p}")


def power_product_concavity(p: float, q: float, z_points: np.ndarray) -> ConcavityReport:
    """Midpoint concavity of the power product over all pairs of given points.

    ``z_points`` is an (m, 2) array of finite nonnegative points. Violations
    are excesses of the averaged values over the midpoint value; strictness is
    a midpoint gap above 1e-10 between distinct points. Values that overflow
    float64 raise ``ValueError``.
    """
    _require_q_lt_p(p, q)
    z = np.asarray(z_points, dtype=float)
    if z.ndim != 2 or z.shape[1] != 2:
        raise ValueError("z_points must be an (m, 2) array")
    if not np.isfinite(z).all():
        raise ValueError("z_points must be finite")
    max_violation = -np.inf
    n_pairs = 0
    n_strict = 0
    with np.errstate(over="ignore", invalid="ignore"):
        f = power_product(z[:, 0], z[:, 1], p, q)
        for k in range(len(z)):
            mid1 = 0.5 * (z[k, 0] + z[:, 0])
            mid2 = 0.5 * (z[k, 1] + z[:, 1])
            # halves, not half the sum: the sum of two values can overflow
            gap = power_product(mid1, mid2, p, q) - (0.5 * f[k] + 0.5 * f)
            if not np.isfinite(gap).all():
                raise ValueError("power product values overflow float64 on these points")
            distinct = np.any(z != z[k], axis=1)
            max_violation = max(max_violation, float((-gap).max()))
            n_pairs += int(distinct.sum())
            n_strict += int((distinct & (gap > STRICTNESS_GAP)).sum())
    return ConcavityReport(max_violation=max_violation, n_pairs=n_pairs, n_strict=n_strict)


def _grid_axis(axis) -> np.ndarray:
    ax = np.asarray(axis, dtype=float)
    if ax.ndim != 1 or ax.size == 0 or not (np.isfinite(ax).all() and ax.min() >= 0):
        raise ValueError("a grid axis must be a non-empty 1-D array of finite nonnegative values")
    return ax


def power_product_concavity_grid(
    p: float, q: float, axis1: np.ndarray, axis2: np.ndarray | None = None
) -> ConcavityReport:
    """Exhaustive midpoint-concavity check over a tensor grid of points.

    Equivalent to ``power_product_concavity`` on the n1*n2 tensor-product
    points. Separability gives the midpoint value as m1[a, c] * m2[b, d], and
    the midpoint gap is bitwise symmetric in the two points, so each
    unordered pair is swept once, in cache-sized slabs of rows c
    (``SLAB_VALUES``) through buffers allocated once per call. A slab's
    averaged values come from one batched matmul of [half[a, :], 1] with
    [1; half[c, :]]: both products are exact, so each entry is the sum
    half[a, b] + half[c, d] rounded once, whatever the BLAS kernel's order.
    A slab whose least gap exceeds the strictness gap is strict throughout and
    is not counted entry by entry. Values that overflow float64 raise
    ``ValueError``.
    """
    _require_q_lt_p(p, q)
    ax1 = _grid_axis(axis1)
    ax2 = ax1 if axis2 is None else _grid_axis(axis2)
    n1, n2 = len(ax1), len(ax2)
    # per row c the right factor [1; half[c, :]] of the averaged values, where
    # half holds half the values f1[a] * f2[b] at grid points (a, b): above the
    # subnormal range halving commutes with rounding, so half[a, b] + half[c, d]
    # is bitwise the average of the two values
    right = np.ones((n1, 2, n2))
    half = right[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        f1 = q * ax1 ** (1.0 - 1.0 / q)
        f2 = ax2 ** (1.0 / p)
        m1 = q * (0.5 * (ax1[:, None] + ax1[None, :])) ** (1.0 - 1.0 / q)
        m2 = (0.5 * (ax2[:, None] + ax2[None, :])) ** (1.0 / p)
        np.multiply(0.5, f1[:, None] * f2[None, :], out=half)
        # the largest midpoint value m1[a, c] * m2[b, d] is the product of the maxima
        top = m1.max() * m2.max()
    if not all(np.isfinite(t).all() for t in (f1, f2, m1, m2, half, top)):
        raise ValueError("power product values overflow float64 on this grid")

    rows = max(1, SLAB_VALUES // (n2 * n2))
    gap = np.empty((rows, n2, n2))
    avg = np.empty((rows, n2, n2))
    strict = np.empty((rows, n2, n2), dtype=bool)
    left = np.ones((n2, 2))  # the left factor [half[a, :], 1]
    max_violation = -np.inf
    n_strict = 0
    # pairs ((a, b), (c, d)) with c >= a: a row c > a stands for both orders
    # of its pairs, the row c == a holds both orders already
    for a in range(n1):
        left[:, 0] = half[a]
        for c in range(a, n1, rows):
            k = min(rows, n1 - c)
            g, v, s = gap[:k], avg[:k], strict[:k]
            np.multiply(m1[a, c:c + k, None, None], m2, out=g)  # midpoint values
            np.matmul(left, right[c:c + k], out=v)  # averaged values
            g -= v
            low = float(g.min())
            max_violation = max(max_violation, -low)
            if low > STRICTNESS_GAP:
                # never a row c == a: its identical points have gap exactly 0
                n_strict += 2 * g.size
                continue
            np.greater(g, STRICTNESS_GAP, out=s)
            n_strict += 2 * int(np.count_nonzero(s))
            if c == a:
                n_strict -= int(np.count_nonzero(s[0]))
    n_points = n1 * n2
    repeats = [int((np.unique(ax, return_counts=True)[1] ** 2).sum()) for ax in (ax1, ax2)]
    n_pairs = n_points * n_points - repeats[0] * repeats[1]  # ordered pairs of distinct points
    return ConcavityReport(max_violation=max_violation, n_pairs=n_pairs, n_strict=n_strict)


def reaction_pullback_concavity(
    rs: ReactionSpec,
    q: float,
    s_grid: np.ndarray,
    grid=None,
) -> AuditResult:
    """Concavity of s -> G(x, s^(1/q)) on a positive sample grid, per node.

    This is the reaction-side half of path convexity: with nodal values
    s = (1 - t) u^q + t v^q affine in t, a concave pullback makes the lumped
    reaction energy concave along the path. Checked as a three-point chord
    test, which also handles non-uniform sample grids; chords may exceed the
    pullback by up to 1e-10.
    """
    s = audit_samples(s_grid, minimum=3, name="s_grid")
    a, b = rs.coefficients(grid)
    phi = rs.primitive(a[:, None], b[:, None], s[None, :] ** (1.0 / q))
    left, mid, right = s[:-2], s[1:-1], s[2:]
    w_hi = (mid - left) / (right - left)
    chord = (1.0 - w_hi) * phi[:, :-2] + w_hi * phi[:, 2:]
    violation = chord - phi[:, 1:-1]
    worst = float(violation.max())
    if worst > 1e-10:
        node, k = np.unravel_index(np.argmax(violation), violation.shape)
        return AuditResult(
            False,
            f"pullback convex by {worst:.3e} at node {node}, s={mid[k]:.6g}",
            witness=(int(node), float(mid[k])),
        )
    return AuditResult(True, f"pullback concave on {len(s)} samples (worst gap {worst:.3e})")
