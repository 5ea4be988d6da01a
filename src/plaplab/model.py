"""Diffusion and reaction nonlinearities, their primitives, and data audits.

Three diffusion weight families and four reaction families are supported, all
with closed-form primitives. The audits are sample-based: they check the
structural properties the uniqueness theory needs (nonnegative nondecreasing
diffusion weight, subhomogeneous reaction ratio, polynomial growth bound) on
logarithmically spaced sample grids rather than symbolically, because
coefficient fields are discrete nodal data.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid, ScalarField

DIFFUSION_FAMILIES = ("constant", "power_shift", "saturating")
REACTION_FAMILIES = ("pure_subhomogeneous", "two_term", "logistic", "double_power")
NEGATIVE_EXTENSIONS = ("zero", "odd", "none")
BOUNDARY_KINDS = ("dirichlet_zero", "natural")

DEFAULT_AUDIT_SAMPLES = 64


def default_audit_samples(n: int = DEFAULT_AUDIT_SAMPLES) -> np.ndarray:
    """Log-spaced positive sample grid shared by all audits."""
    return np.geomspace(1e-6, 1e3, n)


@dataclass(frozen=True)
class DiffusionSpec:
    """Gradient-dependent diffusion weight w(t) applied to |grad u|^p.

    Families:

    * ``constant``:     w(t) = 1, so the diffusion energy is the plain p-Dirichlet one.
    * ``power_shift``:  w(t) = 1 + t^(r/p - 1) with r > p, the (p, r)-Laplacian weight.
    * ``saturating``:   w(t) = 1 + t / (1 + t), bounded with sup w = 2.
    """

    family: str
    p: float
    r: float | None = None

    def __post_init__(self):
        if self.family not in DIFFUSION_FAMILIES:
            raise ValueError(f"unknown diffusion family {self.family!r}")
        if not self.p > 1:
            raise ValueError(f"exponent p must exceed 1, got {self.p}")
        if self.family == "power_shift":
            if self.r is None or not self.r > self.p:
                raise ValueError(
                    f"power_shift needs r > p, got r={self.r}, p={self.p}"
                )
        elif self.r is not None:
            raise ValueError(f"family {self.family!r} takes no exponent r")

    def value(self, t):
        """Weight w(t) for t >= 0."""
        return self._weight(_require_nonnegative(t))

    def primitive(self, t):
        """Antiderivative of the weight, vanishing at 0 (closed form per family)."""
        return self._weight_primitive(_require_nonnegative(t))

    def _weight(self, t: np.ndarray) -> np.ndarray:
        if self.family == "constant":
            return np.ones_like(t)
        if self.family == "power_shift":
            return 1.0 + t ** (self.r / self.p - 1.0)
        return 1.0 + t / (1.0 + t)

    def _weight_primitive(self, t: np.ndarray) -> np.ndarray:
        if self.family == "constant":
            return t.copy()
        if self.family == "power_shift":
            return t + (self.p / self.r) * t ** (self.r / self.p)
        return 2.0 * t - np.log1p(t)


def _require_nonnegative(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("diffusion weight is defined for nonnegative arguments only")
    return t


def _as_nodal(coefficient, grid: Grid | None) -> np.ndarray | float:
    if isinstance(coefficient, ScalarField):
        return coefficient.values
    if np.ndim(coefficient) == 0:
        return float(coefficient)
    values = np.asarray(coefficient, dtype=float)
    if grid is not None and values.shape != (grid.n_nodes,):
        raise ValueError("coefficient field does not match the grid")
    return values


@dataclass(frozen=True)
class ReactionSpec:
    """Reaction term g(x, t) with nodal coefficients and closed-form primitive.

    Families (t >= 0; behaviour for t < 0 set by ``negative_extension``):

    * ``pure_subhomogeneous``: g = a(x) t^(q-1)
    * ``two_term``:            g = a(x) t^(q-1) + b(x) t^(r-1)
    * ``logistic``:            g = a(x) t^(p-1) - b(x) t^(q-1), q > p
    * ``double_power``:        g = t^(q-1) - t^(r-1), r > q

    ``declared_growth`` is the exponent sigma claimed for the polynomial
    growth bound |g| <= C (1 + t^sigma); ``audit_growth`` verifies it.
    """

    family: str
    q: float
    r: float | None = None
    p: float | None = None
    a: object = 1.0
    b: object = 1.0
    negative_extension: str = "zero"
    declared_growth: float | None = None

    def __post_init__(self):
        if self.family not in REACTION_FAMILIES:
            raise ValueError(f"unknown reaction family {self.family!r}")
        if self.negative_extension not in NEGATIVE_EXTENSIONS:
            raise ValueError(f"unknown negative extension {self.negative_extension!r}")
        if not self.q > 1:
            raise ValueError(f"exponent q must exceed 1, got {self.q}")
        if self.family == "pure_subhomogeneous":
            if self.r is not None or self.p is not None:
                raise ValueError("pure_subhomogeneous takes only the exponent q")
        elif self.family == "two_term":
            if self.r is None or not self.r >= 1:
                raise ValueError(f"two_term needs r >= 1, got r={self.r}")
        elif self.family == "logistic":
            if self.p is None or not self.p > 1:
                raise ValueError(f"logistic needs a base exponent p > 1, got {self.p}")
            if not self.q > self.p:
                raise ValueError(
                    f"logistic needs q > p, got q={self.q}, p={self.p}"
                )
        elif self.family == "double_power":
            if self.r is None or not self.r > self.q:
                raise ValueError(f"double_power needs r > q, got r={self.r}, q={self.q}")

    @property
    def largest_exponent(self) -> float:
        exps = [self.q]
        if self.r is not None:
            exps.append(self.r)
        if self.p is not None:
            exps.append(self.p)
        return max(exps)

    @property
    def growth(self) -> float:
        """Effective growth exponent: declared, or the family's natural one."""
        if self.declared_growth is not None:
            return self.declared_growth
        return self.largest_exponent - 1.0

    @property
    def natural_subhomogeneity_exponent(self) -> float:
        """Exponent at which the monotone-ratio audit is expected to pass."""
        if self.family == "logistic":
            return self.p
        return self.q

    def coefficient_arrays(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        """Per-node (a, b) arrays broadcast against the grid."""
        n = grid.n_nodes
        a = _as_nodal(self.a, grid)
        b = _as_nodal(self.b, grid)
        a = np.full(n, a) if np.ndim(a) == 0 else a
        b = np.full(n, b) if np.ndim(b) == 0 else b
        return a, b

    def _positive_value(self, t, a, b):
        if self.family == "pure_subhomogeneous":
            return a * t ** (self.q - 1.0)
        if self.family == "two_term":
            return a * t ** (self.q - 1.0) + b * t ** (self.r - 1.0)
        if self.family == "logistic":
            return a * t ** (self.p - 1.0) - b * t ** (self.q - 1.0)
        return t ** (self.q - 1.0) - t ** (self.r - 1.0)

    def _positive_primitive(self, t, a, b):
        if self.family == "pure_subhomogeneous":
            return a * t**self.q / self.q
        if self.family == "two_term":
            return a * t**self.q / self.q + b * t**self.r / self.r
        if self.family == "logistic":
            return a * t**self.p / self.p - b * t**self.q / self.q
        return t**self.q / self.q - t**self.r / self.r

    def _positive_derivative(self, t, a, b):
        q, r, p = self.q, self.r, self.p
        if self.family == "pure_subhomogeneous":
            return a * (q - 1.0) * t ** (q - 2.0)
        if self.family == "two_term":
            return a * (q - 1.0) * t ** (q - 2.0) + b * (r - 1.0) * t ** (r - 2.0)
        if self.family == "logistic":
            return a * (p - 1.0) * t ** (p - 2.0) - b * (q - 1.0) * t ** (q - 2.0)
        return (q - 1.0) * t ** (q - 2.0) - (r - 1.0) * t ** (r - 2.0)

    def derivative(self, a, b, t):
        """dg/dt with coefficients a, b; t < 0 follows the negative extension.

        Exponents below 2 make this blow up at t = 0; callers that use it for
        curvature estimates must floor t away from zero first.
        """
        t = np.asarray(t, dtype=float)
        if np.all(t > 0):
            return self._positive_derivative(t, a, b)
        if self.negative_extension == "none":
            raise ValueError("nonpositive argument with no negative extension declared")
        with np.errstate(divide="ignore", invalid="ignore"):
            pos = self._positive_derivative(np.abs(t), a, b)
        if self.negative_extension == "zero":
            return np.where(t > 0, pos, 0.0)
        return np.where(t == 0, np.inf, pos)

    def _evaluate(self, t, a, b, primitive: bool):
        t = np.asarray(t, dtype=float)
        fn = self._positive_primitive if primitive else self._positive_value
        if np.all(t >= 0):
            return fn(t, a, b)
        return self._extended(fn, t, a, b, primitive)

    def _extended(self, fn, t, a, b, primitive: bool):
        """fn on |t|, carried over to negative t by the negative extension."""
        if self.negative_extension == "none":
            raise ValueError("negative argument with no negative extension declared")
        pos = fn(np.abs(t), a, b)
        if self.negative_extension == "zero":
            return np.where(t >= 0, pos, 0.0)
        # odd extension: g odd in t, so the primitive is even
        return pos if primitive else np.where(t >= 0, pos, -pos)

    def value(self, a, b, t):
        """g with coefficient values a, b (scalars or arrays broadcast with t)."""
        return self._evaluate(t, a, b, primitive=False)

    def primitive(self, a, b, t):
        return self._evaluate(t, a, b, primitive=True)


@dataclass(frozen=True)
class ProblemSpec:
    """Grid + diffusion + reaction + boundary condition, validated together."""

    grid: Grid
    diffusion: DiffusionSpec
    reaction: ReactionSpec
    boundary: str

    def __post_init__(self):
        if self.boundary not in BOUNDARY_KINDS:
            raise ValueError(f"unknown boundary condition {self.boundary!r}")
        rs, p = self.reaction, self.diffusion.p
        if rs.family in ("pure_subhomogeneous", "two_term", "double_power"):
            if not rs.q < p:
                raise ValueError(
                    f"{rs.family} requires q < p, got q={rs.q}, p={p}"
                )
        if rs.family == "logistic" and rs.p != p:
            raise ValueError(
                f"logistic base exponent {rs.p} must equal the diffusion exponent {p}"
            )
        # force coefficient shape validation against this grid
        rs.coefficient_arrays(self.grid)

    @property
    def is_dirichlet(self) -> bool:
        return self.boundary == "dirichlet_zero"

    @cached_property
    def free_nodes(self) -> np.ndarray:
        if self.is_dirichlet:
            return self.grid.interior_nodes
        return np.arange(self.grid.n_nodes)

    @cached_property
    def nodal_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node (a, b) as read-only copies."""
        a, b = (np.array(c, dtype=float) for c in self.reaction.coefficient_arrays(self.grid))
        a.setflags(write=False)
        b.setflags(write=False)
        return a, b

    @cached_property
    def plan(self):
        """The energy's evaluation plan (``energy.EvaluationPlan``), built on first use."""
        from .energy import EvaluationPlan  # energy imports this module

        return EvaluationPlan(self)


@dataclass(frozen=True)
class AuditResult:
    passed: bool
    detail: str
    witness: tuple | None = None
    constant: float | None = None

    def __bool__(self) -> bool:
        return self.passed


def audit_subhomogeneity(
    rs: ReactionSpec,
    q_test: float,
    t_samples: np.ndarray | None = None,
    grid: Grid | None = None,
    tol: float = 1e-12,
) -> AuditResult:
    """Check that t -> g(x, t) / t^(q_test - 1) is nonincreasing at every node.

    Sample-based: evaluated on ``t_samples`` (default log grid). A failure
    carries a witness (node, t_lo, t_hi) where the ratio increased.
    """
    t = default_audit_samples() if t_samples is None else np.asarray(t_samples, float)
    if t.ndim != 1 or len(t) < 2 or np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise ValueError("t_samples must be at least 2 increasing positive values")
    a = _as_nodal(rs.a, grid)
    b = _as_nodal(rs.b, grid)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    a, b = np.broadcast_arrays(a, b)
    ratios = rs._positive_value(t[None, :], a[:, None], b[:, None]) / t[None, :] ** (
        q_test - 1.0
    )
    increases = np.diff(ratios, axis=1)
    worst = increases.max()
    if worst > tol:
        node, step = np.unravel_index(np.argmax(increases), increases.shape)
        return AuditResult(
            False,
            f"ratio increased by {worst:.3e} at node {node} "
            f"between t={t[step]:.6g} and t={t[step + 1]:.6g}",
            witness=(int(node), float(t[step]), float(t[step + 1])),
        )
    return AuditResult(True, f"ratio nonincreasing on {len(t)} samples (q_test={q_test})")


def audit_growth(
    rs: ReactionSpec,
    dimension: int,
    exponent_cap: float,
    t_samples: np.ndarray | None = None,
    grid: Grid | None = None,
) -> AuditResult:
    """Check the polynomial growth bound |g| <= C (1 + t^sigma).

    Reports the smallest valid C on the samples. Fails when the declared sigma
    is smaller than the family's top exponent minus one (the bound cannot hold
    for large t), or when sigma violates the subcritical inequality
    sigma * (N - cap) <= (cap - 1) * N + cap for the problem's dimension N and
    leading exponent cap (the diffusion p, or r for the shifted-power family).
    """
    t = default_audit_samples() if t_samples is None else np.asarray(t_samples, float)
    sigma = rs.growth
    required = rs.largest_exponent - 1.0
    if sigma < required - 1e-12:
        return AuditResult(
            False,
            f"declared growth sigma={sigma} below family exponent {required}",
        )
    if sigma * (dimension - exponent_cap) > (exponent_cap - 1.0) * dimension + exponent_cap:
        return AuditResult(
            False,
            f"sigma={sigma} violates the subcritical inequality for "
            f"N={dimension}, cap={exponent_cap}",
        )
    a = np.atleast_1d(np.asarray(_as_nodal(rs.a, grid), dtype=float))
    b = np.atleast_1d(np.asarray(_as_nodal(rs.b, grid), dtype=float))
    a, b = np.broadcast_arrays(a, b)
    g = rs._positive_value(t[None, :], a[:, None], b[:, None])
    c = float(np.max(np.abs(g) / (1.0 + t[None, :] ** sigma)))
    return AuditResult(
        True,
        f"|g| <= C (1 + t^{sigma}) with smallest sampled C={c:.6g}",
        constant=c,
    )


def audit_diffusion(d: DiffusionSpec, t_samples: np.ndarray | None = None) -> AuditResult:
    """Check the diffusion weight is nonnegative and nondecreasing on samples.

    Also reports the relevant boundedness fact: the sampled supremum for the
    bounded families, or the C=1 shifted-power growth bound for ``power_shift``.
    """
    t = default_audit_samples() if t_samples is None else np.asarray(t_samples, float)
    w = d.value(t)
    if np.any(w < 0):
        return AuditResult(False, "weight takes negative values")
    worst = np.diff(w).min()
    if worst < -1e-12:
        idx = int(np.argmin(np.diff(w)))
        return AuditResult(
            False,
            f"weight decreased by {-worst:.3e} between t={t[idx]:.6g} and t={t[idx + 1]:.6g}",
            witness=(float(t[idx]), float(t[idx + 1])),
        )
    if d.family == "power_shift":
        bound = 1.0 + t ** (d.r / d.p - 1.0)
        c = float(np.max(w / bound))
        detail = f"nondecreasing; growth bound holds with C={c:.6g}"
    else:
        detail = f"nondecreasing; sampled sup = {float(w.max()):.6g}"
    return AuditResult(True, detail, constant=None)
