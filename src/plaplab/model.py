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

from .grid import Grid, ScalarField, _frozen_array

DIFFUSION_FAMILIES = ("constant", "power_shift", "saturating")
NEGATIVE_EXTENSIONS = ("zero", "odd", "none")
BOUNDARY_KINDS = ("dirichlet_zero", "natural")

DEFAULT_AUDIT_SAMPLES = 64


def default_audit_samples() -> np.ndarray:
    """Log-spaced positive sample grid shared by all audits."""
    return np.geomspace(1e-6, 1e3, DEFAULT_AUDIT_SAMPLES)


def audit_samples(samples, minimum: int = 2, name: str = "t_samples") -> np.ndarray:
    """An audit's sample grid: the default one for None, else ``samples``
    checked to be at least ``minimum`` increasing positive values."""
    if samples is None:
        return default_audit_samples()
    t = np.asarray(samples, dtype=float)
    if t.ndim != 1 or len(t) < minimum or not (np.all(t > 0) and np.all(np.diff(t) > 0)):
        raise ValueError(f"{name} must be at least {minimum} increasing positive values")
    return t


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


# Each reaction family as signed power terms c(x) t^(e - 1) for t >= 0:
# (sign, coefficient "a" | "b" | 1, field holding the exponent e).
REACTION_TERMS = {
    "pure_subhomogeneous": ((1, "a", "q"),),        # a t^(q-1)
    "two_term": ((1, "a", "q"), (1, "b", "r")),      # a t^(q-1) + b t^(r-1)
    "logistic": ((1, "a", "p"), (-1, "b", "q")),     # a t^(p-1) - b t^(q-1), q > p
    "double_power": ((1, 1, "q"), (-1, 1, "r")),     # t^(q-1) - t^(r-1), r > q
}
REACTION_FAMILIES = tuple(REACTION_TERMS)


def power_sum(terms, t):
    """Sum of sign * c t^power / divisor over bound terms (see ``ReactionSpec.terms``), t >= 0."""
    total = None
    for sign, c, power, divisor in terms:
        term = t**power if c is None else c * t**power
        if divisor is not None:
            term = term / divisor
        total = term if total is None else total + term if sign > 0 else total - term
    return total


@dataclass(frozen=True)
class ReactionSpec:
    """Reaction term g(x, t) with nodal coefficients and closed-form primitive.

    Families are the signed power sums of ``REACTION_TERMS`` for t >= 0;
    ``negative_extension`` sets the behaviour for t < 0. An exponent field
    the family does not use must be left unset.

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
        used = {field for _, _, field in REACTION_TERMS[self.family]}
        unused = [f for f in ("r", "p") if f not in used and getattr(self, f) is not None]
        if unused:
            raise ValueError(f"{self.family} takes no exponent {unused[0]}")
        if self.family == "two_term":
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
    def exponents(self) -> tuple:
        """The exponent e of each power term, in table order."""
        return tuple(getattr(self, field) for _, _, field in REACTION_TERMS[self.family])

    @property
    def growth(self) -> float:
        """Effective growth exponent: declared, or the family's natural one."""
        if self.declared_growth is not None:
            return self.declared_growth
        return max(self.exponents) - 1.0

    @property
    def natural_subhomogeneity_exponent(self) -> float:
        """Exponent at which the monotone-ratio audit is expected to pass."""
        return self.exponents[0]

    def coefficients(self, grid: Grid | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(a, b) as float arrays of one shape: per node of ``grid`` when given
        (a field must match it), else of the coefficients' own shape."""
        a, b = (
            c.values if isinstance(c, ScalarField) else np.asarray(c, dtype=float)
            for c in (self.a, self.b)
        )
        if grid is None:
            shape = np.broadcast_shapes(a.shape, b.shape, (1,))
        else:
            shape = (grid.n_nodes,)
            if any(c.ndim and c.shape != shape for c in (a, b)):
                raise ValueError("coefficient field does not match the grid")
        return tuple(c if c.shape == shape else np.full(shape, c) for c in (a, b))

    def terms(self, a, b) -> dict:
        """The family's power terms with coefficients a, b bound, per kind of
        ``evaluate``: (sign, coefficient or None for 1, power of t, divisor or None),
        so that g sums c t^(e-1), G sums (c t^e) / e and dg/dt sums (c (e-1)) t^(e-2)."""
        bound = {"a": a, "b": b, 1: None}
        kinds = {"value": [], "primitive": [], "derivative": []}
        for (sign, name, _), e in zip(REACTION_TERMS[self.family], self.exponents):
            c = bound[name]
            kinds["value"].append((sign, c, e - 1.0, None))
            kinds["primitive"].append((sign, c, e, e))
            slope = e - 1.0 if c is None else c * (e - 1.0)
            kinds["derivative"].append((sign, slope, e - 2.0, None))
        return kinds

    def evaluate(self, terms, t, kind: str):
        """g ("value"), G ("primitive") or dg/dt ("derivative") of bound ``terms`` at t.

        t < 0 follows the negative extension: zero, or odd in g (so G is even
        and dg/dt even, infinite at 0); "none" rejects it. dg/dt also takes
        the extension at t = 0, where exponents below 2 make it blow up:
        callers that use it for curvature estimates floor t away from zero.
        """
        t = np.asarray(t, dtype=float)
        derivative = kind == "derivative"
        lowest = t.min(initial=np.inf)  # NaN takes the extension path
        if lowest > 0 or (lowest >= 0 and not derivative):
            return power_sum(terms[kind], t)
        if self.negative_extension == "none":
            side = "nonpositive" if derivative else "negative"
            raise ValueError(f"{side} argument with no negative extension declared")
        with np.errstate(divide="ignore", invalid="ignore"):  # dg/dt at t = 0
            pos = power_sum(terms[kind], np.abs(t))
        if self.negative_extension == "zero":
            return np.where(t > 0 if derivative else t >= 0, pos, 0.0)
        if derivative:
            return np.where(t == 0, np.inf, pos)
        return pos if kind == "primitive" else np.where(t >= 0, pos, -pos)

    def value(self, a, b, t):
        """g with coefficient values a, b (scalars or arrays broadcast with t)."""
        return self.evaluate(self.terms(a, b), t, "value")

    def primitive(self, a, b, t):
        return self.evaluate(self.terms(a, b), t, "primitive")

    def derivative(self, a, b, t):
        """dg/dt with coefficients a, b; see ``evaluate`` for t <= 0."""
        return self.evaluate(self.terms(a, b), t, "derivative")


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
        rs.coefficients(self.grid)  # checks field shapes against the grid

    @property
    def is_dirichlet(self) -> bool:
        return self.boundary == "dirichlet_zero"

    @cached_property
    def held_nodes(self) -> np.ndarray:
        """The nodes held at zero, read-only: the Dirichlet boundary, or none."""
        return self.grid.boundary_nodes if self.is_dirichlet else _frozen_array((), dtype=int)

    @cached_property
    def free_nodes(self) -> np.ndarray:
        return self.grid.interior_nodes if self.is_dirichlet else np.arange(self.grid.n_nodes)

    @cached_property
    def nodal_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node (a, b) as read-only copies."""
        a, b = (np.array(c) for c in self.reaction.coefficients(self.grid))
        a.setflags(write=False)
        b.setflags(write=False)
        return a, b

    @cached_property
    def reaction_terms(self) -> dict:
        """``reaction.terms`` of ``nodal_coefficients``, built once for every evaluation."""
        return self.reaction.terms(*self.nodal_coefficients)

    @cached_property
    def plan(self):
        """The diffusion's ``energy.DiffusionPlan`` on the grid, built on first use."""
        from .energy import DiffusionPlan  # energy imports this module

        return DiffusionPlan(self.grid, self.diffusion)


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
) -> AuditResult:
    """Check that t -> g(x, t) / t^(q_test - 1) is nonincreasing at every node.

    Sample-based: evaluated on ``t_samples`` (default log grid), allowing
    increases up to 1e-12. A failure carries a witness (node, t_lo, t_hi)
    where the ratio increased.
    """
    t = audit_samples(t_samples)
    a, b = rs.coefficients(grid)
    ratios = rs.value(a[:, None], b[:, None], t[None, :]) / t[None, :] ** (q_test - 1.0)
    increases = np.diff(ratios, axis=1)
    worst = increases.max()
    if worst > 1e-12:
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
    t = audit_samples(t_samples)
    sigma = rs.growth
    required = max(rs.exponents) - 1.0
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
    a, b = rs.coefficients(grid)
    g = rs.value(a[:, None], b[:, None], t[None, :])
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
    t = audit_samples(t_samples)
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
    if d.family == "power_shift":  # the weight is the bound 1 + t^(r/p - 1) itself
        detail = "nondecreasing; growth bound holds with C=1"
    else:
        detail = f"nondecreasing; sampled sup = {float(w.max()):.6g}"
    return AuditResult(True, detail, constant=None)
