import numpy as np
import pytest

from plaplab.grid import ScalarField, build_interval_grid
from plaplab.model import (
    DiffusionSpec,
    ProblemSpec,
    ReactionSpec,
    audit_diffusion,
    audit_growth,
    audit_subhomogeneity,
)

DIFFUSIONS = [
    DiffusionSpec("constant", p=2.0),
    DiffusionSpec("power_shift", p=2.0, r=4.0),
    DiffusionSpec("saturating", p=1.7),
]


def test_constant_primitive():
    d = DiffusionSpec("constant", p=2.0)
    assert d.primitive(3.0) == 3.0


def test_power_shift_primitive_closed_form():
    d = DiffusionSpec("power_shift", p=2.0, r=4.0)
    # antiderivative of 1 + t at t=4
    assert abs(d.primitive(4.0) - 12.0) <= 1e-12


@pytest.mark.parametrize("d", DIFFUSIONS)
def test_primitive_vanishes_at_zero(d):
    assert d.primitive(0.0) == 0.0


@pytest.mark.parametrize("d", DIFFUSIONS)
def test_primitive_derivative_matches_weight(d):
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 100.0, 100)
    eps = 1e-5 * np.maximum(t, 1.0)
    fd = (d.primitive(t + eps) - d.primitive(np.maximum(t - eps, 0.0))) / (
        eps + np.minimum(t, eps)
    )
    rel = np.abs(fd - d.value(t)) / np.abs(d.value(t))
    assert rel.max() <= 1e-6


@pytest.mark.parametrize("d", DIFFUSIONS)
def test_primitive_monotone_and_convex(d):
    t = np.linspace(0.0, 50.0, 400)
    h_vals = d.primitive(t)
    assert np.diff(h_vals).min() >= -1e-12
    second = h_vals[:-2] - 2 * h_vals[1:-1] + h_vals[2:]
    assert second.min() >= -1e-12


def test_diffusion_rejects_negative_argument():
    with pytest.raises(ValueError):
        DiffusionSpec("constant", p=2.0).primitive(-1.0)


def test_diffusion_validation():
    with pytest.raises(ValueError):
        DiffusionSpec("constant", p=1.0)
    with pytest.raises(ValueError):
        DiffusionSpec("power_shift", p=2.0, r=2.0)
    with pytest.raises(ValueError):
        DiffusionSpec("saturating", p=2.0, r=3.0)
    with pytest.raises(ValueError):
        DiffusionSpec("triangular", p=2.0)


def test_audit_diffusion_families():
    for d in DIFFUSIONS:
        assert audit_diffusion(d).passed
    # saturating weight stays below 2
    d = DiffusionSpec("saturating", p=2.0)
    assert d.value(1e9) < 2.0


def test_pure_subhomogeneous_values():
    rs = ReactionSpec("pure_subhomogeneous", q=1.5, a=1.0)
    assert abs(rs.value(rs.a, rs.b, 1.0) - 1.0) <= 1e-15
    assert abs(rs.primitive(rs.a, rs.b, 1.0) - 2.0 / 3.0) <= 1e-15


def test_double_power_balances_at_one():
    rs = ReactionSpec("double_power", q=1.5, r=3.0)
    assert rs.value(rs.a, rs.b, 1.0) == 0.0


def test_zero_extension():
    rs = ReactionSpec("pure_subhomogeneous", q=1.5, a=2.0, negative_extension="zero")
    assert rs.value(rs.a, rs.b, -2.0) == 0.0
    assert rs.primitive(rs.a, rs.b, -2.0) == 0.0


def test_odd_extension():
    rs = ReactionSpec("pure_subhomogeneous", q=1.5, a=2.0, negative_extension="odd")
    assert rs.value(rs.a, rs.b, -2.0) == -rs.value(rs.a, rs.b, 2.0)
    assert rs.primitive(rs.a, rs.b, -2.0) == rs.primitive(rs.a, rs.b, 2.0)


def test_derivative_extensions_at_and_below_zero():
    t = np.array([-1.0, 0.0, 1.0])
    zero = ReactionSpec("pure_subhomogeneous", q=1.5, a=2.0, negative_extension="zero")
    assert zero.derivative(2.0, 1.0, t).tolist() == [0.0, 0.0, 1.0]
    odd = ReactionSpec("pure_subhomogeneous", q=1.5, a=2.0, negative_extension="odd")
    assert odd.derivative(2.0, 1.0, t).tolist() == [1.0, np.inf, 1.0]
    with pytest.raises(ValueError, match="nonpositive"):
        ReactionSpec("pure_subhomogeneous", q=1.5, negative_extension="none").derivative(1.0, 1.0, 0.0)


def test_no_extension_rejects_negative():
    rs = ReactionSpec("pure_subhomogeneous", q=1.5, negative_extension="none")
    with pytest.raises(ValueError):
        rs.value(rs.a, rs.b, -1.0)


REACTIONS = [
    ReactionSpec("pure_subhomogeneous", q=1.5, a=0.8),
    ReactionSpec("two_term", q=1.5, r=2.5, a=0.5, b=-1.0),
    ReactionSpec("logistic", q=4.0, p=2.0, a=4.0, b=1.0),
    ReactionSpec("double_power", q=1.5, r=3.0),
]


@pytest.mark.parametrize("rs", REACTIONS)
def test_reaction_primitive_derivative_matches_value(rs):
    rng = np.random.default_rng(13)
    t = rng.uniform(0.5, 50.0, 100)
    eps = 1e-6 * t
    fd = (rs.primitive(1.0, 1.0, t + eps) - rs.primitive(1.0, 1.0, t - eps)) / (2 * eps)
    g_vals = rs.value(1.0, 1.0, t)
    scale = np.maximum(np.abs(g_vals), 1e-8)
    assert (np.abs(fd - g_vals) / scale).max() <= 1e-6


@pytest.mark.parametrize("rs", REACTIONS)
def test_reaction_derivative_matches_slope(rs):
    rng = np.random.default_rng(29)
    t = rng.uniform(0.5, 20.0, 50)
    eps = 1e-6 * t
    fd = (rs.value(1.0, 1.0, t + eps) - rs.value(1.0, 1.0, t - eps)) / (2 * eps)
    slope = rs.derivative(1.0, 1.0, t)
    assert (np.abs(fd - slope) / np.maximum(np.abs(slope), 1e-8)).max() <= 1e-5


@pytest.mark.parametrize(
    "rs, exponents",
    [
        (ReactionSpec("pure_subhomogeneous", q=1.5), (1.5,)),
        (ReactionSpec("two_term", q=1.5, r=2.5, p=9.0), (1.5, 2.5)),
        (ReactionSpec("logistic", q=4.0, p=2.0, r=9.0), (2.0, 4.0)),
        (ReactionSpec("double_power", q=1.5, r=3.0, p=9.0), (1.5, 3.0)),
    ],
    ids=lambda v: v.family if isinstance(v, ReactionSpec) else None,
)
def test_only_the_family_exponents_enter_growth_and_audits(rs, exponents):
    assert rs.exponents == exponents
    assert rs.natural_subhomogeneity_exponent == exponents[0]
    assert rs.growth == max(exponents) - 1.0
    assert audit_growth(rs, dimension=2, exponent_cap=1.5).passed  # sigma = 8 would fail


def test_coefficients_per_node_or_own_shape():
    g = build_interval_grid(4, 0.0, 1.0)
    a = np.linspace(0.0, 1.0, g.n_nodes)
    rs = ReactionSpec("two_term", q=1.5, r=2.0, a=ScalarField(g, a), b=2.0)
    for coefficients in (rs.coefficients(g), rs.coefficients()):
        assert [c.tolist() for c in coefficients] == [a.tolist(), [2.0] * g.n_nodes]
    scalar = ReactionSpec("pure_subhomogeneous", q=1.5, a=3)
    assert [c.tolist() for c in scalar.coefficients()] == [[3.0], [1.0]]
    assert [c.shape for c in scalar.coefficients(g)] == [(g.n_nodes,)] * 2
    with pytest.raises(ValueError):
        ReactionSpec("pure_subhomogeneous", q=1.5, a=np.ones(3)).coefficients(g)
    ps = ProblemSpec(g, DiffusionSpec("constant", p=2.0), rs, "natural")
    nodal_a, nodal_b = ps.nodal_coefficients
    assert not nodal_a.flags.writeable and not np.shares_memory(nodal_a, rs.a.values)
    assert nodal_b.flags.c_contiguous and nodal_b.tolist() == [2.0] * g.n_nodes


def test_reaction_validation():
    with pytest.raises(ValueError):
        ReactionSpec("pure_subhomogeneous", q=1.0)
    with pytest.raises(ValueError):
        ReactionSpec("two_term", q=1.5, r=0.5)
    with pytest.raises(ValueError):
        ReactionSpec("logistic", q=1.5, p=2.0)  # needs q > p
    with pytest.raises(ValueError):
        ReactionSpec("double_power", q=2.0, r=1.5)
    with pytest.raises(ValueError):
        ReactionSpec("pure_subhomogeneous", q=1.5, negative_extension="clip")


def test_problem_spec_exponent_compatibility():
    g = build_interval_grid(4, 0.0, 1.0)
    d = DiffusionSpec("constant", p=2.0)
    with pytest.raises(ValueError):
        ProblemSpec(g, d, ReactionSpec("pure_subhomogeneous", q=2.5), "dirichlet_zero")
    with pytest.raises(ValueError):
        ProblemSpec(g, d, ReactionSpec("logistic", q=4.0, p=3.0, a=1, b=1), "natural")
    with pytest.raises(ValueError):
        ProblemSpec(g, d, ReactionSpec("pure_subhomogeneous", q=1.5), "robin")
    # coefficient field on the wrong grid
    other = build_interval_grid(8, 0.0, 1.0)
    a = np.ones(other.n_nodes)
    with pytest.raises(ValueError):
        ProblemSpec(g, d, ReactionSpec("pure_subhomogeneous", q=1.5, a=a), "natural")


def test_subhomogeneity_audit_constant_ratio_passes():
    rs = ReactionSpec("pure_subhomogeneous", q=1.5, a=-0.7)
    assert audit_subhomogeneity(rs, 1.5).passed


def test_subhomogeneity_audit_increasing_power_fails():
    # plain power with exponent above the tested one: ratio grows
    rs = ReactionSpec("pure_subhomogeneous", q=2.0, a=1.0)
    result = audit_subhomogeneity(rs, 1.5)
    assert not result.passed
    assert result.witness is not None


def test_subhomogeneity_audit_double_power():
    rs = ReactionSpec("double_power", q=1.5, r=3.0)
    assert audit_subhomogeneity(rs, 1.5).passed


def test_subhomogeneity_audit_sign_changing_coefficient():
    g = build_interval_grid(32, 0.0, 1.0)
    a = np.sin(2 * np.pi * g.nodes[:, 0]) + 0.3
    rs = ReactionSpec("pure_subhomogeneous", q=1.5, a=a)
    assert audit_subhomogeneity(rs, 1.5, grid=g).passed


def test_subhomogeneity_audit_input_validation():
    rs = ReactionSpec("pure_subhomogeneous", q=1.5)
    with pytest.raises(ValueError):
        audit_subhomogeneity(rs, 1.5, t_samples=np.array([1.0]))
    with pytest.raises(ValueError):
        audit_subhomogeneity(rs, 1.5, t_samples=np.array([2.0, 1.0]))


def _growth(t_samples):
    return audit_growth(ReactionSpec("pure_subhomogeneous", q=1.5), 1, 2.0, t_samples=t_samples)


def _diffusion(family):
    return lambda t_samples: audit_diffusion(DiffusionSpec(family, p=2.0), t_samples)


@pytest.mark.parametrize(
    "audit, samples",
    [
        (_growth, [-1.0, 1.0]),  # passed with C=nan
        (_growth, [1.0]),  # passed on the one point
        (_growth, [2.0, 1.0]),
        (_diffusion("constant"), [1.0]),  # failed in an empty reduction
        (_diffusion("saturating"), [2.0, 1.0]),  # reported the increasing weight as decreasing
        (_diffusion("constant"), [0.0, 1.0]),
    ],
    ids=["growth-negative", "growth-single", "growth-decreasing", "diffusion-single",
         "diffusion-decreasing", "diffusion-zero"],
)
def test_audits_take_increasing_positive_samples(audit, samples):
    with pytest.raises(ValueError, match="t_samples must be at least 2 increasing positive values"):
        audit(np.array(samples))


def test_growth_audit_subcritical_in_1d():
    rs = ReactionSpec("pure_subhomogeneous", q=1.5, declared_growth=0.5)
    result = audit_growth(rs, dimension=1, exponent_cap=2.0)
    assert result.passed


def test_growth_audit_double_power_c_one():
    rs = ReactionSpec("double_power", q=1.5, r=3.0, declared_growth=2.0)
    result = audit_growth(rs, dimension=1, exponent_cap=2.0)
    assert result.passed
    assert result.constant <= 1.0 + 1e-9


def test_growth_audit_undersized_sigma_fails():
    rs = ReactionSpec("double_power", q=1.5, r=3.0, declared_growth=1.5)
    assert not audit_growth(rs, dimension=1, exponent_cap=2.0).passed


def test_growth_audit_supercritical_fails():
    # N=3, p=2: sigma(N-p) <= (p-1)N + p means sigma <= 5
    rs = ReactionSpec("pure_subhomogeneous", q=1.5, declared_growth=6.0)
    assert not audit_growth(rs, dimension=3, exponent_cap=2.0).passed
