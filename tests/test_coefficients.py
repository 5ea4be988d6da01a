import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plaplab.coefficients import CoefficientDef, Term
from plaplab.errors import ConfigError
from plaplab.grid import build_interval_grid, build_rectangle_grid


@pytest.fixture
def line():
    return build_interval_grid(10, 0.0, 1.0)


def test_constant(line):
    np.testing.assert_allclose(CoefficientDef.parse("2.5").evaluate(line), 2.5)


def test_monomial(line):
    x = line.nodes[:, 0]
    np.testing.assert_allclose(CoefficientDef.parse("3*x^2").evaluate(line), 3 * x**2)
    np.testing.assert_allclose(CoefficientDef.parse("x").evaluate(line), x)


def test_sinusoid(line):
    x = line.nodes[:, 0]
    got = CoefficientDef.parse("1*sin(2*pi*x) + 0.3").evaluate(line)
    np.testing.assert_allclose(got, np.sin(2 * np.pi * x) + 0.3, atol=1e-15)


def test_box_indicator(line):
    got = CoefficientDef.parse("1 - 200*box(0.4,0.6)").evaluate(line)
    x = line.nodes[:, 0]
    expected = 1.0 - 200.0 * ((x >= 0.4) & (x <= 0.6))
    np.testing.assert_allclose(got, expected)


def test_whitespace_insensitive(line):
    a = CoefficientDef.parse("1*sin(2*pi*x)+0.3")
    b = CoefficientDef.parse(" 1 * sin( 2 * pi * x ) + 0.3 ")
    assert a == b


def test_leading_sign_and_bare_factor(line):
    x = line.nodes[:, 0]
    np.testing.assert_allclose(CoefficientDef.parse("-x + 1").evaluate(line), 1 - x)
    np.testing.assert_allclose(
        CoefficientDef.parse("sin(1*pi*x)").evaluate(line), np.sin(np.pi * x), atol=1e-15
    )


def test_2d_terms():
    g = build_rectangle_grid(4, 4, (0, 1, 0, 1))
    x, y = g.nodes[:, 0], g.nodes[:, 1]
    np.testing.assert_allclose(CoefficientDef.parse("2*x2^2").evaluate(g), 2 * y**2)
    np.testing.assert_allclose(CoefficientDef.parse("1*y").evaluate(g), y)
    got = CoefficientDef.parse("5*box(0,0.5,0,0.5)").evaluate(g)
    expected = 5.0 * ((x <= 0.5) & (y <= 0.5))
    np.testing.assert_allclose(got, expected)


def test_roundtrip_examples():
    cases = [
        "1*sin(2*pi*x) + 0.3",
        "1 - 200*box(0.4,0.6)",
        "2*sin(2*pi*x) - 1",
        "-3*x^2 + 0.5*x - 1",
        "0.1*box(0.25,0.75,0.25,0.75) + 1*x2",
    ]
    for text in cases:
        parsed = CoefficientDef.parse(text)
        assert CoefficientDef.parse(parsed.serialize()) == parsed


def test_parse_errors():
    for bad in ("2 +", "2 ** x", "box(1,0)", "sin(2*pi*y)", "1 @ 2", "spline(1)", ""):
        with pytest.raises(ConfigError):
            CoefficientDef.parse(bad)


def test_evaluate_errors(line):
    with pytest.raises(ConfigError):
        CoefficientDef.parse("1*x2").evaluate(line)  # second axis on a 1D grid
    with pytest.raises(ConfigError):
        CoefficientDef.parse("1*box(0,2)").evaluate(line)  # leaves the domain
    g2 = build_rectangle_grid(3, 3, (0, 1, 0, 1))
    with pytest.raises(ConfigError):
        CoefficientDef.parse("1*box(0,0.5)").evaluate(g2)  # 1D box on a 2D grid


def bits(terms):
    """Terms as exact bit patterns, so a signed zero differs from zero."""
    return [(t.kind, t.c.hex(), t.axis, t.k.hex(), tuple(b.hex() for b in t.bounds))
            for t in terms]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("sin(2+pi*x)", None),
        ("sin(2*pie*x)", None),
        ("2 x", None),
        ("1 2", None),
        ("x^2^3", None),
        ("x^y", None),
        ("box(a,1)", None),
        ("box(0,1,2)", None),
        ("1 - -2", None),
        ("1 + -x", None),
        ("1 . 5", None),
        ("1 e5", None),
        ("sinh(1*pi*x)", None),
        ("xy", None),
        ("x12", None),
        ("pix", None),
        ("--x", [Term("monomial", 1.0)]),
        ("+ -3", [Term("constant", -3.0)]),
        ("x^--2", [Term("monomial", 1.0, k=2.0)]),
        ("1.e5*x", [Term("monomial", 1e5)]),
        (".5", [Term("constant", 0.5)]),
        ("1e-3*x", [Term("monomial", 1e-3)]),
        ("-1e-3", [Term("constant", -1e-3)]),
        ("box(-1,0)", [Term("box", 1.0, bounds=(-1.0, 0.0))]),
        ("y", [Term("monomial", 1.0, axis=1)]),
        ("x1^2", [Term("monomial", 1.0, k=2.0)]),
        ("-0*x - 0", [Term("monomial", -0.0), Term("constant", -0.0)]),
        ("-\u00a0-\u00a02", [Term("constant", 2.0)]),
        ("x\u00a0^\u3000-\u20032", [Term("monomial", 1.0, k=-2.0)]),
        (
            "\t2\t*\tsin\n(\u00a0-3 * pi *\tx1 )\n- box( 0 ,\t1 ) ",
            [Term("sinusoid", 2.0, k=-3.0), Term("box", -1.0, bounds=(0.0, 1.0))],
        ),
    ],
)
def test_grammar_branches(text, expected):
    if expected is None:
        with pytest.raises(ConfigError):
            CoefficientDef.parse(text)
    else:
        assert bits(CoefficientDef.parse(text).terms) == bits(expected)


def test_sinusoid_of_another_coordinate_names_the_rule():
    for text in ("sin(2*pi*y)", "sin(2*pi*x2)", "sin(2*pi*z)"):
        with pytest.raises(ConfigError, match="first coordinate only"):
            CoefficientDef.parse(text)


@pytest.mark.parametrize(
    "text, number",
    [("1e999*x", "1e999"), ("-1e400", "1e400"), ("box(0,1e999)", "1e999"),
     ("x^1e999", "1e999"), ("sin(1e999*pi*x)", "1e999")],
)
def test_overflowing_numbers_are_rejected(text, number):
    """An infinite number would serialize as ``inf``, which does not parse back."""
    with pytest.raises(ConfigError, match=rf"number '{number}' overflows in coefficient"):
        CoefficientDef.parse(text)


@pytest.mark.parametrize("text", ["1 - 0*x", "1 - 0", "2 - 0*box(0.4,0.6)"])
def test_negative_zero_terms_round_trip(text):
    parsed = CoefficientDef.parse(text)
    assert " - 0" in parsed.serialize()
    assert bits(CoefficientDef.parse(parsed.serialize()).terms) == bits(parsed.terms)


finite = st.floats(allow_nan=False, allow_infinity=False)
increasing = st.tuples(finite, finite).filter(lambda ab: ab[0] < ab[1])


@st.composite
def terms(draw):
    c = draw(finite | st.sampled_from([0.0, -0.0, 1.0, -1.0]))
    kind = draw(st.sampled_from(["constant", "monomial", "sinusoid", "box"]))
    if kind == "constant":
        return Term("constant", c)
    if kind == "monomial":
        k = draw(finite | st.sampled_from([1.0, -2.0, -0.5]))
        return Term("monomial", c, axis=draw(st.sampled_from([0, 1])), k=k)
    if kind == "sinusoid":
        return Term("sinusoid", c, k=draw(finite))
    bounds = draw(increasing) + (draw(increasing) if draw(st.booleans()) else ())
    return Term("box", c, bounds=bounds)


definitions = st.lists(terms(), min_size=1, max_size=5).map(lambda t: CoefficientDef(tuple(t)))


@settings(max_examples=300, deadline=None)
@given(definitions)
def test_serialize_then_parse_is_exact(definition):
    text = definition.serialize()
    again = CoefficientDef.parse(text)
    assert bits(again.terms) == bits(definition.terms)
    assert again.serialize() == text


spaces = st.text(st.sampled_from(" \t\n\u00a0\u2003\u3000"), max_size=2)


def _signs(negative, draw):
    """A run of signs with the parity of ``negative`` (and at least one sign if so)."""
    run = draw(st.lists(st.sampled_from("+-"), max_size=3))
    if (run.count("-") % 2 == 1) != negative:
        run.append("-")
    return [s + draw(spaces) for s in run]


@st.composite
def rendered(draw):
    """(text, terms): terms written with random whitespace between tokens, a
    random sign run before the first term, sign runs before inner numbers, and
    either spelling of each coordinate."""
    def number(value):
        return draw(st.sampled_from([repr(abs(value)), f"{abs(value):.17g}"]))

    def signed(value):
        return [*_signs(np.signbit(value), draw), number(value)]

    parts = []
    items = draw(st.lists(terms(), min_size=1, max_size=4))
    for index, term in enumerate(items):
        negative = bool(np.signbit(term.c))
        parts += _signs(negative, draw) if index == 0 else ["-" if negative else "+"]
        if term.kind == "monomial":
            var = draw(st.sampled_from(["x", "x1"] if term.axis == 0 else ["x2", "y"]))
            factor = [var, "^", *signed(term.k)]
        elif term.kind == "sinusoid":
            factor = ["sin", "(", *signed(term.k), "*", "pi", "*",
                      draw(st.sampled_from(["x", "x1"])), ")"]
        elif term.kind == "box":
            factor = ["box", "("]
            for bound in term.bounds:
                factor += [*signed(bound), ","]
            factor[-1] = ")"
        if term.kind == "constant":
            parts.append(number(term.c))
        elif abs(term.c) != 1.0 or draw(st.booleans()):
            parts += [number(term.c), "*", *factor]
        else:
            parts += factor
    text = draw(spaces) + "".join(part + draw(spaces) for part in parts)
    return text, items


@settings(max_examples=300, deadline=None)
@given(rendered())
def test_rendered_terms_parse_back(case):
    text, expected = case
    assert bits(CoefficientDef.parse(text).terms) == bits(expected)
