r"""Tiny term-sum grammar for coefficient fields a(x), b(x).

A coefficient definition is a sum of primitive terms::

    c                    constant
    c*x^k                monomial (also x1; x2 or y for the second axis in 2D)
    c*sin(k*pi*x)        sinusoid in the first coordinate (also x1)
    c*box(a,b)           box indicator on [a, b] (1D)
    c*box(ax,bx,ay,by)   box indicator on [ax, bx] x [ay, by] (2D)

The leading "c*" may be omitted (coefficient 1). Anchored patterns read the
text left to right. A number is ``\d+\.?\d*`` or ``\.\d+`` with an optional
``[eE][+-]?\d+`` and has no sign of its own; a run of "+" and "-" signs, odd
in "-" when negative, may stand before the first term (``--x``) and before
every number in a factor (``x^--2``, ``box(-1,0)``). Exactly one sign joins
two terms, so ``1 - -2`` is rejected. Names are maximal (``x12``, ``pix``
and ``sinh`` are unknown), whitespace (``str.isspace``) may stand between
tokens only (``1 . 5`` is rejected), and box bounds come in increasing pairs.
A term's coefficient is its sign times its number, a signed zero included;
a number that overflows to infinity (``1e999``) is rejected.
Parsed definitions evaluate to nodal arrays on a grid and serialize back to a
canonical string, so config round-trips are exact.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import Grid

_SIGNS = r"(?:[-+]\s*)*"
_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_SIGNED = rf"\s*{_SIGNS}{_NUMBER}"
_END = r"(?![A-Za-z_0-9])"  # names are maximal

_LEAD = re.compile(rf"\s*({_SIGNS})")
_COEFFICIENT = re.compile(rf"\s*({_NUMBER})(\s*\*)?")
_FACTOR = re.compile(
    rf"\s*(?:(?P<var>x|x1|x2|y){_END}(?:\s*\^(?P<k>{_SIGNED}))?"
    rf"|sin{_END}\s*\((?P<w>{_SIGNED})\s*\*\s*pi{_END}\s*\*\s*"
    rf"(?P<arg>[A-Za-z_][A-Za-z_0-9]*)\s*\)"
    rf"|box{_END}\s*\((?P<bounds>{_SIGNED}(?:\s*,{_SIGNED})*)\s*\))"
)
_VALUE = re.compile(rf"({_SIGNS})({_NUMBER})")
_JOIN = re.compile(r"\s*(?:([-+])|\Z)")


def _number(number: str, text: str) -> float:
    """``float(number)``, refused where it overflows: ``serialize`` would write
    ``inf``, which no coefficient parses back from."""
    value = float(number)
    if math.isinf(value):
        raise ConfigError(f"number {number!r} overflows in coefficient {text!r}")
    return value


def _values(factor: str, text: str) -> list[float]:
    """The signed numbers in a matched factor's text. Only the number reaches
    ``float``, not the whitespace inside a sign run."""
    return [(-1.0 if signs.count("-") % 2 else 1.0) * _number(number, text)
            for signs, number in _VALUE.findall(factor)]


@dataclass(frozen=True)
class Term:
    kind: str  # "constant" | "monomial" | "sinusoid" | "box"
    c: float
    axis: int = 0
    k: float = 1.0
    bounds: tuple = ()

    def scaled(self, factor: float) -> "Term":
        return Term(self.kind, self.c * factor, self.axis, self.k, self.bounds)


def _factor(text: str, pos: int) -> tuple[Term, int]:
    """The factor at ``pos`` with coefficient 1, and the position after it."""
    m = _FACTOR.match(text, pos)
    if m is None:
        raise ConfigError(f"expected a term at {text[pos:]!r} in coefficient {text!r}")
    if m["var"]:
        k = _values(m["k"], text)[0] if m["k"] else 1.0
        return Term("monomial", 1.0, axis=int(m["var"] in ("x2", "y")), k=k), m.end()
    if m["arg"]:
        if m["arg"] not in ("x", "x1"):
            raise ConfigError("sinusoid terms use the first coordinate only")
        return Term("sinusoid", 1.0, k=_values(m["w"], text)[0]), m.end()
    bounds = _values(m["bounds"], text)
    if len(bounds) not in (2, 4):
        raise ConfigError("box takes 2 bounds in 1D or 4 in 2D")
    if bounds[0] >= bounds[1] or (len(bounds) == 4 and bounds[2] >= bounds[3]):
        raise ConfigError(f"empty box in coefficient {text!r}")
    return Term("box", 1.0, bounds=tuple(bounds)), m.end()


def _parse(text: str) -> list[Term]:
    """Terms left to right: each is c, c*factor or factor, and then comes one
    joining sign or the end."""
    lead = _LEAD.match(text)
    sign, pos, terms = (-1.0 if lead[1].count("-") % 2 else 1.0), lead.end(), []
    while True:
        m = _COEFFICIENT.match(text, pos)
        c, pos = (sign * _number(m[1], text), m.end()) if m else (sign, pos)
        factor, pos = (Term("constant", 1.0), pos) if m and not m[2] else _factor(text, pos)
        terms.append(factor.scaled(c))
        join = _JOIN.match(text, pos)
        if join is None:
            raise ConfigError(f"expected '+' or '-' at {text[pos:]!r} in coefficient {text!r}")
        if join[1] is None:
            return terms
        sign, pos = (-1.0 if join[1] == "-" else 1.0), join.end()


@dataclass(frozen=True)
class CoefficientDef:
    """A parsed sum of primitive coefficient terms."""

    terms: tuple

    @staticmethod
    def parse(text: str) -> "CoefficientDef":
        return CoefficientDef(terms=tuple(_parse(text)))

    def serialize(self) -> str:
        parts = [_format_term(self.terms[0])]
        for term in self.terms[1:]:  # by the sign bit, so -0.0 is written " - 0"
            if math.copysign(1.0, term.c) < 0:
                parts.append(" - " + _format_term(term.scaled(-1)))
            else:
                parts.append(" + " + _format_term(term))
        return "".join(parts)

    def evaluate(self, grid: Grid) -> np.ndarray:
        """Nodal values on the grid; box bounds must lie within the domain."""
        coords = grid.nodes
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        out = np.zeros(grid.n_nodes)
        for term in self.terms:
            if term.kind == "constant":
                out += term.c
            elif term.kind == "monomial":
                if term.axis >= grid.dimension:
                    raise ConfigError("second-axis monomial on a 1D grid")
                out += term.c * coords[:, term.axis] ** term.k
            elif term.kind == "sinusoid":
                out += term.c * np.sin(term.k * np.pi * coords[:, 0])
            else:
                bounds = term.bounds
                if len(bounds) != 2 * grid.dimension:
                    raise ConfigError(
                        f"box with {len(bounds)} bounds on a {grid.dimension}D grid"
                    )
                inside = np.ones(grid.n_nodes, dtype=bool)
                for axis in range(grid.dimension):
                    a, b = bounds[2 * axis], bounds[2 * axis + 1]
                    if a < lo[axis] - 1e-12 or b > hi[axis] + 1e-12:
                        raise ConfigError(
                            f"box bounds ({a}, {b}) leave the domain on axis {axis}"
                        )
                    inside &= (coords[:, axis] >= a) & (coords[:, axis] <= b)
                out += term.c * inside
        return out


def _format_number(x: float) -> str:
    return f"{x:.17g}"


def _format_term(term: Term) -> str:
    c = _format_number(term.c)
    if term.kind == "constant":
        return c
    if term.kind == "monomial":
        var = "x" if term.axis == 0 else "x2"
        power = "" if term.k == 1.0 else f"^{_format_number(term.k)}"
        return f"{c}*{var}{power}"
    if term.kind == "sinusoid":
        return f"{c}*sin({_format_number(term.k)}*pi*x)"
    bounds = ",".join(_format_number(v) for v in term.bounds)
    return f"{c}*box({bounds})"
