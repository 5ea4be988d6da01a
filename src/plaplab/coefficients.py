"""Tiny term-sum grammar for coefficient fields a(x), b(x).

A coefficient definition is a sum of primitive terms joined by "+" or "-",
whitespace-insensitive::

    c                    constant
    c*x^k                monomial (also x1; x2 or y for the second axis in 2D)
    c*sin(k*pi*x)        sinusoid in the first coordinate
    c*box(a,b)           box indicator on [a, b] (1D)
    c*box(ax,bx,ay,by)   box indicator on [ax, bx] x [ay, by] (2D)

The leading "c*" may be omitted (coefficient 1). Parsed definitions evaluate
to nodal arrays on a grid and serialize back to a canonical string, so config
round-trips are exact.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import Grid

_TOKEN_RE = re.compile(
    r"(?:(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<symbol>[-+*^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ConfigError(f"bad character {text[pos]!r} in coefficient {text!r}")
        pos = match.end()
        for kind in ("number", "name", "symbol"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    tokens.append(("end", ""))
    return tokens


@dataclass(frozen=True)
class Term:
    kind: str  # "constant" | "monomial" | "sinusoid" | "box"
    c: float
    axis: int = 0
    k: float = 1.0
    bounds: tuple = ()

    def scaled(self, factor: float) -> "Term":
        return Term(self.kind, self.c * factor, self.axis, self.k, self.bounds)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def take(self, kind: str | None = None, value: str | None = None) -> str:
        tok_kind, tok_value = self.tokens[self.pos]
        if (kind is not None and tok_kind != kind) or (
            value is not None and tok_value != value
        ):
            expected = value or kind
            raise ConfigError(
                f"expected {expected!r} at token {self.pos} in coefficient {self.text!r}, "
                f"got {tok_value!r}"
            )
        self.pos += 1
        return tok_value

    def parse(self) -> list[Term]:
        terms = [self.term(self.sign())]
        while self.peek()[0] != "end":
            kind, value = self.peek()
            if kind != "symbol" or value not in "+-":
                raise ConfigError(
                    f"expected '+' or '-' between terms in coefficient {self.text!r}"
                )
            self.take()
            terms.append(self.term(-1.0 if value == "-" else 1.0))
        return terms

    def sign(self) -> float:
        sign = 1.0
        while self.peek() == ("symbol", "-") or self.peek() == ("symbol", "+"):
            if self.take() == "-":
                sign = -sign
        return sign

    def number(self) -> float:
        sign = self.sign()
        kind, value = self.peek()
        if kind != "number":
            raise ConfigError(f"expected a number in coefficient {self.text!r}")
        self.take()
        return sign * float(value)

    def term(self, sign: float) -> Term:
        kind, value = self.peek()
        if kind == "number":
            c = sign * float(self.take())
            if self.peek() == ("symbol", "*"):
                self.take()
                return self.factor().scaled(c)
            return Term("constant", c)
        return self.factor().scaled(sign)

    def factor(self) -> Term:
        kind, value = self.peek()
        if kind != "name":
            raise ConfigError(f"expected a term in coefficient {self.text!r}")
        name = self.take()
        if name in ("x", "x1", "x2", "y"):
            axis = 1 if name in ("x2", "y") else 0
            k = 1.0
            if self.peek() == ("symbol", "^"):
                self.take()
                k = self.number()
            return Term("monomial", 1.0, axis=axis, k=k)
        if name == "sin":
            self.take("symbol", "(")
            k = self.number()
            self.take("symbol", "*")
            self.take("name", "pi")
            self.take("symbol", "*")
            var = self.take("name")
            if var not in ("x", "x1"):
                raise ConfigError("sinusoid terms use the first coordinate only")
            self.take("symbol", ")")
            return Term("sinusoid", 1.0, k=k)
        if name == "box":
            self.take("symbol", "(")
            nums = [self.number()]
            while self.peek() == ("symbol", ","):
                self.take()
                nums.append(self.number())
            self.take("symbol", ")")
            if len(nums) not in (2, 4):
                raise ConfigError("box takes 2 bounds in 1D or 4 in 2D")
            if nums[0] >= nums[1] or (len(nums) == 4 and nums[2] >= nums[3]):
                raise ConfigError(f"empty box in coefficient {self.text!r}")
            return Term("box", 1.0, bounds=tuple(nums))
        raise ConfigError(f"unknown term {name!r} in coefficient {self.text!r}")


@dataclass(frozen=True)
class CoefficientDef:
    """A parsed sum of primitive coefficient terms."""

    terms: tuple

    @staticmethod
    def parse(text: str) -> "CoefficientDef":
        return CoefficientDef(terms=tuple(_Parser(text).parse()))

    def serialize(self) -> str:
        parts = [_format_term(self.terms[0])]
        for term in self.terms[1:]:
            joiner = " + " if term.c >= 0 else " - "
            flipped = term if term.c >= 0 else term.scaled(-1)
            parts.append(joiner + _format_term(flipped))
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
