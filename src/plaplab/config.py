"""Scenario configuration: flat dotted-key text files, parsed and validated.

The format is one ``section.key = value`` pair per line, ``#`` comments, blank
lines ignored. Coefficient values use the term grammar of
:mod:`plaplab.coefficients`. Each key is one row of ``KEYS``, and parsing,
defaults, validation and serialization all loop over that table. Parsing,
serialization, and re-parsing round-trip exactly (canonical 17-significant-digit
floats), which keeps experiment provenance trivially checkable.
"""

import importlib.resources
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coefficients import CoefficientDef, _format_number
from .errors import ConfigError
from .grid import Grid, build_interval_grid, build_rectangle_grid
from .model import (
    BOUNDARY_KINDS,
    DIFFUSION_FAMILIES,
    NEGATIVE_EXTENSIONS,
    REACTION_FAMILIES,
    DiffusionSpec,
    ProblemSpec,
    ReactionSpec,
)
from .paths import DEFAULT_T_SAMPLES
from .solve import SolveOptions

BUILTIN_SCENARIOS = (
    "E1",
    "E2",
    "E3",
    "E4",
    "E5",
    "E6",
    "E6B",
    "E7",
    "E1N_POS",
    "E1N_NEG",
)


def parse_entries(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


_REQUIRED = object()


@dataclass(frozen=True)
class _Copy:
    """A default that copies the value of an earlier field."""

    field: str


@dataclass(frozen=True)
class _Key:
    """One config key: the field it sets, its kind, default and accepted values.

    ``minimum`` is inclusive for integers and exclusive for reals; a string
    names an earlier field the value must exceed. ``planar`` keys exist only
    in 2D configs.
    """

    name: str
    field: str
    kind: str  # "text", "integer", "real" or "coefficient"
    default: object = _REQUIRED
    choices: tuple | None = None
    minimum: float | str | None = None
    planar: bool = False


KEYS = (
    _Key("scenario_id", "scenario_id", "text"),
    _Key("description", "description", "text", ""),
    _Key("grid.dimension", "dimension", "integer", 1, choices=(1, 2)),
    _Key("grid.n", "n", "integer", minimum=2),
    _Key("grid.xmin", "xmin", "real", 0.0),
    _Key("grid.xmax", "xmax", "real", 1.0, minimum="xmin"),
    _Key("grid.ny", "ny", "integer", _Copy("n"), minimum=2, planar=True),
    _Key("grid.ymin", "ymin", "real", 0.0, planar=True),
    _Key("grid.ymax", "ymax", "real", 1.0, minimum="ymin", planar=True),
    _Key("diffusion.family", "diffusion_family", "text", "constant", choices=DIFFUSION_FAMILIES),
    _Key("diffusion.p", "p", "real", minimum=1.0),
    _Key("diffusion.r", "diffusion_r", "real", None),
    _Key("reaction.family", "reaction_family", "text", choices=REACTION_FAMILIES),
    _Key("reaction.q", "q", "real", minimum=1.0),
    _Key("reaction.r", "reaction_r", "real", None),
    _Key("reaction.p", "reaction_p", "real", None),
    _Key("reaction.a", "a", "coefficient", None),
    _Key("reaction.b", "b", "coefficient", None),
    _Key("reaction.negative_extension", "negative_extension", "text", "zero",
         choices=NEGATIVE_EXTENSIONS),
    _Key("reaction.sigma", "declared_growth", "real", None),
    _Key("boundary", "boundary", "text", choices=BOUNDARY_KINDS),
    _Key("solver.max_iterations", "max_iterations", "integer", None, minimum=0),
    _Key("solver.residual_tolerance", "residual_tolerance", "real", SolveOptions.residual_tolerance,
         minimum=0.0),
    _Key("solver.n_starts", "n_starts", "integer", 20, minimum=2),
    _Key("solver.seed", "seed", "integer", 0, minimum=0),
    _Key("solver.init", "init_spec", "text", "random"),
    _Key("path.q", "path_q", "real", _Copy("q"), minimum=1.0),
    _Key("path.samples", "path_samples", "integer", DEFAULT_T_SAMPLES, minimum=3),
    _Key("eigen.p", "eigen_p", "real", _Copy("p"), minimum=1.0),
)

_PARSE = {"text": str, "integer": int, "real": float, "coefficient": CoefficientDef.parse}
_FORMAT = {
    "text": str, "integer": str, "real": _format_number, "coefficient": CoefficientDef.serialize
}


def _read(key: _Key, unread: dict[str, str], values: dict):
    """The key's value, taken out of ``unread``, or its default; checked against its row."""
    if key.planar and values["dimension"] != 2:
        return None  # left unread: a 1D config that sets it names an unknown key
    raw = unread.pop(key.name, None)
    if raw is not None:
        try:
            value = _PARSE[key.kind](raw)
        except ValueError as exc:
            raise ConfigError(f"{key.name}: not a valid {key.kind}: {raw!r}") from exc
    elif key.default is _REQUIRED:
        raise ConfigError(f"missing required key {key.name!r}")
    elif isinstance(key.default, _Copy):
        value = values[key.default.field]
    else:
        value = key.default
    if value is None:
        return None
    if key.kind == "real" and not math.isfinite(value):
        raise ConfigError(f"{key.name}: must be finite, got {value}")
    if key.choices is not None and value not in key.choices:
        raise ConfigError(f"{key.name}: expected one of {key.choices}, got {value!r}")
    bound, named = key.minimum, ""
    if isinstance(bound, str):
        bound, named = values[bound], f"{bound} = "
    if bound is not None and (value < bound if key.kind == "integer" else not value > bound):
        relation = "at least" if key.kind == "integer" else "greater than"
        raise ConfigError(f"{key.name}: must be {relation} {named}{bound}, got {value}")
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    description: str
    dimension: int
    n: int
    xmin: float
    xmax: float
    ny: int | None
    ymin: float | None
    ymax: float | None
    diffusion_family: str
    p: float
    diffusion_r: float | None
    reaction_family: str
    q: float
    reaction_r: float | None
    reaction_p: float | None
    a: CoefficientDef | None
    b: CoefficientDef | None
    negative_extension: str
    declared_growth: float | None
    boundary: str
    max_iterations: int | None
    residual_tolerance: float
    n_starts: int
    seed: int
    init_spec: str
    path_q: float
    path_samples: int
    eigen_p: float

    @staticmethod
    def from_text(text: str) -> "ScenarioConfig":
        return ScenarioConfig.from_entries(parse_entries(text))

    @staticmethod
    def from_entries(entries: dict[str, str]) -> "ScenarioConfig":
        values: dict = {}
        unread = dict(entries)
        for key in KEYS:
            values[key.field] = _read(key, unread, values)
        if unread:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unread))}")

        init_spec = values["init_spec"]
        if init_spec != "random":
            try:
                constant = float(init_spec.removeprefix("const:"))
                finite = init_spec.startswith("const:") and math.isfinite(constant)
            except ValueError:
                finite = False
            if not finite:
                raise ConfigError(
                    f"solver.init: expected 'random' or 'const:<finite value>', got {init_spec!r}"
                )

        config = ScenarioConfig(**values)
        config.build_problem()  # validate everything before any run
        return config

    def serialize(self) -> str:
        """Every key whose value is not None, in table order; an empty description is left out."""
        lines = []
        for key in KEYS:
            value = getattr(self, key.field)
            if value is None or (key.name == "description" and not value):
                continue
            lines.append(f"{key.name} = {_FORMAT[key.kind](value)}")
        return "\n".join(lines) + "\n"

    @property
    def extents(self) -> tuple:
        if self.dimension == 1:
            return (self.xmin, self.xmax)
        return (self.xmin, self.xmax, self.ymin, self.ymax)

    def build_grid(self) -> Grid:
        if self.dimension == 1:
            return build_interval_grid(self.n, self.xmin, self.xmax)
        return build_rectangle_grid(self.n, self.ny, self.extents)

    def build_problem(self) -> ProblemSpec:
        """The config's problem, built on first call and shared by later ones."""
        return self._problem

    @cached_property
    def _problem(self) -> ProblemSpec:
        try:
            grid = self.build_grid()
            diffusion = DiffusionSpec(self.diffusion_family, p=self.p, r=self.diffusion_r)
            with np.errstate(all="ignore"):  # a non-finite value is the error below
                nodal = {k: c.evaluate(grid) for k, c in zip("ab", (self.a, self.b)) if c}
            for key, values in nodal.items():
                if not np.isfinite(values).all():
                    raise ConfigError(f"reaction.{key}: must be finite at every node")
            reaction = ReactionSpec(
                self.reaction_family,
                q=self.q,
                r=self.reaction_r,
                p=self.reaction_p,
                a=nodal.get("a", 1.0),
                b=nodal.get("b", 1.0),
                negative_extension=self.negative_extension,
                declared_growth=self.declared_growth,
            )
            return ProblemSpec(grid, diffusion, reaction, self.boundary)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def solve_options(self, seed_override: int | None = None) -> SolveOptions:
        minimum = next(key.minimum for key in KEYS if key.field == "seed")
        if seed_override is not None and seed_override < minimum:
            raise ConfigError(f"--seed: must be at least {minimum}, got {seed_override}")
        return SolveOptions(
            max_iterations=self.max_iterations,
            residual_tolerance=self.residual_tolerance,
            random_seed=self.seed if seed_override is None else seed_override,
        )


def builtin_scenario_text(scenario_id: str) -> str:
    name = scenario_id.upper()
    if name not in BUILTIN_SCENARIOS:
        raise ConfigError(
            f"unknown builtin scenario {scenario_id!r}; "
            f"available: {', '.join(BUILTIN_SCENARIOS)}"
        )
    resource = importlib.resources.files("plaplab") / "scenarios" / f"{name.lower()}.cfg"
    return resource.read_text(encoding="utf-8")


def load_config(source: str) -> ScenarioConfig:
    """Load a config from a file path, or by builtin scenario id (see ``BUILTIN_SCENARIOS``)."""
    if source.upper() in BUILTIN_SCENARIOS:
        return ScenarioConfig.from_text(builtin_scenario_text(source))
    try:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {source!r}: {exc}") from exc
    return ScenarioConfig.from_text(text)
