"""Scenario configuration: flat dotted-key text files, parsed and validated.

The format is one ``section.key = value`` pair per line, ``#`` comments, blank
lines ignored. Coefficient values use the term grammar of
:mod:`plaplab.coefficients`. Parsing, serialization, and re-parsing round-trip
exactly (canonical 17-significant-digit floats), which keeps experiment
provenance trivially checkable.
"""

import importlib.resources
import math
from dataclasses import dataclass

from .coefficients import CoefficientDef, _format_number
from .errors import ConfigError
from .grid import Grid, build_interval_grid, build_rectangle_grid
from .model import (
    BOUNDARY_KINDS,
    DIFFUSION_FAMILIES,
    REACTION_FAMILIES,
    DiffusionSpec,
    ProblemSpec,
    ReactionSpec,
)
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


class _Reader:
    """Typed access over the raw entry dict with consumed-key tracking."""

    def __init__(self, entries: dict[str, str]):
        self.entries = dict(entries)
        self.seen: set[str] = set()

    def _raw(self, key: str, default=None, required=False):
        if key in self.entries:
            self.seen.add(key)
            return self.entries[key]
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def text(self, key, default=None, required=False, choices=None):
        value = self._raw(key, default, required)
        if value is not None and choices is not None and value not in choices:
            raise ConfigError(f"{key}: expected one of {choices}, got {value!r}")
        return value

    def real(self, key, default=None, required=False):
        value = self._raw(key, default, required)
        if value is None or isinstance(value, float):
            return value
        try:
            return float(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: not a number: {value!r}") from exc

    def integer(self, key, default=None, required=False):
        value = self._raw(key, default, required)
        if value is None or isinstance(value, int):
            return value
        try:
            return int(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: not an integer: {value!r}") from exc

    def coefficient(self, key, default=None):
        value = self._raw(key, None)
        if value is None:
            return default
        return CoefficientDef.parse(value)

    def unknown_keys(self) -> list[str]:
        return sorted(set(self.entries) - self.seen)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    description: str
    dimension: int
    n: int
    ny: int
    extents: tuple
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
    initial_step: float
    init_spec: str
    path_q: float
    path_samples: int
    eigen_p: float

    @staticmethod
    def from_text(text: str) -> "ScenarioConfig":
        return ScenarioConfig.from_entries(parse_entries(text))

    @staticmethod
    def from_entries(entries: dict[str, str]) -> "ScenarioConfig":
        r = _Reader(entries)
        scenario_id = r.text("scenario_id", required=True)
        description = r.text("description", default="")
        dimension = r.integer("grid.dimension", default=1)
        if dimension not in (1, 2):
            raise ConfigError(f"grid.dimension: must be 1 or 2, got {dimension}")
        n = r.integer("grid.n", required=True)
        xmin = r.real("grid.xmin", default=0.0)
        xmax = r.real("grid.xmax", default=1.0)
        if dimension == 2:
            ny = r.integer("grid.ny", default=n)
            ymin = r.real("grid.ymin", default=0.0)
            ymax = r.real("grid.ymax", default=1.0)
            extents = (xmin, xmax, ymin, ymax)
        else:
            ny = 0
            extents = (xmin, xmax)

        diffusion_family = r.text(
            "diffusion.family", default="constant", choices=DIFFUSION_FAMILIES
        )
        p = r.real("diffusion.p", required=True)
        diffusion_r = r.real("diffusion.r")

        reaction_family = r.text("reaction.family", required=True, choices=REACTION_FAMILIES)
        q = r.real("reaction.q", required=True)
        reaction_r = r.real("reaction.r")
        reaction_p = r.real("reaction.p")
        a = r.coefficient("reaction.a")
        b = r.coefficient("reaction.b")
        negative_extension = r.text(
            "reaction.negative_extension", default="zero", choices=("zero", "odd", "none")
        )
        declared_growth = r.real("reaction.sigma")

        boundary = r.text("boundary", required=True, choices=BOUNDARY_KINDS)

        max_iterations = r.integer("solver.max_iterations")
        residual_tolerance = r.real("solver.residual_tolerance", default=1e-9)
        n_starts = r.integer("solver.n_starts", default=20)
        seed = r.integer("solver.seed", default=0)
        initial_step = r.real("solver.initial_step", default=1.0)
        init_spec = r.text("solver.init", default="random")
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

        path_q = r.real("path.q", default=q)
        path_samples = r.integer("path.samples", default=41)
        eigen_p = r.real("eigen.p", default=p)

        unknown = r.unknown_keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

        config = ScenarioConfig(
            scenario_id=scenario_id,
            description=description,
            dimension=dimension,
            n=n,
            ny=ny,
            extents=extents,
            diffusion_family=diffusion_family,
            p=p,
            diffusion_r=diffusion_r,
            reaction_family=reaction_family,
            q=q,
            reaction_r=reaction_r,
            reaction_p=reaction_p,
            a=a,
            b=b,
            negative_extension=negative_extension,
            declared_growth=declared_growth,
            boundary=boundary,
            max_iterations=max_iterations,
            residual_tolerance=residual_tolerance,
            n_starts=n_starts,
            seed=seed,
            initial_step=initial_step,
            init_spec=init_spec,
            path_q=path_q,
            path_samples=path_samples,
            eigen_p=eigen_p,
        )
        config.build_problem()  # validate everything before any run
        return config

    def serialize(self) -> str:
        lines = [f"scenario_id = {self.scenario_id}"]
        if self.description:
            lines.append(f"description = {self.description}")
        lines.append(f"grid.dimension = {self.dimension}")
        lines.append(f"grid.n = {self.n}")
        lines.append(f"grid.xmin = {_format_number(self.extents[0])}")
        lines.append(f"grid.xmax = {_format_number(self.extents[1])}")
        if self.dimension == 2:
            lines.append(f"grid.ny = {self.ny}")
            lines.append(f"grid.ymin = {_format_number(self.extents[2])}")
            lines.append(f"grid.ymax = {_format_number(self.extents[3])}")
        lines.append(f"diffusion.family = {self.diffusion_family}")
        lines.append(f"diffusion.p = {_format_number(self.p)}")
        if self.diffusion_r is not None:
            lines.append(f"diffusion.r = {_format_number(self.diffusion_r)}")
        lines.append(f"reaction.family = {self.reaction_family}")
        lines.append(f"reaction.q = {_format_number(self.q)}")
        if self.reaction_r is not None:
            lines.append(f"reaction.r = {_format_number(self.reaction_r)}")
        if self.reaction_p is not None:
            lines.append(f"reaction.p = {_format_number(self.reaction_p)}")
        if self.a is not None:
            lines.append(f"reaction.a = {self.a.serialize()}")
        if self.b is not None:
            lines.append(f"reaction.b = {self.b.serialize()}")
        lines.append(f"reaction.negative_extension = {self.negative_extension}")
        if self.declared_growth is not None:
            lines.append(f"reaction.sigma = {_format_number(self.declared_growth)}")
        lines.append(f"boundary = {self.boundary}")
        if self.max_iterations is not None:
            lines.append(f"solver.max_iterations = {self.max_iterations}")
        lines.append(f"solver.residual_tolerance = {_format_number(self.residual_tolerance)}")
        lines.append(f"solver.n_starts = {self.n_starts}")
        lines.append(f"solver.seed = {self.seed}")
        lines.append(f"solver.initial_step = {_format_number(self.initial_step)}")
        lines.append(f"solver.init = {self.init_spec}")
        lines.append(f"path.q = {_format_number(self.path_q)}")
        lines.append(f"path.samples = {self.path_samples}")
        lines.append(f"eigen.p = {_format_number(self.eigen_p)}")
        return "\n".join(lines) + "\n"

    def build_grid(self) -> Grid:
        if self.dimension == 1:
            return build_interval_grid(self.n, self.extents[0], self.extents[1])
        return build_rectangle_grid(self.n, self.ny, self.extents)

    def build_problem(self, grid: Grid | None = None) -> ProblemSpec:
        grid = grid or self.build_grid()
        try:
            diffusion = DiffusionSpec(self.diffusion_family, p=self.p, r=self.diffusion_r)
            reaction = ReactionSpec(
                self.reaction_family,
                q=self.q,
                r=self.reaction_r,
                p=self.reaction_p,
                a=self.a.evaluate(grid) if self.a is not None else 1.0,
                b=self.b.evaluate(grid) if self.b is not None else 1.0,
                negative_extension=self.negative_extension,
                declared_growth=self.declared_growth,
            )
            return ProblemSpec(grid, diffusion, reaction, self.boundary)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def solve_options(self, seed_override: int | None = None) -> SolveOptions:
        return SolveOptions(
            max_iterations=self.max_iterations,
            residual_tolerance=self.residual_tolerance,
            initial_step=self.initial_step,
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
    """Load a config from a file path, or by builtin scenario id (E1..E7)."""
    if source.upper() in BUILTIN_SCENARIOS:
        return ScenarioConfig.from_text(builtin_scenario_text(source))
    try:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {source!r}: {exc}") from exc
    return ScenarioConfig.from_text(text)
