"""The three workloads: seeded inputs, the program calls of one pass, output checks.

A pass hands the program generated config and field files only, calling the
``plaplab`` CLI in-process (``plaplab.cli.main``) or a public certificate
function, one call after another. Pass ``k`` of seed ``s`` draws its inputs
from ``numpy.random.default_rng([s, k])``, so a seed fixes every input.

Each call is one operation. After the pass its outputs are checked:

* ``expected`` is false when the operation did not end the way the check
  expects, e.g. a solve that reports non-convergence or a start that stops at
  the trivial point. The program claimed nothing false, but the operation
  failed, and the benchmark exits non-zero unless the failure is the one
  ``KNOWN_FAILURES`` names for that operation.
* ``correct`` is false when a result the program reports is wrong: nontrivial
  clusters that contradict the scenario catalog (a second one, or the wrong
  kind or constant), a converged eigenvalue off its oracle,
  a negative path second difference, a certificate violation, or a raised
  exception. Any incorrect operation makes the benchmark exit non-zero.

Every failed operation, known or not, counts in the fail fraction.

Workloads and why they were chosen:

* ``catalog_1d`` -- all 10 builtin scenarios at n=128 through ``experiment``
  with 2 starts each, all but E1N_NEG from seeded starts. At 129 nodes an
  iteration is NumPy dispatch, not arithmetic, so per-call overhead shows
  here; it also runs the natural-BC shift walk, the divergence diagnosis
  (E1N_POS) and E1N_NEG's slow constant mode.
* ``mesh_2d`` -- 2D Dirichlet ``solve`` at 32^2 and 64^2, an E1-type and a
  dead-core coefficient. The gather/einsum/scatter kernels dominate, dispatch
  cuts should change nothing, and iteration growth with mesh size shows.
* ``verify`` -- ``eigen`` at p in {2, 3, 1.5} on n=200 (p=1.5 is the known
  non-converging singular case and stays in), ``path`` and ``audit`` on
  E1/E4-type inputs, and the two scalar certificates. It runs the Rayleigh
  quotient loop and the energy without gradients.
"""

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from plaplab import cli, paths

SCENARIOS = Path(paths.__file__).resolve().parent / "scenarios"

CATALOG = ("E1", "E2", "E3", "E4", "E5", "E6", "E6B", "E7", "E1N_POS", "E1N_NEG")
# Expected outcome per builtin scenario (README catalog; acceptance criteria
# 6-9): the status of every start, then the one nontrivial cluster (its
# classification, or the constant it equals). None: no nontrivial cluster.
CATALOG_EXPECT = {
    "E1": ("converged", "interior_cone"),
    "E2": ("converged", "dead_core"),
    "E3": ("converged", "interior_cone"),
    "E4": ("converged", 1.0),
    "E5": ("converged", "interior_cone"),
    "E6": ("converged", 2.0),
    "E6B": ("converged", "interior_cone"),
    "E7": ("converged", None),
    "E1N_POS": ("not_bounded_below", None),
    "E1N_NEG": ("converged", "nontrivial"),
}
# Scenarios whose starts may stop at the trivial point: E7 reaches only it, and
# E1N_NEG may (criterion 9). Elsewhere a start that does is a failed operation.
TRIVIAL_ALLOWED = {"E1N_NEG", "E7"}
# E7's converged values (~1e-7) straddle the classifier's 1e-8 zero threshold,
# so its reported kind flips; an E7 cluster of sup norm at most this is trivial.
E7_TRIVIAL_TOL = 1e-6
# Scenarios run from their shipped start seed in every pass. E1N_NEG's slow
# constant mode takes 4k-20k iterations depending on the start, and its two
# starts are a third of a pass, so seeded starts would put most of the
# workload's input-driven spread into this one call.
FIXED_START = {"E1N_NEG"}
# Failures the program is known to have, by operation. They count in the fail
# fraction but do not fail the run; any other failed operation does.
# * The singular eigenproblem p=1.5 at n=200 ends at max_iterations (ROADMAP
#   item 5).
# * On a dead-core coefficient the solution peaks near 3e-4 while the starts
#   reach 2, and now and then the projected descent puts a start on exactly
#   zero, a critical point of every pure_subhomogeneous problem. About one E2
#   start and one 2D dead-core solve in several hundred does.
KNOWN_FAILURES = {
    "eigen_p1.5": "not converged",
    "E2": "trivial point",
    "MESH_DEADCORE_32": "trivial point",
    "MESH_DEADCORE_64": "trivial point",
}
CONSTANT_TOL = 1e-6
PATH_D2_TOL = 1e-10
CERTIFICATE_TOL = 1e-12
# The discretization error of the first eigenvalue is O(h^2), about 1.5 h^2
# relative for p=3; the closed-form check allows ten times h^2.
EIGEN_ORACLE_H2 = 10.0
EIGEN_TRIDIAGONAL_RTOL = 1e-6  # same discrete problem, residual tolerance 1e-9

FLOAT = "{:.17g}".format


@dataclass
class Outcome:
    label: str = ""
    correct: bool = True
    ends: set = field(default_factory=set)  # kinds of unexpected end, "" if unnamed
    detail: str = ""
    solves: list = field(default_factory=list)  # (status, iterations) per minimize
    eigen_iterations: int = 0

    @property
    def iterations(self) -> int:
        return self.eigen_iterations + sum(n for _, n in self.solves)

    @property
    def expected(self) -> bool:
        return not self.ends

    @property
    def failed(self) -> bool:
        return not (self.expected and self.correct)

    @property
    def fails_run(self) -> bool:
        """Wrong, or ended unexpectedly other than by its known failure."""
        known = KNOWN_FAILURES.get(self.label)
        return not self.correct or any(not kind or kind != known for kind in self.ends)

    def wrong(self, message: str) -> None:
        self.correct = False
        self.detail += message + "; "

    def unexpected(self, message: str, kind: str = "") -> None:
        """An end the check did not expect; ``kind`` names the ones that
        ``KNOWN_FAILURES`` may list."""
        self.ends.add(kind)
        self.detail += message + "; "


@dataclass
class Call:
    """One operation: a program call plus the check of what it produced."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    mesh: tuple = (0, 0, 0)  # (dimension, nodes, elements) of the problem, if any
    config: Path | None = None


def _cli_call(label, command, config, out, check, mesh, extra=()):
    argv = [command, "--config", str(config), "--out", str(out), "--quiet", *extra]
    return Call(label, lambda: cli.main(argv), lambda rc: check(rc, out), mesh, config)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _column(path: Path, name: str) -> np.ndarray:
    return np.array([float(row[name]) for row in _read_csv(path)])


def _write_config(path: Path, text: str, overrides: dict) -> Path:
    lines = []
    for line in text.splitlines():
        key = line.split("=", 1)[0].strip()
        if key in overrides:
            line = f"{key} = {overrides.pop(key)}"
        lines.append(line)
    lines += [f"{key} = {value}" for key, value in overrides.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_field(path: Path, x: np.ndarray, values: np.ndarray) -> Path:
    rows = ["node,x,value"]
    rows += [f"{i},{FLOAT(xi)},{FLOAT(v)}" for i, (xi, v) in enumerate(zip(x, values))]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def _mesh_1d(n: int) -> tuple:
    return (1, n + 1, n)


def _mesh_2d(n: int) -> tuple:
    return (2, (n + 1) ** 2, 2 * n * n)


def _status_outcome(rc, ok_codes=(0,)) -> Outcome:
    """Exit code 3 is reported non-convergence; 2 and 4 mean a rejected config
    or a violated invariant, which are wrong results."""
    outcome = Outcome()
    if isinstance(rc, BaseException):
        outcome.wrong(f"raised {type(rc).__name__}: {rc}")
    elif rc == 3 and rc not in ok_codes:
        outcome.unexpected("exit code 3 (not converged)")
    elif rc not in ok_codes:
        outcome.wrong(f"exit code {rc}")
    return outcome


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


class Workload:
    name = ""
    SIZES: dict = {}

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.size = dict(self.SIZES)

    def make_pass(self, k: int) -> list[Call]:
        directory = self.work / f"pass{k}"
        (directory / "in").mkdir(parents=True, exist_ok=True)
        return self._calls(np.random.default_rng([self.seed, k]), directory)

    def _calls(self, rng, directory: Path) -> list[Call]:
        raise NotImplementedError


def _check_experiment(scenario: str):
    status, verdict = CATALOG_EXPECT[scenario]

    def check(rc, out: Path) -> Outcome:
        outcome = _status_outcome(rc)
        if not outcome.correct:
            return outcome
        report = _read_csv(out / "report.csv")
        outcome.solves = [(row["status"], int(row["iterations"])) for row in report]
        statuses = sorted({s for s, _ in outcome.solves})
        if statuses != [status]:
            outcome.unexpected(f"statuses {statuses}, expected {status}")
            return outcome
        clusters = []
        for k, row in enumerate(_read_csv(out / "clusters.csv")):
            values = _column(out / f"solution_c{k}.csv", "value")
            trivial = row["classification"] == "trivial" or (
                scenario == "E7" and np.abs(values).max() <= E7_TRIVIAL_TOL
            )
            if not trivial:
                clusters.append((row["classification"], values))
            elif scenario not in TRIVIAL_ALLOWED:
                outcome.unexpected("a start stopped at the trivial point", "trivial point")
        kinds = [kind for kind, _ in clusters]
        if verdict is None:
            if clusters:
                outcome.unexpected(f"nontrivial clusters {kinds}, expected none")
        elif not clusters:
            outcome.unexpected("no nontrivial cluster")
        elif len(clusters) > 1:
            outcome.wrong(f"nontrivial clusters {kinds}, expected one")
        elif isinstance(verdict, float):
            deviation = np.abs(clusters[0][1] - verdict).max()
            if not deviation <= CONSTANT_TOL:
                outcome.wrong(f"solution deviates {deviation:.3e} from constant {verdict}")
        elif verdict != "nontrivial" and kinds != [verdict]:
            outcome.wrong(f"cluster {kinds[0]}, expected {verdict}")
        return outcome

    return check


class Catalog1D(Workload):
    name = "catalog_1d"
    SIZES = {"n": 128, "starts": 2}

    def _calls(self, rng, directory):
        calls = []
        for scenario in CATALOG:
            text = (SCENARIOS / f"{scenario.lower()}.cfg").read_text(encoding="utf-8")
            overrides = {"grid.n": self.size["n"], "solver.n_starts": self.size["starts"]}
            seed = _seed(rng)
            if scenario not in FIXED_START:
                overrides["solver.seed"] = seed
            config = _write_config(directory / "in" / f"{scenario}.cfg", text, overrides)
            calls.append(
                _cli_call(
                    scenario,
                    "experiment",
                    config,
                    directory / scenario,
                    _check_experiment(scenario),
                    _mesh_1d(self.size["n"]),
                )
            )
        return calls


MESH_COEFFICIENTS = {
    "e1": ("1*sin(2*pi*x) + 0.3", "interior_cone"),
    "deadcore": ("1 - 200*box(0.4,0.6,0.4,0.6)", "dead_core"),
}

MESH_TEMPLATE = """scenario_id = {sid}
grid.dimension = 2
grid.n = {n}
diffusion.family = constant
diffusion.p = 2.0
reaction.family = pure_subhomogeneous
reaction.q = 1.5
reaction.a = {a}
boundary = dirichlet_zero
solver.seed = {seed}
"""


def _check_solve(kind: str):
    def check(rc, out: Path) -> Outcome:
        outcome = _status_outcome(rc)
        if not outcome.correct:
            return outcome
        (row,) = _read_csv(out / "report.csv")
        outcome.solves = [(row["status"], int(row["iterations"]))]
        if row["status"] != "converged":
            outcome.unexpected(f"status {row['status']}")
            return outcome
        if not float(row["residual"]) <= 1e-9:
            outcome.wrong(f"converged with residual {row['residual']}")
        if row["classification"] == "trivial":
            outcome.unexpected("stopped at the trivial point", "trivial point")
        elif row["classification"] != kind:
            outcome.wrong(f"classified {row['classification']}, expected {kind}")
        if not np.all(np.isfinite(_column(out / "solution.csv", "value"))):
            outcome.wrong("non-finite solution values")
        return outcome

    return check


class Mesh2D(Workload):
    name = "mesh_2d"
    SIZES = {"sizes": (32, 64)}

    def _calls(self, rng, directory):
        calls = []
        for n in self.size["sizes"]:
            for key, (a, kind) in MESH_COEFFICIENTS.items():
                sid = f"MESH_{key.upper()}_{n}"
                config = directory / "in" / f"{sid}.cfg"
                config.write_text(
                    MESH_TEMPLATE.format(sid=sid, n=n, a=a, seed=_seed(rng)), encoding="utf-8"
                )
                calls.append(_cli_call(
                    sid, "solve", config, directory / sid, _check_solve(kind), _mesh_2d(n)
                ))
        return calls


def eigen_closed_form(p: float) -> float:
    """First Dirichlet eigenvalue of the 1D p-Laplacian on (0, 1)."""
    return (p - 1.0) * (2.0 * math.pi / (p * math.sin(math.pi / p))) ** p


def eigen_tridiagonal(n: int) -> float:
    """Smallest eigenvalue of the lumped p=2 problem on n uniform elements."""
    h = 1.0 / n
    matrix = (
        np.diag(np.full(n - 1, 2.0 / h**2))
        + np.diag(np.full(n - 2, -1.0 / h**2), 1)
        + np.diag(np.full(n - 2, -1.0 / h**2), -1)
    )
    return float(np.linalg.eigvalsh(matrix)[0])


def _check_eigen(p: float, n: int):
    oracle = eigen_closed_form(p)
    tridiagonal = eigen_tridiagonal(n) if p == 2.0 else None

    def check(rc, out: Path) -> Outcome:
        outcome = _status_outcome(rc, ok_codes=(0, 3))
        if not outcome.correct:
            return outcome
        (row,) = _read_csv(out / "eigen.csv")
        outcome.eigen_iterations = int(row["iterations"])
        lam = float(row["lambda1"])
        error = abs(lam - oracle) / oracle
        if row["converged"] != "1" or rc != 0:
            outcome.unexpected(
                f"p={p}: not converged (lambda off closed form by {error:.2e})", "not converged"
            )
            return outcome
        if not error <= EIGEN_ORACLE_H2 / n**2:
            outcome.wrong(f"p={p}: lambda {lam} off closed form {oracle} by {error:.2e}")
        if tridiagonal is not None and not abs(lam - tridiagonal) <= (
            EIGEN_TRIDIAGONAL_RTOL * tridiagonal
        ):
            outcome.wrong(f"p=2: lambda {lam} vs tridiagonal oracle {tridiagonal}")
        return outcome

    return check


def _check_path(rc, out: Path) -> Outcome:
    outcome = _status_outcome(rc)
    if not outcome.correct:
        return outcome
    (summary,) = _read_csv(out / "path_summary.csv")
    d2 = min(
        float(row["second_diff_I"]) for row in _read_csv(out / "path.csv") if row["second_diff_I"]
    )
    if not (d2 >= -PATH_D2_TOL and float(summary["min_second_difference_I"]) >= -PATH_D2_TOL):
        outcome.wrong(f"path second difference {d2:.3e} below -{PATH_D2_TOL:g}")
    if not float(summary["pointwise_max_violation"]) <= CERTIFICATE_TOL:
        outcome.wrong(f"pointwise violation {summary['pointwise_max_violation']}")
    return outcome


def _check_audit(rc, out: Path) -> Outcome:
    outcome = _status_outcome(rc)
    if not outcome.correct:
        return outcome
    lines = (out / "audit.txt").read_text(encoding="utf-8").splitlines()
    failing = [line for line in lines if not line.startswith(("PASS", "INFO"))]
    if failing or not lines:
        outcome.wrong(f"audit lines {failing or 'missing'}")
    return outcome


def _check_certificate(result) -> Outcome:
    outcome = Outcome()
    if isinstance(result, BaseException):
        outcome.wrong(f"raised {type(result).__name__}: {result}")
        return outcome
    worst = float(np.max(result)) if isinstance(result, np.ndarray) else result.max_violation
    if not worst <= CERTIFICATE_TOL:
        outcome.wrong(f"certificate violation {worst:.3e}")
    return outcome


def _edge_instances(rng, n: int) -> tuple:
    p = rng.uniform(1.0 + 1e-9, 4.0, n)
    q = np.maximum(1.0 + rng.uniform(0.0, 1.0, n) * (p - 1.0), 1.0 + 1e-12)
    ui, uj, vi, vj = (rng.uniform(0.0, 10.0, n) for _ in range(4))
    return ui, uj, vi, vj, p, q, rng.uniform(0.0, 1.0, n)


class Verify(Workload):
    name = "verify"
    SIZES = {"eigen_n": 200, "path_n": 128, "edges": 100_000, "axis": 100}
    EIGEN_P = (2.0, 3.0, 1.5)

    def _calls(self, rng, directory):
        calls = []
        e1 = (SCENARIOS / "e1.cfg").read_text(encoding="utf-8")
        e4 = (SCENARIOS / "e4.cfg").read_text(encoding="utf-8")
        n = self.size["eigen_n"]
        for p in self.EIGEN_P:
            config = _write_config(
                directory / "in" / f"eigen_p{p:g}.cfg",
                e1,
                {"grid.n": n, "eigen.p": p, "solver.seed": _seed(rng)},
            )
            calls.append(
                _cli_call(f"eigen_p{p:g}", "eigen", config, directory / f"eigen_p{p:g}",
                          _check_eigen(p, n), _mesh_1d(n))
            )
        n = self.size["path_n"]
        x = np.linspace(0.0, 1.0, n + 1)
        for name, text, dirichlet in (("E1", e1, True), ("E4", e4, False)):
            config = _write_config(directory / "in" / f"{name}.cfg", text, {"grid.n": n})
            ends = []
            for end in ("u", "v"):
                values = rng.uniform(0.0, 2.0, n + 1) if dirichlet else rng.uniform(0.1, 2.0, n + 1)
                if dirichlet:
                    values[[0, n]] = 0.0
                ends.append(_write_field(directory / "in" / f"{name}_{end}.csv", x, values))
            calls.append(
                _cli_call(f"path_{name}", "path", config, directory / f"path_{name}", _check_path,
                          _mesh_1d(n), extra=("--u", str(ends[0]), "--v", str(ends[1])))
            )
            calls.append(
                _cli_call(f"audit_{name}", "audit", config, directory / f"audit_{name}",
                          _check_audit, _mesh_1d(n))
            )
        instances = _edge_instances(rng, self.size["edges"])
        calls.append(
            Call("edge_difference_violation",
                 lambda: paths.edge_difference_violation(*instances),
                 _check_certificate)
        )
        p = float(rng.uniform(1.5, 3.5))
        q = float(rng.uniform(1.1, p - 0.3))
        axis = np.linspace(0.1, 10.0, self.size["axis"])
        calls.append(
            Call("power_product_concavity_grid",
                 lambda: paths.power_product_concavity_grid(p, q, axis),
                 _check_certificate)
        )
        return calls


WORKLOADS = {cls.name: cls for cls in (Catalog1D, Mesh2D, Verify)}
