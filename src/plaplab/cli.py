"""Command-line entry point: solve, experiment, path, eigen, audit.

Every subcommand takes ``--config`` (a file path or a builtin scenario id such
as E1), ``--out`` for the output directory, ``--seed`` to override the config
seed, and ``--quiet``. Outputs are CSV files with "." decimals, 17 significant
digits, and LF line endings, plus ``audit.txt`` for assumption audits.

Exit codes: 0 success, 2 config error, 3 solver non-convergence, 4 internal
invariant violation. A run that diagnoses an unbounded-below energy exits with
0: the diagnosis is the result, and it is recorded in the report.
"""

import argparse
import csv
import functools
import sys
from pathlib import Path

import numpy as np

from .classify import classify_cone, comparability_delta, neumann_integral_condition
from .config import BUILTIN_SCENARIOS, ScenarioConfig, load_config
from .errors import BoundaryViolationError, ConfigError, InvariantViolation, PlapLabError
from .grid import ScalarField
from .model import audit_diffusion, audit_growth, audit_subhomogeneity, default_audit_samples
from .paths import path_energy_profile, midpoint_energy_test, reaction_pullback_concavity
from .solve import (
    STATUS_NOT_BOUNDED_BELOW,
    SolveReport,
    first_eigenvalue,
    minimize,
    multi_start,
    random_start,
)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path: Path, records: list[dict], header: list[str] | None = None) -> None:
    """One row per record, under ``header`` or else the first record's keys."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header or records[0])
        for record in records:
            writer.writerow([_fmt(v) for v in record.values()])


def _write_solution(field: ScalarField, *paths: Path) -> None:
    """The bytes ``np.savetxt`` writes for these columns, formatted once by one
    ``%`` over the flat values and written to each of ``paths``."""
    grid = field.grid
    row = ",".join(["%d"] + ["%.17g"] * (grid.dimension + 1)) + "\n"
    columns = np.column_stack([np.arange(grid.n_nodes), grid.nodes, field.values])
    header = ",".join(["node", *"xy"[: grid.dimension], "value"])
    text = header + "\n" + (row * grid.n_nodes) % tuple(columns.ravel().tolist())
    for path in paths:
        path.write_text(text, encoding="utf-8", newline="")


def _load_field(source: str, ps) -> ScalarField:
    """A field from 'const:<value>' or from a solution.csv written by solve."""
    try:
        if source.startswith("const:"):
            values = np.full(ps.grid.n_nodes, float(source.split(":", 1)[1]))
        else:
            with open(source, "r", encoding="utf-8") as handle:
                reader = csv.reader(handle)
                value_col = next(reader).index("value")
                values = np.array([float(row[value_col]) for row in reader])
        return ScalarField(ps.grid, values)  # checks the length and finiteness
    except (OSError, ValueError, StopIteration) as exc:
        raise ConfigError(f"bad field {source!r}: {exc}") from exc


def _initial_field(config: ScenarioConfig, ps, seed: int) -> ScalarField:
    if config.init_spec == "random":
        return random_start(ps, seed)
    init = np.array(_load_field(config.init_spec, ps).values)
    init[ps.held_nodes] = 0.0
    return ScalarField(ps.grid, init)


_CLASSIFICATION_HEADER = [
    "classification",
    "positivity_margin",
    "normal_derivative_margin",
    "n_dead_core_regions",
    "dead_core_region_sizes",
]


def _classification_columns(cls) -> dict:
    if cls is None:
        return dict.fromkeys(_CLASSIFICATION_HEADER, "")
    margin = cls.normal_derivative_margin
    return {
        "classification": cls.kind,
        "positivity_margin": cls.positivity_margin,
        "normal_derivative_margin": "" if margin is None else margin,
        "n_dead_core_regions": len(cls.dead_core_regions),
        "dead_core_region_sizes": ";".join(str(len(region)) for region in cls.dead_core_regions),
    }


def _report_record(config, start, report: SolveReport, cls, cluster="", delta="") -> dict:
    return {
        "scenario_id": config.scenario_id,
        "start": start,
        "status": report.status,
        "converged": int(report.converged),
        "iterations": report.iterations,
        "residual": report.residual,
        "energy_total": report.energy.total,
        "energy_diffusion": report.energy.diffusion_part,
        "energy_reaction": report.energy.reaction_part,
        **_classification_columns(cls),
        "cluster": cluster,
        "delta_vs_reference": delta,
    }


def _cmd_solve(config: ScenarioConfig, out: Path, seed, reference: str | None, say) -> int:
    ps = config.build_problem()
    opts = config.solve_options(seed)
    init = _initial_field(config, ps, opts.random_seed)
    try:  # no negative extension, or a start of non-finite energy
        report = minimize(ps, init, opts)
    except ValueError as exc:
        raise ConfigError(f"cannot minimize: {exc}") from exc
    cls = classify_cone(ps, report.solution) if report.status != STATUS_NOT_BOUNDED_BELOW else None
    delta = ""
    if reference is not None and report.converged:
        ref = _load_field(reference, ps)
        comp = comparability_delta(report.solution, ref)
        delta = comp.delta if comp.comparable else "incomparable"
    _write_csv(out / "report.csv", [_report_record(config, 0, report, cls, delta=delta)])
    _write_solution(report.solution, out / "solution.csv")
    say(
        f"{config.scenario_id}: {report.status} after {report.iterations} iterations, "
        f"energy {report.energy.total:.6g}, residual {report.residual:.3g}"
        + (f", classified {cls.kind}" if cls is not None else "")
    )
    if report.status == STATUS_NOT_BOUNDED_BELOW:
        say("energy decreased without bound; no minimizer exists for this configuration")
        return 0
    return 0 if report.converged else 3


def _cmd_experiment(config: ScenarioConfig, out: Path, seed, say) -> int:
    ps = config.build_problem()
    opts = config.solve_options(seed)
    try:  # no negative extension, or a start of non-finite energy
        result = multi_start(ps, config.n_starts, opts)
    except ValueError as exc:
        raise ConfigError(f"cannot minimize: {exc}") from exc

    cluster_of = {}
    for k, cluster in enumerate(result.clusters):
        for member in cluster.members:
            cluster_of[member] = k

    # cluster representatives are converged starts: each is classified here once
    classes = [classify_cone(ps, r.solution) if r.converged else None for r in result.reports]
    records = [
        _report_record(config, idx, report, classes[idx], cluster=cluster_of.get(idx, ""))
        for idx, report in enumerate(result.reports)
    ]
    _write_csv(out / "report.csv", records)

    cluster_records = []
    for k, cluster in enumerate(result.clusters):
        rep = result.representative_report(cluster)
        cluster_records.append(
            {
                "cluster": k,
                "size": len(cluster.members),
                "representative_start": cluster.representative,
                "energy_total": rep.energy.total,
                "residual": rep.residual,
                **_classification_columns(classes[cluster.representative]),
            }
        )
        # the first cluster's representative is the best solution
        best = [out / "solution.csv"] if k == 0 else []
        _write_solution(rep.solution, out / f"solution_c{k}.csv", *best)
    # the one output that can have no rows (no start converged)
    _write_csv(
        out / "clusters.csv",
        cluster_records,
        header=["cluster", "size", "representative_start", "energy_total", "residual",
                *_CLASSIFICATION_HEADER],
    )

    midpoint_records = []
    for i in range(len(result.clusters)):
        for j in range(i + 1, len(result.clusters)):
            u = result.representative_report(result.clusters[i]).solution
            v = result.representative_report(result.clusters[j]).solution
            if np.any(u.values < 0) or np.any(v.values < 0):
                continue
            test = midpoint_energy_test(ps, u, v, config.path_q)
            midpoint_records.append(
                {"cluster_u": i, "cluster_v": j, "verdict": test.verdict, "gap": test.gap}
            )
    if midpoint_records:
        _write_csv(out / "midpoint.csv", midpoint_records)

    statuses = ", ".join(result.statuses)
    say(
        f"{config.scenario_id}: {config.n_starts} starts, {result.n_clusters} cluster(s), "
        f"statuses: {statuses}"
    )
    for k, cluster in enumerate(result.clusters):
        rep = result.representative_report(cluster)
        say(
            f"  cluster {k}: {len(cluster.members)} member(s), energy "
            f"{rep.energy.total:.6g}, {classes[cluster.representative].kind}"
        )
    say(
        "note: descent reaches minimizers and other stationary points it can "
        "descend into; saddle points are outside its reach"
    )
    if STATUS_NOT_BOUNDED_BELOW in result.statuses:
        return 0
    if not result.clusters:
        return 3
    return 0


def _cmd_path(config: ScenarioConfig, out: Path, u_source, v_source, say) -> int:
    ps = config.build_problem()
    u = _load_field(u_source, ps)
    v = _load_field(v_source, ps)
    try:  # both check the endpoints and raise on overflowing energies
        diag = path_energy_profile(ps, u, v, config.path_q, config.path_samples)
        mid = midpoint_energy_test(ps, u, v, config.path_q)
    except (ValueError, BoundaryViolationError) as exc:
        raise ConfigError(f"path endpoints: {exc}") from exc
    columns = {
        "t": diag.t_samples,
        "diffusion_energy": diag.diffusion_energy,
        "total_energy": diag.total_energy,
        "second_diff_D": ["", *diag.second_difference_D, ""],  # interior samples only
        "second_diff_I": ["", *diag.second_difference_I, ""],
    }
    records = [dict(zip(columns, row)) for row in zip(*columns.values())]
    _write_csv(out / "path.csv", records)
    witness = diag.strict_convexity_witness
    summary = {
        "min_second_difference_D": diag.min_second_difference_D,
        "min_second_difference_I": diag.min_second_difference_I,
        "pointwise_max_violation": diag.pointwise_max_violation,
        "strictly_convex_D": int(diag.strictly_convex_diffusion),
        "degenerate_constants": int(diag.degenerate_constant_pair),
        "witness_t": "" if witness is None else ";".join(_fmt(t) for t in witness),
    }
    _write_csv(out / "path_summary.csv", [summary])
    flags = []
    if diag.degenerate_constant_pair:
        flags.append("degenerate (constants)")
    if not diag.strictly_convex_diffusion:
        flags.append("diffusion energy not strictly convex along the path")
    say(
        f"{config.scenario_id}: path over {len(records)} samples, min second differences "
        f"D {diag.min_second_difference_D:.3g} / I {diag.min_second_difference_I:.3g}, "
        f"midpoint verdict {mid.verdict}"
    )
    for flag in flags:
        say(f"  flag: {flag}")
    return 0


def _cmd_eigen(config: ScenarioConfig, out: Path, seed, say) -> int:
    opts = config.solve_options(seed)
    report = first_eigenvalue(config.build_problem().grid, config.eigen_p, opts)
    summary = {
        "lambda1": report.lambda1,
        "p": config.eigen_p,
        "iterations": report.iterations,
        "converged": int(report.converged),
        "residual": report.residual,
    }
    _write_csv(out / "eigen.csv", [summary])
    history = enumerate(report.rayleigh_history)
    _write_csv(out / "eigen_history.csv", [{"iteration": k, "rayleigh": v} for k, v in history])
    _write_solution(report.eigenfunction, out / "solution.csv")
    say(
        f"{config.scenario_id}: first eigenvalue {report.lambda1:.8g} "
        f"({'converged' if report.converged else 'not converged'} in "
        f"{report.iterations} iterations)"
    )
    return 0 if report.converged else 3


def _cmd_audit(config: ScenarioConfig, out: Path, say) -> int:
    ps = config.build_problem()
    q_test = ps.reaction.natural_subhomogeneity_exponent
    cap = ps.diffusion.r if ps.diffusion.family == "power_shift" else ps.diffusion.p
    lines = []

    def record(name: str, result) -> None:
        lines.append(f"{'PASS' if result.passed else 'FAIL'}  {name}: {result.detail}")

    record("diffusion weight nonnegative and nondecreasing", audit_diffusion(ps.diffusion))
    record(
        f"reaction ratio nonincreasing at exponent {q_test:g}",
        audit_subhomogeneity(ps.reaction, q_test, grid=ps.grid),
    )
    record(
        f"growth bound (dimension {ps.grid.dimension}, cap {cap:g})",
        audit_growth(ps.reaction, ps.grid.dimension, cap, grid=ps.grid),
    )
    record(
        f"reaction pullback concave at exponent {q_test:g}",
        reaction_pullback_concavity(ps.reaction, q_test, default_audit_samples(), grid=ps.grid),
    )
    if ps.reaction.family == "pure_subhomogeneous" and ps.boundary == "natural":
        integral = neumann_integral_condition(ps)
        verdict = (
            "strongly positive critical points excluded, energy unbounded over constants"
            if integral > 0
            else "compatible with strongly positive critical points"
        )
        lines.append(f"INFO  coefficient integral = {integral:.17g}: {verdict}")

    text = "\n".join(lines) + "\n"
    (out / "audit.txt").write_text(text, encoding="utf-8")
    for line in lines:
        say(line)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="plaplab",
        description=(
            "Energy minimization laboratory for generalized p-Laplacian "
            "problems with subhomogeneous reactions"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--config",
            required=True,
            help=f"config file path or builtin id ({', '.join(BUILTIN_SCENARIOS)})",
        )
        p.add_argument("--out", default="plaplab_out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_solve = sub.add_parser("solve", help="single minimization run")
    common(p_solve)
    p_solve.add_argument(
        "--reference", default=None, help="solution.csv to compare against (comparability delta)"
    )

    p_exp = sub.add_parser("experiment", help="multi-start run with clustering")
    common(p_exp)

    p_path = sub.add_parser("path", help="energy profile along the power path between two fields")
    common(p_path)
    p_path.add_argument("--u", required=True, help="endpoint: solution.csv path or const:<value>")
    p_path.add_argument("--v", required=True, help="endpoint: solution.csv path or const:<value>")

    p_eigen = sub.add_parser("eigen", help="first eigenvalue on the config grid")
    common(p_eigen)

    p_audit = sub.add_parser("audit", help="run structural assumption audits")
    common(p_audit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def say(message: str) -> None:
        if not args.quiet:
            print(message)

    try:
        config = load_config(args.config)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out!r}: cannot create the directory: {exc}") from exc
        if args.command == "solve":
            return _cmd_solve(config, out, args.seed, args.reference, say)
        if args.command == "experiment":
            return _cmd_experiment(config, out, args.seed, say)
        if args.command == "path":
            return _cmd_path(config, out, args.u, args.v, say)
        if args.command == "eigen":
            return _cmd_eigen(config, out, args.seed, say)
        return _cmd_audit(config, out, say)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except PlapLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
