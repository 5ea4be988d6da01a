"""Benchmark of the plaplab laboratory: time-to-tolerance and per-layer spans.

    python3 perfbench/run.py --workload catalog_1d --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40   # each in turn

Run from the repository root. One process, one thread (BLAS pinned to one
thread), closed loop: each program call starts when the previous one has
returned. The workloads are described in ``workloads.py``.

``--trace 0`` makes passes over seeded inputs, a fresh input set per pass,
until ``--seconds`` would be exceeded, and reports the end-to-end metrics:
``wall_s``, one pass's time as the sum of each call's median over the
passes; ``setup_s``, the median time to load the configs and build their
problems, set up repeatedly before every call; and the process's
``peak_rss_mb``. Both times are in reference seconds (``speed.py``): wall
time scaled by the host's speed, probed every 50 ms during the run, so that
the shared host's drifting speed does not show as a change of the program.
The raw wall times are printed and recorded beside them. ``--trace 1`` alternates untraced and traced passes over the
first input set and reports the per-layer metrics of the first traced pass;
its spans and every run's raw timings are written to ``.perfbench/results/``.

Every pass's outputs are checked. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed /
attempted`` is the fail fraction. The exit code is 1 when a result is wrong
or an operation failed other than as ``workloads.KNOWN_FAILURES`` lists, and 2
when the program's sources are missing (no result is printed then).
"""

import argparse
import os
import sys

PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(PINNED_THREADS)  # before NumPy loads its BLAS

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SECONDS = 0.3  # set-up repeats per pass, spread over its calls, at least one per call
GRAD_FUNCTIONS = ("plaplab.energy.energy_grad_and_scaling", "plaplab.energy.energy_grad_values")
MINIMIZE_FUNCTIONS = ("plaplab.solve.minimize", "plaplab.solve.critical_point_from")
STATUSES = ("converged", "max_iterations", "stalled", "not_bounded_below")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_info() -> dict:
    def read(path: str) -> str:
        try:
            with open(path, encoding="utf-8") as handle:
                return handle.read()
        except OSError:
            return ""

    cpu = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {
        level: read(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size").strip() or "unknown"
        for level, index in (("l2", 2), ("l3", 3))
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "l2": caches["l2"],
        "l3": caches["l3"],
        "commit": git_commit(),
        "blas": blas,
        "blas_threads": PINNED_THREADS["OPENBLAS_NUM_THREADS"],
    }


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def time_setup(calls, clock) -> float:
    """One set-up of the pass's problems: load configs, build grids, fields, tables."""
    from plaplab.config import load_config

    start = clock()
    for call in calls:
        if call.config is None:
            continue
        config = load_config(str(call.config))
        grid = config.build_problem().grid
        _ = (grid.node_mass, grid.edges)  # lazily built tables
    return clock() - start


def sample_setups(calls, setups: list, clock) -> None:
    """Set up the pass repeatedly for its share of SETUP_SECONDS, at least once."""
    end = time.perf_counter() + SETUP_SECONDS / len(calls)
    setups.append(time_setup(calls, clock))
    while time.perf_counter() < end:
        setups.append(time_setup(calls, clock))


def run_pass(calls, tracer=None, before=None, clock=time.perf_counter):
    """Run the calls in order, each after ``before()`` if given; returns
    (per-call seconds by ``clock``, results, span ranges)."""
    times = []
    results = []
    ranges = []
    for call in calls:
        if before:
            before()
        first = len(tracer.start) if tracer else 0
        start = clock()
        try:
            result = call.run()
        except Exception as exc:  # an operation that raises is a failed one
            traceback.print_exc(file=sys.stderr)
            result = exc
        times.append(clock() - start)
        results.append(result)
        ranges.append((first, len(tracer.start) if tracer else 0))
    return times, results, ranges


def check_pass(calls, results):
    from workloads import Outcome

    outcomes = []
    for call, result in zip(calls, results):
        try:
            outcome = call.check(result)
        except Exception as exc:  # missing or malformed output
            outcome = Outcome()
            outcome.wrong(f"output check raised {type(exc).__name__}: {exc}")
        outcome.label = call.label
        outcomes.append(outcome)
    return outcomes


def grad_bytes(mesh) -> int:
    """Compulsory bytes of one gradient-plus-scaling call: every input and output
    array read or written once (float64/int64), intermediates excluded."""
    dim, nodes, elements = mesh
    local = dim + 1
    # values, node_mass, a, b, gradient, scaling: per node; elements,
    # grad coeffs, grad_coeff_sq, volume: per element
    return 8 * (6 * nodes + elements * (local + local * dim + local + 1))


def layer_metrics(table, calls, ranges, outcomes, traced_walls, untraced_walls) -> dict:
    def total(values) -> float:
        return float(np.sum(values))

    def duration(*labels) -> float:
        return total(table.duration[table.mask(*labels)])

    def self_time(*labels) -> float:
        return total(table.self_time[table.mask(*labels)])

    def count(*labels) -> int:
        return int(np.count_nonzero(table.mask(*labels)))

    def ratio(numerator, denominator) -> float:
        return numerator / denominator if denominator else 0.0

    call_of_span = np.repeat(np.arange(len(calls)), [last - first for first, last in ranges])
    grad = table.mask(*GRAD_FUNCTIONS)
    grad_calls = call_of_span[grad]
    grad_nodes = sum(calls[i].mesh[1] for i in grad_calls)

    solves = [solve for outcome in outcomes for solve in outcome.solves]
    iterations = sum(n for _, n in solves)
    minimize = table.mask(*MINIMIZE_FUNCTIONS)
    # energy evaluations made by the descent loop itself: backtracks and shift walk
    evals = table.mask("plaplab.energy.energy_total") & (table.parent >= 0)
    evals &= minimize[np.maximum(table.parent, 0)]

    grid_tables = [n for n in table.names if n.startswith("plaplab.grid.Grid.")]
    return {
        "config.load_s": duration("plaplab.config.load_config"),
        "grid.build_s": self_time(
            "plaplab.grid.build_interval_grid", "plaplab.grid.build_rectangle_grid", *grid_tables
        ),
        "grid.gradient_calls": count("plaplab.grid.gradient_values"),
        "grid.gradient_s": duration("plaplab.grid.gradient_values"),
        "model.reaction_s": self_time(
            *(f"plaplab.model.ReactionSpec.{m}" for m in ("value", "primitive", "derivative"))
        ),
        "model.diffusion_s": self_time(
            *(f"plaplab.model.DiffusionSpec.{m}" for m in ("value", "primitive"))
        ),
        "energy.total_calls": count("plaplab.energy.energy_total"),
        "energy.total_us_per_call": 1e6 * ratio(
            duration("plaplab.energy.energy_total"), count("plaplab.energy.energy_total")
        ),
        "energy.grad_calls": int(np.count_nonzero(grad)),
        "energy.grad_ns_per_node": 1e9 * ratio(total(table.duration[grad]), grad_nodes),
        "energy.grad_bytes_computed": sum(grad_bytes(calls[i].mesh) for i in grad_calls),
        "solve.iters": iterations,
        "solve.us_per_iter": 1e6 * ratio(total(table.duration[minimize]), iterations),
        "solve.evals_per_iter": ratio(int(np.count_nonzero(evals)), iterations),
        "solve.self_s": total(table.self_time[table.mask_prefix("plaplab.solve.")]),
        "solve.converged_frac": ratio(sum(s == "converged" for s, _ in solves), len(solves)),
        **{f"solve.status.{status}": sum(s == status for s, _ in solves) for status in STATUSES},
        "solve.eigen_iters": sum(outcome.eigen_iterations for outcome in outcomes),
        "solve.eigen_s": duration("plaplab.solve.first_eigenvalue"),
        "paths.profile_calls": count("plaplab.paths.path_energy_profile"),
        "paths.profile_s": duration("plaplab.paths.path_energy_profile"),
        "paths.midpoint_s": duration("plaplab.paths.midpoint_energy_test"),
        "paths.certificate_s": duration(
            "plaplab.paths.edge_difference_violation",
            "plaplab.paths.power_product_concavity_grid",
            "plaplab.paths.power_product_concavity",
        ),
        "classify.cone_calls": count("plaplab.classify.classify_cone"),
        "classify.cone_s": duration("plaplab.classify.classify_cone"),
        "cli.self_s": self_time("plaplab.cli.main"),
        "trace.overhead_frac": (
            statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
        ),
    }


def measure(args, workload, results_dir: Path):
    """Run the passes; returns (metrics, outcomes of every pass, report lines, raw timings)."""
    from spans import Tracer
    from speed import NOMINAL, SpeedClock

    outcomes = []
    lines = []
    deadline = None

    def room_for(pass_seconds: float) -> bool:
        return time.perf_counter() + pass_seconds <= deadline

    if not args.trace:
        # Fresh inputs per pass. A pass's wall time is estimated as the sum over
        # its calls of each call's median across passes, which discards a burst
        # of machine contention or an outlier start hitting one pass of a call.
        # Set-ups are spread too, a few before every call, so that they see
        # the same host as the calls. Times are in reference seconds.
        call_times, setups, iterations, pass_seconds = [], [], [], []
        deadline = time.perf_counter() + args.seconds
        k = 0
        with SpeedClock() as clock:
            while not pass_seconds or room_for(max(pass_seconds)):
                start = time.perf_counter()
                calls = workload.make_pass(k)
                times, results, _ = run_pass(
                    calls, before=partial(sample_setups, calls, setups, clock.now), clock=clock.now
                )
                call_times.append(times)
                checked = check_pass(calls, results)
                iterations.append(sum(outcome.iterations for outcome in checked))
                outcomes += checked
                pass_seconds.append(time.perf_counter() - start)
                k += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls = [sum(times) for times in call_times]
        wall_s = sum(statistics.median(column) for column in zip(*call_times))
        probes = clock.probes
        lines.append(f"wall_s       {wall_s:.4f} s   reference seconds, sum of per-call medians "
                     f"over {len(walls)} passes (pass totals min {min(walls):.4f}, "
                     f"median {statistics.median(walls):.4f}, max {max(walls):.4f})")
        lines.append(f"solver iterations per pass {iterations}, reference seconds per pass "
                     f"{[round(w, 3) for w in walls]}, raw wall seconds per pass with set-ups "
                     f"and checks {[round(w, 3) for w in pass_seconds]}")
        lines.append(f"host speed   {clock.speed():.3f} of reference, median of {len(probes)} "
                     f"probes (slowest {NOMINAL / max(probes):.3f}, fastest "
                     f"{NOMINAL / min(probes):.3f})")
        lines.append(f"setup_s      {statistics.median(setups):.6f} s   reference seconds, median "
                     f"of {len(setups)} set-ups (min {min(setups):.6f}, max {max(setups):.6f})")
        lines.append(f"peak_rss_mb  {peak_rss_mb:.1f} MB  process peak over {len(walls)} passes")
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        raw = {"calls": [call.label for call in calls], "call_seconds": call_times,
               "setup_seconds": setups, "iterations_per_pass": iterations,
               "pass_wall_seconds": pass_seconds, "probe_seconds": probes}
        return metrics, outcomes, lines, raw

    calls = workload.make_pass(0)
    tracer = Tracer()
    traced, untraced = [], []
    table = None
    deadline = time.perf_counter() + args.seconds
    while not (traced and untraced) or room_for(max(traced) + max(untraced)):
        times, results, _ = run_pass(calls)
        untraced.append(sum(times))
        outcomes += check_pass(calls, results)
        tracer.clear()
        with tracer:
            times, results, ranges = run_pass(calls, tracer)
        traced.append(sum(times))
        outcomes += check_pass(calls, results)
        if table is None:
            table = tracer.table()
            first_ranges, first_outcomes = ranges, outcomes[-len(calls):]
    table.save(results_dir / f"spans-{workload.name}-seed{args.seed}.npz")
    metrics = layer_metrics(table, calls, first_ranges, first_outcomes, traced, untraced)
    lines.append(f"traced passes {len(traced)}, untraced passes {len(untraced)}, "
                 f"spans in the first traced pass {len(table)}")
    for name, value in metrics.items():
        lines.append(f"{name:28s} {value:.6g}")
    return metrics, outcomes, lines, {"traced_seconds": traced, "untraced_seconds": untraced}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "plaplab" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    from workloads import WORKLOADS

    if args.workload == "all":
        # one process per workload, so that each reports its own peak memory
        options = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, *options]).returncode
                 for name in WORKLOADS]
        return max(codes)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        metrics, outcomes, lines, raw = measure(args, workload, results_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    correct = not any(outcome.fails_run for outcome in outcomes)
    machine = machine_info()
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, **result, "raw": raw}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("machine " + json.dumps(machine))
    for line in lines:
        print(line)
    print(f"fail_frac    {failed / attempted:.6g}   {failed} failed of {attempted} operations"
          f"{'' if correct else ' (CHECKS FAILED)'}")
    failures = Counter(
        (o.label, "wrong" if not o.correct else "failed" if o.fails_run else "known", o.detail)
        for o in outcomes if o.failed
    )
    for (label, kind, detail), times in sorted(failures.items()):
        print(f"  {kind} x{times} {label}: {detail}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
