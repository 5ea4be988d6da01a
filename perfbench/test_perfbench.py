"""Smoke test of the benchmark harness and tracer at tiny sizes.

    python -m pytest perfbench -q
"""

import importlib
import json
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

from plaplab import solve  # noqa: E402
from plaplab.config import load_config  # noqa: E402
from spans import Tracer  # noqa: E402
import speed  # noqa: E402
from speed import NOMINAL, SpeedClock  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


TINY = {
    "catalog_1d": {"n": 32, "starts": 2},
    "mesh_2d": {"sizes": (24, 32)},
    "verify": {"eigen_n": 40, "path_n": 16, "edges": 1_000, "axis": 10},
}


@pytest.fixture(autouse=True)
def tiny_sizes(monkeypatch):
    from workloads import WORKLOADS

    for name, sizes in TINY.items():
        monkeypatch.setattr(WORKLOADS[name], "SIZES", sizes)


def bench(capsys, workload, trace, seed=3):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_tracer_records_nested_spans_and_restores_functions():
    ps = load_config("E1").build_problem()
    values = np.linspace(0.0, 1.0, ps.grid.n_nodes) * (1.0 - np.linspace(0.0, 1.0, ps.grid.n_nodes))
    original = solve.energy_total
    with Tracer() as tracer:
        assert solve.energy_total is not original
        traced_value = solve.energy_total(ps, values)
    assert solve.energy_total is original
    assert traced_value == original(ps, values)

    table = tracer.table()
    labels = [table.names[i] for i in table.name]
    assert labels[0] == "plaplab.energy.energy_total"
    assert table.parent[0] == -1
    assert labels[1] == "plaplab.energy.energy_parts" and table.parent[1] == 0
    assert "plaplab.grid.gradient_values" in labels
    assert "plaplab.model.ReactionSpec.primitive" in labels
    assert np.all(table.self_time >= 0.0)
    # self times partition the root span
    assert np.isclose(table.self_time.sum(), table.duration[0], rtol=1e-9, atol=1e-12)


def test_tracer_wraps_the_name_each_module_looks_up():
    with Tracer() as tracer:
        energy = importlib.import_module("plaplab.energy")  # plaplab.energy is a function
        assert solve.energy_total is energy.energy_total
        assert getattr(solve.energy_total, "__wrapped__", None) is not None
    assert len(tracer.table()) == 0


def test_speed_clock_scales_wall_time_by_the_probed_speed(monkeypatch):
    monkeypatch.setattr(speed, "PERIOD", 0.01)
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedClock() as clock:
        start = clock.now()
        busy_until = time.perf_counter() + 0.2
        while time.perf_counter() < busy_until:
            pass
        elapsed = clock.now() - start
    assert signal.getsignal(signal.SIGALRM) is previous
    probes = clock.probes
    assert len(probes) >= 5
    # every slice is counted at a scale between the slowest and fastest probe
    assert (0.2 - sum(probes)) * NOMINAL / max(probes) <= elapsed <= 0.2 * NOMINAL / min(probes)


@pytest.mark.parametrize("workload", ["catalog_1d", "mesh_2d", "verify"])
def test_end_to_end_metrics(capsys, workload):
    code, result = bench(capsys, workload, trace=0)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_unexpected_status_fails_the_run(capsys, monkeypatch):
    import workloads

    monkeypatch.setitem(workloads.CATALOG_EXPECT, "E1", ("max_iterations", "interior_cone"))
    code, result = bench(capsys, "catalog_1d", trace=0)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_only_the_listed_failure_of_an_operation_is_tolerated():
    from workloads import Outcome

    def ended(label, kind):
        outcome = Outcome(label=label)
        outcome.unexpected("message", kind)
        return outcome

    assert ended("E2", "trivial point").failed
    assert not ended("E2", "trivial point").fails_run
    assert not ended("eigen_p1.5", "not converged").fails_run
    assert ended("E1", "trivial point").fails_run
    assert ended("E2", "").fails_run
    assert ended("eigen_p1.5", "trivial point").fails_run


@pytest.mark.parametrize("workload", ["catalog_1d", "verify"])
def test_traced_counts_repeat(capsys, workload):
    code, first = bench(capsys, workload, trace=1)
    assert code == 0 and first["correct"] is True
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    _, second = bench(capsys, workload, trace=1)
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
