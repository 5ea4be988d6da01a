import csv
import dataclasses
import hashlib

import numpy as np
import pytest

import plaplab.cli
from plaplab.cli import main
from plaplab.config import load_config

SMALL_EIGEN = """
scenario_id = eig_small
grid.n = 50
diffusion.p = 2.0
reaction.family = pure_subhomogeneous
reaction.q = 1.5
reaction.a = 0
boundary = dirichlet_zero
"""

TINY_BUDGET = """
scenario_id = tiny_budget
grid.n = 64
diffusion.p = 2.0
reaction.family = pure_subhomogeneous
reaction.q = 1.5
reaction.a = 1*sin(2*pi*x) + 0.3
boundary = dirichlet_zero
solver.max_iterations = 3
solver.init = const:0.5
"""


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_solve_e4_writes_reports(tmp_path, capsys):
    out = tmp_path / "e4"
    code = main(["solve", "--config", "E4", "--out", str(out)])
    assert code == 0
    report = read_csv(out / "report.csv")[0]
    assert report["status"] == "converged"
    assert report["classification"] == "interior_cone"
    solution = read_csv(out / "solution.csv")
    values = np.array([float(row["value"]) for row in solution])
    assert np.abs(values - 1.0).max() < 1e-6
    assert "converged" in capsys.readouterr().out


def test_csv_format_contract(tmp_path):
    out = tmp_path / "fmt"
    assert main(["solve", "--config", "E4", "--out", str(out), "--quiet"]) == 0
    raw = (out / "report.csv").read_bytes()
    assert b"\r" not in raw  # LF endings only
    energy = read_csv(out / "report.csv")[0]["energy_total"]
    assert float(energy) == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert len(energy.replace("-", "").replace(".", "").lstrip("0")) >= 15


def test_solve_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["solve", "--config", "E1", "--out", str(out1), "--quiet"])
    main(["solve", "--config", "E1", "--out", str(out2), "--quiet"])
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()


def test_solve_reference_delta(tmp_path):
    out = tmp_path / "ref"
    main(["solve", "--config", "E4", "--out", str(out), "--quiet"])
    again = tmp_path / "again"
    code = main(
        [
            "solve",
            "--config",
            "E4",
            "--out",
            str(again),
            "--reference",
            str(out / "solution.csv"),
            "--quiet",
        ]
    )
    assert code == 0
    row = read_csv(again / "report.csv")[0]
    assert float(row["delta_vs_reference"]) == pytest.approx(1.0, abs=1e-9)


def test_experiment_unbounded_detection(tmp_path, capsys):
    out = tmp_path / "pos"
    code = main(["experiment", "--config", "E1N_POS", "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "report.csv")
    assert all(row["status"] == "not_bounded_below" for row in rows)
    assert "not_bounded_below" in capsys.readouterr().out


def test_experiment_clusters_and_solutions(tmp_path):
    out = tmp_path / "exp"
    code = main(["experiment", "--config", "E4", "--out", str(out), "--quiet"])
    assert code == 0
    clusters = read_csv(out / "clusters.csv")
    assert len(clusters) == 1
    assert clusters[0]["classification"] == "interior_cone"
    assert int(clusters[0]["size"]) == 20
    rep = read_csv(out / "solution_c0.csv")
    values = np.array([float(row["value"]) for row in rep])
    assert np.abs(values - 1.0).max() < 1e-6
    assert (out / "solution.csv").exists()
    assert not (out / "midpoint.csv").exists()  # single cluster, no pairs
    rows = read_csv(out / "report.csv")
    assert len(rows) == 20
    assert {row["cluster"] for row in rows} == {"0"}


def test_path_degenerate_constants(tmp_path, capsys):
    out = tmp_path / "path"
    code = main(
        ["path", "--config", "E4", "--out", str(out), "--u", "const:1", "--v", "const:2"]
    )
    assert code == 0
    summary = read_csv(out / "path_summary.csv")[0]
    assert summary["degenerate_constants"] == "1"
    assert summary["strictly_convex_D"] == "0"
    rows = read_csv(out / "path.csv")
    assert len(rows) == 41
    d_values = np.array([float(row["diffusion_energy"]) for row in rows])
    assert np.abs(d_values).max() < 1e-14
    assert "degenerate (constants)" in capsys.readouterr().out


def test_path_accepts_solution_files(tmp_path):
    solved = tmp_path / "solved"
    main(["solve", "--config", "E1", "--out", str(solved), "--quiet"])
    out = tmp_path / "pathfiles"
    code = main(
        [
            "path",
            "--config",
            "E1",
            "--out",
            str(out),
            "--u",
            str(solved / "solution.csv"),
            "--v",
            "const:0",
            "--quiet",
        ]
    )
    assert code == 0
    summary = read_csv(out / "path_summary.csv")[0]
    assert float(summary["min_second_difference_I"]) >= -1e-10


def test_eigen_command(tmp_path):
    cfg = tmp_path / "eig.cfg"
    cfg.write_text(SMALL_EIGEN, encoding="utf-8")
    out = tmp_path / "eig"
    code = main(["eigen", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == 0
    row = read_csv(out / "eigen.csv")[0]
    assert float(row["lambda1"]) == pytest.approx(np.pi**2, abs=5e-2)
    history = read_csv(out / "eigen_history.csv")
    assert len(history) == int(row["iterations"]) + 1


def test_audit_command(tmp_path, capsys):
    out = tmp_path / "audit"
    code = main(["audit", "--config", "E1", "--out", str(out)])
    assert code == 0
    text = (out / "audit.txt").read_text(encoding="utf-8")
    assert text.count("PASS") >= 4
    assert "PASS" in capsys.readouterr().out


def test_audit_reports_positive_integral(tmp_path):
    out = tmp_path / "auditpos"
    assert main(["audit", "--config", "E1N_POS", "--out", str(out), "--quiet"]) == 0
    text = (out / "audit.txt").read_text(encoding="utf-8")
    assert "INFO" in text and "unbounded" in text


def test_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario_id = bad\n", encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert main(["solve", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o")]) == 2


def test_exponent_violation_rejected_before_compute(tmp_path):
    cfg = tmp_path / "bad_q.cfg"
    cfg.write_text(
        SMALL_EIGEN.replace("reaction.q = 1.5", "reaction.q = 2.5"), encoding="utf-8"
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_nonconvergence_exit_code(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_BUDGET, encoding="utf-8")
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 3


def test_invariant_violation_exit_code(tmp_path, monkeypatch):
    import plaplab.cli
    from plaplab.errors import InvariantViolation

    def explode(*args, **kwargs):
        raise InvariantViolation("synthetic convexity breach")

    monkeypatch.setattr(plaplab.cli, "path_energy_profile", explode)
    code = main(
        [
            "path",
            "--config",
            "E4",
            "--out",
            str(tmp_path / "o"),
            "--u",
            "const:1",
            "--v",
            "const:2",
            "--quiet",
        ]
    )
    assert code == 4


def test_seed_override_changes_start(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["solve", "--config", "E1", "--out", str(out1), "--seed", "1", "--quiet"])
    main(["solve", "--config", "E1", "--out", str(out2), "--seed", "2", "--quiet"])
    r1 = read_csv(out1 / "report.csv")[0]
    r2 = read_csv(out2 / "report.csv")[0]
    assert r1["iterations"] != r2["iterations"] or r1["residual"] != r2["residual"]


def test_experiment_classifies_each_converged_start_once(tmp_path, capsys, monkeypatch):
    calls = []
    classify = plaplab.cli.classify_cone

    def counting(ps, field):
        calls.append(field)
        return classify(ps, field)

    monkeypatch.setattr(plaplab.cli, "classify_cone", counting)
    cfg = tmp_path / "e2_small.cfg"
    cfg.write_text(dataclasses.replace(load_config("E2"), n=32, n_starts=6).serialize(), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    reports = read_csv(out / "report.csv")
    assert len(calls) == sum(row["converged"] == "1" for row in reports) == 6
    # the representative is start 4; the files are those written when every
    # representative was classified again for clusters.csv and the summary
    assert read_csv(out / "clusters.csv")[0]["representative_start"] == "4"
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("report.csv", "clusters.csv")
    }
    assert digests == {
        "report.csv": "0c79d68c851cc35c6bfdd36590870fd2455758d2551042bca9ed33f8f0df6774",
        "clusters.csv": "5059430f512dcb21c40ae0153baa499826e9874fadd3d9f810a6a505983742f1",
    }
    assert "cluster 0: 6 member(s), energy -4.95368e-07, dead_core" in capsys.readouterr().out


def _config_with_init(tmp_path, init):
    cfg = tmp_path / "init.cfg"
    cfg.write_text(TINY_BUDGET.replace("const:0.5", init), encoding="utf-8")
    return str(cfg)


def _config_with_line(tmp_path, line):
    cfg = tmp_path / "line.cfg"
    cfg.write_text(TINY_BUDGET + line + "\n", encoding="utf-8")
    return str(cfg)


def _nan_solution(tmp_path):
    path = tmp_path / "nan_solution.csv"
    path.write_text("node,x,value\n" + "".join(f"{i},0,nan\n" for i in range(129)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["solve", "--config", _config_with_init(tmp, "const:abc")],
        lambda tmp: ["solve", "--config", _config_with_init(tmp, "const:nan")],
        lambda tmp: ["solve", "--config", _config_with_init(tmp, "const:inf")],
        lambda tmp: ["path", "--config", "E1", "--u", "const:nan", "--v", "const:0"],
        lambda tmp: ["path", "--config", "E1", "--u", _nan_solution(tmp), "--v", "const:0"],
        lambda tmp: ["path", "--config", "E1N_NEG", "--u", "const:-1", "--v", "const:1"],
        lambda tmp: ["path", "--config", "E1", "--u", "const:1", "--v", "const:2"],
        lambda tmp: ["eigen", "--config", _config_with_line(tmp, "eigen.p = 0.5")],
        lambda tmp: ["solve", "--config", "E1", "--seed", "-1"],
        lambda tmp: ["experiment", "--config", "E1", "--seed", "-1"],
        lambda tmp: ["eigen", "--config", "E1", "--seed", "-1"],
    ],
    ids=["init-abc", "init-nan", "init-inf", "path-const-nan", "path-file-nan", "path-negative",
         "path-dirichlet-broken", "eigen-p-not-above-one", "solve-seed-negative",
         "experiment-seed-negative", "eigen-seed-negative"],
)
def test_bad_user_fields_exit_with_config_error(tmp_path, capsys, argv):
    code = main([*argv(tmp_path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
