import csv
import dataclasses
import hashlib

import numpy as np
import pytest

import plaplab.cli
from plaplab.cli import build_parser, main
from plaplab.config import BUILTIN_SCENARIOS, load_config
from plaplab.grid import ScalarField, build_interval_grid, build_rectangle_grid
from plaplab.solve import Cluster, MultiStartResult, minimize, random_start

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


def test_solve_reports_an_unbounded_energy_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "pos"
    assert main(["solve", "--config", "E1N_POS", "--out", str(out)]) == 0
    (row,) = read_csv(out / "report.csv")
    assert row["status"] == "not_bounded_below" and row["converged"] == "0"
    # no minimizer, so nothing is classified
    assert all(row[key] == "" for key in plaplab.cli._CLASSIFICATION_HEADER)
    assert (out / "solution.csv").exists()
    printed = capsys.readouterr().out
    assert "energy decreased without bound; no minimizer exists for this configuration" in printed


def test_experiment_without_a_converged_start_exits_3(tmp_path):
    cfg = tmp_path / "e1_no_iterations.cfg"
    cfg.write_text(dataclasses.replace(load_config("E1"), max_iterations=0).serialize(),
                   encoding="utf-8")
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    rows = read_csv(out / "report.csv")
    assert len(rows) == 20 and {row["status"] for row in rows} == {"max_iterations"}
    assert (out / "clusters.csv").read_text(encoding="utf-8") == ",".join(
        ["cluster", "size", "representative_start", "energy_total", "residual",
         *plaplab.cli._CLASSIFICATION_HEADER]
    ) + "\n"
    assert not (out / "solution.csv").exists() and not list(out.glob("solution_c*.csv"))


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


def test_path_on_large_fields_is_exactly_convex_to_relative_roundoff(tmp_path):
    """Energies near 1e300 carry second differences of roundoff near 1e284; the 1D
    exactness check scales its tolerance with them instead of reporting a violation."""
    argv = ["path", "--config", "E1N_NEG", "--u", "const:1e200", "--v", "const:1e100"]
    assert main([*argv, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert float(read_csv(tmp_path / "o" / "path_summary.csv")[0]["min_second_difference_I"]) < -1e-10


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


def test_eigen_with_an_overflowing_exponent_stalls_at_once(tmp_path):
    """At eigen.p = 1000 the Rayleigh gradient overflows and the direction is
    NaN: the descent stalls at iteration 0 instead of backtracking forever."""
    cfg = tmp_path / "eig.cfg"
    cfg.write_text(SMALL_EIGEN.replace("grid.n = 50", "grid.n = 16") + "eigen.p = 1000\n",
                   encoding="utf-8")
    out = tmp_path / "eig"
    assert main(["eigen", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    row = read_csv(out / "eigen.csv")[0]
    assert (row["iterations"], row["converged"], row["lambda1"]) == ("0", "0", "inf")


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


# sha256 of audit.txt per builtin scenario
AUDIT_DIGESTS = {
    "E1": "f7580ca7fb8a17e0c33734211b1d659565c1814331c9edcdd67bf28b0265eda6",
    "E2": "a9763c0a3ddd8b7cbec445f8fe71481efe7fd62de6a5d238e517acbb2ae17ca1",
    "E3": "034e3f343615218f71c2f60aca67f581e0fe9a89fe5f330351e78a106fdf8ccd",
    "E4": "2b3b9179c8e3c0a122c9609e10f30d9b62cf40fb0635bc6d604cfd98d0462165",
    "E5": "629b5500b65521dafbef415b547b351e179d247bda67b3443d6e70c8888383b4",
    "E6": "d85b865397a1316f601accecd3cc89f19df63675bbba3661012f0b7fc9c502ca",
    "E6B": "54cbd4617a424f213e387595db367556ab1f0d48a3ae8438f69a26160908d6b9",
    "E7": "0dd6a61c16dd540078d6b07022bf56d1b80056593862b79c34d3d8eabfa59562",
    "E1N_POS": "42c7ca5dd11d4f78ef562d0e023f0b7a477b4455ef01deea6b9477b4c22e1861",
    "E1N_NEG": "ec05daae86d4abb218668961ebc3569226e0f6095e2a87f6d64a97c6c4ca7312",
}


@pytest.mark.parametrize("scenario", BUILTIN_SCENARIOS)
def test_builtin_audit_text_is_unchanged(tmp_path, scenario):
    out = tmp_path / scenario
    assert main(["audit", "--config", scenario, "--out", str(out), "--quiet"]) == 0
    assert hashlib.sha256((out / "audit.txt").read_bytes()).hexdigest() == AUDIT_DIGESTS[scenario]


# two_term in 2D with p = 1.5: sigma = r - 1 = 0.5 is subcritical, sigma = 8 is not
TWO_TERM_2D = """scenario_id = two_term_2d
grid.dimension = 2
grid.n = 4
grid.ny = 4
diffusion.p = 1.5
reaction.family = two_term
reaction.q = 1.2
reaction.r = 1.5
reaction.b = -1
boundary = dirichlet_zero
"""


@pytest.mark.parametrize(
    "base, growth",
    [("E3", "dimension 1, cap 2): |g| <= C (1 + t^1.5)"),
     (TWO_TERM_2D, "dimension 2, cap 1.5): |g| <= C (1 + t^0.5)")],
    ids=["1d-E3", "2d-p1.5"],
)
def test_unused_exponent_is_a_config_error(tmp_path, capsys, base, growth):
    text = load_config(base).serialize() if base in BUILTIN_SCENARIOS else base
    codes = []
    for k, extra in enumerate(["", "reaction.p = 9\n"]):  # two_term does not use p
        cfg = tmp_path / f"c{k}.cfg"
        cfg.write_text(text + extra, encoding="utf-8")
        codes.append(main(["audit", "--config", str(cfg), "--out", str(tmp_path / f"o{k}"), "--quiet"]))
    assert codes == [0, 2]
    assert "two_term takes no exponent p" in capsys.readouterr().err
    audit = (tmp_path / "o0" / "audit.txt").read_text(encoding="utf-8")
    assert "FAIL" not in audit
    assert f"PASS  growth bound ({growth} with" in audit
    assert not (tmp_path / "o1").exists()


def test_experiment_csvs_are_unchanged(tmp_path):
    cfg = tmp_path / "e1_small.cfg"
    cfg.write_text(dataclasses.replace(load_config("E1"), n=48, n_starts=4).serialize(), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert digests == {
        "report.csv": "6843f821365b61bae2609845ee5b7a8d8dfcace7a97d83c374361a3ab933c0ff",
        "clusters.csv": "32c2ea92fb8adc761be0032e2d698e5c68949a26d887380c76cb7615194d94a4",
        "solution.csv": "b0cac28547477d1dd4d520f9f9a856734fce837aafa20ecc4023e42520236a4e",
        "solution_c0.csv": "b0cac28547477d1dd4d520f9f9a856734fce837aafa20ecc4023e42520236a4e",
    }


def run_cli(argv, out, capsys):
    """Exit code, stdout, stderr and the output tree of one in-process call."""
    try:
        code = main([*argv, "--out", str(out)])
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    captured = capsys.readouterr()
    tree = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.exists() else None
    return code, captured.out, captured.err, tree


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    cfg = tmp_path / "e1_small.cfg"
    cfg.write_text(dataclasses.replace(load_config("E1"), n=48, n_starts=3).serialize(), encoding="utf-8")
    eigen_cfg = tmp_path / "eig.cfg"
    eigen_cfg.write_text(SMALL_EIGEN, encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "ref"), "--quiet"]) == 0
    reference = str(tmp_path / "ref" / "solution.csv")
    calls = {
        "solve-seeded": ["solve", "--config", str(cfg), "--seed", "4", "--reference", reference],
        "rejected": ["solve", "--seed", "4"],  # no --config
        "solve": ["solve", "--config", str(cfg)],
        "experiment": ["experiment", "--config", str(cfg)],
        "eigen": ["eigen", "--config", str(eigen_cfg)],
        "path": ["path", "--config", str(cfg), "--u", reference, "--v", "const:0"],
        "audit": ["audit", "--config", str(cfg)],
    }
    # each call first in a fresh process state: the parser cache, the only
    # state the CLI keeps between calls, cleared
    fresh = {}
    for name, argv in calls.items():
        build_parser.cache_clear()
        fresh[name] = run_cli(argv, tmp_path / "fresh" / name, capsys)
    assert fresh["rejected"][0] == 2 and "--config" in fresh["rejected"][2]
    assert fresh["solve-seeded"][3]["report.csv"] != fresh["solve"][3]["report.csv"]
    # then all of them in one process, on one parser
    build_parser.cache_clear()
    parser = build_parser()
    for name, argv in calls.items():
        assert run_cli(argv, tmp_path / "shared" / name, capsys) == fresh[name], name
    assert build_parser() is parser


def shuffled(grid):
    """The same mesh with its nodes and its elements in another order."""
    rng = np.random.default_rng(3)
    order = rng.permutation(grid.n_nodes)  # new node k is old node order[k]
    rank = np.argsort(order)
    return dataclasses.replace(
        grid, nodes=grid.nodes[order], elements=rank[grid.elements[rng.permutation(grid.n_elements)]],
        boundary_nodes=np.sort(rank[grid.boundary_nodes]),
    )


def with_negative_zeros(grid):
    """x = -0.0 on every other node of the left edge, 0.0 on the rest."""
    nodes = grid.nodes.copy()
    left = np.flatnonzero(nodes[:, 0] == 0.0)
    nodes[left[::2], 0] = -0.0
    return dataclasses.replace(grid, nodes=nodes)


@pytest.mark.parametrize("grid", [build_interval_grid(9, -0.5, 1.0),
                                  build_rectangle_grid(4, 3, (0.0, 1.0, -0.3, 0.6)),
                                  shuffled(build_rectangle_grid(6, 5, (0.0, 1.0, -0.3, 0.6))),
                                  with_negative_zeros(build_rectangle_grid(4, 3, (0.0, 1.0, -0.3, 0.6)))],
                         ids=["1d", "2d", "2d-shuffled", "2d-negative-zero"])
def test_solution_csv_bytes_equal_savetxt(tmp_path, grid):
    values = np.random.default_rng(0).uniform(-2.0, 2.0, grid.n_nodes)
    values[:4] = [-0.0, 5e-324, 1e300, -1e300]
    field = ScalarField(grid, values)
    plaplab.cli._write_solution(field, tmp_path / "mine.csv")
    np.savetxt(
        tmp_path / "savetxt.csv",
        np.column_stack([np.arange(grid.n_nodes), grid.nodes, field.values]),
        fmt=["%d"] + ["%.17g"] * (grid.dimension + 1),
        delimiter=",",
        header=",".join(["node", *"xy"[: grid.dimension], "value"]),
        comments="",
    )
    assert (tmp_path / "mine.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_2d_solution_csv_is_unchanged(tmp_path):
    cfg = tmp_path / "rect.cfg"
    cfg.write_text(
        """scenario_id = rect
grid.dimension = 2
grid.n = 12
grid.ny = 8
grid.ymax = 0.5
diffusion.p = 2.0
reaction.family = pure_subhomogeneous
reaction.q = 1.5
reaction.a = 1*sin(2*pi*x) + 0.3
boundary = dirichlet_zero
""",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert read_csv(out / "solution.csv")[0].keys() == {"node", "x", "y", "value"}
    assert (
        hashlib.sha256((out / "solution.csv").read_bytes()).hexdigest()
        == "72bdf4d388a2646e89cfa2eeccc06114e6b5754e48c35c552c22421a88f7881b"
    )


def _e1_config(tmp_path, n):
    cfg = tmp_path / f"e1_{n}.cfg"
    cfg.write_text(dataclasses.replace(load_config("E1"), n=n).serialize(), encoding="utf-8")
    return str(cfg)


def _e4_solution(tmp_path):
    assert main(["solve", "--config", "E4", "--out", str(tmp_path / "ref"), "--quiet"]) == 0
    return str(tmp_path / "ref" / "solution.csv")


# run: (argv without --out, sha256 of each CSV it writes besides the solution files)
CSV_DIGESTS = {
    "path-E4-constants": (
        lambda tmp: ["path", "--config", "E4", "--u", "const:1", "--v", "const:2"],
        {"path.csv": "510d87dd725f5d9c5d669f7606c6e6819c654a17e4bd0c47bde12e81b412ec04",
         "path_summary.csv": "eb3c203ac52a84662e0c0d6f2dcc791d8ef6419c6ff2ab5fb6c22475b6f1044c"},
    ),
    "eigen-E1-n40": (
        lambda tmp: ["eigen", "--config", _e1_config(tmp, 40)],
        {"eigen.csv": "0a14d209ec9b0c16383fa944adc969fdad0f3d765406fb2b1337fb86fab32dfc",
         "eigen_history.csv": "202181d290cabebd1d9cc7e3cce5696a8bd8691355914dbb323b19c32a87be44"},
    ),
    "solve-E4-reference": (
        lambda tmp: ["solve", "--config", "E4", "--reference", _e4_solution(tmp)],
        {"report.csv": "c781ecb48826e3b3fbbd7e5cceb4b2b4e6dc77740d809eac62f627fc719a1dd7"},
    ),
    "experiment-E1N_POS": (  # no start converges: clusters.csv is its header alone
        lambda tmp: ["experiment", "--config", "E1N_POS"],
        {"report.csv": "1312b07407c67d98bfdaa3e2fbbf8eaa0d3612c8f28db95b4f656979cf49125e",
         "clusters.csv": "6078a9ff96b524f14bdad2d1fd5151d1cadd6f8e7200127174d2e7ff22f6c3f3"},
    ),
}


@pytest.mark.parametrize("run", list(CSV_DIGESTS))
def test_cli_csvs_are_unchanged(tmp_path, run):
    argv, expected = CSV_DIGESTS[run]
    out = tmp_path / "out"
    assert main([*argv(tmp_path), "--out", str(out), "--quiet"]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected} == expected


def test_midpoint_csv_is_unchanged(tmp_path, monkeypatch):
    def two_clusters(ps, n_starts, opts):
        # a positive minimizer and the trivial critical point: two nonnegative clusters
        reports = [minimize(ps, random_start(ps, opts.random_seed), opts),
                   minimize(ps, ScalarField(ps.grid, np.zeros(ps.grid.n_nodes)), opts)]
        return MultiStartResult(reports, [Cluster([0], 0), Cluster([1], 1)])

    monkeypatch.setattr(plaplab.cli, "multi_start", two_clusters)
    out = tmp_path / "out"
    assert main(["experiment", "--config", _e1_config(tmp_path, 48), "--out", str(out), "--quiet"]) == 0
    assert read_csv(out / "midpoint.csv") == [{"cluster_u": "0", "cluster_v": "1", "verdict": "strict",
                                               "gap": "3.1357728751611816e-06"}]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("midpoint.csv", "clusters.csv", "report.csv")}
    assert digests == {
        "midpoint.csv": "737e5e51d790747d292b734a06b386096dfec1220c85da256544c67008b241c7",
        "clusters.csv": "3d34f86d5c0ff8307ee3f713cf778586c7e96bebac1ccf5901df732a0a162eb4",
        "report.csv": "2061b659574ea02db34e36b37ca94f98e686c8c111aecea3739868d47819eacb",
    }


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
    # the representative is start 2; the files are those written when every
    # representative was classified again for clusters.csv and the summary
    assert read_csv(out / "clusters.csv")[0]["representative_start"] == "2"
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("report.csv", "clusters.csv")
    }
    assert digests == {
        "report.csv": "8fefd44577df7f63199fd4a6c9592c19181b692a0412a6f62048fec94c85c0d3",
        "clusters.csv": "e96453ae9a56a27b4ae9e05690258a6624a789d146889da660b0b481913a5373",
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


def _config_with_p(tmp_path, p):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(TINY_BUDGET.replace("diffusion.p = 2.0", f"diffusion.p = {p}"), encoding="utf-8")
    return str(cfg)


def _file_at_out(tmp_path):
    (tmp_path / "o").write_text("", encoding="utf-8")
    return ["audit", "--config", "E1"]


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
        lambda tmp: ["path", "--config", "E4", "--u", "const:1e200", "--v", "const:1e100"],
        lambda tmp: ["path", "--config", "E1N_NEG", "--u", "const:1e300", "--v", "const:1e250"],
        lambda tmp: ["eigen", "--config", _config_with_line(tmp, "eigen.p = 0.5")],
        lambda tmp: ["solve", "--config", "E1", "--seed", "-1"],
        lambda tmp: ["experiment", "--config", "E1", "--seed", "-1"],
        lambda tmp: ["eigen", "--config", "E1", "--seed", "-1"],
        _file_at_out,
        lambda tmp: ["solve", "--config", _config_with_line(tmp, "reaction.negative_extension = none")],
        lambda tmp: ["experiment", "--config",
                     _config_with_line(tmp, "reaction.negative_extension = none")],
        lambda tmp: ["solve", "--config", _config_with_p(tmp, 1000)],
        lambda tmp: ["experiment", "--config", _config_with_p(tmp, 1000)],
    ],
    ids=["init-abc", "init-nan", "init-inf", "path-const-nan", "path-file-nan", "path-negative",
         "path-dirichlet-broken", "path-energy-overflow", "path-power-overflow", "eigen-p-not-above-one", "solve-seed-negative",
         "experiment-seed-negative", "eigen-seed-negative", "out-is-a-file",
         "solve-no-negative-extension", "experiment-no-negative-extension",
         "solve-start-energy-overflow", "experiment-start-energy-overflow"],
)
def test_bad_user_fields_exit_with_config_error(tmp_path, capsys, argv):
    code = main([*argv(tmp_path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
