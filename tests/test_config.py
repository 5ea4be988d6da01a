import dataclasses
import hashlib

import pytest

import plaplab.config
from plaplab.cli import main
from plaplab.config import BUILTIN_SCENARIOS, ScenarioConfig, builtin_scenario_text, load_config
from plaplab.errors import ConfigError

MINIMAL = """
scenario_id = demo
grid.n = 16
diffusion.p = 2.0
reaction.family = pure_subhomogeneous
reaction.q = 1.5
reaction.a = 1*sin(2*pi*x) + 0.3
boundary = dirichlet_zero
"""


def test_minimal_config_parses_with_defaults():
    config = ScenarioConfig.from_text(MINIMAL)
    assert config.scenario_id == "demo"
    assert config.dimension == 1
    assert config.n_starts == 20
    assert config.path_q == 1.5
    assert config.residual_tolerance == 1e-9


def test_roundtrip_identity_custom():
    config = ScenarioConfig.from_text(MINIMAL)
    again = ScenarioConfig.from_text(config.serialize())
    assert again == config


def test_roundtrip_keeps_a_negative_zero_term():
    config = ScenarioConfig.from_text(MINIMAL.replace("1*sin(2*pi*x) + 0.3", "1 - 0*x"))
    text = config.serialize()
    assert "reaction.a = 1 - 0*x\n" in text
    again = ScenarioConfig.from_text(text)
    assert again == config
    assert [t.c.hex() for t in again.a.terms] == ["0x1.0000000000000p+0", "-0x0.0p+0"]


@pytest.mark.parametrize("scenario", BUILTIN_SCENARIOS)
def test_roundtrip_identity_builtin(scenario):
    config = load_config(scenario)
    assert config.scenario_id == scenario
    again = ScenarioConfig.from_text(config.serialize())
    assert again == config


def test_builtin_lookup_case_insensitive():
    assert load_config("e1") == load_config("E1")


def test_builtin_configs_build_problems():
    for scenario in BUILTIN_SCENARIOS:
        config = load_config(scenario)
        ps = config.build_problem()
        assert ps.grid.n_nodes == config.n + 1


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.cfg"))


def test_subhomogeneous_exponent_out_of_range_rejected():
    bad = MINIMAL.replace("reaction.q = 1.5", "reaction.q = 2.5")
    with pytest.raises(ConfigError):
        ScenarioConfig.from_text(bad)


def test_unknown_key_rejected():
    for key in ("solver.turbo", "solver.initial_step"):  # the second is a retired key
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_text(MINIMAL + f"{key} = 1\n")
        assert f"unknown config keys: {key}" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_text(MINIMAL + "grid.n = 32\n")
    assert "duplicate" in str(err.value)


def test_malformed_line_reports_number():
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_text("scenario_id demo\n")
    assert "line 1" in str(err.value)


def test_bad_numbers_and_choices():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_text(MINIMAL.replace("grid.n = 16", "grid.n = sixteen"))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_text(MINIMAL.replace("dirichlet_zero", "periodic"))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_text(MINIMAL + "solver.init = middling\n")


FLAT_2D = """
scenario_id = flat2d
grid.dimension = 2
grid.n = 4
grid.ny = 3
grid.ymax = 2.0
diffusion.p = 2.0
reaction.family = double_power
reaction.q = 1.5
reaction.r = 3.0
boundary = natural
"""

# every key set away from its default, in the order serialization writes them
ALL_KEYS = """scenario_id = all_keys
description = every key but reaction.p away from its default
grid.dimension = 2
grid.n = 6
grid.xmin = -1
grid.xmax = 2
grid.ny = 5
grid.ymin = 0.5
grid.ymax = 1.5
diffusion.family = power_shift
diffusion.p = 2.5
diffusion.r = 3.5
reaction.family = two_term
reaction.q = 1.25
reaction.r = 1.75
reaction.a = 1*sin(2*pi*x) + 0.29999999999999999
reaction.b = 0.5*x2^2
reaction.negative_extension = odd
reaction.sigma = 3
boundary = natural
solver.max_iterations = 500
solver.residual_tolerance = 9.9999999999999995e-08
solver.n_starts = 4
solver.seed = 7
solver.init = const:0.25
path.q = 1.125
path.samples = 11
eigen.p = 3
"""

# sha256 of serialize(): the canonical text is part of the format
SERIALIZED_SHA256 = {
    "E1": "8e4f3b67684e34056fa4cb86e494b72bedf156b450bbf406efe1b2f11fc3b290",
    "E2": "082abc4cbea2bf53d9db7e9aefc564f74dd33d39877930cf29e246d7b8eccb55",
    "E3": "af32e1c4f20eb734647884041a56efc9169df406fcfe4b6c92c8e768ed306a21",
    "E4": "89d4bf52d2c3c5366bda7fd7462d3e4b179330d5d8bbcfed82e8b6c2a9ee09d8",
    "E5": "c1ef0827269871108f7d15ae3274bd238638578ac7bd9125d3224d07b86b911f",
    "E6": "4ab374c360ce1bede5b6589880dc7bfce87efb9b6d0a8b48c8fe470c1dea910d",
    "E6B": "e47ed52d03f60e8b99eaae4354e81bb5b3274dd81a3e846f39a474842b0c834f",
    "E7": "045207ea8e9d8f158b2a3c5d2c743beb8b03ed1e9a2aec33b2ea076a890466e2",
    "E1N_POS": "d070e56bbce5dc0c21a1a3041df6595e5ea4d552764813361bf975555555a7f9",
    "E1N_NEG": "e4c93795a100e05b7b3ed63b0529810b2e7bc3304bd9e6e2afe58b80d625681f",
    "flat2d": "1f42b3388788791ed5082e8df78ea0f2461dc3bc16956b39e32cd284e8ee50cb",
}


@pytest.mark.parametrize("name", list(SERIALIZED_SHA256))
def test_serialized_text_is_pinned(name):
    config = ScenarioConfig.from_text(FLAT_2D) if name == "flat2d" else load_config(name)
    digest = hashlib.sha256(config.serialize().encode("utf-8")).hexdigest()
    assert digest == SERIALIZED_SHA256[name]


def test_every_key_round_trips_in_table_order():
    # no family takes both reaction.r and reaction.p: logistic carries the second
    logistic = ALL_KEYS.replace(
        "reaction.family = two_term\nreaction.q = 1.25\nreaction.r = 1.75\n",
        "reaction.family = logistic\nreaction.q = 3.5\nreaction.p = 2.5\n",
    )
    assert "reaction.p = 2.5" in logistic
    for text in (ALL_KEYS, logistic):
        config = ScenarioConfig.from_text(text)
        assert config.serialize() == text
        assert ScenarioConfig.from_text(config.serialize()) == config


def _e1_with(line: str, dimension: int = 1) -> str:
    """E1's text with ``line`` in place of the key it sets."""
    key = line.split("=", 1)[0]
    text = builtin_scenario_text("E1").replace("dimension = 1", f"dimension = {dimension}")
    kept = [entry for entry in text.splitlines() if not entry.startswith(key)]
    return "\n".join([*kept, line]) + "\n"


@pytest.mark.parametrize(
    "line, dimension",
    [
        ("grid.n = 1", 1),
        ("grid.xmax = -1", 1),
        ("grid.xmax = inf", 1),
        ("grid.xmin = -inf", 1),
        ("grid.ny = 1", 2),
        ("grid.ymax = -1", 2),
        ("grid.ymin = nan", 2),
        ("diffusion.p = inf", 1),
        ("solver.residual_tolerance = -1", 1),
        ("solver.residual_tolerance = nan", 1),
        ("solver.max_iterations = -1", 1),
        ("solver.seed = -1", 1),
        ("solver.n_starts = 1", 1),
        ("path.samples = 2", 1),
        ("path.q = 0.5", 1),
        ("eigen.p = 0.5", 1),
        ("reaction.a = 1e400", 1),
        ("reaction.a = x^-1", 1),
        ("reaction.a = 1 @ 2", 1),
    ],
)
def test_values_the_program_cannot_run_are_rejected_at_load(line, dimension):
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_text(_e1_with(line, dimension))
    assert line.split(" =")[0] in str(err.value)


def test_dimension_is_read_as_a_number():
    config = ScenarioConfig.from_text(FLAT_2D.replace("grid.dimension = 2", "grid.dimension = 02"))
    assert config == ScenarioConfig.from_text(FLAT_2D)
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_text(MINIMAL + "grid.ny = 3\n")
    assert "grid.ny" in str(err.value)


def _count_grid_builds(monkeypatch) -> list:
    builds = []
    for name in ("build_interval_grid", "build_rectangle_grid"):
        builder = getattr(plaplab.config, name)

        def counting(*args, builder=builder):
            builds.append(args)
            return builder(*args)

        monkeypatch.setattr(plaplab.config, name, counting)
    return builds


def test_a_config_load_builds_its_problem_once(monkeypatch):
    builds = _count_grid_builds(monkeypatch)
    config = load_config("E1")
    assert config.build_problem() is config.build_problem()
    assert len(builds) == 1
    smaller = dataclasses.replace(config, n=16)
    assert smaller.build_problem().grid.n_nodes == 17
    assert len(builds) == 2


@pytest.mark.parametrize(
    "command",
    [["solve"], ["experiment"], ["eigen"], ["audit"], ["path", "--u", "const:1", "--v", "const:2"]],
    ids=lambda command: command[0],
)
def test_every_subcommand_builds_the_grid_once(tmp_path, monkeypatch, command):
    cfg = tmp_path / "e4_small.cfg"
    small = dataclasses.replace(load_config("E4"), n=16, n_starts=2)
    cfg.write_text(small.serialize(), encoding="utf-8")
    builds = _count_grid_builds(monkeypatch)
    out = str(tmp_path / "o")
    argv = [command[0], "--config", str(cfg), "--out", out, "--quiet", *command[1:]]
    assert main(argv) in (0, 3)
    assert len(builds) == 1


def test_2d_config_grid():
    config = ScenarioConfig.from_text(FLAT_2D)
    grid = config.build_grid()
    assert grid.dimension == 2
    assert grid.n_nodes == 5 * 4
    assert abs(grid.measure - 2.0) <= 1e-12
    assert ScenarioConfig.from_text(config.serialize()) == config


def test_solve_options_seed_override():
    config = ScenarioConfig.from_text(MINIMAL)
    assert config.solve_options().random_seed == 0
    assert config.solve_options(seed_override=99).random_seed == 99
