"""Unit tests for config files and flag merging."""

import json
from pathlib import Path

import pytest

from fracgrid.cli import main
from fracgrid.config import (
    BENCHMARK_SCENARIO,
    ConfigError,
    DEFAULT_ADAPTIVE_BASES,
    DEFAULT_GAMMAS,
    DEFAULT_SHORT_LENGTHS,
    SPREAD_SCENARIO,
    build_simulation,
    build_sweep,
    config_as_dict,
    load_config_file,
    parse_grid_size,
    parse_source,
)
from fracgrid.schedule import AdaptiveMemory, FullMemory, ShortMemory, format_memory_spec
from fracgrid.solver import SimulationConfig

BASIC_INI = """
[simulation]
gamma = 0.75
dt = 1.0
dx = 10.0
grid = 20x20
steps = 100
memory = adaptive:5

[sources]
10,10 = 10.0
5,6 = -1.5
"""


def write_ini(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_load_and_build(tmp_path):
    file_map = load_config_file(write_ini(tmp_path, BASIC_INI))
    config = build_simulation(file_map, {})
    assert config.gamma == 0.75
    assert config.alpha == 1.0  # default
    assert config.beta == 0.0
    assert (config.nx, config.ny) == (20, 20)
    assert config.n_steps == 100
    assert config.strategy == AdaptiveMemory(5)
    assert config.sources == ((10, 10, 10.0), (5, 6, -1.5))


def test_flags_override_file(tmp_path):
    file_map = load_config_file(write_ini(tmp_path, BASIC_INI))
    config = build_simulation(
        file_map, {"gamma": 0.5, "memory": "short:25", "steps": 7}
    )
    assert config.gamma == 0.5
    assert config.strategy == ShortMemory(25.0)
    assert config.n_steps == 7
    # untouched values still come from the file
    assert config.dx == 10.0


def test_cli_sources_replace_file_sources(tmp_path):
    file_map = load_config_file(write_ini(tmp_path, BASIC_INI))
    config = build_simulation(file_map, {"sources": ((3, 3, 1.0),)})
    assert config.sources == ((3, 3, 1.0),)


def test_unknown_section_and_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config_file(write_ini(tmp_path, "[weird]\nx = 1\n"))
    with pytest.raises(ConfigError, match="unknown key 'delta'"):
        load_config_file(write_ini(tmp_path, "[simulation]\ndelta = 1\n"))
    with pytest.raises(ConfigError, match="unknown key 'cadence'"):
        load_config_file(write_ini(tmp_path, "[sweep]\ncadence = 1\n"))


def test_missing_required_settings():
    with pytest.raises(ConfigError, match="gamma"):
        build_simulation({}, {"dt": 1.0, "dx": 1.0, "grid": "5x5", "steps": 1})
    with pytest.raises(ConfigError, match="steps"):
        build_simulation({}, {"gamma": 0.5, "dt": 1.0, "dx": 1.0, "grid": "5x5"})


def test_out_of_range_named(tmp_path):
    with pytest.raises(ConfigError, match="gamma"):
        build_simulation(
            {}, {"gamma": 2.5, "dt": 1.0, "dx": 1.0, "grid": "5x5", "steps": 1}
        )
    with pytest.raises(ConfigError, match="dt"):
        build_simulation(
            {}, {"gamma": 0.5, "dt": -1.0, "dx": 1.0, "grid": "5x5", "steps": 1}
        )


def test_malformed_values():
    base = {"gamma": 0.5, "dt": 1.0, "dx": 1.0, "grid": "5x5", "steps": 1}
    with pytest.raises(ConfigError, match="steps"):
        build_simulation({}, dict(base, steps="many"))
    with pytest.raises(ConfigError, match="grid"):
        build_simulation({}, dict(base, grid="5by5"))
    with pytest.raises(ConfigError, match="memory"):
        build_simulation({}, dict(base, memory="sideways:3"))


def test_parse_grid_size():
    assert parse_grid_size("100x100") == (100, 100)
    assert parse_grid_size("20X30") == (20, 30)
    assert parse_grid_size((5, 6)) == (5, 6)
    with pytest.raises(ConfigError):
        parse_grid_size("100")


def test_parse_source():
    assert parse_source("50,50=0.1") == (50, 50, 0.1)
    assert parse_source(" 3 , 4 = -2.5 ") == (3, 4, -2.5)
    with pytest.raises(ConfigError, match="source"):
        parse_source("50=0.1")
    with pytest.raises(ConfigError, match="source"):
        parse_source("1,2,0.1")
    # A [sources] entry "j,l = value" follows the same grammar.
    base = {"gamma": 0.5, "dt": 1.0, "dx": 10.0, "grid": "5x5", "steps": 1}
    assert build_simulation({"sources": {" 2 , 3 ": "-0.5"}}, base).sources == ((2, 3, -0.5),)
    with pytest.raises(ConfigError, match="source"):
        build_simulation({"sources": {"2": "1.0"}}, base)


@pytest.mark.parametrize(
    "strategy",
    [FullMemory(), ShortMemory(100.0), ShortMemory(12.5), AdaptiveMemory(7)],
)
def test_round_trip(tmp_path, strategy):
    # Every [simulation] key, and a negative source, read back exactly.
    text = f"""
[simulation]
gamma = 0.9
alpha = 0.75
beta = 0.0125
dt = 0.5
dx = 5.0
grid = 12x14
steps = 64
memory = {format_memory_spec(strategy)}
snapshot_every = 8
memory_cap = 123456789

[sources]
3,3 = 0.1
4,5 = -0.25
"""
    config = SimulationConfig(
        gamma=0.9,
        alpha=0.75,
        beta=0.0125,
        dt=0.5,
        dx=5.0,
        nx=12,
        ny=14,
        n_steps=64,
        sources=((3, 3, 0.1), (4, 5, -0.25)),
        strategy=strategy,
        snapshot_every=8,
        history_byte_cap=123456789,
    )
    rebuilt = build_simulation(load_config_file(write_ini(tmp_path, text)), {})
    assert rebuilt == config


def test_config_as_dict_is_json_friendly():
    import json

    config = build_simulation({}, {}, BENCHMARK_SCENARIO)
    payload = json.dumps(config_as_dict(config))
    assert "adaptive" not in payload  # default memory is full
    assert "20x20" in payload


def test_scenario_defaults():
    bench = build_simulation({}, {}, BENCHMARK_SCENARIO)
    assert (bench.nx, bench.ny, bench.n_steps) == (20, 20, 1500)
    assert bench.sources == ((10, 10, 10.0),)
    assert bench.strategy == FullMemory()
    spread = build_simulation({}, {}, SPREAD_SCENARIO)
    assert (spread.nx, spread.ny, spread.n_steps) == (100, 100, 200)
    assert spread.dt == 0.5 and spread.dx == 5.0
    assert len(spread.sources) == 5


def test_build_sweep_defaults_and_overrides(tmp_path):
    spec = build_sweep({}, {})
    assert spec.gammas == DEFAULT_GAMMAS
    assert spec.short_lengths == DEFAULT_SHORT_LENGTHS
    assert spec.adaptive_bases == DEFAULT_ADAPTIVE_BASES
    assert spec.repeats == 1

    file_map = load_config_file(
        write_ini(tmp_path, "[sweep]\ngammas = 0.5, 0.9\nrepeats = 3\n")
    )
    spec = build_sweep(file_map, {"adaptive_bases": "3,5"})
    assert spec.gammas == (0.5, 0.9)
    assert spec.adaptive_bases == (3, 5)
    assert spec.repeats == 3
    assert spec.short_lengths == DEFAULT_SHORT_LENGTHS


def test_build_sweep_validation():
    with pytest.raises(ConfigError, match="repeats"):
        build_sweep({}, {"repeats": 0})
    with pytest.raises(ConfigError, match="gammas"):
        build_sweep({}, {"gammas": "0.5, 1.5"})
    with pytest.raises(ConfigError, match="gammas"):
        build_sweep({}, {"gammas": ""})


def test_build_sweep_checks_only_the_keys_given(monkeypatch):
    # Only the keys given are read: gammas alone builds no strategy to check.
    built = []
    for cls in (ShortMemory, AdaptiveMemory):
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, check=check: (built.append(self), check(self)))
    assert build_sweep({}, {"gammas": "0.5"}).gammas == (0.5,)
    assert built == []
    assert build_sweep({}, {"short_lengths": "5, 10"}).short_lengths == (5.0, 10.0)
    assert len(built) == 2


def test_snapshot_and_cap_passthrough(tmp_path):
    ini = BASIC_INI + "\n"
    file_map = load_config_file(write_ini(tmp_path, ini))
    config = build_simulation(
        file_map, {"snapshot_every": 25, "memory_cap": 10**8}
    )
    assert config.snapshot_every == 25
    assert config.history_byte_cap == 10**8


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "example.ini"
    path.write_text(example)
    out = tmp_path / "out"
    # The flags only shorten the run; every key of the file must still be one it reads.
    argv = ["benchmark", "--config", str(path), "--out-dir", str(out), "--steps", "20"]
    assert main(argv + ["--gammas", "0.75", "--adaptive-bases", "3,5"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["alpha"] == 1.0 and manifest["config"]["beta"] == 0.0
    assert manifest["config"]["memory_cap"] == 4294967296
    assert manifest["sweep"]["repeats"] == 1
