"""End-to-end command-line tests, driving main() in process."""

import json
import os
import re
import shlex
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fracgrid.benchmark as benchmark_mod
import fracgrid.cli as cli
from fracgrid.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, main
from fracgrid.config import (
    BENCHMARK_SCENARIO,
    SIM_KEYS,
    SIM_SETTINGS,
    SPREAD_SCENARIO,
    SWEEP_KEYS,
    SWEEP_SETTINGS,
    SweepSpec,
    build_simulation,
    config_as_dict,
)
from fracgrid.csvio import read_grid_csv, write_grid_csv
from fracgrid.solver import StabilityWarning, run

SIM_FLAGS = [
    "--gamma", "0.8",
    "--dt", "1",
    "--dx", "10",
    "--grid", "12x12",
    "--steps", "10",
    "--source", "6,6=10",
    "--snapshot-every", "5",
]


def run_simulate(out_dir, extra=()):
    return main(["simulate", "--out-dir", str(out_dir), *SIM_FLAGS, *extra])


def test_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    assert run_simulate(out) == EXIT_OK

    for name in ("grid_final.csv", "profile.csv", "trace.csv", "profile.svg"):
        assert (out / name).is_file()
    for step in (0, 5, 10):
        assert (out / "snapshots" / f"step_{step:06d}.csv").is_file()

    final = read_grid_csv(str(out / "grid_final.csv"))
    assert final.shape == (12, 12)
    assert np.all(final[0, :] == 0.0) and np.all(final[:, -1] == 0.0)

    assert (out / "profile.csv").read_text().count("\n") == 12
    first_trace = (out / "trace.csv").read_text().splitlines()[0]
    assert first_trace == "0,10"

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "fracgrid"
    assert manifest["command"] == "simulate"
    assert manifest["config"]["gamma"] == 0.8
    assert manifest["config"]["memory"] == "full"
    assert manifest["elapsed_seconds"] >= 0.0
    assert manifest["artifacts"] == sorted(manifest["artifacts"])
    for rel in manifest["artifacts"]:
        assert (out / rel).is_file(), rel


def test_simulate_missing_values(tmp_path, capsys):
    rc = main(["simulate", "--out-dir", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    assert "missing required settings" in capsys.readouterr().err


def test_simulate_rejects_bad_gamma(tmp_path, capsys):
    rc = run_simulate(tmp_path / "x", ["--gamma", "2.5"])
    # later occurrence of --gamma wins in argparse
    assert rc == EXIT_CONFIG
    assert "gamma" in capsys.readouterr().err


def test_simulate_rejects_bad_memory(tmp_path, capsys):
    rc = run_simulate(tmp_path / "x", ["--memory", "sideways:3"])
    assert rc == EXIT_CONFIG
    assert "memory" in capsys.readouterr().err


@pytest.mark.parametrize("clash", [("--grid", "12x12"), ("--source", "6,6=10")])
def test_initial_grid_conflicts(tmp_path, capsys, clash):
    rc = main(
        [
            "simulate", "--out-dir", str(tmp_path / "x"),
            "--gamma", "0.8", "--dt", "1", "--dx", "10", "--steps", "10",
            "--initial-grid", str(tmp_path / "whatever.csv"),
            *clash,
        ]
    )
    assert rc == EXIT_CONFIG
    assert "--initial-grid" in capsys.readouterr().err


def test_missing_initial_grid_file(tmp_path, capsys):
    rc = main(
        [
            "simulate", "--out-dir", str(tmp_path / "x"),
            "--gamma", "0.8", "--dt", "1", "--dx", "10", "--steps", "10",
            "--initial-grid", str(tmp_path / "nope.csv"),
        ]
    )
    assert rc == EXIT_IO
    assert "fracgrid:" in capsys.readouterr().err


def test_out_dir_is_a_file(tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("not a directory")
    assert run_simulate(blocked) == EXIT_IO


@pytest.mark.parametrize("memory,fields", [("short:5", 6), ("full", 40 + 1)])
def test_manifest_records_history_bytes(tmp_path, memory, fields):
    # short:5 keeps a ring of the 6 fields it reaches; full keeps every step.
    # A field's 10 x 10 interior is stored in a row of 104 doubles.
    out = tmp_path / "x"
    assert run_simulate(out, ["--memory", memory, "--steps", "40"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["history_bytes"] == fields * 104 * 8


def test_manifest_records_the_snapshot_cadence_used(tmp_path):
    # Left unset, the cadence is ceil(steps / 100): 3 for 250 steps.
    out = tmp_path / "x"
    flags = SIM_FLAGS[: SIM_FLAGS.index("--snapshot-every")]
    assert main(["simulate", "--out-dir", str(out), *flags, "--steps", "250"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["snapshot_every"] == 3
    assert (out / "snapshots" / "step_000003.csv").is_file()
    assert not (out / "snapshots" / "step_000002.csv").exists()


@pytest.mark.parametrize(
    "command,cap", [("simulate", "64"), ("simulate", "10"), ("benchmark", "10")]
)
def test_memory_cap_too_small(tmp_path, capsys, command, cap):
    # The cap is checked as the first run starts, after --out-dir was made;
    # the failed command leaves no directory behind.
    out = tmp_path / "x"
    flags = SIM_FLAGS if command == "simulate" else BENCH_FLAGS
    rc = main([command, "--out-dir", str(out), *flags, "--memory-cap", cap])
    assert rc == EXIT_CONFIG
    assert "over the cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::fracgrid.solver.StabilityWarning")
def test_divergent_run_exits_3(tmp_path, capsys):
    rc = main(
        [
            "simulate", "--out-dir", str(tmp_path / "x"),
            "--gamma", "1", "--dt", "1", "--dx", "1",
            "--grid", "9x9", "--steps", "500",
            "--source", "4,4=10",
        ]
    )
    assert rc == EXIT_DIVERGED
    assert "diverged at step" in capsys.readouterr().err


DIVERGING_AT_90 = [
    "--dt", "1", "--dx", "1", "--alpha", "0.2", "--grid", "9x9", "--steps", "500",
    "--source", "4,4=1",
]


@pytest.mark.filterwarnings("ignore::fracgrid.solver.StabilityWarning")
def test_diverging_simulate_leaves_no_file(tmp_path, capsys):
    # Snapshots at steps 0..85 are spilled before step 90 diverges; the
    # spill goes with the run, no artifact is written and the directory the
    # command made is removed.
    out = tmp_path / "x"
    rc = main(["simulate", "--out-dir", str(out), "--gamma", "0.5", *DIVERGING_AT_90])
    assert rc == EXIT_DIVERGED
    assert "diverged at step 90" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::fracgrid.solver.StabilityWarning")
@pytest.mark.parametrize(
    "command",
    [["simulate", "--gamma", "0.5"], ["sweep-gamma", "--gammas", "0.5"]],
    ids=["simulate", "sweep-gamma"],
)
def test_failed_command_removes_only_the_directories_it_made(tmp_path, capsys, command):
    argv = [*command, *DIVERGING_AT_90]
    # a nested --out-dir: neither level existed, so neither is left
    assert main([*argv, "--out-dir", str(tmp_path / "a" / "b")]) == EXIT_DIVERGED
    assert "diverged at step 90" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # an empty --out-dir that existed before the command survives it
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main([*argv, "--out-dir", str(kept / "c")]) == EXIT_DIVERGED
    assert main([*argv, "--out-dir", str(kept)]) == EXIT_DIVERGED
    assert list(tmp_path.iterdir()) == [kept]
    assert list(kept.iterdir()) == []


def test_snapshot_files_hold_the_fields_of_shorter_runs(tmp_path):
    # A non-square grid, so an nx/ny mix-up in reading a field back shows.
    out = tmp_path / "x"
    argv = [
        "simulate", "--out-dir", str(out),
        "--gamma", "0.6", "--dt", "1", "--dx", "10", "--grid", "9x13",
        "--steps", "12", "--memory", "adaptive:3", "--snapshot-every", "5",
        "--source", "3,4=10", "--source", "6,9=-4",
    ]
    assert main(argv) == EXIT_OK
    config, _ = cli._resolve_simulation(cli.build_parser().parse_args(argv))
    assert (config.nx, config.ny) == (9, 13)
    for step in (0, 5, 10, 12):
        field = read_grid_csv(str(out / "snapshots" / f"step_{step:06d}.csv"))
        expected = run(replace(config, n_steps=step)).final.data
        assert field.tobytes() == expected.tobytes(), step
    assert (out / "snapshots" / "step_000012.csv").read_bytes() == (
        out / "grid_final.csv"
    ).read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert set(manifest["artifacts"]) | {"manifest.json"} == on_disk


def test_simulate_keeps_no_snapshot_field_in_memory(tmp_path):
    # Deterministic twin of short-100-long's peak_rss_mib: 301 snapshots
    # cost about what 2 do, where keeping each field would add 299 fields.
    field = 40 * 40 * 8
    argv = [
        "--gamma", "0.75", "--dt", "1", "--dx", "10", "--grid", "40x40",
        "--steps", "300", "--memory", "short:10", "--source", "20,20=10",
    ]

    def peak(every):
        out = tmp_path / f"every{every}"
        tracemalloc.start()
        try:
            rc = main(["simulate", "--out-dir", str(out), *argv, "--snapshot-every", every])
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == EXIT_OK
        return top, len(list((out / "snapshots").iterdir()))

    peak("300")
    (many, n_many), (few, n_few) = peak("1"), peak("300")
    assert (n_many, n_few) == (301, 2)
    assert abs(many - few) / field < 10


def test_schedule_stdout_golden(capsys):
    assert main(["schedule", "--k", "9", "--memory", "adaptive:3"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "m,w",
        "0,1",
        "1,1",
        "2,1",
        "3,1",
        "5,3",
        "8,3",
        "entries=6 weight_sum=10 gaps=0 overlaps=0",
    ]


def test_schedule_reports_gaps_and_overlaps(capsys):
    assert main(["schedule", "--k", "260", "--memory", "adaptive:4"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "entries=50 weight_sum=260 gaps=3 overlaps=2" in lines
    assert "gap offsets: 254,255,256" in lines
    assert "overlap offsets: 65,66" in lines


def test_schedule_out_dir(tmp_path, capsys):
    out = tmp_path / "sched"
    rc = main(
        ["schedule", "--k", "9", "--memory", "adaptive:3", "--out-dir", str(out)]
    )
    assert rc == EXIT_OK
    text = (out / "schedule.csv").read_text()
    assert text == "m,w\n0,1\n1,1\n2,1\n3,1\n5,3\n8,3\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "schedule"
    assert manifest["artifacts"] == ["schedule.csv"]
    # the table goes to the file, not stdout; the summary is still printed
    captured = capsys.readouterr().out
    assert "0,1" not in captured
    assert "entries=6" in captured


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "--k", "-1", "--memory", "full"],
        ["schedule", "--k", "5", "--memory", "sideways:3"],
        ["schedule", "--k", "5", "--memory", "full", "--dt", "0"],
        ["schedule", "--k", "5", "--memory", "short:0"],
    ],
)
def test_schedule_bad_flags(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    assert "fracgrid:" in capsys.readouterr().err


BENCH_FLAGS = [
    "--dt", "1", "--dx", "10", "--grid", "12x12", "--steps", "40",
    "--source", "6,6=10",
]


def test_benchmark_artifacts(tmp_path):
    out = tmp_path / "bench"
    rc = main(
        [
            "benchmark", "--out-dir", str(out), *BENCH_FLAGS,
            "--gammas", "0.5,1",
            "--short-lengths", "5,10",
            "--adaptive-bases", "3",
            "--repeats", "1",
        ]
    )
    assert rc == EXIT_OK

    lines = (out / "benchmark.csv").read_text().splitlines()
    assert lines[0] == "strategy,param,gamma,elapsed_s,err_l2_pct,err_linf_pct"
    # (full + 2 short + 1 adaptive) per gamma
    assert len(lines) == 1 + 2 * 4
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows[:4]] == ["adaptive", "full", "short", "short"]
    assert all(r[2] == "0.5" for r in rows[:4])
    assert all(r[2] == "1" for r in rows[4:])

    by_key = {(r[0], r[1], r[2]): r for r in rows}
    assert by_key[("full", "0", "0.5")][4] == "0"  # reference error is exact
    assert float(by_key[("short", "5", "0.5")][4]) > 0.0
    # with gamma = 1 only the newest stencil field matters: every strategy
    # matches the reference exactly and the error-vs-time plot is skipped
    assert by_key[("short", "5", "1")][4] == "0"
    assert (out / "error_vs_time_gamma_0p5.svg").is_file()
    assert not (out / "error_vs_time_gamma_1.svg").exists()

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "benchmark"
    assert manifest["sweep"]["gammas"] == [0.5, 1.0]
    assert manifest["sweep"]["adaptive_bases"] == [3]
    # Each run's gamma and memory come from the sweep, and it keeps no snapshots.
    read = set(SIM_KEYS) - {"gamma", "memory", "snapshot_every"}
    assert set(manifest["config"]) == read | {"sources"}


@pytest.mark.filterwarnings("ignore::fracgrid.solver.StabilityWarning")
def test_benchmark_diverging_reference_fails_only_its_gamma(tmp_path, caplog):
    out = tmp_path / "bench"
    rc = main(
        [
            "benchmark", "--out-dir", str(out), "--gammas", "0.5,1.0",
            "--dx", "1", "--dt", "1", "--alpha", "0.2", "--grid", "9x9",
            "--steps", "500", "--source", "4,4=1",
            "--short-lengths", "10", "--adaptive-bases", "3",
        ]
    )
    assert rc == EXIT_OK
    rows = [line.split(",") for line in (out / "benchmark.csv").read_text().splitlines()[1:]]
    assert len(rows) == 6
    for row in rows:
        finite = [np.isfinite(float(value)) for value in row[3:]]
        assert finite == ([False] * 3 if row[2] == "0.5" else [True] * 3), row
    assert "full:0 at gamma=0.5 failed: solution diverged at step 90" in caplog.text
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert set(manifest["artifacts"]) | {"manifest.json"} == on_disk


# Ratio 0.25 is above the bound 0.1768 at gamma 0.5 and at the bound 0.25 at 1.
UNSTABLE_AT_HALF = [
    "--dx", "2", "--dt", "1", "--steps", "2", "--grid", "5x5", "--source", "2,2=1",
]
WARNING_AT_HALF = (
    "stability ratio alpha*dt**gamma/dx**2 = 0.25 exceeds the bound "
    "2**(gamma-3) = 0.1768; the explicit step may diverge"
)


@pytest.mark.parametrize(
    "argv,module",
    [
        (["benchmark", "--gammas", "0.5,1.0", *UNSTABLE_AT_HALF], benchmark_mod),
        (["sweep-gamma", "--gammas", "0.5,1.0", *UNSTABLE_AT_HALF], benchmark_mod),
        (["simulate", "--gamma", "0.5", "--alpha", "1", *UNSTABLE_AT_HALF], cli),
    ],
    ids=["benchmark", "sweep-gamma", "simulate"],
)
def test_stability_warning_names_the_code_that_ran(tmp_path, argv, module):
    # Only gamma 0.5 is unstable: benchmark's scenario gamma of 0.75, which
    # it never runs, warns nothing.
    with pytest.warns(StabilityWarning) as caught:
        assert main([*argv, "--out-dir", str(tmp_path / "x")]) == EXIT_OK
    assert {str(w.message) for w in caught} == {WARNING_AT_HALF}
    assert {w.filename for w in caught} == {module.__file__}


@pytest.mark.parametrize("form", ["initial-grid", "zero-source"])
def test_benchmark_rejects_a_zero_field_before_any_side_effect(tmp_path, capsys, form):
    if form == "initial-grid":
        zeros = tmp_path / "zeros.csv"
        write_grid_csv(np.zeros((7, 7)), str(zeros))
        field = ["--initial-grid", str(zeros)]
    else:
        field = ["--grid", "7x7", "--source", "3,3=0"]
    out = tmp_path / "x"
    rc = main(
        [
            "benchmark", "--out-dir", str(out), *field,
            "--steps", "5", "--dx", "10", "--dt", "1",
            "--short-lengths", "2", "--adaptive-bases", "2",
        ]
    )
    assert rc == EXIT_CONFIG
    assert "reference field is identically zero" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_rejects_bad_sweep(tmp_path, capsys):
    rc = main(
        [
            "benchmark", "--out-dir", str(tmp_path / "x"), *BENCH_FLAGS,
            "--gammas", "0.5,1.5",
        ]
    )
    assert rc == EXIT_CONFIG
    assert "gammas" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value,key",
    [("--short-lengths", "-5", "short_lengths"), ("--adaptive-bases", "1", "adaptive_bases")],
)
def test_benchmark_rejects_bad_strategies_before_any_run(
    tmp_path, capsys, monkeypatch, flag, value, key
):
    runs = []
    real_run = benchmark_mod.run

    def counting_run(config, **kwargs):
        runs.append(config)
        return real_run(config, **kwargs)

    monkeypatch.setattr(benchmark_mod, "run", counting_run)
    rc = main(
        [
            "benchmark", "--out-dir", str(tmp_path / "x"), *BENCH_FLAGS,
            "--gammas", "0.5,0.75", flag, value,
        ]
    )
    assert rc == EXIT_CONFIG
    assert runs == []
    assert key in capsys.readouterr().err


def test_each_setting_is_spelled_once():
    # A setting added in one of these places only fails here.
    parser = cli.build_parser()
    simulate = set(vars(parser.parse_args(["simulate"])))
    benchmark = set(vars(parser.parse_args(["benchmark"])))
    config = build_simulation({}, {}, BENCHMARK_SCENARIO)
    assert len(set(SIM_KEYS)) == len(SIM_KEYS)
    assert set(SIM_KEYS) == set(config_as_dict(config)) - {"sources"}
    assert set(SIM_KEYS) <= simulate
    assert simulate - set(SIM_KEYS) == {
        "command", "handler", "verbose", "config", "out_dir", "source", "initial_grid",
    }
    assert benchmark - simulate == set(SWEEP_KEYS)
    # The sweep spec, the manifest's view and the defaults follow the tables.
    assert SweepSpec()._fields == SWEEP_KEYS
    assert tuple(SweepSpec()) == tuple(entry[2] for entry in SWEEP_SETTINGS.values())
    assert list(config_as_dict(config)) == [*SIM_KEYS, "sources"]
    required = {key for key, entry in SIM_SETTINGS.items() if len(entry) == 2}
    assert required == {"gamma", "dt", "dx", "grid", "steps"}
    given = {key: BENCHMARK_SCENARIO[key] for key in required}
    minimal = build_simulation({}, given)
    resolved = config_as_dict(minimal)
    for key, entry in SIM_SETTINGS.items():
        if key not in required | {"snapshot_every"}:
            assert resolved[key] == entry[2], key
    # An unset cadence is recorded as the one the run uses.
    assert SIM_SETTINGS["snapshot_every"][2] is None
    assert resolved["snapshot_every"] == minimal.snapshot_cadence


def test_sweep_gamma_artifacts(tmp_path):
    out = tmp_path / "sweep"
    rc = main(
        [
            "sweep-gamma", "--out-dir", str(out),
            "--dt", "0.5", "--dx", "5", "--grid", "12x12", "--steps", "20",
            "--source", "6,6=0.1",
            "--gammas", "0.75,1",
        ]
    )
    assert rc == EXIT_OK
    for name in (
        "profile_gamma_0p75.csv",
        "trace_gamma_0p75.csv",
        "profile_gamma_1.csv",
        "trace_gamma_1.csv",
        "profiles.svg",
        "traces.svg",
    ):
        assert (out / name).is_file(), name
    first = (out / "trace_gamma_0p75.csv").read_text().splitlines()[0]
    assert first == "0,0.1"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sweep"] == {"gammas": [0.75, 1.0]}
    assert set(manifest["config"]) == set(SIM_KEYS) - {"gamma", "memory"} | {"sources"}


def test_simulate_rejects_a_sweep_section(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[simulation]\ngamma = 0.8\ndt = 1\ndx = 10\ngrid = 8x8\nsteps = 5\n\n"
        "[sources]\n4,4 = 1.0\n\n[sweep]\nshort_lengths = 10, 25\nrepeats = 3\n"
    )
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", str(ini), "--out-dir", str(out)])
    assert rc == EXIT_CONFIG
    assert "[sweep]" in capsys.readouterr().err
    assert not out.exists()


UNREAD_SETTINGS = [
    ("sweep-gamma", "sweep", "short_lengths", "7"),
    ("sweep-gamma", "sweep", "adaptive_bases", "3"),
    ("sweep-gamma", "sweep", "repeats", "3"),
    ("sweep-gamma", "simulation", "gamma", "0.3"),
    ("sweep-gamma", "simulation", "memory", "full"),
    ("benchmark", "simulation", "gamma", "0.3"),
    ("benchmark", "simulation", "memory", "adaptive:5"),
    ("benchmark", "simulation", "snapshot_every", "10"),
]


@pytest.mark.parametrize(
    "command,section,key,value",
    UNREAD_SETTINGS,
    ids=[f"{k}-{v}" if c == "sweep-gamma" else f"{c}-{k}-{v}" for c, _, k, v in UNREAD_SETTINGS],
)
def test_sweep_gamma_rejects_sweep_keys_it_does_not_use(
    tmp_path, capsys, command, section, key, value
):
    # A config file may set only what the command has a flag for.
    lines = {"simulation": "dt = 0.5\n", "sweep": "gammas = 0.75, 1\n"}
    lines[section] += f"{key} = {value}\n"
    ini = tmp_path / "run.ini"
    ini.write_text("".join(f"[{name}]\n{text}\n" for name, text in lines.items()))
    out = tmp_path / "out"
    rc = main(
        [
            command, "--config", str(ini), "--out-dir", str(out),
            "--dx", "5", "--grid", "12x12", "--steps", "20", "--source", "6,6=0.1",
        ]
    )
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert command in err and f"'{key}'" in err and f"[{section}]" in err
    assert not out.exists()


def test_readme_command_lines_parse():
    # Every fracgrid command shown in the README's sh blocks uses flags that
    # exist, with values its settings' parsers accept; nothing is run.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```sh\n")[1:]]
    commands = [
        shlex.split(line.removeprefix("$ "))
        for line in "\n".join(blocks).replace("\\\n", " ").splitlines()
        if line.removeprefix("$ ").startswith("fracgrid ")
    ]
    assert len(commands) >= 4
    parser = cli.build_parser()
    scenarios = {"benchmark": BENCHMARK_SCENARIO, "sweep-gamma": SPREAD_SCENARIO}
    for argv in commands:
        args = parser.parse_args(argv[1:])
        if args.command != "schedule":
            _, file_map = cli._resolve_simulation(args, defaults=scenarios.get(args.command))
            cli._resolve_sweep(args, file_map)


def test_readme_settings_table_matches_the_flags():
    # The README's "keys it reads" table names each command's settings flags.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [line.split("|")[1:4] for line in readme.splitlines() if line.startswith("| `")]

    def keys(cell, every):
        named = set(re.findall(r"`(\w+)`", cell))
        return set(every) - named if cell.strip().startswith("all") else named

    parser = cli.build_parser()
    commands = []
    for command, sim, sweep in rows:
        commands.append(command.strip().strip("`"))
        flags = set(vars(parser.parse_args([commands[-1]])))
        assert keys(sim, SIM_KEYS) == flags & set(SIM_KEYS), commands[-1]
        assert keys(sweep, SWEEP_KEYS) == flags & set(SWEEP_KEYS), commands[-1]
    assert commands == ["simulate", "benchmark", "sweep-gamma"]


MALFORMED = [
    ("simulate", "simulation", "steps", "abc", "steps: expected an integer, got 'abc'"),
    ("simulate", "simulation", "gamma", "x", "gamma: could not convert string to float: 'x'"),
    ("simulate", "simulation", "grid", "5by5", "grid: expected NXxNY (e.g. 100x100), got '5by5'"),
    ("simulate", "simulation", "memory", "sideways:3", "memory: bad memory spec 'sideways:3'"),
    ("benchmark", "sweep", "gammas", "0.5,abc", "gammas: could not convert string to float: 'abc'"),
    ("benchmark", "sweep", "repeats", "two", "repeats: expected an integer, got 'two'"),
]
# A list may not repeat a value, however it is spelled.
REPEATED = [
    ("benchmark", "sweep", "gammas", "0.5,0.50", "gammas: duplicate value 0.5"),
    ("benchmark", "sweep", "short_lengths", "10,10.0", "short_lengths: duplicate value 10.0"),
    ("benchmark", "sweep", "adaptive_bases", "2,3,2", "adaptive_bases: duplicate value 2"),
    ("sweep-gamma", "sweep", "gammas", "1,0.5,1.0", "gammas: duplicate value 1.0"),
]


@pytest.mark.parametrize(
    "command,section,key,value,message",
    MALFORMED + REPEATED,
    ids=[m[2] for m in MALFORMED] + [f"{m[0]}-{m[2]}-repeated" for m in REPEATED],
)
def test_malformed_value_fails_alike_by_flag_and_by_file(
    tmp_path, capsys, command, section, key, value, message
):
    settings = {"gamma": "0.8", "dt": "1", "dx": "10", "grid": "12x12", "steps": "10"}
    if command != "simulate":
        del settings["gamma"]
    settings.pop(key, None)
    flags = [text for k, v in settings.items() for text in ("--" + k, v)]
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    errors = []
    for given in (["--" + key.replace("_", "-"), value], ["--config", str(ini)]):
        rc = main([command, "--out-dir", str(out), *flags, "--source", "6,6=10", *given])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"fracgrid: {message}")


def test_initial_grid_reproduces_source_run(tmp_path):
    first = tmp_path / "first"
    assert run_simulate(first) == EXIT_OK

    second = tmp_path / "second"
    rc = main(
        [
            "simulate", "--out-dir", str(second),
            "--gamma", "0.8", "--dt", "1", "--dx", "10", "--steps", "10",
            "--snapshot-every", "5",
            "--initial-grid", str(first / "snapshots" / "step_000000.csv"),
        ]
    )
    assert rc == EXIT_OK
    assert (second / "grid_final.csv").read_bytes() == (
        first / "grid_final.csv"
    ).read_bytes()


def test_reruns_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_simulate(out_a) == EXIT_OK
    assert run_simulate(out_b) == EXIT_OK
    for name in (
        "grid_final.csv",
        "profile.csv",
        "trace.csv",
        "profile.svg",
        os.path.join("snapshots", "step_000010.csv"),
    ):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "fracgrid" in capsys.readouterr().out
