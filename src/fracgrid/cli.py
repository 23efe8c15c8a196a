"""Command-line front end.

Exit codes: 0 on success, 2 for configuration problems, 3 when a run
diverges, 4 for I/O failures.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as _dt
import json
import logging
import os
import shutil
import sys
import tempfile

import numpy as np

from . import __version__
from .benchmark import gamma_sweep, profile_and_trace, run_comparison, source_cell
from .config import (
    BENCHMARK_SCENARIO,
    SIM_KEYS,
    SIM_SETTINGS,
    SPREAD_SCENARIO,
    SWEEP_KEYS,
    SWEEP_SETTINGS,
    ConfigError,
    build_simulation,
    build_sweep,
    config_as_dict,
    load_config_file,
    parse_source,
)
from .csvio import (
    format_float,
    read_grid_csv,
    write_benchmark_csv,
    write_grid_csv,
    write_profile_csv,
    write_schedule_csv,
    write_trace_csv,
)
from .grid import Grid2D
from .schedule import checked_real, coverage_report, parse_memory_spec
from .solver import DivergenceError, run
from .svgplot import Series, write_line_plot

log = logging.getLogger("fracgrid")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _add_run_flags(parser: argparse.ArgumentParser, *, omit: tuple[str, ...]) -> None:
    """Add the run flags: one per [simulation] and [sweep] key not in ``omit``.

    A settings flag takes text, as a file does; its key's function reads either.
    """

    def add_settings(settings):
        for key, (_, text, *_) in settings.items():
            if key not in omit:
                parser.add_argument("--" + key.replace("_", "-"), help=text)

    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--out-dir", default="out", help="artifact directory (default: out)")
    add_settings(SIM_SETTINGS)
    parser.add_argument(
        "--source",
        action="append",
        metavar="J,L=VALUE",
        help="point source (repeatable)",
    )
    parser.add_argument(
        "--initial-grid",
        metavar="CSV",
        help="dense initial field; grid extent and sources come from this file",
    )
    add_settings(SWEEP_SETTINGS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracgrid",
        description="Fractional reaction-diffusion on 2D grids with pluggable history memory.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    # Flags match by whole name only (a prefix such as --gamma would read as
    # --gammas); subparsers do not inherit allow_abbrev, so each is given it.
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate", help="run one simulation and write its artifacts", allow_abbrev=False
    )
    _add_run_flags(p, omit=SWEEP_KEYS)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "benchmark",
        help="score short/adaptive strategies against full memory",
        allow_abbrev=False,
    )
    # Each run's gamma and memory come from the sweep, and it keeps no snapshots.
    _add_run_flags(p, omit=("gamma", "memory", "snapshot_every"))
    p.set_defaults(handler=_cmd_benchmark)

    p = sub.add_parser(
        "sweep-gamma",
        help="run the same configuration across several gammas (full memory)",
        allow_abbrev=False,
    )
    # Each run's gamma comes from --gammas, and its memory is always full.
    _add_run_flags(p, omit=("gamma", "memory", "short_lengths", "adaptive_bases", "repeats"))
    p.set_defaults(handler=_cmd_sweep_gamma)

    p = sub.add_parser(
        "schedule", help="dump a memory schedule and its coverage", allow_abbrev=False
    )
    p.add_argument("--k", type=int, required=True, help="step index")
    p.add_argument("--memory", required=True, help="full, short:<length> or adaptive:<base>")
    p.add_argument("--dt", type=float, default=1.0, help="time step (for short horizons)")
    p.add_argument("--out-dir", help="write schedule.csv and a manifest here")
    p.set_defaults(handler=_cmd_schedule)

    return parser


def _resolve_simulation(args: argparse.Namespace, *, defaults=None):
    """Merge ``defaults`` < ``--config`` < flags; the file may set only keys with a flag here."""
    file_map = load_config_file(args.config) if args.config else {}
    for section in ("simulation", "sweep"):
        for key in file_map.get(section, {}):
            if key not in vars(args):
                raise ConfigError(
                    f"{args.config}: {args.command} does not read key '{key}' in [{section}]"
                )
    over = {key: getattr(args, key, None) for key in SIM_KEYS}
    if args.source:
        over["sources"] = tuple(parse_source(s) for s in args.source)
    if args.initial_grid:
        if args.grid or args.source:
            raise ConfigError(
                "--initial-grid already fixes the grid extent and sources; "
                "drop --grid/--source"
            )
        field = read_grid_csv(args.initial_grid)
        try:
            Grid2D(field)
        except ValueError as exc:
            raise ConfigError(f"{args.initial_grid}: {exc}") from None
        nz = np.argwhere(field != 0.0)
        over["grid"] = field.shape
        over["sources"] = tuple((j, l, field[j, l]) for j, l in nz)
    return build_simulation(file_map, over, defaults), file_map


def _resolve_sweep(args: argparse.Namespace, file_map):
    return build_sweep(file_map, {key: getattr(args, key, None) for key in SWEEP_KEYS})


def _utc_now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class _Artifacts:
    """The files one command writes under ``--out-dir``, and their manifest.

    Creating it makes the directory and notes the start time; ``path`` names
    an artifact and returns where to write it; ``finish`` writes
    ``manifest.json`` listing every named artifact and the settings read.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        os.makedirs(args.out_dir, exist_ok=True)
        self.args = args
        self.names: list[str] = []
        self.started = _utc_now()

    def settings_read(self, settings: dict) -> dict:
        """The entries of ``settings`` the command reads: its flags' and the sources."""
        return {k: v for k, v in settings.items() if k in vars(self.args) or k == "sources"}

    def path(self, name: str) -> str:
        self.names.append(name)
        return os.path.join(self.args.out_dir, name)

    def finish(self, config: dict, extra: dict | None = None) -> None:
        manifest = {
            "tool": "fracgrid",
            "version": __version__,
            "command": self.args.command,
            "started_utc": self.started,
            "finished_utc": _utc_now(),
            "config": self.settings_read(config),
            "artifacts": sorted(self.names),
        }
        if extra:
            manifest.update(extra)
        path = os.path.join(self.args.out_dir, "manifest.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.info("wrote %d artifacts to %s", len(self.names) + 1, self.args.out_dir)


def _gamma_tag(gamma: float) -> str:
    return format_float(gamma).replace(".", "p").replace("-", "m")


def _progress_every(n_steps: int, verbose: bool) -> int:
    return max(1, n_steps // 10) if verbose and n_steps else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config, _ = _resolve_simulation(args)
    out = _Artifacts(args)
    j, l = source_cell(config)
    trace: list[tuple[int, float]] = []
    # No snapshot field stays in memory while the run holds its history: the
    # sink keeps the traced cell's value and appends the field, in C order,
    # to an unlinked file beside the artifacts.  After the run the snapshot
    # CSVs are written from that file one field at a time; it is gone on
    # every exit.
    with tempfile.TemporaryFile(dir=args.out_dir) as spill:

        def keep(step_no: int, field: np.ndarray) -> None:
            trace.append((step_no, field[j, l]))
            field.tofile(spill)

        result = run(
            config,
            progress_every=_progress_every(config.n_steps, args.verbose),
            on_snapshot=keep,
        )
        os.makedirs(os.path.join(args.out_dir, "snapshots"), exist_ok=True)
        spill.seek(0)
        for step_no, _ in trace:
            field = np.fromfile(spill, np.float64, config.nx * config.ny)
            snapshot = out.path(os.path.join("snapshots", f"step_{step_no:06d}.csv"))
            write_grid_csv(field.reshape(config.nx, config.ny), snapshot)

    # The last snapshot is the final field, so its bytes are copied, not
    # formatted again.
    shutil.copyfile(snapshot, out.path("grid_final.csv"))
    profile, steps, values = profile_and_trace(result.final, (j, l), trace)
    write_profile_csv(profile, out.path("profile.csv"))
    write_trace_csv(steps, values, out.path("trace.csv"))

    x = np.arange(config.nx, dtype=np.float64) * config.dx
    write_line_plot(
        [Series(name=f"step {config.n_steps}", x=x, y=profile)],
        out.path("profile.svg"),
        title=f"Profile through cell ({j}, {l})",
        x_label="x",
        y_label="concentration",
    )
    out.finish(
        config_as_dict(config),
        extra={
            "elapsed_seconds": result.elapsed_seconds,
            "history_bytes": result.history_bytes,
        },
    )
    return EXIT_OK


def _cmd_benchmark(args: argparse.Namespace) -> int:
    config, file_map = _resolve_simulation(args, defaults=BENCHMARK_SCENARIO)
    spec = _resolve_sweep(args, file_map)
    out = _Artifacts(args)

    records = run_comparison(
        config,
        spec.gammas,
        spec.short_lengths,
        spec.adaptive_bases,
        repeats=spec.repeats,
    )
    for rec in records:
        if rec.failed:
            log.warning(
                "%s:%s at gamma=%s failed: %s",
                rec.strategy,
                format_float(rec.param),
                format_float(rec.gamma),
                rec.message,
            )

    write_benchmark_csv(records, out.path("benchmark.csv"))

    for gamma in spec.gammas:
        series = []
        for name in ("short", "adaptive"):
            pts = sorted(
                (r.elapsed_s, r.err_l2_pct)
                for r in records
                if r.strategy == name and r.gamma == gamma and not r.failed and r.err_l2_pct > 0.0
            )
            if pts:
                x, y = np.array(pts).T
                series.append(Series(name=name, x=x, y=y))
        if series:
            write_line_plot(
                series,
                out.path(f"error_vs_time_gamma_{_gamma_tag(gamma)}.svg"),
                title=f"Relative L2 error vs run time, gamma={format_float(gamma)}",
                x_label="wall time (s)",
                y_label="relative L2 error (%)",
                log_y=True,
            )

    sweep = out.settings_read(spec._asdict())
    out.finish(config_as_dict(config), extra={"sweep": sweep})
    return EXIT_OK


def _cmd_sweep_gamma(args: argparse.Namespace) -> int:
    config, file_map = _resolve_simulation(args, defaults=SPREAD_SCENARIO)
    spec = _resolve_sweep(args, file_map)
    out = _Artifacts(args)

    entries = gamma_sweep(config, spec.gammas)

    x = np.arange(config.nx, dtype=np.float64) * config.dx
    profile_series = []
    trace_series = []
    for entry in entries:
        tag = _gamma_tag(entry.gamma)
        write_profile_csv(entry.profile, out.path(f"profile_gamma_{tag}.csv"))
        write_trace_csv(
            entry.trace_steps, entry.trace_values, out.path(f"trace_gamma_{tag}.csv")
        )
        label = f"gamma={format_float(entry.gamma)}"
        profile_series.append(Series(name=label, x=x, y=entry.profile))
        trace_series.append(
            Series(
                name=label,
                x=entry.trace_steps.astype(np.float64) * config.dt,
                y=entry.trace_values,
            )
        )
    write_line_plot(
        profile_series,
        out.path("profiles.svg"),
        title="Final profiles through the source",
        x_label="x",
        y_label="concentration",
    )
    write_line_plot(
        trace_series,
        out.path("traces.svg"),
        title="Source-cell concentration over time",
        x_label="t",
        y_label="concentration",
    )
    sweep = out.settings_read(spec._asdict())
    out.finish(config_as_dict(config), extra={"sweep": sweep})
    return EXIT_OK


def _cmd_schedule(args: argparse.Namespace) -> int:
    strategy = parse_memory_spec(args.memory)
    # schedule_at checks k; full and adaptive memory never read dt.
    schedule = strategy.schedule_at(args.k, checked_real("dt", args.dt, 0, strict=True))
    stats = coverage_report(schedule, args.k)

    if args.out_dir:
        out = _Artifacts(args)
        write_schedule_csv(schedule, out.path("schedule.csv"))
        out.finish({"memory": args.memory, "k": args.k, "dt": args.dt})
    else:
        print("m,w")
        for m, w in schedule.pairs():
            print(f"{m},{w}")
    print(
        f"entries={stats.entry_count} weight_sum={stats.weight_sum} "
        f"gaps={stats.gap_count} overlaps={stats.overlap_count}"
    )
    if stats.gap_offsets:
        print("gap offsets: " + ",".join(str(g) for g in stats.gap_offsets))
    if stats.overlap_offsets:
        print("overlap offsets: " + ",".join(str(o) for o in stats.overlap_offsets))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    # --out-dir and each of its ancestors that does not exist yet, deepest first.
    made = []
    path = os.path.abspath(args.out_dir) if args.out_dir else None
    while path and not os.path.lexists(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        return args.handler(args)
    except DivergenceError as exc:
        code, message = EXIT_DIVERGED, exc
    except (ConfigError, ValueError) as exc:
        code, message = EXIT_CONFIG, exc
    except OSError as exc:
        code, message = EXIT_IO, exc
    print(f"fracgrid: {message}", file=sys.stderr)
    # A failed command leaves none of those directories behind empty; one
    # that existed before it is never touched.
    for path in made:
        with contextlib.suppress(OSError):
            os.rmdir(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
