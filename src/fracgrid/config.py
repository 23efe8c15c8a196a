"""Run configuration: INI file schema, CLI merging, validation.

A ``benchmark`` config file looks like::

    [simulation]
    alpha = 1.0
    beta = 0.0
    dt = 1.0
    dx = 10.0
    grid = 20x20
    steps = 1500

    [sources]
    10,10 = 10.0

    [sweep]
    gammas = 0.5, 0.75, 0.9, 1.0
    short_lengths = 10, 25, 50
    adaptive_bases = 3, 5, 8
    repeats = 1

Command line flags override file values; anything still missing falls back
to the subcommand's defaults.  Unknown sections or keys are rejected by
name rather than ignored, and so is a key the running command has no flag
for: ``simulate`` also reads ``gamma``, ``memory`` and ``snapshot_every``,
but no ``[sweep]`` key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from typing import Any, Mapping

from .coefficients import checked_gamma
from .grid import DEFAULT_HISTORY_BYTE_CAP
from .schedule import AdaptiveMemory, ShortMemory, format_memory_spec, parse_memory_spec
from .solver import SimulationConfig


class ConfigError(ValueError):
    """A configuration file or flag value is malformed or out of range."""


# The [simulation] keys; each is also the destination of its command-line
# flag and a key of config_as_dict.
SIM_KEYS = (
    "gamma",
    "alpha",
    "beta",
    "dt",
    "dx",
    "grid",
    "steps",
    "memory",
    "snapshot_every",
    "memory_cap",
)

_SIM_DEFAULTS: dict[str, Any] = {
    "alpha": 1.0,
    "beta": 0.0,
    "memory": "full",
    "snapshot_every": None,
    "memory_cap": DEFAULT_HISTORY_BYTE_CAP,
}

DEFAULT_GAMMAS = (0.5, 0.75, 0.9, 1.0)
DEFAULT_SHORT_LENGTHS = (10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 1500.0)
DEFAULT_ADAPTIVE_BASES = (3, 4, 5, 8, 12, 20, 40, 100)


@dataclass(frozen=True)
class SweepSpec:
    """Strategy grid for a benchmark comparison; its fields are the [sweep] keys."""

    gammas: tuple[float, ...] = DEFAULT_GAMMAS
    short_lengths: tuple[float, ...] = DEFAULT_SHORT_LENGTHS
    adaptive_bases: tuple[int, ...] = DEFAULT_ADAPTIVE_BASES
    repeats: int = 1


SWEEP_KEYS = tuple(f.name for f in fields(SweepSpec))

# Bundled point-source benchmark scenario: a single strong source in the
# middle of a small grid, run long enough that the history cost dominates.
BENCHMARK_SCENARIO: dict[str, Any] = {
    "gamma": 0.75,
    "alpha": 1.0,
    "beta": 0.0,
    "dt": 1.0,
    "dx": 10.0,
    "grid": (20, 20),
    "steps": 1500,
    "sources": ((10, 10, 10.0),),
}

# Bundled spreading-pulse scenario: a pulse with soft shoulders in the middle
# of a larger grid, short enough to snapshot densely.
SPREAD_SCENARIO: dict[str, Any] = {
    "gamma": 1.0,
    "alpha": 1.0,
    "beta": 0.0,
    "dt": 0.5,
    "dx": 5.0,
    "grid": (100, 100),
    "steps": 200,
    "sources": (
        (50, 50, 0.1),
        (49, 50, 0.05),
        (51, 50, 0.05),
        (50, 49, 0.05),
        (50, 51, 0.05),
    ),
}


def _parse_float(key: str, raw: Any) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_int(key: str, raw: Any) -> int:
    try:
        if isinstance(raw, str):
            return int(raw, 10)
        if int(raw) != raw:
            raise ValueError
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def parse_grid_size(raw: Any) -> tuple[int, int]:
    """Parse a ``NXxNY`` grid extent such as ``100x100``."""
    if isinstance(raw, tuple):
        return int(raw[0]), int(raw[1])
    parts = str(raw).lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"grid: expected NXxNY (e.g. 100x100), got {raw!r}")
    return _parse_int("grid", parts[0]), _parse_int("grid", parts[1])


def parse_source(raw: str) -> tuple[int, int, float]:
    """Parse one ``j,l=value`` source assignment."""
    head, sep, value = str(raw).partition("=")
    parts = [p.strip() for p in head.split(",")]
    if not sep or len(parts) != 2:
        raise ConfigError(f"source: expected j,l=value, got {raw!r}")
    return (
        _parse_int("source", parts[0]),
        _parse_int("source", parts[1]),
        _parse_float("source", value.strip()),
    )


def _parse_list(key: str, raw: Any, kind: type) -> tuple:
    items = [p for p in (s.strip() for s in str(raw).split(",")) if p]
    if not items:
        raise ConfigError(f"{key}: empty list")
    if kind is int:
        return tuple(_parse_int(key, p) for p in items)
    return tuple(_parse_float(key, p) for p in items)


def load_config_file(path: str) -> dict[str, dict[str, Any]]:
    """Read an INI config file into plain {section: {key: raw-string}} maps.

    Unknown sections or keys raise :class:`ConfigError` naming the offender.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep source coordinates like "10,10" intact
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None

    known = {"simulation", "sources", "sweep"}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"{path}: unknown section [{section}]")
    result: dict[str, dict[str, Any]] = {}
    if parser.has_section("simulation"):
        sim = dict(parser.items("simulation"))
        for key in sim:
            if key not in SIM_KEYS:
                raise ConfigError(f"{path}: unknown key '{key}' in [simulation]")
        result["simulation"] = sim
    if parser.has_section("sources"):
        result["sources"] = dict(parser.items("sources"))
    if parser.has_section("sweep"):
        sweep = dict(parser.items("sweep"))
        for key in sweep:
            if key not in SWEEP_KEYS:
                raise ConfigError(f"{path}: unknown key '{key}' in [sweep]")
        result["sweep"] = sweep
    return result


def _file_sources(raw: Mapping[str, Any]) -> tuple[tuple[int, int, float], ...]:
    return tuple(parse_source(f"{coords}={value}") for coords, value in raw.items())


def build_simulation(
    file_map: Mapping[str, Mapping[str, Any]],
    overrides: Mapping[str, Any],
    defaults: Mapping[str, Any] | None = None,
) -> SimulationConfig:
    """Merge defaults < config file < CLI overrides into a SimulationConfig.

    ``overrides`` entries with value None are treated as "not given".
    """
    merged: dict[str, Any] = dict(_SIM_DEFAULTS)
    if defaults:
        merged.update({k: v for k, v in defaults.items() if k != "sources"})
    merged.update(file_map.get("simulation", {}))
    merged.update({k: v for k, v in overrides.items() if v is not None and k != "sources"})

    sources: tuple[tuple[int, int, float], ...]
    if overrides.get("sources") is not None:
        sources = tuple(overrides["sources"])
    elif "sources" in file_map:
        sources = _file_sources(file_map["sources"])
    elif defaults and "sources" in defaults:
        sources = tuple(defaults["sources"])
    else:
        sources = ()

    missing = [key for key in ("gamma", "dt", "dx", "grid", "steps") if merged.get(key) is None]
    if missing:
        raise ConfigError(f"missing required settings: {', '.join(missing)}")

    nx, ny = parse_grid_size(merged["grid"])
    snapshot_every = merged.get("snapshot_every")
    if snapshot_every is not None:
        snapshot_every = _parse_int("snapshot_every", snapshot_every)
    memory_cap = _parse_int("memory_cap", merged["memory_cap"])
    try:
        memory = parse_memory_spec(merged["memory"])
    except ValueError as exc:
        raise ConfigError(f"memory: {exc}") from None

    try:
        return SimulationConfig(
            gamma=_parse_float("gamma", merged["gamma"]),
            alpha=_parse_float("alpha", merged["alpha"]),
            beta=_parse_float("beta", merged["beta"]),
            dt=_parse_float("dt", merged["dt"]),
            dx=_parse_float("dx", merged["dx"]),
            nx=nx,
            ny=ny,
            n_steps=_parse_int("steps", merged["steps"]),
            sources=sources,
            strategy=memory,
            snapshot_every=snapshot_every,
            history_byte_cap=memory_cap,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_sweep(
    file_map: Mapping[str, Mapping[str, Any]],
    overrides: Mapping[str, Any],
) -> SweepSpec:
    """Merge the [sweep] section with CLI overrides; defaults fill the rest.

    Each value is checked by the gamma check or the strategy it builds, so a
    bad one is rejected before any run.
    """
    merged: dict[str, Any] = {}
    merged.update(file_map.get("sweep", {}))
    merged.update({k: v for k, v in overrides.items() if v is not None})

    given: dict[str, Any] = {}
    for f in fields(SweepSpec):
        if f.name not in merged:
            continue
        raw = merged[f.name]
        # A tuple default makes the key a comma-separated list of its type.
        if isinstance(f.default, tuple):
            given[f.name] = _parse_list(f.name, raw, type(f.default[0]))
        else:
            given[f.name] = _parse_int(f.name, raw)
    spec = SweepSpec(**given)
    if spec.repeats < 1:
        raise ConfigError(f"repeats: must be >= 1, got {spec.repeats}")
    for key, check in (
        ("gammas", checked_gamma),
        ("short_lengths", ShortMemory),
        ("adaptive_bases", AdaptiveMemory),
    ):
        for value in getattr(spec, key):
            try:
                check(value)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
    return spec


def config_as_dict(config: SimulationConfig) -> dict[str, Any]:
    """JSON-friendly view of a fully-resolved configuration."""
    return {
        "gamma": config.gamma,
        "alpha": config.alpha,
        "beta": config.beta,
        "dt": config.dt,
        "dx": config.dx,
        "grid": f"{config.nx}x{config.ny}",
        "steps": config.n_steps,
        "memory": format_memory_spec(config.strategy),
        "snapshot_every": config.snapshot_every,
        "memory_cap": config.history_byte_cap,
        "sources": [[j, l, value] for j, l, value in config.sources],
    }
