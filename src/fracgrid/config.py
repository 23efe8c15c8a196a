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

Each ``[simulation]`` and ``[sweep]`` key is declared once, in
``SIM_SETTINGS`` or ``SWEEP_SETTINGS``: the function that reads its value and
its flag's help text.  A value is read by that same function whether it comes
from a file, from a flag or from a library caller, so a malformed one fails
the same way, as ``<key>: ...``, wherever it was given.

Command line flags override file values; anything still missing falls back
to the subcommand's defaults.  Unknown sections or keys are rejected by
name rather than ignored, and so is a key the running command has no flag
for: ``simulate`` also reads ``gamma``, ``memory`` and ``snapshot_every``,
but no ``[sweep]`` key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .coefficients import checked_gamma
from .grid import DEFAULT_HISTORY_BYTE_CAP
from .schedule import AdaptiveMemory, ShortMemory, format_memory_spec, parse_memory_spec
from .solver import SimulationConfig


class ConfigError(ValueError):
    """A configuration file or flag value is malformed or out of range."""


def _parse_int(raw: Any) -> int:
    try:
        if isinstance(raw, str):
            return int(raw, 10)
        if int(raw) != raw:
            raise ValueError
        return int(raw)
    except (TypeError, ValueError):
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _parse_count(raw: Any) -> int:
    count = _parse_int(raw)
    if count < 1:
        raise ValueError(f"must be >= 1, got {count}")
    return count


def _parse_list(item: Callable[[str], Any]) -> Callable[[Any], tuple]:
    """A parser of comma-separated text whose items ``item`` reads and checks."""

    def parse(raw: Any) -> tuple:
        items = [p for p in (s.strip() for s in str(raw).split(",")) if p]
        if not items:
            raise ValueError("empty list")
        return tuple(item(p) for p in items)

    return parse


def parse_grid_size(raw: Any) -> tuple[int, int]:
    """Parse a ``NXxNY`` grid extent such as ``100x100``."""
    if isinstance(raw, tuple):
        return int(raw[0]), int(raw[1])
    parts = str(raw).lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"expected NXxNY (e.g. 100x100), got {raw!r}")
    return _parse_int(parts[0]), _parse_int(parts[1])


def parse_source(raw: str) -> tuple[int, int, float]:
    """Parse one ``j,l=value`` source assignment."""
    head, sep, value = str(raw).partition("=")
    parts = [p.strip() for p in head.split(",")]
    try:
        if not sep or len(parts) != 2:
            raise ValueError(f"expected j,l=value, got {raw!r}")
        return _parse_int(parts[0]), _parse_int(parts[1]), float(value)
    except ValueError as exc:
        raise ConfigError(f"source: {exc}") from None


# Every [simulation] and [sweep] key: the function that reads its value, which
# raises ValueError (or TypeError) for a malformed one, and its flag's help
# text.  The keys' order is their flags' order in --help.
SIM_SETTINGS: dict[str, tuple[Callable[[Any], Any], str]] = {
    "gamma": (float, "anomalous exponent in (0, 1]"),
    "memory": (parse_memory_spec, "history strategy: full, short:<length>, adaptive:<base>"),
    "alpha": (float, "diffusion coefficient"),
    "beta": (float, "linear decay rate"),
    "dt": (float, "time step"),
    "dx": (float, "grid spacing"),
    "grid": (parse_grid_size, "grid extent NXxNY, e.g. 100x100"),
    "steps": (_parse_int, "number of time steps"),
    "snapshot_every": (_parse_int, "snapshot cadence in steps"),
    "memory_cap": (_parse_int, "history allocation cap in bytes"),
}
# Each sweep value is checked where it is read, by the gamma check or by the
# strategy it stands for, so a bad one fails before any run.
SWEEP_SETTINGS: dict[str, tuple[Callable[[Any], Any], str]] = {
    "gammas": (_parse_list(checked_gamma), "comma-separated gamma values"),
    "short_lengths": (
        _parse_list(lambda text: ShortMemory(float(text)).length),
        "comma-separated short-memory horizons",
    ),
    "adaptive_bases": (
        _parse_list(lambda text: AdaptiveMemory(_parse_int(text)).base),
        "comma-separated adaptive base windows",
    ),
    "repeats": (_parse_count, "timing repeats per cell (best-of)"),
}
SIM_KEYS = tuple(SIM_SETTINGS)
SWEEP_KEYS = tuple(SWEEP_SETTINGS)

# The [simulation] keys a run may leave unset; every other key is required.
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


def _read(settings: Mapping[str, tuple[Callable[[Any], Any], str]], merged: Mapping[str, Any]):
    """Each value of ``merged`` read by its key's function in ``settings``.

    A malformed value raises ``ConfigError("<key>: ...")``.  None, which only
    the default of ``snapshot_every`` holds, stays None.
    """
    values: dict[str, Any] = {}
    for key, (parse, _) in settings.items():
        if key in merged:
            try:
                values[key] = None if merged[key] is None else parse(merged[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key}: {exc}") from None
    return values


def build_simulation(
    file_map: Mapping[str, Mapping[str, Any]],
    overrides: Mapping[str, Any],
    defaults: Mapping[str, Any] | None = None,
) -> SimulationConfig:
    """Merge defaults < config file < CLI overrides into a SimulationConfig.

    Entries of ``defaults`` and ``overrides`` with value None are treated as
    "not given".
    """
    merged: dict[str, Any] = dict(_SIM_DEFAULTS)
    for given in (defaults or {}, file_map.get("simulation", {}), overrides):
        merged.update({k: v for k, v in given.items() if v is not None and k != "sources"})

    sources: tuple[tuple[int, int, float], ...]
    if overrides.get("sources") is not None:
        sources = tuple(overrides["sources"])
    elif "sources" in file_map:
        sources = _file_sources(file_map["sources"])
    elif defaults and "sources" in defaults:
        sources = tuple(defaults["sources"])
    else:
        sources = ()

    missing = [key for key in SIM_KEYS if key not in merged]
    if missing:
        raise ConfigError(f"missing required settings: {', '.join(missing)}")
    values = _read(SIM_SETTINGS, merged)
    nx, ny = values["grid"]
    try:
        return SimulationConfig(
            gamma=values["gamma"],
            alpha=values["alpha"],
            beta=values["beta"],
            dt=values["dt"],
            dx=values["dx"],
            nx=nx,
            ny=ny,
            n_steps=values["steps"],
            sources=sources,
            strategy=values["memory"],
            snapshot_every=values["snapshot_every"],
            history_byte_cap=values["memory_cap"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_sweep(
    file_map: Mapping[str, Mapping[str, Any]],
    overrides: Mapping[str, Any],
) -> SweepSpec:
    """Merge the [sweep] section with CLI overrides; defaults fill the rest.

    Only the keys given are read, and each is checked as it is read.
    """
    merged: dict[str, Any] = dict(file_map.get("sweep", {}))
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return SweepSpec(**_read(SWEEP_SETTINGS, merged))


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
