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
``SIM_SETTINGS`` or ``SWEEP_SETTINGS``: the function that reads its value,
its flag's help text and, unless the key is required, its default.  The run
defaults and ``SweepSpec`` follow from these tables, and ``_FIELDS`` names
the ``SimulationConfig`` field a key sets where the two names differ, both to
build a config and to read it back for the manifest.  A value is read by its
key's function whether it comes from a file, from a flag or from a library
caller, so a malformed one fails the same way, as ``<key>: ...``, wherever
it was given.

Command line flags override file values; anything still missing falls back
to the subcommand's defaults.  Unknown sections or keys are rejected by
name rather than ignored, and so is a key the running command has no flag
for: ``simulate`` also reads ``gamma``, ``memory`` and ``snapshot_every``,
but no ``[sweep]`` key.
"""

from __future__ import annotations

import collections
import configparser
from typing import Any, Callable, Mapping

from .coefficients import checked_gamma
from .grid import DEFAULT_HISTORY_BYTE_CAP
from .schedule import AdaptiveMemory, FieldError, MemoryStrategy, ShortMemory, checked_int
from .schedule import format_memory_spec, parse_memory_spec
from .solver import SimulationConfig


class ConfigError(ValueError):
    """A configuration file or flag value is malformed or out of range."""


def _parse_int(raw: Any) -> int:
    """Text as a base-10 integer; a number is left, as given, to its field's rule."""
    if not isinstance(raw, str):
        return raw
    try:
        return int(raw, 10)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _parse_real(raw: Any) -> float:
    """Text as a float; a number is left, as given, to its field's rule."""
    return float(raw) if isinstance(raw, str) else raw


def _parse_list(item: Callable[[str], Any]) -> Callable[[Any], tuple]:
    """A parser of comma-separated text whose items ``item`` reads and checks.

    Items are compared as read, so ``0.5,0.50`` repeats a value.
    """

    def parse(raw: Any) -> tuple:
        items = [p for p in (s.strip() for s in str(raw).split(",")) if p]
        if not items:
            raise ValueError("empty list")
        values = tuple(item(p) for p in items)
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"duplicate value {value}")
        return values

    return parse


def parse_grid_size(raw: Any) -> tuple[int, int]:
    """Parse a ``NXxNY`` grid extent such as ``100x100``, or an ``(nx, ny)`` pair."""
    parts = raw if isinstance(raw, tuple) else str(raw).lower().split("x")
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


DEFAULT_GAMMAS = (0.5, 0.75, 0.9, 1.0)
DEFAULT_SHORT_LENGTHS = (10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 1500.0)
DEFAULT_ADAPTIVE_BASES = (3, 4, 5, 8, 12, 20, 40, 100)

# Every [simulation] and [sweep] key: the function that reads its value, which
# raises ValueError for malformed text and leaves a number to the rule of the
# field it sets, its flag's help text and, for a key a run may leave unset,
# its default.  A key with no default is required.  The keys' order is their
# flags' order in --help.
SIM_SETTINGS: dict[str, tuple[Any, ...]] = {
    "gamma": (_parse_real, "anomalous exponent in (0, 1]"),
    "memory": (
        parse_memory_spec, "history strategy: full, short:<length>, adaptive:<base>", "full"
    ),
    "alpha": (_parse_real, "diffusion coefficient", 1.0),
    "beta": (_parse_real, "linear decay rate", 0.0),
    "dt": (_parse_real, "time step"),
    "dx": (_parse_real, "grid spacing"),
    "grid": (parse_grid_size, "grid extent NXxNY, e.g. 100x100"),
    "steps": (_parse_int, "number of time steps"),
    "snapshot_every": (_parse_int, "snapshot cadence in steps", None),
    "memory_cap": (_parse_int, "history allocation cap in bytes", DEFAULT_HISTORY_BYTE_CAP),
}
# Each sweep value is checked where it is read, by the gamma check, by the
# strategy it stands for or by the integer rule, so a bad one fails before
# any run.  A default is not read: it is valid as it stands.
SWEEP_SETTINGS: dict[str, tuple[Any, ...]] = {
    "gammas": (
        _parse_list(lambda text: checked_gamma(float(text))),
        "comma-separated gamma values",
        DEFAULT_GAMMAS,
    ),
    "short_lengths": (
        _parse_list(lambda text: ShortMemory(float(text)).length),
        "comma-separated short-memory horizons",
        DEFAULT_SHORT_LENGTHS,
    ),
    "adaptive_bases": (
        _parse_list(lambda text: AdaptiveMemory(_parse_int(text)).base),
        "comma-separated adaptive base windows",
        DEFAULT_ADAPTIVE_BASES,
    ),
    "repeats": (
        lambda raw: checked_int("repeats", _parse_int(raw), 1),
        "timing repeats per cell (best-of)",
        1,
    ),
}
SIM_KEYS = tuple(SIM_SETTINGS)
SWEEP_KEYS = tuple(SWEEP_SETTINGS)

_SIM_DEFAULTS = {key: entry[2] for key, entry in SIM_SETTINGS.items() if len(entry) > 2}

# Strategy grid for a benchmark comparison: one field per [sweep] key, each
# defaulting to the key's default (every [sweep] key has one).
SweepSpec = collections.namedtuple(
    "SweepSpec", SWEEP_KEYS, defaults=[entry[2] for entry in SWEEP_SETTINGS.values()]
)

# The SimulationConfig field a [simulation] key sets, where their names
# differ; ``grid`` sets two, ``nx`` and ``ny``.
_FIELDS = {"steps": "n_steps", "memory": "strategy", "memory_cap": "history_byte_cap"}
# The key that sets a field, to name in the field's errors.
_KEYS = {field: key for key, field in _FIELDS.items()} | {"nx": "grid", "ny": "grid"}


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

    for section in parser.sections():
        if section not in ("simulation", "sources", "sweep"):
            raise ConfigError(f"{path}: unknown section [{section}]")
    result = {section: dict(parser.items(section)) for section in parser.sections()}
    for section, keys in (("simulation", SIM_KEYS), ("sweep", SWEEP_KEYS)):
        for key in result.get(section, {}):
            if key not in keys:
                raise ConfigError(f"{path}: unknown key '{key}' in [{section}]")
    return result


def _read(settings: Mapping[str, tuple[Any, ...]], merged: Mapping[str, Any]):
    """Each value of ``merged`` read by its key's function in ``settings``.

    A malformed value raises ``ConfigError("<key>: ...")``, naming the key
    once.  None, which only the default of ``snapshot_every`` holds, stays
    None.
    """
    values: dict[str, Any] = {}
    for key, (parse, *_) in settings.items():
        if key in merged:
            try:
                values[key] = None if merged[key] is None else parse(merged[key])
            except (TypeError, ValueError) as exc:
                reason = exc.reason if isinstance(exc, FieldError) and exc.name == key else exc
                raise ConfigError(f"{key}: {reason}") from None
    return values


def build_simulation(
    file_map: Mapping[str, Mapping[str, Any]],
    overrides: Mapping[str, Any],
    defaults: Mapping[str, Any] | None = None,
) -> SimulationConfig:
    """Merge defaults < config file < CLI overrides into a SimulationConfig.

    Entries of ``defaults`` and ``overrides`` with value None are treated as
    "not given".  A file's [sources] section is not read when an override
    replaces it.  A refused value raises ``ConfigError("<key>: <reason>")``.
    """
    simulation = dict(file_map.get("simulation", {}))
    if "sources" in file_map and overrides.get("sources") is None:
        simulation["sources"] = tuple(
            parse_source(f"{coords}={value}") for coords, value in file_map["sources"].items()
        )
    merged: dict[str, Any] = dict(_SIM_DEFAULTS, sources=())
    for given in (defaults or {}, simulation, overrides):
        merged.update({k: v for k, v in given.items() if v is not None})

    missing = [key for key in SIM_KEYS if key not in merged]
    if missing:
        raise ConfigError(f"missing required settings: {', '.join(missing)}")
    values = _read(SIM_SETTINGS, merged)
    values["nx"], values["ny"] = values.pop("grid")
    try:
        return SimulationConfig(
            sources=tuple(merged["sources"]),
            **{_FIELDS.get(key, key): value for key, value in values.items()},
        )
    except FieldError as exc:
        raise ConfigError(f"{_KEYS.get(exc.name, exc.name)}: {exc.reason}") from None


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
    """JSON-friendly view of a fully-resolved configuration, keyed by setting.

    Each key holds the field it sets (``_FIELDS``), a memory strategy written
    as its spec; ``grid`` is written as ``NXxNY``, and ``snapshot_every`` as
    the cadence the run uses, also when it was left unset.
    """
    grid = f"{config.nx}x{config.ny}"
    view = {}
    for key in SIM_KEYS:
        value = grid if key == "grid" else getattr(config, _FIELDS.get(key, key))
        view[key] = format_memory_spec(value) if isinstance(value, MemoryStrategy) else value
    view["snapshot_every"] = config.snapshot_cadence
    view["sources"] = [[j, l, value] for j, l, value in config.sources]
    return view
