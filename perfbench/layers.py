"""Outside-in probes around fracgrid's module entry points.

A :class:`Probe` replaces, for the duration of a ``with`` block, the names
through which fracgrid's modules call each other (``fracgrid.solver.step``,
``fracgrid.cli.write_grid_csv``, ``HistoryBuffer.gather``, ...) by thin
wrappers, and restores every original on exit.  Nothing inside the package
changes.

Every probe times each ``solver.run`` call, which is what the end-to-end set-up
and throughput figures need.  A tracing probe (``trace=True``) also records a
span at every layer boundary -- name, start, end, parent span, run id -- and
the work counts that go with it.  Spans stay in memory until the workload
ends; a span's self time is its duration minus that of its direct children,
so the self times of all spans add up to the root span exactly.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import fracgrid.benchmark
import fracgrid.cli
import fracgrid.config
import fracgrid.solver
from fracgrid.grid import HistoryBuffer, MemoryBudgetError
from fracgrid.schedule import AdaptiveMemory, FullMemory, ShortMemory
from fracgrid.schedule import format_memory_spec
from fracgrid.solver import DivergenceError

FLOAT_BYTES = 8

# The CSV writers ``fracgrid.cli`` calls; each takes the output path last.
CSV_WRITERS = (
    "write_grid_csv",
    "write_profile_csv",
    "write_trace_csv",
    "write_benchmark_csv",
    "write_schedule_csv",
)


@dataclass
class RunRecord:
    """Timing and outcome of one ``solver.run`` call."""

    memory: str
    steps: int
    t_before: float
    wall_s: float = 0.0
    elapsed_s: float = 0.0
    final: object = None
    error: str = ""


class Probe:
    """Patch fracgrid's call sites for one workload iteration."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.runs: list[RunRecord] = []
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._child_ns: dict[int, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []
        self._run_id = 0
        self._run_reach = 0

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block (the workload root)."""
        index, parent = self._begin()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._end(name, index, parent, t0, time.perf_counter_ns())

    def _begin(self) -> tuple[int, int]:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]
        self._open.append(index)
        return index, parent

    def _end(self, name: str, index: int, parent: int, t0: int, t1: int) -> None:
        self._open.pop()
        duration = t1 - t0
        self.spans[index] = (name, t0, t1, parent, self._run_id)
        self.self_ns[name] += duration - self._child_ns.pop(index, 0)
        if parent >= 0:
            self._child_ns[parent] += duration

    def _wrap(self, name: str, fn, count=None):
        probe = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, parent = probe._begin()
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                probe._end(name, index, parent, t0, clock())
            if count is not None:
                count(out, *args)
            return out

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Probe":
        run = self._timed_run(fracgrid.solver.run)
        for module in (fracgrid.solver, fracgrid.benchmark, fracgrid.cli):
            self._patch(module, "run", run)
        if self.trace:
            self._install_layers()
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _timed_run(self, run):
        probe = self
        traced = self._wrap("solver.run", run) if self.trace else run

        @functools.wraps(run)
        def timed(config, **kwargs):
            record = RunRecord(
                memory=format_memory_spec(config.strategy),
                steps=config.n_steps,
                t_before=time.perf_counter(),
            )
            probe.runs.append(record)
            probe._run_id = len(probe.runs)
            probe._run_reach = 0
            try:
                result = traced(config, **kwargs)
            except DivergenceError as exc:
                probe.counts["diverged_runs"] += 1
                record.error = str(exc)
                raise
            except MemoryBudgetError as exc:
                probe.counts["budget_rejected_runs"] += 1
                record.error = str(exc)
                raise
            finally:
                record.wall_s = time.perf_counter() - record.t_before
                probe.counts["history_bytes_reachable"] += probe._run_reach
                probe._run_id = 0
            record.elapsed_s = result.elapsed_seconds
            record.final = result.final.data
            return result

        return timed

    def _install_layers(self) -> None:
        solver, cli, config = fracgrid.solver, fracgrid.cli, fracgrid.config
        counts = self.counts
        probe = self

        def count_entries(schedule, *_):
            counts["entries_visited"] += len(schedule)

        for cls in (FullMemory, ShortMemory, AdaptiveMemory):
            self._patch(cls, "schedule_at", self._wrap("schedule", cls.schedule_at, count_entries))

        def count_contraction(_, history, schedule, table, k):
            terms = len(schedule)
            cells = history.field_shape[0] * history.field_shape[1]
            counts["history_sum_calls"] += 1
            counts["contraction_flops"] += 2 * terms * cells
            counts["contraction_bytes"] += FLOAT_BYTES * (terms * cells + cells + terms)
            counts["contraction_max_bytes"] = max(
                counts["contraction_max_bytes"], FLOAT_BYTES * terms * cells
            )
            reach = (int(schedule.offsets[-1]) + 1) * cells * FLOAT_BYTES
            probe._run_reach = max(probe._run_reach, reach)

        self._patch(solver, "history_sum", self._wrap("solver.history_sum", solver.history_sum, count_contraction))
        self._patch(solver, "step", self._wrap("solver.step", solver.step))
        self._patch(solver, "stencil", self._wrap("grid.stencil", solver.stencil))
        self._patch(solver, "build_table", self._wrap("coefficients.build_table", solver.build_table))

        def count_gather(stack, *_):
            counts["gather_bytes"] += stack.nbytes

        def count_block(*_):
            counts["block_calls"] += 1

        self._patch(HistoryBuffer, "gather", self._wrap("grid.gather", HistoryBuffer.gather, count_gather))
        self._patch(HistoryBuffer, "block", self._wrap("grid.block", HistoryBuffer.block, count_block))
        self._patch(HistoryBuffer, "append", self._wrap("grid.append", HistoryBuffer.append))

        init = HistoryBuffer.__init__

        @functools.wraps(init)
        def counted_init(buffer, capacity, shape, *args, **kwargs):
            init(buffer, capacity, shape, *args, **kwargs)
            rows, cols = buffer.field_shape
            counts["history_bytes_reserved"] += buffer.capacity * rows * cols * FLOAT_BYTES

        self._patch(HistoryBuffer, "__init__", counted_init)

        for module in (config, cli):
            self._patch(module, "build_simulation", self._wrap("config.resolve", config.build_simulation))
        self._patch(cli, "build_sweep", self._wrap("config.resolve", config.build_sweep))

        def count_file(_, *args):
            counts["csv_files"] += 1
            counts["csv_bytes"] += os.path.getsize(args[-1])

        for attr in CSV_WRITERS:
            self._patch(cli, attr, self._wrap("csvio.write", getattr(cli, attr), count_file))
        self._patch(cli, "write_line_plot", self._wrap("svgplot.write", cli.write_line_plot))

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, shares and work counts of a traced workload."""
        s = self.layer_seconds()
        _, t0, t1, _, _ = self.spans[0]
        wall = (t1 - t0) / 1e9
        c = self.counts
        contraction_s = s.get("solver.history_sum", 0.0)
        return {
            "trace.wall_s": wall,
            "frontend.self_s": s.get("workload", 0.0),
            "trace.unattributed_pct": 100.0 * s.get("workload", 0.0) / wall,
            "config.resolve_s": s.get("config.resolve", 0.0),
            "coefficients.build_table_s": s.get("coefficients.build_table", 0.0),
            "solver.run_self_s": s.get("solver.run", 0.0),
            "solver.step_self_s": s.get("solver.step", 0.0),
            "schedule.self_s": s.get("schedule", 0.0),
            "schedule.entries_visited": c["entries_visited"],
            "grid.history_s": s.get("grid.gather", 0.0) + s.get("grid.block", 0.0),
            "grid.gather_pct": 100.0 * s.get("grid.gather", 0.0) / wall,
            "grid.gather_bytes": c["gather_bytes"],
            "solver.contraction_s": contraction_s,
            "solver.contraction_flops": c["contraction_flops"],
            "solver.contraction_bytes": c["contraction_bytes"],
            "solver.contraction_flops_per_byte": c["contraction_flops"] / max(c["contraction_bytes"], 1),
            "solver.contraction_gbps": c["contraction_bytes"] / contraction_s / 1e9,
            "solver.contiguous_ratio": c["block_calls"] / max(c["history_sum_calls"], 1),
            "grid.stencil_s": s.get("grid.stencil", 0.0),
            "grid.append_s": s.get("grid.append", 0.0),
            "grid.history_bytes_reserved": c["history_bytes_reserved"],
            "grid.history_bytes_reachable": c["history_bytes_reachable"],
            "grid.history_reach_ratio": c["history_bytes_reachable"] / max(c["history_bytes_reserved"], 1),
            "csvio.write_pct": 100.0 * s.get("csvio.write", 0.0) / wall,
            "csvio.files": c["csv_files"],
            "csvio.bytes": c["csv_bytes"],
            "svgplot.write_pct": 100.0 * s.get("svgplot.write", 0.0) / wall,
            "solver.diverged_runs": c["diverged_runs"],
            "grid.budget_rejected_runs": c["budget_rejected_runs"],
        }

    def layer_seconds(self) -> dict[str, float]:
        """Self time of every span name, in seconds (sums to the root span)."""
        return {name: ns / 1e9 for name, ns in sorted(self.self_ns.items())}

    def write_spans(self, path: str) -> None:
        """All spans as CSV: index, name, start_ns, end_ns, parent, run."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,start_ns,end_ns,parent,run\n")
            for index, (name, t0, t1, parent, run) in enumerate(self.spans):
                fh.write(f"{index},{name},{t0},{t1},{parent},{run}\n")

