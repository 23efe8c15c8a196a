"""fracgrid benchmark: one workload, one seed, a fixed measuring time.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload adaptive-100 --seed 1 --seconds 20 --trace 0

The load is one closed loop: one workload iteration at a time, each in a
fresh ``worker.py`` process, started again as long as one more iteration,
at the pace of the latest, ends within ``--seconds``.  Every iteration's
outputs are checked.  With ``--trace 0`` the last line of standard output
holds the end-to-end metrics (medians over iterations); with ``--trace 1``
untraced and traced iterations alternate and the last line
holds the per-layer metrics of the median traced iteration, plus the tracing
overhead (traced minus untraced wall time).  A line before it carries the
environment stamp, the iteration count, accuracy figures and every failed
check.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
NPROC = len(os.sched_getaffinity(0))
# BLAS/OpenMP thread caps of every worker: the CPUs this process may use.
THREAD_CAPS = {
    var: str(NPROC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}

sys.path.insert(0, HERE)
from workloads import WORKLOADS, solver_defaults, solver_overrides, sources_for  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

LAYER_UNITS = {
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "frontend.self_s": "s",
    "trace.unattributed_pct": "%",
    "config.resolve_s": "s",
    "coefficients.build_table_s": "s",
    "solver.run_self_s": "s",
    "solver.step_self_s": "s",
    "schedule.self_s": "s",
    "schedule.entries_visited": "count",
    "grid.history_s": "s",
    "grid.gather_pct": "%",
    "grid.gather_bytes": "B",
    "solver.contraction_s": "s",
    "solver.contraction_flops": "flop",
    "solver.contraction_bytes": "B",
    "solver.contraction_flops_per_byte": "flop/B",
    "solver.contraction_gbps": "GB/s",
    "solver.contiguous_ratio": "ratio",
    "grid.stencil_s": "s",
    "grid.append_s": "s",
    "grid.history_bytes_reserved": "B",
    "grid.history_bytes_reachable": "B",
    "grid.history_reach_ratio": "ratio",
    "csvio.write_pct": "%",
    "csvio.files": "count",
    "csvio.bytes": "B",
    "svgplot.write_pct": "%",
    "solver.diverged_runs": "count",
    "grid.budget_rejected_runs": "count",
}

# Per-layer figures that depend only on the workload and the seed, never on
# timing: they must repeat exactly from one iteration to the next.  (CSV bytes
# do not: benchmark.csv records run times.)
DETERMINISTIC = (
    "schedule.entries_visited",
    "grid.gather_bytes",
    "solver.contraction_flops",
    "solver.contraction_bytes",
    "solver.contiguous_ratio",
    "grid.history_bytes_reserved",
    "grid.history_bytes_reachable",
    "csvio.files",
)

ROOFLINE_NOTE = (
    "solver.contraction_bytes and solver.contraction_flops are computed from array "
    "sizes (in-cache figures, cache misses ignored); solver.contraction_gbps divides "
    "them by measured time and is not compared with peak bandwidth: a STREAM-style "
    "measurement needs arrays of at least 4x the last-level cache each, more memory "
    "than this machine can spare, while every contraction working set fits in that cache"
)


class Checks:
    """Collects failed correctness checks; the run is correct when none fail."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok


def sysfs_llc_bytes() -> int | None:
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def mem_total_bytes() -> int | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_sha256(src: str) -> str:
    """Digest of the package sources, which identifies the code under test."""
    digest = hashlib.sha256()
    pkg = os.path.join(src, "fracgrid")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(root: str, src: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_caps": THREAD_CAPS,
        "seed": seed,
        "git_commit": git_commit(root),
        "source_sha256": source_sha256(src),
        "llc_bytes": sysfs_llc_bytes(),
        "mem_total_bytes": mem_total_bytes(),
    }


# -- checks on one iteration's outputs ------------------------------------


def check_field(checks: Checks, label: str, field, sources=None, mass_tolerance=None) -> None:
    """Finite, zero boundary ring and, given a tolerance, conserved mass."""
    if not checks.expect(bool(np.isfinite(field).all()), f"{label}: final field is not finite"):
        return
    ring = np.concatenate((field[0, :], field[-1, :], field[:, 0], field[:, -1]))
    checks.expect(bool((ring == 0.0).all()), f"{label}: boundary ring is not zero")
    if mass_tolerance is not None:
        mass = sum(value for _, _, value in sources)
        drift = abs(float(field.sum()) - mass) / mass
        checks.expect(drift <= mass_tolerance, f"{label}: mass drifted by {drift:.3g}")


def check_manifest(checks: Checks, art_dir: str) -> None:
    """manifest.json lists exactly the artifacts on disk."""
    try:
        with open(os.path.join(art_dir, "manifest.json"), encoding="utf-8") as fh:
            listed = set(json.load(fh)["artifacts"])
    except (OSError, ValueError, KeyError) as exc:
        checks.expect(False, f"manifest.json unreadable: {exc}")
        return
    on_disk = {
        os.path.relpath(os.path.join(d, f), art_dir)
        for d, _, files in os.walk(art_dir)
        for f in files
    } - {"manifest.json"}
    checks.expect(
        listed == on_disk,
        f"manifest and disk differ: missing {sorted(on_disk - listed)[:3]}, "
        f"absent {sorted(listed - on_disk)[:3]}",
    )


def check_sweep(checks: Checks, art_dir: str, runs: list[dict], finals) -> dict:
    """The sweep's table and fields; returns the worst adaptive errors."""
    from fracgrid.config import DEFAULT_ADAPTIVE_BASES, DEFAULT_SHORT_LENGTHS

    with open(os.path.join(art_dir, "benchmark.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = 1 + len(DEFAULT_SHORT_LENGTHS) + len(DEFAULT_ADAPTIVE_BASES)
    checks.expect(len(rows) == cells, f"benchmark.csv has {len(rows)} rows, expected {cells}")
    checks.expect(
        all(row["err_l2_pct"] != "nan" for row in rows), "benchmark.csv has a failed cell"
    )
    exact = [r for r in rows if r["strategy"] == "short" and r["param"] == "1500"]
    checks.expect(
        len(exact) == 1 and exact[0]["err_l2_pct"] == "0" and exact[0]["err_linf_pct"] == "0",
        "short:1500 does not reproduce full memory exactly in benchmark.csv",
    )
    by_memory = {run["memory"]: finals[f"run{i}"] for i, run in enumerate(runs) if f"run{i}" in finals}
    for memory, field in by_memory.items():
        check_field(checks, memory, field)
    if checks.expect("full" in by_memory and "short:1500" in by_memory, "sweep lacks full or short:1500"):
        checks.expect(
            bool(np.array_equal(by_memory["short:1500"], by_memory["full"])),
            "short:1500 final field differs from full memory bit for bit",
        )
    adaptive = [r for r in rows if r["strategy"] == "adaptive"]
    return {
        "err_l2_pct": max(float(r["err_l2_pct"]) for r in adaptive),
        "err_linf_pct": max(float(r["err_linf_pct"]) for r in adaptive),
    }


def relative_errors(field, reference) -> dict:
    diff = field - reference
    return {
        "err_l2_pct": float(np.linalg.norm(diff) / np.linalg.norm(reference) * 100.0),
        "err_linf_pct": float(np.abs(diff).max() / np.abs(reference).max() * 100.0),
    }


def check_iteration(checks: Checks, workload, sources, out_dir: str, result: dict, reference) -> dict:
    """Check one iteration's outputs and its errors against the workload's ceiling."""
    errors = check_outputs(checks, workload, sources, out_dir, result, reference)
    if errors and workload.err_ceiling_pct is not None:
        l2_ceiling, linf_ceiling = workload.err_ceiling_pct
        checks.expect(
            errors["err_l2_pct"] <= l2_ceiling and errors["err_linf_pct"] <= linf_ceiling,
            f"error {errors} over the ceiling {workload.err_ceiling_pct}",
        )
    return errors


def check_outputs(checks: Checks, workload, sources, out_dir: str, result: dict, reference) -> dict:
    """Check one iteration's outputs; returns its errors against full memory."""
    from fracgrid.csvio import read_grid_csv

    checks.expect(result["exit_code"] == 0, f"workload exited with code {result['exit_code']}")
    for run in result["runs"]:
        checks.expect(not run["error"], f"{run['memory']} failed: {run['error']}")
    if result["exit_code"] != 0:
        return {}
    art_dir = os.path.join(out_dir, "artifacts")
    with np.load(os.path.join(out_dir, "finals.npz")) as npz:
        finals = {key: npz[key] for key in npz.files}
    if workload.kind == "sweep":
        check_manifest(checks, art_dir)
        return check_sweep(checks, art_dir, result["runs"], finals)
    final = finals["run0"]
    check_field(checks, workload.memory, final, sources, workload.mass_tolerance)
    if workload.kind == "simulate":
        check_manifest(checks, art_dir)
        on_disk = read_grid_csv(os.path.join(art_dir, "grid_final.csv"))
        checks.expect(bool(np.array_equal(on_disk, final)), "grid_final.csv differs from the final field")
        return {}
    if reference is None:
        return {"err_l2_pct": 0.0, "err_linf_pct": 0.0}
    return relative_errors(final, reference)


# -- the closed loop --------------------------------------------------------


def spawn(root: str, src: str, workload, seed: int, out_dir: str, trace: bool) -> dict | None:
    """Run one iteration in a fresh process; None if it produced no result."""
    os.makedirs(out_dir)
    env = dict(os.environ, PYTHONPATH=src, **THREAD_CAPS)
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), workload.name, str(seed),
             repr(spawned), out_dir, "1" if trace else "0"],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=120,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: worker timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def full_reference(workload, sources):
    """Full-memory final field on the same seed and configuration."""
    import fracgrid.config
    import fracgrid.solver

    config = fracgrid.config.build_simulation(
        {}, solver_overrides(workload, memory="full"), solver_defaults(sources)
    )
    return fracgrid.solver.run(config).final.data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fracgrid", "solver.py")):
        print("perfbench: no fracgrid sources under ./src; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    sources = sources_for(workload, args.seed)
    trace = args.trace == 1

    # The reference is computed here, outside every timed region.
    reference = full_reference(workload, sources) if workload.memory.startswith("adaptive") else None

    # Iterations write under here; only the reported traced iteration's spans
    # are kept once the run ends.
    work = os.path.join(root, ".perfbench", f"{workload.name}-s{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    checks = Checks()
    untraced: list[dict] = []
    traced: list[dict] = []
    accuracy: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    pace = 0.0  # how long the latest iteration took
    while (
        not untraced
        or (trace and not traced)
        or time.perf_counter() - start + pace <= args.seconds
    ):
        began = time.perf_counter()
        as_traced = trace and len(traced) < len(untraced)
        out_dir = os.path.join(work, f"iter{len(untraced) + len(traced)}")
        result = spawn(root, src, workload, args.seed, out_dir, as_traced)
        if result is None:
            checks.expect(False, "worker process failed")
            attempted += 1
            failed += 1
            break
        attempted += max(1, len(result["runs"]))
        failed += max(
            sum(1 for run in result["runs"] if run["error"]), int(result["exit_code"] != 0)
        )
        accuracy.append(check_iteration(checks, workload, sources, out_dir, result, reference))
        result["dir"] = out_dir
        (traced if as_traced else untraced).append(result)
        if not as_traced:
            shutil.rmtree(out_dir)
        else:
            shutil.rmtree(os.path.join(out_dir, "artifacts"), ignore_errors=True)
            os.remove(os.path.join(out_dir, "finals.npz"))
        if checks.failures:
            break
        pace = time.perf_counter() - began

    details: dict = {
        "workload": workload.name,
        "sources": [list(s) for s in sources],
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "environment": environment(root, src, args.seed),
        "fail_ratio": failed / max(attempted, 1),
    }
    if accuracy and accuracy[0]:
        details["accuracy"] = accuracy[0]
        checks.expect(
            all(a == accuracy[0] for a in accuracy), "accuracy differs between iterations"
        )
    metrics: dict = {}
    if untraced:
        for name, unit in END_TO_END_UNITS.items():
            if name == "steps_per_s":
                values = [r["steps"] / r["loop_s"] for r in untraced if r["loop_s"] > 0]
            else:
                values = [r[name] for r in untraced if r[name] is not None]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        details["untraced_iterations"] = {
            name: [r[name] for r in untraced] for name in ("wall_s", "setup_s", "peak_rss_mib")
        }
    if trace and traced:
        for name in DETERMINISTIC:
            checks.expect(
                len({r["layers"][name] for r in traced}) == 1,
                f"{name} differs between traced iterations",
            )
        by_wall = sorted(traced, key=lambda r: r["layers"]["trace.wall_s"])
        chosen = by_wall[(len(by_wall) - 1) // 2]
        layers = dict(chosen["layers"])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(
            r["wall_s"] for r in untraced
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
        for other in traced:
            if other is not chosen:
                shutil.rmtree(other["dir"])
        details["spans_csv"] = os.path.relpath(os.path.join(chosen["dir"], "spans.csv"), root)
        details["layer_seconds"] = chosen["layer_seconds"]
        details["self_time_sum_s"] = sum(chosen["layer_seconds"].values())
        details["contraction_max_working_set_bytes"] = chosen["counts"].get("contraction_max_bytes", 0)
        details["roofline_note"] = ROOFLINE_NOTE
    elif trace:
        checks.expect(False, "no traced iteration completed")

    if not traced:
        shutil.rmtree(work, ignore_errors=True)
    details["failed_checks"] = checks.failures
    print(json.dumps({"perfbench": details}, sort_keys=True))
    correct = not checks.failures and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
