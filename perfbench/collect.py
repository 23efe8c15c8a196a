"""Run the benchmark over several seeds and record the results.

Run from the root of a source checkout::

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/BENCH_baseline

For every workload in BENCHMARK.json this runs ``run.py`` untraced once per
seed, then once traced on the first seed.  It writes ``<out>.json`` (every
value of every run, the environment stamp and the traced per-layer table)
and ``<out>.md`` (the same as tables).  Each end-to-end metric's spread is
the distance between its first and third quartile over the seeds, as a share
of the median; a spread above a third of the metric's bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, int]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: no result\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1]), proc.returncode


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def markdown(report: dict) -> str:
    env = report["environment"]
    out = [f"# fracgrid benchmark: {report['tag']}", ""]
    out.append(
        f"{env['nproc']} CPUs, Python {env['python']}, NumPy {env['numpy']}, "
        f"{env['blas']['name']} {env['blas']['version']}, thread caps "
        f"{env['thread_caps']['OPENBLAS_NUM_THREADS']}, commit {env['git_commit']}, "
        f"sources sha256 {env['source_sha256'][:12]}. "
        f"{report['seconds']} s per run, seeds {report['seeds'][0]}-{report['seeds'][-1]}."
    )
    out += ["", "## End to end (untraced, one run per seed)", "",
            "| workload | metric | median | q1 | q3 | spread | bound |",
            "|---|---|---|---|---|---|---|"]
    for name, wl in report["workloads"].items():
        for metric, st in wl["end_to_end"].items():
            out.append(
                f"| {name} | {metric} ({st['unit']}) | {fmt(st['median'])} | {fmt(st['q1'])} | "
                f"{fmt(st['q3'])} | {st['spread']:.4f} | {st['bound']} |"
            )
    out += ["", "## Accuracy and failures (untraced)", "",
            "Errors are against full memory on the same seed; where they vary by seed "
            "the worst is shown.", "",
            "| workload | err_l2_pct | err_linf_pct | fail_ratio | every run correct |",
            "|---|---|---|---|---|"]
    for name, wl in report["workloads"].items():
        errors = [
            fmt(max(a[key] for a in wl["accuracy"])) if wl["accuracy"] else "not computed"
            for key in ("err_l2_pct", "err_linf_pct")
        ]
        out.append(
            f"| {name} | {errors[0]} | {errors[1]} | {fmt(max(wl['fail_ratio']))} | "
            f"{all(wl['correct'])} |"
        )
    out += ["", "## Per layer (traced run, seed " + str(report["seeds"][0]) + ")", ""]
    names = list(report["workloads"])
    out += ["| metric | unit | " + " | ".join(names) + " |", "|---|---|" + "---|" * len(names)]
    traced_ok = [str(report["workloads"][n]["traced"]["correct"]) for n in names]
    out.append("| every check passed | | " + " | ".join(traced_ok) + " |")
    first = report["workloads"][names[0]]["traced"]["metrics"]
    for metric in first:
        cells = [fmt(report["workloads"][n]["traced"]["metrics"][metric]["value"]) for n in names]
        out.append(f"| {metric} | {first[metric]['unit']} | " + " | ".join(cells) + " |")
    out += ["", "Self time of every span (s); the column sums to the traced wall time:", "",
            "| span | " + " | ".join(names) + " |", "|---|" + "---|" * len(names)]
    spans = sorted({s for n in names for s in report["workloads"][n]["traced"]["layer_seconds"]})
    for span in spans:
        cells = [fmt(report["workloads"][n]["traced"]["layer_seconds"].get(span, 0.0)) for n in names]
        out.append(f"| {span} | " + " | ".join(cells) + " |")
    sums = [fmt(report["workloads"][n]["traced"]["self_time_sum_s"]) for n in names]
    out.append("| **sum** | " + " | ".join(sums) + " |")
    out += ["", "Roofline: " + report["roofline_note"] + ".", ""]
    return "\n".join(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", required=True, help="output path without extension")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]

    report: dict = {"tag": os.path.basename(args.out), "seconds": seconds,
                    "seeds": seeds, "workloads": {}}
    worst = 0.0
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in seeds]
        wl: dict = {
            "correct": [r[1]["correct"] and r[2] == 0 for r in runs],
            "fail_ratio": [r[0]["fail_ratio"] for r in runs],
            "accuracy": [r[0]["accuracy"] for r in runs if "accuracy" in r[0]],
            "iterations": [r[0]["iterations"]["untraced"] for r in runs],
            "untraced_iterations": [r[0]["untraced_iterations"] for r in runs],
            "end_to_end": {},
        }
        report.setdefault("environment", runs[0][0]["environment"])
        for metric, bound in bounds.items():
            values = [r[1]["metrics"][metric]["value"] for r in runs]
            st = spread(values)
            st.update(unit=runs[0][1]["metrics"][metric]["unit"], bound=bound, values=values)
            wl["end_to_end"][metric] = st
            flag = "  <-- over a third of the bound" if st["spread"] > bound / 3 and metric != "setup_s" else ""
            if metric != "setup_s":
                worst = max(worst, st["spread"] / bound)
            print(f"{name:15s} {metric:13s} median {st['median']:.6g} spread {st['spread']:.4f} "
                  f"(bound {bound}){flag}", flush=True)
        print(f"{name:15s} iterations {wl['iterations']} correct {all(wl['correct'])}", flush=True)
        details, result, code = run_once(name, seeds[0], seconds, 1)
        wl["traced"] = {
            "correct": result["correct"] and code == 0,
            "metrics": result["metrics"],
            "layer_seconds": details["layer_seconds"],
            "self_time_sum_s": details["self_time_sum_s"],
            "contraction_max_working_set_bytes": details["contraction_max_working_set_bytes"],
        }
        report["roofline_note"] = details["roofline_note"]
        report["workloads"][name] = wl
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(args.out + ".md", "w", encoding="utf-8") as fh:
        fh.write(markdown(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
