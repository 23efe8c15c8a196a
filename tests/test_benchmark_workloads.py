"""Each perfbench workload, run briefly, passes every one of its own checks.

``perfbench/run.py`` checks each iteration's outputs: adaptive-100's error
ceiling, sweep-20's table, short-100-long's final grid, mass and manifest.
The workload runs in a scratch directory whose ``src`` links to this
checkout's, so its ``.perfbench/`` work tree is never written here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_its_checks(tmp_path, workload):
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "29", "--seconds", "0.1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    verdict = json.loads(proc.stdout.splitlines()[-1])
    assert verdict["correct"] is True
    assert verdict["failed"] == 0
