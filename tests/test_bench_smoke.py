"""The benchmark runs end to end on every workload and its checks pass.

A change that breaks something `bench/checks.py` imports or calls would
otherwise show only when the benchmark runs. Each case runs a one-second
session of `bench/run.py`; the test only reads `bench/`, and the session
writes its generated data under the git-ignored `bench/out/`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_second_session_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr[-2000:]
    assert result["failed"] == 0
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] is not None, metric["name"]
