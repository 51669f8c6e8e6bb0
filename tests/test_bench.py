"""Smoke run of the benchmark harness, so it cannot rot between benchmark changes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_hsfpn_mid_run_is_correct():
    # a traced run checks every op, the MAC cross-check and the bypass predictions
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hsfpn-mid", "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
