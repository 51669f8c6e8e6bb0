"""Smoke runs of the benchmark harness, so it cannot rot between benchmark changes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MISSING_TARGETS = sorted(["frequency.dct2", "frequency.idct2", "frequency.lowcut_mask", "sdp.partition_blocks",
                          "sdp.reassemble_blocks", "tensor.matmul", "tensor.softmax_rows"])

# traced calls per op of the wrapped functions each workload runs
TRACED_CALLS = {
    "hsfpn-mid": {"sdp.block_attention": 84, "sdp.sdp_forward": 3, "hfp.hfp_forward": 4,
                  "hfp.channel_path": 4, "hfp.spatial_path": 4, "frequency.highfreq_response": 4,
                  "tensor.adaptive_pool": 8, "tensor.conv2d.k3": 8, "tensor.conv2d.k1": 13,
                  "tensor.conv2d.k1vec": 12},
    "fpn-mid": {"tensor.conv2d.k3": 4, "tensor.upsample2x": 3},
    "scr-sweep": {"frequency.scr": 33, "io.read_pgm": 1},
}


@pytest.mark.parametrize("workload", ["hsfpn-mid", "fpn-mid", "scr-sweep"])
def test_traced_run_is_correct(workload):
    # a traced run checks every op, the stored reference values, the MAC
    # cross-check and the workload's predicted bypasses
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    # an unavailable cross-check still counts as correct, so pin it separately
    record = json.loads((ROOT / "bench" / "out" / f"{workload}-seed0-trace1.json").read_text())
    assert record["mac_cross_check"]["status"] == "ok", record["mac_cross_check"]
    assert record["count_failures"] == {}
    # targets whose functions no longer exist: renaming another one adds it
    # here, and a call that bypasses a wrapped function reads 0 calls below
    assert sorted(record["missing_targets"]) == MISSING_TARGETS
    for op, calls in TRACED_CALLS[workload].items():
        assert record["metrics"][f"{op}.calls"] == calls, op


@pytest.mark.parametrize("workload, bound_mb", [("fpn-mid", 16), ("hsfpn-mid", 16), ("scr-sweep", 2.6)])
def test_untraced_peak_memory_bounded(workload, bound_mb):
    # the end-to-end tracemalloc peak is set by the level-2 3x3 convs' workspace
    # in the pyramid workloads, and by the image plus the sweep's float64 DCT
    # corner and one band's workspace in scr-sweep
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    peak_mb = result["metrics"]["peak_mb"]["value"]
    assert peak_mb <= bound_mb, f"peak_mb {peak_mb:.2f} exceeds {bound_mb}"
