"""Outputs do not depend on the BLAS thread count, nor the pyramid outputs on the BLAS kernels.

Each run is a fresh interpreter, because OpenBLAS reads its thread count once,
at import. Both runs print sha256 digests of the same outputs: a small
pyramid forward in each mode, two short SCR sweeps, one with ascending cuts
and one with shrinking and repeated ones, and every file `hsfpn forward`
writes, `report.json` included. Level 2 there holds 131,072 values, enough
for a BLAS-threaded reduction in the report to show. Under an OpenBLAS built
with DYNAMIC_ARCH, `OPENBLAS_CORETYPE` picks the kernels at import, so a run
with the oldest x86-64 kernels (Prescott) is compared with the native one.
Each run also prints whether `conv2d` adds its 3x3 taps through numpy's own
`cblas_dgemm`, and the two pyramid digests again with that binding forced
off, which must equal the first two.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_tensor import numpy_blas

SRC = Path(__file__).resolve().parents[1] / "src"

DIGESTS = """
import hashlib, json, tempfile
from pathlib import Path
import numpy as np
from hsfpn import (PyramidConfig, ScrWindows, blob_scene, hsfpn_forward, init_weights,
                   random_pyramid, scr_filter_sweep, tensor, write_pyramid_dir)
from hsfpn.cli import main

out = {"binding": tensor._blas_dgemm() is not None}
pyr = random_pyramid(32, base_hw=(64, 64), seed=3)


def pyramid_digests(suffix=""):
    for mode in ("hsfpn", "fpn_baseline"):
        config = PyramidConfig(channels=32, alpha=0.25, k=8, groups=8, mode=mode, seed=2,
                               filter_levels=(2, 3, 4, 5))
        levels = hsfpn_forward(pyr, init_weights(config))
        out[mode + suffix] = hashlib.sha256(b"".join(levels[lv].tobytes() for lv in (2, 3, 4, 5))).hexdigest()


pyramid_digests()
scene, windows = blob_scene(256, 256), ScrWindows(target_center=(128, 128))
rows = scr_filter_sweep(scene, windows, [(c, c) for c in range(0, 129, 16)])
out["sweep"] = hashlib.sha256(np.float64([s for _, _, s in rows]).tobytes()).hexdigest()
# shrinking and repeated cuts: each shrink starts the window again from zero
rows = scr_filter_sweep(scene, windows, [(96, 96), (40, 64), (40, 64), (8, 8), (0, 0), (64, 24), (128, 128)])
out["sweep_reset"] = hashlib.sha256(np.float64([s for _, _, s in rows]).tobytes()).hexdigest()
with tempfile.TemporaryDirectory() as tmp:
    write_pyramid_dir(Path(tmp, "in"), pyr, prefix="c")
    assert main(["forward", str(Path(tmp, "in")), "-o", str(Path(tmp, "out")), "--k", "8", "--seed", "2"]) == 0
    out["cli_forward"] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                          for path in sorted(Path(tmp, "out").iterdir())}
tensor._blas_dgemm = lambda: None  # conv2d's path where numpy exports no cblas_dgemm
pyramid_digests("_fallback")
print(json.dumps(out))
"""


def digests(threads, **blas_env):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads), **blas_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", DIGESTS], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def assert_fallback_equal(run):
    """conv2d's path without numpy's `cblas_dgemm` gave the pyramid digests of the path with it."""
    assert (run["hsfpn_fallback"], run["fpn_baseline_fallback"]) == (run["hsfpn"], run["fpn_baseline"])


def test_outputs_bitwise_equal_at_one_and_two_blas_threads():
    one = digests(1)
    assert set(one) == {"binding", "hsfpn", "fpn_baseline", "sweep", "sweep_reset", "cli_forward",
                        "hsfpn_fallback", "fpn_baseline_fallback"}
    assert sorted(one["cli_forward"]) == ["p2.pft", "p3.pft", "p4.pft", "p5.pft", "report.json"]
    assert_fallback_equal(one)
    assert digests(2) == one


@pytest.mark.skipif("DYNAMIC_ARCH" not in numpy_blas().get("openblas configuration", ""),
                    reason="numpy reports no DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE selects no kernels")
def test_pyramid_outputs_bitwise_equal_across_blas_core_types():
    # The SCR sweeps are left out. Measured against native SkylakeX kernels:
    # Haswell matched every key; under Prescott, Sandybridge and Nehalem
    # `sweep` and `sweep_reset` differed in 7 of 16 raw float64 SCRs, by at
    # most 2e-9 relative, and in one `%.9g` value of the CSV (cut 112).
    native, prescott = digests(1), digests(1, OPENBLAS_CORETYPE="Prescott")
    for key in ("sweep", "sweep_reset"):
        del native[key], prescott[key]
    assert prescott == native
    assert_fallback_equal(prescott)
