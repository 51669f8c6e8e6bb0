"""The benchmark's workloads: generated inputs, one op each, and output checks.

Every workload makes its inputs from the seed alone, runs one op through the
package's public functions, and checks the op's output: shapes, finiteness,
bitwise equality with the run's warm-up op, and (for the default seed) stored
reference values. Functions are looked up on their modules at call time so
the traced run sees them.
"""

import math
from pathlib import Path

import numpy as np

from hsfpn import cli, cost, frequency, io, pyramid

DEFAULT_SEED = 0
# Relative tolerance for the stored reference values. Outputs are float32
# with float64 accumulation; a faster engine may round differently in the
# last bits, which moves a per-level summary by far less than this.
REL_TOL = 1e-4
ABS_TOL = 1e-6


class PyramidWorkload:
    """One ``hsfpn_forward`` pass at 64 channels, level 2 at 128x128."""

    channels = 64
    base_hw = (128, 128)

    def __init__(self, mode):
        self.mode = mode

    def config(self, seed):
        return pyramid.PyramidConfig(channels=self.channels, alpha=0.25, k=16, groups=16,
                                     fusion_mode="sdp_only", mode=self.mode, seed=seed,
                                     filter_levels=(2, 3))

    def setup(self, seed, workdir):
        weights = pyramid.init_weights(self.config(seed))
        inputs = pyramid.random_pyramid(self.channels, base_hw=self.base_hw, seed=seed + 1)
        return {"weights": weights, "inputs": inputs}

    def op(self, state):
        return dict(pyramid.hsfpn_forward(state["inputs"], state["weights"]).items())

    def check(self, state, out, baseline):
        problems = []
        inputs = dict(state["inputs"].items())
        if sorted(out) != sorted(inputs):
            return [f"levels {sorted(out)} != {sorted(inputs)}"]
        for level, arr in out.items():
            if arr.shape != inputs[level].shape or arr.dtype != np.float32:
                problems.append(f"level {level}: {arr.dtype}{arr.shape}, want float32{inputs[level].shape}")
            elif not np.isfinite(arr).all():
                problems.append(f"level {level}: non-finite values")
            elif baseline is not None and arr.tobytes() != baseline[level].tobytes():
                problems.append(f"level {level}: differs from the warm-up op")
        return problems

    def summary(self, out):
        return {str(level): _level_summary(arr) for level, arr in sorted(out.items())}

    def compare(self, summary, reference):
        problems = []
        for level, stats in reference.items():
            got = summary.get(level, {})
            for key, want in stats.items():
                if key not in got or not math.isclose(got[key], want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                    problems.append(f"level {level} {key}: {got.get(key)} vs reference {want}")
        return problems

    def tamper(self, out):
        out = dict(out)
        level = min(out)
        out[level] = out[level] * np.float32(1.001)
        return out

    def expected_macs(self, state):
        """Conv and attention MACs per op: added modules (hsfpn mode) plus the four output convs."""
        weights, inputs = state["weights"], state["inputs"]
        total = sum(weights.out_convs[lv].spec.macs(*inputs.extents(lv)) for lv in pyramid.LEVELS)
        if self.mode == "hsfpn":
            total += cost.count_params(weights.config, base_hw=inputs.extents(2)).total.macs
        return total * inputs.batch


def _level_summary(arr):
    a = arr.astype(np.float64)
    return {"l2": float(np.sqrt((a * a).sum())), "mean_abs": float(np.abs(a).mean()),
            "max_abs": float(np.abs(a).max())}


class ScrSweepWorkload:
    """``hsfpn scr-sweep`` in process: 512x512 blob scene, square cuts 0..256 step 8."""

    extent = 512
    cut_max = 256
    cut_step = 8

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        scene = frequency.blob_scene(
            self.extent, self.extent,
            background=rng.uniform(0.15, 0.25), amplitude=rng.uniform(0.5, 0.7),
            blob_sigma=rng.uniform(2.0, 3.0), ramp_amplitude=rng.uniform(0.15, 0.25))
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        pgm, csv = workdir / "scene.pgm", workdir / "sweep.csv"
        io.write_pgm(pgm, scene)
        centre = f"{self.extent // 2},{self.extent // 2}"
        argv = ["scr-sweep", str(pgm), "-o", str(csv), "--target-center", centre,
                "--cut-max", str(self.cut_max), "--cut-step", str(self.cut_step)]
        return {"argv": argv, "csv": csv}

    def op(self, state):
        code = cli.main(state["argv"])
        if code != 0:
            raise RuntimeError(f"scr-sweep exited with code {code}")
        return state["csv"].read_text()

    def check(self, state, out, baseline):
        try:
            rows = _parse_csv(out)
        except ValueError as err:
            return [f"unreadable CSV: {err}"]
        problems = []
        cuts = [(r, c) for r, c, _ in rows]
        want = [(c, c) for c in range(0, self.cut_max + 1, self.cut_step)]
        if cuts != want:
            problems.append(f"cuts {cuts[:3]}... do not match {want[:3]}...")
        values = [v for _, _, v in rows]
        if not all(math.isfinite(v) for v in values):
            problems.append("non-finite SCR")
        elif values:
            peak = int(np.argmax(values))
            if not (0 < peak < len(values) - 1 and values[0] < values[peak] > values[-1]):
                problems.append(f"SCR does not rise and then fall (peak at row {peak})")
        if baseline is not None and out != baseline:
            problems.append("CSV differs from the warm-up op")
        return problems

    def summary(self, out):
        return {"rows": [list(row) for row in _parse_csv(out)]}

    def compare(self, summary, reference):
        got, want = summary["rows"], reference["rows"]
        if len(got) != len(want):
            return [f"{len(got)} rows vs reference {len(want)}"]
        problems = []
        for g, w in zip(got, want):
            if g[:2] != w[:2] or not math.isclose(g[2], w[2], rel_tol=REL_TOL, abs_tol=ABS_TOL):
                problems.append(f"row {g} vs reference {w}")
        return problems

    def tamper(self, out):
        header, first, *rest = out.splitlines()
        r, c, value = first.split(",")
        return "\n".join([header, f"{r},{c},{float(value) * 1.001:.9g}", *rest]) + "\n"

    def expected_macs(self, state):
        return 0


def _parse_csv(text):
    lines = text.strip().splitlines()
    if not lines or lines[0] != "cut_rows,cut_cols,scr":
        raise ValueError("missing header")
    rows = []
    for line in lines[1:]:
        r, c, v = line.split(",")
        rows.append((int(r), int(c), float(v)))
    return rows


WORKLOADS = {
    "hsfpn-mid": PyramidWorkload("hsfpn"),
    "fpn-mid": PyramidWorkload("fpn_baseline"),
    "scr-sweep": ScrSweepWorkload(),
}

# Layers (span names) each workload is predicted to leave idle. The traced run
# fails when one of them is called; the rest of the prediction table is
# recorded but not enforced.
MUST_BYPASS = {
    "hsfpn-mid": (),
    "fpn-mid": ("sdp.", "hfp.", "frequency."),
    "scr-sweep": ("tensor.conv2d",),
}
PREDICTED_IDLE = {
    "hsfpn-mid": ("frequency.lowcut_mask", "frequency.scr", "io.", "cli."),
    "fpn-mid": ("tensor.conv2d.k1", "tensor.adaptive_pool", "tensor.softmax_rows",
                "tensor.matmul", "frequency.", "hfp.", "sdp.", "io.", "cli."),
    "scr-sweep": ("tensor.", "frequency.highfreq_response", "hfp.", "sdp.",
                  "pyramid.hsfpn_forward"),
}
