"""Saliency of a tiny blob versus the size of the removed low-frequency region.

A tiny Gaussian blob sits on a flat background polluted by a smooth diagonal
ramp. Removing a small low-frequency region strips the ramp and makes the blob
stand out (SCR rises); removing too much starts to erase the blob itself (SCR
falls back).

Run from the repository root:  python demos/02_scr_sweep.py
Writes scene/filtered PGMs and the sweep CSV into demo_out/.
"""

from pathlib import Path

import numpy as np

from hsfpn import ScrWindows, blob_scene, lowcut_filter, scr, scr_filter_sweep, write_pgm

out_dir = Path("demo_out")
out_dir.mkdir(exist_ok=True)

scene = blob_scene()
windows = ScrWindows(target_center=(50, 50))
write_pgm(out_dir / "scene.pgm", scene)
print(f"scene: 100x100, blob at (50, 50), unfiltered SCR = {scr(scene, windows):.3f}")

cuts = [(c, c) for c in (0, 1, 2, 3, 4, 6, 8, 12, 20, 40, 60)]
rows = scr_filter_sweep(scene, windows, cuts)

print("\n cut   SCR")
for cut_rows, _, value in rows:
    bar = "#" * int(round(value * 12))
    print(f"  {cut_rows:3d}  {value:7.3f}  {bar}")

values = [v for _, _, v in rows]
best = rows[int(np.argmax(values))]
print(f"\nbest cut {best[0]}x{best[1]} raises SCR from {values[0]:.3f} to {best[2]:.3f} "
      f"({best[2] / values[0]:.1f}x); the largest cut collapses it to {values[-1]:.4f}")

filtered = lowcut_filter(scene, best[0], best[1])
write_pgm(out_dir / "filtered_best.pgm", filtered + np.float32(0.5))  # recentre for viewing

csv = ["cut_rows,cut_cols,scr"] + [f"{r},{c},{v:.9g}" for r, c, v in rows]
(out_dir / "scr_sweep.csv").write_text("\n".join(csv) + "\n")
print(f"\nwrote {out_dir / 'scene.pgm'}, {out_dir / 'filtered_best.pgm'}, "
      f"{out_dir / 'scr_sweep.csv'}")
print("the same sweep is available as:  hsfpn scr-sweep demo_out/scene.pgm "
      "--target-center 50,50 --cut-max 60 --cut-step 2 -o sweep.csv")
