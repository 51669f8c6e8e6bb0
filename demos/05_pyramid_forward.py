"""Full four-level pyramid pass, against the plain-FPN baseline.

Run from the repository root:  python demos/05_pyramid_forward.py
Writes an input pyramid and both output pyramids into demo_out/.
"""

import dataclasses
from pathlib import Path

import numpy as np

from hsfpn import (
    PyramidConfig,
    hsfpn_forward,
    init_weights,
    random_pyramid,
    read_pyramid_dir,
    write_pyramid_dir,
)

out_dir = Path("demo_out")
out_dir.mkdir(exist_ok=True)

config = PyramidConfig(channels=16, alpha=0.25, k=4, groups=8, seed=11)
pyramid = random_pyramid(config.channels, base_hw=(64, 64), seed=5)
print("input pyramid:")
for lv in (2, 3, 4, 5):
    print(f"  level {lv}: {pyramid[lv].shape}")

write_pyramid_dir(out_dir / "pyr_in", pyramid, prefix="c")
reloaded = read_pyramid_dir(out_dir / "pyr_in", prefix="c")
print(f"tensor-file round trip bitwise exact: "
      f"{all(reloaded[lv].tobytes() == pyramid[lv].tobytes() for lv in (2, 3, 4, 5))}\n")

weights = init_weights(config)
enriched = hsfpn_forward(pyramid, weights)

baseline_weights = init_weights(dataclasses.replace(config, mode="fpn_baseline"))
baseline = hsfpn_forward(pyramid, baseline_weights)

print("per-level output L2 norms (same seed, same output convolutions):")
print("  level   enriched   baseline")
for lv in (2, 3, 4, 5):
    ne = float(np.linalg.norm(enriched[lv].astype(np.float64)))
    nb = float(np.linalg.norm(baseline[lv].astype(np.float64)))
    print(f"    {lv}   {ne:9.2f}  {nb:9.2f}")

again = hsfpn_forward(pyramid, weights)
print(f"\nrepeat run bitwise identical: "
      f"{all(again[lv].tobytes() == enriched[lv].tobytes() for lv in (2, 3, 4, 5))}")

write_pyramid_dir(out_dir / "pyr_out", enriched, prefix="p")
print(f"\nwrote {out_dir / 'pyr_in'} and {out_dir / 'pyr_out'}")
print("the same run is available as:  hsfpn forward demo_out/pyr_in -o demo_out/pyr_cli "
      "--k 4 --seed 11")
