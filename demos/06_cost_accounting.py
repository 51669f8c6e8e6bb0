"""Attention-layout complexity and the added parameter budget at detector scale.

Run from the repository root:  python demos/06_cost_accounting.py
"""

from hsfpn import CostModel, PyramidConfig, attention_cost, count_params
from hsfpn.cost import cost_table_rows, render

# A level-2 map of an 800x800 input: 200x200 pixels, 25x25 blocks of 8x8.
model = CostModel(n=625, h=8, w=8, c=256)
print("attention layouts on a 200x200 map split into 8x8 blocks (C=256):\n")
print(render(cost_table_rows(model), "table"))

hw, n = model.h * model.w, model.n
print(f"\nin-block attention costs (hw/n) = {hw}/{n} = {hw / n:.3f}x the block-token layout,")
print(f"while all-pixel attention would cost hw = {hw}x "
      f"({attention_cost(model, 'global') / 1e12:.1f} TMAC: impractical).")

print("\nadded parameters over a plain FPN (C=256, level-2 extents 200x200):\n")
config = PyramidConfig(channels=256, conv_bias=False)
report = count_params(config, base_hw=(200, 200))
print(render(report.rows(), "table"))

fuse = report.module_total("hfp_fuse").params
sdp = report.module_total("sdp").params
cp = report.module_total("cp").params
sp = report.module_total("sp").params
print(f"\nthe 3x3 fuse convolutions dominate: {fuse / 1e6:.2f} M of "
      f"{report.total.params / 1e6:.2f} M total")
print(f"channel/spatial scoring convolutions stay tiny: {cp} + {sp} params")
print(f"attention projections across three levels: {sdp / 1e6:.2f} M")
print("\nthe same tables are available as:  hsfpn cost --n 625 --h 8 --w 8 --c 256")
print("                                   hsfpn params --no-bias")
