"""Block-partitioned pixel attention, step by step.

Shows the block grid as slices of the map and the upper-map span each block
reads, the row-stochastic similarity matrix inside one block, and the key
property that makes the layout cheap: nothing flows across block boundaries.

Run from the repository root:  python demos/04_block_attention.py
"""

import numpy as np

from hsfpn import (
    ConvLayer,
    ConvSpec,
    SdpParams,
    block_attention,
    sdp_forward,
)

rng = np.random.default_rng(1)

print("An 8x8 map with 4x4 blocks is a 2x2 grid of slices x[..., r0:r0+4, c0:c0+4].")
print("Each block reads the half-size upper map under its span; a block of odd")
print("extent (here 5x3 on a 10x6 map) sees some upper pixels once, others twice:")
for bh, bw, h, w in ((4, 4, 8, 8), (5, 3, 10, 6)):
    print(f"  {bh}x{bw} blocks on {h}x{w}:")
    for r0 in range(0, h, bh):
        for c0 in range(0, w, bw):
            up_rows = f"{r0 // 2}:{(r0 + bh + 1) // 2}"
            up_cols = f"{c0 // 2}:{(c0 + bw + 1) // 2}"
            print(f"    x[..., {r0}:{r0 + bh}, {c0}:{c0 + bw}]  reads  up[..., {up_rows}, {up_cols}]")

print("\nInside one block, every pixel attends to every pixel of its partner block:")
q = rng.standard_normal((16, 8)).astype(np.float32)
k = rng.standard_normal((16, 8)).astype(np.float32)
v = rng.standard_normal((16, 8)).astype(np.float32)
a = block_attention(q, k, np.eye(16, dtype=np.float32))  # identity values give the weights
print(f"  similarity matrix {a.shape}, every row sums to "
      f"{a.sum(axis=1).min():.6f}..{a.sum(axis=1).max():.6f}")
out = block_attention(q, k, v)
inside = (out >= v.min(axis=0)).all() and (out <= v.max(axis=0)).all()
print(f"  outputs are convex mixes of the value rows (inside envelope: {inside})")

print("\nCross-attention fusion between pyramid neighbours:")


def proj(channels):
    spec = ConvSpec(channels, channels, kernel=1, has_bias=False)
    return ConvLayer(spec, rng.uniform(-0.5, 0.5, spec.weight_shape).astype(np.float32))


params = SdpParams(q_conv=proj(3), k_conv=proj(3), v_conv=proj(3), block_h=4, block_w=4)
c_low = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
p_up = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
fused = sdp_forward(c_low, p_up, params)
print(f"  sdp_forward: lower {c_low.shape} + upper {p_up.shape} -> {fused.shape}")

print("\nLocality: perturbing one upper block touches exactly one output block.")
perturbed = p_up.copy()
perturbed[:, :, 0:2, 0:2] += 1.0  # upsamples into block (0, 0)
fused2 = sdp_forward(c_low, perturbed, params)
delta = np.abs(fused2 - fused).max(axis=(0, 1))
print("  max |change| per 4x4 output block:")
for bi in range(2):
    print("   ", "  ".join(f"{delta[bi * 4:(bi + 1) * 4, bj * 4:(bj + 1) * 4].max():.4f}"
                           for bj in range(2)))
