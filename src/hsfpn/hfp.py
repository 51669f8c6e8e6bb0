"""High-frequency perception: channel and spatial reweighting of a feature map.

The module derives two attention signals from the low-cut filtered response of
its input: a per-channel weight vector (channel path) and a per-pixel mask
(spatial path). Both multiply the *original* input, the products are summed,
and a 3x3 convolution fuses the result.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .frequency import highfreq_response
from .tensor import ConvLayer, adaptive_pool, as_tensor, relu, sigmoid


@dataclass
class HfpParams:
    """Weights for one pyramid level.

    gap_conv / gmp_conv are grouped 1x1 convolutions (C -> C) applied to the
    pooled-and-summed average/max branches; merge_conv maps their GAP-first
    concatenation (2C -> C). spatial_conv collapses C channels to one plane,
    fuse_conv is the 3x3 output convolution (C -> C). `alpha` is the low-cut
    fraction of the filter (0 leaves the input unfiltered). `squash`
    optionally passes both attention signals through a sigmoid before they
    are used.
    """

    k: int
    gap_conv: ConvLayer
    gmp_conv: ConvLayer
    merge_conv: ConvLayer
    spatial_conv: ConvLayer
    fuse_conv: ConvLayer
    alpha: float
    squash: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"pooling extent k must be >= 1, got {self.k}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha must lie in [0, 1], got {self.alpha}")
        c = self.gap_conv.spec.in_channels
        checks = (
            (self.gap_conv.spec, c, c, 1, "gap_conv"),
            (self.gmp_conv.spec, c, c, 1, "gmp_conv"),
            (self.merge_conv.spec, 2 * c, c, 1, "merge_conv"),
            (self.spatial_conv.spec, c, 1, 1, "spatial_conv"),
            (self.fuse_conv.spec, c, c, 3, "fuse_conv"),
        )
        for spec, cin, cout, kernel, name in checks:
            if spec.in_channels != cin or spec.out_channels != cout:
                raise ValidationError(
                    f"{name} must map {cin} -> {cout} channels, "
                    f"got {spec.in_channels} -> {spec.out_channels}"
                )
            if spec.kernel != kernel:
                raise ValidationError(f"{name} must be a {kernel}x{kernel} convolution")


def channel_path(f, params: HfpParams) -> np.ndarray:
    """Per-channel weights u_cp with dims (N, C, 1, 1).

    Pipeline: adaptive avg/max pooling of `f` to (k, k), ReLU on each branch,
    spatial summation to two length-C vectors, separate grouped 1x1
    convolutions, GAP-first concatenation, and a final grouped 1x1 convolution
    back to C channels. k is `params.k` capped at the extents of `f`, so a map
    smaller than k (a small top level) pools to its own extents.
    """
    f = as_tensor(f, rank=4)
    k = min(params.k, *f.shape[2:])
    avg = relu(adaptive_pool(f, k, k, "avg"))
    mx = relu(adaptive_pool(f, k, k, "max"))
    avg_vec = avg.astype(np.float64).sum(axis=(2, 3), keepdims=True).astype(f.dtype)
    max_vec = mx.astype(np.float64).sum(axis=(2, 3), keepdims=True).astype(f.dtype)
    scores = np.concatenate([params.gap_conv(avg_vec), params.gmp_conv(max_vec)], axis=1)
    u_cp = params.merge_conv(scores)
    return sigmoid(u_cp) if params.squash else u_cp


def spatial_path(f, params: HfpParams) -> np.ndarray:
    """Per-pixel mask u_sp with dims (N, 1, H, W): a 1x1 convolution of `f` to one channel."""
    u_sp = params.spatial_conv(f)
    return sigmoid(u_sp) if params.squash else u_sp


def hfp_forward(c, params: HfpParams) -> np.ndarray:
    """Full module: filter, reweight along channels and pixels, fuse.

    The filtered response feeds both paths; their outputs broadcast against
    the raw input `c` (u_cp over space, u_sp over channels), the two Hadamard
    products are summed pixel by pixel, and fuse_conv produces the output.
    Dims are preserved.
    """
    c = as_tensor(c, rank=4)
    f = highfreq_response(c, params.alpha)
    u_cp = channel_path(f, params)
    u_sp = spatial_path(f, params)
    return params.fuse_conv(u_cp * c + u_sp * c)
