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
from .tensor import ConvLayer, ConvSpec, adaptive_pool, as_tensor, check_field_types, check_layers, relu, sigmoid


def hfp_specs(channels: int, groups: int = 1, bias: bool = True) -> dict:
    """The ConvSpec of each HfpParams layer role, in draw order."""
    c = channels
    return {
        "gap_conv": ConvSpec(c, c, kernel=1, groups=groups, has_bias=bias),
        "gmp_conv": ConvSpec(c, c, kernel=1, groups=groups, has_bias=bias),
        "merge_conv": ConvSpec(2 * c, c, kernel=1, groups=groups, has_bias=bias),
        "spatial_conv": ConvSpec(c, 1, kernel=1, has_bias=bias),
        "fuse_conv": ConvSpec(c, c, kernel=3, has_bias=bias),
    }


@dataclass(frozen=True)
class HfpParams:
    """Weights for one pyramid level.

    gap_conv / gmp_conv are grouped 1x1 convolutions (C -> C) applied to the
    pooled-and-summed average/max branches; merge_conv maps their GAP-first
    concatenation (2C -> C). spatial_conv collapses C channels to one plane,
    fuse_conv is the 3x3 output convolution (C -> C). `alpha` is the low-cut
    fraction of the filter (0 leaves the input unfiltered). `squash`
    optionally passes both attention signals through a sigmoid before they
    are used. :meth:`hsfpn.pyramid.HsfpnWeights.hfp_params` builds it from
    the weight table and the config.
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
        check_field_types(self)
        if self.k < 1:
            raise ValidationError(f"pooling extent k must be >= 1, got {self.k}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha must lie in [0, 1], got {self.alpha}")
        check_layers(self, hfp_specs(self.gap_conv.spec.in_channels))


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
    scores = []
    for mode, conv in (("avg", params.gap_conv), ("max", params.gmp_conv)):
        pooled = relu(adaptive_pool(f, k, k, mode))
        scores.append(conv(pooled.astype(np.float64).sum(axis=(2, 3), keepdims=True).astype(f.dtype)))
    u_cp = params.merge_conv(np.concatenate(scores, axis=1))
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
    Dims are preserved. The filtered map is dropped once both paths have read
    it, and the second product is added into the first, so fuse_conv runs
    with only its input map alive beside `c`.
    """
    c = as_tensor(c, rank=4)
    f = highfreq_response(c, params.alpha)
    u_cp = channel_path(f, params)
    u_sp = spatial_path(f, params)
    del f
    t = u_cp * c
    t += u_sp * c
    return params.fuse_conv(t)
