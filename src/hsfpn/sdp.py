"""Spatial dependency perception: block-partitioned pixel-level cross-attention.

Queries come from the lower feature, keys and values from the upsampled upper
feature. Blocks are the size of the pyramid's top level, and each block is
read as a slice of the projected maps and written back as a slice of the
output; attention runs independently inside each block (n similarity matrices
of size hw x hw, not one n x n matrix across blocks), so no information
crosses block boundaries.

Nearest upsampling only repeats upper pixels, so each block attends over the
unique upper pixels it covers, each weighted by how often it repeats: a
softmax over repeated keys equals sum_j m_j e^{s_ij} v_j / sum_j m_j e^{s_ij}
over the unique keys j with multiplicities m_j. A 1x1 projection commutes with
the upsampling, so keys and values are projected at the upper extents.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import ShapeError, ValidationError
from .tensor import (DTYPE, ConvLayer, ConvSpec, as_real, as_tensor, check_field_types, check_integers, check_layers,
                     check_type)


def sdp_specs(channels: int) -> dict:
    """The ConvSpec of each SdpParams layer role, in draw order: bias-free 1x1 projections."""
    spec = ConvSpec(channels, channels, kernel=1, has_bias=False)
    return {"q_conv": spec, "k_conv": spec, "v_conv": spec}


@dataclass(frozen=True)
class SdpParams:
    """Projection weights and block extents for one pyramid level.

    q_conv / k_conv / v_conv are 1x1 convolutions preserving the channel
    count (bias-free in the weight table). Block extents equal the top pyramid level's
    spatial extents; :meth:`hsfpn.pyramid.HsfpnWeights.sdp_params` takes them
    from the input at forward time.
    """

    q_conv: ConvLayer
    k_conv: ConvLayer
    v_conv: ConvLayer
    block_h: int
    block_w: int

    def __post_init__(self):
        check_field_types(self)
        check_layers(self, sdp_specs(self.q_conv.spec.in_channels))
        check_integers("block extents", self.block_h, self.block_w, least=1)


def block_attention(q, k, v, counts=None) -> np.ndarray:
    """Attention output for one block: (hw, C) queries over (u, C) keys and (u, D) values.

    The (hw, D) result is softmax(q @ k.T / sqrt(C)) @ v. Key j stands for
    counts[j] (default 1) identical copies of itself: its exponential enters
    both the value product and the row sums counts[j] times. Normalisation is
    deferred: exp(s - rowmax(s)) multiplies v and the (hw, D) product is
    divided by the row sums, so the (hw, u) matrix is never divided.
    Everything runs in float64 and rounds to float32 once, in chunks of
    max(1, hw*C // u) query rows, so the float64 logits never hold more
    values than the queries; softmax rows are independent, so no chunk is
    rescaled. Blocks go through :func:`hsfpn.tensor.as_tensor` and counts
    through :func:`hsfpn.tensor.as_real`, so complex values, or values numpy
    cannot convert, raise ValidationError.
    """
    try:
        q, k, v = (as_tensor(block, rank=2) for block in (q, k, v))
    except ShapeError as err:  # e.g. a block without keys
        raise ShapeError(f"query, key and value blocks: {err}") from None
    if k.shape != (len(v), q.shape[1]):
        raise ShapeError(f"expected (hw, C), (u, C) and (u, D) blocks, got {q.shape}, {k.shape} and {v.shape}")
    counts = np.ones(len(k)) if counts is None else as_real(counts, np.float64)
    if counts.shape != v.shape[:1]:
        raise ShapeError(f"counts {counts.shape} do not match {v.shape[0]} keys")
    if not (counts > 0).all():
        raise ValidationError("key counts must be positive")
    keys, values = k.astype(np.float64).T, v * counts[:, None]
    out = np.empty((len(q), v.shape[1]))
    step = max(1, q.size // len(k))
    for r0 in range(0, len(q), step):
        z = q[r0:r0 + step].astype(np.float64) @ keys
        z *= 1.0 / sqrt(q.shape[1])
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        rows = np.matmul(z, values, out=out[r0:r0 + step])
        rows /= z @ counts[:, None]
    return out.astype(DTYPE)


def _upper_span(start: int, extent: int):
    """Upper-map rows (or columns) under lower rows [start, start + extent), and their repeats.

    Each upper row covers two lower rows, so it repeats twice, except a first
    row that starts at an odd offset and a last row that ends at an odd stop.
    """
    stop = start + extent
    repeats = np.full((stop + 1) // 2 - start // 2, 2.0)
    repeats[0] -= start % 2
    repeats[-1] -= stop % 2
    return slice(start // 2, (stop + 1) // 2), repeats


def sdp_forward(c_low, p_up, params: SdpParams) -> np.ndarray:
    """Cross-attention fusion of a feature with its upsampled upper neighbour.

    `p_up` must have half the spatial extents of `c_low` and the same batch and
    channel count, and the block extents must divide those of `c_low`. Q is projected
    from c_low, K and V from p_up itself. Block (r0, c0) is the slice
    [r0:r0+block_h, c0:c0+block_w] of the projected queries; it attends over
    the p_up pixels under its upsampled span, each counted as often as the
    upsampling repeats it, and its result plus the same slice of c_low is
    written over the block's queries, which no other block reads. So the
    projected query map becomes the output, and c_low is neither copied nor
    changed.
    """
    check_type("params", params, SdpParams)
    c_low = as_tensor(c_low, rank=4)
    p_up = as_tensor(p_up, rank=4)
    n_, c, h, w = c_low.shape
    if (n_, c, h, w) != (*p_up.shape[:2], 2 * p_up.shape[2], 2 * p_up.shape[3]):
        raise ShapeError(f"upper map {p_up.shape} needs the batch and channels of {c_low.shape} at half its extents")
    bh, bw = params.block_h, params.block_w
    if h % bh or w % bw:
        raise ShapeError(f"block extents ({bh}, {bw}) do not divide spatial extents ({h}, {w})")

    out = params.q_conv(c_low)
    q = out.transpose(0, 2, 3, 1)  # (N, H, W, C)
    k = params.k_conv(p_up).transpose(0, 2, 3, 1)  # (N, H/2, W/2, C)
    v = params.v_conv(p_up).transpose(0, 2, 3, 1)
    for r0 in range(0, h, bh):
        rows, row_repeats = _upper_span(r0, bh)
        for c0 in range(0, w, bw):
            cols, col_repeats = _upper_span(c0, bw)
            counts = np.outer(row_repeats, col_repeats).ravel()
            for s in range(n_):
                att = block_attention(q[s, r0:r0 + bh, c0:c0 + bw].reshape(-1, c),
                                      k[s, rows, cols].reshape(-1, c),
                                      v[s, rows, cols].reshape(-1, c), counts)
                block = (s, slice(None), slice(r0, r0 + bh), slice(c0, c0 + bw))
                np.add(c_low[block], att.T.reshape(c, bh, bw), out=out[block])
    return out
