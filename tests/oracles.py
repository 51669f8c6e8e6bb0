"""Naive reference implementations used as independent oracles.

Everything here is written straight from the defining formulas with explicit
loops (vectorised only over whole spatial shifts, never over the reduction
structure the library exploits), so these stay independent of the code paths
they check.
"""

import math

import numpy as np


def naive_conv2d(x, weight, bias=None, groups=1):
    """Shift-and-accumulate convolution: loops over groups, channels, and taps."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    n, cin, h, w = x.shape
    cout, cin_g, kh, kw = weight.shape
    pad = (kh - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cout_g = cout // groups
    out = np.zeros((n, cout, h, w), dtype=np.float64)
    for g in range(groups):
        for oo in range(cout_g):
            o = g * cout_g + oo
            for ii in range(cin_g):
                i = g * cin_g + ii
                for di in range(kh):
                    for dj in range(kw):
                        out[:, o] += xp[:, i, di:di + h, dj:dj + w] * weight[o, ii, di, dj]
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)[:, None, None]
    return out


def naive_adaptive_pool(x, out_h, out_w, mode):
    """Explicit window enumeration with the floor/ceil adaptive rule."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    out = np.zeros((n, c, out_h, out_w), dtype=np.float64)
    for i in range(out_h):
        r0, r1 = math.floor(i * h / out_h), math.ceil((i + 1) * h / out_h)
        for j in range(out_w):
            c0, c1 = math.floor(j * w / out_w), math.ceil((j + 1) * w / out_w)
            win = x[:, :, r0:r1, c0:c1]
            out[:, :, i, j] = win.mean(axis=(2, 3)) if mode == "avg" else win.max(axis=(2, 3))
    return out


def naive_softmax_rows(m):
    """Explicit per-row exponentials and sums."""
    m = np.asarray(m, dtype=np.float64)
    out = np.zeros_like(m)
    for i in range(m.shape[0]):
        row = m[i] - m[i].max()
        e = np.array([math.exp(v) for v in row])
        out[i] = e / e.sum()
    return out


def naive_dct2_plane(plane):
    """Direct O(N^4) orthonormal type-II DCT double sum."""
    plane = np.asarray(plane, dtype=np.float64)
    h, w = plane.shape

    def scale(k, n):
        return math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)

    out = np.zeros((h, w), dtype=np.float64)
    for u in range(h):
        for v in range(w):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += (
                        plane[i, j]
                        * math.cos(math.pi * (2 * i + 1) * u / (2 * h))
                        * math.cos(math.pi * (2 * j + 1) * v / (2 * w))
                    )
            out[u, v] = scale(u, h) * scale(v, w) * acc
    return out


def naive_idct2_plane(coeffs):
    """Direct O(N^4) orthonormal type-III (inverse) double sum."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    h, w = coeffs.shape

    def scale(k, n):
        return math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)

    out = np.zeros((h, w), dtype=np.float64)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for u in range(h):
                for v in range(w):
                    acc += (
                        scale(u, h)
                        * scale(v, w)
                        * coeffs[u, v]
                        * math.cos(math.pi * (2 * i + 1) * u / (2 * h))
                        * math.cos(math.pi * (2 * j + 1) * v / (2 * w))
                    )
            out[i, j] = acc
    return out


def naive_dct_basis(n):
    """Orthonormal type-II DCT basis of order n, entry by entry: row u is frequency u."""
    basis = np.zeros((n, n), dtype=np.float64)
    for u in range(n):
        scale = math.sqrt(1.0 / n) if u == 0 else math.sqrt(2.0 / n)
        for i in range(n):
            basis[u, i] = scale * math.cos(math.pi * (2 * i + 1) * u / (2 * n))
    return basis


def naive_lowcut_filter(plane, cut_rows, cut_cols):
    """The paper's mask form on one (H, W) plane, in float64.

    Transform with the basis, zero coefficients (u, v) with u < cut_rows and
    v < cut_cols, transform back.
    """
    plane = np.asarray(plane, dtype=np.float64)
    basis_h, basis_w = naive_dct_basis(plane.shape[0]), naive_dct_basis(plane.shape[1])
    coeffs = basis_h @ plane @ basis_w.T
    coeffs[:cut_rows, :cut_cols] = 0.0
    return basis_h.T @ coeffs @ basis_w


def naive_highfreq_response(x, alpha):
    """Per-plane mask-and-invert using the direct-sum DCT pair. Small planes only."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    mask = np.ones((h, w))
    for u in range(h):
        for v in range(w):
            if u < alpha * h and v < alpha * w:
                mask[u, v] = 0.0
    out = np.zeros_like(x)
    for s in range(n):
        for ch in range(c):
            out[s, ch] = naive_idct2_plane(naive_dct2_plane(x[s, ch]) * mask)
    return out


def naive_conv1x1_vec(vec, weight, bias, groups):
    """Grouped linear map over channels for an (N, C, 1, 1) tensor."""
    vec = np.asarray(vec, dtype=np.float64)
    n, cin = vec.shape[:2]
    cout = weight.shape[0]
    cin_g, cout_g = cin // groups, cout // groups
    out = np.zeros((n, cout, 1, 1), dtype=np.float64)
    for s in range(n):
        for g in range(groups):
            for oo in range(cout_g):
                o = g * cout_g + oo
                acc = 0.0
                for ii in range(cin_g):
                    acc += weight[o, ii, 0, 0] * vec[s, g * cin_g + ii, 0, 0]
                out[s, o, 0, 0] = acc + (bias[o] if bias is not None else 0.0)
    return out


def naive_channel_path(f, params):
    """Stage-by-stage channel-path pipeline with naive building blocks.

    The pooling extent is params.k, but at most the map's height and width.
    """
    f = np.asarray(f, dtype=np.float64)
    k = min(params.k, f.shape[2], f.shape[3])
    avg = np.maximum(naive_adaptive_pool(f, k, k, "avg"), 0.0)
    mx = np.maximum(naive_adaptive_pool(f, k, k, "max"), 0.0)
    avg_vec = avg.sum(axis=(2, 3), keepdims=True)
    max_vec = mx.sum(axis=(2, 3), keepdims=True)
    ga = naive_conv1x1_vec(avg_vec, params.gap_conv.weight, params.gap_conv.bias,
                           params.gap_conv.spec.groups)
    gm = naive_conv1x1_vec(max_vec, params.gmp_conv.weight, params.gmp_conv.bias,
                           params.gmp_conv.spec.groups)
    cat = np.concatenate([ga, gm], axis=1)
    return naive_conv1x1_vec(cat, params.merge_conv.weight, params.merge_conv.bias,
                             params.merge_conv.spec.groups)


def naive_spatial_path(f, params):
    """Per-pixel dot product over channels."""
    f = np.asarray(f, dtype=np.float64)
    n, c, h, w = f.shape
    weight = np.asarray(params.spatial_conv.weight, dtype=np.float64).reshape(c)
    bias = params.spatial_conv.bias
    out = np.zeros((n, 1, h, w), dtype=np.float64)
    for s in range(n):
        for i in range(h):
            for j in range(w):
                out[s, 0, i, j] = float(weight @ f[s, :, i, j]) + (
                    float(bias[0]) if bias is not None else 0.0
                )
    return out


def naive_hfp_forward(c, params, alpha):
    """Compose the frequency and path oracles with the fuse convolution."""
    c = np.asarray(c, dtype=np.float64)
    f = naive_highfreq_response(c, alpha)
    u_cp = naive_channel_path(f, params)
    u_sp = naive_spatial_path(f, params)
    pre = u_cp * c + u_sp * c
    return naive_conv2d(pre, params.fuse_conv.weight, params.fuse_conv.bias)


def naive_block_attention(q, k, v):
    """Row-by-row scaled dot-product attention with explicit exponentials."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    hw, c = q.shape
    out = np.zeros((hw, c), dtype=np.float64)
    for r in range(hw):
        logits = np.array([float(q[r] @ k[s]) / math.sqrt(c) for s in range(hw)])
        weights = naive_softmax_rows(logits[None, :])[0]
        out[r] = sum(weights[s] * v[s] for s in range(hw))
    return out


def naive_upsample2x(x):
    """Explicit 2x2 block replication via strided assignment."""
    x = np.asarray(x)
    n, c, h, w = x.shape
    out = np.zeros((n, c, 2 * h, 2 * w), dtype=x.dtype)
    for di in (0, 1):
        for dj in (0, 1):
            out[:, :, di::2, dj::2] = x
    return out


def naive_partition(x, bh, bw):
    """Index-arithmetic block partition: (N, n_blocks, bh*bw, C)."""
    x = np.asarray(x)
    n, c, h, w = x.shape
    gh, gw = h // bh, w // bw
    out = np.zeros((n, gh * gw, bh * bw, c), dtype=x.dtype)
    for s in range(n):
        for bi in range(gh):
            for bj in range(gw):
                for pi in range(bh):
                    for pj in range(bw):
                        out[s, bi * gw + bj, pi * bw + pj] = x[s, :, bi * bh + pi, bj * bw + pj]
    return out


def naive_reassemble(blocks, dims, bh, bw):
    n, c, h, w = dims
    gh, gw = h // bh, w // bw
    out = np.zeros(dims, dtype=blocks.dtype)
    for s in range(n):
        for bi in range(gh):
            for bj in range(gw):
                for pi in range(bh):
                    for pj in range(bw):
                        out[s, :, bi * bh + pi, bj * bw + pj] = blocks[s, bi * gw + bj, pi * bw + pj]
    return out


def naive_sdp_forward(c_low, p_up, params):
    """Project, partition, per-block attention, reassemble, add."""
    c_low = np.asarray(c_low, dtype=np.float64)
    up = naive_upsample2x(np.asarray(p_up, dtype=np.float64))
    q = naive_conv2d(c_low, params.q_conv.weight, params.q_conv.bias)
    k = naive_conv2d(up, params.k_conv.weight, params.k_conv.bias)
    v = naive_conv2d(up, params.v_conv.weight, params.v_conv.bias)
    bh, bw = params.block_h, params.block_w
    qb, kb, vb = (naive_partition(m, bh, bw) for m in (q, k, v))
    out = np.zeros_like(vb)
    for s in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[s, j] = naive_block_attention(qb[s, j], kb[s, j], vb[s, j])
    return c_low + naive_reassemble(out, c_low.shape, bh, bw)


def naive_hsfpn_forward(c_pyr, weights, alpha):
    """End-to-end composition of the module oracles along the top-down path.

    Levels in `weights.config.filter_levels` are filtered with `alpha`, the
    others not at all; the alphas `weights.hfp_params` gives are not consulted.
    """
    config = weights.config
    outputs = {}
    for level in (5, 4, 3, 2):
        level_alpha = alpha if level in config.filter_levels else 0.0
        enriched = naive_hfp_forward(c_pyr[level], weights.hfp_params(level), level_alpha)
        if level == 5:
            fused = enriched
        else:
            h5 = c_pyr[5].shape[2]
            w5 = c_pyr[5].shape[3]
            params = weights.sdp_params(level, h5, w5)
            fused = naive_sdp_forward(enriched, outputs[level + 1], params)
            if config.fusion_mode == "sdp_plus_add":
                fused = fused + naive_upsample2x(outputs[level + 1])
        layer = weights.out_convs[level]
        outputs[level] = naive_conv2d(fused, layer.weight, layer.bias)
    return outputs


def naive_fpn_forward(c_pyr, out_convs):
    """Hand-written plain FPN: per level, upsample-add the upper output, then 3x3 conv."""
    outputs = {}
    for level in (5, 4, 3, 2):
        fused = np.asarray(c_pyr[level], dtype=np.float64)
        if level != 5:
            fused = fused + naive_upsample2x(outputs[level + 1])
        layer = out_convs[level]
        outputs[level] = naive_conv2d(fused, layer.weight, layer.bias)
    return outputs
