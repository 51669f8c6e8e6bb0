"""Acceptance suite: one test per release criterion, each at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion alongside the pytest verdicts.
"""

import dataclasses
import time
from contextlib import contextmanager

import numpy as np

from hsfpn import (
    ConvLayer,
    ConvSpec,
    CostModel,
    PyramidConfig,
    ScrWindows,
    SdpParams,
    attention_cost,
    blob_scene,
    block_attention,
    count_params,
    dct_matrix,
    highpass_cut,
    hsfpn_forward,
    init_weights,
    random_pyramid,
    scr_filter_sweep,
    sdp_forward,
)

from oracles import (
    naive_dct2_plane,
    naive_fpn_forward,
    naive_idct2_plane,
    naive_sdp_forward,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def rand_proj(rng, channels):
    spec = ConvSpec(channels, channels, kernel=1, has_bias=False)
    weight = rng.uniform(-0.5, 0.5, size=spec.weight_shape).astype(np.float32)
    return ConvLayer(spec, weight)


def test_dct_fidelity():
    with criterion("DCT fidelity"):
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            h = int(rng.integers(1, 65))
            w = int(rng.integers(1, 65))
            x = rng.standard_normal((h, w)).astype(np.float32)
            d_h, d_w = dct_matrix(h), dct_matrix(w)
            worst = max(worst, float(np.abs(d_h.T @ (d_h @ x @ d_w.T) @ d_w - x).max()))
        assert worst <= 1e-5

        for h, w in ((4, 4), (8, 8)):
            d_h, d_w = dct_matrix(h), dct_matrix(w)
            impulse = np.zeros((h, w), np.float32)
            impulse[0, 0] = 1.0
            np.testing.assert_allclose(d_h @ impulse @ d_w.T, naive_dct2_plane(impulse), atol=1e-6)
            dc = np.full((h, w), 0.8, np.float32)
            np.testing.assert_allclose(d_h @ dc @ d_w.T, naive_dct2_plane(dc), atol=1e-6)
            coeff = np.zeros((h, w), np.float32)
            coeff[1, 0] = 1.0
            np.testing.assert_allclose(d_h.T @ coeff @ d_w, naive_idct2_plane(coeff), atol=1e-6)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"DCT fidelity took {elapsed:.1f}s"


def test_cutoff_boundaries_and_monotonicity():
    with criterion("cut-off corner boundary cases and alpha monotonicity"):
        assert highpass_cut(16, 12, 0.0) == (0, 0)
        assert highpass_cut(16, 12, 1.0) == (16, 12)
        alphas = np.linspace(0.0, 1.0, 21)
        for h, w in ((8, 8), (13, 11)):
            prev = highpass_cut(h, w, float(alphas[0]))
            for a in alphas[1:]:
                cur = highpass_cut(h, w, float(a))
                assert cur[0] >= prev[0] and cur[1] >= prev[1], f"monotonicity broken at alpha={a}"
                prev = cur


def test_scr_sweep_trend():
    with criterion("SCR rise-then-fall over expanding cut region"):
        start = time.perf_counter()
        scene = blob_scene()
        windows = ScrWindows(target_center=(50, 50))
        cuts = [(c, c) for c in list(range(0, 13)) + list(range(16, 61, 4))]
        values = [v for _, _, v in scr_filter_sweep(scene, windows, cuts)]
        peak = int(np.argmax(values))
        assert 0 < peak < len(values) - 1, "maximum must be strictly interior"
        assert values[peak] > values[0], "filtered SCR must rise above unfiltered"
        assert values[-1] < values[peak], "SCR must fall after the peak"
        assert values[-1] < values[0]
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"sweep took {elapsed:.1f}s"


def test_sdp_oracle_equivalence():
    with criterion("cross-attention fusion equals composed naive oracle"):
        rng = np.random.default_rng(7002)
        start = time.perf_counter()
        worst = 0.0
        for trial in range(100):
            channels = int(rng.choice([8, 16]))
            gh = int(rng.integers(1, 5))
            gw = int(rng.integers(1, 5))
            bh = int(rng.choice([2, 4]))
            bw = int(rng.choice([2, 4]))
            h, w = gh * bh, gw * bw
            params = SdpParams(
                q_conv=rand_proj(rng, channels),
                k_conv=rand_proj(rng, channels),
                v_conv=rand_proj(rng, channels),
                block_h=bh,
                block_w=bw,
            )
            c_low = rng.standard_normal((1, channels, h, w)).astype(np.float32)
            p_up = rng.standard_normal((1, channels, h // 2, w // 2)).astype(np.float32)
            out = sdp_forward(c_low, p_up, params)
            ref = naive_sdp_forward(c_low, p_up, params)
            worst = max(worst, float(np.abs(out - ref).max()))
        assert worst <= 1e-4, f"max abs deviation {worst:.2e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f}s"


def test_attention_rows_and_convexity():
    with criterion("attention rows sum to one and outputs stay in the value envelope"):
        rng = np.random.default_rng(88)
        for _ in range(100):
            hw = int(rng.integers(1, 17))
            c = int(rng.integers(1, 9))
            scale = float(rng.uniform(0.5, 6.0))
            q = (rng.standard_normal((hw, c)) * scale).astype(np.float32)
            k = (rng.standard_normal((hw, c)) * scale).astype(np.float32)
            v = rng.standard_normal((hw, c)).astype(np.float32)
            a = block_attention(q, k, np.eye(hw, dtype=np.float32))  # the weights themselves
            np.testing.assert_allclose(a.sum(axis=1), np.ones(hw), atol=1e-6)
            out = block_attention(q, k, v)
            assert (out >= v.min(axis=0) - 1e-6).all()
            assert (out <= v.max(axis=0) + 1e-6).all()


def test_block_locality():
    with criterion("perturbing one upper block changes only its output block"):
        rng = np.random.default_rng(31)
        channels, bh, bw = 8, 4, 4
        params = SdpParams(
            q_conv=rand_proj(rng, channels),
            k_conv=rand_proj(rng, channels),
            v_conv=rand_proj(rng, channels),
            block_h=bh,
            block_w=bw,
        )
        c_low = rng.standard_normal((1, channels, 16, 16)).astype(np.float32)
        p_up = rng.standard_normal((1, channels, 8, 8)).astype(np.float32)
        base = sdp_forward(c_low, p_up, params)

        for bi, bj in ((0, 0), (1, 2), (3, 3)):
            perturbed = p_up.copy()
            perturbed[:, :, bi * bh // 2:(bi + 1) * bh // 2,
                      bj * bw // 2:(bj + 1) * bw // 2] += 0.75
            out = sdp_forward(c_low, perturbed, params)
            changed = out[:, :, bi * bh:(bi + 1) * bh, bj * bw:(bj + 1) * bw]
            base_blk = base[:, :, bi * bh:(bi + 1) * bh, bj * bw:(bj + 1) * bw]
            assert not np.array_equal(changed, base_blk)
            mask = np.ones((16, 16), bool)
            mask[bi * bh:(bi + 1) * bh, bj * bw:(bj + 1) * bw] = False
            assert out[:, :, mask].tobytes() == base[:, :, mask].tobytes()


def test_complexity_multipliers():
    with criterion("attention-cost ratios equal 1, hw/n, hw exactly"):
        rng = np.random.default_rng(55)
        for _ in range(100):
            model = CostModel(
                n=int(rng.integers(1, 100)),
                h=int(rng.integers(1, 40)),
                w=int(rng.integers(1, 40)),
                c=int(rng.integers(1, 1024)),
            )
            vit = attention_cost(model, "vit")
            sdp = attention_cost(model, "sdp")
            glo = attention_cost(model, "global")
            hw = model.h * model.w
            assert vit * 1 == vit
            assert sdp * model.n == vit * hw  # sdp / vit == hw / n
            assert glo == vit * hw            # global / vit == hw


def test_parameter_accounting():
    with criterion("parameter accounting matches the reference deltas"):
        config = PyramidConfig(channels=256)
        report = count_params(config, base_hw=(200, 200))
        per_level_fuse = report.per_level[2]["hfp_fuse"].params
        assert per_level_fuse == 256 * 256 * 9 + 256 == 590080
        fuse_total = report.module_total("hfp_fuse").params
        assert fuse_total == 2360320
        reference_delta = 71.31e6 - 68.95e6  # 2.36 M
        assert abs(fuse_total - reference_delta) / reference_delta < 0.02

        sdp_total = report.module_total("sdp").params
        assert sdp_total == 3 * 3 * 256 * 256 == 589824
        # Reported against the published 0.40 M delta; same order, not asserted.
        print(f"[acceptance] bias-free attention projections: {sdp_total} params "
              f"(published component delta 0.40 M)")


def test_pyramid_shapes_and_determinism():
    with criterion("pyramid shape invariance, bitwise determinism, FPN oracle match"):
        start = time.perf_counter()
        config = PyramidConfig(channels=32, alpha=0.25, k=8, groups=16, seed=12)
        pyr = random_pyramid(32, base_hw=(64, 64), seed=3)
        assert pyr.extents(2) == (64, 64) and pyr.extents(5) == (8, 8)

        weights = init_weights(config)
        out1 = hsfpn_forward(pyr, weights)
        out2 = hsfpn_forward(pyr, weights)
        for lv in (2, 3, 4, 5):
            assert out1[lv].shape == pyr[lv].shape
            assert out1[lv].tobytes() == out2[lv].tobytes()

        fpn_config = dataclasses.replace(config, mode="fpn_baseline")
        fpn_weights = init_weights(fpn_config)
        fpn_out = hsfpn_forward(pyr, fpn_weights)
        ref = naive_fpn_forward({lv: pyr[lv] for lv in (2, 3, 4, 5)}, fpn_weights.out_convs)
        for lv in (2, 3, 4, 5):
            np.testing.assert_allclose(fpn_out[lv], ref[lv], atol=1e-5)

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"pyramid checks took {elapsed:.1f}s"


def test_degenerate_collapse():
    with criterion("forced-weight collapse equals the plain FPN fusion"):
        config = PyramidConfig(
            channels=8,
            alpha=0.0,
            k=4,
            groups=4,
            filter_levels=(2, 3, 4, 5),
            fusion_mode="sdp_plus_add",
            seed=2,
        )
        weights = init_weights(config)
        channels = config.channels

        identity = np.zeros((channels, channels, 3, 3), np.float32)
        for c in range(channels):
            identity[c, c, 1, 1] = 1.0
        forced = {}
        for lv in (2, 3, 4, 5):
            p = weights.hfp_params(lv)
            forced.update({
                f"hfp{lv}.gap_conv": ConvLayer(p.gap_conv.spec, np.zeros_like(p.gap_conv.weight),
                                               np.zeros(channels, np.float32)),
                f"hfp{lv}.gmp_conv": ConvLayer(p.gmp_conv.spec, np.zeros_like(p.gmp_conv.weight),
                                               np.zeros(channels, np.float32)),
                f"hfp{lv}.merge_conv": ConvLayer(p.merge_conv.spec, np.zeros_like(p.merge_conv.weight),
                                                 np.full(channels, 0.5, np.float32)),
                f"hfp{lv}.spatial_conv": ConvLayer(p.spatial_conv.spec, np.zeros_like(p.spatial_conv.weight),
                                                   np.full(1, 0.5, np.float32)),
                # the config's spec, which has a bias, with a zero bias: the identity still
                f"hfp{lv}.fuse_conv": ConvLayer(p.fuse_conv.spec, identity, np.zeros(channels, np.float32)),
            })
        for lv in (2, 3, 4):
            v = weights.layers[f"sdp{lv}.v_conv"]
            forced[f"sdp{lv}.v_conv"] = ConvLayer(v.spec, np.zeros_like(v.weight))
        weights = dataclasses.replace(weights, layers={**weights.layers, **forced})

        fpn_weights = init_weights(dataclasses.replace(config, mode="fpn_baseline"))
        shared = {f"out{lv}.conv": weights.out_convs[lv] for lv in (2, 3, 4, 5)}
        fpn_weights = dataclasses.replace(fpn_weights, layers={**fpn_weights.layers, **shared})

        pyr = random_pyramid(channels, base_hw=(32, 32), seed=6)
        collapsed = hsfpn_forward(pyr, weights)
        baseline = hsfpn_forward(pyr, fpn_weights)
        for lv in (2, 3, 4, 5):
            np.testing.assert_allclose(collapsed[lv], baseline[lv], atol=1e-5)
