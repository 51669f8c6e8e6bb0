import tracemalloc
from math import sqrt

import numpy as np
import pytest

from hsfpn import (
    ConvLayer,
    ConvSpec,
    CostModel,
    PyramidConfig,
    SdpParams,
    ShapeError,
    ValidationError,
    attention_cost,
    block_attention,
    cost_rows,
    hsfpn_forward,
    init_weights,
    random_pyramid,
    sdp_forward,
)

from hsfpn.cost import cost_table_rows, render

from oracles import naive_block_attention, naive_hsfpn_forward, naive_sdp_forward, naive_softmax_rows

RNG = np.random.default_rng(2718)


def attention_matrix(q, k):
    """The row-stochastic weights softmax(q @ k.T / sqrt(C)): block_attention over identity values."""
    return block_attention(q, k, np.eye(len(k), dtype=np.float32))


def proj_layer(rng, channels, zero=False, bias=False):
    spec = ConvSpec(channels, channels, kernel=1, has_bias=bias)
    if zero:
        weight = np.zeros(spec.weight_shape, np.float32)
    else:
        weight = rng.uniform(-0.5, 0.5, size=spec.weight_shape).astype(np.float32)
    b = np.zeros(channels, np.float32) if bias else None
    return ConvLayer(spec, weight, b)


def make_params(channels, block_h, block_w, seed=0, zero_v=False):
    rng = np.random.default_rng(seed)
    return SdpParams(
        q_conv=proj_layer(rng, channels),
        k_conv=proj_layer(rng, channels),
        v_conv=proj_layer(rng, channels, zero=zero_v),
        block_h=block_h,
        block_w=block_w,
    )


class TestBlockAttention:
    def test_zero_query_uniform(self):
        hw, c = 6, 4
        q = np.zeros((hw, c), np.float32)
        k = RNG.standard_normal((hw, c)).astype(np.float32)
        v = RNG.standard_normal((hw, c)).astype(np.float32)
        a = attention_matrix(q, k)
        np.testing.assert_allclose(a, np.full((hw, hw), 1.0 / hw), atol=1e-6)
        out = block_attention(q, k, v)
        np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (hw, 1)), atol=1e-5)

    def test_single_pixel(self):
        q = RNG.standard_normal((1, 5)).astype(np.float32)
        k = RNG.standard_normal((1, 5)).astype(np.float32)
        v = RNG.standard_normal((1, 5)).astype(np.float32)
        np.testing.assert_array_equal(attention_matrix(q, k), [[1.0]])
        np.testing.assert_allclose(block_attention(q, k, v), v, atol=1e-7)

    def test_matches_row_oracle(self):
        q = RNG.standard_normal((16, 8)).astype(np.float32)
        k = RNG.standard_normal((16, 8)).astype(np.float32)
        v = RNG.standard_normal((16, 8)).astype(np.float32)
        np.testing.assert_allclose(block_attention(q, k, v), naive_block_attention(q, k, v),
                                   atol=1e-5)

    def test_sharp_logits_match_row_oracle(self):
        # q and k scaled x30 each: logits reach the thousands, past the float64
        # exp overflow at ~709, so only the row-max subtraction keeps them finite.
        q = (RNG.standard_normal((256, 64)) * 30).astype(np.float32)
        k = (RNG.standard_normal((256, 64)) * 30).astype(np.float32)
        v = RNG.standard_normal((256, 64)).astype(np.float32)
        np.testing.assert_allclose(block_attention(q, k, v), naive_block_attention(q, k, v),
                                   rtol=0, atol=1e-5)

    def test_deferred_normalisation_equals_weights_times_values(self):
        q = RNG.standard_normal((64, 16)).astype(np.float32)
        k = RNG.standard_normal((64, 16)).astype(np.float32)
        v = RNG.standard_normal((64, 16)).astype(np.float32)
        weights = naive_softmax_rows(q.astype(np.float64) @ k.astype(np.float64).T / sqrt(16))
        composed = weights @ v.astype(np.float64)
        np.testing.assert_allclose(block_attention(q, k, v), composed, rtol=0, atol=1e-6)

    def test_value_product_accumulates_in_float64(self):
        # uniform weights over [1e8, 1, -1e8, 0]: float32 accumulation loses the 1
        q = np.zeros((4, 4), np.float32)
        v = np.zeros((4, 4), np.float32)
        v[:3] = np.array([1e8, 1.0, -1e8], np.float32)[:, None]
        np.testing.assert_array_equal(block_attention(q, q, v), np.full((4, 4), 0.25, np.float32))

    def test_rows_sum_to_one(self):
        for _ in range(20):
            q = (RNG.standard_normal((9, 6)) * 5).astype(np.float32)
            k = (RNG.standard_normal((9, 6)) * 5).astype(np.float32)
            a = attention_matrix(q, k)
            np.testing.assert_allclose(a.sum(axis=1), np.ones(9), atol=1e-6)

    def test_output_inside_value_envelope(self):
        for _ in range(20):
            q = (RNG.standard_normal((8, 5)) * 3).astype(np.float32)
            k = (RNG.standard_normal((8, 5)) * 3).astype(np.float32)
            v = RNG.standard_normal((8, 5)).astype(np.float32)
            out = block_attention(q, k, v)
            assert (out >= v.min(axis=0) - 1e-6).all()
            assert (out <= v.max(axis=0) + 1e-6).all()

    def test_scale_cancellation(self):
        q = RNG.standard_normal((7, 4)).astype(np.float32)
        k = RNG.standard_normal((7, 4)).astype(np.float32)
        for s in (0.25, 2.0, 7.5):
            a = attention_matrix(q, k)
            b = attention_matrix((q * s).astype(np.float32), (k / s).astype(np.float32))
            np.testing.assert_allclose(a, b, atol=1e-6)


class TestRepeatedKeys:
    """block_attention over unique keys, each standing for counts[j] copies."""

    # 64 unique keys repeated 1, 2, 4 or 9 times: 256 keys once expanded
    COUNTS = np.tile([1, 2, 4, 9], 16)

    def blocks(self, scale=1.0):
        q = (RNG.standard_normal((256, 64)) * scale).astype(np.float32)
        k = (RNG.standard_normal((64, 64)) * scale).astype(np.float32)
        v = RNG.standard_normal((64, 64)).astype(np.float32)
        return q, k, v

    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_matches_oracle_on_expanded_keys(self, scale):
        # x30 on q and k: logits reach the thousands, past the float64 exp
        # overflow at ~709, so only the row-max subtraction keeps them finite
        q, k, v = self.blocks(scale)
        out = block_attention(q, k, v, self.COUNTS)
        ref = naive_block_attention(q, np.repeat(k, self.COUNTS, axis=0),
                                    np.repeat(v, self.COUNTS, axis=0))
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)

    def test_without_counts_unchanged(self):
        # the dense computation with one deferred normalisation, written out
        q = RNG.standard_normal((64, 16)).astype(np.float32)
        k = RNG.standard_normal((64, 16)).astype(np.float32)
        v = RNG.standard_normal((64, 16)).astype(np.float32)
        z = q.astype(np.float64) @ k.astype(np.float64).T
        z *= 1.0 / sqrt(16)
        z = np.exp(z - z.max(axis=1, keepdims=True))
        want = ((z @ v.astype(np.float64)) / z.sum(axis=1, keepdims=True)).astype(np.float32)
        assert block_attention(q, k, v).tobytes() == want.tobytes()

    @pytest.mark.parametrize("hw, u, c", [(4, 4, 4), (64, 16, 16), (256, 64, 64), (625, 169, 32)])
    def test_default_counts_are_ones(self, hw, u, c):
        # one weighted path: no counts means one copy of each key, bitwise
        q = RNG.standard_normal((hw, c)).astype(np.float32)
        k = RNG.standard_normal((u, c)).astype(np.float32)
        for v in (RNG.standard_normal((u, c)).astype(np.float32), np.eye(u, dtype=np.float32)):
            assert block_attention(q, k, v).tobytes() == block_attention(q, k, v, np.ones(u)).tobytes()

    @pytest.mark.parametrize("with_counts", [False, True])
    def test_values_narrower_than_keys(self, with_counts):
        # values need only match the keys' row count: D = 5 values over C = 8 keys
        q = RNG.standard_normal((64, 8)).astype(np.float32)
        k = RNG.standard_normal((16, 8)).astype(np.float32)
        v = RNG.standard_normal((16, 5)).astype(np.float32)
        counts = np.tile([1, 2, 4, 9], 4) if with_counts else None
        out = block_attention(q, k, v, counts)
        k_all = k if counts is None else np.repeat(k, counts, axis=0)
        v_all = v if counts is None else np.repeat(v, counts, axis=0)
        weights = naive_softmax_rows(q.astype(np.float64) @ k_all.astype(np.float64).T / sqrt(8))
        ref = weights @ v_all.astype(np.float64)
        assert out.shape == (64, 5)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)

    def test_wrong_count_length_rejected(self):
        q, k, v = self.blocks()
        with pytest.raises(ShapeError):
            block_attention(q, k, v, self.COUNTS[:-1])

    def test_zero_keys_rejected(self):
        q, k, v = self.blocks()
        with pytest.raises(ShapeError, match="key"):
            block_attention(q, k[:0], v[:0])
        with pytest.raises(ShapeError, match="key"):
            block_attention(q, k[:0], v[:0], self.COUNTS[:0])

    @pytest.mark.parametrize("counts", [np.zeros(64), np.tile([1, -1, 2, 1], 16),
                                        np.tile([1, 0, 2, 1], 16), np.tile([1.0, np.nan], 32)],
                             ids=["all-zero", "negative", "one-zero", "nan"])
    def test_nonpositive_counts_rejected(self, counts):
        q, k, v = self.blocks()
        with pytest.raises(ValidationError, match="counts must be positive"):
            block_attention(q, k, v, counts)

    def test_value_not_shaped_like_keys_rejected(self):
        q, k, v = self.blocks()
        with pytest.raises(ShapeError):
            block_attention(q, k, v[:-1], self.COUNTS)
        with pytest.raises(ShapeError):
            block_attention(q, k, np.repeat(v, 4, axis=0))


class TestSdpForward:
    def test_zero_value_path_is_identity(self):
        c_low = RNG.standard_normal((1, 4, 8, 8)).astype(np.float32)
        p_up = RNG.standard_normal((1, 4, 4, 4)).astype(np.float32)
        params = make_params(4, 4, 4, zero_v=True)
        np.testing.assert_array_equal(sdp_forward(c_low, p_up, params), c_low)

    def test_single_block_equals_global_attention(self):
        c_low = RNG.standard_normal((1, 4, 4, 4)).astype(np.float32)
        p_up = RNG.standard_normal((1, 4, 2, 2)).astype(np.float32)
        params = make_params(4, 4, 4, seed=9)
        out = sdp_forward(c_low, p_up, params)

        up = np.repeat(np.repeat(p_up, 2, axis=2), 2, axis=3)
        q, k, v = (conv(x)[0].reshape(4, 16).T
                   for conv, x in ((params.q_conv, c_low), (params.k_conv, up), (params.v_conv, up)))
        att = block_attention(q, k, v)
        ref = c_low + att.T.reshape(1, 4, 4, 4)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_matches_composed_oracle(self):
        c_low = RNG.standard_normal((1, 4, 8, 8)).astype(np.float32)
        p_up = RNG.standard_normal((1, 4, 4, 4)).astype(np.float32)
        params = make_params(4, 4, 4, seed=17)
        out = sdp_forward(c_low, p_up, params)
        ref = naive_sdp_forward(c_low, p_up, params)
        np.testing.assert_allclose(out, ref, atol=1e-4)

    @pytest.mark.parametrize("batch", [1, 2])
    def test_odd_blocks_at_odd_offsets_match_oracle(self, batch):
        # a 40x24 level 2 under a 5x3 top level: blocks start at odd rows and
        # columns, so their upper pixels repeat 1, 2 or 4 times
        c_low = RNG.standard_normal((batch, 4, 40, 24)).astype(np.float32)
        p_up = RNG.standard_normal((batch, 4, 20, 12)).astype(np.float32)
        params = make_params(4, 5, 3, seed=19)
        out = sdp_forward(c_low, p_up, params)
        np.testing.assert_allclose(out, naive_sdp_forward(c_low, p_up, params), atol=1e-4)

    def test_sdp_plus_add_with_odd_blocks_matches_oracle(self):
        config = PyramidConfig(channels=4, alpha=0.25, k=2, groups=2, fusion_mode="sdp_plus_add",
                               seed=29, filter_levels=(2, 3))
        weights = init_weights(config)
        pyr = random_pyramid(4, base_hw=(24, 8), batch=2, seed=30)  # 3x1 blocks
        out = hsfpn_forward(pyr, weights)
        ref = naive_hsfpn_forward({lv: pyr[lv] for lv in (2, 3, 4, 5)}, weights, config.alpha)
        for lv in (2, 3, 4, 5):
            np.testing.assert_allclose(out[lv], ref[lv], atol=1e-4)

    def test_peak_memory_bounded_by_input(self):
        # level 2 of a 64-channel, 128x128 pyramid with 16x16 blocks
        c_low = RNG.standard_normal((1, 64, 128, 128)).astype(np.float32)
        p_up = RNG.standard_normal((1, 64, 64, 64)).astype(np.float32)
        params = make_params(64, 16, 16, seed=37)
        sdp_forward(c_low, p_up, params)  # first call outside the measurement
        tracemalloc.start()
        try:
            sdp_forward(c_low, p_up, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the projected queries become the output; k, v and one block's work: 1.76x
        assert peak <= 2.2 * c_low.nbytes, f"peak {peak} B is {peak / c_low.nbytes:.2f}x the input"

    def test_leaves_inputs_unchanged(self):
        c_low = RNG.standard_normal((2, 4, 40, 24)).astype(np.float32)
        p_up = RNG.standard_normal((2, 4, 20, 12)).astype(np.float32)
        before = c_low.tobytes(), p_up.tobytes()
        out = sdp_forward(c_low, p_up, make_params(4, 5, 3, seed=41))
        assert (c_low.tobytes(), p_up.tobytes()) == before
        assert not np.shares_memory(out, c_low)

    def test_block_locality(self):
        # block-aligned perturbation of the upper feature touches only its own output block
        c = 3
        c_low = RNG.standard_normal((1, c, 8, 8)).astype(np.float32)
        p_up = RNG.standard_normal((1, c, 4, 4)).astype(np.float32)
        params = make_params(c, 4, 4, seed=23)
        base = sdp_forward(c_low, p_up, params)

        perturbed = p_up.copy()
        perturbed[:, :, 0:2, 0:2] += 1.0  # upsamples into block (0, 0) only
        out = sdp_forward(c_low, perturbed, params)
        assert not np.array_equal(out[:, :, 0:4, 0:4], base[:, :, 0:4, 0:4])
        assert out[:, :, 0:4, 4:8].tobytes() == base[:, :, 0:4, 4:8].tobytes()
        assert out[:, :, 4:8, :].tobytes() == base[:, :, 4:8, :].tobytes()

    def test_extent_relation_enforced(self):
        params = make_params(4, 4, 4)
        c_low = RNG.standard_normal((1, 4, 8, 8)).astype(np.float32)
        with pytest.raises(ShapeError):
            sdp_forward(c_low, RNG.standard_normal((1, 4, 8, 8)).astype(np.float32), params)

    def test_projection_channel_mismatch_rejected(self):
        # 4-channel projections on an 8-channel pair: the query projection rejects it
        params = make_params(4, 4, 4)
        c_low = RNG.standard_normal((1, 8, 8, 8)).astype(np.float32)
        p_up = RNG.standard_normal((1, 8, 4, 4)).astype(np.float32)
        with pytest.raises(ShapeError):
            sdp_forward(c_low, p_up, params)

    def test_non_divisible_blocks_rejected(self):
        params = make_params(4, 4, 4)
        c_low = RNG.standard_normal((1, 4, 6, 6)).astype(np.float32)
        p_up = RNG.standard_normal((1, 4, 3, 3)).astype(np.float32)
        with pytest.raises(ShapeError, match="do not divide"):
            sdp_forward(c_low, p_up, params)

    def test_batched_matches_per_sample(self):
        c_low = RNG.standard_normal((2, 4, 8, 8)).astype(np.float32)
        p_up = RNG.standard_normal((2, 4, 4, 4)).astype(np.float32)
        params = make_params(4, 4, 4, seed=31)
        both = sdp_forward(c_low, p_up, params)
        for s in range(2):
            single = sdp_forward(c_low[s:s + 1], p_up[s:s + 1], params)
            np.testing.assert_array_equal(both[s:s + 1], single)


class TestAttentionCost:
    def test_ratio_identities(self):
        for _ in range(100):
            model = CostModel(
                n=int(RNG.integers(1, 64)),
                h=int(RNG.integers(1, 32)),
                w=int(RNG.integers(1, 32)),
                c=int(RNG.integers(1, 512)),
            )
            vit = attention_cost(model, "vit")
            sdp = attention_cost(model, "sdp")
            glo = attention_cost(model, "global")
            hw = model.h * model.w
            assert sdp * model.n == vit * hw
            assert glo == vit * hw

    def test_single_block_sdp_equals_global(self):
        model = CostModel(n=1, h=5, w=7, c=16)
        assert attention_cost(model, "sdp") == attention_cost(model, "global")

    def test_linear_in_channels(self):
        a = CostModel(n=4, h=3, w=3, c=8)
        b = CostModel(n=4, h=3, w=3, c=16)
        for layout in ("vit", "sdp", "global"):
            assert attention_cost(b, layout) == 2 * attention_cost(a, layout)

    def test_rows_and_table(self):
        model = CostModel(n=4, h=2, w=2, c=8)
        rows = cost_rows(model)
        assert [r["method"] for r in rows] == ["vit", "sdp", "global"]
        assert [r["multiplier"] for r in rows] == ["1", "hw/n", "hw"]
        table = render(cost_table_rows(model), "table")
        assert "hw/n" in table and "multiplier" in table

    def test_invalid_layout(self):
        with pytest.raises(ValidationError):
            attention_cost(CostModel(1, 1, 1, 1), "dense")

    def test_positive_fields_required(self):
        with pytest.raises(ValidationError):
            CostModel(0, 1, 1, 1)
