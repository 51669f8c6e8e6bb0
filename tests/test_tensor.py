import dataclasses
import tracemalloc

import numpy as np
import pytest

from hsfpn import (
    ConvLayer,
    ConvSpec,
    ShapeError,
    ValidationError,
    adaptive_pool,
    as_tensor,
    conv2d,
    sigmoid,
    tensor,
    upsample2x,
)

from oracles import naive_adaptive_pool, naive_conv2d

RNG = np.random.default_rng(20240814)


def randf(*shape):
    return RNG.standard_normal(shape).astype(np.float32)


class TestConv2d:
    def test_identity_1x1(self):
        x = randf(2, 3, 5, 5)
        spec = ConvSpec(3, 3, kernel=1, has_bias=False)
        weight = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        np.testing.assert_array_equal(conv2d(x, spec, weight), x)

    def test_identity_with_zero_bias(self):
        x = randf(1, 4, 3, 3)
        spec = ConvSpec(4, 4, kernel=1)
        weight = np.eye(4, dtype=np.float32).reshape(4, 4, 1, 1)
        out = conv2d(x, spec, weight, np.zeros(4, np.float32))
        np.testing.assert_array_equal(out, x)

    def test_3x3_ones_zero_padding(self):
        # all-ones kernel on an all-ones 3x3 plane: centre sums 9 inputs, corners 4
        x = np.ones((1, 1, 3, 3), np.float32)
        spec = ConvSpec(1, 1, kernel=3, has_bias=False)
        out = conv2d(x, spec, np.ones((1, 1, 3, 3), np.float32))[0, 0]
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], np.float32)
        np.testing.assert_array_equal(out, expected)

    def test_grouped_1x1_matches_blockdiag_oracle(self):
        x = randf(2, 4, 5, 5)
        spec = ConvSpec(4, 4, kernel=1, groups=2, has_bias=False)
        weight = randf(*spec.weight_shape)
        out = conv2d(x, spec, weight)
        ref = naive_conv2d(x, weight, groups=2)
        np.testing.assert_allclose(out, ref, atol=1e-5)

    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_groups_equal_independent_slices(self, groups):
        cin, cout = 8, 8
        x = randf(1, cin, 4, 6)
        spec = ConvSpec(cin, cout, kernel=3, groups=groups, has_bias=False)
        weight = randf(*spec.weight_shape)
        out = conv2d(x, spec, weight)

        cin_g, cout_g = cin // groups, cout // groups
        pieces = []
        for g in range(groups):
            sub_spec = ConvSpec(cin_g, cout_g, kernel=3, groups=1, has_bias=False)
            pieces.append(conv2d(x[:, g * cin_g:(g + 1) * cin_g], sub_spec,
                                 weight[g * cout_g:(g + 1) * cout_g]))
        np.testing.assert_array_equal(out, np.concatenate(pieces, axis=1))

    def test_3x3_random_matches_oracle(self):
        x = randf(2, 3, 6, 7)
        spec = ConvSpec(3, 5, kernel=3)
        weight = randf(*spec.weight_shape)
        bias = randf(5)
        out = conv2d(x, spec, weight, bias)
        np.testing.assert_allclose(out, naive_conv2d(x, weight, bias), atol=1e-5)

    def test_channel_mismatch(self):
        spec = ConvSpec(3, 3, kernel=1)
        with pytest.raises(ShapeError):
            conv2d(randf(1, 2, 4, 4), spec, randf(3, 3, 1, 1))

    def test_nonfinite_weight(self):
        spec = ConvSpec(1, 1, kernel=1, has_bias=False)
        weight = np.array([[[[np.nan]]]], np.float32)
        with pytest.raises(ValidationError):
            conv2d(randf(1, 1, 2, 2), spec, weight)

    def test_bad_weight_count(self):
        spec = ConvSpec(2, 2, kernel=3, has_bias=False)
        with pytest.raises(ShapeError):
            conv2d(randf(1, 2, 4, 4), spec, randf(2, 2, 1, 1))


class TestConv2dEdgeCases:
    """Shapes where the padded, row-flattened 3x3 form and the grouped 1x1 form can slip."""

    @pytest.mark.parametrize("hw", [(1, 1), (1, 7), (6, 1)])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_3x3_thin_planes(self, hw, with_bias):
        x = randf(1, 3, *hw)
        spec = ConvSpec(3, 4, kernel=3, has_bias=with_bias)
        weight = randf(*spec.weight_shape)
        bias = randf(4) if with_bias else None
        out = conv2d(x, spec, weight, bias)
        np.testing.assert_allclose(out, naive_conv2d(x, weight, bias), atol=1e-5)

    @pytest.mark.parametrize("with_bias", [True, False])
    def test_3x3_batch2_groups4(self, with_bias):
        x = randf(2, 8, 5, 6)
        spec = ConvSpec(8, 12, kernel=3, groups=4, has_bias=with_bias)
        weight = randf(*spec.weight_shape)
        bias = randf(12) if with_bias else None
        out = conv2d(x, spec, weight, bias)
        np.testing.assert_allclose(out, naive_conv2d(x, weight, bias, groups=4), atol=1e-5)

    @pytest.mark.parametrize("with_bias", [True, False])
    def test_grouped_1x1_vector_merge_shape(self, with_bias):
        # the channel path's merge conv: 2C -> C at groups 16 on (N, 2C, 1, 1)
        x = randf(2, 64, 1, 1)
        spec = ConvSpec(64, 32, kernel=1, groups=16, has_bias=with_bias)
        weight = randf(*spec.weight_shape)
        bias = randf(32) if with_bias else None
        out = conv2d(x, spec, weight, bias)
        np.testing.assert_allclose(out, naive_conv2d(x, weight, bias, groups=16), atol=1e-5)

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_noncontiguous_input(self, kernel):
        x = randf(1, 4, 7, 5).transpose(0, 1, 3, 2)
        assert not x.flags.c_contiguous
        spec = ConvSpec(4, 6, kernel=kernel, groups=2)
        weight, bias = randf(*spec.weight_shape), randf(6)
        out = conv2d(x, spec, weight, bias)
        np.testing.assert_allclose(out, naive_conv2d(x, weight, bias, groups=2), atol=1e-5)

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_float64_input(self, kernel):
        x = RNG.standard_normal((2, 3, 4, 5))
        spec = ConvSpec(3, 5, kernel=kernel)
        weight, bias = randf(*spec.weight_shape), randf(5)
        out = conv2d(x, spec, weight, bias)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, naive_conv2d(x, weight, bias), atol=1e-5)


BAND_SHAPES = [(h, w) for h in (15, 16, 17, 33, 37) for w in (5, 24)]


class TestConv2dBands:
    """`conv2d` runs `BAND_ROWS` output rows at a time; heights around the band edges."""

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("hw", BAND_SHAPES)
    def test_matches_oracle(self, hw, with_bias, kernel):
        x = randf(2, 8, *hw)
        spec = ConvSpec(8, 12, kernel=kernel, groups=4, has_bias=with_bias)
        weight = randf(*spec.weight_shape)
        bias = randf(12) if with_bias else None
        out = conv2d(x, spec, weight, bias)
        np.testing.assert_allclose(out, naive_conv2d(x, weight, bias, groups=4), atol=1e-5)

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("shape", [(2, 8, *hw) for hw in BAND_SHAPES] + [(1, 64, 128, 128)])
    def test_bitwise_equal_to_one_whole_map_band(self, shape, with_bias, kernel, monkeypatch):
        x = randf(*shape)
        groups = 4 if shape[1] == 8 else 1
        spec = ConvSpec(shape[1], shape[1], kernel=kernel, groups=groups, has_bias=with_bias)
        weight = randf(*spec.weight_shape)
        bias = randf(shape[1]) if with_bias else None
        banded = conv2d(x, spec, weight, bias)
        monkeypatch.setattr(tensor, "BAND_ROWS", 10**6)
        assert banded.tobytes() == conv2d(x, spec, weight, bias).tobytes()


def conv_peak(kernel, height=128):
    """tracemalloc peak of one 64 -> 64 conv2d on (1, 64, height, 128), with its input and output."""
    x = randf(1, 64, height, 128)
    spec = ConvSpec(64, 64, kernel=kernel)
    weight, bias = randf(*spec.weight_shape), randf(64)
    conv2d(x, spec, weight, bias)  # first call outside the measurement
    tracemalloc.start()
    try:
        out = conv2d(x, spec, weight, bias)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, x, out


def conv_peak_over_input(kernel):
    peak, x, _ = conv_peak(kernel)
    return peak / x.nbytes


class TestConv2dMemoryAndAccumulation:
    def test_3x3_peak_memory_bounded_by_input(self):
        # the float32 output (1x) plus a 16-row band's float64 input buffer,
        # accumulator and one tap product (~0.3x each at 128 rows): 1.89x
        ratio = conv_peak_over_input(3)
        assert ratio <= 2.2, f"peak is {ratio:.2f}x the input"

    def test_1x1_peak_memory_bounded_by_input(self):
        # one tap: the float32 output (1x) plus the band's input buffer and accumulator: 1.52x
        ratio = conv_peak_over_input(1)
        assert ratio <= 1.8, f"peak is {ratio:.2f}x the input"

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_working_memory_does_not_grow_with_height(self, kernel):
        peak, _, out = conv_peak(kernel, height=128)
        working = peak - out.nbytes
        tall_peak, _, tall_out = conv_peak(kernel, height=256)
        tall_working = tall_peak - tall_out.nbytes
        assert abs(tall_working - working) <= 0.05 * working, (working, tall_working)

    def test_1x1_accumulates_in_float64(self):
        # float32 accumulation in channel order loses the 1 next to 1e8 and
        # returns 0. A 4x4 map, not a single pixel: a BLAS matrix-vector
        # kernel may sum 1e8 - 1e8 first and hide float32 accumulation.
        x = np.array([1e8, 1.0, -1e8], np.float32)[None, :, None, None].repeat(4, 2).repeat(4, 3)
        spec = ConvSpec(3, 1, kernel=1, has_bias=False)
        out = conv2d(x, spec, np.ones((1, 3, 1, 1), np.float32))
        np.testing.assert_array_equal(out, np.ones((1, 1, 4, 4), np.float32))

    def test_3x3_accumulates_in_float64(self):
        # the same three values in one window, one per tap of the top row
        x = np.zeros((1, 1, 3, 3), np.float32)
        x[0, 0, 0] = [1e8, 1.0, -1e8]
        spec = ConvSpec(1, 1, kernel=3, has_bias=False)
        out = conv2d(x, spec, np.ones((1, 1, 3, 3), np.float32))
        assert out[0, 0, 1, 1] == 1.0


class TestConvSpec:
    def test_groups_must_divide(self):
        with pytest.raises(ValidationError):
            ConvSpec(6, 4, kernel=1, groups=4)

    def test_kernel_restricted(self):
        with pytest.raises(ValidationError):
            ConvSpec(4, 4, kernel=5)

    @pytest.mark.parametrize("args", [(2.0, 2), (2, "2"), (2, 2, True), (2, 2, 1, 1.0), (2, 2, 1, 1, 1)],
                             ids=["in-float", "out-str", "kernel-bool", "groups-float", "bias-int"])
    def test_wrong_typed_field_rejected(self, args):
        with pytest.raises(ValidationError, match="is not a valid"):
            ConvSpec(*args)

    def test_numpy_integers_accepted(self):
        assert ConvSpec(np.int64(4), np.int32(4), np.int8(3), np.uint16(2)) == ConvSpec(4, 4, 3, 2)

    def test_param_count(self):
        assert ConvSpec(256, 256, kernel=3, has_bias=False).param_count == 589824
        assert ConvSpec(256, 256, kernel=3, has_bias=True).param_count == 589824 + 256
        assert ConvSpec(256, 256, kernel=1, groups=16, has_bias=False).param_count == 4096


def with_nonfinite(arr, value):
    arr = arr.copy()
    arr.flat[arr.size // 2] = value
    return arr


LAYER_RNG = np.random.default_rng(7)  # its own stream, so the other tests draw what they did before
BIASED = ConvSpec(4, 2, kernel=3, groups=2)
GOOD_WEIGHT = LAYER_RNG.standard_normal(BIASED.weight_shape).astype(np.float32)
GOOD_BIAS = LAYER_RNG.standard_normal(2).astype(np.float32)


class TestConvLayerContract:
    """The one weight/bias contract, checked where a ConvLayer is built."""

    @pytest.mark.parametrize("spec, weight, bias, error", [
        (BIASED, GOOD_WEIGHT[..., :1], GOOD_BIAS, ShapeError),
        (BIASED, GOOD_WEIGHT.ravel(), GOOD_BIAS, ShapeError),
        (BIASED, GOOD_WEIGHT, None, ValidationError),
        (dataclasses.replace(BIASED, has_bias=False), GOOD_WEIGHT, GOOD_BIAS, ValidationError),
        (BIASED, GOOD_WEIGHT, np.zeros(3, np.float32), ValidationError),
        (BIASED, GOOD_WEIGHT, GOOD_BIAS[:, None], ValidationError),
        (ConvSpec(4, 1), np.ones((1, 4, 1, 1), np.float32), np.float32(5), ValidationError),
        (BIASED, with_nonfinite(GOOD_WEIGHT, np.nan), GOOD_BIAS, ValidationError),
        (BIASED, with_nonfinite(GOOD_WEIGHT, -np.inf), GOOD_BIAS, ValidationError),
        (BIASED, GOOD_WEIGHT, with_nonfinite(GOOD_BIAS, np.nan), ValidationError),
        (BIASED, GOOD_WEIGHT, with_nonfinite(GOOD_BIAS, np.inf), ValidationError),
    ], ids=["weight-dims", "flat-weight", "bias-missing", "bias-on-bias-free-spec", "bias-length",
            "bias-rank-2", "scalar-bias", "weight-nan", "weight-inf", "bias-nan", "bias-inf"])
    def test_bad_arrays_rejected_at_construction(self, spec, weight, bias, error):
        with pytest.raises(error):
            ConvLayer(spec, weight, bias)

    def test_arrays_stored_as_contiguous_float32(self):
        weight = np.asfortranarray(GOOD_WEIGHT.astype(np.float64))
        layer = ConvLayer(BIASED, weight, GOOD_BIAS.astype(np.float64))
        for arr in (layer.weight, layer.bias):
            assert arr.dtype == np.float32 and arr.flags.c_contiguous
        np.testing.assert_array_equal(layer.weight, GOOD_WEIGHT)

    def test_float32_contiguous_arrays_are_not_copied(self):
        layer = ConvLayer(BIASED, GOOD_WEIGHT, GOOD_BIAS)
        assert layer.weight is GOOD_WEIGHT and layer.bias is GOOD_BIAS

    @pytest.mark.parametrize("field", ["spec", "weight", "bias"])
    def test_frozen(self, field):
        layer = ConvLayer(BIASED, GOOD_WEIGHT, GOOD_BIAS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(layer, field, getattr(layer, field))

    def test_conv2d_holds_the_same_contract(self):
        x = LAYER_RNG.standard_normal((1, 4, 5, 5)).astype(np.float32)
        with pytest.raises(ShapeError):
            conv2d(x, BIASED, GOOD_WEIGHT.ravel(), GOOD_BIAS)
        with pytest.raises(ValidationError):
            conv2d(x, BIASED, GOOD_WEIGHT)
        np.testing.assert_array_equal(conv2d(x, BIASED, GOOD_WEIGHT, GOOD_BIAS),
                                      ConvLayer(BIASED, GOOD_WEIGHT, GOOD_BIAS)(x))


class TestAdaptivePool:
    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_unit_windows_identity(self, mode):
        x = randf(1, 2, 4, 5)
        np.testing.assert_array_equal(adaptive_pool(x, 4, 5, mode), x)

    def test_global_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        assert adaptive_pool(x, 1, 1, "avg").item() == pytest.approx(7.5)
        assert adaptive_pool(x, 1, 1, "max").item() == 15.0

    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_5x5_to_2x2_matches_window_oracle(self, mode):
        x = randf(1, 1, 5, 5)
        out = adaptive_pool(x, 2, 2, mode)
        np.testing.assert_allclose(out, naive_adaptive_pool(x, 2, 2, mode), atol=1e-6)

    def test_full_avg_equals_mean(self):
        x = randf(2, 3, 9, 7)
        out = adaptive_pool(x, 1, 1, "avg")
        ref = x.astype(np.float64).mean(axis=(2, 3))
        np.testing.assert_allclose(out[:, :, 0, 0], ref, atol=1e-6)

    def test_output_larger_than_input(self):
        with pytest.raises(ShapeError):
            adaptive_pool(randf(1, 1, 3, 3), 4, 2, "avg")

    @pytest.mark.parametrize("mode", ["avg", "max"])
    @pytest.mark.parametrize("shape, out", [
        ((1, 2, 7, 5), (3, 4)),
        ((1, 3, 128, 128), (16, 16)),
        ((1, 2, 1, 9), (1, 4)),
        ((1, 2, 6, 5), (6, 5)),
        ((2, 3, 11, 8), (4, 3)),
    ], ids=["7x5-to-3x4", "128x128-to-16x16", "1xW", "out-equals-in", "batch2"])
    def test_matches_window_oracle(self, mode, shape, out):
        x = randf(*shape)
        np.testing.assert_allclose(adaptive_pool(x, *out, mode), naive_adaptive_pool(x, *out, mode),
                                   rtol=0, atol=1e-6)

    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_peak_memory_bounded_by_input(self, mode):
        # one group of 64 * BAND_ROWS // 128 = 8 planes at a time: avg 0.31x, max 0.16x
        x = randf(1, 64, 128, 128)
        adaptive_pool(x, 16, 16, mode)  # first call outside the measurement
        tracemalloc.start()
        try:
            adaptive_pool(x, 16, 16, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.4 * x.nbytes, f"peak {peak} B is {peak / x.nbytes:.2f}x the input"

    # 14 planes of 40 rows: BAND_ROWS 1, 9 and 40 give groups of 1, 3 (which does not divide 14) and
    # all 14 planes; the ids are the group sizes
    @pytest.mark.parametrize("band_rows", [1, 9, 40], ids=["1", "3", "14"])
    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_bitwise_equal_to_one_whole_map_group(self, mode, band_rows, monkeypatch):
        x = randf(2, 7, 40, 24)
        monkeypatch.setattr(tensor, "BAND_ROWS", band_rows)
        grouped = adaptive_pool(x, 6, 5, mode)
        monkeypatch.setattr(tensor, "BAND_ROWS", 10**6)
        assert grouped.tobytes() == adaptive_pool(x, 6, 5, mode).tobytes()

    @pytest.mark.parametrize("extents", [(2.5, 2), (2, True), (np.float64(2.0), 2), ("2", 2)],
                             ids=["float", "bool", "numpy-float", "str"])
    def test_non_integer_extents_rejected(self, extents):
        with pytest.raises(ValidationError, match="output extents must be integers"):
            adaptive_pool(randf(1, 2, 8, 8), *extents)

    @pytest.mark.parametrize("extents", [(0, 2), (2, -1)], ids=["zero", "negative"])
    def test_extents_below_one_are_shape_errors(self, extents):
        with pytest.raises(ShapeError, match="output extents must be integers >= 1"):
            adaptive_pool(randf(1, 2, 8, 8), *extents)

    def test_numpy_integer_extents_accepted(self):
        x = randf(1, 2, 8, 8)
        for mode in ("avg", "max"):
            got = adaptive_pool(x, np.int64(3), np.int32(2), mode)
            assert got.tobytes() == adaptive_pool(x, 3, 2, mode).tobytes()


class TestSigmoid:
    def test_bitwise_equal_to_two_branch_evaluation(self):
        # the masked sign branches sigmoid once used, written out
        x = np.concatenate([np.linspace(-120, 120, 400_001, dtype=np.float32),
                            np.float32([1e30, -1e30, 0.0, -0.0])])
        z = x.astype(np.float64)
        want = np.empty_like(z)
        pos = z >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        want[~pos] = ez / (1.0 + ez)
        got = sigmoid(x)
        assert got.dtype == np.float32
        assert got.tobytes() == want.astype(np.float32).tobytes()

    def test_saturates_exactly(self):
        assert sigmoid(np.float32([1e30, -1e30, 0.0])).tolist() == [1.0, 0.0, 0.5]


class TestUpsample2x:
    def test_single_pixel(self):
        x = np.full((1, 1, 1, 1), 5.0, np.float32)
        np.testing.assert_array_equal(upsample2x(x), np.full((1, 1, 2, 2), 5.0, np.float32))

    def test_block_replication(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32)
        out = upsample2x(x)[0, 0]
        expected = np.array(
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], np.float32
        )
        np.testing.assert_array_equal(out, expected)

    def test_stride2_roundtrip(self):
        x = randf(2, 3, 4, 5)
        up = upsample2x(x)
        np.testing.assert_array_equal(up[:, :, ::2, ::2], x)
        np.testing.assert_array_equal(up[:, :, 1::2, 1::2], x)


class TestPurity:
    def test_bitwise_repeatable(self):
        x = randf(2, 4, 6, 6)
        spec = ConvSpec(4, 4, kernel=3, groups=2)
        weight, bias = randf(*spec.weight_shape), randf(4)
        a = conv2d(x, spec, weight, bias)
        b = conv2d(x, spec, weight, bias)
        assert a.tobytes() == b.tobytes()
        assert adaptive_pool(x, 3, 3, "avg").tobytes() == adaptive_pool(x, 3, 3, "avg").tobytes()


class TestAsTensor:
    @pytest.mark.parametrize("value", [5.0, np.float32(1.5), None, np.array(2.0)])
    def test_rejects_scalar(self, value):
        with pytest.raises(ShapeError, match="scalar is not a tensor"):
            as_tensor(value)

    def test_rejects_rank5(self):
        with pytest.raises(ShapeError):
            as_tensor(np.zeros((1, 1, 1, 1, 1), np.float32))

    def test_rejects_zero_extent(self):
        with pytest.raises(ShapeError):
            as_tensor(np.zeros((2, 0), np.float32))

    def test_enforces_requested_rank(self):
        with pytest.raises(ShapeError):
            as_tensor(np.zeros((2, 2), np.float32), rank=4)
