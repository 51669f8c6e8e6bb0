import dataclasses

import numpy as np
import pytest

from hsfpn import (
    ConvLayer,
    ConvSpec,
    HfpParams,
    PyramidConfig,
    ValidationError,
    channel_path,
    hfp_forward,
    init_weights,
    spatial_path,
)
from hsfpn.hfp import hfp_specs
from hsfpn.pyramid import DEFAULT_FILTER_LEVELS, layer_specs
from hsfpn.sdp import sdp_specs

from oracles import naive_channel_path, naive_hfp_forward, naive_spatial_path

RNG = np.random.default_rng(314)


def rand_layer(rng, spec):
    weight = rng.uniform(-0.5, 0.5, size=spec.weight_shape).astype(np.float32)
    bias = rng.uniform(-0.5, 0.5, size=spec.out_channels).astype(np.float32) if spec.has_bias else None
    return ConvLayer(spec, weight, bias)


def make_params(channels=4, k=2, groups=1, bias=True, alpha=0.25, seed=0, squash=False):
    rng = np.random.default_rng(seed)
    return HfpParams(
        k=k,
        gap_conv=rand_layer(rng, ConvSpec(channels, channels, 1, groups, bias)),
        gmp_conv=rand_layer(rng, ConvSpec(channels, channels, 1, groups, bias)),
        merge_conv=rand_layer(rng, ConvSpec(2 * channels, channels, 1, groups, bias)),
        spatial_conv=rand_layer(rng, ConvSpec(channels, 1, 1, 1, bias)),
        fuse_conv=rand_layer(rng, ConvSpec(channels, channels, 3, 1, bias)),
        alpha=alpha,
        squash=squash,
    )


def zero_layer(spec, bias_value=0.0):
    bias = np.full(spec.out_channels, bias_value, np.float32) if spec.has_bias else None
    return ConvLayer(spec, np.zeros(spec.weight_shape, np.float32), bias)


def identity_fuse(channels):
    spec = ConvSpec(channels, channels, kernel=3, has_bias=False)
    weight = np.zeros(spec.weight_shape, np.float32)
    for c in range(channels):
        weight[c, c, 1, 1] = 1.0
    return ConvLayer(spec, weight)


class TestChannelPath:
    def test_zero_input_no_bias_gives_zero(self):
        params = make_params(channels=4, k=2, bias=False)
        out = channel_path(np.zeros((1, 4, 6, 6), np.float32), params)
        np.testing.assert_array_equal(out, np.zeros((1, 4, 1, 1), np.float32))

    def test_zero_input_bias_pattern(self):
        params = make_params(channels=4, k=2, bias=True, seed=3)
        out = channel_path(np.zeros((2, 4, 6, 6), np.float32), params)
        # zero input leaves only the bias chain: gap/gmp biases, then merge
        ref = naive_channel_path(np.zeros((2, 4, 6, 6)), params)
        np.testing.assert_allclose(out, ref, atol=1e-6)
        assert np.abs(out).max() > 0

    def test_k_equals_extent_reduces_to_relu_sum(self):
        c = 3
        params = make_params(channels=c, k=4, bias=False)
        f = RNG.standard_normal((1, c, 4, 4)).astype(np.float32)
        out = channel_path(f, params)
        ref = naive_channel_path(f, params)
        np.testing.assert_allclose(out, ref, atol=1e-5)

    @pytest.mark.parametrize("groups", [1, 2])
    def test_matches_stage_oracle(self, groups):
        params = make_params(channels=4, k=2, groups=groups, seed=11)
        f = RNG.standard_normal((2, 4, 8, 8)).astype(np.float32)
        np.testing.assert_allclose(channel_path(f, params), naive_channel_path(f, params),
                                   atol=1e-5)

    def test_output_dims(self):
        params = make_params(channels=4, k=3)
        out = channel_path(RNG.standard_normal((2, 4, 9, 7)).astype(np.float32), params)
        assert out.shape == (2, 4, 1, 1)

    def test_extent_smaller_than_k(self):
        # k=8 on a 4x3 map pools to 3x3, exactly as k=3 does
        params = make_params(channels=4, k=8, seed=9)
        capped = dataclasses.replace(params, k=3)
        f = RNG.standard_normal((2, 4, 4, 3)).astype(np.float32)
        out = channel_path(f, params)
        assert out.tobytes() == channel_path(f, capped).tobytes()
        assert hfp_forward(f, params).tobytes() == hfp_forward(f, capped).tobytes()
        np.testing.assert_allclose(out, naive_channel_path(f, params), atol=1e-5)

    def test_window_permutation_invariance_avg_branch(self):
        # zero the max branch; permuting pixels inside pooling windows must not change u_cp
        c, k = 4, 2
        params = make_params(channels=c, k=k, bias=True, seed=5)
        params = dataclasses.replace(params, gmp_conv=zero_layer(params.gmp_conv.spec))
        f = RNG.standard_normal((1, c, 8, 8)).astype(np.float32)
        g = f.copy()
        # swap two pixels inside the same 4x4 pooling window
        g[:, :, 0, 0], g[:, :, 3, 3] = f[:, :, 3, 3].copy(), f[:, :, 0, 0].copy()
        np.testing.assert_allclose(channel_path(f, params), channel_path(g, params), atol=1e-6)


class TestSpatialPath:
    def test_averaging_kernel_gives_channel_mean(self):
        c = 4
        params = make_params(channels=c)
        spec = ConvSpec(c, 1, kernel=1, has_bias=False)
        averaging = ConvLayer(spec, np.full(spec.weight_shape, 1.0 / c, np.float32))
        params = dataclasses.replace(params, spatial_conv=averaging)
        f = RNG.standard_normal((2, c, 5, 5)).astype(np.float32)
        out = spatial_path(f, params)
        np.testing.assert_allclose(out[:, 0], f.mean(axis=1), atol=1e-6)

    def test_zero_input_bias_constant(self):
        params = make_params(channels=4, seed=8)
        f = np.zeros((1, 4, 5, 5), np.float32)
        out = spatial_path(f, params)
        np.testing.assert_array_equal(out, np.full_like(out, params.spatial_conv.bias[0]))

    def test_matches_per_pixel_oracle(self):
        params = make_params(channels=6, seed=2)
        f = RNG.standard_normal((2, 6, 4, 7)).astype(np.float32)
        np.testing.assert_allclose(spatial_path(f, params), naive_spatial_path(f, params),
                                   atol=1e-6)

    def test_translation_commutes(self):
        params = make_params(channels=3)
        f = RNG.standard_normal((1, 3, 6, 6)).astype(np.float32)
        shifted = np.roll(f, shift=(2, 1), axis=(2, 3))
        out = spatial_path(f, params)
        out_shifted = spatial_path(shifted, params)
        np.testing.assert_array_equal(np.roll(out, shift=(2, 1), axis=(2, 3)), out_shifted)


class TestHfpForward:
    def test_zero_input_fuse_bias_pattern(self):
        params = make_params(channels=4, k=2, bias=True, seed=7)
        out = hfp_forward(np.zeros((1, 4, 6, 6), np.float32), params)
        expected = np.broadcast_to(
            params.fuse_conv.bias.reshape(1, 4, 1, 1), out.shape
        ).astype(np.float32)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_forced_unit_weights_give_two_c(self):
        c = 3
        params = make_params(channels=c, k=2, bias=True, alpha=0.0)
        params = dataclasses.replace(
            params,
            gap_conv=zero_layer(params.gap_conv.spec),
            gmp_conv=zero_layer(params.gmp_conv.spec),
            merge_conv=zero_layer(params.merge_conv.spec, bias_value=1.0),
            spatial_conv=zero_layer(params.spatial_conv.spec, bias_value=1.0),
            fuse_conv=identity_fuse(c),
        )
        x = RNG.standard_normal((1, c, 6, 6)).astype(np.float32)
        np.testing.assert_array_equal(hfp_forward(x, params), 2 * x)

    def test_matches_composed_oracle(self):
        params = make_params(channels=4, k=2, alpha=0.25, seed=13)
        x = RNG.standard_normal((1, 4, 8, 8)).astype(np.float32)
        out = hfp_forward(x, params)
        ref = naive_hfp_forward(x, params, alpha=0.25)
        np.testing.assert_allclose(out, ref, atol=1e-4)

    def test_disabled_level_uses_raw_input(self):
        # a level outside filter_levels runs with alpha 0: the paths see the raw input
        params = make_params(channels=4, k=2, alpha=0.0, seed=13)
        x = RNG.standard_normal((1, 4, 8, 8)).astype(np.float32)
        out = hfp_forward(x, params)
        ref = naive_hfp_forward(x, params, alpha=0.0)
        np.testing.assert_allclose(out, ref, atol=1e-4)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.8, 1.0])
    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    def test_dims_preserved(self, alpha, level):
        # the alpha the pyramid gives `level` by default
        params = make_params(channels=4, k=2, alpha=alpha if level in DEFAULT_FILTER_LEVELS else 0.0)
        x = RNG.standard_normal((2, 4, 8, 8)).astype(np.float32)
        assert hfp_forward(x, params).shape == x.shape

    def test_disabled_filter_independent_of_alpha(self):
        x = RNG.standard_normal((1, 4, 8, 8)).astype(np.float32)
        outs = []
        for alpha in (0.0, 0.3, 0.9):
            config = PyramidConfig(channels=4, alpha=alpha, k=2, groups=1, seed=21, filter_levels=())
            outs.append(hfp_forward(x, init_weights(config).hfp_params(2)).tobytes())
        assert outs[0] == outs[1] == outs[2]

    def test_squash_flag_changes_output(self):
        x = RNG.standard_normal((1, 4, 8, 8)).astype(np.float32)
        plain = hfp_forward(x, make_params(channels=4, k=2, seed=4))
        squashed = hfp_forward(x, make_params(channels=4, k=2, seed=4, squash=True))
        assert not np.array_equal(plain, squashed)

    @pytest.mark.parametrize("role", ["gap_conv", "gmp_conv", "merge_conv", "spatial_conv"])
    def test_3x3_in_a_1x1_role_rejected(self, role):
        params = make_params(channels=4)
        spec = dataclasses.replace(getattr(params, role).spec, kernel=3)
        with pytest.raises(ValidationError, match=f"{role} must be a 1x1"):
            dataclasses.replace(params, **{role: rand_layer(RNG, spec)})

    @pytest.mark.parametrize("fault", ["kernel", "in_channels", "out_channels"])
    @pytest.mark.parametrize("module,role", [("hfp", role) for role in hfp_specs(1)]
                             + [("sdp", role) for role in sdp_specs(1)])
    def test_layer_shape_checked_per_role(self, module, role, fault):
        # the spec layer_specs gives a role is accepted; one wrong kernel or
        # channel count is not
        config = PyramidConfig(channels=4, k=2, groups=2)
        weights = init_weights(config)
        params = weights.hfp_params(2) if module == "hfp" else weights.sdp_params(2, 1, 1)
        spec = layer_specs(config)[f"{module}2.{role}"]
        dataclasses.replace(params, **{role: rand_layer(RNG, spec)})
        wrong = 4 - spec.kernel if fault == "kernel" else 2 * getattr(spec, fault)
        bad = dataclasses.replace(spec, **{fault: wrong})
        with pytest.raises(ValidationError, match=f"{role} must be a {spec.kernel}x{spec.kernel} convolution"):
            dataclasses.replace(params, **{role: rand_layer(RNG, bad)})

    @pytest.mark.parametrize("alpha", [-0.1, 1.5])
    def test_alpha_out_of_range_rejected(self, alpha):
        with pytest.raises(ValidationError, match="alpha"):
            make_params(alpha=alpha)
