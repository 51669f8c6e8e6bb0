import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from hsfpn import (
    ConvLayer,
    ConvSpec,
    CostModel,
    FeaturePyramid,
    HsfpnWeights,
    PyramidConfig,
    ShapeError,
    ValidationError,
    attention_cost,
    count_params,
    highfreq_response,
    hsfpn_forward,
    init_weights,
    random_pyramid,
    read_pyramid_dir,
    read_tensor,
    write_pyramid_dir,
)
from hsfpn import io as hio
from hsfpn.cost import LayerCost, OpCostReport, render
from hsfpn.pyramid import layer_specs, level_extents

from oracles import naive_fpn_forward, naive_hsfpn_forward

RNG = np.random.default_rng(424242)

SMALL = PyramidConfig(channels=4, alpha=0.25, k=2, groups=2, seed=1)
NON_DEFAULT = PyramidConfig(channels=8, alpha=0.5, k=3, groups=4, fusion_mode="sdp_plus_add",
                            mode="fpn_baseline", seed=9, filter_levels=(2, 3, 4, 5),
                            conv_bias=False, sdp_bias=True, squash=True)


def small_pyramid(seed=0, channels=4, base=(16, 16)):
    return random_pyramid(channels, base_hw=base, seed=seed)


def old_manifest(kind, pyr, prefix="c"):
    """A manifest.json as earlier versions wrote it beside the level files of `pyr`.

    kind "parent" is the text they wrote; "stale" names another prefix, other
    files and other dims; "not-json" is not JSON.
    """
    if kind == "not-json":
        return "{"
    stale = kind == "stale"
    prefix = "p" if stale else prefix
    levels = {str(lv): {"file": f"{prefix}{lv}.pft", "dims": [9, 9] if stale else list(t.shape)}
              for lv, t in pyr.items()}
    return json.dumps({"format": "PFT1", "prefix": prefix, "levels": levels}, indent=2) + "\n"


def replace_layers(weights, layers):
    """`weights` with the named layers swapped in, rebuilt (and checked) by the constructor."""
    return dataclasses.replace(weights, layers={**weights.layers, **layers})


def zeroed(layer):
    bias = np.zeros_like(layer.bias) if layer.bias is not None else None
    return ConvLayer(layer.spec, np.zeros_like(layer.weight), bias)


class TestFeaturePyramid:
    def test_missing_level(self):
        levels = {lv: np.zeros((1, 2, 16 >> (lv - 2), 16 >> (lv - 2)), np.float32) for lv in (2, 3, 4)}
        with pytest.raises(ShapeError):
            FeaturePyramid(levels)

    def test_nesting_violation(self):
        levels = {
            2: np.zeros((1, 2, 16, 16), np.float32),
            3: np.zeros((1, 2, 8, 8), np.float32),
            4: np.zeros((1, 2, 4, 4), np.float32),
            5: np.zeros((1, 2, 3, 2), np.float32),
        }
        with pytest.raises(ShapeError):
            FeaturePyramid(levels)

    def test_batch_mismatch(self):
        levels = {lv: np.zeros((1 + (lv == 3), 2, 16 >> (lv - 2), 16 >> (lv - 2)), np.float32)
                  for lv in (2, 3, 4, 5)}
        with pytest.raises(ShapeError):
            FeaturePyramid(levels)

    def test_extents_and_channels(self):
        pyr = small_pyramid()
        assert pyr.extents(2) == (16, 16) and pyr.extents(5) == (2, 2)
        assert [pyr.channels(lv) for lv in (2, 3, 4, 5)] == [4] * 4 and pyr.channels() == 4


class TestInitWeights:
    def test_same_seed_bitwise(self):
        a = init_weights(SMALL)
        b = init_weights(SMALL)
        assert a.layers["hfp2.fuse_conv"].weight.tobytes() == b.layers["hfp2.fuse_conv"].weight.tobytes()
        assert a.layers["sdp3.q_conv"].weight.tobytes() == b.layers["sdp3.q_conv"].weight.tobytes()
        assert a.out_convs[5].weight.tobytes() == b.out_convs[5].weight.tobytes()

    def test_different_seed_differs(self):
        a = init_weights(SMALL)
        b = init_weights(dataclasses.replace(SMALL, seed=2))
        assert a.layers["hfp2.fuse_conv"].weight.tobytes() != b.layers["hfp2.fuse_conv"].weight.tobytes()

    def test_fan_in_bound(self):
        weights = init_weights(SMALL)
        for lv in (2, 3, 4, 5):
            params = weights.hfp_params(lv)
            for layer in (params.gap_conv, params.gmp_conv, params.merge_conv,
                          params.spatial_conv, params.fuse_conv):
                spec = layer.spec
                fan_in = (spec.in_channels // spec.groups) * spec.kernel ** 2
                assert np.abs(layer.weight).max() <= np.sqrt(3.0 / fan_in)
        for layer in weights.out_convs.values():
            fan_in = layer.spec.in_channels * 9
            assert np.abs(layer.weight).max() <= np.sqrt(3.0 / fan_in)

    def test_disabled_level_bitwise_identical(self):
        # filter_levels run with config.alpha, every other level with alpha 0,
        # which returns the level's input unchanged
        x = RNG.standard_normal((1, 4, 8, 8)).astype(np.float32)
        for levels in [(), (2, 3), (2, 3, 4, 5)]:
            config = dataclasses.replace(SMALL, alpha=0.3, filter_levels=levels)
            weights = init_weights(config)
            for lv in (2, 3, 4, 5):
                alpha = weights.hfp_params(lv).alpha
                assert alpha == (config.alpha if lv in levels else 0.0), (levels, lv)
                if lv not in levels:
                    assert highfreq_response(x, alpha).tobytes() == x.tobytes()

    # sha256 over each layer's name, weight bytes and (if any) bias bytes, in
    # layer_specs order: pins init_weights' draw order, layer names and bounds.
    @pytest.mark.parametrize("config, digest", [
        (SMALL, "d8d46604cb96032b570099e758cb8a46379dd111e9f028bbd0db564c0e2a2f4a"),
        (NON_DEFAULT, "94eca86d0ece2c3e3d512ff58d87ecf6c52adc09c0633a78269b6df68c7fa654"),
    ], ids=["small", "non-default"])
    def test_draws_pinned(self, config, digest):
        sha = hashlib.sha256()
        for name, layer in init_weights(config).layers.items():
            sha.update(name.encode())
            sha.update(layer.weight.tobytes())
            if layer.bias is not None:
                sha.update(layer.bias.tobytes())
        assert sha.hexdigest() == digest

    def test_sdp_projections_bias_free_by_default(self):
        weights = init_weights(SMALL)
        for lv in (2, 3, 4):
            p = weights.sdp_params(lv, 1, 1)
            assert p.q_conv.bias is None and p.k_conv.bias is None and p.v_conv.bias is None


def drop(name):
    return lambda layers: layers.pop(name)


def swap(name, build):
    return lambda layers: layers.update({name: build(layers)})


BIAS_FREE = dataclasses.replace(layer_specs(SMALL)["out2.conv"], has_bias=False)


class TestWeightTable:
    """HsfpnWeights is a config plus its {name: ConvLayer} layers, checked once where built."""

    @pytest.mark.parametrize("edit, match", [
        (swap("hfp2.fuse_conv", lambda layers: layers["hfp2.gap_conv"]), "hfp2.fuse_conv: spec"),
        (swap("out2.conv", lambda layers: ConvLayer(BIAS_FREE, layers["out2.conv"].weight)), "out2.conv: spec"),
        (swap("sdp3.k_conv", lambda layers: layers["sdp3.k_conv"].weight), "sdp3.k_conv: expected a ConvLayer"),
        (drop("sdp3.k_conv"), r"missing layers \['sdp3.k_conv'\]"),
        (swap("hfp6.gap_conv", lambda layers: layers["hfp5.gap_conv"]), r"not of the config \['hfp6.gap_conv'\]"),
    ], ids=["1x1-in-3x3-role", "bias-free-under-conv-bias", "not-a-layer", "missing", "extra"])
    def test_bad_table_rejected(self, edit, match):
        layers = dict(init_weights(SMALL).layers)
        edit(layers)
        with pytest.raises(ValidationError, match=match):
            HsfpnWeights(SMALL, layers)

    def test_frozen_two_fields_read_only_layers(self):
        weights = init_weights(SMALL)
        assert [f.name for f in dataclasses.fields(weights)] == ["config", "layers"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            weights.config = NON_DEFAULT
        with pytest.raises(TypeError):
            weights.layers["hfp2.fuse_conv"] = weights.layers["out2.conv"]
        with pytest.raises(TypeError):
            weights.out_convs[2] = weights.layers["out3.conv"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            weights.hfp_params(2).fuse_conv = weights.layers["hfp2.gap_conv"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            weights.sdp_params(2, 2, 2).block_h = 1

    def test_level_params_built_from_the_table_and_config(self):
        config = dataclasses.replace(SMALL, alpha=0.6, squash=True, filter_levels=(3,))
        weights = init_weights(config)
        for lv in (2, 3, 4, 5):
            p = weights.hfp_params(lv)
            assert (p.k, p.alpha, p.squash) == (config.k, 0.6 if lv == 3 else 0.0, True)
            for role in ("gap_conv", "gmp_conv", "merge_conv", "spatial_conv", "fuse_conv"):
                assert getattr(p, role) is weights.layers[f"hfp{lv}.{role}"]
        for lv in (2, 3, 4):
            p = weights.sdp_params(lv, 3, 5)
            assert (p.block_h, p.block_w) == (3, 5)
            for role in ("q_conv", "k_conv", "v_conv"):
                assert getattr(p, role) is weights.layers[f"sdp{lv}.{role}"]

    def test_rebuilt_weights_save_load_forward_bitwise(self):
        # layers built by hand, given in reverse order: stored in layer_specs
        # order, and run with weights of their own
        rng = np.random.default_rng(77)
        layers = {}
        for name, spec in reversed(layer_specs(SMALL).items()):
            bias = rng.uniform(-1, 1, spec.out_channels).astype(np.float32) if spec.has_bias else None
            layers[name] = ConvLayer(spec, rng.uniform(-1, 1, spec.weight_shape).astype(np.float32), bias)
        rebuilt = HsfpnWeights(SMALL, layers)
        assert list(rebuilt.layers) == list(layer_specs(SMALL))
        pyr = small_pyramid(seed=31)
        assert hsfpn_forward(pyr, rebuilt)[2].tobytes() != hsfpn_forward(pyr, init_weights(SMALL))[2].tobytes()


class TestForward:
    def test_shape_invariant_and_determinism(self):
        weights = init_weights(SMALL)
        pyr = small_pyramid()
        out1 = hsfpn_forward(pyr, weights)
        out2 = hsfpn_forward(pyr, weights)
        for lv in (2, 3, 4, 5):
            assert out1[lv].shape == pyr[lv].shape
            assert out1[lv].tobytes() == out2[lv].tobytes()

    def test_zero_input_deterministic_bias_cascade(self):
        weights = init_weights(SMALL)
        levels = {lv: np.zeros((1, 4, 16 >> (lv - 2), 16 >> (lv - 2)), np.float32)
                  for lv in (2, 3, 4, 5)}
        pyr = FeaturePyramid(levels)
        a = hsfpn_forward(pyr, weights)
        b = hsfpn_forward(pyr, weights)
        for lv in (2, 3, 4, 5):
            assert a[lv].tobytes() == b[lv].tobytes()
            assert np.isfinite(a[lv]).all()

    def test_fpn_baseline_matches_handwritten_oracle(self):
        config = dataclasses.replace(SMALL, mode="fpn_baseline")
        weights = init_weights(config)
        pyr = small_pyramid(seed=3)
        out = hsfpn_forward(pyr, weights)
        ref = naive_fpn_forward({lv: pyr[lv] for lv in (2, 3, 4, 5)}, weights.out_convs)
        for lv in (2, 3, 4, 5):
            np.testing.assert_allclose(out[lv], ref[lv], atol=1e-5)

    @pytest.mark.parametrize("fusion", ["sdp_only", "sdp_plus_add"])
    def test_matches_end_to_end_oracle(self, fusion):
        config = dataclasses.replace(SMALL, fusion_mode=fusion)
        weights = init_weights(config)
        pyr = small_pyramid(seed=5)
        out = hsfpn_forward(pyr, weights)
        ref = naive_hsfpn_forward({lv: pyr[lv] for lv in (2, 3, 4, 5)}, weights, config.alpha)
        for lv in (2, 3, 4, 5):
            np.testing.assert_allclose(out[lv], ref[lv], atol=1e-4)

    def test_modes_differ_but_shapes_match(self):
        pyr = small_pyramid(seed=7)
        out_h = hsfpn_forward(pyr, init_weights(SMALL))
        out_f = hsfpn_forward(pyr, init_weights(dataclasses.replace(SMALL, mode="fpn_baseline")))
        for lv in (2, 3, 4, 5):
            assert out_h[lv].shape == out_f[lv].shape
        assert any(not np.array_equal(out_h[lv], out_f[lv]) for lv in (2, 3, 4, 5))

    def test_zeroed_sdp_leaves_top_level_bitwise(self):
        weights = init_weights(SMALL)
        pyr = small_pyramid(seed=11)
        base = hsfpn_forward(pyr, weights)
        weights = replace_layers(weights, {name: zeroed(layer) for name, layer in weights.layers.items()
                                           if name.startswith("sdp")})
        out = hsfpn_forward(pyr, weights)
        assert out[5].tobytes() == base[5].tobytes()
        assert any(not np.array_equal(out[lv], base[lv]) for lv in (2, 3, 4))

    def test_pool_extent_clamped_at_small_top_level(self):
        # k=16 exceeds levels 3..5 (8x8 down to 2x2): each pools to its own extents
        pyr = small_pyramid(seed=13)
        for fusion_mode in ("sdp_only", "sdp_plus_add"):
            config = dataclasses.replace(SMALL, k=16, fusion_mode=fusion_mode)
            weights = init_weights(config)
            out = hsfpn_forward(pyr, weights)
            assert out[5].shape == (1, 4, 2, 2)
            ref = naive_hsfpn_forward({lv: pyr[lv] for lv in (2, 3, 4, 5)}, weights, config.alpha)
            for lv in (2, 3, 4, 5):
                np.testing.assert_allclose(out[lv], ref[lv], atol=1e-4)

    def test_channel_mismatch_rejected(self):
        weights = init_weights(SMALL)
        with pytest.raises(ShapeError):
            hsfpn_forward(small_pyramid(channels=8), weights)

    @pytest.mark.parametrize("mode, fusion_mode", [("hsfpn", "sdp_only"), ("hsfpn", "sdp_plus_add"),
                                                   ("fpn_baseline", "sdp_only")])
    def test_input_pyramid_unchanged(self, mode, fusion_mode):
        # levels 3..5 lie outside filter_levels, where the filter returns its input array itself
        config = dataclasses.replace(SMALL, mode=mode, fusion_mode=fusion_mode, filter_levels=(2,))
        pyr = random_pyramid(4, base_hw=(40, 24), batch=2, seed=17)
        before = {lv: pyr[lv].tobytes() for lv in (2, 3, 4, 5)}
        out = hsfpn_forward(pyr, init_weights(config))
        for lv in (2, 3, 4, 5):
            assert pyr[lv].tobytes() == before[lv], lv
            assert not np.shares_memory(out[lv], pyr[lv]), lv

    def test_peak_memory_bounded_by_level_2_input(self):
        # mid scale: 64 channels, level 2 at 128x128; measured 3.49x, set by the level-2
        # fuse conv's input, output and band workspace beside the outputs
        config = PyramidConfig(channels=64, alpha=0.25, k=16, groups=16, seed=0)
        weights = init_weights(config)
        pyr = random_pyramid(64, base_hw=(128, 128), seed=1)
        hsfpn_forward(pyr, weights)  # first call outside the measurement
        tracemalloc.start()
        try:
            hsfpn_forward(pyr, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.6 * pyr[2].nbytes, f"peak {peak} B is {peak / pyr[2].nbytes:.2f}x level 2"


class TestDegenerateCollapse:
    def test_forced_weights_reduce_to_fpn(self):
        config = dataclasses.replace(
            SMALL, alpha=0.0, filter_levels=(2, 3, 4, 5), fusion_mode="sdp_plus_add"
        )
        weights = init_weights(config)
        channels = config.channels

        identity = np.zeros((channels, channels, 3, 3), np.float32)
        for c in range(channels):
            identity[c, c, 1, 1] = 1.0

        forced = {}
        for lv in (2, 3, 4, 5):
            p = weights.hfp_params(lv)
            half = np.full(channels, 0.5, np.float32)
            forced.update({
                f"hfp{lv}.gap_conv": ConvLayer(p.gap_conv.spec, np.zeros_like(p.gap_conv.weight),
                                               np.zeros(channels, np.float32)),
                f"hfp{lv}.gmp_conv": ConvLayer(p.gmp_conv.spec, np.zeros_like(p.gmp_conv.weight),
                                               np.zeros(channels, np.float32)),
                f"hfp{lv}.merge_conv": ConvLayer(p.merge_conv.spec, np.zeros_like(p.merge_conv.weight), half),
                f"hfp{lv}.spatial_conv": ConvLayer(p.spatial_conv.spec, np.zeros_like(p.spatial_conv.weight),
                                                   np.full(1, 0.5, np.float32)),
                # the config's spec (conv_bias=True) with a zero bias: the identity still
                f"hfp{lv}.fuse_conv": ConvLayer(p.fuse_conv.spec, identity, np.zeros(channels, np.float32)),
            })
        for lv in (2, 3, 4):
            forced[f"sdp{lv}.v_conv"] = zeroed(weights.layers[f"sdp{lv}.v_conv"])
        weights = replace_layers(weights, forced)

        fpn_weights = init_weights(dataclasses.replace(config, mode="fpn_baseline"))
        # shared output convolutions
        fpn_weights = replace_layers(fpn_weights, {f"out{lv}.conv": weights.out_convs[lv]
                                                   for lv in (2, 3, 4, 5)})

        pyr = small_pyramid(seed=17)
        collapsed = hsfpn_forward(pyr, weights)
        baseline = hsfpn_forward(pyr, fpn_weights)
        for lv in (2, 3, 4, 5):
            np.testing.assert_allclose(collapsed[lv], baseline[lv], atol=1e-5)


class TestCountParams:
    def test_fuse_conv_count_matches_reference_delta(self):
        config = PyramidConfig(channels=256, conv_bias=False)
        report = count_params(config, base_hw=(200, 200))
        assert report.per_level[2]["hfp_fuse"].params == 589824
        fuse_total = report.module_total("hfp_fuse").params
        assert fuse_total == 4 * 589824 == 2359296
        assert abs(fuse_total - 2.36e6) / 2.36e6 < 0.02

    def test_sdp_projection_count(self):
        config = PyramidConfig(channels=256, conv_bias=False)
        report = count_params(config, base_hw=(200, 200))
        assert report.module_total("sdp").params == 3 * 3 * 256 * 256 == 589824

    def test_sdp_keys_and_values_count_at_upper_extents(self):
        # q at 200x200, k and v at the level above (100x100), attention on n*(hw)^2*c
        config = PyramidConfig(channels=256, conv_bias=False)
        report = count_params(config, base_hw=(200, 200))
        attention = attention_cost(CostModel(64, 25, 25, 256), "sdp")
        assert report.per_level[2]["sdp"].macs == 256 ** 2 * (200 ** 2 + 2 * 100 ** 2) + attention
        assert report.per_level[2]["sdp"].macs == 16_732_160_000
        assert report.total.macs == 53_309_025_536

    def test_disabled_modules_count_zero(self):
        config = PyramidConfig(channels=256)
        report = count_params(config, base_hw=(200, 200),
                              with_cp=False, with_sp=False, with_sdp=False)
        assert report.total.params == 0 and report.total.macs == 0

    def test_macs_scale_with_resolution(self):
        config = PyramidConfig(channels=64, groups=8, conv_bias=False)
        small = count_params(config, base_hw=(64, 64))
        large = count_params(config, base_hw=(128, 128))
        assert large.per_level[2]["hfp_fuse"].macs == 4 * small.per_level[2]["hfp_fuse"].macs
        assert large.total.params == small.total.params

    def test_report_formats(self):
        config = PyramidConfig(channels=32, groups=4, conv_bias=False)
        report = count_params(config, base_hw=(64, 64))
        d = report.to_dict()
        assert "per_level" in d and "total" in d
        assert "level,module,params,macs" in render(report.rows(), "csv")
        assert "hfp_fuse" in render(report.rows(), "table")

    def test_repeated_add_accumulates(self):
        report = OpCostReport()
        report.add(2, "sdp", 3, 10)
        report.add(2, "sdp", 4, 20)
        report.add(3, "sdp", 5, 0)
        assert report.per_level[2]["sdp"] == LayerCost(7, 30)
        assert report.module_total("sdp") == LayerCost(12, 30)

    def test_absent_module_totals_zero(self):
        report = count_params(PyramidConfig(channels=256), base_hw=(200, 200))
        assert report.module_total("no_such_module") == LayerCost(0, 0)
        assert OpCostReport().total == LayerCost(0, 0)

    def test_total_is_sum_of_module_totals(self):
        report = count_params(PyramidConfig(channels=256), base_hw=(200, 200))
        modules = {m for mods in report.per_level.values() for m in mods}
        assert modules == {"cp", "sp", "hfp_fuse", "sdp"}
        summed = sum((report.module_total(m) for m in modules), LayerCost())
        assert report.total == summed and summed.macs > 0

    def test_indivisible_base_rejected(self):
        with pytest.raises(ValidationError):
            count_params(PyramidConfig(channels=32, groups=4), base_hw=(100, 100))


class TestPyramidIo:
    def test_dir_roundtrip(self, tmp_path):
        pyr = small_pyramid(seed=19)
        write_pyramid_dir(tmp_path / "pyr", pyr, prefix="c")
        back = read_pyramid_dir(tmp_path / "pyr", prefix="c")
        for lv in (2, 3, 4, 5):
            assert back[lv].tobytes() == pyr[lv].tobytes()

    @pytest.mark.parametrize("prefix", ["../esc", "", "a/b", "c2", "é", 5, None])
    def test_bad_prefix_refused_before_any_file_is_read(self, prefix, tmp_path):
        # the directory is empty: reading a level would raise FileNotFoundError instead
        (tmp_path / "pyr").mkdir()
        with pytest.raises(ValidationError, match="prefix must be"):
            read_pyramid_dir(tmp_path / "pyr", prefix=prefix)

    @pytest.mark.parametrize("manifest", ["parent", "stale", "not-json"])
    def test_directory_with_a_manifest_reads(self, manifest, tmp_path, monkeypatch):
        # earlier versions wrote a manifest.json beside the level files; it is never opened
        pyr = small_pyramid(seed=5)
        write_pyramid_dir(tmp_path / "pyr", pyr, prefix="c")
        (tmp_path / "pyr" / "manifest.json").write_text(old_manifest(manifest, pyr))
        reads = []
        monkeypatch.setattr(hio, "read_tensor", lambda path: reads.append(path.name) or read_tensor(path))
        back = read_pyramid_dir(tmp_path / "pyr", prefix="c")
        assert reads == ["c2.pft", "c3.pft", "c4.pft", "c5.pft"]
        for lv in (2, 3, 4, 5):
            assert back[lv].tobytes() == pyr[lv].tobytes()

    def test_other_prefix_is_not_read(self, tmp_path):
        # an earlier forward's output directory holds p2..p5.pft, not c2..c5.pft
        write_pyramid_dir(tmp_path / "pyr", small_pyramid(), prefix="p")
        with pytest.raises(FileNotFoundError, match="c2.pft"):
            read_pyramid_dir(tmp_path / "pyr", prefix="c")

    # A `sha256sum`-style listing ("<sha256>  <name>" per file, sorted by name)
    # of the files write_pyramid_dir writes: pins the PFT1 encoding and the
    # file names. The digests are those of the same four files as written
    # when the directory also held a manifest.json.
    @pytest.mark.parametrize("seed, digest", [
        (0, "7550a65552eeaa26740c005957cfac9ec0c7c412370da86d6dffd2392f69ec1a"),
        (1, "64a16298932ad100485c2ed58dc5134489866009bd82babd64c7aed1951bb1dc"),
    ], ids=["seed0", "seed1"])
    def test_written_files_pinned(self, tmp_path, seed, digest):
        write_pyramid_dir(tmp_path / "pyr", random_pyramid(4, (8, 8), seed=seed))
        paths = sorted((tmp_path / "pyr").iterdir())
        listing = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n" for p in paths)
        assert [p.name for p in paths] == ["p2.pft", "p3.pft", "p4.pft", "p5.pft"]
        assert hashlib.sha256(listing.encode()).hexdigest() == digest, listing

    def test_nonfinite_level_writes_no_directory(self, tmp_path):
        levels = {lv: t.copy() for lv, t in small_pyramid(seed=3).items()}
        levels[4][0, 1, 0, 0] = np.inf
        with pytest.raises(ValidationError, match="output level 4 contains non-finite values"):
            write_pyramid_dir(tmp_path / "pyr", FeaturePyramid(levels))
        assert list(tmp_path.iterdir()) == []

    def test_layer_missing_its_bias_rejected_where_built(self):
        # refused where it is built, before a forward pass can use it
        weights = init_weights(SMALL)
        spec = weights.out_convs[2].spec
        assert spec.has_bias
        with pytest.raises(ValidationError, match="bias"):
            weights.out_convs[2] = ConvLayer(spec, weights.out_convs[2].weight)

    def test_wrong_size_weight_rejected_where_built(self):
        # a ShapeError naming the dims, not a numpy reshape error inside a forward pass
        layer = init_weights(SMALL).out_convs[3]
        with pytest.raises(ShapeError, match="weight dims"):
            ConvLayer(layer.spec, layer.weight[..., :1, :1], layer.bias)

    def test_weight_written_after_build_caught_by_forward(self):
        # a layer's arrays stay writable; conv2d checks them again as a ConvLayer on every call
        weights = init_weights(SMALL)
        weights.out_convs[3].weight[0, 0, 1, 1] = np.nan
        with pytest.raises(ValidationError, match="convolution weight contains non-finite values"):
            hsfpn_forward(small_pyramid(), weights)


class TestRandomPyramid:
    def test_seeded_reproducible(self):
        a = small_pyramid(seed=1)
        b = small_pyramid(seed=1)
        for lv in (2, 3, 4, 5):
            assert a[lv].tobytes() == b[lv].tobytes()

    def test_base_must_be_multiple_of_eight(self):
        with pytest.raises(ValidationError):
            random_pyramid(4, base_hw=(20, 20))

    @pytest.mark.parametrize("base", [(0, 8), (4, 4), (8, 12), (-8, 8)])
    def test_same_bases_rejected_as_count_params(self, base):
        with pytest.raises(ValidationError, match="multiples of 8"):
            random_pyramid(4, base_hw=base)
        with pytest.raises(ValidationError, match="multiples of 8"):
            count_params(SMALL, base)

    def test_smallest_base_accepted(self):
        assert level_extents((8, 16)) == {2: (8, 16), 3: (4, 8), 4: (2, 4), 5: (1, 2)}
        assert random_pyramid(4, base_hw=(8, 16)).extents(5) == (1, 2)
        assert count_params(SMALL, (8, 16)).total.macs > 0


class TestConfigFieldTypes:
    @pytest.mark.parametrize("field,value", [
        ("k", 2.5), ("alpha", "0.2"), ("channels", True), ("groups", 2.0), ("seed", None),
        ("fusion_mode", b"sdp_only"), ("squash", 1), ("conv_bias", np.True_),
        ("filter_levels", (2, 3.0)), ("filter_levels", [True]), ("filter_levels", {2, 3}),
    ], ids=["k-float", "alpha-str", "channels-bool", "groups-float", "seed-none", "fusion-bytes",
            "squash-int", "bias-numpy-bool", "levels-float", "levels-bool", "levels-set"])
    def test_wrong_typed_field_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field}: .* is not a valid"):
            dataclasses.replace(SMALL, **{field: value})

    def test_numpy_scalars_accepted(self):
        config = dataclasses.replace(SMALL, channels=np.int64(4), groups=np.int32(2), k=np.int16(2),
                                     alpha=np.float32(0.5), seed=np.uint8(1), filter_levels=[np.int64(2)])
        assert config.filter_levels == (2,)
        plain = dataclasses.replace(SMALL, alpha=0.5, filter_levels=(2,))
        assert layer_specs(config) == layer_specs(plain)
        assert init_weights(config).hfp_params(2).alpha == np.float32(0.5)

    def test_numpy_scalar_config_saves_and_reloads(self):
        config = PyramidConfig(channels=np.int64(4), k=np.int16(2), groups=np.int32(2), alpha=np.float32(0.25),
                               seed=np.int64(1), filter_levels=[np.int32(2), np.int16(3)])
        plain = PyramidConfig(channels=4, k=2, groups=2, alpha=0.25, seed=1)
        assert config == plain
        types = [type(getattr(config, f)) for f in ("channels", "k", "groups", "alpha", "seed")]
        assert types == [int, int, int, float, int]
        assert [type(level) for level in config.filter_levels] == [int, int]

    @pytest.mark.parametrize("levels", [(3, 2), (2, 3, 3), [3, 2, 2, 3]], ids=["reversed", "repeat", "list"])
    def test_filter_levels_stored_sorted_without_repeats(self, levels):
        config = dataclasses.replace(SMALL, filter_levels=levels)
        assert config.filter_levels == (2, 3)
        assert config == dataclasses.replace(SMALL, filter_levels=(2, 3))

    def test_numpy_float32_becomes_the_same_python_float(self):
        alpha = dataclasses.replace(SMALL, alpha=np.float32(0.1)).alpha
        assert type(alpha) is float and alpha == float(np.float32(0.1))

    def test_numpy_conv_spec_fields_become_ints(self):
        spec = ConvSpec(np.int64(4), np.int32(8), kernel=np.int16(3), groups=np.uint8(2))
        assert spec == ConvSpec(4, 8, kernel=3, groups=2)
        assert {type(v) for v in dataclasses.astuple(spec)} == {int, bool}

    def test_int_too_large_for_a_float_rejected(self):
        with pytest.raises(ValidationError, match="alpha: .* is not a valid float"):
            dataclasses.replace(SMALL, alpha=10**400)

    @pytest.mark.parametrize("field,value", [("channels", 0), ("groups", 0), ("groups", 3)])
    def test_channels_and_groups_checked_by_the_layers(self, field, value):
        with pytest.raises(ValidationError, match="channel counts must be positive|must divide"):
            dataclasses.replace(SMALL, **{field: value})
