import copy
import dataclasses
import hashlib
import json

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
    load_weights,
    random_pyramid,
    read_pyramid_dir,
    save_weights,
    write_pyramid_dir,
    write_tensor,
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

    def test_disabled_level_bitwise_identical(self, tmp_path):
        # filter_levels run with config.alpha, every other level with alpha 0,
        # which returns the level's input unchanged; saving and loading keeps both
        x = RNG.standard_normal((1, 4, 8, 8)).astype(np.float32)
        for levels in [(), (2, 3), (2, 3, 4, 5)]:
            config = dataclasses.replace(SMALL, alpha=0.3, filter_levels=levels)
            weights = init_weights(config)
            path = tmp_path / ("levels" + "".join(map(str, levels)))
            save_weights(path, weights)
            for built in (weights, load_weights(path)):
                for lv in (2, 3, 4, 5):
                    alpha = built.hfp_params(lv).alpha
                    assert alpha == (config.alpha if lv in levels else 0.0), (levels, lv)
                    if lv not in levels:
                        assert highfreq_response(x, alpha).tobytes() == x.tobytes()

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

    def test_rebuilt_weights_save_load_forward_bitwise(self, tmp_path):
        # layers built by hand, given in reverse order: stored in layer_specs
        # order, and saved, loaded and run without a change
        rng = np.random.default_rng(77)
        layers = {}
        for name, spec in reversed(layer_specs(SMALL).items()):
            bias = rng.uniform(-1, 1, spec.out_channels).astype(np.float32) if spec.has_bias else None
            layers[name] = ConvLayer(spec, rng.uniform(-1, 1, spec.weight_shape).astype(np.float32), bias)
        rebuilt = HsfpnWeights(SMALL, layers)
        assert list(rebuilt.layers) == list(layer_specs(SMALL))
        save_weights(tmp_path / "w", rebuilt)
        loaded = load_weights(tmp_path / "w")
        pyr = small_pyramid(seed=31)
        a, b = hsfpn_forward(pyr, rebuilt), hsfpn_forward(pyr, loaded)
        for lv in (2, 3, 4, 5):
            assert a[lv].tobytes() == b[lv].tobytes()
        assert a[2].tobytes() != hsfpn_forward(pyr, init_weights(SMALL))[2].tobytes()


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

    def test_timings_collected(self):
        # one key set for every mode; a mode's unused stages read exactly 0
        for mode, fusion_mode in (("hsfpn", "sdp_only"), ("hsfpn", "sdp_plus_add"),
                                  ("fpn_baseline", "sdp_only")):
            weights = init_weights(dataclasses.replace(SMALL, mode=mode, fusion_mode=fusion_mode))
            timings = {}
            hsfpn_forward(small_pyramid(), weights, timings=timings)
            assert set(timings) == {"hfp", "sdp", "output_conv", "baseline_fuse"}
            assert timings["output_conv"] > 0
            if mode == "hsfpn":
                assert timings["hfp"] > 0 and timings["sdp"] > 0 and timings["baseline_fuse"] == 0
            else:
                assert timings["baseline_fuse"] > 0 and timings["hfp"] == timings["sdp"] == 0


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


def json_edit(change):
    """A manifest-text edit that applies `change` to the parsed manifest."""
    def edit(text):
        manifest = json.loads(text)
        change(manifest)
        return json.dumps(manifest, indent=2) + "\n"  # as save_weights writes it
    return edit


def extra_layer(manifest):
    manifest["layers"]["hfp6.gap_conv"] = manifest["layers"]["hfp5.gap_conv"]


def short_bias(manifest):
    # out2.conv has 4 output channels; the spatial conv's bias file holds 1 value
    manifest["layers"]["out2.conv"]["bias"] = manifest["layers"]["hfp2.spatial_conv"]["bias"]


class TestPyramidIo:
    def test_dir_roundtrip(self, tmp_path):
        pyr = small_pyramid(seed=19)
        write_pyramid_dir(tmp_path / "pyr", pyr, prefix="c")
        back = read_pyramid_dir(tmp_path / "pyr", prefix="c")
        for lv in (2, 3, 4, 5):
            assert back[lv].tobytes() == pyr[lv].tobytes()

    def test_manifest_dims_checked(self, tmp_path):
        pyr = small_pyramid()
        write_pyramid_dir(tmp_path / "pyr", pyr, prefix="c")
        manifest = (tmp_path / "pyr" / "manifest.json").read_text()
        (tmp_path / "pyr" / "manifest.json").write_text(manifest.replace("16", "12"))
        with pytest.raises(ValidationError):
            read_pyramid_dir(tmp_path / "pyr", prefix="c")

    def test_manifest_prefix_must_match(self, tmp_path):
        # an earlier forward's output directory names p2..p5.pft; it is not read as c2..c5
        write_pyramid_dir(tmp_path / "pyr", small_pyramid(), prefix="p")
        with pytest.raises(ValidationError, match="prefix 'p', expected 'c'"):
            read_pyramid_dir(tmp_path / "pyr", prefix="c")

    def test_manifest_without_prefix_reads(self, tmp_path):
        pyr = small_pyramid(seed=3)
        write_pyramid_dir(tmp_path / "pyr", pyr, prefix="c")
        manifest_path = tmp_path / "pyr" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["prefix"]
        manifest_path.write_text(json.dumps(manifest))
        back = read_pyramid_dir(tmp_path / "pyr", prefix="c")
        for lv in (2, 3, 4, 5):
            assert back[lv].tobytes() == pyr[lv].tobytes()

    def test_manifest_without_file_names_reads(self, tmp_path):
        pyr = small_pyramid(seed=4)
        write_pyramid_dir(tmp_path / "pyr", pyr, prefix="c")
        manifest_path = tmp_path / "pyr" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["levels"].values():
            del entry["file"]
        manifest_path.write_text(json.dumps(manifest))
        back = read_pyramid_dir(tmp_path / "pyr", prefix="c")
        for lv in (2, 3, 4, 5):
            assert back[lv].tobytes() == pyr[lv].tobytes()

    @pytest.mark.parametrize("where", ["absolute", "parent"])
    def test_pyramid_manifest_names_derived(self, tmp_path, monkeypatch, where):
        # a valid PFT1 file outside the directory: refused by name, never opened
        write_pyramid_dir(tmp_path / "pyr", small_pyramid(), prefix="c")
        write_tensor(tmp_path / "other.pft", small_pyramid()[3])
        manifest_path = tmp_path / "pyr" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["levels"]["3"]["file"] = str(tmp_path / "other.pft") if where == "absolute" else "../other.pft"
        manifest_path.write_text(json.dumps(manifest))
        reads = []
        monkeypatch.setattr(hio, "read_tensor", reads.append)
        with pytest.raises(ValidationError, match="level 3 must name file 'c3.pft'"):
            read_pyramid_dir(tmp_path / "pyr", prefix="c")
        assert reads == []

    @pytest.mark.parametrize("key", ["weight", "bias"])
    @pytest.mark.parametrize("where", ["absolute", "parent"])
    def test_weight_manifest_names_derived(self, tmp_path, monkeypatch, key, where):
        save_weights(tmp_path / "w", init_weights(SMALL))
        write_tensor(tmp_path / "other.pft", init_weights(SMALL).out_convs[2].weight)
        manifest_path = tmp_path / "w" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["layers"]["out2.conv"][key] = str(tmp_path / "other.pft") if where == "absolute" else "../other.pft"
        manifest_path.write_text(json.dumps(manifest))
        reads = []
        monkeypatch.setattr(hio, "read_tensor", reads.append)
        with pytest.raises(ValidationError, match="layer .out2.conv. must name files"):
            load_weights(tmp_path / "w")
        assert reads == []

    def test_weight_dir_with_laterals_refused(self, tmp_path, monkeypatch):
        # lateral 1x1 convs (backbone width 6) as earlier versions saved them
        save_weights(tmp_path / "w", init_weights(SMALL))
        manifest_path = tmp_path / "w" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for lv in (2, 3, 4, 5):
            name = f"lateral{lv}.conv"
            manifest["layers"][name] = {"in_channels": 6, "out_channels": 4, "kernel": 1, "groups": 1,
                                        "has_bias": True, "weight": f"{name}.weight.pft",
                                        "bias": f"{name}.bias.pft"}
            write_tensor(tmp_path / "w" / f"{name}.weight.pft", np.ones((4, 6, 1, 1), np.float32))
            write_tensor(tmp_path / "w" / f"{name}.bias.pft", np.zeros(4, np.float32))
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        reads = []
        monkeypatch.setattr(hio, "read_tensor", reads.append)
        with pytest.raises(ValidationError, match=r"layers \['lateral2.conv', 'lateral3.conv', 'lateral4.conv', "
                                                  r"'lateral5.conv'\] do not belong to the config"):
            load_weights(tmp_path / "w")
        assert reads == []

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"levels": [1]}',
                                      '{"levels": {"2": {"file": 7}}}'],
                             ids=["not-json", "not-object", "levels-list", "file-not-string"])
    def test_malformed_pyramid_manifest(self, tmp_path, text):
        write_pyramid_dir(tmp_path / "pyr", small_pyramid(), prefix="c")
        (tmp_path / "pyr" / "manifest.json").write_text(text)
        with pytest.raises(ValidationError):
            read_pyramid_dir(tmp_path / "pyr", prefix="c")

    @pytest.mark.parametrize("edit", [
        lambda m: "{not json",
        lambda m: m.replace('"config"', '"konfig"'),
        lambda m: m.replace('"channels"', '"chans"'),
        lambda m: m.replace('"hfp2.gap_conv"', '"hfp2.gap"'),
        lambda m: m.replace('"weight": "out2.conv.weight.pft"', '"weight": 5'),
        json_edit(lambda m: m["config"].update(groups=0)),
        json_edit(lambda m: m["config"].update(conv_bias=False)),
        json_edit(extra_layer),
        json_edit(short_bias),
        json_edit(lambda m: m["config"].update(k=4.0)),
        json_edit(lambda m: m["layers"]["out2.conv"].update(
            in_channels=float(m["layers"]["out2.conv"]["in_channels"]))),
        json_edit(lambda m: m["config"].update(squash="no")),
        json_edit(lambda m: m["config"].update(alpha=True)),
        json_edit(lambda m: m["config"].update(k=True)),
        json_edit(lambda m: m["config"].update(filter_levels=[2.0, 3.0])),
        json_edit(lambda m: m["config"].update(seed=-1)),
    ], ids=["not-json", "no-config", "no-channels", "no-layer", "weight-not-string",
            "groups-zero", "config-contradicts-bias",
            "extra-layer", "bias-length", "k-float", "in-channels-float", "squash-string",
            "alpha-bool", "k-bool", "filter-levels-float", "seed-negative"])
    def test_malformed_weight_manifest(self, tmp_path, edit):
        save_weights(tmp_path / "w", init_weights(SMALL))
        manifest = tmp_path / "w" / "manifest.json"
        edited = edit(manifest.read_text())
        assert edited != manifest.read_text()
        manifest.write_text(edited)
        with pytest.raises(ValidationError):
            load_weights(tmp_path / "w")

    def test_bias_file_length_checked_at_load(self, tmp_path):
        save_weights(tmp_path / "w", init_weights(SMALL))
        write_tensor(tmp_path / "w" / "out2.conv.bias.pft", np.zeros(7, np.float32))
        with pytest.raises(ValidationError, match="bias"):
            load_weights(tmp_path / "w")

    def test_weights_roundtrip_same_forward(self, tmp_path):
        # NON_DEFAULT sets every config field away from its default.
        configs = {"small": SMALL, "non-default-fpn": NON_DEFAULT,
                   "non-default-hsfpn": dataclasses.replace(NON_DEFAULT, mode="hsfpn")}
        for name, config in configs.items():
            weights = init_weights(config)
            save_weights(tmp_path / name, weights)
            loaded = load_weights(tmp_path / name)
            assert loaded.config == weights.config, name
            pyr = small_pyramid(seed=23, channels=config.channels)
            a = hsfpn_forward(pyr, weights)
            b = hsfpn_forward(pyr, loaded)
            for lv in (2, 3, 4, 5):
                assert a[lv].tobytes() == b[lv].tobytes(), name

    # Digests of the files `save_weights` writes: the manifest alone, and a
    # `sha256sum`-style listing ("<sha256>  <name>" per file, sorted by name)
    # that pins every file's name and bytes. A change to init draw order,
    # layer names, manifest key order or the PFT1 encoding moves them.
    @pytest.mark.parametrize("config, files, manifest_sha, listing_sha", [
        (SMALL, 58,
         "602a94728d2f34c79a89d32c1d40aff660d57be2c5c0f211d17ff1d651a85558",
         "ba77b35a8f84b618c012c2d012790c24f1d80a06a47e1c314b782bb7b9afbaba"),
        (NON_DEFAULT, 43,
         "2ab0733e3f47542fd7151b12d931d4ee750c920600a22622960cf8527a765cd6",
         "31f506555d46d55b59bfc0185fccea4bb6b595d1272963698faa872d952e1f15"),
    ], ids=["small", "non-default"])
    def test_saved_files_pinned(self, tmp_path, config, files, manifest_sha, listing_sha):
        save_weights(tmp_path / "w", init_weights(config))
        paths = sorted((tmp_path / "w").iterdir())
        listing = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n" for p in paths)
        assert len(paths) == files
        assert hashlib.sha256((tmp_path / "w" / "manifest.json").read_bytes()).hexdigest() == manifest_sha
        assert hashlib.sha256(listing.encode()).hexdigest() == listing_sha, listing

    def test_nonfinite_level_writes_no_directory(self, tmp_path):
        levels = {lv: t.copy() for lv, t in small_pyramid(seed=3).items()}
        levels[4][0, 1, 0, 0] = np.inf
        with pytest.raises(ValidationError, match="output level 4 contains non-finite values"):
            write_pyramid_dir(tmp_path / "pyr", FeaturePyramid(levels))
        assert list(tmp_path.iterdir()) == []

    def test_nonfinite_weight_writes_no_directory(self, tmp_path):
        weights = init_weights(SMALL)
        weights.out_convs[3].weight[0, 0, 1, 1] = np.nan
        with pytest.raises(ValidationError, match="out3.conv weight contains non-finite values"):
            save_weights(tmp_path / "w", weights)
        assert list(tmp_path.iterdir()) == []

    def test_layer_missing_its_bias_rejected_where_built(self):
        # refused where it is built, before a forward pass or save_weights can use it
        weights = init_weights(SMALL)
        spec = weights.out_convs[2].spec
        assert spec.has_bias
        with pytest.raises(ValidationError, match="bias"):
            weights.out_convs[2] = ConvLayer(spec, weights.out_convs[2].weight)

    def test_wrong_size_weight_rejected_where_built(self):
        # a ShapeError naming the dims, not a numpy reshape error inside save_weights
        layer = init_weights(SMALL).out_convs[3]
        with pytest.raises(ShapeError, match="weight dims"):
            ConvLayer(layer.spec, layer.weight[..., :1, :1], layer.bias)


# Values a hostile manifest may put where another belongs: every JSON type,
# ints that are negative or too large for any tensor, and a deleted key.
DELETE = object()
HOSTILE_VALUES = (DELETE, 0.5, 4.0, True, False, "x", "", None, [], [2, 3], {}, -1, 0, 1, 3,
                  2**40, 10**30)


def key_paths(node, prefix=()):
    """Every key path into a JSON value: dict keys and list indices, at every depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def manifest_mutants(manifest, count, seed, focus=None):
    """Seeded copies of a manifest with 1-3 values replaced or keys deleted.

    With `focus` set, three edits in four land under that top-level key.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        mutant = copy.deepcopy(manifest)
        for _ in range(rng.integers(1, 4)):
            paths = list(key_paths(mutant))
            if focus in mutant and rng.random() < 0.75:
                paths = list(key_paths(mutant[focus], (focus,)))
            if not paths:
                break
            *parents, key = paths[rng.integers(len(paths))]
            node = mutant
            for parent in parents:
                node = node[parent]
            value = HOSTILE_VALUES[rng.integers(len(HOSTILE_VALUES))]
            if value is DELETE:
                del node[key]
            else:
                node[key] = copy.deepcopy(value)
        yield mutant


class TestHostileManifests:
    """Only ValidationError/ShapeError escape the manifest readers, whatever the values.

    File names are derived, not read from the manifest, so no mutant can make
    a reader open a file that is not there: an OSError fails the test.
    """

    def run(self, manifest_path, reader, count, seed, focus=None):
        manifest = json.loads(manifest_path.read_text())
        loaded = rejected = 0
        for mutant in manifest_mutants(manifest, count, seed, focus):
            manifest_path.write_text(json.dumps(mutant))
            try:
                result = reader(manifest_path.parent)
            except (ValidationError, ShapeError):
                rejected += 1
                continue
            loaded += 1
            yield result
        assert rejected > count // 4 and loaded >= 10  # both outcomes exercised

    def test_weight_manifest_mutants(self, tmp_path):
        save_weights(tmp_path / "w", init_weights(SMALL))
        pyr = small_pyramid(seed=5, base=(8, 8))
        for weights in self.run(tmp_path / "w" / "manifest.json", load_weights, 500, seed=41,
                                focus="config"):
            try:
                hsfpn_forward(pyr, weights)
            except (ValidationError, ShapeError):
                pass

    def test_pyramid_manifest_mutants(self, tmp_path):
        write_pyramid_dir(tmp_path / "pyr", small_pyramid(seed=6, base=(8, 8)), prefix="c")
        for _ in self.run(tmp_path / "pyr" / "manifest.json",
                          lambda path: read_pyramid_dir(path, prefix="c"), 500, seed=43):
            pass


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

    def test_numpy_scalar_config_saves_and_reloads(self, tmp_path):
        config = PyramidConfig(channels=np.int64(4), k=np.int16(2), groups=np.int32(2), alpha=np.float32(0.25),
                               seed=np.int64(1), filter_levels=[np.int32(2), np.int16(3)])
        plain = PyramidConfig(channels=4, k=2, groups=2, alpha=0.25, seed=1)
        assert config == plain
        types = [type(getattr(config, f)) for f in ("channels", "k", "groups", "alpha", "seed")]
        assert types == [int, int, int, float, int]
        assert [type(level) for level in config.filter_levels] == [int, int]
        save_weights(tmp_path / "w", init_weights(config))
        assert load_weights(tmp_path / "w").config == plain

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
