"""The package's public surface: its exported names, and package errors on hostile arguments."""

import dataclasses
import functools
import types
import warnings

import numpy as np
import pytest

import hsfpn
from hsfpn import (
    ConvLayer,
    ConvSpec,
    CostModel,
    FeaturePyramid,
    HsfpnWeights,
    PyramidConfig,
    ScrWindows,
    ShapeError,
    ValidationError,
    adaptive_pool,
    as_tensor,
    attention_cost,
    blob_scene,
    block_attention,
    channel_path,
    conv2d,
    cost_rows,
    count_params,
    dct_matrix,
    highfreq_response,
    highpass_cut,
    hfp_forward,
    hsfpn_forward,
    init_weights,
    lowcut_filter,
    random_pyramid,
    scr,
    scr_filter_sweep,
    sdp_forward,
    sigmoid,
    spatial_path,
    upsample2x,
    write_pgm,
    write_pyramid_dir,
    write_tensor,
)
from hsfpn.pyramid import level_extents

SMALL = PyramidConfig(channels=4, alpha=0.25, k=2, groups=2, seed=1)
WEIGHTS = init_weights(SMALL)
HFP = WEIGHTS.hfp_params(2)
SDP = WEIGHTS.sdp_params(2, 2, 2)
FEATURE = np.ones((1, 4, 4, 4), np.float32)  # a map of SMALL's channel count
PYRAMID = random_pyramid(4, (8, 8))  # a pyramid of SMALL's channel count


def test_public_exports_pinned():
    # adding or removing an export changes this list, so it shows as a reviewed diff
    names = sorted(name for name, value in vars(hsfpn).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == [
        "ATTENTION_LAYOUTS", "ConvLayer", "ConvSpec", "CostModel", "DegenerateBackgroundError",
        "FeaturePyramid", "HfpParams", "HsfpnWeights", "LEVELS", "OpCostReport", "PgmParseError",
        "PyramidConfig", "SDP_LEVELS", "ScrWindows", "SdpParams", "ShapeError", "ValidationError",
        "adaptive_pool", "as_tensor", "attention_cost", "blob_scene", "block_attention",
        "channel_path", "conv2d", "cost_rows", "count_params", "dct_matrix", "hfp_forward",
        "highfreq_response", "highpass_cut", "hsfpn_forward", "init_weights", "lowcut_filter",
        "random_pyramid", "read_pgm", "read_pyramid_dir", "read_tensor", "scr",
        "scr_filter_sweep", "sdp_forward", "sigmoid", "spatial_path", "upsample2x", "write_pgm",
        "write_pyramid_dir", "write_tensor",
    ]


def write_with_prefix(prefix):
    return lambda: write_pyramid_dir("d/out", random_pyramid(1, (8, 8)), prefix=prefix)


# Calls whose arguments are of a wrong type or shape: each raises ValidationError (the
# rows of SHAPE_ERROR_CALLS ShapeError), not a bare numpy or Python error, and none
# returns a value of the wrong type.
HOSTILE_CALLS = {
    "cost-model-str": lambda: CostModel(n="3", h=2, w=2, c=2),
    "cost-model-float": lambda: CostModel(n=1.5, h=2, w=2, c=2),
    "cost-model-bool": lambda: CostModel(n=True, h=2, w=2, c=2),
    "as-tensor-str-element": lambda: as_tensor([[1, "a"]]),
    "as-tensor-object": lambda: as_tensor(object()),
    # a complex value would lose its imaginary part: refused, not cast
    "as-tensor-complex": lambda: as_tensor(np.ones((2, 2), np.complex64)),
    # numpy makes a value beyond float range inf; an int too large for a float is one
    "as-tensor-int-beyond-float": lambda: as_tensor([10**400]),
    "conv-layer-complex-weight": lambda: ConvLayer(ConvSpec(2, 2), np.full((2, 2, 1, 1), 1 + 1j)),
    "block-attention-complex-counts": lambda: block_attention(np.ones((4, 3)), np.ones((2, 3)), np.ones((2, 3)),
                                                              counts=np.full(2, 1 + 1j)),
    "sigmoid-str": lambda: sigmoid("a"),
    "upsample2x-str": lambda: upsample2x("a"),
    "level-extents-float": lambda: level_extents((64.0, 64)),
    "level-extents-three": lambda: level_extents((64, 64, 2)),
    "level-extents-int": lambda: level_extents(64),
    "count-params-float-base": lambda: count_params(SMALL, (8.0, 8)),
    "random-pyramid-float-channels": lambda: random_pyramid(2.5, (8, 8)),
    "random-pyramid-float-base": lambda: random_pyramid(2, (8.0, 8)),
    "random-pyramid-float-batch": lambda: random_pyramid(2, (8, 8), batch=1.5),
    "random-pyramid-bool-batch": lambda: random_pyramid(2, (8, 8), batch=True),
    "random-pyramid-zero-channels": lambda: random_pyramid(0, (8, 8)),
    "random-pyramid-negative-seed": lambda: random_pyramid(2, (8, 8), seed=-1),
    "random-pyramid-float-seed": lambda: random_pyramid(2, (8, 8), seed=1.5),
    # a level file's prefix is ASCII letters: "../esc" would write d/esc2.pft..d/esc5.pft
    "write-pyramid-dir-dotdot-prefix": write_with_prefix("../esc"),
    "write-pyramid-dir-empty-prefix": write_with_prefix(""),
    "write-pyramid-dir-slash-prefix": write_with_prefix("a/b"),
    "write-pyramid-dir-int-prefix": write_with_prefix(5),
    # a pyramid is a mapping of levels; keys of mixed types are compared, not sorted
    "feature-pyramid-int": lambda: FeaturePyramid(5),
    "feature-pyramid-none": lambda: FeaturePyramid(None),
    "feature-pyramid-mixed-keys": lambda: FeaturePyramid({"a": np.ones((1, 1, 2, 2)), 2: np.ones((1, 1, 2, 2))}),
    "write-pyramid-dir-int-levels": lambda: write_pyramid_dir("d/out", 5),
    # a pyramid has one (N, C) at every level, and only a FeaturePyramid is written
    "feature-pyramid-mixed-channels": lambda: FeaturePyramid({**dict(PYRAMID.items()), 4: np.ones((1, 2, 2, 2))}),
    "write-pyramid-dir-dict-levels": lambda: write_pyramid_dir("d/out", dict(PYRAMID.items())),
    # a parameter object of the wrong kind, as HsfpnWeights.sdp_params gives for hfp_forward
    "hfp-forward-sdp-params": lambda: hfp_forward(FEATURE, SDP),
    "channel-path-sdp-params": lambda: channel_path(FEATURE, SDP),
    "spatial-path-sdp-params": lambda: spatial_path(FEATURE, SDP),
    "sdp-forward-hfp-params": lambda: sdp_forward(FEATURE, FEATURE[:, :, :2, :2], HFP),
    "block-attention-str-query": lambda: block_attention("a", np.ones((2, 3)), np.ones((2, 3))),
    "block-attention-str-counts": lambda: block_attention(np.ones((4, 3)), np.ones((2, 3)), np.ones((2, 3)),
                                                          counts=["a", "b"]),
    # per-level parameters take exactly their field types, as the config does
    "hfp-params-str-alpha": lambda: dataclasses.replace(HFP, alpha="a"),
    "hfp-params-str-k": lambda: dataclasses.replace(HFP, k="a"),
    "hfp-params-float-k": lambda: dataclasses.replace(HFP, k=2.5),
    "hfp-params-str-squash": lambda: dataclasses.replace(HFP, squash="yes"),
    "hfp-params-str-layer": lambda: dataclasses.replace(HFP, gap_conv="x"),
    "sdp-params-str-block": lambda: dataclasses.replace(SDP, block_h="a"),
    "sdp-params-float-block": lambda: dataclasses.replace(SDP, block_h=2.5),
    "attention-cost-list-layout": lambda: attention_cost(CostModel(1, 2, 2, 2), []),
    # a choice is a str: an array of choices is not one
    "attention-cost-array-layout": lambda: attention_cost(CostModel(1, 2, 2, 2), np.array(["sdp", "vit"])),
    "adaptive-pool-array-mode": lambda: adaptive_pool(np.ones((1, 1, 4, 4)), 2, 2, np.array(["avg", "max"])),
    # a layer's arrays convert as as_tensor converts
    "conv2d-str-weight": lambda: conv2d(np.ones((1, 2, 3, 3)), ConvSpec(2, 2), "a"),
    "conv2d-str-bias": lambda: conv2d(np.ones((1, 2, 3, 3)), ConvSpec(2, 2), np.ones((2, 2, 1, 1)), "a"),
    "conv2d-object-weight": lambda: conv2d(np.ones((1, 2, 3, 3)), ConvSpec(2, 2), object()),
    "blob-scene-zero-height": lambda: blob_scene(0),
    "blob-scene-str-height": lambda: blob_scene("a"),
    # the scene's reals are finite, and its blob width positive: zero would divide by zero
    "blob-scene-str-background": lambda: blob_scene(8, 8, background="a"),
    "blob-scene-none-amplitude": lambda: blob_scene(8, 8, amplitude=None),
    "blob-scene-list-ramp": lambda: blob_scene(8, 8, ramp_amplitude=[0.2]),
    "blob-scene-nan-background": lambda: blob_scene(8, 8, background=float("nan")),
    "blob-scene-inf-ramp": lambda: blob_scene(8, 8, ramp_amplitude=float("inf")),
    "blob-scene-zero-sigma": lambda: blob_scene(8, 8, blob_sigma=0),
    "blob-scene-negative-sigma": lambda: blob_scene(8, 8, blob_sigma=-2.5),
    # magnitudes whose arithmetic leaves float range end in the scene's finiteness check
    "blob-scene-tiny-sigma": lambda: blob_scene(8, 8, blob_sigma=1e-200),
    "blob-scene-huge-background": lambda: blob_scene(8, 8, background=1e39),
    "blob-scene-int-beyond-float": lambda: blob_scene(8, 8, amplitude=10**400),
    # a module switch is exactly a bool, as a bool field is: "no" would count the module
    "count-params-str-switch": lambda: count_params(SMALL, (8, 8), with_cp="no"),
    "count-params-int-switch": lambda: count_params(SMALL, (8, 8), with_sp=1),
    "count-params-none-switch": lambda: count_params(SMALL, (8, 8), with_sdp=None),
    # a package object is of its class where it enters, so a wrong one fails before any attribute is read
    "hsfpn-forward-dict-pyramid": lambda: hsfpn_forward({2: FEATURE}, WEIGHTS),
    "hsfpn-forward-config-for-weights": lambda: hsfpn_forward(PYRAMID, WEIGHTS.config),
    "count-params-none-config": lambda: count_params(None, (8, 8)),
    "init-weights-none-config": lambda: init_weights(None),
    "hsfpn-weights-none-config": lambda: HsfpnWeights(None, {}),
    "hsfpn-weights-none-layers": lambda: HsfpnWeights(SMALL, None),
    "conv-layer-none-spec": lambda: ConvLayer(None, np.ones((2, 2, 1, 1))),
    "conv2d-none-spec": lambda: conv2d(np.ones((1, 2, 3, 3)), None, np.ones((2, 2, 1, 1))),
    "scr-none-windows": lambda: scr(SCENE, None),
    "scr-filter-sweep-none-windows": lambda: scr_filter_sweep(SCENE, None, [(2, 2)]),
    "attention-cost-none-model": lambda: attention_cost(None, "sdp"),
    "cost-rows-none-model": lambda: cost_rows(None),
    # a level is an integer with a module: "2" would give level 2's layers with alpha 0
    "hfp-params-unknown-level": lambda: WEIGHTS.hfp_params(9),
    "hfp-params-str-level": lambda: WEIGHTS.hfp_params("2"),
    "hfp-params-float-level": lambda: WEIGHTS.hfp_params(2.0),
    "sdp-params-top-level": lambda: WEIGHTS.sdp_params(5, 2, 2),
    "sdp-params-negative-level": lambda: WEIGHTS.sdp_params(-1, 2, 2),
    # a pyramid looks its levels up by the same rule
    "feature-pyramid-unknown-level": lambda: PYRAMID[9],
    "feature-pyramid-str-level": lambda: PYRAMID["2"],
    "feature-pyramid-float-level": lambda: PYRAMID[2.0],
    "feature-pyramid-extents-unknown-level": lambda: PYRAMID.extents(9),
}


# The rows of HOSTILE_CALLS whose arguments are of the right type but the wrong shape.
SHAPE_ERROR_CALLS = {"feature-pyramid-mixed-keys", "feature-pyramid-mixed-channels"}


@pytest.mark.parametrize("name", HOSTILE_CALLS)
def test_hostile_call_raises_validation_error(name, tmp_path, monkeypatch):
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    with pytest.raises(ShapeError if name in SHAPE_ERROR_CALLS else ValidationError):
        HOSTILE_CALLS[name]()
    # nothing is written, inside the working directory or beside it
    assert [p.name for p in tmp_path.iterdir()] == ["cwd"] and not any((tmp_path / "cwd").iterdir())


def test_cost_model_fields_become_python_ints():
    model = CostModel(np.int64(4), np.int32(3), np.uint8(3), np.int16(8))
    assert model == CostModel(4, 3, 3, 8)
    assert {type(v) for v in dataclasses.astuple(model)} == {int}
    assert attention_cost(model, "sdp") == 2 * 4 * 9 * 9 * 8


class TestNonFinitePassesThrough:
    """The library computes on NaN as numpy does, without a warning; only the CLI refuses non-finite values."""

    @staticmethod
    def forward_with_nan(config):
        levels = {lv: t.copy() for lv, t in random_pyramid(4, (16, 16), seed=2).items()}
        levels[5][0, 0, 0, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return hsfpn_forward(FeaturePyramid(levels), init_weights(config))

    def test_forward(self):
        out = self.forward_with_nan(SMALL)
        assert all(np.isnan(out[lv]).any() for lv in (2, 3, 4, 5))

    def test_squashed_forward(self):
        out = self.forward_with_nan(dataclasses.replace(SMALL, squash=True))
        assert all(np.isnan(out[lv]).any() for lv in (2, 3, 4, 5))

    def test_block_attention(self):
        q = np.ones((4, 3), np.float32)
        q[0, 0] = np.nan
        out = block_attention(q, np.ones((2, 3), np.float32), np.ones((2, 3), np.float32))
        assert np.isnan(out[0]).all() and (out[1:] == 1).all()


# the exported functions and classes, exceptions aside: each argument table below holds every one
EXPORTED_CALLABLES = sorted(name for name, value in vars(hsfpn).items()
                            if not name.startswith("_") and callable(value)
                            and not (isinstance(value, type) and issubclass(value, Exception)))


def keyword_calls(fn, names, **fixed):
    """`{name: call}`: each call passes its one value to `fn` as keyword `name`, beside `fixed`."""
    return {name: (lambda v, name=name: fn(**{**fixed, name: v})) for name in names}


# Every scalar argument of the exports (integer, real, bool or choice), as a
# call of one hostile value: `{export: {argument: call(value)}}`. A tuple
# argument (a base, a cut, a centre, the filter levels) is fed at its first
# element. Sizes that exceed memory (`dct_matrix(10**30, 0)`,
# `blob_scene(10**30)`) are out of scope: numpy refuses them itself.
X = np.ones((1, 1, 8, 8), np.float32)
SCENE = blob_scene(16, 16)
WINDOWS = ScrWindows((8, 8), 2, 6)
SCALAR_ARGS = {
    "ConvSpec": keyword_calls(ConvSpec, ("in_channels", "out_channels", "kernel", "groups", "has_bias"),
                              in_channels=2, out_channels=2),
    "CostModel": keyword_calls(CostModel, "nhwc", n=1, h=2, w=2, c=2),
    "attention_cost": {"layout": lambda v: attention_cost(CostModel(1, 2, 2, 2), v)},
    "count_params": {
        "base_hw": lambda v: count_params(SMALL, (v, 8)),
        **keyword_calls(functools.partial(count_params, SMALL, (8, 8)), ("with_cp", "with_sp", "with_sdp")),
    },
    "dct_matrix": keyword_calls(dct_matrix, ("n", "rows"), n=4, rows=2),
    "highfreq_response": {"alpha": lambda v: highfreq_response(X, v)},
    "highpass_cut": keyword_calls(highpass_cut, ("h", "w", "alpha"), h=4, w=4, alpha=0.25),
    "lowcut_filter": keyword_calls(functools.partial(lowcut_filter, X), ("cut_rows", "cut_cols"),
                                   cut_rows=2, cut_cols=2),
    "scr_filter_sweep": {"cuts": lambda v: scr_filter_sweep(SCENE, WINDOWS, [(v, 2)])},
    "ScrWindows": {
        "target_center": lambda v: ScrWindows((v, 8), 2, 6),
        **keyword_calls(functools.partial(ScrWindows, (8, 8)), ("target_extent", "neighborhood_extent"),
                        target_extent=2, neighborhood_extent=6),
    },
    "blob_scene": keyword_calls(blob_scene, ("height", "width", "background", "amplitude", "blob_sigma",
                                             "ramp_amplitude"), height=8, width=8),
    "HfpParams": keyword_calls(functools.partial(dataclasses.replace, HFP), ("k", "alpha", "squash")),
    "SdpParams": keyword_calls(functools.partial(dataclasses.replace, SDP), ("block_h", "block_w")),
    "PyramidConfig": {
        **keyword_calls(functools.partial(dataclasses.replace, SMALL), ("channels", "alpha", "k", "groups",
                        "fusion_mode", "mode", "seed", "conv_bias", "squash")),
        "filter_levels": lambda v: dataclasses.replace(SMALL, filter_levels=(v,)),
    },
    "random_pyramid": {
        "base_hw": lambda v: random_pyramid(1, (v, 8)),
        **keyword_calls(random_pyramid, ("channels", "batch", "seed"), channels=1, base_hw=(8, 8)),
    },
    "adaptive_pool": keyword_calls(functools.partial(adaptive_pool, X), ("out_h", "out_w", "mode"),
                                   out_h=2, out_w=2),
    "as_tensor": {"rank": lambda v: as_tensor(X, rank=v)},
}
# exports whose arguments are arrays, paths, a level-file prefix or parameter objects only
NO_SCALAR_ARGS = {
    "ConvLayer", "FeaturePyramid", "HsfpnWeights", "OpCostReport", "block_attention", "channel_path", "conv2d",
    "cost_rows", "hfp_forward", "hsfpn_forward", "init_weights", "read_pgm", "read_pyramid_dir", "read_tensor",
    "scr", "sdp_forward", "sigmoid", "spatial_path", "upsample2x", "write_pgm", "write_pyramid_dir",
    "write_tensor",
}
HOSTILE_SCALARS = {
    "float": 1.5, "bool": True, "negative": -1, "zero": 0, "nan": float("nan"), "inf": float("inf"),
    "-inf": -float("inf"), "numpy-int": np.int64(3), "numpy-float": np.float64(2.5), "str": "a", "none": None,
    "list": [1],
}


def test_every_export_with_scalar_arguments_is_in_the_table():
    assert not SCALAR_ARGS.keys() & NO_SCALAR_ARGS
    assert sorted(SCALAR_ARGS.keys() | NO_SCALAR_ARGS) == EXPORTED_CALLABLES


@pytest.mark.parametrize("value", HOSTILE_SCALARS.values(), ids=HOSTILE_SCALARS.keys())
@pytest.mark.parametrize("call", [call for args in SCALAR_ARGS.values() for call in args.values()],
                         ids=[f"{export}.{arg}" for export, args in SCALAR_ARGS.items() for arg in args])
def test_hostile_scalar_raises_only_package_errors(call, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(value)
        except (ShapeError, ValidationError):
            pass


# Every argument of the exports that takes an object of the package (a spec, a
# config, a model, windows, weights, per-level parameters, a layer or a
# pyramid), as a call of one hostile object: `{export: {argument: call(value)}}`.
OBJECT_ARGS = {
    "ConvLayer": {"spec": lambda v: ConvLayer(v, np.ones((2, 2, 1, 1)))},
    "conv2d": {"spec": lambda v: conv2d(np.ones((1, 2, 3, 3)), v, np.ones((2, 2, 1, 1)))},
    "FeaturePyramid": {"levels": FeaturePyramid},
    "HsfpnWeights": {"config": lambda v: HsfpnWeights(v, WEIGHTS.layers),
                     "layers": lambda v: HsfpnWeights(SMALL, v)},
    "init_weights": {"config": init_weights},
    "hsfpn_forward": {"c_pyr": lambda v: hsfpn_forward(v, WEIGHTS),
                      "weights": lambda v: hsfpn_forward(PYRAMID, v)},
    "write_pyramid_dir": {"pyr": lambda v: write_pyramid_dir("d/out", v)},
    "count_params": {"config": lambda v: count_params(v, (8, 8))},
    "attention_cost": {"model": lambda v: attention_cost(v, "sdp")},
    "cost_rows": {"model": cost_rows},
    "scr": {"windows": lambda v: scr(SCENE, v)},
    "scr_filter_sweep": {"windows": lambda v: scr_filter_sweep(SCENE, v, [(2, 2)])},
    "hfp_forward": {"params": lambda v: hfp_forward(FEATURE, v)},
    "channel_path": {"params": lambda v: channel_path(FEATURE, v)},
    "spatial_path": {"params": lambda v: spatial_path(FEATURE, v)},
    "sdp_forward": {"params": lambda v: sdp_forward(FEATURE, FEATURE[:, :, :2, :2], v)},
    "HfpParams": keyword_calls(functools.partial(dataclasses.replace, HFP),
                               ("gap_conv", "gmp_conv", "merge_conv", "spatial_conv", "fuse_conv")),
    "SdpParams": keyword_calls(functools.partial(dataclasses.replace, SDP), ("q_conv", "k_conv", "v_conv")),
}
# exports whose arguments are arrays, scalars, paths or plain containers only
NO_OBJECT_ARGS = {
    "ConvSpec", "CostModel", "OpCostReport", "PyramidConfig", "ScrWindows", "adaptive_pool", "as_tensor",
    "blob_scene", "block_attention", "dct_matrix", "highfreq_response", "highpass_cut", "lowcut_filter",
    "random_pyramid", "read_pgm", "read_pyramid_dir", "read_tensor", "sigmoid", "upsample2x",
    "write_pgm", "write_tensor",
}
# Each argument meets at least one parameter object of another class: SDP where
# anything but SdpParams is due, WINDOWS where ScrWindows is.
HOSTILE_OBJECTS = {"none": None, "object": object(), "dict": {}, "sdp-params": SDP, "scr-windows": WINDOWS}
OBJECT_CALLS = {f"{export}.{arg}": call for export, args in OBJECT_ARGS.items() for arg, call in args.items()}
# the pairs whose object is of the argument's own class
OWN_CLASS = {("sdp_forward.params", "sdp-params"), ("scr.windows", "scr-windows"),
             ("scr_filter_sweep.windows", "scr-windows")}


def test_every_export_with_object_arguments_is_in_the_table():
    assert not OBJECT_ARGS.keys() & NO_OBJECT_ARGS
    assert sorted(OBJECT_ARGS.keys() | NO_OBJECT_ARGS) == EXPORTED_CALLABLES


@pytest.mark.parametrize("arg, value", [(arg, value) for arg in OBJECT_CALLS for value in HOSTILE_OBJECTS
                                         if (arg, value) not in OWN_CLASS])
def test_hostile_object_raises_a_package_error(arg, value, tmp_path, monkeypatch):
    # an object of another class is refused, never used: only ShapeError or ValidationError escapes
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ShapeError, ValidationError)):
            OBJECT_CALLS[arg](HOSTILE_OBJECTS[value])
    assert not any(tmp_path.iterdir())


# Every array argument of the exports, as a value it takes and a call of one array in its
# place: `{export: {argument: (value, call)}}`. Each hostile array is made from the value.
W, B, X2 = np.ones((2, 2, 1, 1)), np.ones(2), np.ones((1, 2, 3, 3))
Q, KV = np.ones((4, 3)), np.ones((2, 3))  # a block of 4 queries over 2 keys of 3 channels
ARRAY_ARGS = {
    "as_tensor": {"x": (X, as_tensor)},
    "sigmoid": {"x": (X, sigmoid)},
    "upsample2x": {"x": (X, upsample2x)},
    "adaptive_pool": {"x": (X, lambda v: adaptive_pool(v, 2, 2))},
    "ConvLayer": {"weight": (W, lambda v: ConvLayer(ConvSpec(2, 2), v, B)),
                  "bias": (B, lambda v: ConvLayer(ConvSpec(2, 2), W, v))},
    "conv2d": {"x": (X2, lambda v: conv2d(v, ConvSpec(2, 2), W, B)),
               "weight": (W, lambda v: conv2d(X2, ConvSpec(2, 2), v, B)),
               "bias": (B, lambda v: conv2d(X2, ConvSpec(2, 2), W, v))},
    "lowcut_filter": {"x": (X, lambda v: lowcut_filter(v, 2, 2))},
    "highfreq_response": {"c": (X, lambda v: highfreq_response(v, 0.25))},
    "scr": {"image": (SCENE, lambda v: scr(v, WINDOWS))},
    "scr_filter_sweep": {"image": (SCENE, lambda v: scr_filter_sweep(v, WINDOWS, [(2, 2)]))},
    "channel_path": {"f": (FEATURE, lambda v: channel_path(v, HFP))},
    "spatial_path": {"f": (FEATURE, lambda v: spatial_path(v, HFP))},
    "hfp_forward": {"c": (FEATURE, lambda v: hfp_forward(v, HFP))},
    "sdp_forward": {"c_low": (FEATURE, lambda v: sdp_forward(v, FEATURE[:, :, :2, :2], SDP)),
                    "p_up": (FEATURE[:, :, :2, :2], lambda v: sdp_forward(FEATURE, v, SDP))},
    "block_attention": {"q": (Q, lambda v: block_attention(v, KV, KV)), "k": (KV, lambda v: block_attention(Q, v, KV)),
                        "v": (KV, lambda v: block_attention(Q, KV, v)),
                        "counts": (B, lambda v: block_attention(Q, KV, KV, v))},
    "FeaturePyramid": {"levels": (PYRAMID[2], lambda v: FeaturePyramid({**dict(PYRAMID.items()), 2: v}))},
    "write_tensor": {"x": (X, lambda v: write_tensor("o.pft", v))},
    "write_pgm": {"image": (SCENE, lambda v: write_pgm("o.pgm", v))},
}
# exports whose arguments are scalars, paths or package objects only: a pyramid's arrays enter
# through FeaturePyramid, and a layer's through ConvLayer
NO_ARRAY_ARGS = {
    "ConvSpec", "CostModel", "HfpParams", "HsfpnWeights", "OpCostReport", "PyramidConfig", "ScrWindows",
    "SdpParams", "attention_cost", "blob_scene", "cost_rows", "count_params", "dct_matrix", "highpass_cut",
    "hsfpn_forward", "init_weights", "random_pyramid", "read_pgm", "read_pyramid_dir", "read_tensor",
    "write_pyramid_dir",
}
# Each made from the value an argument takes. ±inf, and finite values whose arithmetic
# overflows (3e38 through conv2d), warn as numpy does and are not in the table.
HOSTILE_ARRAYS = {
    "rank": lambda a: a[None],  # one axis more than the argument takes
    "empty": lambda a: a[..., :0],
    "str": lambda a: np.full(a.shape, "a"),
    "object": lambda a: np.full(a.shape, object()),
    "nan": lambda a: np.full(a.shape, np.nan),
    "1e39": lambda a: np.full(a.shape, 1e39),  # finite in float64, beyond float32
    "ragged": lambda a: [a.tolist(), [0.0]],  # a nested list numpy cannot make one array of
}
ARRAY_CALLS = {f"{export}.{arg}": pair for export, args in ARRAY_ARGS.items() for arg, pair in args.items()}


def test_every_export_with_array_arguments_is_in_the_table():
    assert not ARRAY_ARGS.keys() & NO_ARRAY_ARGS
    assert sorted(ARRAY_ARGS.keys() | NO_ARRAY_ARGS) == EXPORTED_CALLABLES


@pytest.mark.parametrize("value", HOSTILE_ARRAYS)
@pytest.mark.parametrize("arg", ARRAY_CALLS)
def test_hostile_array_raises_only_package_errors(arg, value, tmp_path, monkeypatch):
    # NaN may also return a result (TestNonFinitePassesThrough), and so may block_attention's
    # float64 counts at 1e39, which is in their range
    monkeypatch.chdir(tmp_path)
    array, call = ARRAY_CALLS[arg]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(HOSTILE_ARRAYS[value](array))
        except (ShapeError, ValidationError):
            pass
        else:
            assert value == "nan" or (arg, value) == ("block_attention.counts", "1e39")
    assert not any(tmp_path.iterdir())
