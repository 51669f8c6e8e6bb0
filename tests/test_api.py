"""The package's public surface: its exported names, and package errors on hostile arguments."""

import dataclasses
import types

import numpy as np
import pytest

import hsfpn
from hsfpn import (
    CostModel,
    FeaturePyramid,
    PyramidConfig,
    ValidationError,
    as_tensor,
    attention_cost,
    blob_scene,
    block_attention,
    count_params,
    hsfpn_forward,
    init_weights,
    random_pyramid,
    relu,
    sigmoid,
    upsample2x,
    write_pyramid_dir,
)
from hsfpn.pyramid import level_extents

SMALL = PyramidConfig(channels=4, alpha=0.25, k=2, groups=2, seed=1)
HFP = init_weights(SMALL).hfp_params(2)
SDP = init_weights(SMALL).sdp_params(2, 2, 2)


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
        "random_pyramid", "read_pgm", "read_pyramid_dir", "read_tensor", "relu", "scr",
        "scr_filter_sweep", "sdp_forward", "sigmoid", "spatial_path", "upsample2x", "write_pgm",
        "write_pyramid_dir", "write_tensor",
    ]


def write_with_prefix(prefix):
    return lambda: write_pyramid_dir("d/out", random_pyramid(1, (8, 8)), prefix=prefix)


# Calls whose arguments are of a wrong type or shape: each raises ValidationError,
# not a bare numpy or Python error, and none returns a value of the wrong type.
HOSTILE_CALLS = {
    "cost-model-str": lambda: CostModel(n="3", h=2, w=2, c=2),
    "cost-model-float": lambda: CostModel(n=1.5, h=2, w=2, c=2),
    "cost-model-bool": lambda: CostModel(n=True, h=2, w=2, c=2),
    "as-tensor-str-element": lambda: as_tensor([[1, "a"]]),
    "as-tensor-object": lambda: as_tensor(object()),
    "sigmoid-str": lambda: sigmoid("a"),
    "relu-str": lambda: relu("a"),
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
    "blob-scene-zero-height": lambda: blob_scene(0),
    "blob-scene-str-height": lambda: blob_scene("a"),
}


@pytest.mark.parametrize("call", HOSTILE_CALLS.values(), ids=HOSTILE_CALLS.keys())
def test_hostile_call_raises_validation_error(call, tmp_path, monkeypatch):
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    with pytest.raises(ValidationError):
        call()
    # nothing is written, inside the working directory or beside it
    assert [p.name for p in tmp_path.iterdir()] == ["cwd"] and not any((tmp_path / "cwd").iterdir())


def test_cost_model_fields_become_python_ints():
    model = CostModel(np.int64(4), np.int32(3), np.uint8(3), np.int16(8))
    assert model == CostModel(4, 3, 3, 8)
    assert {type(v) for v in dataclasses.astuple(model)} == {int}
    assert attention_cost(model, "sdp") == 2 * 4 * 9 * 9 * 8


class TestNonFinitePassesThrough:
    """The library computes on NaN as numpy does; only the CLI refuses non-finite values."""

    def test_forward(self):
        levels = {lv: t.copy() for lv, t in random_pyramid(4, (16, 16), seed=2).items()}
        levels[5][0, 0, 0, 0] = np.nan
        out = hsfpn_forward(FeaturePyramid(levels), init_weights(SMALL))
        assert all(np.isnan(out[lv]).any() for lv in (2, 3, 4, 5))

    def test_block_attention(self):
        q = np.ones((4, 3), np.float32)
        q[0, 0] = np.nan
        out = block_attention(q, np.ones((2, 3), np.float32), np.ones((2, 3), np.float32))
        assert np.isnan(out[0]).all() and (out[1:] == 1).all()
