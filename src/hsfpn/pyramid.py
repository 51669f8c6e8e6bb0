"""Four-level pyramid assembly: per-level reweighting, top-down fusion.

Levels are keyed 2..5 with strict 2x spatial nesting (level 2 is the largest).
The top level gets the reweighting module and an output 3x3 convolution only;
every lower level additionally fuses the upsampled upper output through
block-partitioned cross-attention before its own output convolution. A plain
FPN mode (pixelwise addition, no reweighting or attention) is kept for A/B
comparisons with identical output convolutions.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import io as hio
from .errors import ShapeError, ValidationError
from .hfp import HfpParams, hfp_forward, hfp_specs
from .sdp import SdpParams, sdp_forward, sdp_specs
from .tensor import (ConvLayer, ConvSpec, as_tensor, check_choice, check_field_types, check_finite, check_integers,
                     check_real, check_type, upsample2x)

# Pyramid levels, largest first; each halves the extents of the one before.
LEVELS = (2, 3, 4, 5)
# Filtering is applied only on the two highest-resolution levels by default.
DEFAULT_FILTER_LEVELS = (2, 3)
SDP_LEVELS = LEVELS[:-1]  # every level but the top fuses with the one above

FUSION_MODES = ("sdp_only", "sdp_plus_add")
PYRAMID_MODES = ("hsfpn", "fpn_baseline")


@dataclass(frozen=True)
class PyramidConfig:
    channels: int = 256
    alpha: float = 0.25
    k: int = 16
    groups: int = 16
    fusion_mode: str = "sdp_only"
    mode: str = "hsfpn"
    seed: int = 0
    filter_levels: tuple = DEFAULT_FILTER_LEVELS
    squash: bool = False

    def __post_init__(self):
        check_field_types(self)
        object.__setattr__(self, "filter_levels", tuple(sorted(set(self.filter_levels))))
        check_integers("pooling extent k", self.k, least=1)
        check_real("alpha", self.alpha, 0.0, 1.0)
        check_integers("seed", self.seed)
        check_choice("fusion_mode", self.fusion_mode, FUSION_MODES)
        check_choice("mode", self.mode, PYRAMID_MODES)
        for level in self.filter_levels:
            check_choice("filter level", level, LEVELS)
        layer_specs(self)  # channels and groups are valid iff every layer they imply is


def _at_level(table: Mapping, level):
    """`table[level]`; a level that is no integer (numpy ones too) or not a key of `table` raises ValidationError."""
    check_integers("level", level)
    check_choice("level", int(level), tuple(table))  # int: a numpy integer is no int
    return table[level]


class FeaturePyramid:
    """Mapping of level -> (N, C, H, W) tensor; ``channels`` reads the one C of every level.

    `levels` is a mapping (else ValidationError) with exactly the keys 2..5 whose tensors share N and C and have
    the extents :func:`level_extents` gives level 2's: else ShapeError, or its ValidationError where 8 does not
    divide level 2. A lookup at any other level, or at a level that is no integer, raises ValidationError.
    """

    def __init__(self, levels: Mapping):
        check_type("pyramid levels", levels, Mapping)
        if set(levels) != set(LEVELS):  # a set: keys of mixed types compare without a TypeError
            raise ShapeError(f"pyramid needs levels {LEVELS}, got {list(levels)}")
        tensors = {lv: as_tensor(levels[lv], rank=4) for lv in LEVELS}
        n_c = [tensors[lv].shape[:2] for lv in LEVELS]
        if len(set(n_c)) > 1:
            raise ShapeError(f"pyramid levels {LEVELS} must share one (N, C), got {n_c}")
        if (extents := {lv: t.shape[2:] for lv, t in tensors.items()}) != level_extents(extents[LEVELS[0]]):
            raise ShapeError(f"pyramid levels {LEVELS} must halve their extents level by level, got {extents}")
        self._levels = tensors

    def __getitem__(self, level: int) -> np.ndarray:
        return _at_level(self._levels, level)

    def __iter__(self):
        return iter(LEVELS)

    def items(self):
        return ((lv, self._levels[lv]) for lv in LEVELS)

    @property
    def batch(self) -> int:
        return self._levels[LEVELS[0]].shape[0]

    @property
    def channels(self) -> int:
        return self._levels[LEVELS[0]].shape[1]

    def extents(self, level: int) -> tuple:
        return tuple(_at_level(self._levels, level).shape[2:])


def module_specs(config: PyramidConfig) -> dict:
    """`{module: {level: {role: ConvSpec}}}` of every convolution, in draw order: per level 2..5
    the reweighting module `hfp` (:func:`hsfpn.hfp.hfp_specs`), per level 2..4 the attention
    projections `sdp` (:func:`hsfpn.sdp.sdp_specs`), per level 2..5 the output convolution `out`
    (role `conv`). A role names the HfpParams/SdpParams field its layer fills.
    """
    c = config.channels
    return {"hfp": dict.fromkeys(LEVELS, hfp_specs(c, config.groups)), "sdp": dict.fromkeys(SDP_LEVELS, sdp_specs(c)),
            "out": dict.fromkeys(LEVELS, {"conv": ConvSpec(c, c, kernel=3)})}


def layer_specs(config: PyramidConfig) -> dict:
    """`{name: ConvSpec}` of :func:`module_specs`, in its order, named `<module><level>.<role>` (say
    `hfp2.gap_conv`): the one place a layer name is made. The names key `HsfpnWeights.layers`."""
    return {f"{module}{lv}.{role}": spec for module, levels in module_specs(config).items()
            for lv, roles in levels.items() for role, spec in roles.items()}


@dataclass(frozen=True)
class HsfpnWeights:
    """A config plus its `{name: ConvLayer}` layers, named as in :func:`layer_specs`.

    Checked once, where built: each layer's spec must equal the one
    `layer_specs(config)` gives its name. A missing, extra or mismatched
    layer raises ValidationError naming it. `layers` is read-only, in
    `layer_specs` order. Each level's HFP module, SDP projections and output
    convolution are resolved from it then, and the accessors return them.
    """

    config: PyramidConfig
    layers: MappingProxyType

    def __post_init__(self):
        check_type("config", self.config, PyramidConfig)
        check_type("layers", self.layers, Mapping)
        config, layers = self.config, dict(self.layers)
        for name, layer in layers.items():
            check_type(name, layer, ConvLayer)
        specs = layer_specs(config)
        missing, extra = sorted(specs.keys() - layers.keys()), sorted(layers.keys() - specs.keys(), key=str)
        if missing or extra:
            raise ValidationError(f"missing layers {missing}, layers not of the config {extra}")
        for name, spec in specs.items():
            if layers[name].spec != spec:
                raise ValidationError(f"{name}: spec {layers[name].spec} disagrees with config {spec}")
        object.__setattr__(self, "layers", MappingProxyType({name: layers[name] for name in specs}))
        table = iter(self.layers.values())  # layer_specs order walks module_specs role by role: split it back
        hfp, sdp, out = ({lv: {role: next(table) for role in roles} for lv, roles in levels.items()}
                         for levels in module_specs(config).values())
        object.__setattr__(self, "_hfp", {
            lv: HfpParams(k=config.k, alpha=config.alpha if lv in config.filter_levels else 0.0,
                          squash=config.squash, **roles) for lv, roles in hfp.items()})
        object.__setattr__(self, "_sdp", sdp)
        object.__setattr__(self, "_out", MappingProxyType({lv: roles["conv"] for lv, roles in out.items()}))

    def hfp_params(self, level: int) -> HfpParams:
        """The reweighting module of `level` (one of LEVELS): `config.alpha` at `config.filter_levels`, 0 elsewhere."""
        return _at_level(self._hfp, level)

    def sdp_params(self, level: int, block_h: int, block_w: int) -> SdpParams:
        """The cross-attention of `level` (one of SDP_LEVELS) over blocks of `block_h` x `block_w` pixels.

        Each call wraps the level's projections in a new SdpParams, which checks the block extents.
        """
        return SdpParams(block_h=block_h, block_w=block_w, **_at_level(self._sdp, level))

    @property
    def out_convs(self) -> MappingProxyType:
        """`{level: ConvLayer}` of the output convolutions, read-only."""
        return self._out


def init_weights(config: PyramidConfig) -> HsfpnWeights:
    """Seeded weight initialisation: uniform on +-sqrt(3/fan_in), zero biases.

    Layers are drawn in :func:`layer_specs` order, so a seed pins every
    weight bitwise.
    """
    check_type("config", config, PyramidConfig)
    rng = np.random.default_rng(config.seed)
    layers = {}
    for name, spec in layer_specs(config).items():
        bound = np.sqrt(3.0 / ((spec.in_channels // spec.groups) * spec.kernel * spec.kernel))
        weight = rng.uniform(-bound, bound, size=spec.weight_shape).astype(np.float32)
        bias = np.zeros(spec.out_channels, dtype=np.float32) if spec.has_bias else None
        layers[name] = ConvLayer(spec, weight, bias)
    return HsfpnWeights(config, layers)


def hsfpn_forward(c_pyr: FeaturePyramid, weights: HsfpnWeights) -> FeaturePyramid:
    """Top-down pyramid pass; output extents equal input extents at every level.

    hsfpn mode: P5 = out_conv(reweight(C5)); for i = 4, 3, 2 the reweighted
    C_i is fused with P_{i+1} by cross-attention (plus an optional upsampled
    addition) and passed through the level's output convolution.
    fpn_baseline mode: P5 = out_conv(C5), P_i = out_conv(C_i + up(P_{i+1})).
    Each level's fused map is freed before the next level runs.
    """
    check_type("pyramid", c_pyr, FeaturePyramid)
    check_type("weights", weights, HsfpnWeights)
    config = weights.config
    if c_pyr.channels != config.channels:
        raise ShapeError(f"pyramid has {c_pyr.channels} channels, the weights {config.channels}")
    h5, w5 = c_pyr.extents(LEVELS[-1])
    outputs = {}
    for level in reversed(LEVELS):
        upper = outputs.get(level + 1)
        if config.mode == "fpn_baseline":
            fused = c_pyr[level] if upper is None else c_pyr[level] + upsample2x(upper)
        else:
            fused = hfp_forward(c_pyr[level], weights.hfp_params(level))
            if upper is not None:
                fused = sdp_forward(fused, upper, weights.sdp_params(level, h5, w5))
                if config.fusion_mode == "sdp_plus_add":
                    fused += upsample2x(upper)  # fused is sdp_forward's fresh output
        outputs[level] = weights.out_convs[level](fused)
        del fused, upper  # the next level runs beside the outputs only
    return FeaturePyramid(outputs)


def level_extents(base_hw) -> dict:
    """`{level: (h, w)}` of a pyramid whose largest level has extents `base_hw`.

    `base_hw` is two integers >= 1 (see :func:`hsfpn.tensor.check_integers`),
    both multiples of 2 ** (LEVELS[-1] - LEVELS[0]), so that every level
    halves the one before exactly; else ValidationError.
    """
    step = 2 ** (LEVELS[-1] - LEVELS[0])
    if not (isinstance(base_hw, (tuple, list)) and len(base_hw) == 2):
        raise ValidationError(f"base extents must be two integers, got {base_hw!r}")
    check_integers("base extents", *base_hw, least=1)
    h, w = base_hw
    if h % step or w % step:
        raise ValidationError(f"base extents {tuple(base_hw)} must be positive multiples of {step}")
    return {lv: (h // 2 ** (lv - LEVELS[0]), w // 2 ** (lv - LEVELS[0])) for lv in LEVELS}


def random_pyramid(channels: int, base_hw=(64, 64), batch: int = 1, seed: int = 0) -> FeaturePyramid:
    """Seeded synthetic input pyramid with strict 2x nesting.

    `channels` and `batch` are positive integers and `seed` a non-negative one.
    """
    check_integers("channels and batch", channels, batch, least=1)
    check_integers("seed", seed)
    rng = np.random.default_rng(seed)
    levels = {level: rng.standard_normal((batch, channels, *extents)).astype(np.float32)
              for level, extents in level_extents(base_hw).items()}
    return FeaturePyramid(levels)


# ---------------------------------------------------------------------------
# Pyramid directory I/O
# ---------------------------------------------------------------------------

def level_file(prefix: str, level: int) -> str:
    """`<prefix><level>.pft`, the file name of `level` in a pyramid directory; `prefix` must be
    one or more ASCII letters (else ValidationError), so the name cannot leave the directory."""
    if not (isinstance(prefix, str) and prefix.isascii() and prefix.isalpha()):
        raise ValidationError(f"prefix must be a non-empty string of ASCII letters, got {prefix!r}")
    return f"{prefix}{level}.pft"


def write_pyramid_dir(path, pyr: FeaturePyramid, prefix: str = "p") -> None:
    """Write each level's tensor as the PFT1 file `<prefix><level>.pft` (see :func:`level_file`).

    The prefix, the pyramid (a FeaturePyramid, else ValidationError), every level's values
    (for NaN/Inf) and the path (see :func:`hsfpn.io.check_path`) are checked before the
    directory is made.
    """
    names = {level: level_file(prefix, level) for level in LEVELS}
    check_type("pyramid", pyr, FeaturePyramid)
    for level, tensor in pyr.items():
        check_finite(tensor, f"output level {level}")
    path = Path(hio.check_path(path))
    path.mkdir(parents=True, exist_ok=True)
    for level, tensor in pyr.items():
        hio.write_tensor(path / names[level], tensor)


def read_pyramid_dir(path, prefix: str = "c") -> FeaturePyramid:
    """The pyramid of the four PFT1 files `<prefix><level>.pft` (see :func:`level_file`) in `path`.

    A path that :func:`hsfpn.io.check_path` refuses, or a prefix that
    :func:`level_file` refuses, raises ValidationError before any file is
    read. No other file of the directory is opened.
    """
    path = Path(hio.check_path(path))
    return FeaturePyramid({level: hio.read_tensor(path / level_file(prefix, level)) for level in LEVELS})
