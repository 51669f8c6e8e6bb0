"""Four-level pyramid assembly: per-level reweighting, top-down fusion.

Levels are keyed 2..5 with strict 2x spatial nesting (level 2 is the largest).
The top level gets the reweighting module and an output 3x3 convolution only;
every lower level additionally fuses the upsampled upper output through
block-partitioned cross-attention before its own output convolution. A plain
FPN mode (pixelwise addition, no reweighting or attention) is kept for A/B
comparisons with identical output convolutions.
"""

from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import io as hio
from .errors import ShapeError, ValidationError
from .hfp import HfpParams, hfp_forward, hfp_specs
from .sdp import SdpParams, sdp_forward, sdp_specs
from .tensor import ConvLayer, ConvSpec, as_tensor, check_field_types, check_finite, is_integer, upsample2x

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
    conv_bias: bool = True
    sdp_bias: bool = False
    squash: bool = False

    def __post_init__(self):
        check_field_types(self)
        object.__setattr__(self, "filter_levels", tuple(sorted(set(self.filter_levels))))
        if self.k < 1:
            raise ValidationError("pooling extent k must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.fusion_mode not in FUSION_MODES:
            raise ValidationError(f"fusion_mode must be one of {FUSION_MODES}")
        if self.mode not in PYRAMID_MODES:
            raise ValidationError(f"mode must be one of {PYRAMID_MODES}")
        for level in self.filter_levels:
            if level not in LEVELS:
                raise ValidationError(f"unknown filter level {level}")
        layer_specs(self)  # channels and groups are valid iff every layer they imply is


class FeaturePyramid:
    """Mapping of level -> (N, C_level, H, W) tensor with strict 2x nesting.

    Levels share N; C_level may differ per level and ``channels(level)`` reads it.
    """

    def __init__(self, levels: dict):
        if sorted(levels) != list(LEVELS):
            raise ShapeError(f"pyramid needs levels {LEVELS}, got {sorted(levels)}")
        tensors = {lv: as_tensor(levels[lv], rank=4) for lv in LEVELS}
        n = tensors[LEVELS[0]].shape[0]
        for lv in LEVELS:
            if tensors[lv].shape[0] != n:
                raise ShapeError("pyramid levels disagree on batch extent")
        for lv in LEVELS[:-1]:
            h, w = tensors[lv].shape[2:]
            hn, wn = tensors[lv + 1].shape[2:]
            if h != 2 * hn or w != 2 * wn:
                raise ShapeError(
                    f"level {lv} extents {(h, w)} are not twice level {lv + 1} {(hn, wn)}"
                )
        self._levels = tensors

    def __getitem__(self, level: int) -> np.ndarray:
        return self._levels[level]

    def __iter__(self):
        return iter(LEVELS)

    def items(self):
        return ((lv, self._levels[lv]) for lv in LEVELS)

    @property
    def batch(self) -> int:
        return self._levels[LEVELS[0]].shape[0]

    def channels(self, level: int = LEVELS[0]) -> int:
        return self._levels[level].shape[1]

    def extents(self, level: int) -> tuple:
        return tuple(self._levels[level].shape[2:])


def layer_specs(config: PyramidConfig) -> dict:
    """Every convolution of the network as `{name: ConvSpec}`, in draw order.

    Names are `<module><level>.<field>`: per level 2..5 the reweighting
    convolutions `hfp<L>.*` of :func:`hsfpn.hfp.hfp_specs`, then the
    attention projections `sdp<L>.*` of :func:`hsfpn.sdp.sdp_specs` for
    levels 2..4, then the output convolutions `out<L>.conv`. The names key
    `HsfpnWeights.layers`, and `<field>` names the HfpParams/SdpParams field
    the layer fills. Init, the HsfpnWeights check and cost accounting all
    walk this table.
    """
    c, bias = config.channels, config.conv_bias
    hfp = hfp_specs(c, config.groups, bias)
    sdp = sdp_specs(c, config.sdp_bias)
    specs = {f"hfp{lv}.{role}": spec for lv in LEVELS for role, spec in hfp.items()}
    specs.update({f"sdp{lv}.{role}": spec for lv in SDP_LEVELS for role, spec in sdp.items()})
    specs.update({f"out{lv}.conv": ConvSpec(c, c, kernel=3, has_bias=bias) for lv in LEVELS})
    return specs


@dataclass(frozen=True)
class HsfpnWeights:
    """A config plus its `{name: ConvLayer}` layers, named as in :func:`layer_specs`.

    Checked once, where built: each layer's spec must equal the one
    `layer_specs(config)` gives its name. A missing, extra or mismatched
    layer raises ValidationError naming it.
    `layers` is read-only, in `layer_specs` order; each level's HFP and SDP
    parameters are built from it by :meth:`hfp_params` and :meth:`sdp_params`.
    """

    config: PyramidConfig
    layers: MappingProxyType

    def __post_init__(self):
        layers = dict(self.layers)
        for name, layer in layers.items():
            if not isinstance(layer, ConvLayer):
                raise ValidationError(f"{name}: expected a ConvLayer, got {type(layer).__name__}")
        specs = layer_specs(self.config)
        missing, extra = sorted(specs.keys() - layers.keys()), sorted(layers.keys() - specs.keys(), key=str)
        if missing or extra:
            raise ValidationError(f"missing layers {missing}, layers not of the config {extra}")
        for name, spec in specs.items():
            if layers[name].spec != spec:
                raise ValidationError(f"{name}: spec {layers[name].spec} disagrees with config {spec}")
        object.__setattr__(self, "layers", MappingProxyType({name: layers[name] for name in specs}))

    def _roles(self, module: str, level: int) -> dict:
        """`{role: layer}` of the layers named `<module><level>.<role>`."""
        prefix = f"{module}{level}."
        return {name.removeprefix(prefix): layer for name, layer in self.layers.items() if name.startswith(prefix)}

    def hfp_params(self, level: int) -> HfpParams:
        """The reweighting module of `level`: `config.alpha` at `config.filter_levels`, 0 elsewhere."""
        config = self.config
        alpha = config.alpha if level in config.filter_levels else 0.0
        return HfpParams(k=config.k, alpha=alpha, squash=config.squash, **self._roles("hfp", level))

    def sdp_params(self, level: int, block_h: int, block_w: int) -> SdpParams:
        """The cross-attention of `level` over blocks of `block_h` x `block_w` pixels."""
        return SdpParams(block_h=block_h, block_w=block_w, **self._roles("sdp", level))

    @property
    def out_convs(self) -> MappingProxyType:
        """`{level: ConvLayer}` of the output convolutions, read-only."""
        return MappingProxyType({lv: self.layers[f"out{lv}.conv"] for lv in LEVELS})


def init_weights(config: PyramidConfig) -> HsfpnWeights:
    """Seeded weight initialisation: uniform on +-sqrt(3/fan_in), zero biases.

    Layers are drawn in :func:`layer_specs` order, so a seed pins every
    weight bitwise.
    """
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
    """
    config = weights.config
    channels = [c_pyr.channels(lv) for lv in LEVELS]
    if channels != [config.channels] * len(LEVELS):
        raise ShapeError(f"pyramid must have {config.channels} channels at every level; got {channels}")
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
    return FeaturePyramid(outputs)


def level_extents(base_hw) -> dict:
    """`{level: (h, w)}` of a pyramid whose largest level has extents `base_hw`.

    `base_hw` is two integers (see :func:`hsfpn.tensor.is_integer`), both
    positive multiples of 2 ** (LEVELS[-1] - LEVELS[0]), so that every level
    halves the one before exactly; else ValidationError.
    """
    step = 2 ** (LEVELS[-1] - LEVELS[0])
    if not (isinstance(base_hw, (tuple, list)) and len(base_hw) == 2 and all(map(is_integer, base_hw))):
        raise ValidationError(f"base extents must be two integers, got {base_hw!r}")
    h, w = base_hw
    if h < 1 or w < 1 or h % step or w % step:
        raise ValidationError(f"base extents {tuple(base_hw)} must be positive multiples of {step}")
    return {lv: (h // 2 ** (lv - LEVELS[0]), w // 2 ** (lv - LEVELS[0])) for lv in LEVELS}


def random_pyramid(channels: int, base_hw=(64, 64), batch: int = 1, seed: int = 0) -> FeaturePyramid:
    """Seeded synthetic input pyramid with strict 2x nesting.

    `channels` and `batch` are positive integers and `seed` a non-negative one.
    """
    if not (all(map(is_integer, (channels, batch, seed))) and min(channels, batch) >= 1 and seed >= 0):
        raise ValidationError(f"channels {channels!r} and batch {batch!r} must be positive integers, "
                              f"seed {seed!r} a non-negative one")
    rng = np.random.default_rng(seed)
    levels = {}
    for level, extents in level_extents(base_hw).items():
        arr = rng.standard_normal((batch, channels, *extents)).astype(np.float32)
        levels[level] = check_finite(arr, f"level {level}")
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

    The prefix and every level (for NaN/Inf) are checked before the directory is made.
    """
    names = {level: level_file(prefix, level) for level in LEVELS}
    for level, tensor in pyr.items():
        check_finite(tensor, f"output level {level}")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for level, tensor in pyr.items():
        hio.write_tensor(path / names[level], tensor)


def read_pyramid_dir(path, prefix: str = "c") -> FeaturePyramid:
    """The pyramid of the four PFT1 files `<prefix><level>.pft` (see :func:`level_file`) in `path`.

    A prefix that :func:`level_file` refuses raises ValidationError before any
    file is read. No other file of the directory is opened.
    """
    return FeaturePyramid({level: hio.read_tensor(Path(path) / level_file(prefix, level)) for level in LEVELS})
