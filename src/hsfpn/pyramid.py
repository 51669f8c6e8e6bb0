"""Four-level pyramid assembly: laterals, per-level reweighting, top-down fusion.

Levels are keyed 2..5 with strict 2x spatial nesting (level 2 is the largest).
The top level gets the reweighting module and an output 3x3 convolution only;
every lower level additionally fuses the upsampled upper output through
block-partitioned cross-attention before its own output convolution. A plain
FPN mode (pixelwise addition, no reweighting or attention) is kept for A/B
comparisons with identical output convolutions.
"""

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as hio
from .errors import ShapeError, ValidationError
from .frequency import FilterSpec
from .hfp import HfpParams, hfp_forward
from .sdp import SdpParams, sdp_forward
from .tensor import ConvLayer, ConvSpec, as_tensor, check_finite, upsample2x

LEVELS = (2, 3, 4, 5)
SDP_LEVELS = (2, 3, 4)

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
    filter_levels: tuple = (2, 3)
    conv_bias: bool = True
    sdp_bias: bool = False
    squash: bool = False

    def __post_init__(self):
        if self.channels < 1:
            raise ValidationError("channel count must be positive")
        if self.k < 1:
            raise ValidationError("pooling extent k must be positive")
        if self.channels % self.groups or (2 * self.channels) % self.groups:
            raise ValidationError(
                f"groups={self.groups} must divide channels={self.channels} and 2x channels"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.fusion_mode not in FUSION_MODES:
            raise ValidationError(f"fusion_mode must be one of {FUSION_MODES}")
        if self.mode not in PYRAMID_MODES:
            raise ValidationError(f"mode must be one of {PYRAMID_MODES}")
        for level in self.filter_levels:
            if level not in LEVELS:
                raise ValidationError(f"unknown filter level {level}")

    @property
    def filter_spec(self) -> FilterSpec:
        return FilterSpec(
            alpha=self.alpha,
            per_level_enabled={lv: lv in self.filter_levels for lv in LEVELS},
        )


class FeaturePyramid:
    """Mapping of level -> (N, C_level, H, W) tensor with strict 2x nesting."""

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

    @property
    def uniform_channels(self) -> bool:
        c = self.channels(LEVELS[0])
        return all(self._levels[lv].shape[1] == c for lv in LEVELS)

    def extents(self, level: int) -> tuple:
        return tuple(self._levels[level].shape[2:])


def conv_specs_for(config: PyramidConfig) -> dict:
    """The per-level convolution shapes implied by a config (shared by init and costing)."""
    c, g, bias = config.channels, config.groups, config.conv_bias
    return {
        "gap": ConvSpec(c, c, kernel=1, groups=g, has_bias=bias),
        "gmp": ConvSpec(c, c, kernel=1, groups=g, has_bias=bias),
        "merge": ConvSpec(2 * c, c, kernel=1, groups=g, has_bias=bias),
        "spatial": ConvSpec(c, 1, kernel=1, has_bias=bias),
        "fuse": ConvSpec(c, c, kernel=3, has_bias=bias),
        "proj": ConvSpec(c, c, kernel=1, has_bias=config.sdp_bias),
        "out": ConvSpec(c, c, kernel=3, has_bias=bias),
    }


@dataclass
class HsfpnWeights:
    config: PyramidConfig
    hfp: dict = field(default_factory=dict)      # level -> HfpParams
    sdp: dict = field(default_factory=dict)      # level -> SdpParams (2..4)
    out_convs: dict = field(default_factory=dict)  # level -> ConvLayer
    laterals: dict = field(default_factory=dict)   # level -> ConvLayer, optional


def _draw_layer(rng, spec: ConvSpec) -> ConvLayer:
    fan_in = (spec.in_channels // spec.groups) * spec.kernel * spec.kernel
    bound = np.sqrt(3.0 / fan_in)
    weight = rng.uniform(-bound, bound, size=spec.weight_shape).astype(np.float32)
    bias = np.zeros(spec.out_channels, dtype=np.float32) if spec.has_bias else None
    return ConvLayer(spec, check_finite(weight, "initialised weight"), bias)


def init_weights(config: PyramidConfig, backbone_channels: dict | None = None) -> HsfpnWeights:
    """Seeded weight initialisation: uniform on +-sqrt(3/fan_in), zero biases.

    The draw order is fixed (per level: gap, gmp, merge, spatial, fuse; then
    the three attention projections for levels 2..4; then output convolutions;
    then laterals if backbone channel counts are given), so a seed pins every
    weight bitwise.
    """
    rng = np.random.default_rng(config.seed)
    specs = conv_specs_for(config)
    weights = HsfpnWeights(config=config)
    fspec = config.filter_spec
    for level in LEVELS:
        weights.hfp[level] = HfpParams(
            k=config.k,
            gap_conv=_draw_layer(rng, specs["gap"]),
            gmp_conv=_draw_layer(rng, specs["gmp"]),
            merge_conv=_draw_layer(rng, specs["merge"]),
            spatial_conv=_draw_layer(rng, specs["spatial"]),
            fuse_conv=_draw_layer(rng, specs["fuse"]),
            filter=fspec,
            squash=config.squash,
        )
    for level in SDP_LEVELS:
        weights.sdp[level] = SdpParams(
            q_conv=_draw_layer(rng, specs["proj"]),
            k_conv=_draw_layer(rng, specs["proj"]),
            v_conv=_draw_layer(rng, specs["proj"]),
        )
    for level in LEVELS:
        weights.out_convs[level] = _draw_layer(rng, specs["out"])
    if backbone_channels is not None:
        for level in LEVELS:
            spec = ConvSpec(
                backbone_channels[level], config.channels, kernel=1, has_bias=config.conv_bias
            )
            weights.laterals[level] = _draw_layer(rng, spec)
    return weights


def build_laterals(backbone_feats: FeaturePyramid, weights: HsfpnWeights) -> FeaturePyramid:
    """Reduce arbitrary backbone channel counts to the configured width with 1x1 convolutions."""
    if not weights.laterals:
        raise ValidationError("weights carry no lateral convolutions; pass backbone_channels to init_weights")
    out = {}
    for level in LEVELS:
        feat = backbone_feats[level]
        layer = weights.laterals[level]
        if feat.shape[1] != layer.spec.in_channels:
            raise ShapeError(
                f"level {level} has {feat.shape[1]} channels, lateral expects {layer.spec.in_channels}"
            )
        out[level] = layer(feat)
    return FeaturePyramid(out)


def _clamped_hfp(params: HfpParams, h: int, w: int) -> HfpParams:
    # Desk-scale top levels can be smaller than the configured pooling extent;
    # pooling windows are capped by the level's own extents.
    k = min(params.k, h, w)
    return params.with_pool_extent(k) if k != params.k else params


def hsfpn_forward(c_pyr: FeaturePyramid, weights: HsfpnWeights, timings: dict | None = None) -> FeaturePyramid:
    """Top-down pyramid pass; output extents equal input extents at every level.

    hsfpn mode: P5 = out_conv(reweight(C5)); for i = 4, 3, 2 the reweighted
    C_i is fused with P_{i+1} by cross-attention (plus an optional upsampled
    addition) and passed through the level's output convolution.
    fpn_baseline mode: P5 = out_conv(C5), P_i = out_conv(C_i + up(P_{i+1})).
    """
    config = weights.config
    if not c_pyr.uniform_channels or c_pyr.channels() != config.channels:
        raise ShapeError(
            f"pyramid must have {config.channels} channels at every level; "
            f"got {[c_pyr[lv].shape[1] for lv in LEVELS]}"
        )
    clock = time.perf_counter
    spent = {"hfp": 0.0, "sdp": 0.0, "output_conv": 0.0, "baseline_fuse": 0.0}
    outputs = {}

    if config.mode == "fpn_baseline":
        for level in reversed(LEVELS):
            t0 = clock()
            fused = c_pyr[level] if level == LEVELS[-1] else c_pyr[level] + upsample2x(outputs[level + 1])
            spent["baseline_fuse"] += clock() - t0
            t0 = clock()
            outputs[level] = weights.out_convs[level](fused)
            spent["output_conv"] += clock() - t0
    else:
        h5, w5 = c_pyr.extents(LEVELS[-1])
        for level in reversed(LEVELS):
            h, w = c_pyr.extents(level)
            t0 = clock()
            enriched = hfp_forward(c_pyr[level], _clamped_hfp(weights.hfp[level], h, w), level)
            spent["hfp"] += clock() - t0
            if level == LEVELS[-1]:
                fused = enriched
            else:
                t0 = clock()
                params = weights.sdp[level].with_blocks(h5, w5)
                fused = sdp_forward(enriched, outputs[level + 1], params)
                if config.fusion_mode == "sdp_plus_add":
                    fused = fused + upsample2x(outputs[level + 1])
                spent["sdp"] += clock() - t0
            t0 = clock()
            outputs[level] = weights.out_convs[level](fused)
            spent["output_conv"] += clock() - t0

    if timings is not None:
        timings.update(spent)
    return FeaturePyramid(outputs)


def random_pyramid(channels: int, base_hw=(64, 64), batch: int = 1, seed: int = 0) -> FeaturePyramid:
    """Seeded synthetic input pyramid with strict 2x nesting."""
    h, w = base_hw
    if h % 8 or w % 8 or h < 8 or w < 8:
        raise ValidationError(f"base extents {base_hw} must be multiples of 8")
    rng = np.random.default_rng(seed)
    levels = {}
    for i, level in enumerate(LEVELS):
        arr = rng.standard_normal((batch, channels, h >> i, w >> i)).astype(np.float32)
        levels[level] = check_finite(arr, f"level {level}")
    return FeaturePyramid(levels)


# ---------------------------------------------------------------------------
# Pyramid directory I/O and weight manifests
# ---------------------------------------------------------------------------

def write_pyramid_dir(path, pyr: FeaturePyramid, prefix: str = "p") -> None:
    """Write level tensors as `<prefix><level>.pft` plus a manifest.json."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {"format": "PFT1", "prefix": prefix, "levels": {}}
    for level, tensor in pyr.items():
        name = f"{prefix}{level}.pft"
        hio.write_tensor(path / name, tensor)
        manifest["levels"][str(level)] = {"file": name, "dims": list(tensor.shape)}
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _read_manifest(path: Path) -> dict:
    """Parse a manifest.json, which must hold a JSON object."""
    try:
        manifest = json.loads(path.read_text())
    except ValueError as err:  # invalid JSON or not UTF-8
        raise ValidationError(f"{path}: not valid JSON: {err}") from None
    if not isinstance(manifest, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return manifest


def _malformed(path: Path, what: str, err: Exception) -> ValidationError:
    detail = f"missing key {err}" if isinstance(err, KeyError) else str(err)
    return ValidationError(f"{path}: malformed {what}: {detail}")


def read_pyramid_dir(path, prefix: str = "c") -> FeaturePyramid:
    """Read `<prefix><level>.pft` files, validated against the directory manifest.

    A manifest that is not a JSON object, or whose level entries are not
    objects naming their file as a string, raises ValidationError.
    """
    path = Path(path)
    manifest_path = path / "manifest.json"
    entries = {}
    if manifest_path.exists():
        entries = _read_manifest(manifest_path).get("levels", {})
        if not isinstance(entries, dict) or not all(isinstance(e, dict) for e in entries.values()):
            raise ValidationError(f"{manifest_path}: 'levels' must map level names to objects")
    levels = {}
    for level in LEVELS:
        entry = entries.get(str(level), {})
        name = entry.get("file", f"{prefix}{level}.pft")
        if not isinstance(name, str):
            raise ValidationError(f"{manifest_path}: level {level} file must be a string")
        tensor = hio.read_tensor(path / name)
        if "dims" in entry and list(tensor.shape) != entry["dims"]:
            raise ValidationError(
                f"{name}: dims {list(tensor.shape)} disagree with manifest {entry['dims']}"
            )
        levels[level] = tensor
    return FeaturePyramid(levels)


def _iter_named_layers(weights: HsfpnWeights):
    for level in LEVELS:
        p = weights.hfp.get(level)
        if p is not None:
            yield f"hfp{level}.gap_conv", p.gap_conv
            yield f"hfp{level}.gmp_conv", p.gmp_conv
            yield f"hfp{level}.merge_conv", p.merge_conv
            yield f"hfp{level}.spatial_conv", p.spatial_conv
            yield f"hfp{level}.fuse_conv", p.fuse_conv
    for level in SDP_LEVELS:
        p = weights.sdp.get(level)
        if p is not None:
            yield f"sdp{level}.q_conv", p.q_conv
            yield f"sdp{level}.k_conv", p.k_conv
            yield f"sdp{level}.v_conv", p.v_conv
    for level in LEVELS:
        layer = weights.out_convs.get(level)
        if layer is not None:
            yield f"out{level}.conv", layer
    for level in sorted(weights.laterals):
        yield f"lateral{level}.conv", weights.laterals[level]


def save_weights(path, weights: HsfpnWeights) -> None:
    """Write every weight as a PFT1 file plus a manifest naming them.

    The manifest schema is documented in the README: a config block plus one
    entry per layer with the ConvSpec fields and the weight/bias file names.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    cfg = weights.config
    manifest = {
        "format": "hsfpn-weights-v1",
        "config": {
            "channels": cfg.channels,
            "alpha": cfg.alpha,
            "k": cfg.k,
            "groups": cfg.groups,
            "fusion_mode": cfg.fusion_mode,
            "mode": cfg.mode,
            "seed": cfg.seed,
            "filter_levels": list(cfg.filter_levels),
            "conv_bias": cfg.conv_bias,
            "sdp_bias": cfg.sdp_bias,
            "squash": cfg.squash,
        },
        "layers": {},
    }
    for name, layer in _iter_named_layers(weights):
        spec = layer.spec
        entry = {
            "in_channels": spec.in_channels,
            "out_channels": spec.out_channels,
            "kernel": spec.kernel,
            "groups": spec.groups,
            "has_bias": spec.has_bias,
            "weight": f"{name}.weight.pft",
        }
        hio.write_tensor(path / entry["weight"], layer.weight.reshape(spec.weight_shape))
        if layer.bias is not None:
            entry["bias"] = f"{name}.bias.pft"
            hio.write_tensor(path / entry["bias"], layer.bias)
        manifest["layers"][name] = entry
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_weights(path) -> HsfpnWeights:
    """Inverse of :func:`save_weights`.

    A manifest that is not a JSON object, lacks a config field or layer
    entry, or holds a value of the wrong type raises ValidationError.
    """
    path = Path(path)
    manifest_path = path / "manifest.json"
    manifest = _read_manifest(manifest_path)
    if manifest.get("format") != "hsfpn-weights-v1":
        raise ValidationError(f"unknown weight manifest format {manifest.get('format')!r}")
    try:
        cfg = manifest["config"]
        config = PyramidConfig(
            channels=cfg["channels"],
            alpha=cfg["alpha"],
            k=cfg["k"],
            groups=cfg["groups"],
            fusion_mode=cfg["fusion_mode"],
            mode=cfg["mode"],
            seed=cfg["seed"],
            filter_levels=tuple(cfg["filter_levels"]),
            conv_bias=cfg["conv_bias"],
            sdp_bias=cfg["sdp_bias"],
            squash=cfg["squash"],
        )
        layers = manifest["layers"]
    except (KeyError, TypeError) as err:
        raise _malformed(manifest_path, "config", err) from None
    if not isinstance(layers, dict):
        raise ValidationError(f"{manifest_path}: 'layers' must be an object")

    def layer(name: str) -> ConvLayer:
        try:
            entry = layers[name]
            spec = ConvSpec(
                entry["in_channels"],
                entry["out_channels"],
                kernel=entry["kernel"],
                groups=entry["groups"],
                has_bias=entry["has_bias"],
            )
            weight_path = path / entry["weight"]
            bias_path = path / entry["bias"] if "bias" in entry else None
        except (KeyError, TypeError) as err:
            raise _malformed(manifest_path, f"layer {name!r}", err) from None
        weight = hio.read_tensor(weight_path)
        if weight.shape != spec.weight_shape:
            raise ShapeError(f"{name}: weight dims {weight.shape} do not match {spec.weight_shape}")
        bias = hio.read_tensor(bias_path) if bias_path is not None else None
        if spec.has_bias and bias is None:
            raise ValidationError(f"{name}: manifest marks a bias but names no file")
        return ConvLayer(spec, weight, bias)

    weights = HsfpnWeights(config=config)
    fspec = config.filter_spec
    for level in LEVELS:
        weights.hfp[level] = HfpParams(
            k=config.k,
            gap_conv=layer(f"hfp{level}.gap_conv"),
            gmp_conv=layer(f"hfp{level}.gmp_conv"),
            merge_conv=layer(f"hfp{level}.merge_conv"),
            spatial_conv=layer(f"hfp{level}.spatial_conv"),
            fuse_conv=layer(f"hfp{level}.fuse_conv"),
            filter=fspec,
            squash=config.squash,
        )
    for level in SDP_LEVELS:
        weights.sdp[level] = SdpParams(
            q_conv=layer(f"sdp{level}.q_conv"),
            k_conv=layer(f"sdp{level}.k_conv"),
            v_conv=layer(f"sdp{level}.v_conv"),
        )
    for level in LEVELS:
        weights.out_convs[level] = layer(f"out{level}.conv")
    for name in layers:
        if name.startswith("lateral"):
            level = name[len("lateral"):].split(".")[0]
            if not level.isdecimal():
                raise ValidationError(f"{manifest_path}: bad lateral layer name {name!r}")
            weights.laterals[int(level)] = layer(name)
    return weights
