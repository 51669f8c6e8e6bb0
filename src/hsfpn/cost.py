"""Cost accounting: attention-layout complexity and per-module parameter/MAC counts.

Attention costs follow the dominant-term calculus for three layouts over an
input split into n blocks of h x w pixels with c channels:

    block-token (``vit``):    n^2 * h*w * c      multiplier 1
    in-block    (``sdp``):    n * (h*w)^2 * c    multiplier hw/n
    all-pixel   (``global``): (n*h*w)^2 * c      multiplier hw

Each count includes both the similarity and the value-weighting product as a
uniform factor of two, so the pairwise ratios match the multipliers exactly.
"""

from dataclasses import dataclass, field

from .pyramid import LEVELS, SDP_LEVELS, PyramidConfig, level_extents, module_specs
from .tensor import check_choice, check_field_types, check_integers, check_type

# layout: (complexity, multiplier, MACs of both products from n, hw = h*w and c)
_LAYOUTS = {
    "vit": ("n^2*h*w*c", "1", lambda n, hw, c: 2 * n * n * hw * c),
    "sdp": ("n*(h*w)^2*c", "hw/n", lambda n, hw, c: 2 * n * hw * hw * c),
    "global": ("(n*h*w)^2*c", "hw", lambda n, hw, c: 2 * (n * hw) ** 2 * c),
}
ATTENTION_LAYOUTS = tuple(_LAYOUTS)
_COST_FIELDS = ("method", "complexity", "multiplier", "macs")
REPORT_FORMATS = ("table", "json", "csv")


@dataclass(frozen=True)
class CostModel:
    """Block count, block extents, and channel count for an attention layout: positive integers."""

    n: int
    h: int
    w: int
    c: int

    def __post_init__(self):
        check_field_types(self)
        check_integers("cost-model fields", self.n, self.h, self.w, self.c, least=1)


def attention_cost(model: CostModel, layout: str) -> int:
    """Multiply-accumulate count of the dominant attention terms (exact integer)."""
    check_type("model", model, CostModel)
    check_choice("layout", layout, ATTENTION_LAYOUTS)
    return _LAYOUTS[layout][2](model.n, model.h * model.w, model.c)


def cost_rows(model: CostModel) -> list:
    """One dict per layout: method, complexity, multiplier, and MAC count."""
    return [dict(zip(_COST_FIELDS, (layout, complexity, multiplier, attention_cost(model, layout))))
            for layout, (complexity, multiplier, _) in _LAYOUTS.items()]


def cost_table_rows(model: CostModel) -> list:
    """Header, then the fields of each :func:`cost_rows` row as strings."""
    return [_COST_FIELDS] + [tuple(str(row[f]) for f in _COST_FIELDS) for row in cost_rows(model)]


def render(rows, fmt: str) -> str:
    """Header-first rows of strings as CSV text for ``csv``, else as an aligned text table.

    A table pads every column to its widest cell, separates columns by two
    spaces and ends without a newline; CSV ends every line with one.
    """
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in rows)
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows)


# ---------------------------------------------------------------------------
# Parameter and MAC accounting for the pyramid modules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerCost:
    params: int = 0
    macs: int = 0

    def __add__(self, other):
        return LayerCost(self.params + other.params, self.macs + other.macs)


@dataclass
class OpCostReport:
    """Per-level, per-module parameter and MAC counts with totals.

    MACs cover the convolution and attention products for one sample at the
    configured resolution; pooling, activations, and bias additions are left
    out as non-dominant. `per_level` maps integer levels to `{module name:
    LayerCost}` dicts, and `add` takes an integer level, a module name and
    two integer counts; anything else raises ValidationError, so the totals
    and the sorted rows always compute.
    """

    per_level: dict = field(default_factory=dict)

    def __post_init__(self):
        check_type("per_level", self.per_level, dict)
        for level, mods in self.per_level.items():
            check_integers("level", level)
            check_type(f"level {level}'s modules", mods, dict)
            for module, cost in mods.items():
                check_type("module", module, str)
                check_type(f"level {level} {module} cost", cost, LayerCost)

    def add(self, level: int, module: str, params: int, macs: int):
        check_integers("level", level)
        check_type("module", module, str)
        check_integers("params and macs", params, macs)
        mods = self.per_level.setdefault(level, {})
        mods[module] = mods.get(module, LayerCost()) + LayerCost(params, macs)

    def module_total(self, module: str) -> LayerCost:
        return sum((mods.get(module, LayerCost()) for mods in self.per_level.values()), LayerCost())

    @property
    def total(self) -> LayerCost:
        return sum((e for mods in self.per_level.values() for e in mods.values()), LayerCost())

    def to_dict(self) -> dict:
        return {
            "per_level": {
                str(level): {m: {"params": e.params, "macs": e.macs} for m, e in mods.items()}
                for level, mods in sorted(self.per_level.items())
            },
            "total": {"params": self.total.params, "macs": self.total.macs},
        }

    def rows(self) -> list:
        """Header, one row per (level, module) in sorted order, then the total; all strings."""
        rows = [("level", "module", "params", "macs")]
        for level, mods in sorted(self.per_level.items()):
            rows += [(str(level), module, str(e.params), str(e.macs)) for module, e in sorted(mods.items())]
        return rows + [("total", "all", str(self.total.params), str(self.total.macs))]


# Report row of each HFP and SDP layer role (see :func:`hsfpn.pyramid.module_specs`);
# the output convolutions exist in a plain FPN too, so they have none. The
# channel path's convolutions act on pooled (N, C, 1, 1) vectors.
_ROW = {
    "gap_conv": "cp",
    "gmp_conv": "cp",
    "merge_conv": "cp",
    "spatial_conv": "sp",
    "fuse_conv": "hfp_fuse",
    "q_conv": "sdp",
    "k_conv": "sdp",
    "v_conv": "sdp",
}


def count_params(config, base_hw, with_cp: bool = True, with_sp: bool = True,
                 with_sdp: bool = True) -> OpCostReport:
    """Exact added parameter/MAC counts of the pyramid modules over a plain FPN.

    `config` is a :class:`hsfpn.pyramid.PyramidConfig`; `base_hw` gives the
    level-2 spatial extents (see :func:`hsfpn.pyramid.level_extents`) used
    for the MAC counts. SDP's key and value projections run on the level
    above, so they count at its extents; attention counts on the
    n*(hw)^2*c calculus. The 3x3 fuse convolution belongs to the reweighting
    module as a whole and is counted whenever the channel or spatial path is
    enabled. With every module disabled the report is empty (zero added
    parameters). The three switches are exactly bools, as a bool field is.
    """
    check_type("config", config, PyramidConfig)
    for name, flag in (("with_cp", with_cp), ("with_sp", with_sp), ("with_sdp", with_sdp)):
        check_choice(name, flag, (False, True))
    report = OpCostReport()
    extents = level_extents(base_hw)
    enabled = {"cp": with_cp, "sp": with_sp, "hfp_fuse": with_cp or with_sp, "sdp": with_sdp}
    specs = module_specs(config)
    for level, roles in [*specs["hfp"].items(), *specs["sdp"].items()]:  # in layer_specs order
        for role, spec in roles.items():
            row = _ROW[role]
            if enabled[row]:
                # keys and values are projected from the upper level's map
                at = level + 1 if role in ("k_conv", "v_conv") else level
                hw = (1, 1) if row == "cp" else extents[at]
                report.add(level, row, spec.param_count, spec.macs(*hw))
    if with_sdp:
        h5, w5 = extents[LEVELS[-1]]
        for level in SDP_LEVELS:  # blocks have the top level's extents
            h, w = extents[level]
            model = CostModel(n=(h // h5) * (w // w5), h=h5, w=w5, c=config.channels)
            report.add(level, "sdp", 0, attention_cost(model, "sdp"))
    return report
