"""High-frequency and spatial perception feature pyramid toolkit."""

from .cost import ATTENTION_LAYOUTS, CostModel, OpCostReport, attention_cost, cost_rows, count_params
from .errors import DegenerateBackgroundError, PgmParseError, ShapeError, ValidationError
from .frequency import (
    ScrWindows,
    blob_scene,
    dct_matrix,
    highfreq_response,
    highpass_cut,
    lowcut_filter,
    scr,
    scr_filter_sweep,
)
from .hfp import HfpParams, channel_path, hfp_forward, spatial_path
from .io import read_pgm, read_tensor, write_pgm, write_tensor
from .pyramid import (
    FeaturePyramid,
    HsfpnWeights,
    LEVELS,
    PyramidConfig,
    SDP_LEVELS,
    hsfpn_forward,
    init_weights,
    random_pyramid,
    read_pyramid_dir,
    write_pyramid_dir,
)
from .sdp import SdpParams, block_attention, sdp_forward
from .tensor import (
    ConvLayer,
    ConvSpec,
    adaptive_pool,
    as_tensor,
    conv2d,
    relu,
    sigmoid,
    upsample2x,
)

__version__ = "0.1.0"
