"""Frequency-domain toolbox: DCT low-cut filtering and saliency.

The paper's high-pass filter transforms each plane with the orthonormal
type-II DCT, zeroes the low-frequency top-left corner of the coefficients and
transforms back. ``dct_matrix`` builds the DCT as an explicit cosine matrix
(no FFT), only the leading rows asked for, and ``highpass_cut`` gives the
corner that a fraction ``alpha`` of each axis blocks. Orthonormality turns
the masked round trip into an orthogonal projection, so ``lowcut_filter``
removes an absolute r x s corner from every plane by projecting onto the
corner's DCT basis, without transforming the whole plane, and filtering twice
equals filtering once. ``highfreq_response`` applies it with the fractional
cut per channel. The signal-to-clutter ratio ``scr`` quantifies how salient a
small target is against its surroundings before and after such filtering.
``scr_filter_sweep`` scores many absolute cuts of one image: it reads and
checks every cut first, sums one corner of DCT coefficients at the largest
cut over bands of image rows, and keeps the low-pass part of the pixels
``scr`` reads, adding to it only the coefficients each cut adds to the one
before. Every extent (DCT order and rows, plane extents, cuts) is checked by
one rule: an integer, numpy ones included, that is not a bool.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from math import ceil

import numpy as np

from .errors import DegenerateBackgroundError, ShapeError, ValidationError
from .tensor import (DTYPE, as_tensor, check_field_types, check_finite, check_integers, check_real, check_type,
                     map_plane_groups)

SWEEP_BAND_ROWS = 128  # rows per scr_filter_sweep corner product: not a BAND_ROWS share, as it orders the sums


def dct_matrix(n: int, rows: int | None = None) -> np.ndarray:
    """The first `rows` rows (default all n) of the orthonormal type-II DCT matrix of order n.

    float64 and read-only. Only the rows asked for are built, and each equals
    (bitwise) the same row of the full matrix. The 16 most recently used
    (n, rows) pairs are cached. n must be an integer >= 1 and rows one in
    [0, n], or ValidationError is raised before the cache is touched.
    """
    rows = n if rows is None else rows
    check_integers("DCT order and rows", n, rows)
    if n < 1 or rows > n:
        raise ValidationError(f"DCT order must be >= 1 and rows at most the order, got order {n} and rows {rows}")
    return _dct_rows(int(n), int(rows))


@lru_cache(maxsize=16)
def _dct_rows(n: int, rows: int) -> np.ndarray:
    """dct_matrix's cached body, keyed by checked Python ints."""
    j = np.arange(n, dtype=np.float64)
    k = np.arange(rows, dtype=np.float64)[:, None]
    mat = np.cos(np.pi * (2.0 * j[None, :] + 1.0) * k / (2.0 * n))
    mat *= np.sqrt(2.0 / n)
    mat[:1] *= np.sqrt(0.5)
    mat.setflags(write=False)
    return mat


def highpass_cut(h: int, w: int, alpha: float) -> tuple:
    """Extents (r, s) of the top-left DCT corner that the fraction `alpha` blocks.

    r counts the rows u with u < alpha*h and s the columns v with v < alpha*w,
    compared on the float64 products: alpha=0.25 on h=10 blocks u in {0, 1, 2},
    and alpha=0.1 on h=10 blocks u = 0 alone, as 0.1*10 rounds to 1.0 though
    the exact product of the binary 0.1 with 10 exceeds 1. alpha=0 blocks
    nothing, alpha=1 everything. The plane extents must be integers >= 1 and
    alpha a real number (no bool) in [0, 1], or ValidationError is raised.
    """
    check_integers("plane extents", h, w, least=1)
    check_real("alpha", alpha, 0.0, 1.0)
    # the integers u >= 0 with u < alpha*n number ceil(alpha*n)
    return min(h, ceil(alpha * h)), min(w, ceil(alpha * w))


def lowcut_filter(x, cut_rows: int, cut_cols: int) -> np.ndarray:
    """Each plane with its top-left cut_rows x cut_cols DCT corner zeroed, as a projection.

    Accepts an (N, C, H, W) tensor or a bare (H, W) plane. With D_r the first
    r = min(cut_rows, H) rows of the order-H DCT matrix and D_s the first
    s = min(cut_cols, W) rows of the order-W one, the result is
    x - D_r.T @ (D_r @ x @ D_s.T) @ D_s, evaluated in float64 and rounded once:
    the mask form (transform, zero the corner, invert; the reference in
    ``tests/oracles.py``) without transforming the whole plane. An empty cut
    returns the input unchanged (bitwise). Planes run in groups by
    :func:`hsfpn.tensor.map_plane_groups`, so the float64 working memory is a
    conv band's share of the map; every plane's result is independent of its group.
    """
    x = as_tensor(x)
    if x.ndim not in (2, 4):
        raise ShapeError(f"expected a rank-2 plane or a rank-4 (N, C, H, W) tensor, got rank {x.ndim}")
    check_integers("cut extents", cut_rows, cut_cols)
    h, w = x.shape[-2:]
    r, s = min(cut_rows, h), min(cut_cols, w)
    if r == 0 or s == 0:
        return x
    d_r, d_s = dct_matrix(h, r), dct_matrix(w, s)

    def high_pass(group):
        # Corner coefficients D_r @ x @ D_s.T; the W-axis product is one GEMM.
        corner = d_r @ (group.reshape(-1, w) @ d_s.T).reshape(-1, h, s)
        low = ((d_r.T @ corner).reshape(-1, s) @ d_s).reshape(group.shape)
        return np.subtract(group, low, out=low)
    return map_plane_groups(high_pass, x, h, w)


def highfreq_response(c, alpha: float) -> np.ndarray:
    """Per-channel low-cut filtering of an (N, C, H, W) tensor.

    Every channel plane loses the DCT corner that :func:`highpass_cut`
    blocks (see :func:`lowcut_filter`); output dims equal input dims. At
    alpha=0 nothing is blocked and the input is returned unchanged (bitwise).
    """
    c = as_tensor(c, rank=4)
    return lowcut_filter(c, *highpass_cut(c.shape[2], c.shape[3], alpha))


# ---------------------------------------------------------------------------
# Signal-to-clutter ratio
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScrWindows:
    """Target and neighbourhood windows for the saliency ratio.

    Both windows are squares centred on `target_center` (row r, col c): an
    extent e covers rows [r - e//2, r - e//2 + e) and likewise columns. Both
    bounds are clipped into the image, so a window off the image is an empty
    slice at the nearest edge, and statistics use the clipped regions; a
    target window with nothing left after clipping raises ValidationError.
    The background region is the annulus: neighbourhood window minus target
    window. As the neighbourhood extent exceeds the target's, the target
    window lies inside the neighbourhood window, clipped or not.
    """

    target_center: tuple
    target_extent: int = 40
    neighborhood_extent: int = 80

    def __post_init__(self):
        check_field_types(self)
        if len(self.target_center) != 2:
            raise ValidationError(f"target_center must be two ints (row, col), got {self.target_center!r}")
        check_integers("target extent", self.target_extent, least=1)
        if self.neighborhood_extent <= self.target_extent:
            raise ValidationError("neighbourhood extent must exceed target extent")

    def _clip(self, extent: int, h: int, w: int):
        r0, c0 = (v - extent // 2 for v in self.target_center)
        return (slice(min(max(r0, 0), h), min(max(r0 + extent, 0), h)),
                slice(min(max(c0, 0), w), min(max(c0 + extent, 0), w)))

    def target_slice(self, h: int, w: int):
        rows, cols = self._clip(self.target_extent, h, w)
        if rows.start == rows.stop or cols.start == cols.stop:
            raise ValidationError("target window lies outside the image")
        return rows, cols

    def neighborhood_slice(self, h: int, w: int):
        return self._clip(self.neighborhood_extent, h, w)


def scr(image, windows: ScrWindows) -> float:
    """|mean(target) - mean(background)| / std(background).

    `image` is a single-channel 2-d array. The background is the neighbourhood
    annulus around the target window; its standard deviation is the population
    value (ddof=0). A numerically constant background raises
    :class:`DegenerateBackgroundError`. Only the neighbourhood window is read.
    """
    check_type("windows", windows, ScrWindows)
    image = as_tensor(image, rank=2)
    h, w = image.shape
    trs, tcs = windows.target_slice(h, w)
    nrs, ncs = windows.neighborhood_slice(h, w)

    hood = image[nrs, ncs]
    annulus = np.ones(hood.shape, dtype=bool)
    annulus[trs.start - nrs.start:trs.stop - nrs.start, tcs.start - ncs.start:tcs.stop - ncs.start] = False
    background = hood[annulus].astype(np.float64)
    n = background.size
    if n == 0:
        raise ValidationError("neighbourhood window adds no pixels beyond the target window")

    # mean() and std() (ddof=0) step by step, through the same reductions in the same order
    target = image[trs, tcs].astype(np.float64)
    mu_t = np.add.reduce(target, axis=None) / target.size
    mu_b = np.add.reduce(background) / n
    background -= mu_b  # the buffer is reused for the squared deviations
    np.square(background, out=background)
    sigma_b = np.sqrt(np.add.reduce(background) / n)
    if sigma_b < 1e-9:
        raise DegenerateBackgroundError(
            f"background standard deviation {sigma_b:.3e} is below 1e-9"
        )
    return float(abs(mu_t - mu_b) / sigma_b)


def scr_filter_sweep(image, windows: ScrWindows, cuts) -> list:
    """SCR after low-cut filtering for each (cut_rows, cut_cols) region.

    Returns [(cut_rows, cut_cols, scr), ...] in the given order, each SCR
    that of :func:`lowcut_filter` with that cut (within float64 rounding).
    `cuts` is read into a list of pairs and every cut checked before any is
    scored; anything but an iterable of pairs raises ValidationError.
    The sweep then computes one corner of DCT coefficients ``C = D_h[:R] @
    x @ D_w[:S].T`` at the largest clipped cut (R, S), summed over bands of
    `SWEEP_BAND_ROWS` image rows, and keeps the low-pass part of the
    neighbourhood window ``scr`` reads, ``low = U[:, :r] @ C[:r, :s] @ V[:s]``
    with ``U = D_h[:, rows].T`` and ``V = D_w[:, cols]``, in float64. A cut
    that covers the cut before it adds only its new strip of coefficients to
    ``low``; any other cut starts again from zero. Each window is ``crop -
    low`` rounded once. A cut with no rows or no columns leaves ``low`` all
    zeros, so it scores the unfiltered window and does not widen (R, S).
    """
    check_type("windows", windows, ScrWindows)
    image = as_tensor(image, rank=2)
    h, w = image.shape
    windows.target_slice(h, w)  # an off-image target fails before any cut is read
    try:
        cuts = [(r, s) for r, s in cuts]
    except (TypeError, ValueError):  # not iterable, or a cut that does not unpack into two
        raise ValidationError("cuts must be an iterable of (cut_rows, cut_cols) pairs") from None
    for cut in cuts:
        check_integers("cut extents", *cut)
    big_r = min(h, max((r for r, s in cuts if r and s), default=0))
    big_s = min(w, max((s for r, s in cuts if r and s), default=0))
    d_h, d_w = dct_matrix(h, big_r), dct_matrix(w, big_s)
    corner = np.zeros((big_r, big_s))
    for i in range(0, h, SWEEP_BAND_ROWS):
        band = slice(i, i + SWEEP_BAND_ROWS)
        corner += d_h[:, band] @ (image[band] @ d_w.T)

    rows, cols = windows.neighborhood_slice(h, w)
    crop = image[rows, cols]
    # the same windows in crop coordinates clip to the same pixels
    tr, tc = windows.target_center
    local = replace(windows, target_center=(tr - rows.start, tc - cols.start))
    u, v = d_h[:, rows].T, d_w[:, cols]
    low = np.zeros(crop.shape)
    pr = ps = 0  # low = U[:, :pr] @ C[:pr, :ps] @ V[:ps]
    out = []
    for cut_r, cut_s in cuts:
        r, s = min(cut_r, big_r), min(cut_s, big_s)
        if r < pr or s < ps:
            low[...] = 0.0
            pr = ps = 0
        low += u[:, pr:r] @ (corner[pr:r, :s] @ v[:s])
        low += (u[:, :pr] @ corner[:pr, ps:s]) @ v[ps:s]
        pr, ps = r, s
        window = (crop - low).astype(DTYPE)
        out.append((int(cut_r), int(cut_s), scr(window, local)))
    return out


def blob_scene(
    height: int = 100,
    width: int = 100,
    background: float = 0.2,
    amplitude: float = 0.6,
    blob_sigma: float = 2.5,
    ramp_amplitude: float = 0.2,
) -> np.ndarray:
    """Deterministic test scene: flat background + tiny Gaussian blob + low-frequency ramp.

    The blob sits at the image centre; the diagonal ramp plays the role of
    slowly varying clutter. Removing a moderate low-frequency region raises
    the blob's SCR (the ramp goes away), while aggressive cuts start to erode
    the blob itself and the SCR falls again. `height` and `width` are integers >= 1,
    `blob_sigma` a finite real > 0 and the other three finite reals (see
    :func:`hsfpn.tensor.check_real`); else ValidationError. A scene whose
    arithmetic leaves float32 range raises ValidationError too.
    """
    check_integers("scene extents", height, width, least=1)
    for name, value in (("background", background), ("amplitude", amplitude), ("ramp_amplitude", ramp_amplitude)):
        check_real(name, value)
    check_real("blob_sigma", blob_sigma, 0.0, open_low=True)
    rows = np.arange(height, dtype=np.float64)[:, None]
    cols = np.arange(width, dtype=np.float64)[None, :]
    cr, cc = height // 2, width // 2
    # in numpy, so a magnitude that leaves float range ends in check_finite, not an exception or a warning
    with np.errstate(all="ignore"):
        ramp = ramp_amplitude * (rows + cols) / max(height + width - 2, 1)
        blob = amplitude * np.exp(-((rows - cr) ** 2 + (cols - cc) ** 2) / (2.0 * np.float64(blob_sigma) ** 2))
        scene = (background + ramp + blob).astype(DTYPE)
    return check_finite(scene, "blob scene")
