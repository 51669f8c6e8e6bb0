"""Minimal deterministic dense-tensor engine for NCHW feature maps.

Values are 32-bit floats throughout; reductions (convolution, pooling means,
matrix products) accumulate in 64-bit and round once on output so that results
stay within ~1e-5 of a naive double-precision evaluation. All operations are
pure functions: the same inputs produce bitwise-identical outputs.
"""

import ctypes
import functools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeError, ValidationError

DTYPE = np.float32
BAND_ROWS = 16  # output rows per conv2d band, whose share of the map sets every float64 plane workspace
MAX_RANK = 4  # (N, C, H, W)


def as_real(x, dtype) -> np.ndarray:
    """`x` as a C-contiguous array of `dtype`, copied only if it is not one. A complex value (numpy
    would drop its imaginary part), one numpy cannot convert, or a finite one beyond the range of
    `dtype` (numpy would make it inf, with a warning) raises ValidationError; ±inf and NaN convert."""
    if isinstance(x, np.ndarray) and x.dtype == dtype:  # no cast, so nothing can overflow
        return np.asarray(x, order="C")
    try:
        if not np.iscomplexobj(x):
            with np.errstate(over="raise"):
                return np.asarray(x, dtype=dtype, order="C")
    except (TypeError, ValueError) as err:
        raise ValidationError(f"not convertible to {np.dtype(dtype)} values: {err}") from None
    except ArithmeticError:  # the cast's FloatingPointError, or a Python int's OverflowError
        raise ValidationError(f"values beyond the {np.dtype(dtype)} range do not convert") from None
    raise ValidationError(f"complex values do not convert to {np.dtype(dtype)} values")


def as_tensor(x, rank: int | None = None) -> np.ndarray:
    """Coerce `x` to a C-contiguous float32 array and check its rank.

    Rank may be at most MAX_RANK, interpreted (N, C, H, W); `rank=n` requires
    exactly n dimensions. Zero-length extents are rejected. A complex value, one numpy
    cannot convert to float32, or a finite one beyond its range raises ValidationError (:func:`as_real`).
    """
    arr = as_real(x, DTYPE)
    if arr.ndim == 0:
        raise ShapeError(f"scalar is not a tensor; rank must be between 1 and {MAX_RANK}")
    if arr.ndim > MAX_RANK:
        raise ShapeError(f"rank {arr.ndim} exceeds the supported maximum of {MAX_RANK}")
    if rank is not None and arr.ndim != rank:
        raise ShapeError(f"expected a rank-{rank} tensor, got rank {arr.ndim}")
    if min(arr.shape) < 1:
        raise ShapeError(f"all extents must be >= 1, got {arr.shape}")
    return arr


def check_finite(x: np.ndarray, what: str = "tensor") -> np.ndarray:
    """Reject NaN/Inf. Applied wherever values enter from files or generators."""
    if not np.isfinite(x).all():
        raise ValidationError(f"{what} contains non-finite values")
    return x


def _is_number(value, kind) -> bool:
    """True for a Python or numpy number of `kind` (int: integral, float: real), never a bool."""
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}[kind]) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """True for a real that converts to a finite float; an int too large for a float is not one."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_field_types(obj) -> None:
    """Store every field of dataclass `obj` as exactly its annotated type, or raise ValidationError.

    An int is integral and a float real, neither a bool; a bool, a str or any other
    class is exactly that type; a tuple is a list or tuple of ints. Numbers become
    Python scalars.
    """
    def convert(value, kind):
        if kind is tuple and isinstance(value, (list, tuple)):
            return tuple(convert(v, int) for v in value)
        if kind in (int, float) and _is_number(value, kind):
            return kind(value)
        if type(value) is kind:
            return value
        raise ValueError

    for f in fields(obj):
        value = getattr(obj, f.name)
        try:
            object.__setattr__(obj, f.name, convert(value, f.type))
        except (ValueError, OverflowError):  # OverflowError: an int too large for a float
            raise ValidationError(f"{f.name}: {value!r} is not a valid {f.type.__name__}") from None


def check_integers(what: str, *values, least: int = 0, error=ValidationError) -> None:
    """Raise ValidationError unless every value is an integer (see _is_number), `error` unless each is >= `least`."""
    one = len(values) == 1
    message = f"{what} must be {'an integer' if one else 'integers'} >= {least}, got {values[0] if one else values!r}"
    if not all(_is_number(v, int) for v in values):
        raise ValidationError(message)
    if min(values) < least:
        raise error(message)


def check_real(what: str, value, low: float = -math.inf, high: float = math.inf, open_low: bool = False) -> None:
    """Raise ValidationError unless `value` is a real number (see _is_number) that converts to a finite
    float, in [low, high], or in (low, high] if `open_low`."""
    if not (_is_number(value, float) and _is_finite(value) and value <= high
            and (low < value if open_low else low <= value)):
        interval = f"{'(' if open_low or low == -math.inf else '['}{low:g}, {high:g}{')' if high == math.inf else ']'}"
        raise ValidationError(f"{what} must lie in {interval}, got {value!r}")


def check_choice(what: str, value, choices: tuple) -> None:
    """Raise ValidationError unless `value` is one of `choices` and of their type (a str, or an int)."""
    if not (isinstance(value, type(choices[0])) and value in choices):
        raise ValidationError(f"{what} must be one of {choices}, got {value!r}")


def check_type(what: str, value, kind: type) -> None:
    """Raise ValidationError unless `value` is an instance of `kind`."""
    if not isinstance(value, kind):
        raise ValidationError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")


@dataclass(frozen=True)
class ConvSpec:
    """Static description of a stride-1 square convolution.

    `kernel` is 1 (no padding) or 3 (zero padding 1), so spatial extents are
    always preserved. `groups` must divide both channel counts.
    """

    in_channels: int
    out_channels: int
    kernel: int = 1
    groups: int = 1
    has_bias: bool = True

    def __post_init__(self):
        check_field_types(self)
        check_integers("channel counts", self.in_channels, self.out_channels, least=1)
        check_choice("kernel", self.kernel, (1, 3))
        if self.groups < 1 or self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValidationError(
                f"groups={self.groups} must divide in_channels={self.in_channels} "
                f"and out_channels={self.out_channels}"
            )

    @property
    def weight_shape(self) -> tuple:
        return (self.out_channels, self.in_channels // self.groups, self.kernel, self.kernel)

    @property
    def weight_count(self) -> int:
        o, i, kh, kw = self.weight_shape
        return o * i * kh * kw

    @property
    def param_count(self) -> int:
        return self.weight_count + (self.out_channels if self.has_bias else 0)

    def macs(self, height: int, width: int) -> int:
        """Multiply-accumulates for one sample at the given spatial extents."""
        return self.weight_count * height * width


@dataclass(frozen=True)
class ConvLayer:
    """A ConvSpec with its weight and bias, checked once, where the layer is built.

    The weight has exactly `spec.weight_shape` (else ShapeError); a bias of
    shape (out_channels,) is given iff `spec.has_bias`, and both are finite
    (else ValidationError). Both convert as :func:`as_tensor` converts, to
    C-contiguous float32, copied only if they are not; a value numpy cannot
    convert raises ValidationError.
    """

    spec: ConvSpec
    weight: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        check_type("spec", self.spec, ConvSpec)
        weight = as_real(self.weight, DTYPE)
        if weight.shape != self.spec.weight_shape:
            raise ShapeError(f"weight dims {weight.shape} do not match {self.spec.weight_shape}")
        object.__setattr__(self, "weight", check_finite(weight, "convolution weight"))
        bias = None if self.bias is None else as_real(self.bias, DTYPE)
        want = (self.spec.out_channels,) if self.spec.has_bias else None  # None: no bias
        if (got := getattr(bias, "shape", None)) != want:
            raise ValidationError(f"bias dims {got} do not match {want} (a bias iff has_bias)")
        object.__setattr__(self, "bias", bias if bias is None else check_finite(bias, "convolution bias"))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return conv2d(x, self.spec, self.weight, self.bias)


def check_layers(params, specs: dict) -> None:
    """Raise ValidationError unless each layer `params.<role>` has the channels and kernel of `specs[role]`."""
    for role, want in specs.items():
        got = getattr(params, role).spec
        if (got.in_channels, got.out_channels, got.kernel) != (want.in_channels, want.out_channels, want.kernel):
            raise ValidationError(f"{role} must be a {want.kernel}x{want.kernel} convolution from "
                                  f"{want.in_channels} to {want.out_channels} channels, got {got}")


def conv2d(x, spec: ConvSpec, weight, bias=None) -> np.ndarray:
    """Direct stride-1 convolution of an (N, C, H, W) tensor.

    kernel 3 pads by 1 with zeros and kernel 1 not at all, so the output is
    (N, out_channels, H, W); each value is the kernel's dot product with its
    input window, accumulated in float64 and rounded once to float32. The
    arrays are checked on every call as a :class:`ConvLayer`: `weight` of
    exactly `spec.weight_shape` (no flat weight), a bias iff `spec.has_bias`.

    Both kernels run one shifted-GEMM tap loop (Chellapilla et al., 2006),
    one band of at most `BAND_ROWS` output rows at a time. The band's input
    rows, plus pad = kernel // 2 halo rows each side, are copied into a
    float64 buffer of rows W + 2*pad wide, flattened per channel; halo rows
    past the image edges and kernel 3's spare row are zeros. Tap (di, dj) is
    the strided view of length band*(W + 2*pad) starting at
    di*(W + 2*pad) + dj, which BLAS reads without a copy. Tap 0 is one
    batched float64 product over the groups into the band's accumulator.
    Kernel 3 adds taps 1..8 into it through the `cblas_dgemm` of numpy's own
    OpenBLAS with beta=1 (C <- AB + C, Level 3 BLAS), one call per (sample,
    group, tap), so each add happens as the kernel stores C. Where numpy
    exports no such symbol (numpy 1.x, MKL, Accelerate), each tap is a
    batched product into a tap buffer, added with `+=`. The two give the
    same bits while in_channels / groups fits OpenBLAS's K block (128 with
    the oldest x86-64 kernels, 256 to 384 with newer ones), as then each
    tap reaches C as one sum. The bias is added to the band's sum, whose
    wrap-around columns are dropped as it is rounded into the float32
    output. Kernel 1 is the single unpadded tap. Every output value sums its
    taps in the same order as a whole-map loop, so the band height does not
    change a bit of the result.

    The band buffer and the accumulator (and the fallback's tap buffer) are
    allocated once per call and reused for every band, so working memory
    does not grow with H; im2col's 9x window copy is never made. Measured
    with tracemalloc, the peak is 1.64x the input for a 64 -> 64 3x3 conv
    at 128x128 and 1.47x for 256 -> 256 at 200x200 (fallback: 1.89x and
    1.64x; 1x1: 1.52x and 1.34x), of which the float32 output is 1x.
    """
    x = as_tensor(x, rank=4)
    n, c, h, w = x.shape
    check_type("spec", spec, ConvSpec)
    if c != spec.in_channels:
        raise ShapeError(f"input has {c} channels, spec expects {spec.in_channels}")
    layer = ConvLayer(spec, weight, bias)
    weight, bias = layer.weight, layer.bias

    g, kernel = spec.groups, spec.kernel
    cin_g = spec.in_channels // g
    cout_g = spec.out_channels // g
    pad = kernel // 2
    pitch = w + 2 * pad
    band = min(BAND_ROWS, h)
    rows = band + 3 * pad  # kernel 3's spare row: tap (2, 2) reads two elements past row band + 1
    # kernel 1 writes every element it reads, so only kernel 3 needs the zero fill
    padded = (np.zeros if pad else np.empty)((n, c, rows, pitch))
    flat = padded.reshape(n, g, cin_g, rows * pitch)
    taps = np.ascontiguousarray(weight.reshape(g, cout_g, cin_g, kernel * kernel).transpose(3, 0, 1, 2), np.float64)
    acc = np.empty((n, g, cout_g, band * pitch))
    gemm = _blas_dgemm() if pad else None
    product = np.empty_like(acc) if pad and gemm is None else None
    bias = None if bias is None else bias.astype(np.float64)[:, None, None]
    out = np.empty((n, spec.out_channels, h, w), DTYPE)
    for r0 in range(0, h, band):
        b = min(band, h - r0)
        # buffer row i holds input row r0 - pad + i. Rows above the image occur only
        # in the first band, while the buffer is still zero; rows below it and the
        # spare row are zeroed, as an earlier band wrote them.
        lo, hi = max(r0 - pad, 0), min(r0 + b + pad, h)
        top, end = lo - r0 + pad, hi - r0 + pad
        padded[:, :, top:end, pad:pad + w] = x[:, :, lo:hi]
        padded[:, :, end:] = 0
        length = b * pitch
        total = acc[..., :length]
        np.matmul(taps[0], flat[..., :length], out=total)
        if gemm is not None:
            _add_taps(gemm, taps, flat, acc, kernel, pitch, length)
        else:
            with np.errstate(invalid="ignore"):  # inf - inf is NaN without a warning, as inside BLAS
                for tap in range(1, kernel * kernel):
                    start = (tap // kernel) * pitch + tap % kernel
                    total += np.matmul(taps[tap], flat[..., start:start + length], out=product[..., :length])
        total = total.reshape(n, spec.out_channels, b, pitch)
        if bias is not None:
            total += bias
        out[:, :, r0:r0 + b] = total[..., :w]
    return out


@functools.cache
def _blas_dgemm():
    """numpy's own ILP64 `cblas_dgemm` (scipy-openblas), or None where numpy exports none (numpy 1.x, MKL, Accelerate)."""
    try:
        gemm = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_cblas_dgemm64_
    except (AttributeError, OSError):
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    # order, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc
    gemm.argtypes = [ctypes.c_int] * 3 + [i64] * 3 + [f64, ptr, i64, ptr, i64, f64, ptr, i64]
    gemm.restype = None
    return gemm


def _add_taps(gemm, taps, flat, acc, kernel, pitch, length):
    """acc[s, j, :, :length] += taps[t, j] @ flat[s, j, :, start_t:start_t + length] for taps t = 1..k*k-1, as one
    `dgemm` with beta=1 per (sample s, group j, tap t): the same kernel as np.matmul's, adding into C as it stores it.
    All three arrays are conv2d's own C-contiguous float64 buffers, so their shapes give every leading dimension."""
    _, g, cout_g, cin_g = taps.shape
    ld_b, ld_c = flat.shape[-1], acc.shape[-1]
    row_major, no_trans, f8 = 101, 111, 8  # CblasRowMajor, CblasNoTrans, bytes per float64
    a0, b0, c0 = taps.ctypes.data, flat.ctypes.data, acc.ctypes.data
    for pair in range(len(flat) * g):  # (sample, group) pairs, in the order of the leading axes
        b = b0 + pair * cin_g * ld_b * f8
        c = c0 + pair * cout_g * ld_c * f8
        for tap in range(1, kernel * kernel):
            a = a0 + (tap * g + pair % g) * cout_g * cin_g * f8
            start = (tap // kernel) * pitch + tap % kernel
            gemm(row_major, no_trans, no_trans, cout_g, length, cin_g, 1.0, a, cin_g, b + start * f8, ld_b, 1.0, c, ld_c)


def map_plane_groups(fn, x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """`fn`, which maps (g, H, W) planes to (g, out_h, out_w), over `x`'s P planes of height H,
    max(1, P * BAND_ROWS // H) at a time, into one float32 output. A group holds the share of the
    map that a :func:`conv2d` band does, so the workspace is one group's at every shape."""
    planes = x.reshape(-1, *x.shape[-2:])
    group = max(1, len(planes) * BAND_ROWS // x.shape[-2])
    out = np.empty((len(planes), out_h, out_w), DTYPE)
    for p0 in range(0, len(planes), group):
        out[p0 : p0 + group] = fn(planes[p0 : p0 + group])
    return out.reshape(*x.shape[:-2], out_h, out_w)


def adaptive_pool(x, out_h: int, out_w: int, mode: str = "avg") -> np.ndarray:
    """Adaptive average or max pooling to an (out_h, out_w) grid.

    Output cell (i, j) covers input rows floor(i*H/out_h) .. ceil((i+1)*H/out_h)-1
    and the analogous columns, matching the usual adaptive-pooling rule. The
    output extents are integers (numpy ones too, no bools; else
    ValidationError) between 1 and the input's (else ShapeError).

    Planes are pooled in groups, a conv band's share of the map each, by
    :func:`map_plane_groups`. Average pooling is the float64 product
    P_h @ x @ P_w.T, with 1/len weights in the pooling matrices; max pooling
    gathers each row window, then each column window. Every plane's result
    is independent of the group it runs in.
    """
    x = as_tensor(x, rank=4)
    h, w = x.shape[2:]
    check_choice("mode", mode, ("avg", "max"))
    check_integers("output extents", out_h, out_w, least=1, error=ShapeError)
    if out_h > h or out_w > w:
        raise ShapeError(f"output extents ({out_h}, {out_w}) exceed input ({h}, {w})")

    rows, cols = _pool_windows(h, out_h), _pool_windows(w, out_w)
    if mode == "avg":
        p_h, p_w = _avg_matrix(h, *rows), _avg_matrix(w, *cols).T

        def pool(group):
            return p_h @ (group.reshape(-1, w) @ p_w).reshape(-1, h, out_w)
    else:
        row_index, col_index = _window_index(*rows), _window_index(*cols)

        def pool(group):
            return group[:, row_index, :].max(axis=2)[..., col_index].max(axis=3)
    return map_plane_groups(pool, x, out_h, out_w)


def _pool_windows(size: int, out: int):
    """Start and stop of each adaptive window: floor(i*size/out) .. ceil((i+1)*size/out)."""
    i = np.arange(out)
    return (i * size) // out, ((i + 1) * size + out - 1) // out


def _avg_matrix(size: int, start, stop) -> np.ndarray:
    """(out, size) float64 matrix whose row i averages positions start[i] .. stop[i]-1."""
    j = np.arange(size)
    inside = (j >= start[:, None]) & (j < stop[:, None])
    return inside / (stop - start)[:, None]


def _window_index(start, stop) -> np.ndarray:
    """(out, longest window) positions of each window, padded by repeating its last index."""
    offsets = np.arange((stop - start).max())
    return np.minimum(start[:, None] + offsets, stop[:, None] - 1)


def upsample2x(x) -> np.ndarray:
    """Nearest-neighbour upsampling: each pixel becomes a 2x2 constant block."""
    x = as_tensor(x, rank=4)
    return x.repeat(2, axis=2).repeat(2, axis=3)


def sigmoid(x) -> np.ndarray:
    """Elementwise logistic function (optional squashing of attention weights); NaN stays NaN."""
    z = as_tensor(x).astype(np.float64)
    # exp(-log(1 + e^-z)): saturates to exactly 0 or 1 without overflowing; NaN passes without a warning
    with np.errstate(invalid="ignore"):
        return np.exp(-np.logaddexp(0.0, -z)).astype(DTYPE)
