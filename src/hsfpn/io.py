"""File formats: the PFT1 tensor container and binary (P5) PGM images.

PFT1 layout: 4-byte magic ``PFT1``, little-endian u32 rank, rank little-endian u32 extents, then the raw
little-endian float32 payload in row-major (H, W) order, channel-major across C. Readers reject a wrong magic,
extent/length mismatches and non-finite payloads. Both formats are read into one buffer of the size the file
reports: a file too large for memory, or one yielding other than that size (a device, a pipe), raises ValidationError.
"""

import math
import os
import re
import struct

import numpy as np

from .errors import PgmParseError, ShapeError, ValidationError
from .tensor import DTYPE, MAX_RANK, as_tensor, check_finite

PFT_MAGIC = b"PFT1"


def check_path(path):
    """`path` if it is a str or os.PathLike, else ValidationError: an int would open a file descriptor."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValidationError(f"a path must be a str or os.PathLike, got {type(path).__name__}")
    return path


def write_tensor(path, x) -> None:
    """Serialise a tensor to a PFT1 file; NaN/Inf are refused before any byte is written."""
    check_path(path)
    x = check_finite(as_tensor(x), f"{path}")
    with open(path, "wb") as fh:
        fh.write(PFT_MAGIC + struct.pack(f"<{1 + x.ndim}I", x.ndim, *x.shape))  # the rank, then the extents
        x.astype("<f4", copy=False).tofile(fh)


def _read_file(path) -> bytearray:
    """The bytes of `path` in one buffer of the size the file reports, the only way a file is read."""
    with open(check_path(path), "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        try:
            raw = bytearray(size)
        except MemoryError:  # a size no buffer can hold ends as one line, like a size the file does not yield
            raise ValidationError(f"{path}: the {size} bytes its size reports do not fit in memory") from None
        if fh.readinto(raw) != size or fh.read(1):
            raise ValidationError(f"{path}: the file yields more or fewer bytes than the {size} its size reports")
    return raw


def read_tensor(path) -> np.ndarray:
    """Read and validate a PFT1 file; the array views the one buffer the file is read into."""
    raw = _read_file(path)
    if raw[:4] != PFT_MAGIC:
        raise ValidationError(f"{path}: bad magic {bytes(raw[:4])!r}, expected {PFT_MAGIC!r}")
    if len(raw) < 8:
        raise ValidationError(f"{path}: truncated header")
    (rank,) = struct.unpack_from("<I", raw, 4)
    if not 1 <= rank <= MAX_RANK:
        raise ShapeError(f"{path}: rank {rank} outside 1..{MAX_RANK}")
    header_end = 8 + 4 * rank
    if len(raw) < header_end:
        raise ValidationError(f"{path}: truncated extent list")
    dims = struct.unpack_from(f"<{rank}I", raw, 8)
    if min(dims) < 1:
        raise ShapeError(f"{path}: all extents must be >= 1, got {dims}")
    count = math.prod(dims)  # Python ints: np.prod wraps at 2**64
    expected = header_end + 4 * count
    if len(raw) != expected:
        raise ValidationError(
            f"{path}: payload is {len(raw) - header_end} bytes, "
            f"extents {dims} require {4 * count}"
        )
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=header_end)
    return check_finite(data.reshape(dims).astype(DTYPE, copy=False), f"{path}")


# ---------------------------------------------------------------------------
# PGM (P5, 8-bit binary)
# ---------------------------------------------------------------------------

_SKIP = re.compile(rb"(?:\s+|#[^\n]*\n)*")  # whitespace and whole '#' comments; a '#' with no newline stops it
_TOKEN = re.compile(rb"\S*")


def _header_int(raw: bytearray, pos: int, what: str):
    """The decimal header field after `pos`, past whitespace and '#' comments: (value, start, end)."""
    start = _SKIP.match(raw, pos).end()
    if raw[start:start + 1] == b"#":
        raise PgmParseError("unterminated comment", start)
    if start >= len(raw):
        raise PgmParseError("unexpected end of header", start)
    end = _TOKEN.match(raw, start).end()
    token = raw[start:end]
    if not token.isdigit():
        raise PgmParseError(f"expected {what} as a decimal integer, got {bytes(token)!r}", start)
    return int(token), start, end


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM into a float32 (H, W) image scaled to [0, 1]; a byte above maxval is an error."""
    raw = _read_file(path)
    if raw[:2] != b"P5":
        raise PgmParseError(f"expected magic 'P5', got {bytes(raw[:2])!r}", 0)
    pos = 2
    width, width_at, pos = _header_int(raw, pos, "width")
    height, _, pos = _header_int(raw, pos, "height")
    maxval, maxval_at, pos = _header_int(raw, pos, "maxval")
    if width < 1 or height < 1:
        raise PgmParseError(f"extents must be positive, got {width}x{height}", width_at)
    if not 0 < maxval <= 255:
        raise PgmParseError(f"only 8-bit PGM supported, maxval={maxval}", maxval_at)
    if pos >= len(raw) or not raw[pos:pos + 1].isspace():
        raise PgmParseError("expected single whitespace byte after maxval", pos)
    pos += 1
    need = width * height
    if len(raw) - pos < need:
        raise PgmParseError(
            f"raster truncated: need {need} bytes, have {len(raw) - pos}", len(raw)
        )
    if len(raw) - pos > need:
        raise PgmParseError("trailing bytes after raster", pos + need)
    pixels = np.frombuffer(raw, dtype=np.uint8, count=need, offset=pos)
    if maxval < 255 and (above := pixels > maxval).any():  # a uint8 never exceeds 255
        raise PgmParseError(f"raster byte above maxval={maxval}", pos + int(above.argmax()))
    return (pixels.astype(DTYPE) / DTYPE(maxval)).reshape(height, width)  # a byte over a maxval in 1..255 is finite


def write_pgm(path, image) -> None:
    """Write a float image as 8-bit PGM, clamped to [0, 1]; NaN/Inf are refused before any byte is written."""
    check_path(path)
    image = check_finite(as_tensor(image, rank=2), f"{path}")
    quantised = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = quantised.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(quantised.tobytes())
