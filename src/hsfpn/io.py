"""File formats: the PFT1 tensor container and binary (P5) PGM images.

PFT1 layout: 4-byte magic ``PFT1``, little-endian u32 rank, rank little-endian
u32 extents, then the raw little-endian float32 payload in row-major (H, W)
order, channel-major across C. Readers reject a wrong magic, extent/length
mismatches, and non-finite payloads.
"""

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import PgmParseError, ShapeError, ValidationError
from .tensor import DTYPE, as_tensor, check_finite

PFT_MAGIC = b"PFT1"
MAX_RANK = 4


def write_tensor(path, x) -> None:
    """Serialise a tensor to a PFT1 file; NaN/Inf are refused before any byte is written."""
    x = check_finite(as_tensor(x), f"{path}")
    with open(path, "wb") as fh:
        fh.write(PFT_MAGIC)
        fh.write(struct.pack("<I", x.ndim))
        fh.write(struct.pack(f"<{x.ndim}I", *x.shape))
        x.astype("<f4", copy=False).tofile(fh)


def read_tensor(path) -> np.ndarray:
    """Read and validate a PFT1 file; the array views the one buffer the file is read into."""
    with open(path, "rb") as fh:
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        if fh.readinto(raw) != len(raw):
            raise ValidationError(f"{path}: file changed size while it was read")
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

def _next_token(raw: bytes, pos: int):
    """Skip whitespace and '#' comments, return (token_bytes, start, end)."""
    n = len(raw)
    while pos < n:
        b = raw[pos:pos + 1]
        if b == b"#":
            nl = raw.find(b"\n", pos)
            if nl < 0:
                raise PgmParseError("unterminated comment", pos)
            pos = nl + 1
        elif b.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise PgmParseError("unexpected end of header", pos)
    start = pos
    while pos < n and not raw[pos:pos + 1].isspace():
        pos += 1
    return raw[start:pos], start, pos


def _header_int(raw: bytes, pos: int, what: str):
    token, start, end = _next_token(raw, pos)
    if not token.isdigit():
        raise PgmParseError(f"expected {what} as a decimal integer, got {token!r}", start)
    return int(token), start, end


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM into a float32 (H, W) image scaled to [0, 1]; a byte above maxval is an error."""
    raw = Path(path).read_bytes()
    if raw[:2] != b"P5":
        raise PgmParseError(f"expected magic 'P5', got {raw[:2]!r}", 0)
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
    img = (pixels.astype(DTYPE) / DTYPE(maxval)).reshape(height, width)
    return check_finite(img, f"{path}")


def write_pgm(path, image) -> None:
    """Write a float image as 8-bit PGM, clamped to [0, 1]; NaN/Inf are refused before any byte is written."""
    image = check_finite(as_tensor(image, rank=2), f"{path}")
    quantised = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = quantised.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(quantised.tobytes())
