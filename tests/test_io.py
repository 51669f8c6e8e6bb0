import ast
import os
import re
import struct
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import hsfpn.io
from hsfpn import (PgmParseError, ShapeError, ValidationError, random_pyramid, read_pgm, read_pyramid_dir,
                   read_tensor, write_pgm, write_pyramid_dir, write_tensor)

RNG = np.random.default_rng(7)


class TestPft:
    def test_roundtrip_all_ranks(self, tmp_path):
        for shape in [(5,), (3, 4), (2, 3, 4), (2, 3, 4, 5)]:
            x = RNG.standard_normal(shape).astype(np.float32)
            path = tmp_path / "t.pft"
            write_tensor(path, x)
            back = read_tensor(path)
            assert back.shape == x.shape
            assert back.tobytes() == x.tobytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pft"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValidationError, match="magic"):
            read_tensor(path)

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "short.pft"
        header = b"PFT1" + struct.pack("<I", 2) + struct.pack("<2I", 3, 3)
        path.write_bytes(header + b"\x00" * (4 * 8))  # 8 floats, extents demand 9
        with pytest.raises(ValidationError, match="payload"):
            read_tensor(path)

    def test_extent_product_past_int64_rejected(self, tmp_path):
        # 65536**4 wraps to 0 in int64, which would let a header-only file pass
        path = tmp_path / "huge.pft"
        path.write_bytes(b"PFT1" + struct.pack("<I", 4) + struct.pack("<4I", *(65536,) * 4))
        with pytest.raises(ValidationError, match="payload"):
            read_tensor(path)

    def test_zero_extent_rejected(self, tmp_path):
        path = tmp_path / "zero.pft"
        path.write_bytes(b"PFT1" + struct.pack("<I", 2) + struct.pack("<2I", 0, 3))
        with pytest.raises(ShapeError):
            read_tensor(path)

    def test_rank5_rejected(self, tmp_path):
        path = tmp_path / "r5.pft"
        path.write_bytes(b"PFT1" + struct.pack("<I", 5) + struct.pack("<5I", 1, 1, 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(ShapeError):
            read_tensor(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_write_nonfinite_rejected_before_writing(self, tmp_path, bad):
        path = tmp_path / "bad.pft"
        with pytest.raises(ValidationError, match="finite"):
            write_tensor(path, np.array([1.0, bad], np.float32))
        assert not path.exists()

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "nan.pft"
        payload = struct.pack("<2f", 1.0, float("nan"))
        path.write_bytes(b"PFT1" + struct.pack("<I", 1) + struct.pack("<I", 2) + payload)
        with pytest.raises(ValidationError, match="finite"):
            read_tensor(path)


class TestPftMemory:
    """Neither direction copies the payload: tracemalloc peaks in payload bytes, (1, 64, 256, 256)."""

    @staticmethod
    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_read_peak(self, tmp_path):
        # the buffer the array views plus the finite check's mask: 1.25x (2.25x with an astype copy)
        x = RNG.standard_normal((1, 64, 256, 256), dtype=np.float32)
        write_tensor(tmp_path / "x.pft", x)
        peak = self.peak(lambda: read_tensor(tmp_path / "x.pft"))
        assert peak <= 1.3 * x.nbytes, f"peak {peak} B is {peak / x.nbytes:.2f}x the payload"

    def test_write_peak(self, tmp_path):
        # the finite check's mask alone: 0.25x (2.0x with astype and tobytes copies)
        x = RNG.standard_normal((1, 64, 256, 256), dtype=np.float32)
        peak = self.peak(lambda: write_tensor(tmp_path / "x.pft", x))
        assert peak <= 0.3 * x.nbytes, f"peak {peak} B is {peak / x.nbytes:.2f}x the payload"
        assert read_tensor(tmp_path / "x.pft").tobytes() == x.tobytes()


class TestPgm:
    def test_roundtrip(self, tmp_path):
        img = (RNG.uniform(size=(9, 13)) * 255).round().astype(np.uint8)
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n13 9\n255\n" + img.tobytes())
        back = read_pgm(path)
        assert back.shape == (9, 13)
        np.testing.assert_allclose(back * 255, img, atol=1e-4)

    def test_write_then_read(self, tmp_path):
        img = RNG.uniform(size=(4, 6)).astype(np.float32)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        # quantisation error at most half an LSB of 1/255
        np.testing.assert_allclose(back, img, atol=0.5 / 255 + 1e-6)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x40\x80\xff")
        img = read_pgm(path)
        assert img.shape == (2, 2)
        assert img[1, 1] == 1.0

    def test_bad_magic_offset(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n2 2\n255\n")
        with pytest.raises(PgmParseError) as err:
            read_pgm(path)
        assert err.value.offset == 0

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
        with pytest.raises(PgmParseError, match="truncated"):
            read_pgm(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "trail.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(PgmParseError, match="trailing"):
            read_pgm(path)

    def test_16bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(PgmParseError, match="8-bit"):
            read_pgm(path)

    def test_non_numeric_header(self, tmp_path):
        path = tmp_path / "junk.pgm"
        path.write_bytes(b"P5\nwide 2\n255\n\x00\x00\x00\x00")
        with pytest.raises(PgmParseError, match="width"):
            read_pgm(path)

    def test_byte_above_maxval_rejected_at_its_offset(self, tmp_path):
        # maxval 100: 0xc8 = 200 would read as 2.0, outside [0, 1]
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5 3 1 100\n\x10\xc8\xff")
        with pytest.raises(PgmParseError, match="maxval") as err:
            read_pgm(path)
        assert err.value.offset == len(b"P5 3 1 100\n") + 1

    def test_bytes_up_to_maxval_accepted(self, tmp_path):
        path = tmp_path / "edge.pgm"
        path.write_bytes(b"P5 2 1 100\n\x00\x64")
        assert read_pgm(path).tolist() == [[0.0, 1.0]]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_write_nonfinite_rejected_before_writing(self, tmp_path, bad):
        path = tmp_path / "bad.pgm"
        with pytest.raises(ValidationError, match="finite"):
            write_pgm(path, np.array([[bad, 0.5]], np.float32))
        assert not path.exists()

    def test_write_clamps(self, tmp_path):
        img = np.array([[-0.5, 0.25], [0.75, 1.5]], np.float32)
        path = tmp_path / "clamp.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back[0, 0] == 0.0
        assert back[1, 1] == 1.0


# Header fields of the two valid files below, as (start, stop) byte spans, and
# hostile replacements for them.
PGM_HEADER = b"P5\n8 6\n255\n"
PGM_FIELDS = [(0, 2), (3, 4), (5, 6), (7, 10), (2, 3), (10, 11)]
PGM_TOKENS = [b"", b" ", b"\n", b"#", b"\xff", b"0", b"-1", b"+4", b"3.5", b"0x10", b"1e3",
              b"256", b"65535", b"99999999999999999999", b"\xd9\xa3", b"P2", b"P6", b"1", b"100"]
PFT_FIELDS = [(0, 4), (4, 8), (8, 12), (12, 16), (16, 20)]
PFT_TOKENS = [b"", b"PFT", b"PFT0", b"pft1"] + [
    struct.pack("<I", v) for v in (0, 1, 3, 4, 5, 24, 65536, 2 ** 31, 2 ** 32 - 1)]


def mutants(raw, fields, tokens, count, seed):
    """Seeded variants of `raw`, each with 1..3 byte flips, truncations, insertions or field edits."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        data = bytearray(raw)
        for _ in range(rng.integers(1, 4)):
            kind = rng.integers(4)
            at = int(rng.integers(len(data) + 1))
            if kind == 0 and at < len(data):
                data[at] ^= int(rng.integers(1, 256))
            elif kind == 1:
                del data[at:]
            elif kind == 2:
                data[at:at] = rng.integers(0, 256, rng.integers(1, 5), dtype=np.uint8).tobytes()
            else:
                start, stop = fields[rng.integers(len(fields))]
                data[start:stop] = tokens[rng.integers(len(tokens))]
        yield bytes(data)


class TestHostileInput:
    """Only the documented error types escape the readers, whatever the bytes."""

    def run(self, path, reader, raw, fields, tokens):
        """What `reader` returns for the mutants it accepts."""
        rejected, accepted = 0, []
        for data in mutants(raw, fields, tokens, count=2000, seed=11):
            path.write_bytes(data)
            try:
                accepted.append(reader(path))
            except (PgmParseError, ShapeError, ValidationError):
                rejected += 1
        assert rejected > 1000  # most mutants break the file; the loop is not a no-op
        return accepted

    def test_pgm_mutants(self, tmp_path):
        path = tmp_path / "valid.pgm"
        path.write_bytes(PGM_HEADER + RNG.integers(0, 256, 48, dtype=np.uint8).tobytes())
        raw = path.read_bytes()
        assert read_pgm(path).shape == (6, 8)
        accepted = self.run(tmp_path / "m.pgm", read_pgm, raw, PGM_FIELDS, PGM_TOKENS)
        # every image read honours the [0, 1] contract, whatever maxval the header names
        assert accepted and all(np.isfinite(img).all() and 0 <= img.min() and img.max() <= 1 for img in accepted)

    def test_pft_mutants(self, tmp_path):
        path = tmp_path / "valid.pft"
        write_tensor(path, RNG.standard_normal((2, 3, 4)).astype(np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"PFT1" and len(raw) == 20 + 4 * 24
        self.run(tmp_path / "m.pft", read_tensor, raw, PFT_FIELDS, PFT_TOKENS)


PYRAMID = random_pyramid(1, (8, 8))
# Every call that takes a path, given a file descriptor instead (the argument `fd`).
PATH_CALLS = {
    "write-tensor": lambda fd: write_tensor(fd, np.ones(3, np.float32)),
    "read-tensor": read_tensor,
    "write-pgm": lambda fd: write_pgm(fd, np.ones((2, 2), np.float32)),
    "read-pgm": read_pgm,
    "write-pyramid-dir": lambda fd: write_pyramid_dir(fd, PYRAMID),
    "read-pyramid-dir": read_pyramid_dir,
}


@pytest.mark.parametrize("call", PATH_CALLS.values(), ids=PATH_CALLS.keys())
def test_int_path_is_refused_not_opened_as_a_descriptor(call, tmp_path):
    # a path is a str or os.PathLike; an int would name an open file (True is fd 1, stdout)
    path = tmp_path / "fd-target"
    fd = os.open(path, os.O_RDWR | os.O_CREAT)
    try:
        with pytest.raises(ValidationError, match="path must be a str or os.PathLike"):
            call(fd)
        os.fstat(fd)  # still open: the call did not close it
    finally:
        try:
            os.close(fd)
        except OSError:
            pass
    assert path.read_bytes() == b""


# Each reader given a valid file of its format: (write the file, read it back).
READERS = {
    "pgm": (lambda path: write_pgm(path, RNG.uniform(size=(6, 8))), read_pgm),
    "pft": (lambda path: write_tensor(path, RNG.standard_normal((2, 3, 4)).astype(np.float32)), read_tensor),
}


@pytest.mark.parametrize("delta", [-1, 1], ids=["reports-a-byte-less", "reports-a-byte-more"])
@pytest.mark.parametrize("fmt", READERS)
def test_file_of_another_size_than_reported_refused(fmt, delta, tmp_path, monkeypatch):
    # a device, a pipe or a file that changes size while it is read yields other than its size:
    # both readers read one buffer of the reported size and refuse the file, whatever it holds
    write, read = READERS[fmt]
    path = tmp_path / f"f.{fmt}"
    write(path)
    size = path.stat().st_size
    real_fstat = os.fstat
    monkeypatch.setattr(hsfpn.io.os, "fstat", lambda fd: types.SimpleNamespace(st_size=real_fstat(fd).st_size + delta))
    with pytest.raises(ValidationError, match=re.escape(f"{path}: the file yields more or fewer bytes than the "
                                                        f"{size + delta} its size reports")):
        read(path)


@pytest.mark.parametrize("fmt", READERS)
def test_file_too_large_for_memory_refused(fmt, tmp_path, monkeypatch):
    # a size the process cannot allocate (a sparse file beyond the address space) names the file and its size
    write, read = READERS[fmt]
    path = tmp_path / f"f.{fmt}"
    write(path)

    def no_memory(size):
        raise MemoryError

    monkeypatch.setattr(hsfpn.io, "bytearray", no_memory, raising=False)
    with pytest.raises(ValidationError, match=re.escape(f"{path}: the {path.stat().st_size} bytes its size "
                                                        "reports do not fit in memory")):
        read(path)


# Calls that read a file: `open` in a read mode (a mode that is no constant counts as one),
# `<path>.read_bytes()`, `<path>.read_text()`, `np.fromfile` and `np.load`.
def reads_a_file(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    if name == "open":  # builtin open(file, mode) or Path.open(mode)
        args = call.args[1:] if isinstance(func, ast.Name) else call.args
        mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), args[0] if args else ast.Constant("r"))
        return not isinstance(mode, ast.Constant) or "r" in mode.value or "+" in mode.value
    if name in ("fromfile", "load"):
        return isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
    return name in ("read_bytes", "read_text")


def file_reads(source: str) -> list:
    """The name of the function around each call in `source` that reads a file, in source order."""
    reads = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and reads_a_file(node):
            reads.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return reads


@pytest.mark.parametrize("source, reads", [
    ("def f(p): return Path(p).read_bytes()", ["f"]),
    ("def f(p): return p.read_text()", ["f"]),
    ("def f(p): return open(p)", ["f"]),
    ("def f(p): return open(p, mode='rb')", ["f"]),
    ("def f(p, m): return open(p, m)", ["f"]),
    ("def f(p): return p.open('r+b')", ["f"]),
    ("x = np.load('a.npy')", ["<module>"]),
    ("def f(p):\n    def g(): return numpy.fromfile(p)\n    return g", ["g"]),
    ("def f(p): return open(p, 'wb'), p.open('ab'), p.write_bytes(b'')", []),
], ids=["read-bytes", "read-text", "open", "open-rb", "open-unknown-mode", "path-open", "np-load", "nested",
        "writes"])
def test_file_reads_finds_each_kind_of_read(source, reads):
    assert file_reads(source) == reads


def test_one_function_reads_files():
    # the one bounded reader of both formats is io._read_file; the writes stay where they are
    package = Path(hsfpn.io.__file__).parent
    reads = [(path.name, scope) for path in sorted(package.glob("*.py"))
             for scope in file_reads(path.read_text(encoding="utf-8"))]
    assert reads == [("io.py", "_read_file")]
