"""PNG unfiltering against the byte-at-a-time oracle in oracles.py.

`read_ldr8` must give the oracle's pixels for every filter type, alone or
mixed row by row, and raise the same ParseError for an unknown filter type.
Mutated files whose CRCs and deflate streams are valid again must decode to
the oracle's pixels or raise an ItmError.
"""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest

import oracles
from itmbench.errors import ItmError, ParseError
from itmbench.image_io import Ldr8Image, read_ldr8
from test_acceptance import _mutate
from test_image_io import SHAPES, _png


def png_of(tmp_path, ftypes, filtered) -> tuple:
    """Write (h, w, 3) filtered bytes with one filter type per row; return (path, scan)."""
    h, w, _ = filtered.shape
    scan = np.empty((h, 1 + 3 * w), dtype=np.uint8)
    scan[:, 0] = ftypes
    scan[:, 1:] = filtered.reshape(h, 3 * w)
    path = tmp_path / "f.png"
    path.write_bytes(_png((w, h), zlib.compress(scan.tobytes())))
    return path, scan.tobytes()


@pytest.mark.parametrize("ftype", range(5), ids=["none", "sub", "up", "average", "paeth"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_single_filter_type(tmp_path, ftype, shape):
    rng = np.random.default_rng(1000 * ftype + shape[0] * 40 + shape[1])
    filtered = rng.integers(0, 256, shape + (3,), dtype=np.uint8)
    path, scan = png_of(tmp_path, np.full(shape[0], ftype), filtered)
    got = read_ldr8(path).data
    assert got.dtype == np.uint8 and got.flags.c_contiguous
    assert got.tolist() == oracles.naive_png_unfilter(scan, shape[1], shape[0])


@pytest.mark.parametrize("seed", range(8))
def test_mixed_filter_types(tmp_path, seed):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
    ftypes = rng.integers(0, 5, h)
    # smooth rows as well as noise: Paeth's three branches all occur
    base = np.cumsum(rng.integers(-3, 4, (h, w, 3)), axis=1) + 128
    filtered = np.where(rng.random((h, 1, 1)) < 0.5, base % 256,
                        rng.integers(0, 256, (h, w, 3))).astype(np.uint8)
    path, scan = png_of(tmp_path, ftypes, filtered)
    assert read_ldr8(path).data.tolist() == oracles.naive_png_unfilter(scan, w, h)


# one type of None, Sub or Up on every row takes a running sum in place of the
# diagonal sweep, and a mix of the three takes the sweep; each pattern is cut to
# the image's height
NONE_SUB_UP_ROWS = {
    "none": [0] * 40,
    "sub": [1] * 40,
    "up": [2] * 40,
    "up-from-row-0": [2] * 9 + [0] + [2] * 30,
    "up-after-none": [0] + [2] * 20 + [0, 0] + [2] * 17,
    "up-after-sub": [1] + [2] * 20 + [1, 1] + [2] * 17,
    "alternating": [0, 2, 1, 2] * 10,
}


@pytest.mark.parametrize("rows", NONE_SUB_UP_ROWS.values(), ids=NONE_SUB_UP_ROWS.keys())
@pytest.mark.parametrize("shape", [(37, 5), (40, 1), (1, 40)], ids=["37x5", "40x1", "1x40"])
def test_none_sub_up_rows(tmp_path, rows, shape):
    h, w = shape
    filtered = np.random.default_rng(h * 41 + w).integers(0, 256, (h, w, 3), dtype=np.uint8)
    path, scan = png_of(tmp_path, rows[:h], filtered)
    got = read_ldr8(path).data
    assert got.dtype == np.uint8 and got.flags.c_contiguous
    assert got.tolist() == oracles.naive_png_unfilter(scan, w, h)


@pytest.mark.parametrize("ftype", range(3), ids=["none", "sub", "up"])
def test_running_sum_read_peak(tmp_path, ftype):
    # the file's bytes, its IDAT, the inflated scanlines and the image are the
    # read's whole traced peak: no other image-sized copy is made
    h = w = 512
    rng = np.random.default_rng(512)
    y, x = np.mgrid[0:h, 0:w]
    image = np.stack([x // 2, y // 2, (x + y) // 4], axis=-1) + rng.integers(0, 4, (h, w, 3))
    path, _ = png_of(tmp_path, np.full(h, ftype), image.astype(np.uint8))
    read_ldr8(path)  # numpy's one-time allocations are not the read's
    tracemalloc.start()
    try:
        read_ldr8(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * image.size + (64 << 10), f"peak {peak / image.size:.2f} x the image"


def test_unknown_filter_type_names_the_first_bad_row(tmp_path):
    rng = np.random.default_rng(7)
    filtered = rng.integers(0, 256, (6, 4, 3), dtype=np.uint8)
    path, scan = png_of(tmp_path, [0, 4, 5, 3, 9, 1], filtered)
    with pytest.raises(ParseError) as expected:
        oracles.naive_png_unfilter(scan, 4, 6)
    with pytest.raises(ParseError) as got:
        read_ldr8(path)
    assert str(got.value) == str(expected.value) == "unknown PNG filter type 5"


def _chunks(blob: bytes):
    """(start, kind, body end) of each whole chunk after the signature, in file order."""
    pos = 8
    while pos + 8 <= len(blob):
        (length,) = struct.unpack(">I", blob[pos:pos + 4])
        end = pos + 8 + length
        if end + 4 > len(blob):
            return
        yield pos, blob[pos + 4:pos + 8], end
        pos = end + 4


def _recrc(blob: bytes) -> bytes:
    """`blob` with every whole chunk's CRC recomputed, so the checksum passes."""
    out = bytearray(blob)
    for pos, _, end in _chunks(blob):
        out[end:end + 4] = struct.pack(">I", zlib.crc32(out[pos + 4:end]) & 0xFFFFFFFF)
    return bytes(out)


def _ihdr_idat(blob: bytes) -> tuple:
    """The first IHDR's (width, height) and the IDAT bodies before the first IEND, joined."""
    size, idat = (0, 0), b""
    for pos, kind, end in _chunks(blob):
        if kind == b"IHDR" and size == (0, 0) and end - pos == 21:
            size = struct.unpack(">II", blob[pos + 8:pos + 16])
        elif kind == b"IDAT":
            idat += blob[pos + 8:end]
        elif kind == b"IEND":
            break
    return size, idat


def _unfilter_outcome(scan: bytes, width: int, height: int):
    """The oracle's pixels for `scan`, or its ParseError message."""
    try:
        return oracles.naive_png_unfilter(scan, width, height)
    except ParseError as exc:
        return str(exc)


def test_fuzz_past_the_checksum(tmp_path):
    """Mutants with valid CRCs, or with valid deflate around mutated scanlines,
    decode to the oracle's pixels or fail with an ItmError, in memory bounded
    by the declared size."""
    rng = np.random.default_rng(4041)
    w, h = 7, 10
    scan = np.empty((h, 1 + 3 * w), dtype=np.uint8)
    scan[:, 0] = np.arange(h) % 5  # every filter type, twice
    scan[:, 1:] = rng.integers(0, 256, (h, 3 * w))
    scan = scan.tobytes()
    seed = _png((w, h), zlib.compress(scan))
    path = tmp_path / "fuzz.png"
    path.write_bytes(seed)
    # the seed decodes to the oracle's pixels; its first decode also warms up
    # numpy, whose one-time allocations would otherwise count in a peak
    assert read_ldr8(path).data.tolist() == oracles.naive_png_unfilter(scan, w, h)
    outcomes = {"decoded": 0, "error": 0}
    tracemalloc.start()
    try:
        for i in range(600):
            sized = i % 4 == 2
            if i % 2:  # the whole file, every chunk's CRC made good again
                blob = _recrc(_mutate(seed, rng))
            elif sized:  # the scanlines at their declared size: filter types and pixels
                mutant = np.frombuffer(scan, dtype=np.uint8).copy()
                at = rng.integers(0, len(scan), int(rng.integers(1, 5)))
                mutant[at] = rng.integers(0, 256, len(at))
                mutant = mutant.tobytes()
                blob = _png((w, h), zlib.compress(mutant))
            else:  # the scanlines resized, by 256 KiB more in every other one
                mutant = _mutate(scan, rng) + bytes((i % 8 == 0) << 18)
                blob = _png((w, h), zlib.compress(mutant))
            path.write_bytes(blob)
            (width, height), idat = _ihdr_idat(blob)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                got = read_ldr8(path)
            except ItmError as exc:
                got = exc
            peak = tracemalloc.get_traced_memory()[1] - base
            # a file with no readable IHDR is held to the seed's size
            declared = max(width * height, w * h) * 3
            assert peak < (64 << 10) + 16 * declared, f"mutant {i}: peak {peak} bytes"
            if isinstance(got, ItmError):
                assert "CRC mismatch" not in str(got), f"mutant {i}"
                outcomes["error"] += 1
                if sized:
                    assert str(got) == _unfilter_outcome(mutant, w, h), f"mutant {i}"
                continue
            assert isinstance(got, Ldr8Image), f"mutant {i}"
            want = _unfilter_outcome(zlib.decompress(idat), width, height)
            assert got.data.tolist() == want, f"mutant {i}"
            outcomes["decoded"] += 1
    finally:
        tracemalloc.stop()
    assert min(outcomes.values()) >= 50, outcomes
