"""PNG unfiltering against the byte-at-a-time oracle in oracles.py.

`read_ldr8` must give the oracle's pixels for every filter type, alone or
mixed row by row, and raise the same ParseError for an unknown filter type.
"""

import zlib

import numpy as np
import pytest

import oracles
from itmbench.errors import ParseError
from itmbench.image_io import read_ldr8
from test_image_io import _png

SHAPES = ((1, 1), (1, 6), (6, 1), (2, 2), (7, 5), (5, 7), (33, 17))


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


def test_unknown_filter_type_names_the_first_bad_row(tmp_path):
    rng = np.random.default_rng(7)
    filtered = rng.integers(0, 256, (6, 4, 3), dtype=np.uint8)
    path, scan = png_of(tmp_path, [0, 4, 5, 3, 9, 1], filtered)
    with pytest.raises(ParseError) as expected:
        oracles.naive_png_unfilter(scan, 4, 6)
    with pytest.raises(ParseError) as got:
        read_ldr8(path)
    assert str(got.value) == str(expected.value) == "unknown PNG filter type 5"
