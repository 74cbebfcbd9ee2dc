"""The RGBE scanline codec against the byte-at-a-time oracles in oracles.py.

`write_hdr` must produce exactly the oracle's bytes (pixels from
`naive_rgbe_encode`, scanlines from `naive_rle_component`) at every height,
across the writer's scanline bands, and `read_hdr` must give
the oracle's pixels or raise the same ParseError (message and byte offset)
on every stream, valid or mutated.
"""

import numpy as np
import pytest

import oracles
from itmbench import image_io
from itmbench.errors import ParseError
from itmbench.image_io import _HDR_BAND_PIXELS, LinearImage, read_hdr, write_hdr
from test_acceptance import _mutate


def hdr_header(h: int, w: int) -> bytes:
    return f"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y {h} +X {w}\n".encode("ascii")


def hdr_bytes(rgbe: np.ndarray) -> bytes:
    """The file `write_hdr` must write for (h, w, 4) RGBE pixels, RLE by the oracle."""
    h, w = rgbe.shape[:2]
    out = bytearray(hdr_header(h, w))
    for y in range(h):
        if 8 <= w <= 32767:
            out += bytes((2, 2, w >> 8, w & 0xFF))
            for ch in range(4):
                out += oracles.naive_rle_component(rgbe[y, :, ch].tobytes())
        else:
            out += rgbe[y].tobytes()
    return bytes(out)


def normalized_pixels(rng, shape) -> np.ndarray:
    """Random RGBE pixels whose largest mantissa is >= 128, so they re-encode to themselves."""
    px = rng.integers(0, 256, size=shape + (4,), dtype=np.uint8)
    px[..., 3] = rng.integers(110, 150, size=shape)
    top = rng.integers(0, 3, size=shape)
    np.put_along_axis(px, top[..., None], rng.integers(128, 256, size=shape + (1,)), axis=-1)
    return px


def image_of(rgbe: np.ndarray) -> LinearImage:
    m = rgbe[..., :3].astype(np.float64)
    e = rgbe[..., 3:].astype(np.float64)
    data = np.where(e == 0, 0.0, m * 2.0 ** (e - 136)).astype(np.float32)
    return LinearImage(data)


def band_rows(width: int) -> int:
    """Scanlines `write_hdr` codes per pass at `width`."""
    return max(1, _HDR_BAND_PIXELS // width)


def assert_writes_oracle_bytes(tmp_path, rgbe):
    path = tmp_path / "out.hdr"
    write_hdr(image_of(rgbe), path)
    assert path.read_bytes() == hdr_bytes(rgbe)


class TestWriter:
    @pytest.mark.parametrize("length", [3, 4, 127, 128, 129, 130, 131, 255, 256])
    def test_run_lengths(self, tmp_path, rng, length):
        # a run of `length` equal pixels at the start, in the middle and at the end of a row
        width = length + 5
        rgbe = normalized_pixels(rng, (3, width))
        run = normalized_pixels(rng, (1,))[0]
        rgbe[0, :length] = run
        rgbe[1, 2:2 + length] = run
        rgbe[2, 5:] = run
        assert_writes_oracle_bytes(tmp_path, rgbe)

    @pytest.mark.parametrize("width", [1, 5, 7, 8, 9, 130])
    def test_widths(self, tmp_path, rng, width):
        # pixels from a 3-entry palette in runs of 1..9: runs and literals mix
        palette = normalized_pixels(rng, (3,))
        rows = []
        for _ in range(6):
            idx = np.repeat(rng.integers(0, 3, size=width), rng.integers(1, 10, size=width))
            rows.append(palette[idx[:width]])
        assert_writes_oracle_bytes(tmp_path, np.stack(rows))

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_random_images(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(1, 6)), int(rng.integers(1, 300))
        data = rng.uniform(0.0, 4.0, (h, w, 3))
        if seed % 2:  # coarse levels give runs of every length
            data = np.round(data)
        img = LinearImage(data.astype(np.float32))
        rgbe = np.array([oracles.naive_rgbe_encode(*px) for px in img.data.reshape(-1, 3).tolist()],
                        dtype=np.uint8).reshape(h, w, 4)
        path = tmp_path / "out.hdr"
        write_hdr(img, path)
        assert path.read_bytes() == hdr_bytes(rgbe)

    def test_float32_sweep_matches_oracle_pixels(self, tmp_path):
        # every float32 binade: zeros, mantissas that round up to 256, values
        # just below 2**-128 and exponents up to 2**126, the largest in each channel
        k = np.arange(-149, 127, dtype=np.float64)
        edges = np.array([1.0, 1 - 2**-9, 1 - 2**-10, 1 - 2**-8, 1 + 2**-9, 0.7])
        m = np.append((2.0 ** k[:, None] * edges).ravel(), [2.9358e-39, 2.0**-128 * (1 - 2**-10)])
        m = m.astype(np.float32)
        rgb = np.concatenate([
            np.stack([m, m * np.float32(0.37), m * np.float32(0.001)], axis=-1),
            np.stack([np.zeros_like(m), m, m * np.float32(0.999)], axis=-1),
            np.stack([m * np.float32(2**-20), np.zeros_like(m), m], axis=-1),
            np.zeros((40, 3), dtype=np.float32),
        ])
        path = tmp_path / "sweep.hdr"
        write_hdr(LinearImage(rgb[:, None, :]), path)  # width 1: flat pixels
        stored = np.frombuffer(path.read_bytes()[-4 * len(rgb):], dtype=np.uint8).reshape(-1, 4)
        want = [oracles.naive_rgbe_encode(*px) for px in rgb.tolist()]
        assert [tuple(px) for px in stored.tolist()] == want

    # (bands, extra): height = bands * band + extra rows at the tested width;
    # each id is the height the case has at width 512, where a band is 32 rows
    @pytest.mark.parametrize("bands, extra", [
        pytest.param(0, 1, id="1"), pytest.param(1, -1, id="31"), pytest.param(1, 0, id="32"),
        pytest.param(1, 1, id="33"), pytest.param(2, 1, id="65"),
    ])
    @pytest.mark.parametrize("width", [7, 8, 130, 300])
    def test_heights_across_scanline_bands(self, tmp_path, bands, extra, width):
        # palette pixels in runs of 1..200, so runs and literals meet band edges
        height = bands * band_rows(width) + extra
        rng = np.random.default_rng(height * 1000 + width)
        palette = normalized_pixels(rng, (3,))
        idx = np.repeat(rng.integers(0, 3, size=(height, width)),
                        rng.integers(1, 200, size=width), axis=1)[:, :width]
        assert_writes_oracle_bytes(tmp_path, palette[idx])

    @pytest.mark.parametrize("height", [1, 33])
    def test_constant_image_breaks_runs_at_each_component(self, tmp_path, height):
        # all four components hold one byte, so only component starts end a run
        assert_writes_oracle_bytes(tmp_path, np.full((height, 300, 4), 140, dtype=np.uint8))

    def test_runs_of_130_and_131_across_bands(self, tmp_path, rng):
        # 127 + a remainder of 3 (joins the literals after it) or 4 (its own code)
        height = band_rows(300) + 8
        rgbe = normalized_pixels(rng, (height, 300))
        run = normalized_pixels(rng, (1,))[0]
        for y in range(height):
            length, start = 130 + y % 2, (y * 37) % 170
            rgbe[y, start:start + length] = run
        assert_writes_oracle_bytes(tmp_path, rgbe)


def flat_seed() -> bytes:
    """Old-style scanlines of width 263 with single and consecutive (1, 1, 1, n) codes."""
    px = [bytes((128 + i, 40 + i, 9, 120 + i)) for i in range(6)]
    rep = [bytes((1, 1, 1, n)) for n in range(6)]
    # x: 1, +3 = 4, 5, 6, +1 = 7, +(1 << 8) = 263
    row0 = px[0] + rep[3] + px[1] + px[2] + rep[1] + rep[1]
    # x: 1, +0, +(1 << 8) = 257, 258, +5 = 263
    row1 = px[3] + rep[0] + rep[1] + px[4] + rep[5]
    # the high bit of (2, 2, 200, 130) rules out an adaptive marker
    row2 = bytes((2, 2, 200, 130)) + rep[2] + px[5] * 3 + rep[1] + rep[1]
    return b"#?RGBE\n# hand-built\nFORMAT=32-bit_rle_rgbe\n\n-Y 3 +X 263\n" + row0 + row1 + row2


def rle_seed(tmp_path) -> bytes:
    rng = np.random.default_rng(7)
    palette = normalized_pixels(rng, (4,))
    idx = np.repeat(rng.integers(0, 4, size=(5, 24)), rng.integers(1, 7, size=24), axis=1)
    path = tmp_path / "seed.hdr"
    write_hdr(image_of(palette[idx[:, :24]]), path)
    magic = b"#?RADIANCE\n"
    return magic + b"EXPOSURE=2.0\n" + path.read_bytes()[len(magic):]  # a header line to skip


def read_outcome(reader, arg):
    try:
        return reader(arg), None
    except ParseError as exc:
        return None, (str(exc), exc.offset)


@pytest.mark.parametrize("kind", ["rle", "flat"])
def test_reader_matches_oracle_on_mutated_streams(tmp_path, kind):
    seed = rle_seed(tmp_path) if kind == "rle" else flat_seed()
    pixels = oracles.naive_read_hdr(seed)
    assert pixels.shape == ((5, 24, 3) if kind == "rle" else (3, 263, 3))
    (tmp_path / "seed.hdr").write_bytes(seed)
    assert np.array_equal(read_hdr(tmp_path / "seed.hdr").data, pixels)
    body = seed.index(b"\n", seed.index(b"+X")) + 1
    rng = np.random.default_rng(4040)
    path = tmp_path / "fuzz.hdr"
    outcomes = {"ok": 0, "error": 0}
    for i in range(1000):
        if i % 2:  # the whole file, as criterion 4 does
            blob = _mutate(seed, rng)
        else:  # the scanlines only, behind an intact header
            blob = seed[:body] + _mutate(seed[body:], rng)
        path.write_bytes(blob)
        got, got_err = read_outcome(read_hdr, path)
        want, want_err = read_outcome(oracles.naive_read_hdr, blob)
        assert got_err == want_err, f"stream {i}"
        if want is not None:
            assert np.array_equal(got.data, want), f"stream {i}"
        outcomes["ok" if want_err is None else "error"] += 1
    # both the decode and the error paths are exercised
    assert min(outcomes.values()) >= 10, outcomes


def flat_payload(rgbe: np.ndarray) -> bytes:
    """A file of (h, w, 4) RGBE pixels stored as they are, in old-style scanlines."""
    return hdr_header(*rgbe.shape[:2]) + rgbe.tobytes()


def flat_case(case: str) -> tuple:
    """(file bytes, whether read_hdr takes the payload as its pixels in one pass)."""
    rng = np.random.default_rng(len(case))
    width = 5 if case == "marker_w5" else 8 if case == "marker_w8" else 24
    rgbe = normalized_pixels(rng, (6, width))  # a mantissa >= 128: no code, no marker
    if case == "repeat":
        rgbe[2, 5] = (1, 1, 1, 1)  # the previous pixel once more: still 4 w h bytes
    if case.startswith("marker"):
        rgbe[1, 0] = (2, 2, 0, width)  # a scanline opens with an adaptive marker
    blob = flat_payload(rgbe)
    if case == "trailing":
        return blob + b"\x00", False
    if case == "short":
        return blob[:-1], False
    return blob, case in ("plain", "marker_w5")


@pytest.mark.parametrize("case", ["plain", "repeat", "marker_w8", "marker_w5", "trailing",
                                  "short"])
def test_flat_payload_matches_oracle(tmp_path, monkeypatch, case):
    # a payload of exactly 4 w h bytes with no repeat code, and no marker where a scanline
    # may be adaptive (widths 8 to 32767), is the pixels; every other file is read scanline
    # by scanline, to the oracle's pixels or its ParseError
    blob, one_pass = flat_case(case)
    scanlines = []
    read_scanline = image_io._read_hdr_scanline
    monkeypatch.setattr(image_io, "_read_hdr_scanline",
                        lambda *args: scanlines.append(args[1]) or read_scanline(*args))
    path = tmp_path / "flat.hdr"
    path.write_bytes(blob)
    got, got_err = read_outcome(read_hdr, path)
    want, want_err = read_outcome(oracles.naive_read_hdr, blob)
    assert got_err == want_err
    assert want_err is not None or np.array_equal(got.data, want)
    assert (not scanlines) == one_pass
    if case == "short":
        assert want_err == (f"unexpected end of file (byte offset {len(blob)})", len(blob))
