"""The RGBE scanline codec against the byte-at-a-time oracles in oracles.py.

`write_hdr` must produce exactly the oracle's bytes (pixels from
`naive_rgbe_encode`, scanlines from `naive_rle_component`) at every height,
across the writer's scanline bands, and `read_hdr` must give
the oracle's pixels or raise the same ParseError (message and byte offset)
on every stream, valid or mutated.
"""

import time

import numpy as np
import pytest

import oracles
from itmbench import image_io
from itmbench.errors import ParseError
from itmbench.image_io import _HDR_BAND_PIXELS, LinearImage, read_hdr, write_hdr
from test_acceptance import _mutate
from test_inplace_kernels import traced_peak


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


def wide_rle_seed(tmp_path) -> bytes:
    """Writer output of 8 scanlines of width 40, noise between palette runs: long literals,
    so most byte flips keep every marker and the lock-step parse reads the mutant."""
    rng = np.random.default_rng(11)
    rgbe = normalized_pixels(rng, (8, 40))
    rgbe[::3, 10:25] = normalized_pixels(rng, (1,))[0]
    path = tmp_path / "seed.hdr"
    write_hdr(image_of(rgbe), path)
    return path.read_bytes()


def spy_lockstep(monkeypatch) -> list:
    """Patch `_rle_payload` to append, at each call, whether it gave the pixels."""
    taken, rle_payload = [], image_io._rle_payload

    def spy(*args):
        rows = rle_payload(*args)
        taken.append(rows is not None)
        return rows

    monkeypatch.setattr(image_io, "_rle_payload", spy)
    return taken


SEEDS = {"rle": (rle_seed, (5, 24, 3)), "flat": (lambda _: flat_seed(), (3, 263, 3)),
         "rle_wide": (wide_rle_seed, (8, 40, 3))}


@pytest.mark.parametrize("kind", ["rle", "flat", "rle_wide"])
def test_reader_matches_oracle_on_mutated_streams(tmp_path, monkeypatch, kind):
    make_seed, shape = SEEDS[kind]
    seed = make_seed(tmp_path)
    pixels = oracles.naive_read_hdr(seed)
    assert pixels.shape == shape
    taken = spy_lockstep(monkeypatch)
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
    if kind == "rle_wide":  # and mutants that keep every marker take the lock-step parse
        assert taken.count(True) >= 10, taken.count(True)


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


# ---------------------------------------------------------------------------
# The lock-step parse of adaptive RLE payloads


def lockstep_read(tmp_path, monkeypatch, blob) -> bool:
    """Read `blob` as a file, check read_hdr against the oracle (pixels, or ParseError message
    and offset), and return whether the lock-step parse gave the pixels; every file it
    declines is read scanline by scanline."""
    taken = spy_lockstep(monkeypatch)
    scanlines, read_scanline = [], image_io._read_hdr_scanline
    monkeypatch.setattr(image_io, "_read_hdr_scanline",
                        lambda *args: scanlines.append(args[1]) or read_scanline(*args))
    path = tmp_path / "lockstep.hdr"
    path.write_bytes(blob)
    got, got_err = read_outcome(read_hdr, path)
    want, want_err = read_outcome(oracles.naive_read_hdr, blob)
    assert got_err == want_err
    assert want_err is not None or np.array_equal(got.data, want)
    assert taken in ([True], [False])
    assert taken[0] == (not scanlines)
    return taken[0]


@pytest.mark.parametrize("height", [1, 31, 33])
@pytest.mark.parametrize("width", [8, 9, 130, 512])
def test_writer_output_takes_the_lockstep_parse(tmp_path, monkeypatch, width, height):
    # palette pixels in runs of 1..200, and every third scanline noise: runs, and literals
    # of up to 128 bytes, across every scanline band of the copy
    rng = np.random.default_rng(width * 100 + height)
    palette = normalized_pixels(rng, (3,))
    idx = np.repeat(rng.integers(0, 3, size=(height, width)),
                    rng.integers(1, 200, size=width), axis=1)[:, :width]
    rgbe = palette[idx]
    rgbe[::3] = normalized_pixels(rng, (len(rgbe[::3]), width))
    path = tmp_path / "w.hdr"
    write_hdr(image_of(rgbe), path)
    assert lockstep_read(tmp_path, monkeypatch, path.read_bytes())


def lit(data: bytes) -> bytes:
    return bytes((len(data),)) + data


def run(count: int, value: int) -> bytes:
    return bytes((128 + count, value))


def lockstep_case(case: str) -> bytes:
    """A hand-built file of 3 adaptive RLE scanlines of width 16, changed as `case` says."""
    rng = np.random.default_rng(16)
    comps = [[lit(rng.integers(128, 256, 16, dtype=np.uint8).tobytes()) for _ in range(3)]
             + [run(16, 130)] for _ in range(3)]  # R, G, B literals, then an E run
    marker = bytes((2, 2, 0, 16))
    if case == "marker_in_literal":
        comps[1][0] = lit(comps[1][0][1:4] + marker + comps[1][0][8:])
    elif case == "short":  # the blue literal one byte short
        comps[1][2] = comps[1][2][:-1]
    elif case == "code_0":
        comps[1][1] = b"\x00" + comps[1][1]
    elif case == "run_across":  # fills 16 + 1 and 15 pixels: 4 w in all, across R and G
        comps[1][:2] = run(17, 140), lit(comps[1][1][1:16])
    elif case == "literal_across":
        comps[1][:2] = lit(comps[1][0][1:] + b"\x99"), lit(comps[1][1][1:16])
    elif case == "over_budget_codes":  # 16 one-byte red literals: 19 codes, budget 16
        comps[1][0] = b"".join(lit(comps[1][0][i:i + 1]) for i in range(1, 17))
    elif case == "over_budget_bytes":  # every component so: more bytes than 16 codes take
        comps = [[b"".join(lit(c[i:i + 1]) for i in range(1, 17)) for c in row[:3]]
                 + [row[3]] for row in comps]
    lines = [marker + b"".join(row) for row in comps]
    if case == "old_style_scanline":  # 16 plain pixels, the first not a marker
        lines[1] = rng.integers(128, 256, 64, dtype=np.uint8).tobytes()
    blob = hdr_header(3, 16) + b"".join(lines)
    if case == "run_value_past_eof":
        return blob[:-1]
    return blob + (b"\x07\x07" if case == "trailing" else b"")


@pytest.mark.parametrize("case", ["valid", "marker_in_literal", "short", "code_0", "run_across",
                                  "literal_across", "run_value_past_eof", "old_style_scanline",
                                  "trailing", "over_budget_codes", "over_budget_bytes"])
def test_lockstep_parse_declines_all_but_plain_adaptive_payloads(tmp_path, monkeypatch, case):
    # every file it declines is read scanline by scanline, to the oracle's pixels or its
    # ParseError; so every error message and offset comes from the loop
    assert lockstep_read(tmp_path, monkeypatch, lockstep_case(case)) == (case == "valid")


# ---------------------------------------------------------------------------
# Memory and time bounded by the declared size


def no_scanline_loop(*args):
    raise AssertionError("read scanline by scanline")


def file_512(comps: np.ndarray) -> bytes:
    """A 512^2 file of adaptive RLE scanlines: each its marker, then the codes `comps[y]`."""
    markers = np.tile(np.array([2, 2, 2, 0], np.uint8), (512, 1))
    body = np.concatenate([markers, comps.reshape(512, -1)], axis=1)
    return hdr_header(512, 512) + body.tobytes()


def at_budget(rng) -> tuple:
    """A 512^2 file whose every scanline takes the whole code budget, 264 literals of 7 or 8
    bytes (66 per component), and its (h, w, 4) RGBE pixels."""
    planes = rng.integers(128, 256, (512, 4, 512), dtype=np.uint8)
    sizes = np.array([8] * 50 + [7] * 16)
    is_code = np.zeros(512 + 66, dtype=bool)
    is_code[np.cumsum(sizes + 1) - sizes - 1] = True
    comps = np.empty((512, 4, 512 + 66), dtype=np.uint8)
    comps[..., is_code] = sizes
    comps[..., ~is_code] = planes
    return file_512(comps), planes.transpose(0, 2, 1)


@pytest.mark.parametrize("content", ["smooth", "texture", "at_budget"])
def test_lockstep_read_traced_peak_at_512(tmp_path, monkeypatch, content):
    # the file's bytes, the parse's code offsets, the pixels' RGBE planes and the float32
    # image: 1.90x (smooth), 2.01x (texture) and 2.06x (at the budget) the float32 image
    # measured, against 1.91x, 2.02x and 2.07x when the loop read the scanlines
    rng = np.random.default_rng(512)
    path = tmp_path / "a.hdr"
    if content == "at_budget":
        blob, rgbe = at_budget(rng)
        path.write_bytes(blob)
        assert np.array_equal(read_hdr(path).data, image_of(rgbe).data)
    else:
        y, x = np.mgrid[0:512, 0:512] / 512
        data = (np.exp(0.6 * np.sin(2 * np.pi * x) + 1.2 * np.cos(2 * np.pi * y))[..., None]
                * np.array([1.0, 0.85, 0.7]) if content == "smooth"
                else rng.lognormal(-1.5, 1.2, (512, 512, 3)))
        write_hdr(LinearImage(data.astype(np.float32)), path)
    monkeypatch.setattr(image_io, "_read_hdr_scanline", no_scanline_loop)
    assert traced_peak(lambda: read_hdr(path)) <= 2.25 * 512 * 512 * 12 + (64 << 10)


def test_one_byte_literals_are_declined_before_the_parse(tmp_path):
    # 4 codes per pixel take more bytes than the code budget (width // 2 + 8 codes per
    # scanline) allows, so the lock-step parse declines before it allocates or parses
    # anything, and the loop's cost is the whole read's: 7.04 MiB traced (7.07 MiB before
    # the lock-step parse) and about 0.2 s. A traced read of this file's million codes
    # takes ~9 s, so the loop's own peak is not pinned here.
    rng = np.random.default_rng(1)
    planes = rng.integers(128, 256, (512, 4, 512), dtype=np.uint8)
    codes = np.ones((512, 4, 512, 2), dtype=np.uint8)  # (1, byte) per pixel and component
    codes[..., 1] = planes
    blob = file_512(codes)
    (tmp_path / "lit.hdr").write_bytes(blob)
    starts = time.perf_counter()
    got = read_hdr(tmp_path / "lit.hdr")
    read_s = time.perf_counter() - starts
    assert np.array_equal(got.data, image_of(planes.transpose(0, 2, 1)).data)
    pos = len(hdr_header(512, 512))
    assert traced_peak(lambda: image_io._rle_payload(blob, pos, 512, 512)) < 1024
    decline_s = []
    for _ in range(5):
        starts = time.perf_counter()
        assert image_io._rle_payload(blob, pos, 512, 512) is None
        decline_s.append(time.perf_counter() - starts)
    assert min(decline_s) < 0.02 * read_s
