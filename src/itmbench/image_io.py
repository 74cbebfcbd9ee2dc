"""Image containers and file formats used by the pipeline.

Readers and writers for Radiance RGBE (.hdr), Portable FloatMap (.pfm) and
8-bit rasters (PNG, PPM P6), on numpy and the standard library alone. Writers
pick their container by file suffix from one table per kind (LINEAR_WRITERS,
LDR_ENCODERS); the 8-bit reader tells PNG from PPM by the magic bytes.

All parsers are defensive: malformed bytes raise ParseError/FormatError,
never crash, and never allocate storage beyond `MAX_PIXELS`.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .color import _in_range, _int_at_least, _radiance
from .errors import FormatError, InputError, ParseError, ShapeError

# Upper bound on width*height accepted by any parser; keeps a hostile header
# from provoking a giant allocation before the payload is validated.
MAX_PIXELS = 1 << 24


# Longest .hdr header line, without its newline, that read_hdr accepts.
_HDR_LINE_MAX = 4095


@dataclass
class _Raster:
    """RGB raster of at least one pixel; data is (height, width, 3)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3 or self.data.shape[2] != 3:
            raise ShapeError(f"expected (height, width, 3) array, got {self.data.shape}")
        if self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ShapeError("image dimensions must be positive")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass
class LinearImage(_Raster):
    """Floating-point RGB raster in relative linear radiance; data is (height, width, 3)
    float32, every component finite and >= 0."""

    def __post_init__(self):
        super().__post_init__()
        self.data = _radiance(self.data, "linear image components", error=FormatError).astype(
            np.float32, copy=False)


@dataclass
class Ldr8Image(_Raster):
    """8-bit nonlinear (CRF-encoded) RGB raster; data is (height, width, 3) uint8."""

    def __post_init__(self):
        super().__post_init__()
        if self.data.dtype != np.uint8:
            if not np.issubdtype(self.data.dtype, np.integer):
                raise FormatError("8-bit image data must be integer")
            self.data = _radiance(self.data, "8-bit image values", "byte",
                                  error=FormatError).astype(np.uint8)


# ---------------------------------------------------------------------------
# RGBE pixel coding


def _rgbe_encode_rows(data: np.ndarray) -> np.ndarray:
    """(n, 3) linear RGB -> (n, 4) uint8 RGBE: the smallest exponent e with max(rgb) <
    2**(e-128), mantissas rounded to nearest; zero or too-small pixels are canonical black."""
    m = np.maximum(np.maximum(data[:, 0], data[:, 1]), data[:, 2])
    _, ex = np.frexp(m)
    # exponents below 0 stay below 1 after the bump, so they encode black; the
    # clamp keeps 2**(136 - e) finite for float64 subnormals
    e = np.maximum(ex + 128, 0)
    if (e > 255).any():
        raise FormatError("component too large for RGBE encoding")
    mant = np.floor(data * np.ldexp(1.0, 136 - e)[:, None] + 0.5)
    bump = np.maximum(np.maximum(mant[:, 0], mant[:, 1]), mant[:, 2]) >= 256
    if bump.any():
        e[bump] += 1
        if (e > 255).any():
            raise FormatError("component too large for RGBE encoding")
        mant[bump] = np.floor(data[bump] * np.ldexp(1.0, 136 - e[bump])[:, None] + 0.5)
    black = (m == 0.0) | (e < 1)
    out = np.empty((data.shape[0], 4), dtype=np.uint8)
    out[:, :3] = np.where(black[:, None], 0, mant).astype(np.uint8)
    out[:, 3] = np.where(black, 0, e).astype(np.uint8)
    return out


# float32 2**(e - 136) per exponent byte e, and 0 for e = 0 (a black pixel)
_RGBE_SCALE = np.where(np.arange(256) > 0, np.ldexp(np.float32(1.0), np.arange(256) - 136), 0)
_RGBE_SCALE.flags.writeable = False


def _rgbe_decode_rows(rgbe: np.ndarray) -> np.ndarray:
    """Decode (..., 4) uint8 RGBE pixels of any strides: component = mantissa / 256 *
    2**(exponent - 128), one channel per pass."""
    scale = _RGBE_SCALE[rgbe[..., 3]]
    out = np.empty(rgbe.shape[:-1] + (3,), dtype=np.float32)
    for c in range(3):
        np.multiply(rgbe[..., c], scale, out=out[..., c])
    return out


# ---------------------------------------------------------------------------
# Radiance .hdr container

_HDR_MAGICS = (b"#?RADIANCE", b"#?RGBE")


def _header_line(data: bytes, pos: int) -> tuple:
    """The header line that starts at data[pos], without its newline, and the position after it."""
    end = data.find(b"\n", pos, pos + _HDR_LINE_MAX + 1)
    if end < 0:
        raise ParseError("unterminated header line", offset=pos)
    return data[pos:end], end + 1


def _check_dims(width: int, height: int, offset: int):
    if width < 1 or height < 1:
        raise ParseError("image dimensions must be positive", offset=offset)
    if width * height > MAX_PIXELS:
        raise ParseError(
            f"image of {width}x{height} pixels exceeds parser limit", offset=offset
        )


def _read_file(path) -> bytes:
    """The bytes of the file at `path`; InputError when it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read file {path}: {exc.strerror}") from None


def read_hdr(path) -> LinearImage:
    """Read a Radiance RGBE file (flat, old-style RLE, or adaptive RLE scanlines);
    header lines other than FORMAT (EXPOSURE, comments, ...) are skipped."""
    raw = _read_file(path)
    magic, pos = _header_line(raw, 0)
    if magic not in _HDR_MAGICS:
        raise ParseError("not a Radiance RGBE file", offset=0)
    while True:
        at = pos
        line, pos = _header_line(raw, pos)
        if line == b"":
            break
        try:
            text = line.decode("ascii")
        except UnicodeDecodeError:
            raise ParseError("non-ASCII header line", offset=at) from None
        if text.startswith("FORMAT=") and text != "FORMAT=32-bit_rle_rgbe":
            raise ParseError(f"unsupported pixel format {text!r}", offset=at)
    at = pos
    line, pos = _header_line(raw, pos)
    parts = line.split()
    if len(parts) != 4 or parts[0] != b"-Y" or parts[2] != b"+X":
        raise ParseError("unsupported or malformed resolution string", offset=at)
    try:
        height, width = int(parts[1]), int(parts[3])
    except ValueError:
        raise ParseError("malformed resolution string", offset=at) from None
    _check_dims(width, height, at)

    rows = _flat_payload(raw, pos, width, height)
    if rows is None:
        rows = _rle_payload(raw, pos, width, height)
    if rows is None:
        rows = np.empty((height, width, 4), dtype=np.uint8)
        for y in range(height):
            pos = _read_hdr_scanline(raw, pos, rows[y])
    return LinearImage(_rgbe_decode_rows(rows))


def _flat_payload(data: bytes, pos: int, width: int, height: int):
    """The (height, width, 4) RGBE pixels from data[pos], a view, when they are all of it in
    plain pixels: exactly 4 * width * height bytes, no old-style repeat code (1, 1, 1, n),
    and no scanline opening with an adaptive marker where one can (2, 2, then a clear high
    bit, at widths 8 to 32767). Otherwise None, and the scanlines are read one by one."""
    if len(data) - pos != 4 * width * height:
        return None
    rgb = np.frombuffer(data, dtype="<u4", offset=pos) & 0xFFFFFF  # R | G << 8 | B << 16
    if (rgb == 0x010101).any() or (
            8 <= width <= 32767 and ((rgb[::width] & 0x80FFFF) == 0x0202).any()):
        return None
    return np.frombuffer(data, dtype=np.uint8, offset=pos).reshape(height, width, 4)


# Bytes each adaptive RLE code takes (itself, a run's value or a literal's bytes), pixels it fills
_RLE_FILL = np.where(np.arange(256) > 128, np.arange(256) - 128, np.arange(256)).astype(np.uint8)
_RLE_TAKE = np.where(np.arange(256) > 128, 2, _RLE_FILL + (_RLE_FILL > 0)).astype(np.uint8)


def _rle_payload(data: bytes, pos: int, width: int, height: int):
    """The (height, width, 4) RGBE pixels from data[pos], a view, parsed in lock step (one
    numpy step reads the next code of every scanline) when the marker (2, 2, width) opens the
    payload and occurs `height` times, each scanline fills its components with codes crossing
    none, ends where the next marker starts (the last at the end of the file) and takes at most
    width // 2 + 8 codes. Otherwise None, and the scanlines are read one by one."""
    budget, n = width // 2 + 8, len(data) - pos
    # a code takes at most one byte more than the pixels it fills
    if not 8 <= width <= 32767 or n > height * (4 + 4 * width + budget):
        return None
    marker = bytes((2, 2, width >> 8, width & 0xFF))
    starts, found = [], pos
    while len(starts) <= height and (found := data.find(marker, found)) >= 0:
        starts.append(found - pos)
        found += 1
    if len(starts) != height or starts[0] != 0:
        return None
    payload, starts = np.frombuffer(data, dtype=np.uint8, offset=pos), np.array(starts)
    cur, left, at, codes = starts + 4, np.full(height, 4 * width), [], []
    for _ in range(budget + 1):  # one step more sees every scanline stopped
        # a scanline reads code 0 from the step it is full or past the end of the file
        code = payload.take(cur, mode="clip") * ((left > 0) & (cur < n))
        if not code.any():
            break
        at.append(cur)
        codes.append(code)
        left -= _RLE_FILL[code]
        cur = cur + _RLE_TAKE[code]
    else:
        return None
    at, code = np.array(at), np.array(codes)  # (codes, height); 0 once a scanline stopped
    fill = _RLE_FILL[code]
    before = np.cumsum(fill, axis=0, dtype=np.int32) - fill  # pixels of the scanline before
    # a code 0, a scanline cut short or overfilled, one ending short of the next marker, or
    # a code crossing into the next component
    if (left.any() or (cur != np.append(starts[1:], n)).any()
            or (before % width + fill > width).any()):
        return None
    count = np.ones(n + 1, dtype=np.uint8)  # copies of each payload byte in the pixels
    count[at] = 0  # codes, and where a scanline stopped: a marker or the end
    count[at[code > 128] + 1] = code[code > 128] - 128
    count[starts[:, None] + np.arange(4)] = 0
    # each scanline's R, G, B and E planes in turn, a band of scanlines per np.repeat (which
    # widens the counts to intp)
    planes = np.empty(4 * width * height, dtype=np.uint8)
    rows, bounds = max(1, _HDR_BAND_PIXELS // width), np.append(starts, n)
    for y in range(0, height, rows):
        a, b = bounds[y], bounds[min(y + rows, height)]
        planes[4 * width * y:4 * width * (y + rows)] = np.repeat(payload[a:b], count[a:b])
    return planes.reshape(height, 4, width).transpose(0, 2, 1)


def _eof(data: bytes) -> ParseError:
    return ParseError("unexpected end of file", offset=len(data))


def _read_hdr_scanline(data: bytes, pos: int, row: np.ndarray) -> int:
    """Decode the scanline that starts at data[pos] into row, (width, 4) uint8; return its end."""
    width = len(row)
    if pos + 4 > len(data):
        raise _eof(data)
    # adaptive marker: 2, 2, then the width with a clear high bit (<= 32767);
    # a set high bit means this is an ordinary old-style pixel
    if not (8 <= width <= 32767 and data[pos] == 2 and data[pos + 1] == 2
            and data[pos + 2] & 0x80 == 0):
        return _read_flat_scanline(data, pos, row)
    if (data[pos + 2] << 8) | data[pos + 3] != width:
        raise ParseError("adaptive RLE scanline length mismatch", offset=pos)
    pos += 4
    end = len(data)
    planes = bytearray()  # the four channels of the scanline, one after another
    for _ in range(4):
        x = 0
        while x < width:
            if pos >= end:
                raise _eof(data)
            code = data[pos]
            pos += 1
            if code > 128:  # run
                code -= 128
                if x + code > width:
                    raise ParseError("RLE run overflows scanline", offset=pos)
                planes += data[pos:pos + 1] * code
                pos += 1
            elif code:  # literal
                if x + code > width:
                    raise ParseError("RLE literal overflows scanline", offset=pos)
                planes += data[pos:pos + code]
                pos += code
            else:
                raise ParseError("zero-length RLE code", offset=pos)
            x += code
    # a run value or literal cut short by the end of the file leaves pos past it
    if pos > end:
        raise _eof(data)
    row[:] = np.frombuffer(planes, dtype=np.uint8).reshape(4, width).T
    return pos


def _read_flat_scanline(data: bytes, pos: int, row: np.ndarray) -> int:
    """Old-style scanline: 4-byte pixels, where a (1, 1, 1, n) code repeats the
    previous pixel n << shift times; consecutive repeat codes add 8 to the shift."""
    width = len(row)
    x = shift = 0
    while True:
        # every code but a zero-count repeat fills at least one pixel, so the
        # scanline usually ends within the next width - x codes
        k = min(width - x, (len(data) - pos) // 4)
        if k == 0:
            raise _eof(data)
        codes = np.frombuffer(data, dtype=np.uint8, count=4 * k, offset=pos).reshape(k, 4)
        repeats = (codes[:, 0] == 1) & (codes[:, 1] == 1) & (codes[:, 2] == 1)
        i = 0  # first code of the window not yet decoded
        for j in np.flatnonzero(repeats).tolist() + [k]:
            n = min(j - i, width - x)  # plain pixels before code j
            if n:
                row[x:x + n] = codes[i:i + n]
                x, i, shift = x + n, i + n, 0
            if x >= width:
                return pos + 4 * i
            if j == k:
                break
            at = pos + 4 * j
            if x == 0:
                raise ParseError("repeat code with no previous pixel", offset=at)
            count = data[at + 3] << shift
            if x + count > width:
                raise ParseError("repeat code overflows scanline", offset=at)
            row[x:x + count] = row[x - 1]
            x += count
            shift += 8
            i = j + 1
        pos += 4 * k


# Pixels the writer encodes and run-length codes, and the lock-step reader copies, per
# numpy pass, in whole scanlines (at least one), so working memory does not grow with the image.
_HDR_BAND_PIXELS = 16384


def write_hdr(image: LinearImage, path):
    """Write a Radiance RGBE file; adaptive RLE for widths in [8, 32767], flat otherwise.

    The header is the magic, FORMAT and resolution lines alone. The whole file
    is coded before it is opened, so an error leaves no file.
    """
    h, w = image.height, image.width
    out = bytearray(f"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y {h} +X {w}\n".encode("ascii"))
    rows = max(1, _HDR_BAND_PIXELS // w)
    for y in range(0, h, rows):
        band = image.data[y:y + rows]
        rgbe = _rgbe_encode_rows(band.reshape(-1, 3).astype(np.float64))
        if 8 <= w <= 32767:
            # one row per component: R, G, B and E of each scanline in turn
            comp = np.ascontiguousarray(rgbe.reshape(len(band), w, 4).transpose(0, 2, 1))
            out += _rle_scanlines(comp.reshape(-1, w)).data
        else:
            out += rgbe.data
    with open(path, "wb") as fh:
        fh.write(out)


def _rle_scanlines(comp: np.ndarray) -> np.ndarray:
    """Adaptive RLE scanlines for (4 * rows, width) uint8 components, 4 rows per scanline.

    Each component is coded on its own, as classic Radiance does: a run of
    L >= 4 equal bytes takes L // 127 codes of 127, plus one of L % 127 when
    that is >= 4; a shorter remainder joins the literals after it, and
    literals go out in chunks of at most 128 bytes.
    """
    w = comp.shape[1]
    data = comp.ravel()
    n = data.size
    # new[i]: byte i starts a run of equal bytes, as every component start
    # does; the four places past the end count as starts too
    new = np.ones(n + 4, dtype=bool)
    np.not_equal(data[1:], data[:-1], out=new[1:n])
    new[:n:w] = True
    # runs of >= 4: the next three bytes continue the run
    held = ~(new[1:n + 1] | new[2:n + 2] | new[3:n + 3])
    opens = new[:n] & held
    run_at = np.flatnonzero(opens)
    run_end = np.flatnonzero(held & new[4:]) + 4
    rem = (run_end - run_at) % 127
    # segments: coded runs and the literal stretches between them, which
    # also break at each component start
    cut = np.zeros(n + 1, dtype=bool)
    cut[::w] = True
    cut[run_at] = True
    cut[run_end - rem * (rem < 4)] = True
    bounds = np.flatnonzero(cut)
    seg_at, seg_len = bounds[:-1], np.diff(bounds)
    seg_run = opens[seg_at]
    # tokens: codes of <= 127 run bytes, chunks of <= 128 literals
    step = np.where(seg_run, 127, 128)
    ntok = -(-seg_len // step)
    first = np.repeat(np.cumsum(ntok) - ntok, ntok)
    step = np.repeat(step, ntok)
    at = np.repeat(seg_at, ntok) + (np.arange(len(step)) - first) * step
    count = np.minimum(np.repeat(seg_at + seg_len, ntok) - at, step)
    is_run = np.repeat(seg_run, ntok)
    size = np.where(is_run, 2, count + 1)
    marker = at % (4 * w) == 0  # a scanline's first token follows its marker
    head = np.cumsum(size + 4 * marker) - size
    out = np.empty(head[-1] + size[-1], dtype=np.uint8)
    out[head[marker, None] - 4 + np.arange(4)] = (2, 2, w >> 8, w & 0xFF)
    out[head] = count + 128 * is_run
    # literals go one after another behind their count; every byte of a run
    # lands on the run's one value byte
    lit = ~is_run
    dest = np.repeat(head + 1 - at * lit, count) + np.arange(n) * np.repeat(lit, count)
    out[dest] = data
    return out


# ---------------------------------------------------------------------------
# Portable FloatMap


def _header_token(raw: bytes, pos: int, kind: str) -> tuple:
    """The next whitespace-separated token of a PFM or PPM header, from raw[pos].

    Returns (token, start, end). Only PPM headers take comments: there a '#'
    before a token runs to the end of its line.
    """
    while pos < len(raw):
        c = raw[pos:pos + 1]
        if c == b"#" and kind == "PPM":
            nl = raw.find(b"\n", pos)
            if nl < 0:
                raise ParseError("unterminated PPM comment", offset=pos)
            pos = nl + 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < len(raw) and not raw[pos:pos + 1].isspace():
        pos += 1
        if pos - start > 32:
            raise ParseError(f"{kind} header token too long", offset=start)
    if pos == start:
        raise ParseError(f"truncated {kind} header", offset=start)
    return raw[start:pos], start, pos


def read_pfm(path) -> LinearImage:
    """Read a color PFM file. The scale sign selects endianness; magnitude is ignored."""
    raw = _read_file(path)
    magic, at, pos = _header_token(raw, 0, "PFM")
    if magic == b"Pf":
        raise ParseError("grayscale PFM is not supported", offset=at)
    if magic != b"PF":
        raise ParseError("bad PFM magic", offset=at)
    wtok, at, pos = _header_token(raw, pos, "PFM")
    htok, _, pos = _header_token(raw, pos, "PFM")
    try:
        width, height = int(wtok), int(htok)
    except ValueError:
        raise ParseError("malformed PFM dimensions", offset=at) from None
    _check_dims(width, height, at)
    stok, sat, pos = _header_token(raw, pos, "PFM")
    try:
        scale = float(stok)
    except ValueError:
        raise ParseError("malformed PFM scale", offset=sat) from None
    if scale == 0 or not math.isfinite(scale):
        raise ParseError("PFM scale must be finite and non-zero", offset=sat)
    if pos >= len(raw) or not raw[pos:pos + 1].isspace():
        raise ParseError("expected whitespace after PFM scale", offset=pos)
    pos += 1  # exactly one whitespace byte separates header and samples
    need = width * height * 12
    if len(raw) - pos < need:
        raise ParseError("truncated PFM pixel data", offset=len(raw))
    if len(raw) - pos > need:
        raise ParseError("trailing bytes after PFM pixel data", offset=pos + need)
    dtype = "<f4" if scale < 0 else ">f4"
    data = np.frombuffer(raw, dtype=dtype, count=width * height * 3, offset=pos)
    data = data.reshape(height, width, 3)[::-1]  # rows are stored bottom-up
    if not _in_range(data, "radiance"):
        raise ParseError("PFM samples must be finite and non-negative", offset=pos)
    return LinearImage(np.ascontiguousarray(data, dtype=np.float32))


def write_pfm(image: LinearImage, path):
    """Write a color PFM file (little-endian, scale -1.0, bottom-up rows). Lossless."""
    with open(path, "wb") as fh:
        fh.write(f"PF\n{image.width} {image.height}\n-1.0\n".encode("ascii"))
        fh.write(np.ascontiguousarray(image.data[::-1], dtype="<f4"))


# The one suffix -> codec table for linear images; values are the codec
# functions themselves so wrapping them (e.g. for tracing) reaches every caller.
LINEAR_READERS = {".hdr": read_hdr, ".pfm": read_pfm}
LINEAR_WRITERS = {".hdr": write_hdr, ".pfm": write_pfm}


def _by_suffix(table: dict, path, kind: str):
    """The entry of `table` for the (case-insensitive) suffix of `path`."""
    suffix = Path(path).suffix.lower()
    if suffix not in table:
        raise FormatError(f"unsupported {kind} container {suffix!r} ({' or '.join(table)})")
    return table[suffix]


def read_linear(path) -> LinearImage:
    """Read a .hdr or .pfm file, chosen by its (case-insensitive) suffix."""
    return _by_suffix(LINEAR_READERS, path, "linear image")(path)


def write_linear(image: LinearImage, path):
    """Write a .hdr or .pfm file, chosen by its (case-insensitive) suffix."""
    _by_suffix(LINEAR_WRITERS, path, "linear image")(image, path)


def index_linear_dir(directory) -> tuple:
    """Map each stem to the one .hdr/.pfm file in `directory` that has it.

    Returns (files, errors): files in file-name order; a stem held by more
    than one file is left out, with one error naming all of its files.
    Raises InputError when the directory cannot be listed.
    """
    try:
        entries = sorted(Path(directory).iterdir())
    except OSError as exc:
        raise InputError(f"cannot list directory {directory}: {exc.strerror}") from None
    by_stem: dict = {}
    for path in entries:
        if path.suffix.lower() in LINEAR_READERS:
            by_stem.setdefault(path.stem, []).append(path)
    files = {stem: paths[0] for stem, paths in by_stem.items() if len(paths) == 1}
    errors = [f"{' and '.join(map(str, paths))} share the stem {stem!r}; none of them is used"
              for stem, paths in sorted(by_stem.items()) if len(paths) > 1]
    return files, errors


def ordered_map(fn, items, jobs: int = 1) -> list:
    """[fn(item) for item in items], run on up to `jobs` threads.

    Results keep the order of `items` for any `jobs` >= 1; with `jobs == 1`
    every call runs in the calling thread, and no thread is started.
    """
    jobs = _int_at_least(jobs, "jobs", 1)
    if jobs == 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # here: it pulls in logging

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# 8-bit rasters: PPM P6 and PNG


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def read_ldr8(path) -> Ldr8Image:
    """Read an 8-bit RGB raster, PNG or PPM, told apart by its magic bytes."""
    raw = _read_file(path)
    if raw[:8] == _PNG_SIG:
        return _png_decode(raw)
    if raw[:2] == b"P6":
        return _ppm_decode(raw)
    raise FormatError("unsupported 8-bit image container")


def write_ldr8(image: Ldr8Image, path):
    """Write a .png or .ppm file, chosen by its (case-insensitive) suffix."""
    payload = _by_suffix(LDR_ENCODERS, path, "8-bit image")(image)
    with open(path, "wb") as fh:
        fh.write(payload)


def _ppm_encode(image: Ldr8Image) -> bytes:
    return b"P6\n%d %d\n255\n" % (image.width, image.height) + image.data.tobytes()


def _ppm_decode(raw: bytes) -> Ldr8Image:
    fields = []
    pos = 2
    for _ in range(3):
        tok, at, pos = _header_token(raw, pos, "PPM")
        try:
            fields.append(int(tok))
        except ValueError:
            raise ParseError("malformed PPM header field", offset=at) from None
    width, height, maxval = fields
    _check_dims(width, height, at)
    if maxval != 255:
        raise FormatError(f"unsupported PPM maxval {maxval} (8-bit only)")
    if pos >= len(raw) or not raw[pos:pos + 1].isspace():
        raise ParseError("expected whitespace after PPM maxval", offset=pos)
    pos += 1  # exactly one whitespace byte separates header and samples
    need = width * height * 3
    if len(raw) - pos < need:
        raise ParseError("truncated PPM pixel data", offset=len(raw))
    data = np.frombuffer(raw, dtype=np.uint8, count=need, offset=pos)
    return Ldr8Image(data.reshape(height, width, 3).copy())


def _png_encode(image: Ldr8Image) -> bytes:
    """Minimal deterministic PNG writer: 8-bit RGB, one filter type for every row.

    Of None, Sub and Up (ISO 15948 section 9), the filter whose bytes have the
    least sum of min(b, 256 - b) is kept, the lower type on a tie (the
    minimum-sum-of-absolute-differences heuristic of section 12.8). A reader
    then undoes one filter type, not a mix. The scanlines are deflated with
    zlib's run-length strategy (Z_RLE), whose output is the same at every level.
    """
    h, w = image.height, image.width
    rows = image.data.reshape(h, w * 3)
    scan = np.empty((h, w * 3 + 1), dtype=np.uint8)
    line = scan[:, 1:]
    work = np.empty_like(line)

    def build(ftype: int) -> None:
        scan[:, 0] = ftype
        if ftype == 0:
            line[...] = rows
        elif ftype == 1:
            line[:, :3] = rows[:, :3]
            np.subtract(rows[:, 3:], rows[:, :-3], out=line[:, 3:])
        else:
            line[:1] = rows[:1]
            np.subtract(rows[1:], rows[:-1], out=line[1:])

    scores = []
    for ftype in range(3):
        build(ftype)
        np.negative(line, out=work)  # 256 - b, modulo 256
        np.minimum(line, work, out=work)
        scores.append(int(work.sum(dtype=np.int64)))
    del work  # one image-sized buffer less while deflate's output grows
    best = scores.index(min(scores))  # the first minimum: the lower type on a tie
    if best != 2:
        build(best)
    deflate = zlib.compressobj(9, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    idat = deflate.compress(scan) + deflate.flush()
    del scan, line  # and another while the file's bytes are joined

    def chunk(kind: bytes, body: bytes) -> bytes:
        crc = zlib.crc32(kind + body) & 0xFFFFFFFF
        return struct.pack(">I", len(body)) + kind + body + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return _PNG_SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat) + chunk(b"IEND", b"")


# The one suffix -> encoder table for 8-bit images, as LINEAR_WRITERS is for
# linear ones; its suffixes are also the choices of `ldr_format`.
LDR_ENCODERS = {".png": _png_encode, ".ppm": _ppm_encode}


def _png_decode(raw: bytes) -> Ldr8Image:
    pos = 8
    ihdr = None
    idat = bytearray()
    seen_end = False
    while pos < len(raw):
        if pos + 8 > len(raw):
            raise ParseError("truncated PNG chunk header", offset=pos)
        (length,) = struct.unpack(">I", raw[pos:pos + 4])
        kind = raw[pos + 4:pos + 8]
        end = pos + 8 + length
        if length > len(raw) or end + 4 > len(raw):
            raise ParseError("truncated PNG chunk", offset=pos)
        body = raw[pos + 8:end]
        (crc,) = struct.unpack(">I", raw[end:end + 4])
        if zlib.crc32(kind + body) & 0xFFFFFFFF != crc:
            raise ParseError(f"PNG chunk {kind!r} CRC mismatch", offset=end)
        if kind == b"IHDR":
            if ihdr is not None:
                raise ParseError("duplicate IHDR", offset=pos)
            if length != 13:
                raise ParseError("bad IHDR length", offset=pos)
            ihdr = struct.unpack(">IIBBBBB", body)
        elif kind == b"IDAT":
            if ihdr is None:
                raise ParseError("IDAT before IHDR", offset=pos)
            idat += body
        elif kind == b"IEND":
            seen_end = True
            break
        pos = end + 4
    if ihdr is None:
        raise ParseError("missing IHDR", offset=pos)
    if not seen_end:
        raise ParseError("missing IEND", offset=len(raw))
    width, height, depth, color, comp, filt, interlace = ihdr
    _check_dims(width, height, 8)
    if depth != 8 or color != 2:
        raise FormatError("only 8-bit RGB PNG is supported")
    if comp != 0 or filt != 0 or interlace != 0:
        raise FormatError("unsupported PNG compression/filter/interlace method")
    stride = width * 3
    size = height * (stride + 1)
    # inflate at most one byte past the declared size, however far the stream goes
    inflater = zlib.decompressobj()
    try:
        scan = inflater.decompress(idat, size + 1)
    except zlib.error as exc:
        raise ParseError(f"corrupt PNG pixel stream: {exc}") from None
    # excess output (and so any unconsumed_tail) or a stream cut short is rejected
    if len(scan) != size or not inflater.eof:
        raise ParseError("PNG pixel payload has wrong size")
    rows = np.frombuffer(scan, dtype=np.uint8).reshape(height, stride + 1)
    return Ldr8Image(_png_unfilter(rows[:, 0], rows[:, 1:].reshape(height, width, 3)))


def _png_unfilter(ftypes: np.ndarray, filtered: np.ndarray) -> np.ndarray:
    """Undo the per-row PNG filters (ISO 15948 section 9) of (h, w, 3) bytes.

    A file whose rows all take one type of None, Sub or Up, as every file the
    writer makes does, is one running sum in uint8, which wraps modulo 256 as
    the filters do: None rows are their bytes, Sub rows their running sum
    along the row (per channel), and Up rows the running sum down the columns.

    Any other file takes an anti-diagonal sweep. An Average or Paeth row reads
    a pixel's left (a), upper (b) and upper-left (c) neighbours, so the pixels
    of one anti-diagonal depend only on the two diagonals before it and are
    rebuilt together. In the image padded with a zero row and column and
    flattened to pixels (row stride w + 1), a diagonal is a slice with step w,
    and a, b, c are that slice shifted back by 1, w + 1 and w + 2.
    """
    bad = np.flatnonzero(ftypes > 4)
    if len(bad):
        raise ParseError(f"unknown PNG filter type {ftypes[bad[0]]}")
    height, width, _ = filtered.shape
    if ftypes[0] <= 2 and (ftypes == ftypes[0]).all():
        out = filtered.copy()
        if ftypes[0]:  # Sub sums along the rows (axis 1), Up down the columns (axis 0)
            np.cumsum(out, axis=2 - int(ftypes[0]), dtype=np.uint8, out=out)
        return out
    s = width + 1
    # holds the filtered bytes until their diagonal is rebuilt in place
    out = np.zeros(((height + 1) * s, 3), dtype=np.int16)
    out.reshape(height + 1, s, 3)[1:, 1:] = filtered
    used = np.unique(ftypes).tolist()
    kinds = ftypes[:, None].astype(np.intp)
    for k in range(height + width - 1):
        y0, y1 = max(0, k - width + 1), min(height - 1, k)
        start, stop = y0 * width + k + s + 1, y1 * width + k + s + 2
        a = out[start - 1:stop - 1:width]
        b = out[start - s:stop - s:width]
        preds = [0, a, b, 0, 0]  # None, Sub, Up, Average, Paeth
        if 3 in used:
            preds[3] = (a + b) >> 1
        if 4 in used:
            c = out[start - s - 1:stop - s - 1:width]
            bc, ac = b - c, a - c
            pa, pb, pc = np.abs(bc), np.abs(ac), np.abs(bc + ac)
            preds[4] = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
        pred = preds[used[0]] if len(used) == 1 else np.choose(kinds[y0:y1 + 1], preds)
        out[start:stop:width] = (out[start:stop:width] + pred) & 0xFF
    return out.reshape(height + 1, s, 3)[1:, 1:].astype(np.uint8)
