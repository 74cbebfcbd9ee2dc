"""Image containers and file formats used by the pipeline.

Readers and writers for Radiance RGBE (.hdr), Portable FloatMap (.pfm) and
8-bit rasters (PPM P6, PNG). JPEG is deliberately only a codec *interface*:
bit-exactness of JPEG is codec-defined, so decode/encode are delegated to a
pluggable object and this module defines just the decoded-raster contract.

All parsers are defensive: malformed bytes raise ParseError/FormatError,
never crash, and never allocate storage beyond `MAX_PIXELS`.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Protocol

import numpy as np

from .errors import FormatError, ParseError, ShapeError

# Upper bound on width*height accepted by any parser; keeps a hostile header
# from provoking a giant allocation before the payload is validated.
MAX_PIXELS = 1 << 24


@dataclass
class LinearImage:
    """Floating-point RGB raster in relative linear radiance.

    data is (height, width, 3) float32; every component finite and >= 0.
    `header` carries opaque Radiance header attributes (EXPOSURE, comments,
    ...) preserved on read and ignored by all math.
    """

    data: np.ndarray
    header: tuple = ()

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ShapeError(f"expected (height, width, 3) array, got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError("image dimensions must be positive")
        arr = arr.astype(np.float32, copy=False)
        if not np.isfinite(arr).all():
            raise FormatError("linear image components must be finite")
        if (arr < 0).any():
            raise FormatError("linear image components must be non-negative")
        self.data = arr
        self.header = tuple(self.header)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass
class Ldr8Image:
    """8-bit nonlinear (CRF-encoded) RGB raster; data is (height, width, 3) uint8."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ShapeError(f"expected (height, width, 3) array, got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError("image dimensions must be positive")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise FormatError("8-bit image data must be integer")
            if arr.min() < 0 or arr.max() > 255:
                raise FormatError("8-bit image values must lie in [0, 255]")
            arr = arr.astype(np.uint8)
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


class RgbePixel(NamedTuple):
    """Shared-exponent pixel: three 8-bit mantissas plus one biased exponent."""

    r: int
    g: int
    b: int
    exponent: int


# ---------------------------------------------------------------------------
# RGBE pixel coding


def rgbe_encode(rgb) -> RgbePixel:
    """Encode a linear RGB triple into a shared-exponent RGBE pixel.

    The exponent is the smallest e such that max(rgb) < 2**(e-128); mantissas
    are rounded to nearest. All-zero input maps to canonical black.
    """
    r, g, b = (float(v) for v in rgb)
    row = np.array([[r, g, b]])
    if not np.isfinite(row).all():
        raise FormatError("RGBE components must be finite")
    if (row < 0).any():
        raise FormatError("RGBE components must be non-negative")
    return RgbePixel(*(int(v) for v in _rgbe_encode_rows(row)[0]))


def rgbe_decode(pixel) -> tuple:
    """Decode an RGBE pixel; component = mantissa / 256 * 2**(exponent - 128)."""
    r, g, b, e = (int(v) for v in pixel)
    if not all(0 <= v <= 255 for v in (r, g, b, e)):
        raise FormatError("RGBE pixel components must lie in 0..255")
    row = np.array([[r, g, b, e]], dtype=np.uint8)
    return tuple(float(v) for v in _rgbe_decode_rows(row)[0])


def _rgbe_encode_rows(data: np.ndarray) -> np.ndarray:
    """Vectorized encoder: (n, 3) float -> (n, 4) uint8."""
    m = data.max(axis=1)
    _, ex = np.frexp(m)
    # exponents below 0 stay below 1 after the bump, so they encode black; the
    # clamp keeps 2**(136 - e) finite for float64 subnormals
    e = np.maximum(ex.astype(np.int64) + 128, 0)
    if (e > 255).any():
        raise FormatError("component too large for RGBE encoding")
    scale = np.ldexp(1.0, (8 - (e - 128)).astype(np.int64))
    mant = np.floor(data * scale[:, None] + 0.5)
    bump = mant.max(axis=1) >= 256
    if bump.any():
        e = np.where(bump, e + 1, e)
        if (e > 255).any():
            raise FormatError("component too large for RGBE encoding")
        scale = np.ldexp(1.0, (8 - (e - 128)).astype(np.int64))
        mant = np.floor(data * scale[:, None] + 0.5)
    black = (m == 0.0) | (e < 1)
    out = np.empty((data.shape[0], 4), dtype=np.uint8)
    out[:, :3] = np.where(black[:, None], 0, mant).astype(np.uint8)
    out[:, 3] = np.where(black, 0, e).astype(np.uint8)
    return out


def _rgbe_decode_rows(rgbe: np.ndarray) -> np.ndarray:
    """Vectorized decoder: (n, 4) uint8 -> (n, 3) float32."""
    e = rgbe[:, 3].astype(np.int64)
    scale = np.ldexp(np.float32(1.0), (e - 136).astype(np.int64)).astype(np.float32)
    scale[e == 0] = 0.0
    return rgbe[:, :3].astype(np.float32) * scale[:, None]


# ---------------------------------------------------------------------------
# Radiance .hdr container

_HDR_MAGICS = (b"#?RADIANCE", b"#?RGBE")


class _ByteReader:
    """Byte cursor that raises ParseError with the current offset on EOF."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def line(self, limit=4096) -> bytes:
        end = self.data.find(b"\n", self.pos, self.pos + limit)
        if end < 0:
            raise ParseError("unterminated header line", offset=self.pos)
        out = self.data[self.pos:end]
        self.pos = end + 1
        return out

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ParseError("unexpected end of file", offset=len(self.data))
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def byte(self) -> int:
        if self.pos >= len(self.data):
            raise ParseError("unexpected end of file", offset=self.pos)
        v = self.data[self.pos]
        self.pos += 1
        return v


def _check_dims(width: int, height: int, offset: int):
    if width < 1 or height < 1:
        raise ParseError("image dimensions must be positive", offset=offset)
    if width * height > MAX_PIXELS:
        raise ParseError(
            f"image of {width}x{height} pixels exceeds parser limit", offset=offset
        )


def read_hdr(path) -> LinearImage:
    """Read a Radiance RGBE file (flat, old-style RLE, or adaptive RLE scanlines)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    rd = _ByteReader(raw)
    magic = rd.line()
    if magic not in _HDR_MAGICS:
        raise ParseError("not a Radiance RGBE file", offset=0)
    header = []
    while True:
        at = rd.pos
        line = rd.line()
        if line == b"":
            break
        try:
            text = line.decode("ascii")
        except UnicodeDecodeError:
            raise ParseError("non-ASCII header line", offset=at) from None
        if text.startswith("FORMAT="):
            if text != "FORMAT=32-bit_rle_rgbe":
                raise ParseError(f"unsupported pixel format {text!r}", offset=at)
        else:
            header.append(text)
    at = rd.pos
    parts = rd.line().split()
    if len(parts) != 4 or parts[0] != b"-Y" or parts[2] != b"+X":
        raise ParseError("unsupported or malformed resolution string", offset=at)
    try:
        height, width = int(parts[1]), int(parts[3])
    except ValueError:
        raise ParseError("malformed resolution string", offset=at) from None
    _check_dims(width, height, at)

    rows = np.empty((height, width, 4), dtype=np.uint8)
    for y in range(height):
        _read_hdr_scanline(rd, rows[y], width)
    data = _rgbe_decode_rows(rows.reshape(-1, 4)).reshape(height, width, 3)
    return LinearImage(data, header=tuple(header))


def _read_hdr_scanline(rd: _ByteReader, row: np.ndarray, width: int):
    at = rd.pos
    head = rd.take(4)
    # adaptive marker: 2, 2, then the width with a clear high bit (<= 32767);
    # a set high bit means this is an ordinary old-style pixel
    if (8 <= width <= 32767 and head[0] == 2 and head[1] == 2
            and head[2] & 0x80 == 0):
        if (head[2] << 8) | head[3] != width:
            raise ParseError("adaptive RLE scanline length mismatch", offset=at)
        for ch in range(4):
            x = 0
            while x < width:
                code = rd.byte()
                if code > 128:  # run
                    count = code - 128
                    if x + count > width:
                        raise ParseError("RLE run overflows scanline", offset=rd.pos)
                    row[x:x + count, ch] = rd.byte()
                elif code > 0:  # literal
                    if x + code > width:
                        raise ParseError("RLE literal overflows scanline", offset=rd.pos)
                    chunk = rd.take(code)
                    row[x:x + code, ch] = np.frombuffer(chunk, dtype=np.uint8)
                    count = code
                else:
                    raise ParseError("zero-length RLE code", offset=rd.pos)
                x += count
        return
    # Old-style: flat 4-byte pixels with (1,1,1,n) repeat codes.
    x = 0
    pixel = head
    shift = 0
    while True:
        if pixel[0] == 1 and pixel[1] == 1 and pixel[2] == 1:
            if x == 0:
                raise ParseError("repeat code with no previous pixel", offset=at)
            count = pixel[3] << shift
            if x + count > width:
                raise ParseError("repeat code overflows scanline", offset=at)
            row[x:x + count] = row[x - 1]
            x += count
            shift += 8
        else:
            row[x] = np.frombuffer(pixel, dtype=np.uint8)
            x += 1
            shift = 0
        if x >= width:
            return
        at = rd.pos
        pixel = rd.take(4)


def write_hdr(image: LinearImage, path):
    """Write a Radiance RGBE file; adaptive RLE for widths in [8, 32767], flat otherwise."""
    h, w = image.height, image.width
    rgbe = _rgbe_encode_rows(
        image.data.reshape(-1, 3).astype(np.float64)
    ).reshape(h, w, 4)
    out = bytearray()
    out += b"#?RADIANCE\n"
    for line in image.header:
        if not line.startswith("FORMAT="):
            out += line.encode("ascii") + b"\n"
    out += b"FORMAT=32-bit_rle_rgbe\n\n"
    out += f"-Y {h} +X {w}\n".encode("ascii")
    adaptive = 8 <= w <= 32767
    for y in range(h):
        if adaptive:
            out += bytes((2, 2, (w >> 8) & 0xFF, w & 0xFF))
            for ch in range(4):
                out += _rle_component(rgbe[y, :, ch].tobytes())
        else:
            out += rgbe[y].tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def _rle_component(data: bytes) -> bytes:
    """Classic Radiance run-length coding: runs of >= 4, literals up to 128 bytes."""
    out = bytearray()
    n = len(data)
    pos = 0
    while pos < n:
        run_start = pos
        run_len = 0
        while run_start < n:  # find next run of at least 4 equal bytes
            run_len = 1
            while (run_len < 127 and run_start + run_len < n
                   and data[run_start + run_len] == data[run_start]):
                run_len += 1
            if run_len >= 4:
                break
            run_start += run_len
        if run_start + run_len >= n and run_len < 4:
            run_start = n
        lit = run_start - pos
        while lit > 0:  # literals before the run
            chunk = min(lit, 128)
            out.append(chunk)
            out += data[pos:pos + chunk]
            pos += chunk
            lit -= chunk
        if pos < n and run_len >= 4:
            out.append(128 + run_len)
            out.append(data[pos])
            pos += run_len
    return bytes(out)


# ---------------------------------------------------------------------------
# Portable FloatMap


def read_pfm(path) -> LinearImage:
    """Read a color PFM file. The scale sign selects endianness; magnitude is ignored."""
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = 0

    def token():
        nonlocal pos
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
            if pos - start > 32:
                raise ParseError("PFM header token too long", offset=start)
        if pos == start:
            raise ParseError("truncated PFM header", offset=start)
        return raw[start:pos], start

    magic, at = token()
    if magic == b"Pf":
        raise ParseError("grayscale PFM is not supported", offset=at)
    if magic != b"PF":
        raise ParseError("bad PFM magic", offset=at)
    wtok, at = token()
    htok, hat = token()
    try:
        width, height = int(wtok), int(htok)
    except ValueError:
        raise ParseError("malformed PFM dimensions", offset=at) from None
    _check_dims(width, height, at)
    stok, sat = token()
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
    if not np.isfinite(data).all() or (data < 0).any():
        raise ParseError("PFM samples must be finite and non-negative", offset=pos)
    return LinearImage(np.ascontiguousarray(data, dtype=np.float32))


def write_pfm(image: LinearImage, path):
    """Write a color PFM file (little-endian, scale -1.0, bottom-up rows). Lossless."""
    header = f"PF\n{image.width} {image.height}\n-1.0\n".encode("ascii")
    body = image.data[::-1].astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header + body)


# The one suffix -> codec table for linear images; values are the codec
# functions themselves so wrapping them (e.g. for tracing) reaches every caller.
LINEAR_READERS = {".hdr": read_hdr, ".pfm": read_pfm}
LINEAR_WRITERS = {".hdr": write_hdr, ".pfm": write_pfm}


def _linear_codec(table: dict, path):
    suffix = Path(path).suffix.lower()
    if suffix not in table:
        raise FormatError(f"unsupported linear image container {suffix!r} (.hdr or .pfm)")
    return table[suffix]


def read_linear(path) -> LinearImage:
    """Read a .hdr or .pfm file, chosen by its (case-insensitive) suffix."""
    return _linear_codec(LINEAR_READERS, path)(path)


def write_linear(image: LinearImage, path):
    """Write a .hdr or .pfm file, chosen by its (case-insensitive) suffix."""
    _linear_codec(LINEAR_WRITERS, path)(image, path)


def index_linear_dir(directory) -> tuple:
    """Map each stem to the one .hdr/.pfm file in `directory` that has it.

    Returns (files, errors): files in file-name order; a stem held by more
    than one file is left out, with one error naming all of its files.
    """
    by_stem: dict = {}
    for path in sorted(Path(directory).iterdir()):
        if path.suffix.lower() in LINEAR_READERS:
            by_stem.setdefault(path.stem, []).append(path)
    files = {stem: paths[0] for stem, paths in by_stem.items() if len(paths) == 1}
    errors = [f"{' and '.join(map(str, paths))} share the stem {stem!r}; none of them is used"
              for stem, paths in sorted(by_stem.items()) if len(paths) > 1]
    return files, errors


# ---------------------------------------------------------------------------
# 8-bit rasters: PPM P6, PNG, and the JPEG codec boundary


class LdrCodec(Protocol):
    """Decoder/encoder boundary for containers this module does not implement (JPEG)."""

    def decode(self, data: bytes) -> Ldr8Image: ...

    def encode(self, image: Ldr8Image, quality: int) -> bytes: ...


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def read_ldr8(path, codec: LdrCodec | None = None) -> Ldr8Image:
    """Read an 8-bit RGB raster: PNG and PPM natively, JPEG through `codec`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] == _PNG_SIG:
        return _png_decode(raw)
    if raw[:2] == b"P6":
        return _ppm_decode(raw)
    if raw[:3] == b"\xff\xd8\xff":
        if codec is None:
            raise FormatError("JPEG input requires a codec (none configured)")
        return codec.decode(raw)
    raise FormatError("unsupported 8-bit image container")


def write_ldr8(image: Ldr8Image, path, codec: LdrCodec | None = None, quality: int = 90):
    """Write an 8-bit RGB raster; container chosen by file extension."""
    suffix = str(path).lower().rsplit(".", 1)[-1]
    if suffix == "png":
        payload = _png_encode(image)
    elif suffix in ("ppm", "pnm"):
        payload = b"P6\n%d %d\n255\n" % (image.width, image.height) + image.data.tobytes()
    elif suffix in ("jpg", "jpeg"):
        if codec is None:
            raise FormatError("JPEG output requires a codec (none configured)")
        payload = codec.encode(image, quality)
    else:
        raise FormatError(f"unsupported 8-bit output container {suffix!r}")
    with open(path, "wb") as fh:
        fh.write(payload)


def _ppm_decode(raw: bytes) -> Ldr8Image:
    pos = 2

    def token():
        nonlocal pos
        while pos < len(raw):
            c = raw[pos:pos + 1]
            if c == b"#":  # comment runs to end of line
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
                raise ParseError("PPM header token too long", offset=start)
        if pos == start:
            raise ParseError("truncated PPM header", offset=start)
        return raw[start:pos], start

    fields = []
    for _ in range(3):
        tok, at = token()
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


def _png_encode(image: Ldr8Image, level: int = 9) -> bytes:
    """Minimal deterministic PNG writer: 8-bit RGB, filter 0, fixed zlib level."""
    h, w = image.height, image.width
    rows = image.data.reshape(h, w * 3)
    scan = b"".join(b"\x00" + rows[y].tobytes() for y in range(h))
    idat = zlib.compress(scan, level)

    def chunk(kind: bytes, body: bytes) -> bytes:
        crc = zlib.crc32(kind + body) & 0xFFFFFFFF
        return struct.pack(">I", len(body)) + kind + body + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return _PNG_SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat) + chunk(b"IEND", b"")


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
    try:
        scan = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise ParseError(f"corrupt PNG pixel stream: {exc}") from None
    stride = width * 3
    if len(scan) != height * (stride + 1):
        raise ParseError("PNG pixel payload has wrong size")
    out = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int64)
    for y in range(height):
        line = scan[y * (stride + 1):(y + 1) * (stride + 1)]
        row = _png_unfilter(line[0], np.frombuffer(line[1:], dtype=np.uint8), prev)
        out[y] = row
        prev = row.astype(np.int64)
    return Ldr8Image(out.reshape(height, width, 3))


def _png_unfilter(ftype: int, raw: np.ndarray, prev: np.ndarray) -> np.ndarray:
    cur = raw.astype(np.int64)
    n = len(cur)
    if ftype == 0:
        pass
    elif ftype == 1:  # Sub: per-channel prefix sum
        for c in range(3):
            cur[c::3] = np.cumsum(cur[c::3]) & 0xFF
    elif ftype == 2:  # Up
        cur = (cur + prev) & 0xFF
    elif ftype == 3:  # Average
        for i in range(n):
            left = cur[i - 3] if i >= 3 else 0
            cur[i] = (cur[i] + (left + prev[i]) // 2) & 0xFF
    elif ftype == 4:  # Paeth
        for i in range(n):
            a = cur[i - 3] if i >= 3 else 0
            b = prev[i]
            c = prev[i - 3] if i >= 3 else 0
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            if pa <= pb and pa <= pc:
                pred = a
            elif pb <= pc:
                pred = b
            else:
                pred = c
            cur[i] = (cur[i] + pred) & 0xFF
    else:
        raise ParseError(f"unknown PNG filter type {ftype}")
    return cur.astype(np.uint8)
