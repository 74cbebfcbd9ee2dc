"""Seeded fixture generator for the benchmark.

Every input file the benchmark hands to `itmbench` is written here, by the
benchmark's own encoders, so fixture bytes never depend on the program under
test. The same seed gives byte-identical files. Each file is recorded in a
manifest with its size, pixel count and container detail (RGBE scanline kind,
PNG filter type), so count metrics derived from it repeat exactly.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PNG_FILTERS = ("none", "sub", "up", "average", "paeth")
_PNG_SIG = b"\x89PNG\r\n\x1a\n"


# ---------------------------------------------------------------------------
# Image content


def smooth_hdr(rng: np.random.Generator, size: int) -> np.ndarray:
    """Low-frequency log-space gradients: long runs of equal RGBE bytes.

    One full period along each axis, so the seed moves the pattern but not its
    distribution of slopes, and decode/encode cost does not depend on the seed.
    """
    y, x = np.mgrid[0:size, 0:size] / size
    px, py = rng.uniform(0.0, 1.0, 2)
    field_ = 0.6 * np.sin(2 * np.pi * (x + px)) + 1.2 * np.cos(2 * np.pi * (y + py))
    tint = rng.permutation(np.array([1.0, 0.85, 0.7]))
    return (np.exp(field_)[..., None] * tint).astype(np.float32)


def texture_hdr(rng: np.random.Generator, size: int) -> np.ndarray:
    """Independent lognormal pixels: almost every RGBE byte is a literal."""
    return rng.lognormal(mean=0.0, sigma=1.0, size=(size, size, 3)).astype(np.float32)


def to_ldr8(hdr: np.ndarray, gamma: float = 1 / 2.2) -> np.ndarray:
    """Clip, gamma-encode and quantize (round half up) to 8 bits."""
    v = np.clip(hdr.astype(np.float64), 0.0, 1.0) ** gamma
    return np.floor(v * 255.0 + 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# Radiance RGBE


def rgbe_bytes(data: np.ndarray) -> np.ndarray:
    """(h, w, 3) float -> (h, w, 4) uint8 shared-exponent pixels, mantissas rounded."""
    flat = data.reshape(-1, 3).astype(np.float64)
    m = flat.max(axis=1)
    _, ex = np.frexp(m)
    e = ex.astype(np.int64) + 128
    mant = np.floor(flat * np.ldexp(1.0, 136 - e)[:, None] + 0.5)
    bump = mant.max(axis=1) >= 256
    e = e + bump
    mant = np.floor(flat * np.ldexp(1.0, 136 - e)[:, None] + 0.5)
    if (e > 255).any():
        raise ValueError("fixture value too large for RGBE")
    black = (m == 0.0) | (e < 1)
    out = np.zeros((flat.shape[0], 4), dtype=np.uint8)
    out[~black, :3] = mant[~black]
    out[~black, 3] = e[~black]
    return out.reshape(*data.shape[:2], 4)


def _rle_channel(row: np.ndarray) -> bytes:
    """Adaptive RLE of one scanline channel: runs of >= 4 equal bytes, literals <= 128."""
    n = row.size
    edges = np.flatnonzero(np.diff(row)) + 1
    starts = np.concatenate(([0], edges))
    ends = np.concatenate((edges, [n]))
    long_runs = np.flatnonzero(ends - starts >= 4)
    out = bytearray()
    data = row.tobytes()
    pos = 0

    def literals(upto):
        nonlocal pos
        while pos < upto:
            k = min(upto - pos, 128)
            out.append(k)
            out.extend(data[pos:pos + k])
            pos += k

    for i in long_runs:
        s, e = int(starts[i]), int(ends[i])
        literals(s)
        while e - pos >= 4:
            k = min(e - pos, 127)
            out.append(128 + k)
            out.append(data[pos])
            pos += k
    literals(n)
    return bytes(out)


def encode_hdr(data: np.ndarray, rle: bool) -> tuple:
    """Radiance file bytes plus the count of RLE-coded (vs flat) scanlines."""
    h, w = data.shape[:2]
    px = rgbe_bytes(data)
    out = bytearray(b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n")
    out += f"-Y {h} +X {w}\n".encode("ascii")
    if rle:
        if not 8 <= w <= 32767:
            raise ValueError("adaptive RLE needs a width in [8, 32767]")
        marker = bytes((2, 2, w >> 8, w & 0xFF))
        for y in range(h):
            out += marker
            for ch in range(4):
                out += _rle_channel(px[y, :, ch])
    else:
        out += px.tobytes()
    return bytes(out), (h if rle else 0)


# ---------------------------------------------------------------------------
# PNG with a chosen filter type (8-bit RGB)


def png_filter_rows(img: np.ndarray, kind: str) -> np.ndarray:
    """Filtered scanlines (h, 3w) for one PNG filter type applied to every row."""
    h, w, _ = img.shape
    raw = img.reshape(h, w * 3).astype(np.int16)
    left = np.zeros_like(raw)
    left[:, 3:] = raw[:, :-3]
    up = np.zeros_like(raw)
    up[1:] = raw[:-1]
    upleft = np.zeros_like(raw)
    upleft[1:, 3:] = raw[:-1, :-3]
    if kind == "none":
        pred = np.zeros_like(raw)
    elif kind == "sub":
        pred = left
    elif kind == "up":
        pred = up
    elif kind == "average":
        pred = (left + up) // 2
    elif kind == "paeth":
        p = left + up - upleft
        pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
        pred = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
    else:
        raise ValueError(f"unknown PNG filter {kind!r}")
    return ((raw - pred) & 0xFF).astype(np.uint8)


def encode_png(img: np.ndarray, kind: str, level: int = 6) -> bytes:
    h, w, _ = img.shape
    rows = png_filter_rows(img, kind)
    ftype = PNG_FILTERS.index(kind)
    scan = np.empty((h, w * 3 + 1), dtype=np.uint8)
    scan[:, 0] = ftype
    scan[:, 1:] = rows

    def chunk(tag: bytes, body: bytes) -> bytes:
        crc = zlib.crc32(tag + body) & 0xFFFFFFFF
        return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    idat = zlib.compress(scan.tobytes(), level)
    return _PNG_SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat) + chunk(b"IEND", b"")


# ---------------------------------------------------------------------------
# PFM


def encode_pfm(data: np.ndarray) -> bytes:
    h, w = data.shape[:2]
    header = f"PF\n{w} {h}\n-1.0\n".encode("ascii")
    return header + data[::-1].astype("<f4").tobytes()


# ---------------------------------------------------------------------------
# Manifest


@dataclass
class FixtureSet:
    """Files written under `root`, keyed by path, with what the metrics need."""

    root: Path
    files: dict = field(default_factory=dict)

    def add(self, rel: str, payload: bytes, pixels: int, **detail) -> Path:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        self.files[str(path)] = {"bytes": len(payload), "pixels": pixels, **detail}
        return path

    def hdr(self, rel: str, data: np.ndarray, rle: bool) -> Path:
        payload, rle_lines = encode_hdr(data, rle)
        h = data.shape[0]
        return self.add(rel, payload, data.shape[0] * data.shape[1],
                        rle_scanlines=rle_lines, flat_scanlines=h - rle_lines)

    def png(self, rel: str, img: np.ndarray, kind: str) -> Path:
        return self.add(rel, encode_png(img, kind), img.shape[0] * img.shape[1], filter=kind)

    def pfm(self, rel: str, data: np.ndarray) -> Path:
        return self.add(rel, encode_pfm(data), data.shape[0] * data.shape[1])

    def info(self, path) -> dict:
        return self.files.get(str(path), {})
