"""Perceptually uniform encoding and the benchmark scoring metrics.

The encoding maps absolute luminance (cd/m^2) through a rational-power fit
into units where equal steps are roughly equally visible; PSNR and SSIM
computed in that space are the benchmark's quality scores. Coefficients are
configuration, loaded from a committed JSON file.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .color import (DisplayMapping, _float64, _luma, _number, _numbers, _pair, _radiance,
                    to_display_luminance)
from .errors import ConfigError, DomainError, ItmError, ShapeError
from .image_io import LINEAR_READERS, index_linear_dir, ordered_map, read_linear

SCHEMA_VERSION = 2

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


@dataclass(frozen=True)
class PuEncoding:
    """Rational-power perceptual encoding V = p7*(((p1+p2*Y^p3)/(1+p4*Y^p3))^p5 - p6)."""

    p: tuple
    y_min: float = 0.005
    y_max: float = 10000.0
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "p", _numbers(self.p, "p", "finite"))
        if len(self.p) != 7:
            raise DomainError("PU encoding needs exactly 7 coefficients")
        for name in ("y_min", "y_max"):
            object.__setattr__(self, name, _number(getattr(self, name), name, "positive"))
        if not self.y_min < self.y_max:
            raise DomainError("require 0 < y_min < y_max")
        # each stage is monotone in Y while the denominator (if p5 < 0, the ratio too) keeps
        # its sign, so its values at y_min and y_max bound it
        lo, hi = (_pu_stages(y, self.p) for y in (self.y_min, self.y_max))
        if (lo is None or hi is None or (lo[0] > 0) != (hi[0] > 0)
                or (self.p[4] < 0 and (lo[1] > 0) != (hi[1] > 0))):
            raise DomainError("p must keep every stage of the PU formula within float64 "
                              "on [y_min, y_max]")
        grid = np.logspace(np.log10(self.y_min), np.log10(self.y_max), 256)
        vals = _pu_forward(grid, self.p)
        if not (np.diff(vals) > 0).all():
            raise DomainError("PU encoding must be strictly increasing on its range")
        if abs(vals[0]) > 1e-3:
            raise DomainError("PU encoding must be anchored near 0 at y_min")

    @staticmethod
    def from_json(path) -> "PuEncoding":
        """Load a coefficient file; any unusable file raises ConfigError naming it."""
        try:
            doc = json.loads(Path(path).read_text())
            return PuEncoding(doc["p"], doc["y_min"], doc["y_max"], str(doc.get("name", "custom")))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ConfigError(f"cannot load PU coefficients {path}: {detail}") from None

    @staticmethod
    @functools.cache
    def default() -> "PuEncoding":
        """The packaged encoding, loaded once."""
        return PuEncoding.from_json(resources.files("itmbench.data") / "pu_banding_glare.json")


def _pu_forward(y, p: tuple, out=None):
    """The PU formula in two work buffers, z (or `out`) and den, in the formula's operand order."""
    z = np.power(y, p[2], out=out)
    den = 1.0 + p[3] * z
    z *= p[1]
    z += p[0]
    z /= den
    z **= p[4]
    z -= p[5]
    z *= p[6]
    return z


def _pu_stages(y: float, p: tuple):
    """`_pu_forward`'s denominator, ratio, power and value at one luminance in Python floats;
    None where numpy would warn: one of them leaves float64 (as an overflow in any other stage
    makes one of them do) or is a fractional power of a negative ratio."""
    try:
        z = y ** p[2]
        den = 1.0 + p[3] * z
        ratio = (p[0] + p[1] * z) / den
        stages = (den, ratio, ratio ** p[4], (ratio ** p[4] - p[5]) * p[6])
    except (OverflowError, ZeroDivisionError):
        return None
    return stages if all(isinstance(s, float) and math.isfinite(s) for s in stages) else None


def _encode_owned(lum, enc: PuEncoding):
    """PU values of finite luminance `lum`, a float64 array the caller owns: it is overwritten."""
    out = lum if np.ndim(lum) else None  # numpy's scalar power differs from the array loop's
    return _pu_forward(np.clip(lum, enc.y_min, enc.y_max, out=out), enc.p, out=out)


def pu_encode(y, encoding: PuEncoding | None = None):
    """Encode absolute luminance (cd/m^2) to PU units; input clamped to the fit range."""
    lum = np.array(_radiance(y, "luminance", "finite"), dtype=np.float64)
    out = _encode_owned(lum, encoding or PuEncoding.default())
    return out if out.ndim else float(out)


def pu_decode(v, encoding: PuEncoding | None = None):
    """Inverse of pu_encode on the encoding's output range (used by the SDE demo)."""
    enc = encoding or PuEncoding.default()
    p = enc.p
    arr = _float64(v, "PU values", "finite")
    lo = _pu_forward(np.asarray(enc.y_min), p)
    hi = _pu_forward(np.asarray(enc.y_max), p)
    arr = np.clip(arr, lo, hi)
    ratio = (arr / p[6] + p[5]) ** (1.0 / p[4])
    z = (ratio - p[0]) / (p[1] - ratio * p[3])
    y = np.maximum(z, 0.0) ** (1.0 / p[2])
    out = np.clip(y, enc.y_min, enc.y_max)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# SSIM / PSNR kernels


def _gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    g = np.exp(-(x**2) / (2.0 * sigma**2))
    return g / g.sum()


def _windowed_mean(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    # separable valid-mode correlation with the normalized 1-D window
    from numpy.lib.stride_tricks import sliding_window_view

    out = sliding_window_view(a, len(w), axis=0) @ w
    return sliding_window_view(out, len(w), axis=1) @ w


def ssim_mean(x: np.ndarray, y: np.ndarray, data_range: float) -> float:
    """Mean local SSIM over two 2-D fields (11x11 Gaussian window, sigma 1.5).

    Both fields must be finite and within float32's top in magnitude, and
    `data_range` in [2^-126, float32's top], so the constants (K data_range)^2
    are normal floats and no statistic reaches 2^600: nothing leaves float64.
    Each variance is E[x^2] - E[x]^2, rounded by about 2^-53 x^2, so |field|
    must also be at most 2^16 data_range: the rounding stays near 2^-21
    data_range^2, under 1e-3 of (K2 data_range)^2.
    """
    x, y = _float64(x, "SSIM inputs", "signed"), _float64(y, "SSIM inputs", "signed")
    if x.shape != y.shape:
        raise ShapeError(f"SSIM inputs differ in shape: {x.shape} vs {y.shape}")
    if x.ndim != 2 or min(x.shape) < SSIM_WINDOW:
        raise ShapeError(f"SSIM needs a 2-D image at least {SSIM_WINDOW} px per side")
    data_range = _number(data_range, "SSIM data_range", "data range")
    bound = 2.0**16 * data_range
    if not all(-bound <= float(f.min()) and float(f.max()) <= bound for f in (x, y)):
        raise DomainError("SSIM inputs must be at most 2**16 * data_range in magnitude")
    w = _gaussian_window()
    mx = _windowed_mean(x, w)
    my = _windowed_mean(y, w)
    # x and y may be the caller's: the products share one scratch, the rest is in place
    prod = x * x
    vx = _windowed_mean(prod, w) - mx * mx
    vy = _windowed_mean(np.multiply(y, y, out=prod), w) - my * my
    cov = _windowed_mean(np.multiply(x, y, out=prod), w) - mx * my
    del prod
    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2
    # ((2 mx my + c1)(2 cov + c2)) / ((mx mx + my my + c1)(vx + vy + c2))
    num = 2 * mx * my + c1
    num *= 2 * cov + c2
    mx *= mx
    mx += my * my
    mx += c1
    mx *= vx + vy + c2
    num /= mx
    return float(num.mean())


def pu_fields(pred, gt, encoding: PuEncoding | None = None,
              mapping: DisplayMapping = DisplayMapping(), luma: bool = False) -> tuple:
    """PU-encoded display luminance of two same-shape images, plus the PU peak.

    Returns (pu_pred, pu_gt, peak): fields per RGB channel, or of Rec.709 luma
    when `luma` is set; peak is the PU value of the display peak.

    A float32 image whose every value has zero low 16 bits, as every value an
    RGBE file decodes to has (an 8-bit mantissa), takes its channel fields from
    a table of the 32,640 such finite values, each encoded as the image's
    values would be: the same bits, without a power per pixel.
    """
    enc = encoding or PuEncoding.default()
    table = None  # built by the first image that takes it

    def encode(data):
        # the display field is a new array, which the PU encode overwrites; the luma
        # is display-mapped and weighted one channel at a time, with no RGB display
        nonlocal table
        if luma:
            return _encode_owned(_luma(data, mapping), enc)
        if data.dtype == np.float32:
            bits, half = data.view(np.uint32), np.empty(data.shape, np.uint16)
            if not np.bitwise_and(bits, 0xFFFF, out=half, casting="unsafe").any():
                if table is None:
                    keys = (np.arange(0x7F80, dtype=np.uint32) << 16).view(np.float32)
                    table = _encode_owned(to_display_luminance(keys, mapping), enc)
                np.right_shift(bits, 16, out=half, casting="unsafe")
                half &= 0x7FFF  # -0.0 maps as +0.0 does
                return table[half]
        return _encode_owned(to_display_luminance(data, mapping), enc)

    a, b = _pair(pred, gt, "display mapping input")
    return encode(a), encode(b), pu_encode(mapping.peak_luminance, encoding)


def pu_psnr(pred, gt, encoding: PuEncoding | None = None,
            mapping: DisplayMapping = DisplayMapping()) -> float:
    """PSNR in PU space; peak is the PU value of the display peak. inf when identical."""
    pa, pb, peak = pu_fields(pred, gt, encoding, mapping)
    pa -= pb
    mse = float(np.mean(np.square(pa, out=pa)))
    if mse == 0.0:
        return float("inf")
    return 20.0 * np.log10(peak / np.sqrt(mse))


def pu_ssim(pred, gt, encoding: PuEncoding | None = None,
            mapping: DisplayMapping = DisplayMapping()) -> float:
    """Mean SSIM of PU-encoded display luminance (single channel)."""
    # the fields lie within the PU values of y_min and y_max, the data range is the peak's
    enc = encoding or PuEncoding.default()
    ends = np.abs(_pu_forward(np.array([enc.y_min, enc.y_max]), enc.p))
    if not 2.0**16 * pu_encode(mapping.peak_luminance, enc) >= float(ends.max()):
        raise DomainError("peak_luminance must PU-encode to at least 2**-16 of the "
                          "encoding's largest PU magnitude for SSIM")
    la, lb, peak = pu_fields(pred, gt, enc, mapping, luma=True)
    return ssim_mean(la, lb, data_range=peak)


def rmse_linear(pred, gt) -> float:
    """Root mean square error in the linear HDR domain."""
    a, b = _pair(pred, gt, "linear RMSE inputs")
    diff = np.subtract(a, b, out=np.empty(a.shape), dtype=np.float64)
    diff **= 2
    return float(np.sqrt(np.mean(diff)))


# ---------------------------------------------------------------------------
# Dataset scoring and report


@dataclass
class PerImageScore:
    image: str
    pu_psnr: float
    pu_ssim: float
    rmse_linear: float


@dataclass
class MetricReport:
    """Per-image scores of a set, its errors, and `expected`, the number of ground
    truths in the set (the number of rows when not given)."""

    per_image: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    expected: int | None = None

    def __post_init__(self):
        if self.expected is None:
            self.expected = len(self.per_image)

    @property
    def aggregate(self) -> dict | None:
        """Mean scores of a complete set, else None: a set scores only when every
        expected ground truth has a row. PSNR is the mean over the finite rows (inf
        when every row is exact), so one exact prediction does not hide the others."""
        if not self.per_image or len(self.per_image) != self.expected:
            return None
        finite = [r.pu_psnr for r in self.per_image if r.pu_psnr != np.inf]
        return {
            "pu_psnr": float(np.mean(finite)) if finite else np.inf,
            "pu_ssim": float(np.mean([r.pu_ssim for r in self.per_image])),
            "rmse_linear": float(np.mean([r.rmse_linear for r in self.per_image])),
        }

    def to_json(self) -> str:
        def num(v):
            if np.isnan(v):
                return None
            if np.isinf(v):
                return "inf" if v > 0 else "-inf"
            return float(v)

        agg = self.aggregate
        doc = {
            "schema": SCHEMA_VERSION,
            "per_image": [
                {
                    "image": r.image,
                    "pu_psnr": num(r.pu_psnr),
                    "pu_ssim": num(r.pu_ssim),
                    "rmse_linear": num(r.rmse_linear),
                }
                for r in self.per_image
            ],
            "aggregate": None if agg is None else {k: num(v) for k, v in agg.items()},
            "scored": len(self.per_image),
            "expected": self.expected,
            "exact": sum(1 for r in self.per_image if r.pu_psnr == np.inf),
            "errors": list(self.errors),
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        # column order is frozen: image,psnr,ssim,rmse (since schema version 1)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["image", "psnr", "ssim", "rmse"])
        for r in self.per_image:
            # repr of a Python float: a numpy scalar's repr is "np.float64(...)"
            writer.writerow([r.image] + [repr(float(v)) for v in (r.pu_psnr, r.pu_ssim,
                                                                  r.rmse_linear)])
        return buf.getvalue()


# Old names of the image_io registry and reader, still used by bench/test_perfbench.py.
_HDR_READERS, _load_any = LINEAR_READERS, read_linear


def score_dataset(pred_dir, gt_dir, encoding: PuEncoding | None = None,
                  mapping: DisplayMapping = DisplayMapping(), jobs: int = 1) -> MetricReport:
    """Score every prediction against its ground truth, matching files by stem.

    Missing or unreadable predictions, and files sharing a stem, become error
    entries rather than silent skips; report ordering is sorted by stem so
    output is independent of scheduling.
    """
    preds, pred_errors = index_linear_dir(pred_dir)
    gts, gt_errors = index_linear_dir(gt_dir)
    # gt_errors holds one line per stem that two ground-truth files share: expected, unscored
    report = MetricReport(errors=pred_errors + gt_errors, expected=len(gts) + len(gt_errors))
    if not gts:
        report.errors.append("no ground-truth images found")
    for stem in sorted(set(preds) - set(gts)):
        report.errors.append(f"unmatched prediction: {stem}")

    def score_one(stem):
        if stem not in preds:
            return stem, None, f"missing prediction: {stem}"
        try:
            pred = read_linear(preds[stem])
            gt = read_linear(gts[stem])
            row = PerImageScore(
                image=stem,
                pu_psnr=pu_psnr(pred, gt, encoding, mapping),
                pu_ssim=pu_ssim(pred, gt, encoding, mapping),
                rmse_linear=rmse_linear(pred, gt),
            )
            return stem, row, None
        except ItmError as exc:
            return stem, None, f"{stem}: {exc}"

    for _, row, err in ordered_map(score_one, sorted(gts), jobs):
        if row is not None:
            report.per_image.append(row)
        if err is not None:
            report.errors.append(err)
    report.errors.sort()
    return report


# ---------------------------------------------------------------------------
# Leaderboard


def rank_teams(rows) -> list:
    """Sort (team, psnr, ssim) rows: PSNR desc (+inf first), then SSIM desc, then name."""
    def key(row):
        psnr, ssim = float(row[1]), float(row[2])
        if np.isnan(psnr) or np.isnan(ssim):  # NaN has no place in the order
            raise DomainError(f"team {row[0]!r} has a NaN score: ({psnr!r}, {ssim!r})")
        return -psnr, -ssim, str(row[0])
    return sorted(rows, key=key)

