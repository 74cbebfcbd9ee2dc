"""Scalar transfer functions shared by the whole toolkit.

Rec.709 luminance, the mu-law range compressor on radiance (also the losses'
PU approximation), and the mapping from normalized relative radiance to
absolute display luminance.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

LUMA_WEIGHTS = (0.2126, 0.7152, 0.0722)
_F32_MAX = float(np.finfo(np.float32).max)
_F64_MAX = float(np.finfo(np.float64).max)
_GAIN_STOPS = 896
_GAIN_MAX = 2.0**_GAIN_STOPS
_ABOVE_0, _BELOW_1 = float(np.nextafter(0.0, 1.0)), float(np.nextafter(1.0, 0.0))  # open ends
# The ranges a value is checked against where it enters: (low, high, what "<name> must" says).
# Radiance stays below 2^128 and a signed field within +-float32's top, and each gain on either
# (exposure, mu, display scale, noise level, residual; mask sharpness) at 2^896, so no product
# of the two exceeds 2^1024 - 2^1000. `finite` is for data clamped before any arithmetic and
# `byte` for 8-bit pixels; the rows after them are for scalar settings (`_number`).
_RANGES = {
    "radiance": (0.0, _F32_MAX, "be finite and non-negative and lie within float32's range"),
    "signed": (-_F32_MAX, _F32_MAX, "be finite and lie within float32's range"),
    "unit": (0.0, 1.0, "be finite and must lie in [0, 1]"),
    "gain": (-_GAIN_MAX, _GAIN_MAX, "be finite and at most 2**896 in magnitude"),
    "finite": (-_F64_MAX, _F64_MAX, "be finite"),
    "byte": (0.0, 255.0, "lie in [0, 255]"),
    "positive gain": (_ABOVE_0, _GAIN_MAX, "be finite and positive, at most 2**896"),
    "non-negative gain": (0.0, _GAIN_MAX, "be finite and non-negative, at most 2**896"),
    "positive": (_ABOVE_0, _F64_MAX, "be finite and positive"),
    "non-negative": (0.0, _F64_MAX, "be finite and non-negative"),
    "open unit": (_ABOVE_0, _BELOW_1, "lie in (0, 1)"),
    "quantile": (0.0, _BELOW_1, "lie in [0, 1)"),
    "exposure": (-_F64_MAX, float(_GAIN_STOPS), f"be finite and at most {_GAIN_STOPS}"),
    "logit": (-(2.0**1022), 2.0**1022, "be finite and at most 2**1022 in magnitude"),
    "data range": (2.0**-126, _F32_MAX, "be finite and positive, in [2**-126, float32's top]"),
}


def _int_at_least(value, name: str, low: int | None) -> int:
    """`value`, a Python or numpy integer (not a bool) >= `low` unless None, as an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer; got {value!r}")
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}; got {value!r}")
    return int(value)


def _number(value, name: str, within: str) -> float:
    """`value` as a Python float in the range `within`, else a DomainError naming `name`:
    `float()` converts it (a numpy scalar, a bool, a numeric string), but no array or complex."""
    low, high, text = _RANGES[within]
    try:
        if getattr(value, "ndim", 0) or isinstance(value, (complex, np.complexfloating)):
            raise TypeError  # float() of a numpy complex warns and drops the imaginary part
        number = float(value)
    except OverflowError:  # compared exactly, as the integer it is
        number = value
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number; got {value!r}") from None
    if not low <= number <= high:
        raise DomainError(f"{name} must {text}; got {number!r}")
    return number


def _numbers(values, name: str, within: str) -> tuple:
    """Each of the sequence `values` through `_number`, as a tuple of Python floats."""
    if isinstance(values, (str, bytes)) or not np.iterable(values):
        raise DomainError(f"{name} must be a sequence of real numbers; got {values!r}")
    return tuple(_number(v, name, within) for v in values)


def _pixels(x):
    """A raster's (a LinearImage's) `.data`, or `x` itself: an array's `.data` is a memoryview."""
    return x if isinstance(x, (np.ndarray, np.generic)) else getattr(x, "data", x)


def _radiance(x, name: str, within: str = "radiance", error: type = DomainError) -> np.ndarray:
    """`x` (a LinearImage or an array) with every value in `_RANGES[within]`, else `error`.

    The data must pass `_real`. Up to 64 bits it keeps its dtype: each
    caller's first operation upcasts with `dtype=np.float64` into a buffer it
    owns, which gives the bits a float64 copy would. Wider floats are converted.
    """
    arr = _real(_pixels(x), name, error)
    if not _in_range(arr, within):
        raise error(f"{name} must {_RANGES[within][2]}")
    return arr.astype(np.float64) if arr.dtype.itemsize > 8 else arr


def _real(x, name: str, error: type = DomainError) -> np.ndarray:
    """`x` as an array of boolean, integer or real float data, else `error`."""
    try:
        arr = np.asarray(x)
    except ValueError:  # a ragged sequence
        raise error(f"{name} must be an array of one shape; got a ragged sequence") from None
    if arr.dtype.kind not in "biuf":
        raise error(f"{name} must be boolean, integer or real float data; got dtype {arr.dtype}")
    return arr


def _in_range(arr: np.ndarray, within: str) -> bool:
    """Every value of real data `arr` in the range `within`; NaN fails, with no warning. The
    extremes are compared as Python floats, so no bound is rounded into the data's dtype."""
    low, high, _ = _RANGES[within]
    return arr.size == 0 or (low <= float(arr.min()) and float(arr.max()) <= high)


def _float64(x, name: str, within: str) -> np.ndarray:
    """`x` as float64, checked as `_radiance` checks it against the range `within`."""
    return np.asarray(_radiance(x, name, within), dtype=np.float64)


def _pair(a, b, name: str) -> tuple:
    """`a` and `b` (LinearImages or arrays) checked as `_radiance` checks them and not
    converted; first a ShapeError unless they share a shape."""
    sa, sb = np.shape(_pixels(a)), np.shape(_pixels(b))
    if sa != sb:
        raise ShapeError(f"image shapes differ: {sa} vs {sb}")
    return _radiance(a, name), _radiance(b, name)


def luminance(rgb):
    """Rec.709 luminance 0.2126 R + 0.7152 G + 0.0722 B of a LinearImage or (..., 3) array."""
    out = _luma(_radiance(rgb, "luminance components"))
    return out if out.ndim else float(out)


def _luma(arr: np.ndarray, mapping: DisplayMapping | None = None) -> np.ndarray:
    """Rec.709 luminance of checked (..., 3) data, one channel at a time, in a new float64 array.

    Each channel is upcast (and display-mapped as `to_display_luminance` maps
    it, when `mapping` is given), weighted, and added left to right.
    """
    if arr.shape[-1] != 3:
        raise DomainError("luminance expects RGB triples on the last axis")
    out, term = np.empty(arr.shape[:-1]), np.empty(arr.shape[:-1])
    for k, weight in enumerate(LUMA_WEIGHTS):
        channel = term if k else out
        if mapping is None:
            np.multiply(arr[..., k], weight, out=channel, dtype=np.float64)
        else:
            np.multiply(arr[..., k], mapping.scale, out=channel, dtype=np.float64)
            np.maximum(channel, mapping.black_floor, out=channel)
            channel *= weight
        if k:
            out += term
    return out


@dataclass(frozen=True)
class MuLawParams:
    """mu-law compressor constant (paper value 5000), a gain on radiance."""

    mu: float = 5000.0

    def __post_init__(self):
        object.__setattr__(self, "mu", _number(self.mu, "mu", "positive gain"))


def mu_law(x, params: MuLawParams = MuLawParams()):
    """R_mu(x) = log(1 + mu*x) / log(1 + mu); strictly increasing, 0 -> 0, 1 -> 1.

    The domain is radiance, x in [0, float32's top], so HDR predictions above
    1 map above 1. The log base cancels in the ratio, so with mu = 10000 this
    is the log10 PU approximation log10(1 + c*x) / log10(1 + c), c = 10000,
    of `losses.ssim_pu_loss`.
    """
    arr = _radiance(x, "mu-law input")
    out = np.multiply(arr, params.mu, out=np.empty(arr.shape), dtype=np.float64)
    np.log1p(out, out=out)
    out /= np.log1p(params.mu)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DisplayMapping:
    """Mapping from relative radiance to absolute display luminance in cd/m^2.

    Benchmark HDR is normalized so 1.0 is the display peak; black_floor keeps
    zero pixels inside the domain of the PU encodings.
    """

    peak_luminance: float = 1000.0
    black_floor: float = 0.005
    reference_white: float = 1.0

    def __post_init__(self):
        for name, within in (("peak_luminance", "positive"), ("black_floor", "finite"),
                             ("reference_white", "positive")):
            object.__setattr__(self, name, _number(getattr(self, name), name, within))
        if not (0 < self.black_floor < self.peak_luminance):
            raise DomainError("require 0 < black_floor < peak_luminance")
        _number(self.scale, "peak_luminance / reference_white", "positive gain")

    @property
    def scale(self) -> float:
        """Display luminance of relative radiance 1.0 before the black floor."""
        return self.peak_luminance / self.reference_white


def to_display_luminance(image, mapping: DisplayMapping = DisplayMapping()) -> np.ndarray:
    """Scale relative radiance by `mapping.scale` and clamp at the black floor, in a new array."""
    display = _float64(image, "display mapping input", "radiance") * mapping.scale
    return np.maximum(display, mapping.black_floor, out=display if display.ndim else None)
