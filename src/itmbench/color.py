"""Scalar transfer functions shared by the whole toolkit.

sRGB EOTF and its inverse, Rec.709 luminance, the mu-law range compressor,
its log10 twin used as a PU approximation, and the mapping from normalized
relative radiance to absolute display luminance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

LUMA_WEIGHTS = (0.2126, 0.7152, 0.0722)

_SRGB_BREAK = 0.04045
_LINEAR_BREAK = 0.0031308


def _as_unit(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    if (arr < 0).any() or (arr > 1).any():
        raise DomainError(f"{name} must lie in [0, 1]")
    return arr


def srgb_to_linear(v):
    """sRGB-encoded value(s) in [0, 1] -> linear light in [0, 1]."""
    arr = _as_unit(v, "sRGB value")
    out = np.where(
        arr <= _SRGB_BREAK,
        arr / 12.92,
        ((arr + 0.055) / 1.055) ** 2.4,
    )
    return out if out.ndim else float(out)


def linear_to_srgb(v):
    """Exact piecewise inverse of srgb_to_linear."""
    arr = _as_unit(v, "linear value")
    out = np.where(
        arr <= _LINEAR_BREAK,
        arr * 12.92,
        1.055 * arr ** (1.0 / 2.4) - 0.055,
    )
    return out if out.ndim else float(out)


def luminance(rgb):
    """Rec.709 luminance 0.2126 R + 0.7152 G + 0.0722 B of a (..., 3) array."""
    arr = np.asarray(rgb, dtype=np.float64)
    if arr.shape[-1] != 3:
        raise DomainError("luminance expects RGB triples on the last axis")
    if not np.isfinite(arr).all() or (arr < 0).any():
        raise DomainError("luminance components must be finite and non-negative")
    r, g, b = LUMA_WEIGHTS
    out = r * arr[..., 0] + g * arr[..., 1] + b * arr[..., 2]
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MuLawParams:
    """mu-law compressor constant (paper value 5000)."""

    mu: float = 5000.0

    def __post_init__(self):
        if not (self.mu > 0):
            raise DomainError("mu must be positive")


@dataclass(frozen=True)
class PuApproxParams:
    """log10 compressor constant for the PU approximation (paper value 10000)."""

    c: float = 10000.0

    def __post_init__(self):
        if not (self.c > 0):
            raise DomainError("c must be positive")


def _log_compress(x: np.ndarray, mu: float) -> np.ndarray:
    # log base cancels in the ratio, so log1p serves both mu-law and log10 forms
    return np.log1p(mu * x) / np.log1p(mu)


def mu_law(x, params: MuLawParams = MuLawParams(), *, check_domain: bool = True):
    """R_mu(x) = log(1 + mu*x) / log(1 + mu); strictly increasing, 0 -> 0, 1 -> 1.

    With check_domain=False the domain is relaxed to x >= 0 (the formula is a
    strictly increasing extension), which the loss evaluators rely on for
    unbounded HDR predictions.
    """
    if check_domain:
        arr = _as_unit(x, "mu-law input")
    else:
        arr = np.asarray(x, dtype=np.float64)
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise DomainError("mu-law input must be finite and non-negative")
    out = _log_compress(arr, params.mu)
    return out if out.ndim else float(out)


def pu_approx(x, params: PuApproxParams = PuApproxParams(), *, check_domain: bool = True):
    """log10(1 + c*x) / log10(1 + c); identical to mu_law with mu == c."""
    return mu_law(x, MuLawParams(params.c), check_domain=check_domain)


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
        if not (0 < self.black_floor < self.peak_luminance):
            raise DomainError("require 0 < black_floor < peak_luminance")
        if not (self.reference_white > 0):
            raise DomainError("reference_white must be positive")

    @property
    def scale(self) -> float:
        """Display luminance of relative radiance 1.0 before the black floor."""
        return self.peak_luminance / self.reference_white


def to_display_luminance(image, mapping: DisplayMapping = DisplayMapping()) -> np.ndarray:
    """Scale relative radiance by `mapping.scale` and clamp at the black floor."""
    arr = np.asarray(getattr(image, "data", image), dtype=np.float64)
    if not np.isfinite(arr).all() or (arr < 0).any():
        raise DomainError("display mapping expects finite non-negative input")
    return np.maximum(arr * mapping.scale, mapping.black_floor)
