"""Analytic inverse-tone-mapping operators.

Implements a soft exposure-mask decomposition and fusion pipeline with
fixed parameters: soft sigmoid masks over blurred luminance partition the
image into under/mid/over-exposed components that sum to one everywhere,
plus the residual-projection enhancement and the naive linearization
baseline. Learned sub-networks are replaced by caller-supplied fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import Crf
from .color import luminance
from .errors import DomainError, ShapeError
from .image_io import LinearImage, Ldr8Image


@dataclass(frozen=True)
class MaskParams:
    """Threshold logits and sigmoid sharpness for mask extraction.

    Thresholds come from cumsum(softmax(theta)); with two logits the second
    threshold is exactly 1. Defaults are documented choices, not paper values.
    """

    theta: tuple = (0.0, 0.0)
    alpha: float = 10.0

    def __post_init__(self):
        if len(self.theta) != 2:
            raise DomainError("theta holds exactly 2 threshold logits")
        if not (0 < self.alpha < np.inf):
            raise DomainError(f"alpha must be finite and positive; got {self.alpha!r}")
        t1, t2 = thresholds(self.theta)
        if not (0 < t1 < t2 <= 1):
            raise DomainError("thresholds must satisfy 0 < tau1 < tau2 <= 1")


@dataclass(frozen=True)
class MaskTriple:
    """Per-pixel exposure weights; under + mid + over == 1 at every pixel."""

    under: np.ndarray
    mid: np.ndarray
    over: np.ndarray


def thresholds(theta) -> tuple:
    """cumsum(softmax(theta)) -> (tau1, tau2); tau2 is exactly 1 by construction."""
    logits = np.asarray(theta, dtype=np.float64)
    exps = np.exp(logits - logits.max())  # stable softmax
    taus = np.cumsum(exps / exps.sum())
    taus[-1] = 1.0  # mathematically exact; clears cumsum float residue
    return float(taus[0]), float(taus[1])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def blurred_luminance(image, kernel: int) -> np.ndarray:
    """Box-filtered luminance with edge replication; kernel must be odd."""
    if kernel < 1 or kernel % 2 == 0:
        raise DomainError("kernel must be odd and >= 1")
    lum = luminance(np.asarray(image.data, dtype=np.float64))
    if kernel == 1:
        return lum
    r = kernel // 2
    padded = np.pad(lum, r, mode="edge")
    # integral image with a leading zero row/column, then inclusion-exclusion
    integral = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1))
    integral[1:, 1:] = padded.cumsum(axis=0).cumsum(axis=1)
    k = kernel
    h, w = lum.shape
    sums = (integral[k:k + h, k:k + w] - integral[:h, k:k + w]
            - integral[k:k + h, :w] + integral[:h, :w])
    return sums / (k * k)


def exposure_masks(lum_blurred: np.ndarray, params: MaskParams = MaskParams()) -> MaskTriple:
    """Soft partition into under/mid/over exposure by telescoping sigmoids."""
    field = np.asarray(lum_blurred, dtype=np.float64)
    t1, t2 = thresholds(params.theta)
    s1 = _sigmoid(params.alpha * (field - t1))
    s2 = _sigmoid(params.alpha * (field - t2))
    return MaskTriple(under=1.0 - s1, mid=s1 - s2, over=s2)


def fuse_exposures(image, masks: MaskTriple, weights=None) -> LinearImage:
    """Convex combination of the masked components.

    `weights` is a triple of scalars or (H, W) fields forming a per-pixel
    simplex; None means uniform 1/3 each.
    """
    data = np.asarray(image.data, dtype=np.float64)
    h, w = data.shape[:2]
    if weights is None:
        weights = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    fields = [np.broadcast_to(np.asarray(wt, dtype=np.float64), (h, w)) for wt in weights]
    total = fields[0] + fields[1] + fields[2]
    if not (np.abs(total - 1.0) <= 1e-6).all() or any((f < 0).any() for f in fields):  # NaN fails
        raise DomainError("weights must form a per-pixel simplex")
    fused = np.zeros_like(data)
    for wt, mask in zip(fields, (masks.under, masks.mid, masks.over)):
        if mask.shape != (h, w):
            raise ShapeError("mask shape does not match image")
        fused += (wt * mask)[..., None] * data
    return LinearImage(fused)


def residual_project(image, gain: float, residual) -> LinearImage:
    """out = img * (1 + gain * residual); output clamped at zero to stay radiometric."""
    if not (0.0 <= gain <= 1.0):
        raise DomainError("gain must lie in [0, 1]")
    data = np.asarray(image.data, dtype=np.float64)
    res = np.asarray(residual, dtype=np.float64)
    if res.ndim == 2:
        res = res[..., None]
    out = data * (1.0 + gain * res)
    return LinearImage(np.maximum(out, 0.0))


def naive_expand(ldr: Ldr8Image, crf: Crf) -> LinearImage:
    """Baseline linearization: dequantize to [0, 1] and invert the response curve."""
    encoded = ldr.data.astype(np.float64) / 255.0
    return LinearImage(crf.inverse(encoded))
