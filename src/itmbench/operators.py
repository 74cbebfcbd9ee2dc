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
from .color import _float64, _int_at_least, _number, _numbers, _radiance, luminance
from .errors import DomainError, ShapeError
from .image_io import LinearImage, Ldr8Image


@dataclass(frozen=True)
class MaskParams:
    """Threshold logits and sigmoid sharpness for mask extraction.

    Thresholds come from cumsum(softmax(theta)); with two logits the second
    threshold is exactly 1. Defaults are documented choices, not paper values.
    Each logit is at most 2**1022 in magnitude, so their difference is finite.
    `alpha` is a gain on the mask field, at most 2**896.
    """

    theta: tuple = (0.0, 0.0)
    alpha: float = 10.0

    def __post_init__(self):
        theta = _numbers(self.theta, "theta (2 finite threshold logits)", "logit")
        if len(theta) != 2:
            raise DomainError(f"theta holds exactly 2 finite threshold logits; got {self.theta!r}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "alpha", _number(self.alpha, "alpha", "positive gain"))
        t1, t2 = _thresholds(self.theta)
        if not (0 < t1 < t2 <= 1):
            raise DomainError("thresholds must satisfy 0 < tau1 < tau2 <= 1")


@dataclass(frozen=True)
class MaskTriple:
    """Per-pixel exposure weights, signed fields; under + mid + over == 1 at every pixel."""

    under: np.ndarray
    mid: np.ndarray
    over: np.ndarray

    def __post_init__(self):
        for name in ("under", "mid", "over"):
            object.__setattr__(self, name, _radiance(getattr(self, name), f"{name} mask", "signed"))


def _thresholds(theta) -> tuple:
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


def _edge_box_mean(a: np.ndarray, r: int) -> np.ndarray:
    """Means over the windows [i - r, i + r] along axis 0, edge rows repeated past the edges.

    Prefix sums give each window's in-range part; memory grows with `a`, not `r`."""
    n, k = len(a), 2 * r + 1
    i = np.arange(n)
    prefix = np.zeros((n + 1,) + a.shape[1:])
    np.cumsum(a, axis=0, out=prefix[1:])
    reach = min(r, n)  # a window past both edges covers all n rows
    inside = prefix[np.minimum(i + reach + 1, n)] - prefix[np.maximum(i - reach, 0)]
    # the window's share clamped to each edge; int / int is a correctly rounded float for any r
    below = np.array([max(r - j, 0) / k for j in range(n)])
    above = np.array([max(j + r - (n - 1), 0) / k for j in range(n)])
    return inside * (1 / k) + below[:, None] * a[0] + above[:, None] * a[-1]


def blurred_luminance(image, kernel: int) -> np.ndarray:
    """Box-filtered luminance with edge replication; kernel must be odd."""
    kernel = _int_at_least(kernel, "kernel", 1)
    if kernel % 2 == 0:
        raise DomainError("kernel must be odd and >= 1")
    lum = luminance(image)
    if kernel == 1:
        return lum
    return _edge_box_mean(_edge_box_mean(lum, kernel // 2).T, kernel // 2).T


def exposure_masks(lum_blurred: np.ndarray, params: MaskParams = MaskParams()) -> MaskTriple:
    """Soft under/mid/over exposure partition of a signed level field by telescoping sigmoids."""
    field = _float64(lum_blurred, "mask field", "signed")
    t1, t2 = _thresholds(params.theta)
    s1 = _sigmoid(params.alpha * (field - t1))
    s2 = _sigmoid(params.alpha * (field - t2))
    return MaskTriple(under=1.0 - s1, mid=s1 - s2, over=s2)


def fuse_exposures(image, masks: MaskTriple, weights=None) -> LinearImage:
    """Convex combination of the masked components.

    `weights` is a triple of scalars or (H, W) fields forming a per-pixel
    simplex; None means uniform 1/3 each.
    """
    data = _float64(image, "fusion input", "radiance")
    h, w = data.shape[:2]
    if weights is None:
        weights = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    # each weight in [0, 1] before the sum, so NaN and inf fail here and the sum cannot overflow
    fields = [np.broadcast_to(_float64(wt, "simplex weights", "unit"), (h, w)) for wt in weights]
    if not (np.abs(fields[0] + fields[1] + fields[2] - 1.0) <= 1e-6).all():
        raise DomainError("weights must form a per-pixel simplex")
    fused = np.zeros_like(data)
    for wt, mask in zip(fields, (masks.under, masks.mid, masks.over)):
        if mask.shape != (h, w):
            raise ShapeError("mask shape does not match image")
        fused += (wt * mask)[..., None] * data
    return LinearImage(fused)


def residual_project(image, gain: float, residual) -> LinearImage:
    """out = img * (1 + gain * residual), clamped at zero; the residual is a gain, |r| <= 2**896."""
    gain = _number(gain, "gain", "unit")
    data = _float64(image, "residual projection input", "radiance")
    res = _float64(residual, "residual", "gain")
    if res.ndim == 2:
        res = res[..., None]
    tail = data.shape[data.ndim - res.ndim:]
    if res.ndim > data.ndim or any(r not in (1, d) for r, d in zip(res.shape, tail)):
        raise ShapeError(f"residual of shape {np.shape(residual)} does not broadcast to the "
                         f"image's {data.shape}")
    return LinearImage(np.maximum(data * (1.0 + gain * res), 0.0))


def naive_expand(ldr: Ldr8Image, crf: Crf) -> LinearImage:
    """Baseline linearization: dequantize to [0, 1] and invert the response curve."""
    encoded = ldr.data.astype(np.float64) / 255.0
    return LinearImage(crf.inverse(encoded))
