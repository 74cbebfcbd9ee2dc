"""Empirical error analysis: PU-space residual maps, saturated-region
statistics, and intensity-versus-error joint histograms.

Deterministic binning throughout (histograms rather than KDE); bin edges are
part of every result so downstream plotting can smooth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .color import DisplayMapping, luminance
from .errors import DomainError, ShapeError
from .image_io import Ldr8Image
from .pu21 import PuEncoding, pu_fields

HIST_BINS = 64


@dataclass(frozen=True)
class SaturationSplit:
    """Threshold, mask, and realized fraction of the brightest input pixels."""

    threshold: float
    saturated_mask: np.ndarray
    frac: float


def error_map(pred, gt, encoding: PuEncoding | None = None,
              mapping: DisplayMapping = DisplayMapping()) -> np.ndarray:
    """Absolute residual |PU(pred) - PU(gt)| on display-mapped luminance."""
    la, lb, _ = pu_fields(pred, gt, encoding, mapping, luma=True)
    return np.abs(np.subtract(la, lb, out=la), out=la)


def saturation_split(ldr_input: Ldr8Image, quantile: float = 0.85) -> SaturationSplit:
    """Mask the brightest (1 - quantile) share of input LDR luminance.

    The threshold is the luminance ranked floor(quantile * n) in ascending
    order; pixels >= threshold are saturated, so ties at the threshold are
    included (a constant image is fully saturated).
    """
    if not (0.0 <= quantile < 1.0):
        raise DomainError("quantile must lie in [0, 1)")
    lum = luminance(ldr_input.data)
    flat = np.sort(lum.ravel())
    n = flat.size
    threshold = float(flat[min(int(np.floor(quantile * n)), n - 1)])
    mask = lum >= threshold
    return SaturationSplit(threshold=threshold, saturated_mask=mask, frac=float(mask.mean()))


def _nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    n = sorted_values.size
    rank = max(int(np.ceil(q * n)), 1)
    return float(sorted_values[min(rank - 1, n - 1)])


def _region_stats(values: np.ndarray) -> dict:
    if values.size == 0:
        return {"count": 0, "mean": None, "p50": None, "p95": None}
    ordered = np.sort(values.ravel())
    return {
        "count": int(values.size),
        "mean": float(values.mean()),
        "p50": _nearest_rank(ordered, 0.50),
        "p95": _nearest_rank(ordered, 0.95),
    }


def error_stats(err_map: np.ndarray, split: SaturationSplit) -> dict:
    """Summary statistics of the residual map inside/outside the saturated mask."""
    err = np.asarray(err_map, dtype=np.float64)
    mask = split.saturated_mask
    if err.shape != mask.shape:
        raise ShapeError("error map and mask shapes differ")
    top = float(err.max())
    counts, edges = np.histogram(err, bins=HIST_BINS, range=(0.0, top if top > 0 else 1.0))
    return {
        "saturated": _region_stats(err[mask]),
        "non_saturated": _region_stats(err[~mask]),
        "histogram": {"counts": counts.tolist(), "edges": edges.tolist()},
    }


def intensity_error_joint(ldr_input: Ldr8Image, err_map: np.ndarray) -> dict:
    """Joint 2-D histogram of input LDR luminance versus prediction error, HIST_BINS a side."""
    err = np.asarray(err_map, dtype=np.float64)
    lum = luminance(ldr_input.data)
    if err.shape != lum.shape:
        raise ShapeError("error map and input shapes differ")
    top = float(err.max())
    counts, xedges, yedges = np.histogram2d(
        lum.ravel(), err.ravel(), bins=HIST_BINS,
        range=[[0.0, 255.0], [0.0, top if top > 0 else 1.0]],
    )
    return {
        "counts": counts.astype(int).tolist(),
        "intensity_edges": xedges.tolist(),
        "error_edges": yedges.tolist(),
    }
