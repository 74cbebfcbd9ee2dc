"""Empirical error analysis: PU-space residual maps, saturated-region
statistics, and intensity-versus-error joint histograms.

Deterministic binning throughout (histograms rather than KDE); bin edges are
part of every result so downstream plotting can smooth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .color import DisplayMapping, as_radiance, luminance
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
    rank = min(int(np.floor(quantile * lum.size)), lum.size - 1)
    threshold = float(np.partition(lum.ravel(), rank)[rank])
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
    """Summary statistics of a residual map (radiance-range data) inside/outside the mask."""
    err = as_radiance(err_map, "error map")
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


def _equal_width_bins(values: np.ndarray, top: float) -> tuple:
    """The edges np.linspace(0, top, HIST_BINS + 1) and the bin among them of each value
    in [0, top], the last bin closed, as `np.histogram2d` bins them.

    This is np.histogram's equal-width method: a bin guessed by arithmetic is
    corrected once each way against the edges. Below a normal float bin width the
    edges round too coarsely for one correction, and the bins are searched for.
    """
    edges = np.linspace(0.0, top, HIST_BINS + 1)
    if top < HIST_BINS * np.finfo(np.float64).tiny:
        idx = np.searchsorted(edges, values, side="right") - 1
    else:
        idx = np.clip(values * (HIST_BINS / top), 0, HIST_BINS - 1).astype(np.intp)
        idx -= values < edges[idx]
        idx += values >= edges[idx + 1]
    return np.minimum(idx, HIST_BINS - 1, out=idx), edges


def intensity_error_joint(ldr_input: Ldr8Image, err_map: np.ndarray) -> dict:
    """Joint 2-D histogram of input LDR luminance versus prediction error, HIST_BINS a side."""
    err = as_radiance(err_map, "error map")
    lum = luminance(ldr_input.data)
    if err.shape != lum.shape:
        raise ShapeError("error map and input shapes differ")
    top = float(err.max())
    ix, xedges = _equal_width_bins(lum.ravel(), 255.0)
    iy, yedges = _equal_width_bins(err.ravel(), top if top > 0 else 1.0)
    cells = np.bincount(ix * HIST_BINS + iy, minlength=HIST_BINS * HIST_BINS)
    return {
        "counts": cells.reshape(HIST_BINS, HIST_BINS).tolist(),
        "intensity_edges": xedges.tolist(),
        "error_edges": yedges.tolist(),
    }
