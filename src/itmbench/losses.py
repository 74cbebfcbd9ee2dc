"""Analytic loss evaluators for image pairs and SDE trajectories.

Pure functions, all mean-reduced so values are resolution-comparable.
Every term has fixed constants, documented here once: Charbonnier eps 1e-3,
log/color eps 1e-8, mu-law mu 5000 for `recon_loss` and 10^4 for
`ssim_pu_loss`, UPF patch 16, focal gamma 1.5, 64 histogram bins of sigma
0.1 that take votes within 8.5 sigma, and the objective's weights in
`WEIGHTS`. The VGG perceptual term is an externally supplied scalar.

Each term checks its images without converting them: a float32 image is not
copied to float64. The term's first operation upcasts into an array the term
owns, and the rest runs in place on it, so no caller array is written and
the values are those of a float64 copy, bit for bit.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

from .color import (_F64_MAX, MuLawParams, _float64, _radiance, check_same_shape, luminance,
                    mu_law)
from .errors import DomainError, ShapeError
from .pu21 import ssim_mean

EPS_CHARB = 1e-3
EPS_LOG = 1e-8


# Read-only weights of the composite objective's terms (`total_loss`); recon has weight 1.
WEIGHTS = MappingProxyType({"alpha_perc": 0.1, "gamma_ssim": 0.1, "gamma_color": 0.05,
                            "lambda_linear": 0.1, "alpha_denoise": 0.1, "alpha_upf": 0.1,
                            "gamma_tv": 0.1})
_RECON_MU = MuLawParams(5000.0)
_SSIM_PU = MuLawParams(10000.0)  # PU approximation log10(1 + c x) / log10(1 + c), c = 10^4
# Unified patch fidelity: patch side, focal exponent, histogram bins and vote sigma.
_UPF_PATCH = 16
_UPF_FOCAL_GAMMA = 1.5
_UPF_BINS = 64
_UPF_SIGMA = 0.1


def recon_loss(preds, gt) -> float:
    """Stage-weighted L1 in the mu-law compressed domain: sum_i (i/N) mean|R(p_i) - R(gt)|."""
    if not preds:
        raise DomainError("recon_loss needs at least one stage output")
    n = len(preds)
    gt_c = mu_law(_radiance(gt, "loss inputs"), _RECON_MU)
    total = 0.0
    for i, pred in enumerate(preds, start=1):
        a = _radiance(pred, "loss inputs")
        if a.shape != gt_c.shape:
            raise ShapeError("stage output shape does not match ground truth")
        diff = mu_law(a, _RECON_MU)
        diff -= gt_c
        total += (i / n) * float(np.mean(np.abs(diff, out=diff)))
    return total


def linear_l1(pred, gt) -> float:
    """Mean absolute error in linear space."""
    a, b = _pair(pred, gt)
    diff = np.subtract(a, b, out=np.empty(a.shape), dtype=np.float64)
    return float(np.mean(np.abs(diff, out=diff)))


def denoise_loss(denoised, gt) -> float:
    """Denoising supervision; by the printed equation this is plain linear L1."""
    return linear_l1(denoised, gt)


def ssim_pu_loss(pred, gt) -> float:
    """1 - SSIM on PU-approximated luminance (`mu_law`, c = mu = 10000), shared SSIM kernel."""
    a, b = _pair(pred, gt)
    la = mu_law(luminance(a), _SSIM_PU)
    lb = mu_law(luminance(b), _SSIM_PU)
    return 1.0 - ssim_mean(la, lb, data_range=1.0)


def color_loss(pred, gt) -> float:
    """L1 over the three log-ratio channels R/G, G/B, B/R; invariant to global exposure."""
    a, b = _pair(pred, gt)
    if a.shape[-1] != 3:
        raise ShapeError("color_loss expects RGB images")

    def ratios(img):
        # planes r, g, b (+ EPS_LOG, upcast) become log(r/g), log(g/b), log(b/r) in place
        out = np.empty((3,) + img.shape[:-1])
        for k in range(3):
            np.add(img[..., k], EPS_LOG, out=out[k, ...], dtype=np.float64)
        r = out[0].copy()
        out[0] /= out[1]
        out[1] /= out[2]
        out[2] /= r
        return np.log(out, out=out)

    diff = ratios(a)
    diff -= ratios(b)
    return float(np.mean(np.abs(diff, out=diff)))


def tv_loss(pred) -> float:
    """Anisotropic total variation: mean |forward horizontal diff| + mean |vertical diff|."""
    a = _radiance(pred, "loss inputs")
    return float(np.mean(_abs_diff(a[:, 1:], a[:, :-1])) + np.mean(_abs_diff(a[1:], a[:-1])))


def _pair(pred, gt) -> tuple:
    """Two loss inputs of one shape, checked and not converted."""
    check_same_shape(pred, gt)
    return _radiance(pred, "loss inputs"), _radiance(gt, "loss inputs")


def _abs_diff(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """|hi - lo| upcast to float64, in one new array (with shifted views, |np.diff|)."""
    diff = np.subtract(hi, lo, dtype=np.float64)
    return np.abs(diff, out=diff)


def _log_luminance(img: np.ndarray) -> np.ndarray:
    lum = luminance(img)
    lum += EPS_LOG
    return np.log(lum, out=lum)


def upf_loss(pred, gt) -> float:
    """Unified patch fidelity: focal Charbonnier on log-luminance patches,
    soft-histogram matching in the log domain, and edge-aware smoothness.

    The construction below is this toolkit's normative definition (the source
    describes the terms only in prose): Charbonnier is rho(d) =
    sqrt(d^2 + eps^2) - eps averaged per non-overlapping _UPF_PATCH-pixel
    patch, patches weighted by (error / max error)^_UPF_FOCAL_GAMMA;
    histograms are Gaussian votes of sigma _UPF_SIGMA over _UPF_BINS centers
    spanning the joint log range, compared with a mean absolute difference;
    smoothness is mean(|grad pred| * exp(-|grad gt|)) on log luminance,
    averaged over both axes. The loss is the unweighted sum of the three.
    A bin sums the votes of one slice c - r <= x <= c + r of the sorted field,
    r = max(8.5 sigma, center spacing): a dropped vote is below e^-36 of its
    pixel's nearest-center vote, which is kept: radiance's log range spaces the
    centers at most ~17 sigma apart, so that vote is at least e^-37.
    """
    a, b = _pair(pred, gt)
    la, lb = _log_luminance(a), _log_luminance(b)
    h, w = la.shape
    p = _UPF_PATCH
    if h < p or w < p:
        raise ShapeError(f"image smaller than the {p}px patch")

    # focal Charbonnier over full patches (trailing partial tiles dropped)
    rho = la - lb  # sqrt(d * d + eps^2) - eps, in place
    np.multiply(rho, rho, out=rho)
    rho += EPS_CHARB**2
    np.sqrt(rho, out=rho)
    rho -= EPS_CHARB
    ph, pw = h // p, w // p
    tiles = rho[:ph * p, :pw * p].reshape(ph, p, pw, p)
    patch_err = tiles.mean(axis=(1, 3))
    del rho, tiles
    peak = patch_err.max()
    if peak > 0:
        weights = (patch_err / peak) ** _UPF_FOCAL_GAMMA
        charb = float(np.mean(weights * patch_err))
    else:
        charb = 0.0

    # global soft-histogram matching in the log domain
    lo = min(la.min(), lb.min())
    hi = max(la.max(), lb.max())
    if hi - lo < 1e-12:
        hist = 0.0
    else:
        centers = np.linspace(lo, hi, _UPF_BINS)
        scale = -(2.0 * _UPF_SIGMA**2)  # negating the divisor is exact
        # at least one spacing, so rounding cannot push a pixel out of its nearest center's window
        radius = max(8.5 * _UPF_SIGMA, centers[1] - centers[0])

        def soft_hist(x):
            xs = np.sort(x, axis=None)
            first = np.searchsorted(xs, centers - radius, "left")
            last = np.searchsorted(xs, centers + radius, "right")
            work = np.empty(xs.size)
            sums = np.empty(_UPF_BINS)
            for k in range(_UPF_BINS):
                votes = work[:last[k] - first[k]]
                np.subtract(xs[first[k]:last[k]], centers[k], out=votes)
                np.square(votes, out=votes)
                np.divide(votes, scale, out=votes)
                np.exp(votes, out=votes)
                sums[k] = votes.sum()
            return sums / sums.sum()
        hist = float(np.mean(np.abs(soft_hist(la) - soft_hist(lb))))

    # edge-aware smoothness on log luminance
    def smoothness(hi, lo):
        # mean(|grad la| * exp(-|grad lb|)) in two buffers
        grad = _abs_diff(la[hi], la[lo])
        edge = _abs_diff(lb[hi], lb[lo])
        np.negative(edge, out=edge)
        grad *= np.exp(edge, out=edge)
        return np.mean(grad)

    sm_h = smoothness(np.s_[:, 1:], np.s_[:, :-1])
    sm_v = smoothness(np.s_[1:], np.s_[:-1])
    smooth = 0.5 * float(sm_h + sm_v)

    return charb + hist + smooth


def total_loss(stages, pred, gt, *, perceptual: float = 0.0) -> tuple:
    """Composite training objective; returns (total, weighted, raw).

    `raw` holds each term, `weighted` each term's contribution under
    `WEIGHTS` (recon unweighted), so its values sum to `total` exactly. The
    denoise term is the prediction's linear L1. `perceptual` is the
    externally computed VGG scalar (0 when unavailable).
    """
    if not (0 <= perceptual <= _F64_MAX):  # not `< inf`: float() of a larger integer raises
        raise DomainError(f"perceptual must be finite and non-negative; got {perceptual!r}")
    raw = {
        "recon": recon_loss(stages, gt),
        "ssim_pu": ssim_pu_loss(pred, gt),
        "color": color_loss(pred, gt),
        "tv": tv_loss(pred),
        "linear": linear_l1(pred, gt),
    }
    raw["denoise"] = raw["linear"]
    raw["upf"] = upf_loss(pred, gt)
    weighted = {
        "recon": raw["recon"],
        "perceptual": WEIGHTS["alpha_perc"] * float(perceptual),
        "ssim_pu": WEIGHTS["gamma_ssim"] * raw["ssim_pu"],
        "color": WEIGHTS["gamma_color"] * raw["color"],
        "tv": WEIGHTS["gamma_tv"] * raw["tv"],
        "linear": WEIGHTS["lambda_linear"] * raw["linear"],
        "denoise": WEIGHTS["alpha_denoise"] * raw["denoise"],
        "upf": WEIGHTS["alpha_upf"] * raw["upf"],
    }
    return float(sum(weighted.values())), weighted, raw


def score_matching_loss(trajectory, gammas, lam: float = 0.0) -> float:
    """Gamma-weighted sum over (x, x*) pairs of mean|x - x*| + lam * (1 - SSIM).

    Entries are scalars or arrays, signed fields (see `ssim_mean`); with lam > 0,
    2-D images. The sum runs in Python floats: beyond float64 it is inf, then a DomainError.
    """
    if len(trajectory) != len(gammas):
        raise DomainError("gammas length must match the trajectory")
    if not (0 <= lam <= _F64_MAX):  # not `< inf`: float() of a larger integer raises
        raise DomainError(f"lam must be finite and non-negative; got {lam!r}")
    lam, total = float(lam), 0.0
    for (x, x_star), gamma in zip(trajectory, gammas):
        if not (0 < gamma <= _F64_MAX):
            raise DomainError(f"gammas must be finite and positive; got {gamma!r}")
        a, b = (_float64(v, "trajectory entries", "signed") for v in (x, x_star))
        if a.shape != b.shape or not a.size:  # an empty pair has no mean
            raise ShapeError(f"trajectory pair shapes differ or are empty: {a.shape}, {b.shape}")
        term = float(np.mean(np.abs(a - b)))
        if lam > 0:
            term += lam * (1.0 - ssim_mean(a, b, data_range=1.0))
        total += float(gamma) * term
    if not math.isfinite(total):
        raise DomainError("the score-matching sum exceeds float64's range")
    return total
