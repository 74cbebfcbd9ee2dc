"""Analytic loss evaluators for image pairs and SDE trajectories.

Pure functions, all mean-reduced so values are resolution-comparable.
Epsilon constants (documented here once): Charbonnier eps 1e-3, log/color
eps 1e-8. The VGG perceptual term is accepted as an externally supplied
scalar, never computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .color import MuLawParams, as_radiance, luminance, mu_law, radiance_pair
from .errors import DomainError, ShapeError
from .pu21 import ssim_mean

EPS_CHARB = 1e-3
EPS_LOG = 1e-8
HIST_ROWS = 1024  # pixels per soft-histogram chunk: (HIST_ROWS + 1) x bins float64 fits in cache


@dataclass(frozen=True)
class LossWeights:
    """Default weights of the composite training objective."""

    alpha_perc: float = 0.1
    gamma_ssim: float = 0.1
    gamma_color: float = 0.05
    lambda_linear: float = 0.1
    alpha_denoise: float = 0.1
    alpha_upf: float = 0.1
    gamma_tv: float = 0.1

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not (0 <= value < np.inf):
                raise DomainError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class UpfParams:
    """Unified patch fidelity parameters; the two sub-term weights default to 1."""

    patch: int = 16
    focal_gamma: float = 1.5
    hist_bins: int = 64
    hist_sigma: float = 0.1
    alpha_hist: float = 1.0
    beta_smooth: float = 1.0

    def __post_init__(self):
        if self.patch < 2:
            raise DomainError("patch must be >= 2")
        if self.hist_bins < 2:
            raise DomainError("hist_bins must be >= 2")
        if not (0 < self.hist_sigma < np.inf and 0 <= self.focal_gamma < np.inf):
            raise DomainError("hist_sigma must be finite and > 0, focal_gamma finite and >= 0")
        if not (np.isfinite(self.alpha_hist) and np.isfinite(self.beta_smooth)):
            raise DomainError("alpha_hist and beta_smooth must be finite")


def recon_loss(preds, gt, mu: MuLawParams = MuLawParams()) -> float:
    """Stage-weighted L1 in the mu-law compressed domain: sum_i (i/N) mean|R(p_i) - R(gt)|."""
    if not preds:
        raise DomainError("recon_loss needs at least one stage output")
    n = len(preds)
    gt_c = mu_law(as_radiance(gt, "loss inputs"), mu)
    total = 0.0
    for i, pred in enumerate(preds, start=1):
        a = as_radiance(pred, "loss inputs")
        if a.shape != gt_c.shape:
            raise ShapeError("stage output shape does not match ground truth")
        total += (i / n) * float(np.mean(np.abs(mu_law(a, mu) - gt_c)))
    return total


def linear_l1(pred, gt) -> float:
    """Mean absolute error in linear space."""
    a, b = radiance_pair(pred, gt, "loss inputs")
    return float(np.mean(np.abs(a - b)))


def denoise_loss(denoised, gt) -> float:
    """Denoising supervision; by the printed equation this is plain linear L1."""
    return linear_l1(denoised, gt)


def ssim_pu_loss(pred, gt, pu: MuLawParams = MuLawParams(10000.0)) -> float:
    """1 - SSIM on PU-approximated luminance (`mu_law`, c = mu = 10000), shared SSIM kernel."""
    a, b = radiance_pair(pred, gt, "loss inputs")
    la = mu_law(luminance(a), pu)
    lb = mu_law(luminance(b), pu)
    return 1.0 - ssim_mean(la, lb, data_range=1.0)


def color_loss(pred, gt, eps: float = EPS_LOG) -> float:
    """L1 over the three log-ratio channels R/G, G/B, B/R; invariant to global exposure."""
    if not (eps > 0):
        raise DomainError("eps must be positive")
    a, b = radiance_pair(pred, gt, "loss inputs")
    if a.shape[-1] != 3:
        raise ShapeError("color_loss expects RGB images")

    def ratios(img):
        r, g, bl = img[..., 0] + eps, img[..., 1] + eps, img[..., 2] + eps
        return np.stack([np.log(r / g), np.log(g / bl), np.log(bl / r)])

    return float(np.mean(np.abs(ratios(a) - ratios(b))))


def tv_loss(pred) -> float:
    """Anisotropic total variation: mean |forward horizontal diff| + mean |vertical diff|."""
    a = as_radiance(pred, "loss inputs")
    dh = np.abs(np.diff(a, axis=1))
    dv = np.abs(np.diff(a, axis=0))
    return float(np.mean(dh) + np.mean(dv))


def _log_luminance(img: np.ndarray) -> np.ndarray:
    return np.log(luminance(img) + EPS_LOG)


def upf_loss(pred, gt, params: UpfParams = UpfParams()) -> float:
    """Unified patch fidelity: focal Charbonnier on log-luminance patches,
    soft-histogram matching in the log domain, and edge-aware smoothness.

    The construction below is this toolkit's normative definition (the source
    describes the terms only in prose): Charbonnier is rho(d) =
    sqrt(d^2 + eps^2) - eps averaged per non-overlapping patch, patches
    weighted by (error / max error)^focal_gamma; histograms are Gaussian
    votes over hist_bins centers spanning the joint log range, compared with
    a mean absolute difference; smoothness is mean(|grad pred| *
    exp(-|grad gt|)) on log luminance, averaged over both axes.
    Histogram votes are summed over fixed chunks of HIST_ROWS pixels, so their
    memory does not grow with the image; a hist_sigma at which every vote of
    an image underflows is a DomainError.
    """
    a, b = radiance_pair(pred, gt, "loss inputs")
    la, lb = _log_luminance(a), _log_luminance(b)
    h, w = la.shape
    p = params.patch
    if h < p or w < p:
        raise ShapeError(f"image smaller than the {p}px patch")

    # focal Charbonnier over full patches (trailing partial tiles dropped)
    d = la - lb
    rho = np.sqrt(d * d + EPS_CHARB**2) - EPS_CHARB
    ph, pw = h // p, w // p
    tiles = rho[:ph * p, :pw * p].reshape(ph, p, pw, p)
    patch_err = tiles.mean(axis=(1, 3))
    peak = patch_err.max()
    if peak > 0:
        weights = (patch_err / peak) ** params.focal_gamma
        charb = float(np.mean(weights * patch_err))
    else:
        charb = 0.0

    # global soft-histogram matching in the log domain
    lo = min(la.min(), lb.min())
    hi = max(la.max(), lb.max())
    if hi - lo < 1e-12:
        hist = 0.0
    else:
        centers = np.linspace(lo, hi, params.hist_bins)
        scale = -(2.0 * params.hist_sigma**2)  # negating the divisor is exact

        def soft_hist(x):
            # Row 0 carries each bin's running sum into the next chunk's column
            # sum, so bins add up pixel by pixel as one (pixels, bins) matrix would.
            flat = x.ravel()
            buf = np.zeros((HIST_ROWS + 1, params.hist_bins))
            for start in range(0, flat.size, HIST_ROWS):
                chunk = flat[start:start + HIST_ROWS]
                votes = buf[1:chunk.size + 1]
                np.subtract(chunk[:, None], centers, out=votes)
                np.square(votes, out=votes)
                np.divide(votes, scale, out=votes)
                np.exp(votes, out=votes)
                buf[0] = buf[:chunk.size + 1].sum(axis=0)
            total = buf[0].sum()
            if total == 0:
                raise DomainError(f"hist_sigma={params.hist_sigma!r} is too small: "
                                  "every histogram vote underflows")
            return buf[0] / total
        hist = float(np.mean(np.abs(soft_hist(la) - soft_hist(lb))))

    # edge-aware smoothness on log luminance
    sm_h = np.mean(np.abs(np.diff(la, axis=1)) * np.exp(-np.abs(np.diff(lb, axis=1))))
    sm_v = np.mean(np.abs(np.diff(la, axis=0)) * np.exp(-np.abs(np.diff(lb, axis=0))))
    smooth = 0.5 * float(sm_h + sm_v)

    return charb + params.alpha_hist * hist + params.beta_smooth * smooth


def loss_terms(stages, pred, gt, *, denoised=None) -> dict:
    """Unweighted terms of the composite objective, each at its own default
    constants; `denoised` defaults to `pred`."""
    terms = {
        "recon": recon_loss(stages, gt),
        "ssim_pu": ssim_pu_loss(pred, gt),
        "color": color_loss(pred, gt),
        "tv": tv_loss(pred),
        "linear": linear_l1(pred, gt),
    }
    terms["denoise"] = terms["linear"] if denoised is None else denoise_loss(denoised, gt)
    terms["upf"] = upf_loss(pred, gt)
    return terms


def weigh_loss_terms(terms: dict, weights: LossWeights = LossWeights(),
                     perceptual: float = 0.0) -> tuple:
    """Weighted composite objective of `loss_terms` output; returns (total, breakdown).

    The breakdown holds each term's weighted contribution, so its values sum
    to the total exactly. `perceptual` is the externally computed VGG scalar
    (0 when unavailable).
    """
    contributions = {
        "recon": terms["recon"],
        "perceptual": weights.alpha_perc * float(perceptual),
        "ssim_pu": weights.gamma_ssim * terms["ssim_pu"],
        "color": weights.gamma_color * terms["color"],
        "tv": weights.gamma_tv * terms["tv"],
        "linear": weights.lambda_linear * terms["linear"],
        "denoise": weights.alpha_denoise * terms["denoise"],
        "upf": weights.alpha_upf * terms["upf"],
    }
    return float(sum(contributions.values())), contributions


def total_loss(stages, pred, gt, weights: LossWeights = LossWeights(), *,
               denoised=None, perceptual: float = 0.0) -> tuple:
    """`weigh_loss_terms` of `loss_terms`: the weighted objective and its breakdown."""
    return weigh_loss_terms(loss_terms(stages, pred, gt, denoised=denoised), weights, perceptual)


def score_matching_loss(trajectory, gammas, lam: float = 0.0) -> float:
    """Gamma-weighted sum over (x, x*) pairs of mean|x - x*| + lam * (1 - SSIM).

    Entries may be scalars or arrays; with lam > 0 they must be 2-D images that
    `ssim_mean` accepts.
    """
    if len(trajectory) != len(gammas):
        raise DomainError("gammas length must match the trajectory")
    if lam < 0:
        raise DomainError("lam must be non-negative")
    total = 0.0
    for (x, x_star), gamma in zip(trajectory, gammas):
        if not (gamma > 0):
            raise DomainError("gammas must be positive")
        a = np.asarray(x, dtype=np.float64)
        b = np.asarray(x_star, dtype=np.float64)
        if a.shape != b.shape:
            raise ShapeError("trajectory pair shapes differ")
        term = float(np.mean(np.abs(a - b)))
        if lam > 0:
            term += lam * (1.0 - ssim_mean(a, b, data_range=1.0))
        total += gamma * term
    return total
