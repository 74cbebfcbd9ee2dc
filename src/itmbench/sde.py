"""Desk-scale simulator for the mean-reverting restoration SDE.

Forward degradation dx = theta_t (mu - x) dt + sigma_t dw drifts the clean
state toward the degraded observation mu while injecting noise; the backward
pass reverses it with a caller-supplied score function. Closed-form
Ornstein-Uhlenbeck moments serve as the verification oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .color import DisplayMapping
from .errors import DomainError, NumericError, ShapeError
from .image_io import LinearImage
from .pu21 import (SSIM_WINDOW, MetricReport, PerImageScore, PuEncoding, pu_decode,
                   pu_fields, pu_psnr, pu_ssim, rmse_linear)


@dataclass(frozen=True)
class SdeSchedule:
    """Per-step drift (theta) and diffusion (sigma) coefficients plus step size."""

    theta: tuple
    sigma: tuple
    dt: float

    def __post_init__(self):
        theta = tuple(float(v) for v in self.theta)
        sigma = tuple(float(v) for v in self.sigma)
        if len(theta) != len(sigma) or not theta:
            raise DomainError("theta and sigma must be equal-length and non-empty")
        if any(v <= 0 for v in theta):
            raise DomainError("all theta must be positive")
        if any(v < 0 for v in sigma):
            raise DomainError("all sigma must be non-negative")
        if not (self.dt > 0):
            raise DomainError("dt must be positive")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "sigma", sigma)

    @property
    def steps(self) -> int:
        return len(self.theta)

    @staticmethod
    def constant(theta: float, sigma: float, dt: float, steps: int) -> "SdeSchedule":
        if steps < 1:
            raise DomainError(f"steps must be >= 1; got {steps!r}")
        return SdeSchedule((theta,) * steps, (sigma,) * steps, dt)

    @staticmethod
    def cosine(steps: int = 100, theta_min: float = 0.1, theta_max: float = 2.0,
               stationary_std: float = 0.1, dt: float = 0.05) -> "SdeSchedule":
        """Cosine ramp on theta; sigma_t = lam * sqrt(2 theta_t) keeps the
        stationary standard deviation at `stationary_std` (a documented,
        non-normative parameterization)."""
        if steps < 1:
            raise DomainError(f"steps must be >= 1; got {steps!r}")
        i = np.arange(steps)
        theta = theta_min + 0.5 * (theta_max - theta_min) * (1.0 - np.cos(np.pi * (i + 0.5) / steps))
        sigma = stationary_std * np.sqrt(2.0 * theta)
        return SdeSchedule(tuple(theta), tuple(sigma), dt)


def _state(x, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.ndim != 1:
        arr = arr.ravel()
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    return arr


def _paired(x: np.ndarray, name: str, mu) -> tuple:
    """State vector x (called `name`) and mu as vectors of one size; a size-1 side is broadcast."""
    muv = _state(mu, "mu")
    if x.size == 1 and muv.size > 1:
        x = np.full_like(muv, x[0])
    if muv.size == 1 and x.size > 1:
        muv = np.full_like(x, muv[0])
    if x.shape != muv.shape:
        raise ShapeError(f"{name} and mu must have matching sizes")
    return x, muv


# Philox4x32-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
# SC'11): round multipliers and the Weyl increments of the key.
_PHILOX_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_WORD = 0xFFFFFFFF
# Lanes per Philox pass: small enough that a pass's temporaries stay in cache
# (the fastest of 4096, 16384, 65536 and all lanes at once on a 2-CPU host).
_LANE_CHUNK = 16_384


def philox4x32(ctr, key) -> tuple:
    """Philox4x32-10, vectorized over lanes.

    `ctr` holds the four counter words and `key` the two key words, each a
    32-bit value; counter words may be uint64 arrays (one 32-bit word per
    element), broadcast together. Returns the four output words as uint64
    arrays of 32-bit values.
    """
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in ctr)
    k0, k1 = (int(k) for k in key)
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _WORD
            k1 = (k1 + _PHILOX_W[1]) & _WORD
        p0 = c0 * _PHILOX_M[0]
        p1 = c2 * _PHILOX_M[1]
        c0, c1, c2, c3 = ((p1 >> 32) ^ c1 ^ np.uint64(k0), p1 & _WORD,
                          (p0 >> 32) ^ c3 ^ np.uint64(k1), p0 & _WORD)
    return c0, c1, c2, c3


def _noise_blocks(seed: int, stream: int, n_traj: int, dim: int, steps: int):
    """Standard-normal noise of one simulation, one 4-step block at a time.

    Returns `block(m)`: an array (4, n_traj, dim) whose row s is the noise of
    step 4m + s. Every block is written into one buffer, allocated at the
    first call, so a returned block is valid only until the next call.
    Lane (k, j) of block m is Philox4x32-10 of the counter
    (m, j, k, stream) under a key derived from `seed`, its four words turned
    into four normals by Box-Muller. A value therefore depends only on
    (seed, stream, k, j, step): element j of a flattened image run follows
    the same noise as element j of any other run with the same seed, and
    extra trajectories leave the earlier ones alone.
    """
    if seed < 0:
        raise DomainError("seed must be >= 0")
    if max(dim, n_traj, steps // 4) >= 2**32:
        raise DomainError("dim, n_traj and steps // 4 must each stay below 2^32")
    key = np.random.SeedSequence(int(seed)).generate_state(2, np.uint32)
    lanes = n_traj * dim
    out = None

    def block(m: int) -> np.ndarray:
        nonlocal out
        if out is None:
            out = np.empty((4, lanes))
        for lo in range(0, lanes, _LANE_CHUNK):
            hi = min(lo + _LANE_CHUNK, lanes)
            lane = np.arange(lo, hi, dtype=np.uint64)
            words = philox4x32((m, lane % dim, lane // dim, stream), key)
            u0, u1, u2, u3 = ((w + 0.5) * 2.0**-32 for w in words)
            for s, (ur, ua) in enumerate(((u0, u1), (u2, u3))):
                # Box-Muller at the angle 2 pi (ua - 1/2): its cosine and sine
                # from the tangent t of the half angle, which numpy evaluates
                # several times faster than cos and sin of the full angle
                radius = np.sqrt(-2.0 * np.log(ur))
                t = np.tan(np.pi * (ua - 0.5))
                scale = radius / (1.0 + t * t)
                out[2 * s, lo:hi] = scale * (1.0 - t * t)
                out[2 * s + 1, lo:hi] = scale * 2.0 * t
        return out.reshape(4, n_traj, dim)

    return block


def forward_simulate(x0, mu, sched: SdeSchedule, seed: int = 0, n_traj: int = 1,
                     return_history: bool = True) -> np.ndarray:
    """Euler-Maruyama ensemble of the forward SDE.

    Returns trajectories of shape (n_traj, steps + 1, dim), or with
    `return_history=False` only the final states (n_traj, dim), bit-equal to
    the history's last step, without allocating the history. x0 and mu may
    be scalars or equal-length vectors (flattened images).
    """
    x0v, muv = _paired(_state(x0, "x0"), "x0", mu)
    if n_traj < 1:
        raise DomainError("n_traj must be >= 1")
    steps, dt = sched.steps, sched.dt
    noise = _noise_blocks(seed, 0, n_traj, x0v.size, steps)
    history = np.empty((n_traj, steps + 1, x0v.size)) if return_history else None
    if history is not None:
        history[:, 0, :] = x0v
    x = np.broadcast_to(x0v, (n_traj, x0v.size)).copy()
    sqdt = np.sqrt(dt)
    for i in range(steps):
        if i % 4 == 0:
            block = noise(i // 4)
        x = x + sched.theta[i] * (muv - x) * dt + sched.sigma[i] * sqdt * block[i % 4]
        if history is not None:
            history[:, i + 1, :] = x
    return history if return_history else x


def backward_simulate(xT, mu, sched: SdeSchedule, score_fn, seed: int = 0,
                      n_traj: int = 1, return_history: bool = False):
    """Reverse-time Euler-Maruyama with drift theta (mu - x) - sigma^2 * score.

    `score_fn(x, step)` receives the state array and the 1-based step index
    whose left edge the step integrates to; it must return the score field.
    `xT` may be a scalar, a state vector (dim,), or a per-trajectory stack
    (n_traj, dim). Returns the restored states (n_traj, dim), plus the full
    history when requested.
    """
    xT_arr = np.asarray(xT, dtype=np.float64)
    starts = xT_arr if xT_arr.ndim == 2 else None
    if starts is not None:
        if n_traj not in (1, len(starts)):
            raise ShapeError("n_traj conflicts with the per-trajectory xT stack")
        n_traj = len(starts)
    if n_traj < 1:
        raise DomainError("n_traj must be >= 1")
    flat = _state(xT_arr, "xT")
    xv, muv = _paired(flat if starts is None else starts[0], "xT", mu)
    steps, dt = sched.steps, sched.dt
    noise = _noise_blocks(seed, 1, n_traj, xv.size, steps)
    x = np.broadcast_to(xv if starts is None else starts, (n_traj, xv.size)).copy()
    history = np.empty((n_traj, steps + 1, xv.size)) if return_history else None
    if history is not None:
        history[:, steps, :] = x
    sqdt = np.sqrt(dt)
    for i in range(steps - 1, -1, -1):
        if i == steps - 1 or i % 4 == 3:
            block = noise(i // 4)
        score = np.asarray(score_fn(x, i + 1), dtype=np.float64)
        drift = sched.theta[i] * (muv - x) - sched.sigma[i] ** 2 * score
        x = x - drift * dt + sched.sigma[i] * sqdt * block[i % 4]
        if history is not None:
            history[:, i, :] = x
    if return_history:
        return x, history
    return x


def ou_moments(x0, mu, theta: float, sigma: float, t):
    """Closed-form Ornstein-Uhlenbeck mean and variance at continuous time t."""
    if not (theta > 0):
        raise DomainError("theta must be positive")
    if sigma < 0 or np.any(np.asarray(t) < 0):
        raise DomainError("sigma and t must be non-negative")
    x0v = np.asarray(x0, dtype=np.float64)
    muv = np.asarray(mu, dtype=np.float64)
    tv = np.asarray(t, dtype=np.float64)
    mean = muv + (x0v - muv) * np.exp(-theta * tv)
    var = sigma**2 / (2.0 * theta) * (1.0 - np.exp(-2.0 * theta * tv))
    if mean.ndim == 0 and var.ndim == 0:
        return float(mean), float(var)
    return mean, var


def make_ou_score(x0, mu, theta: float, sigma: float, dt: float):
    """Analytic Gaussian score -(x - m_t)/v_t from the OU oracle moments."""
    x0v, muv = _state(x0, "x0"), _state(mu, "mu")

    def score(x, step):
        mean, var = ou_moments(x0v, muv, theta, sigma, step * dt)
        if np.any(np.asarray(var) <= 0):
            raise NumericError("score is undefined where the OU variance is <= 0")
        return -(x - mean) / var

    return score


def _chain_scalars(sched: SdeSchedule) -> tuple:
    """Decay a and variance v of the discretized forward chain, one per step.

    a_0 = 1, a_{i+1} = (1 - theta_i dt) a_i;
    v_0 = 0, v_{i+1} = (1 - theta_i dt)^2 v_i + sigma_i^2 dt.
    The chain's mean at step i is mu + (x0 - mu) a_i.
    """
    a = np.ones(sched.steps + 1)
    v = np.zeros(sched.steps + 1)
    for i in range(sched.steps):
        keep = 1.0 - sched.theta[i] * sched.dt
        a[i + 1] = keep * a[i]
        v[i + 1] = keep ** 2 * v[i] + sched.sigma[i] ** 2 * sched.dt
    return a, v


def chain_moments(x0, mu, sched: SdeSchedule) -> tuple:
    """Exact per-step mean (steps + 1, dim) and variance (steps + 1,) of the
    discretized forward chain: m_i = mu + (x0 - mu) a_i, where a_i is the
    product of (1 - theta_j dt) over the steps j < i, and v_{i+1} =
    (1 - theta_i dt)^2 v_i + sigma_i^2 dt. The demo's analytic score uses
    these statistics one step at a time.
    """
    x0v, muv = _state(x0, "x0"), _state(mu, "mu")
    a, v = _chain_scalars(sched)
    return muv + (x0v - muv) * a[:, None], v


_TRACKED_PIXELS = 4  # leading state elements whose forward path the demo records


@dataclass
class SdeDemoResult:
    report: MetricReport
    restored: LinearImage
    error_map: np.ndarray
    forward_history: np.ndarray  # (steps + 1, min(4, dim)) PU-space path of the first elements
    diagnostics: dict = field(default_factory=dict)


def itm_sde_demo(ldr: LinearImage, hdr_gt: LinearImage, sched: SdeSchedule | None = None,
                 encoding: PuEncoding | None = None,
                 mapping: DisplayMapping = DisplayMapping(),
                 seed: int = 0, ensemble: int = 16) -> SdeDemoResult:
    """Diagnostic run of the restoration SDE machinery (no learned score).

    The clean state is the PU-encoded ground truth, the mean-reversion target
    the PU-encoded degraded input. Forward Euler-Maruyama degrades toward the
    target; the backward pass restores with the analytic Gaussian score built
    from the forward chain's closed-form statistics. Zero-noise schedules are
    reversed by exact algebraic inversion of each forward Euler step (the
    score is undefined at zero variance). Reports PU-space errors of the
    decoded reconstruction.

    Working memory is O(ensemble x pixels), whatever the number of steps:
    the forward pass keeps only its final state, and the tracked elements'
    paths come from a second forward run over those elements alone, whose
    noise equals the full run's element for element.
    """
    enc = encoding or PuEncoding.default()
    schedule = sched or SdeSchedule.cosine()
    pu_ldr, pu_gt, peak = pu_fields(ldr, hdr_gt, enc, mapping)
    u_gt = pu_gt / peak
    u_ldr = pu_ldr / peak
    x0 = u_gt.ravel()
    target = u_ldr.ravel()

    x_end = forward_simulate(x0, target, schedule, seed=seed, return_history=False)[0]
    tracked = forward_simulate(x0[:_TRACKED_PIXELS], target[:_TRACKED_PIXELS], schedule,
                               seed=seed)[0]

    if all(s == 0 for s in schedule.sigma):
        x = x_end.copy()
        for i in range(schedule.steps - 1, -1, -1):
            denom = 1.0 - schedule.theta[i] * schedule.dt
            if abs(denom) < 1e-12:
                raise NumericError("cannot invert a forward step with theta*dt == 1")
            x = (x - schedule.theta[i] * target * schedule.dt) / denom
        restored_u = x
    else:
        decay, variances = _chain_scalars(schedule)
        gap = x0 - target

        def score(x, step):
            if variances[step] <= 0:
                raise NumericError("score is undefined where the chain variance is <= 0")
            return -(x - (target + gap * decay[step])) / variances[step]

        finals = backward_simulate(x_end, target, schedule, score, seed=seed, n_traj=ensemble)
        restored_u = finals.mean(axis=0)

    restored_pu = np.clip(restored_u, 0.0, 1.0).reshape(u_gt.shape) * peak
    decoded = pu_decode(restored_pu, enc) / mapping.scale
    restored = LinearImage(np.clip(decoded, 0.0, None).astype(np.float32))

    error_map = np.mean(np.abs(restored_pu - u_gt * peak), axis=-1)
    score_row = PerImageScore(
        image="sde-demo",
        pu_psnr=pu_psnr(restored, hdr_gt, enc, mapping),
        pu_ssim=(pu_ssim(restored, hdr_gt, enc, mapping) if min(u_gt.shape[:2]) >= SSIM_WINDOW
                 else float("nan")),
        rmse_linear=rmse_linear(restored, hdr_gt),
    )
    report = MetricReport(per_image=[score_row])
    diagnostics = {
        "forward_residual": float(np.mean(np.abs(x_end - target))),
        "restored_pu_l1": float(np.mean(np.abs(restored_u - x0))),
        "steps": schedule.steps,
    }
    return SdeDemoResult(
        report=report,
        restored=restored,
        error_map=error_map,
        forward_history=tracked,
        diagnostics=diagnostics,
    )
