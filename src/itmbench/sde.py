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
from .pu21 import (MetricReport, PerImageScore, PuEncoding, pu_decode, pu_fields,
                   pu_psnr, pu_ssim, rmse_linear)


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
        return SdeSchedule((theta,) * steps, (sigma,) * steps, dt)

    @staticmethod
    def cosine(steps: int = 100, theta_min: float = 0.1, theta_max: float = 2.0,
               stationary_std: float = 0.1, dt: float = 0.05) -> "SdeSchedule":
        """Cosine ramp on theta; sigma_t = lam * sqrt(2 theta_t) keeps the
        stationary standard deviation at `stationary_std` (a documented,
        non-normative parameterization)."""
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


def _trajectory_noise(seed: int, stream: int, n_traj: int, steps: int, dim: int) -> np.ndarray:
    """Noise keyed per (seed, trajectory index, element index).

    Keying each element separately makes runs dimension-agnostic: element j
    of a flattened image run follows the same stream as element j of any
    other run with the same seed, regardless of the total element count.
    """
    entropy = (int(seed), int(stream))
    out = np.empty((n_traj, steps, dim))
    for k in range(n_traj):
        for j in range(dim):
            ss = np.random.SeedSequence(entropy, spawn_key=(k, j))
            rng = np.random.Generator(np.random.Philox(ss))
            out[k, :, j] = rng.standard_normal(steps)
    return out


def forward_simulate(x0, mu, sched: SdeSchedule, seed: int = 0, n_traj: int = 1) -> np.ndarray:
    """Euler-Maruyama ensemble of the forward SDE.

    Returns trajectories of shape (n_traj, steps + 1, dim); x0 and mu may be
    scalars or equal-length vectors (flattened images).
    """
    x0v, muv = _state(x0, "x0"), _state(mu, "mu")
    if x0v.size == 1 and muv.size > 1:
        x0v = np.full_like(muv, x0v[0])
    if muv.size == 1 and x0v.size > 1:
        muv = np.full_like(x0v, muv[0])
    if x0v.shape != muv.shape:
        raise ShapeError("x0 and mu must have matching sizes")
    if n_traj < 1:
        raise DomainError("n_traj must be >= 1")
    steps, dt = sched.steps, sched.dt
    noise = _trajectory_noise(seed, 0, n_traj, steps, x0v.size)
    out = np.empty((n_traj, steps + 1, x0v.size))
    out[:, 0, :] = x0v
    x = np.broadcast_to(x0v, (n_traj, x0v.size)).copy()
    sqdt = np.sqrt(dt)
    for i in range(steps):
        x = x + sched.theta[i] * (muv - x) * dt + sched.sigma[i] * sqdt * noise[:, i, :]
        out[:, i + 1, :] = x
    return out


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
    if xT_arr.ndim == 2:
        if n_traj not in (1, xT_arr.shape[0]):
            raise ShapeError("n_traj conflicts with the per-trajectory xT stack")
        n_traj = xT_arr.shape[0]
        xv = xT_arr[0]
        starts = xT_arr
    else:
        xv = _state(xT, "xT")
        starts = None
    muv = _state(mu, "mu")
    if xv.size == 1 and muv.size > 1:
        xv = np.full_like(muv, xv[0])
    if muv.size == 1 and xv.size > 1:
        muv = np.full_like(xv, muv[0])
    if xv.shape != muv.shape:
        raise ShapeError("xT and mu must have matching sizes")
    steps, dt = sched.steps, sched.dt
    noise = _trajectory_noise(seed, 1, n_traj, steps, xv.size)
    if starts is not None:
        x = np.array(starts, dtype=np.float64, copy=True)
        if not np.isfinite(x).all():
            raise DomainError("xT must be finite")
    else:
        x = np.broadcast_to(xv, (n_traj, xv.size)).copy()
    history = np.empty((n_traj, steps + 1, xv.size)) if return_history else None
    if history is not None:
        history[:, steps, :] = x
    sqdt = np.sqrt(dt)
    for i in range(steps - 1, -1, -1):
        score = np.asarray(score_fn(x, i + 1), dtype=np.float64)
        drift = sched.theta[i] * (muv - x) - sched.sigma[i] ** 2 * score
        x = x - drift * dt + sched.sigma[i] * sqdt * noise[:, i, :]
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


def chain_moments(x0, mu, sched: SdeSchedule) -> tuple:
    """Exact per-step mean and variance of the discretized forward chain.

    m_{i+1} = m_i + theta_i (mu - m_i) dt; v_{i+1} = (1 - theta_i dt)^2 v_i
    + sigma_i^2 dt. These are the recorded forward statistics the demo's
    analytic score uses.
    """
    x0v, muv = _state(x0, "x0"), _state(mu, "mu")
    steps, dt = sched.steps, sched.dt
    m = np.empty((steps + 1, x0v.size))
    v = np.zeros(steps + 1)
    m[0] = x0v
    for i in range(steps):
        m[i + 1] = m[i] + sched.theta[i] * (muv - m[i]) * dt
        v[i + 1] = (1.0 - sched.theta[i] * dt) ** 2 * v[i] + sched.sigma[i] ** 2 * dt
    return m, v


@dataclass
class SdeDemoResult:
    report: MetricReport
    restored: LinearImage
    error_map: np.ndarray
    forward_history: np.ndarray  # (steps + 1, dim) single-trajectory PU-space path
    diagnostics: dict = field(default_factory=dict)


def itm_sde_demo(ldr: LinearImage, hdr_gt: LinearImage, sched: SdeSchedule | None = None,
                 encoding: PuEncoding | None = None,
                 mapping: DisplayMapping = DisplayMapping(),
                 seed: int = 0, ensemble: int = 16) -> SdeDemoResult:
    """Diagnostic run of the restoration SDE machinery (no learned score).

    The clean state is the PU-encoded ground truth, the mean-reversion target
    the PU-encoded degraded input. Forward Euler-Maruyama degrades toward the
    target; the backward pass restores with the analytic Gaussian score built
    from the recorded forward-chain statistics. Zero-noise schedules are
    reversed by exact algebraic inversion of each forward Euler step (the
    score is undefined at zero variance). Reports PU-space errors of the
    decoded reconstruction.
    """
    enc = encoding or PuEncoding.default()
    schedule = sched or SdeSchedule.cosine()
    pu_ldr, pu_gt, peak = pu_fields(ldr, hdr_gt, enc, mapping)
    u_gt = pu_gt / peak
    u_ldr = pu_ldr / peak
    x0 = u_gt.ravel()
    target = u_ldr.ravel()

    forward = forward_simulate(x0, target, schedule, seed=seed, n_traj=1)
    x_end = forward[0, -1, :]

    if all(s == 0 for s in schedule.sigma):
        x = x_end.copy()
        for i in range(schedule.steps - 1, -1, -1):
            denom = 1.0 - schedule.theta[i] * schedule.dt
            if abs(denom) < 1e-12:
                raise NumericError("cannot invert a forward step with theta*dt == 1")
            x = (x - schedule.theta[i] * target * schedule.dt) / denom
        restored_u = x
    else:
        means, variances = chain_moments(x0, target, schedule)

        def score(x, step):
            if variances[step] <= 0:
                raise NumericError("score is undefined where the chain variance is <= 0")
            return -(x - means[step]) / variances[step]

        finals = backward_simulate(x_end, target, schedule, score, seed=seed, n_traj=ensemble)
        restored_u = finals.mean(axis=0)

    restored_pu = np.clip(restored_u, 0.0, 1.0).reshape(u_gt.shape) * peak
    decoded = pu_decode(restored_pu, enc) / mapping.scale
    restored = LinearImage(np.clip(decoded, 0.0, None).astype(np.float32))

    error_map = np.mean(np.abs(restored_pu - u_gt * peak), axis=-1)
    score_row = PerImageScore(
        image="sde-demo",
        pu_psnr=pu_psnr(restored, hdr_gt, enc, mapping),
        pu_ssim=pu_ssim(restored, hdr_gt, enc, mapping) if min(u_gt.shape[:2]) >= 11 else float("nan"),
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
        forward_history=forward[0],
        diagnostics=diagnostics,
    )
