"""Desk-scale simulator for the mean-reverting restoration SDE.

Forward degradation dx = theta_t (mu - x) dt + sigma_t dw drifts the clean
state toward the degraded observation mu while injecting noise; the backward
pass reverses it with a caller-supplied score function. Both directions run
one Euler-Maruyama loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .color import DisplayMapping, _float64, _int_at_least, _number, _numbers, _real
from .errors import DomainError, ShapeError
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
        object.__setattr__(self, "theta", _numbers(self.theta, "theta", "positive"))
        object.__setattr__(self, "sigma", _numbers(self.sigma, "sigma", "non-negative"))
        object.__setattr__(self, "dt", _number(self.dt, "dt", "positive"))
        if len(self.theta) != len(self.sigma) or not self.theta:
            raise DomainError("theta and sigma must be equal-length and non-empty")

    @property
    def steps(self) -> int:
        return len(self.theta)

    @staticmethod
    def cosine(steps: int = 100) -> "SdeSchedule":
        """Cosine ramp of theta from 0.1 to 2.0 at dt 0.05; sigma_t = 0.1 sqrt(2 theta_t)
        keeps the stationary standard deviation at 0.1 (a documented,
        non-normative parameterization)."""
        steps = _int_at_least(steps, "steps", 1)
        i = np.arange(steps)
        theta = 0.1 + 0.5 * (2.0 - 0.1) * (1.0 - np.cos(np.pi * (i + 0.5) / steps))
        sigma = 0.1 * np.sqrt(2.0 * theta)
        return SdeSchedule(tuple(theta), tuple(sigma), 0.05)


def _state(x, name: str) -> np.ndarray:
    return _float64(x, name, "signed").reshape(-1)


def _paired(x: np.ndarray, name: str, mu) -> tuple:
    """State vector x (called `name`) and mu as vectors of one size; a size-1 side is broadcast."""
    muv = _state(mu, "mu")
    if x.size == 0 or muv.size == 0:
        raise ShapeError(f"{name} and mu must hold at least one element")
    if x.size == 1 and muv.size > 1:
        x = np.full_like(muv, x[0])
    if muv.size == 1 and x.size > 1:
        muv = np.full_like(x, muv[0])
    if x.shape != muv.shape:
        raise ShapeError(f"{name} and mu must have matching sizes")
    return x, muv


# SplitMix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014): the Weyl increment and the finalizer's multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
# Lanes per pass, and the demo's tile in lanes. Re-timed against 8192 and
# 32768 with this kernel (demo at 64^2, 2-CPU host, 7 alternating rounds), it
# was fastest in 5 rounds and 32768 in 2; tiling moves no output byte.
_LANE_CHUNK = 16_384


def _mix64(z, t) -> None:
    """SplitMix64's finalizer in place on the uint64 array z, mod 2^64; t is
    scratch of z's shape, so no array is allocated."""
    for shift, mult in zip((30, 27), _MIX):
        np.right_shift(z, shift, out=t)
        np.bitwise_xor(z, t, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, 31, out=t)
    np.bitwise_xor(z, t, out=z)


def _noise_blocks(seed: int, stream: int, n_traj: int, dim: int, steps: int, offset: int = 0):
    """Standard-normal noise of one simulation, one 4-step block at a time.

    Returns `block(m)`: an array (4, n_traj, dim) whose row s is the noise of
    step 4m + s. Every block is written into one buffer, allocated at the
    first call, so a returned block is valid only until the next call.
    With mix SplitMix64's finalizer, gamma its increment, arithmetic mod
    2^64 and K a key derived from `seed`, trajectory k of block m has the
    stream seed S = mix(mix(K + (2m + stream + 1) gamma) + (k + 1) gamma),
    and lane (k, j) the two words z_h = mix(S + (2(offset + j) + h + 1) gamma),
    outputs 2(offset + j) + h + 1 of the SplitMix64 generator seeded with S.
    Word h gives rows 2h and 2h + 1 by Box-Muller, its high 32 bits the
    radius and its low 32 bits the angle. A value therefore depends only on
    (seed, stream, k, element, step): element j of a flattened image run
    follows the same noise as element j of any other run with the same seed,
    a run over elements [lo, hi) with `offset=lo` draws exactly the whole
    run's noise there, and extra trajectories leave the earlier ones alone.
    Working memory is the block, O(n_traj x dim), plus scratch of at most
    `_LANE_CHUNK` lanes, so a caller that runs a state one tile of elements
    at a time holds O(n_traj x tile); a block call allocates no array memory.
    """
    seed = _int_at_least(seed, "seed", 0)
    offset = _int_at_least(offset, "offset", 0)
    if max(offset + dim, n_traj, steps // 4) >= 2**32:
        raise DomainError("offset + dim, n_traj and steps // 4 must each stay below 2^32")
    key = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
    # A pass takes a group of trajectories times a range of elements, so that
    # its words are one sum of a stream-seed column and an element row.
    nj = min(dim, _LANE_CHUNK)
    nk = min(n_traj, max(1, _LANE_CHUNK // nj))
    bufs = None

    def block(m: int) -> np.ndarray:
        nonlocal bufs
        if bufs is None:
            lane = np.arange(2 * offset, 2 * (offset + dim), 2, dtype=np.uint64)
            bufs = (np.arange(1, n_traj + 1, dtype=np.uint64) * _GAMMA,
                    (lane + np.array([[1], [2]], dtype=np.uint64)) * _GAMMA,
                    np.empty((2, n_traj), np.uint64), np.empty((4, n_traj, dim)),
                    *np.empty((2, 2, nk, nj), np.uint64))
        k_inc, lane_inc, seeds, out, z, t = bufs
        pairs = out.reshape(2, 2, n_traj, dim)  # pairs[h, 0] and [h, 1]: rows 2h and 2h + 1
        seeds[0].fill((key + (2 * m + stream + 1) * int(_GAMMA)) % 2**64)
        _mix64(seeds[0], seeds[1])
        np.add(seeds[0], k_inc, out=seeds[0])
        _mix64(seeds[0], seeds[1])  # the stream seed S of each trajectory
        for klo in range(0, n_traj, nk):
            khi = min(klo + nk, n_traj)
            for jlo in range(0, dim, nj):
                jhi = min(jlo + nj, dim)
                zs, ts = (b[:, :khi - klo, :jhi - jlo] for b in (z, t))
                np.add(lane_inc[:, None, jlo:jhi], seeds[0, klo:khi, None], out=zs)
                _mix64(zs, ts)
                # Box-Muller of the word's halves, u = (w + 1/2) 2^-32, at the
                # angle 2 pi (u_a - 1/2): its cosine and sine from the tangent
                # t of the half angle, which numpy evaluates several times
                # faster than cos and sin of the full angle. Each line rounds
                # the same real number as radius, pi (u_a - 1/2),
                # scale = radius / (1 + t^2), scale (1 - t^2) and (2 scale) t:
                # the other steps are exact (scaling by 2, and w - (2^31 - 1/2)).
                even, odd = pairs[:, 0, klo:khi, jlo:jhi], pairs[:, 1, klo:khi, jlo:jhi]
                np.right_shift(zs, 32, out=ts)
                np.add(ts, 0.5, out=even)
                np.multiply(even, 2.0**-32, out=even)
                np.log(even, out=even)
                np.multiply(even, -2.0, out=even)
                np.sqrt(even, out=even)  # radius
                np.bitwise_and(zs, 0xFFFFFFFF, out=zs)
                np.subtract(zs, 2.0**31 - 0.5, out=odd)
                np.multiply(odd, np.pi * 2.0**-32, out=odd)
                np.tan(odd, out=odd)  # t
                q = ts.view(np.float64)  # the high halves' scratch, free again
                np.multiply(odd, odd, out=q)
                np.add(q, 1.0, out=q)
                np.divide(even, q, out=even)  # scale
                np.multiply(odd, odd, out=q)
                np.subtract(1.0, q, out=q)
                np.multiply(odd, even, out=odd)
                np.multiply(odd, 2.0, out=odd)
                np.multiply(even, q, out=even)
        return out

    return block


def _euler(x, muv, sched: SdeSchedule, noise, score_fn=None, history=None) -> None:
    """Euler-Maruyama steps of the state stack x (n_traj, dim), in place, in this order of
    operations. Without `score_fn`: steps 0 ... steps - 1 of x + theta (mu - x) dt +
    sigma sqrt(dt) z, the state after step i into history[:, i + 1] if given. With it:
    steps - 1 ... 0 of x - (theta (mu - x) - sigma^2 score) dt + sigma sqrt(dt) z, the
    score read at step i + 1 before x is written. Each noise row is read once, so it
    takes the scaled noise."""
    backward = score_fn is not None
    order = range(sched.steps - 1, -1, -1) if backward else range(sched.steps)
    apply = np.subtract if backward else np.add
    drift = np.empty_like(x)
    term = np.empty_like(x) if backward else None
    dt, sqdt = sched.dt, np.sqrt(sched.dt)
    m = None
    for i in order:
        if i // 4 != m:
            m = i // 4
            block = noise(m)
        if backward:
            score = _real(score_fn(x, i + 1), "score")
        np.subtract(muv, x, out=drift)
        np.multiply(drift, sched.theta[i], out=drift)
        if backward:
            np.multiply(score, sched.sigma[i] ** 2, out=term, dtype=np.float64)
            np.subtract(drift, term, out=drift)
        np.multiply(drift, dt, out=drift)
        apply(x, drift, out=drift)
        np.multiply(block[i % 4], sched.sigma[i] * sqdt, out=block[i % 4])
        np.add(drift, block[i % 4], out=x)
        if history is not None:
            history[:, i + 1, :] = x


def forward_simulate(x0, mu, sched: SdeSchedule, seed: int = 0, n_traj: int = 1,
                     return_history: bool = True, offset: int = 0) -> np.ndarray:
    """Euler-Maruyama ensemble of the forward SDE.

    Returns trajectories of shape (n_traj, steps + 1, dim), or with
    `return_history=False` only the final states (n_traj, dim), bit-equal to
    the history's last step, without allocating the history. x0 and mu may
    be scalars or equal-length vectors (flattened images). `offset` is the
    element index of x0[0] in the run's noise counters: a call over elements
    [lo, hi) with `offset=lo` gives exactly those columns of the whole run.
    Working memory beyond the history is O(n_traj x dim), or O(n_traj x tile)
    for a state run one tile at a time.
    """
    n_traj = _int_at_least(n_traj, "n_traj", 1)
    x0v, muv = _paired(_state(x0, "x0"), "x0", mu)
    noise = _noise_blocks(seed, 0, n_traj, x0v.size, sched.steps, offset)
    history = np.empty((n_traj, sched.steps + 1, x0v.size)) if return_history else None
    if history is not None:
        history[:, 0, :] = x0v
    x = np.broadcast_to(x0v, (n_traj, x0v.size)).copy()
    _euler(x, muv, sched, noise, history=history)
    return x if history is None else history


def backward_simulate(xT, mu, sched: SdeSchedule, score_fn, seed: int = 0,
                      n_traj: int = 1, offset: int = 0) -> np.ndarray:
    """Reverse-time Euler-Maruyama with drift theta (mu - x) - sigma^2 * score.

    `score_fn(x, step)` receives the state (n_traj, dim) at each step from
    `steps` down to 1, with that 1-based step index; it must return the score
    field (an array broadcastable to the state, or a scalar). So the hook
    sees the whole path but the returned state, and a hook that records it
    must copy `x`, which is updated in place after the call. `xT` may be a
    scalar, a state vector (dim,), or a per-trajectory stack (n_traj, dim).
    `offset` is the element index of the state's first element in the run's
    noise counters, as in `forward_simulate`. Returns the restored states
    (n_traj, dim); a non-finite one is a DomainError that names the score,
    as the other inputs are finite. Working memory beyond the score is
    O(n_traj x dim), or O(n_traj x tile) for a state run one tile at a time.
    """
    n_traj = _int_at_least(n_traj, "n_traj", 1)
    xT_arr = _float64(xT, "xT", "signed")
    starts = xT_arr if xT_arr.ndim == 2 else None
    if starts is not None:
        if n_traj not in (1, len(starts)):
            raise ShapeError("n_traj conflicts with the per-trajectory xT stack")
        n_traj = _int_at_least(len(starts), "n_traj", 1)  # an empty stack has no trajectory
    xv, muv = _paired(xT_arr.reshape(-1) if starts is None else starts[0], "xT", mu)
    noise = _noise_blocks(seed, 1, n_traj, xv.size, sched.steps, offset)
    x = np.broadcast_to(xv if starts is None else starts, (n_traj, xv.size)).copy()
    _euler(x, muv, sched, noise, score_fn)
    if not np.isfinite(x).all():
        raise DomainError("score_fn must return scores that keep the state finite")
    return x


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


_TRACKED_PIXELS = 4  # leading state elements whose forward path the demo records
_ENSEMBLE = 16  # backward trajectories whose mean the demo draws


@dataclass
class SdeDemoResult:
    report: MetricReport
    restored: LinearImage
    error_map: np.ndarray
    forward_history: np.ndarray  # (steps + 1, min(4, dim)) PU-space path of the first elements
    diagnostics: dict = field(default_factory=dict)


def itm_sde_demo(ldr: LinearImage, hdr_gt: LinearImage, steps: int = 100,
                 encoding: PuEncoding | None = None,
                 mapping: DisplayMapping = DisplayMapping(),
                 seed: int = 0) -> SdeDemoResult:
    """Diagnostic run of the restoration SDE machinery (no learned score).

    The clean state is the PU-encoded ground truth, the mean-reversion target
    the PU-encoded degraded input, and the schedule `SdeSchedule.cosine(steps)`.
    Forward Euler-Maruyama degrades toward the target; the backward pass
    restores with the analytic Gaussian score built from the forward chain's
    closed-form statistics, whose variance the cosine schedule keeps positive
    at every step. Reports PU-space errors of the decoded reconstruction, one
    draw from the law of the mean of `_ENSEMBLE` backward trajectories: that
    score is affine in the state, so the mean is itself one backward chain.

    The simulation runs one tile of `_LANE_CHUNK` elements at a time, each a
    call of `forward_simulate` and one of `backward_simulate` with the tile's
    element offset, so its noise, and every output byte, equals a whole-image
    run's. A first forward run of the tracked elements alone records their
    paths. Working memory is O(tile + pixels), whatever the number of steps.
    """
    schedule = SdeSchedule.cosine(steps)
    pu_ldr, pu_gt, peak = pu_fields(ldr, hdr_gt, encoding, mapping)
    u_gt = pu_gt / peak
    x0 = u_gt.ravel()
    target = (pu_ldr / peak).ravel()

    head = min(_TRACKED_PIXELS, x0.size)
    tracked = forward_simulate(x0[:head], target[:head], schedule, seed=seed)[0]
    decay, variances = _chain_scalars(schedule)
    gap = x0 - target
    # The score is affine in the state, so the mean of _ENSEMBLE backward chains from one
    # start follows one chain whose sigma is divided by sqrt(_ENSEMBLE) and whose score is
    # multiplied by _ENSEMBLE: sigma^2 score, the drift's score term, is unchanged.
    mean_law = SdeSchedule(schedule.theta, tuple(np.divide(schedule.sigma, np.sqrt(_ENSEMBLE))),
                           schedule.dt)
    x_end, restored_u = np.empty((2, x0.size))
    work = np.empty((1, min(_LANE_CHUNK, x0.size)))
    for lo in range(0, x0.size, _LANE_CHUNK):
        hi = min(lo + _LANE_CHUNK, x0.size)
        x_end[lo:hi] = forward_simulate(x0[lo:hi], target[lo:hi], schedule, seed=seed,
                                        return_history=False, offset=lo)[0]

        def score(x, step, target=target[lo:hi], gap=gap[lo:hi], out=work[:, :hi - lo]):
            # -_ENSEMBLE (x - (target + gap a_step)) / v_step, into one reused buffer; as
            # _ENSEMBLE is a power of 2, dividing by -v_step / _ENSEMBLE rounds to those bytes
            np.subtract(x, target + gap * decay[step], out=out)
            return np.divide(out, -variances[step] / _ENSEMBLE, out=out)

        restored_u[lo:hi] = backward_simulate(x_end[lo:hi], target[lo:hi], mean_law, score,
                                              seed=seed, offset=lo)[0]

    restored_pu = np.clip(restored_u, 0.0, 1.0).reshape(u_gt.shape) * peak
    decoded = pu_decode(restored_pu, encoding) / mapping.scale
    restored = LinearImage(np.clip(decoded, 0.0, None).astype(np.float32))

    error_map = np.mean(np.abs(restored_pu - u_gt * peak), axis=-1)
    score_row = PerImageScore(
        image="sde-demo",
        pu_psnr=pu_psnr(restored, hdr_gt, encoding, mapping),
        pu_ssim=(pu_ssim(restored, hdr_gt, encoding, mapping) if min(u_gt.shape[:2]) >= SSIM_WINDOW
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
