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
        if not all(0 < v < np.inf for v in theta):
            raise DomainError("all theta must be finite and positive")
        if not all(0 <= v < np.inf for v in sigma):
            raise DomainError("all sigma must be finite and non-negative")
        if not (0 < self.dt < np.inf):
            raise DomainError("dt must be finite and positive")
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
# SC'11): round multipliers and the Weyl increments of the key. The kernel
# keeps the words in pairs, x = (c0, c2) and y = (c1, c3), so that one numpy
# call does both halves of a round.
_PHILOX_M = np.array([0xD2511F53, 0xCD9E8D57], dtype=np.uint64)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_WORD = 0xFFFFFFFF
# Lanes per Philox pass, and the demo's tile in lanes: small enough that a
# pass's buffers stay in cache (the fastest of 8192, 16384 and 32768 for the
# demo at 64^2 on a 2-CPU host).
_LANE_CHUNK = 16_384


def _round_keys(key) -> list:
    """The key pair (k0, k1) of each of the 10 rounds, as a uint64 (2,) array."""
    k0, k1 = (int(k) for k in key)
    return [np.array([(k0 + r * _PHILOX_W[0]) & _WORD, (k1 + r * _PHILOX_W[1]) & _WORD],
                     dtype=np.uint64) for r in range(10)]


def _philox_rounds(x, y, p, keys) -> None:
    """Philox4x32 rounds in place on the word pairs x = (c0, c2) and y = (c1, c3).

    x, y and the scratch p are uint64 arrays of one shape (2, ...), one 32-bit
    word per element; `keys` holds one key pair per round. No array is
    allocated.
    """
    col = (2,) + (1,) * (x.ndim - 1)
    mult = _PHILOX_M.reshape(col)
    for key in keys:
        np.multiply(x, mult, out=p)  # (c0 * M0, c2 * M1)
        np.right_shift(p[::-1], 32, out=x)
        np.bitwise_xor(x, y, out=x)
        np.bitwise_xor(x, key.reshape(col), out=x)  # (hi1 ^ c1 ^ k0, hi0 ^ c3 ^ k1)
        np.bitwise_and(p[::-1], _WORD, out=y)  # (lo1, lo0)


def _philox4x32(ctr, key) -> tuple:
    """Philox4x32-10, vectorized over lanes.

    `ctr` holds the four counter words and `key` the two key words, each a
    32-bit value; counter words may be uint64 arrays (one 32-bit word per
    element), broadcast together. Returns the four output words as uint64
    arrays of 32-bit values.
    """
    c0, c1, c2, c3 = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint64) for c in ctr))
    x, y = np.array([c0, c2]), np.array([c1, c3])
    _philox_rounds(x, y, np.empty_like(x), _round_keys(key))
    return x[0], y[0], x[1], y[1]


def _noise_blocks(seed: int, stream: int, n_traj: int, dim: int, steps: int, offset: int = 0):
    """Standard-normal noise of one simulation, one 4-step block at a time.

    Returns `block(m)`: an array (4, n_traj, dim) whose row s is the noise of
    step 4m + s. Every block is written into one buffer, allocated at the
    first call, so a returned block is valid only until the next call.
    Lane (k, j) of block m is Philox4x32-10 of the counter
    (m, offset + j, k, stream) under a key derived from `seed`, its four
    words turned into four normals by Box-Muller. A value therefore depends
    only on (seed, stream, k, element, step): element j of a flattened image
    run follows the same noise as element j of any other run with the same
    seed, a run over elements [lo, hi) with `offset=lo` draws exactly the
    whole run's noise there, and extra trajectories leave the earlier ones
    alone. Working memory is the block, O(n_traj x dim), plus scratch of at
    most `_LANE_CHUNK` lanes, so a caller that runs a state one tile of
    elements at a time holds O(n_traj x tile); a block call allocates no
    array memory.
    """
    if seed < 0:
        raise DomainError("seed must be >= 0")
    if offset < 0 or max(offset + dim, n_traj, steps // 4) >= 2**32:
        raise DomainError("offset must be >= 0, and offset + dim, n_traj and steps // 4 "
                          "must each stay below 2^32")
    keys = _round_keys(np.random.SeedSequence(int(seed)).generate_state(2, np.uint32))
    # A pass takes a group of trajectories times a range of elements, so that
    # round 0, whose products see only the block index m and the trajectory
    # k, is one XOR of a trajectory column and an element row, both built at
    # the first call.
    nj = min(dim, _LANE_CHUNK)
    nk = min(n_traj, max(1, _LANE_CHUNK // nj))
    bufs = None

    def block(m: int) -> np.ndarray:
        nonlocal bufs
        if bufs is None:
            k_mul = np.arange(n_traj, dtype=np.uint64)[:, None] * _PHILOX_M[1]
            bufs = ((k_mul >> 32) ^ keys[0][0], k_mul & _WORD,
                    np.arange(offset, offset + dim, dtype=np.uint64),
                    np.empty((4, n_traj, dim)), *np.empty((3, 2, nk, nj), np.uint64))
        k_hi, k_lo, elem, out, x, y, p = bufs
        pairs = out.reshape(2, 2, n_traj, dim)  # pairs[s, 0] and [s, 1]: rows 2s and 2s + 1
        m_mul = m * int(_PHILOX_M[0])
        for klo in range(0, n_traj, nk):
            khi = min(klo + nk, n_traj)
            for jlo in range(0, dim, nj):
                jhi = min(jlo + nj, dim)
                xs, ys, ps = (b[:, :khi - klo, :jhi - jlo] for b in (x, y, p))
                # round 0 of the counter (m, j, k, stream), then rounds 1 to 9
                np.bitwise_xor(k_hi[klo:khi], elem[jlo:jhi], out=xs[0])
                xs[1].fill((m_mul >> 32) ^ stream ^ int(keys[0][1]))
                np.copyto(ys[0], k_lo[klo:khi])
                ys[1].fill(m_mul & _WORD)
                _philox_rounds(xs, ys, ps, keys[1:])
                # Box-Muller of the pairs (c0, c1) and (c2, c3), u = (w + 1/2) 2^-32,
                # at the angle 2 pi (u_a - 1/2): its cosine and sine from the
                # tangent t of the half angle, which numpy evaluates several
                # times faster than cos and sin of the full angle. Each line
                # rounds the same real number as radius, pi (u_a - 1/2),
                # scale = radius / (1 + t^2), scale (1 - t^2) and (2 scale) t:
                # the other steps are exact (scaling by 2, and w - (2^31 - 1/2)).
                even, odd = pairs[:, 0, klo:khi, jlo:jhi], pairs[:, 1, klo:khi, jlo:jhi]
                q = ps.view(np.float64)  # the rounds' scratch, free again
                np.add(xs, 0.5, out=even)
                np.multiply(even, 2.0**-32, out=even)
                np.log(even, out=even)
                np.multiply(even, -2.0, out=even)
                np.sqrt(even, out=even)  # radius
                np.subtract(ys, 2.0**31 - 0.5, out=odd)
                np.multiply(odd, np.pi * 2.0**-32, out=odd)
                np.tan(odd, out=odd)  # t
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
    x0v, muv = _paired(_state(x0, "x0"), "x0", mu)
    if n_traj < 1:
        raise DomainError("n_traj must be >= 1")
    steps, dt = sched.steps, sched.dt
    noise = _noise_blocks(seed, 0, n_traj, x0v.size, steps, offset)
    history = np.empty((n_traj, steps + 1, x0v.size)) if return_history else None
    if history is not None:
        history[:, 0, :] = x0v
    x = np.broadcast_to(x0v, (n_traj, x0v.size)).copy()
    drift = np.empty_like(x)
    sqdt = np.sqrt(dt)
    for i in range(steps):
        if i % 4 == 0:
            block = noise(i // 4)
        # x + theta (mu - x) dt + sigma sqrt(dt) z, in this order of operations;
        # each noise row is read once, so it takes the scaled noise
        np.subtract(muv, x, out=drift)
        np.multiply(drift, sched.theta[i], out=drift)
        np.multiply(drift, dt, out=drift)
        np.add(x, drift, out=drift)
        np.multiply(block[i % 4], sched.sigma[i] * sqdt, out=block[i % 4])
        np.add(drift, block[i % 4], out=x)
        if history is not None:
            history[:, i + 1, :] = x
    return history if return_history else x


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
    (n_traj, dim). Working memory beyond the score is O(n_traj x dim), or
    O(n_traj x tile) for a state run one tile at a time.
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
    noise = _noise_blocks(seed, 1, n_traj, xv.size, steps, offset)
    x = np.broadcast_to(xv if starts is None else starts, (n_traj, xv.size)).copy()
    drift, term = np.empty_like(x), np.empty_like(x)
    sqdt = np.sqrt(dt)
    for i in range(steps - 1, -1, -1):
        if i == steps - 1 or i % 4 == 3:
            block = noise(i // 4)
        score = np.asarray(score_fn(x, i + 1), dtype=np.float64)
        # x - (theta (mu - x) - sigma^2 score) dt + sigma sqrt(dt) z, in this
        # order of operations; the score is read before x is written
        np.subtract(muv, x, out=drift)
        np.multiply(drift, sched.theta[i], out=drift)
        np.multiply(score, sched.sigma[i] ** 2, out=term)
        np.subtract(drift, term, out=drift)
        np.multiply(drift, dt, out=drift)
        np.subtract(x, drift, out=drift)
        np.multiply(block[i % 4], sched.sigma[i] * sqdt, out=block[i % 4])
        np.add(drift, block[i % 4], out=x)
    return x


def ou_moments(x0, mu, theta: float, sigma: float, t):
    """Closed-form Ornstein-Uhlenbeck mean and variance at continuous time t."""
    tv = np.asarray(t, dtype=np.float64)
    if not (0 < theta < np.inf and 0 <= sigma < np.inf and np.isfinite(tv).all()
            and (tv >= 0).all()):
        raise DomainError("theta must be finite and positive, sigma finite and non-negative, "
                          "and t finite and non-negative")
    x0v = np.asarray(x0, dtype=np.float64)
    muv = np.asarray(mu, dtype=np.float64)
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

    The simulation runs one tile of elements at a time, each a call of
    `forward_simulate` or `backward_simulate` with the tile's element offset,
    so its noise, and every output byte, equals a whole-image run's. A
    backward tile holds `_LANE_CHUNK // ensemble` elements; the forward pass,
    one trajectory, takes `_LANE_CHUNK` elements a tile, after a first tile of
    the tracked elements alone that records their paths. Working memory is
    O(ensemble x tile + pixels), whatever the number of steps.
    """
    if ensemble < 1:
        raise DomainError(f"ensemble must be >= 1; got {ensemble!r}")
    schedule = sched or SdeSchedule.cosine()
    pu_ldr, pu_gt, peak = pu_fields(ldr, hdr_gt, encoding, mapping)
    u_gt = pu_gt / peak
    u_ldr = pu_ldr / peak
    x0 = u_gt.ravel()
    target = u_ldr.ravel()

    head = min(_TRACKED_PIXELS, x0.size)
    tracked = forward_simulate(x0[:head], target[:head], schedule, seed=seed)[0]
    x_end = np.empty_like(x0)
    x_end[:head] = tracked[-1]
    for lo in range(head, x0.size, _LANE_CHUNK):
        hi = lo + _LANE_CHUNK
        x_end[lo:hi] = forward_simulate(x0[lo:hi], target[lo:hi], schedule, seed=seed,
                                        return_history=False, offset=lo)[0]

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
        restored_u = np.empty_like(x0)
        tile = max(1, _LANE_CHUNK // ensemble)
        work = np.empty((ensemble, tile))
        for lo in range(0, x0.size, tile):
            hi = min(lo + tile, x0.size)

            def score(x, step, target=target[lo:hi], gap=gap[lo:hi], out=work[:, :hi - lo]):
                # -(x - (target + gap a_step)) / v_step, into one reused buffer;
                # dividing by -v_step rounds to the same bytes as negating
                if variances[step] <= 0:
                    raise NumericError("score is undefined where the chain variance is <= 0")
                np.subtract(x, target + gap * decay[step], out=out)
                return np.divide(out, -variances[step], out=out)

            finals = backward_simulate(x_end[lo:hi], target[lo:hi], schedule, score, seed=seed,
                                       n_traj=ensemble, offset=lo)
            restored_u[lo:hi] = finals.mean(axis=0)

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
