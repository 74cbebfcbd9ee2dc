import math
import tracemalloc

import numpy as np
import pytest

from itmbench import sde
from itmbench.camera import Crf, NoiseParams, generate_dataset, simulate_ldr
from itmbench.color import DisplayMapping
from itmbench.errors import DomainError, ShapeError
from itmbench.image_io import LinearImage
from itmbench.operators import naive_expand
from itmbench.pu21 import PuEncoding, pu_fields
from itmbench.sde import (SdeSchedule, _chain_scalars, _mix64, backward_simulate,
                          forward_simulate, itm_sde_demo)
from oracles import make_ou_score, naive_chain_moments, naive_splitmix64, ou_moments


def _constant(theta, sigma, dt, steps):
    return SdeSchedule((theta,) * steps, (sigma,) * steps, dt)


class TestSchedule:
    def test_cosine_shape_and_positivity(self):
        sched = SdeSchedule.cosine(steps=100)
        assert sched.steps == 100
        assert all(t > 0 for t in sched.theta)
        assert all(s >= 0 for s in sched.sigma)
        # theta ramps monotonically under the half-cosine
        assert all(a <= b for a, b in zip(sched.theta, sched.theta[1:]))

    def test_cosine_constants(self):
        # theta from 0.1 to 2.0 at dt 0.05, stationary standard deviation 0.1
        sched = SdeSchedule.cosine(steps=2)
        assert sched.dt == 0.05
        assert sched.theta == pytest.approx((0.1 + 0.95 * (1 - np.cos(np.pi / 4)),
                                             0.1 + 0.95 * (1 - np.cos(3 * np.pi / 4))), rel=1e-15)
        assert sched.sigma == pytest.approx(tuple(0.1 * np.sqrt(2 * t) for t in sched.theta),
                                            rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            SdeSchedule((0.0,), (0.1,), 0.01)
        with pytest.raises(DomainError):
            SdeSchedule((1.0,), (0.1, 0.2), 0.01)
        with pytest.raises(DomainError):
            SdeSchedule((1.0,), (0.1,), 0.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(DomainError, match="dt must be finite"):
                SdeSchedule((1.0,), (0.1,), bad)
            with pytest.raises(DomainError, match="theta must be finite"):
                SdeSchedule((1.0, bad), (0.1, 0.1), 0.01)
            with pytest.raises(DomainError, match="sigma must be finite"):
                SdeSchedule((1.0, 1.0), (0.1, bad), 0.01)
        for theta, sigma, dt in (((1.0,), (0.1,), "x"), (None, (0.1,), 0.1),
                                 (("x",), (0.1,), 0.1), ((1.0,), (0.1,), 10**400)):
            with pytest.raises(DomainError,
                               match="^(theta|dt) must be (a real number|a sequence|finite)"):
                SdeSchedule(theta, sigma, dt)
        sched = SdeSchedule((1.0,), (0.1,), True)
        assert type(sched.dt) is float and sched.dt == 1.0

    @pytest.mark.parametrize("steps", [0, -3])
    def test_factories_reject_non_positive_steps(self, steps):
        with pytest.raises(DomainError, match="steps must be >= 1"):
            SdeSchedule.cosine(steps=steps)

    @pytest.mark.parametrize("steps", [2.5, float("nan"), np.float64(3.0)])
    def test_factories_reject_non_integer_steps(self, steps):
        # cosine(2.5) once gave 3 steps through np.arange
        with pytest.raises(DomainError, match="steps must be an integer"):
            SdeSchedule.cosine(steps=steps)

    def test_factories_accept_numpy_integer_steps(self):
        assert SdeSchedule.cosine(np.int64(3)) == SdeSchedule.cosine(3)


class TestForward:
    def test_fixed_point_at_target(self):
        sched = _constant(0.8, 0.0, 0.01, 50)
        traj = forward_simulate(0.4, 0.4, sched, seed=1, n_traj=3)
        assert np.allclose(traj, 0.4, atol=0.0)

    def test_deterministic_geometric_decay(self):
        theta, dt, steps = 0.7, 0.02, 40
        sched = _constant(theta, 0.0, dt, steps)
        traj = forward_simulate(2.0, 0.5, sched, seed=0)[0, :, 0]
        t = np.arange(steps + 1)
        expected = 0.5 + 1.5 * (1.0 - theta * dt) ** t
        assert np.abs(traj - expected).max() <= 1e-12

    def test_seeded_reproducibility_per_trajectory(self):
        sched = _constant(1.0, 0.3, 0.01, 20)
        a = forward_simulate(1.0, 0.0, sched, seed=9, n_traj=4)
        b = forward_simulate(1.0, 0.0, sched, seed=9, n_traj=8)
        assert np.array_equal(a, b[:4])  # extra trajectories do not disturb earlier ones

    def test_dimension_agnostic_per_element(self):
        sched = _constant(1.0, 0.3, 0.01, 20)
        scalar = forward_simulate(1.0, 0.0, sched, seed=5, n_traj=2)
        vector = forward_simulate([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], sched, seed=5, n_traj=2)
        assert np.array_equal(scalar[:, :, 0], vector[:, :, 0])
        assert not np.array_equal(vector[:, :, 0], vector[:, :, 1])

    def test_final_state_without_history_is_last_history_row(self, rng):
        sched = SdeSchedule.cosine(steps=13)
        x0, mu = rng.uniform(0.0, 1.0, (2, 5000))
        history = forward_simulate(x0, mu, sched, seed=6, n_traj=3)
        final = forward_simulate(x0, mu, sched, seed=6, n_traj=3, return_history=False)
        assert final.shape == (3, 5000)
        assert np.array_equal(final, history[:, -1, :])

    def test_leading_elements_replay_a_full_width_run(self, rng):
        # the demo's tracked paths: a run over the first 4 elements alone; the
        # full width spans two passes of `_LANE_CHUNK` lanes
        dim = sde._LANE_CHUNK + 1000
        sched = SdeSchedule.cosine(steps=9)
        x0, mu = rng.uniform(0.0, 1.0, (2, dim))
        full = forward_simulate(x0, mu, sched, seed=2)
        replay = forward_simulate(x0[:4], mu[:4], sched, seed=2)
        assert np.array_equal(replay, full[:, :, :4])

    def test_moments_match_ou_oracle(self):
        sched = _constant(1.0, 0.5, 0.01, 200)
        traj = forward_simulate(2.0, 0.0, sched, seed=77, n_traj=4000)
        final = traj[:, -1, 0]
        mean_th, var_th = ou_moments(2.0, 0.0, 1.0, 0.5, 200 * 0.01)
        se = final.std(ddof=1) / np.sqrt(final.size)
        assert abs(final.mean() - mean_th) <= 3 * se
        assert abs(final.var(ddof=1) - var_th) <= 0.1 * var_th

    def test_moment_error_shrinks_with_dt(self):
        # deterministic part: |(1-theta*dt)^n - e^-theta*T| decreases with dt
        errors = []
        for dt in (0.02, 0.01, 0.005):
            steps = int(round(2.0 / dt))
            sched = _constant(1.0, 0.0, dt, steps)
            final = forward_simulate(1.0, 0.0, sched, seed=0)[0, -1, 0]
            errors.append(abs(final - np.exp(-2.0)))
        assert errors[0] > errors[1] > errors[2]

    def test_chain_variance_converges_to_ou_with_dt(self):
        # exact discretized-chain variance approaches the continuous OU value
        theta, sigma, horizon = 1.0, 0.5, 2.0
        _, var_ou = ou_moments(1.0, 0.0, theta, sigma, horizon)
        errors = []
        for dt in (0.02, 0.01, 0.005):
            steps = int(round(horizon / dt))
            sched = _constant(theta, sigma, dt, steps)
            _, variances = _chain_scalars(sched)
            errors.append(abs(variances[-1] - var_ou))
        assert errors[0] > errors[1] > errors[2]


class TestBackward:
    def test_zero_noise_zero_score_recurrence(self):
        # backward is the forward recurrence with negated time step, exactly
        theta, dt, steps = 0.5, 0.02, 30
        sched = _constant(theta, 0.0, dt, steps)
        x_end = 1.25
        mu = 0.25
        final = backward_simulate(x_end, mu, sched, lambda x, step: 0.0, seed=0)[0, 0]
        expected = mu + (x_end - mu) * (1.0 + theta * dt) ** steps
        assert final == pytest.approx(expected, abs=1e-12)

    def test_zero_noise_retrace_within_dt_squared_bound(self):
        theta, dt, steps = 1.0, 0.01, 100
        sched = _constant(theta, 0.0, dt, steps)
        fwd = forward_simulate(2.0, 0.0, sched, seed=0)[0, -1, 0]
        back = backward_simulate(fwd, 0.0, sched, lambda x, step: 0.0, seed=0)[0, 0]
        # per-step mismatch is theta^2 dt^2 (x - mu); total stays O(steps * dt^2)
        assert abs(back - 2.0) <= 2.0 * steps * (theta * dt) ** 2

    def test_single_step_hand_arithmetic(self):
        sched = _constant(0.5, 0.0, 0.1, 1)
        score_value = 0.3

        def score(x, step):
            assert step == 1
            return score_value

        final = backward_simulate(2.0, 1.0, sched, score, seed=0)[0, 0]
        # x0 = x1 - [theta (mu - x1) - sigma^2 score] dt, sigma = 0
        expected = 2.0 - (0.5 * (1.0 - 2.0) - 0.0) * 0.1
        assert final == pytest.approx(expected, abs=1e-15)

    def test_gaussian_score_recovers_mean(self):
        sched = _constant(1.0, 0.5, 0.01, 300)
        x0, mu = 1.0, 0.8
        fwd = forward_simulate(x0, mu, sched, seed=11, n_traj=3000)
        score = make_ou_score(x0, mu, 1.0, 0.5, 0.01)
        back = backward_simulate(fwd[:, -1, :], mu, sched, score, seed=11)
        b = back[:, 0]
        se = b.std(ddof=1) / np.sqrt(b.size)
        assert abs(b.mean() - x0) <= 3 * se

    def test_non_finite_trajectory_stack_rejected(self):
        sched = _constant(1.0, 0.1, 0.01, 5)
        stack = np.zeros((3, 2))
        stack[2, 1] = np.nan
        with pytest.raises(DomainError, match="xT must be finite"):
            backward_simulate(stack, np.zeros(2), sched, lambda x, s: 0.0)

    def test_shape_conflict_rejected(self):
        sched = _constant(1.0, 0.1, 0.01, 5)
        with pytest.raises(ShapeError):
            backward_simulate(np.zeros((4, 2)), np.zeros(2), sched,
                              lambda x, s: 0.0, n_traj=3)

    # a string score was parsed, a complex one warned and dropped its imaginary part
    @pytest.mark.parametrize("score", [np.array(["0.5"] * 3), "0.5", np.full(3, 1j), 1j,
                                       np.array([None] * 3)], ids=["strings", "string", "complex",
                                                                   "python_complex", "object"])
    def test_score_of_another_kind_is_a_domain_error(self, score):
        with pytest.raises(DomainError, match="^score must be boolean, integer or real float"):
            backward_simulate(np.zeros(3), 0.0, _constant(1.0, 0.1, 0.01, 5), lambda x, s: score)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_is_a_domain_error(self, value):
        # the returned states are checked once, at the end of the call
        with pytest.raises(DomainError, match="^score_fn must return scores that keep the state"):
            backward_simulate(np.array([0.5, 0.2]), 0.0, SdeSchedule.cosine(4),
                              lambda x, s: value)

    def test_float32_or_integer_score_enters_as_its_float64_value(self):
        sched = _constant(1.0, 0.1, 0.01, 5)

        def run(score):
            return backward_simulate(np.ones(3), 0.0, sched, lambda x, s: score, seed=2)

        tenth = np.full(3, 0.1, np.float32)
        assert np.array_equal(run(tenth), run(tenth.astype(np.float64)))
        assert np.array_equal(run(np.full(3, 2)), run(np.full(3, 2.0)))


class TestChainMoments:
    def test_zero_noise_has_zero_variance(self):
        sched = _constant(0.5, 0.0, 0.01, 20)
        a, variances = _chain_scalars(sched)
        x0, mu = 1.0, 0.0
        means = mu + (x0 - mu) * a[:, None]
        assert variances.max() == 0.0
        assert means[-1, 0] == pytest.approx((1 - 0.5 * 0.01) ** 20, abs=1e-12)

    @pytest.mark.parametrize("sched", [SdeSchedule.cosine(steps=100),
                                       _constant(0.8, 0.2, 0.01, 300)])
    def test_closed_form_matches_per_row_recurrence(self, rng, sched):
        x0, mu = rng.uniform(0.05, 1.0, (2, 64))
        a, variances = _chain_scalars(sched)
        means = mu + (x0 - mu) * a[:, None]
        want_means, want_variances = naive_chain_moments(x0.tolist(), mu.tolist(),
                                                         sched.theta, sched.sigma, sched.dt)
        np.testing.assert_allclose(means, want_means, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(variances, want_variances, rtol=1e-13, atol=0.0)

    def test_matches_forward_ensemble(self):
        sched = _constant(1.0, 0.4, 0.01, 100)
        a, variances = _chain_scalars(sched)
        x0, mu = 1.5, 0.0
        means = mu + (x0 - mu) * a[:, None]
        traj = forward_simulate(1.5, 0.0, sched, seed=3, n_traj=4000)
        final = traj[:, -1, 0]
        se = final.std(ddof=1) / np.sqrt(final.size)
        assert abs(final.mean() - means[-1, 0]) <= 3 * se
        assert final.var(ddof=1) == pytest.approx(variances[-1], rel=0.1)


class TestDemo:
    def _pair(self, rng, size=8):
        gt = LinearImage(rng.uniform(0.05, 1.5, (size, size, 3)).astype(np.float32))
        ldr = simulate_ldr(LinearImage(np.clip(gt.data, 0, 1)), 0.0, Crf("gamma"))
        return naive_expand(ldr, Crf("gamma")), gt

    def test_error_map_matches_input_shape(self, rng):
        degraded, gt = self._pair(rng)
        result = itm_sde_demo(degraded, gt, steps=20, seed=4)
        assert result.error_map.shape == (8, 8)

    def test_seeded_run_reproducible_bit_exact(self, rng):
        degraded, gt = self._pair(rng)
        r1 = itm_sde_demo(degraded, gt, steps=25, seed=12)
        r2 = itm_sde_demo(degraded, gt, steps=25, seed=12)
        assert np.array_equal(r1.restored.data, r2.restored.data)
        assert np.array_equal(r1.forward_history, r2.forward_history)

    def test_forward_history_is_the_leading_columns_of_a_full_run(self, rng):
        degraded, gt = self._pair(rng)
        result = itm_sde_demo(degraded, gt, steps=25, seed=12)
        pu_ldr, pu_gt, peak = pu_fields(degraded, gt, PuEncoding.default(), DisplayMapping())
        full = forward_simulate((pu_gt / peak).ravel(), (pu_ldr / peak).ravel(),
                                SdeSchedule.cosine(25), seed=12)
        assert result.forward_history.shape == (26, 4)
        assert np.array_equal(result.forward_history, full[0, :, :4])
        tiny = itm_sde_demo(LinearImage(degraded.data[:1, :1]), LinearImage(gt.data[:1, :1]),
                            steps=25, seed=12)
        assert tiny.forward_history.shape == (26, 3)  # one pixel: three state elements

    def test_memory_does_not_grow_with_steps(self, rng):
        degraded, gt = self._pair(rng, size=32)

        def peak(steps):
            return _traced_peak(lambda: itm_sde_demo(degraded, gt, steps=steps, seed=3))

        assert peak(200) <= 1.5 * peak(25)

    def test_memory_is_bounded_by_the_tile_not_the_image(self, rng):
        # tiles of _LANE_CHUNK elements: a whole-image ensemble of 16 chains at this size
        # read a traced peak of about 56 MB, the tiled run of one chain about 5.3 MiB
        degraded, gt = self._pair(rng, size=128)
        peak = _traced_peak(lambda: itm_sde_demo(degraded, gt, steps=8, seed=3))
        assert peak < 16 << 20, f"peak traced allocation {peak} bytes"

    def test_restoration_follows_the_closed_form_law_of_the_ensemble_mean(self, rng):
        # With the demo's score the backward step is affine in the state plus noise,
        # x <- c x + d + sigma sqrt(dt) z with c = 1 + theta dt - sigma^2 dt / v_(i+1), so
        # from x_end the mean of 16 chains is Gaussian: m <- c m + d, V <- c^2 V +
        # sigma^2 dt / 16, V = 0 at x_end. The z-scores of all 12,288 elements of a 64^2
        # run have mean 0 and variance 1 within about 5 standard errors (0.009 and 0.013).
        degraded, gt = self._pair(rng, size=64)
        pu_ldr, pu_gt, peak = pu_fields(degraded, gt, PuEncoding.default(), DisplayMapping())
        x0, target = (pu_gt / peak).ravel(), (pu_ldr / peak).ravel()
        sched = SdeSchedule.cosine(100)
        x_end = forward_simulate(x0, target, sched, seed=7, return_history=False)[0]
        decay, variances = _chain_scalars(sched)
        gap = x0 - target

        def score(ensemble):
            def at(x, step):
                return (x - (target + gap * decay[step])) / (-variances[step] / ensemble)
            return at

        mean, var = x_end.copy(), 0.0
        for i in reversed(range(sched.steps)):
            noise = sched.sigma[i] ** 2 * sched.dt
            c = 1.0 + sched.theta[i] * sched.dt - noise / variances[i + 1]
            mean = c * mean + noise * (target + gap * decay[i + 1]) / variances[i + 1] \
                - sched.theta[i] * sched.dt * target
            var = c * c * var + noise / 16
        ensemble_mean = backward_simulate(x_end, target, sched, score(1), seed=7,
                                          n_traj=16).mean(axis=0)
        one_chain = backward_simulate(x_end, target, SdeSchedule(
            sched.theta, tuple(np.divide(sched.sigma, 4.0)), sched.dt), score(16), seed=7)[0]
        for restored in (ensemble_mean, one_chain):
            z = (restored - mean) / np.sqrt(var)
            assert z.size == 12_288
            assert abs(z.mean()) <= 0.05 and abs(z.var() - 1.0) <= 0.07, (z.mean(), z.var())
        # the demo restores with that one chain
        result = itm_sde_demo(degraded, gt, steps=100, seed=7)
        assert result.diagnostics["restored_pu_l1"] == float(np.mean(np.abs(one_chain - x0)))

    def test_shape_mismatch_rejected(self, rng):
        a = LinearImage(rng.uniform(0, 1, (8, 8, 3)).astype(np.float32))
        b = LinearImage(rng.uniform(0, 1, (9, 9, 3)).astype(np.float32))
        with pytest.raises(ShapeError):
            itm_sde_demo(a, b)


# Seed and first outputs of SplitMix64: the published outputs for seed
# 1234567, those of the reference splitmix64.c for seed 0, and seed -gamma,
# whose state wraps to 0 (finalized to 0) before it walks seed 0's sequence.
SPLITMIX64_KNOWN_ANSWERS = [
    (1234567, [6457827717110365317, 3203168211198807973, 9817491932198370423,
               4593380528125082431, 16408922859458223821]),
    (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC,
         0x1B39896A51A8749B]),
    (2**64 - 0x9E3779B97F4A7C15, [0, 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]),
]
SPLITMIX64_IDS = ["seed-1234567", "seed-0", "state-wraps-to-0"]


class TestSplitMix64:
    @pytest.mark.parametrize("seed, expected", SPLITMIX64_KNOWN_ANSWERS, ids=SPLITMIX64_IDS)
    def test_oracle_reproduces_known_answers(self, seed, expected):
        assert [naive_splitmix64(seed, n) for n in range(1, len(expected) + 1)] == expected

    @pytest.mark.parametrize("seed, expected", SPLITMIX64_KNOWN_ANSWERS, ids=SPLITMIX64_IDS)
    def test_kernel_reproduces_known_answers(self, seed, expected):
        z = np.uint64(seed) + np.arange(1, len(expected) + 1, dtype=np.uint64) * sde._GAMMA
        _mix64(z, np.empty_like(z))
        assert [int(w) for w in z] == expected

    def test_kernel_matches_oracle_bit_for_bit(self, rng):
        seeds = [0, 1, 2**63, 2**64 - 1]
        seeds += [int(v) for v in rng.integers(0, 2**64, 60, dtype=np.uint64)]
        z = np.array([(s + int(sde._GAMMA)) % 2**64 for s in seeds], dtype=np.uint64)
        _mix64(z, np.empty_like(z))
        assert z.dtype == np.uint64
        assert [int(w) for w in z] == [naive_splitmix64(s, 1) for s in seeds]


def _traced_peak(run) -> int:
    """Peak bytes traced by tracemalloc while `run()` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _forward_noise(steps, n_traj, dim, seed=0, offset=0):
    # theta * dt = 1, mu = 0 and sigma * sqrt(dt) = 1 make each state the step's noise
    sched = _constant(1.0, 1.0, 1.0, steps)
    return forward_simulate(np.zeros(dim), 0.0, sched, seed=seed, n_traj=n_traj,
                            offset=offset)[:, 1:, :]


def _backward_history(xT, mu, sched, score_fn, **kwargs) -> tuple:
    """`backward_simulate`'s restored states and its path (n_traj, steps + 1, dim).

    The path is recorded by the score hook, which sees the state of every
    step from `steps` down to 1; step 0 is the restored state.
    """
    seen = {}

    def record(x, step):
        seen[step] = x.copy()
        return score_fn(x, step)

    final = backward_simulate(xT, mu, sched, record, **kwargs)
    return final, np.stack([final] + [seen[s] for s in range(1, sched.steps + 1)], axis=1)


def _backward_noise(steps, n_traj, dim, seed=0, offset=0):
    # with the score -2x the backward drift cancels the state, leaving the noise
    sched = _constant(1.0, 1.0, 1.0, steps)
    _, history = _backward_history(np.zeros(dim), 0.0, sched, lambda x, step: -2.0 * x,
                                   seed=seed, n_traj=n_traj, offset=offset)
    return history[:, :-1, :]


def _step_noise(stream, steps, n_traj, dim, seed):
    """Noise of every step, (steps, n_traj, dim), copied out of the 4-step blocks."""
    block = sde._noise_blocks(seed, stream, n_traj, dim, steps)
    z = np.empty((steps, n_traj, dim))
    for i in range(steps):
        z[i] = block(i // 4)[i % 4]
    return z


# score hooks that return the state itself, a Python scalar and a 0-d array
SCORE_FNS = [lambda x, step: x, lambda x, step: 0.25, lambda x, step: np.array(-1.5)]
SCORE_IDS = ["aliases-state", "python-scalar", "0-d-array"]


class TestNoiseLayout:
    @pytest.mark.parametrize("draw", [_forward_noise, _backward_noise])
    @pytest.mark.parametrize("steps", [7, 13])
    def test_lane_depends_only_on_trajectory_element_and_step(self, draw, steps):
        shapes = [(1, 1), (2, 3), (5, 7)]
        runs = [draw(steps, n_traj, dim, seed=21) for n_traj, dim in shapes]
        for (n_traj, dim), run in zip(shapes, runs):
            assert run.shape == (n_traj, steps, dim)
            assert np.array_equal(run, runs[-1][:n_traj, :, :dim])
        assert not np.array_equal(_forward_noise(steps, 2, 3, seed=21),
                                  _backward_noise(steps, 2, 3, seed=21))
        assert not np.array_equal(runs[-1], draw(steps, 5, 7, seed=22))

    @pytest.mark.parametrize("draw, stream", [(_forward_noise, 0), (_backward_noise, 1)])
    def test_noise_is_box_muller_of_the_counter_block(self, draw, stream):
        # step i of lane (k, j) is normal i % 4 of the block m = i // 4: word
        # h = i % 4 // 2 is output 2 (offset + j) + h + 1 of SplitMix64 seeded
        # with the stream seed S, itself output k + 1 of the generator seeded
        # with output 2m + stream + 1 of the one seeded with the key
        seed, steps, n_traj, dim = 8, 7, 2, 3
        key = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
        for offset in (0, 1000, 2**32 - 4):
            run = draw(steps, n_traj, dim, seed=seed, offset=offset)
            for k in range(n_traj):
                for j in range(dim):
                    for i in range(steps):
                        s = naive_splitmix64(naive_splitmix64(key, 2 * (i // 4) + stream + 1),
                                             k + 1)
                        word = naive_splitmix64(s, 2 * (offset + j) + i % 4 // 2 + 1)
                        u = [(w + 0.5) * 2.0**-32 for w in (word >> 32, word & 0xFFFFFFFF)]
                        radius = math.sqrt(-2.0 * math.log(u[0]))
                        angle = 2.0 * math.pi * (u[1] - 0.5)
                        want = radius * (math.sin(angle) if i % 2 else math.cos(angle))
                        assert run[k, i, j] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n_traj", [1, 3])
    def test_tiles_with_offsets_equal_the_whole_range(self, rng, n_traj):
        # the state crosses a _LANE_CHUNK boundary and is no multiple of the
        # tile; at n_traj 3 a tile's passes also split the trajectories
        dim, tile = sde._LANE_CHUNK + 1000, 6000
        sched = SdeSchedule.cosine(steps=9)
        x0, mu = rng.uniform(0.0, 1.0, (2, dim))

        def score(x, step):
            return -(x - 0.5) * step

        whole_f = forward_simulate(x0, mu, sched, seed=4, n_traj=n_traj)
        whole_b = _backward_history(whole_f[:, -1, :], mu, sched, score, seed=4)
        tiles_f, tiles_b, tiles_h = [], [], []
        for lo in range(0, dim, tile):
            hi = min(lo + tile, dim)
            tiles_f.append(forward_simulate(x0[lo:hi], mu[lo:hi], sched, seed=4, n_traj=n_traj,
                                            offset=lo))
            final, history = _backward_history(tiles_f[-1][:, -1, :], mu[lo:hi], sched, score,
                                               seed=4, offset=lo)
            tiles_b.append(final)
            tiles_h.append(history)
        assert np.array_equal(np.concatenate(tiles_f, axis=-1), whole_f)
        assert np.array_equal(np.concatenate(tiles_b, axis=-1), whole_b[0])
        assert np.array_equal(np.concatenate(tiles_h, axis=-1), whole_b[1])

    @pytest.mark.parametrize("score_fn", SCORE_FNS, ids=SCORE_IDS)
    def test_backward_in_place_matches_fresh_array_steps(self, rng, score_fn, steps=9):
        sched, n_traj, dim = SdeSchedule.cosine(steps=steps), 3, 50
        xT, mu = rng.uniform(0.0, 1.0, (2, dim))
        z = _step_noise(1, sched.steps, n_traj, dim, seed=6)
        x = np.broadcast_to(xT, (n_traj, dim)).copy()
        want = [x]
        for i in range(sched.steps - 1, -1, -1):
            score = np.asarray(score_fn(x, i + 1), dtype=np.float64)
            drift = sched.theta[i] * (mu - x) - sched.sigma[i] ** 2 * score
            x = x - drift * sched.dt + sched.sigma[i] * np.sqrt(sched.dt) * z[i]
            want.insert(0, x)
        final, history = _backward_history(xT, mu, sched, score_fn, seed=6, n_traj=n_traj)
        assert np.array_equal(final, x)
        assert np.array_equal(history, np.stack(want, axis=1))
        assert np.array_equal(backward_simulate(xT, mu, sched, score_fn, seed=6, n_traj=n_traj), x)

    # 1, 4 and 5 steps: one partial block, one whole block, a block and one step
    @pytest.mark.parametrize("steps", [1, 4, 5])
    @pytest.mark.parametrize("score_fn", SCORE_FNS, ids=SCORE_IDS)
    def test_backward_in_place_at_noise_block_edges(self, rng, score_fn, steps):
        self.test_backward_in_place_matches_fresh_array_steps(rng, score_fn, steps)

    def test_forward_in_place_matches_fresh_array_steps(self, rng, steps=9):
        sched, n_traj, dim = SdeSchedule.cosine(steps=steps), 3, 50
        x0, mu = rng.uniform(0.0, 1.0, (2, dim))
        z = _step_noise(0, sched.steps, n_traj, dim, seed=6)
        x = np.broadcast_to(x0, (n_traj, dim)).copy()
        want = [x]
        for i in range(sched.steps):
            x = x + sched.theta[i] * (mu - x) * sched.dt + sched.sigma[i] * np.sqrt(sched.dt) * z[i]
            want.append(x)
        history = forward_simulate(x0, mu, sched, seed=6, n_traj=n_traj)
        final = forward_simulate(x0, mu, sched, seed=6, n_traj=n_traj, return_history=False)
        assert np.array_equal(history, np.stack(want, axis=1))
        assert np.array_equal(final, x)

    @pytest.mark.parametrize("steps", [1, 4, 5])
    def test_forward_in_place_at_noise_block_edges(self, rng, steps):
        self.test_forward_in_place_matches_fresh_array_steps(rng, steps)

    def test_standard_normal_moments_and_no_lag_one_correlation(self):
        z = _forward_noise(61, 16, 1024, seed=3)  # 999,424 draws, 61 = 15 blocks + 1 step
        n = z.size
        assert abs(z.mean()) <= 5 / np.sqrt(n)
        assert abs(z.var() - 1.0) <= 5 * np.sqrt(2.0 / n)
        across_steps = np.mean(z[:, 1:, :] * z[:, :-1, :])
        across_elements = np.mean(z[:, :, 1:] * z[:, :, :-1])
        assert abs(across_steps) <= 5 / np.sqrt(z[:, 1:, :].size)
        assert abs(across_elements) <= 5 / np.sqrt(z[:, :, 1:].size)

    def test_moments_and_correlations_of_2_22_draws_within_six_standard_errors(self):
        # 64 steps x 16 trajectories x 4,096 elements of each stream; each
        # statistic's expected value is 0 and its standard error 1/sqrt(n)
        # (sqrt(2/n) for the variance), over the n values or pairs it averages
        streams = [_step_noise(stream, 64, 16, 4096, seed=5) for stream in (0, 1)]

        def assert_uncorrelated(a, b):
            assert abs(np.einsum("ijk,ijk->", a, b) / a.size) <= 6 / np.sqrt(a.size)

        for z in streams:
            assert abs(z.mean()) <= 6 / np.sqrt(z.size)
            assert abs(z.var() - 1.0) <= 6 * np.sqrt(2.0 / z.size)
            assert_uncorrelated(z[1:], z[:-1])  # step
            assert_uncorrelated(z[:, 1:], z[:, :-1])  # trajectory
            assert_uncorrelated(z[:, :, 1:], z[:, :, :-1])  # element
        assert_uncorrelated(*streams)

    def test_backward_noise_memory_does_not_grow_with_steps(self):
        def peak(steps):
            sched = _constant(1.0, 0.1, 0.01, steps)
            return _traced_peak(lambda: backward_simulate(np.zeros(4096), 0.0, sched,
                                                          lambda x, step: 0.0, seed=1, n_traj=16))

        assert peak(64) <= 1.5 * peak(8)

    def test_forward_final_state_memory_does_not_grow_with_steps(self):
        def peak(steps):
            sched = _constant(1.0, 0.1, 0.01, steps)
            return _traced_peak(lambda: forward_simulate(np.zeros(4096), 0.0, sched, seed=1,
                                                         n_traj=16, return_history=False))

        assert peak(64) <= 1.5 * peak(8)


class TestArgumentValidation:
    def test_empty_state_rejected(self):
        sched = _constant(1.0, 0.1, 0.01, 4)
        empty = np.array([])
        with pytest.raises(ShapeError, match="must hold at least one element"):
            forward_simulate(empty, empty, sched)
        with pytest.raises(ShapeError, match="must hold at least one element"):
            backward_simulate(empty, empty, sched, lambda x, s: 0.0)
        with pytest.raises(ShapeError, match="must hold at least one element"):
            backward_simulate(np.zeros((3, 0)), empty, sched, lambda x, s: 0.0)

    def test_backward_rejects_no_trajectories(self):
        sched = _constant(1.0, 0.1, 0.01, 5)
        with pytest.raises(DomainError):
            backward_simulate(0.0, 0.0, sched, lambda x, s: 0.0, n_traj=0)
        with pytest.raises(DomainError):
            backward_simulate(np.zeros((0, 3)), np.zeros(3), sched, lambda x, s: 0.0)

    def test_negative_seed_rejected(self):
        sched = _constant(1.0, 0.1, 0.01, 5)
        with pytest.raises(DomainError):
            forward_simulate(0.0, 0.0, sched, seed=-1)
        with pytest.raises(DomainError):
            backward_simulate(0.0, 0.0, sched, lambda x, s: 0.0, seed=-1)

    def test_counter_words_never_wrap(self):
        sched = _constant(1.0, 0.1, 0.01, 5)
        with pytest.raises(DomainError):
            forward_simulate(0.0, 0.0, sched, n_traj=2**32)
        for n_traj, dim, steps in ((2**32, 1, 4), (1, 2**32, 4), (1, 1, 4 * 2**32)):
            with pytest.raises(DomainError):
                sde._noise_blocks(0, 0, n_traj, dim, steps)
        sde._noise_blocks(0, 0, 2**32 - 1, 2**32 - 1, 4 * 2**32 - 1)  # largest accepted

    def test_offset_keeps_element_words_below_2_32(self):
        sched = _constant(1.0, 0.1, 0.01, 5)
        with pytest.raises(DomainError, match="offset"):
            forward_simulate(0.0, 0.0, sched, offset=-1)
        with pytest.raises(DomainError, match="offset"):
            backward_simulate(np.zeros(3), 0.0, sched, lambda x, s: 0.0, offset=2**32 - 3)
        for offset, dim in ((-1, 1), (2**32 - 1, 1), (2**32 - 3, 3), (1, 2**32 - 1)):
            with pytest.raises(DomainError, match="offset"):
                sde._noise_blocks(0, 0, 1, dim, 4, offset)
        sde._noise_blocks(0, 0, 1, 3, 4, 2**32 - 4)(0)  # largest accepted: element 2^32 - 2


_SCHED = _constant(1.0, 0.1, 0.01, 4)
_IMAGE = LinearImage(np.full((16, 16, 3), 0.5, dtype=np.float32))


def _camera(seed):
    return simulate_ldr(_IMAGE, 0.0, Crf("gamma"), NoiseParams(0.01), seed=seed)


@pytest.mark.parametrize("call, message", [
    (lambda: forward_simulate(0.5, 0.1, _SCHED, seed=1.5), "seed must be an integer"),
    (lambda: backward_simulate(0.5, 0.1, _SCHED, lambda x, s: 0.0, seed=1.5),
     "seed must be an integer"),
    (lambda: forward_simulate(0.5, 0.1, _SCHED, n_traj=2.5), "n_traj must be an integer"),
    (lambda: backward_simulate(0.5, 0.1, _SCHED, lambda x, s: 0.0, n_traj=2.5),
     "n_traj must be an integer"),
    (lambda: forward_simulate(0.5, 0.1, _SCHED, offset=1.5), "offset must be an integer"),
    (lambda: backward_simulate(0.5, 0.1, _SCHED, lambda x, s: 0.0, offset=1.5),
     "offset must be an integer"),
    (lambda: itm_sde_demo(_IMAGE, _IMAGE, 4, seed=1.5), "seed must be an integer"),
    (lambda: itm_sde_demo(_IMAGE, _IMAGE, steps=2.5), "steps must be an integer"),
    (lambda: _camera(1.5), "seed must be an integer"),
    (lambda: _camera(np.float64(3.0)), "seed must be an integer"),
    (lambda: _camera(-1), "seed must be >= 0; got -1"),
    (lambda: _camera(2**128), r"seed must be below 2\*\*128"),
    (lambda: generate_dataset("missing", "unused", master_seed=1.5),
     "master_seed must be an integer"),
], ids=["forward_seed", "backward_seed", "forward_n_traj", "backward_n_traj", "forward_offset",
        "backward_offset", "demo_seed", "demo_steps", "camera_seed", "camera_float64_seed",
        "camera_negative_seed", "camera_seed_beyond_philox_key", "master_seed"])
def test_seeds_and_counts_are_integers_checked_by_their_owner(tmp_path, monkeypatch, call,
                                                              message):
    monkeypatch.chdir(tmp_path)  # a check after generate_dataset's mkdir would leave "unused"
    with pytest.raises(DomainError, match=message):
        call()
    assert not any(tmp_path.iterdir())


def test_integer_seeds_of_any_integer_type_agree():
    assert np.array_equal(_camera(np.uint64(7)).data, _camera(7).data)
    _camera(2**128 - 1)  # the largest Philox key
    numpy_ints = forward_simulate(0.5, 0.1, _SCHED, seed=np.int32(3), n_traj=np.int64(2),
                                  offset=np.uint8(1))
    np.testing.assert_array_equal(numpy_ints,
                                  forward_simulate(0.5, 0.1, _SCHED, seed=3, n_traj=2, offset=1))
