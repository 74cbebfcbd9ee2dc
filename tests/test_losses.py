import math
import tracemalloc

import numpy as np
import pytest

from itmbench.color import mu_law
from itmbench.errors import DomainError, ShapeError
from itmbench.image_io import LinearImage
from itmbench.losses import (_UPF_BINS, _UPF_SIGMA, WEIGHTS, color_loss, denoise_loss,
                             linear_l1, recon_loss, score_matching_loss,
                             ssim_pu_loss, total_loss, tv_loss, upf_loss)

import oracles


def img(arr):
    return LinearImage(np.asarray(arr, dtype=np.float32))


def constant(value, shape=(16, 16)):
    return img(np.full(shape + (3,), value))


class TestReconLoss:
    def test_identical_stages_are_zero(self, random_pair):
        a, _ = random_pair
        assert recon_loss([a, a], a) == 0.0

    def test_single_stage_is_plain_mu_l1(self, random_pair):
        a, b = random_pair
        direct = np.mean(np.abs(mu_law(a.data.astype(np.float64))
                                - mu_law(b.data.astype(np.float64))))
        assert recon_loss([a], b) == pytest.approx(direct, abs=1e-12)

    def test_two_stage_constant_example(self):
        gt = constant(0.25)  # exactly representable in float32
        off = constant(0.3125)
        expected = abs(mu_law(0.3125) - mu_law(0.25))  # stage 2 weight is 2/2
        assert recon_loss([gt, off], gt) == pytest.approx(expected, abs=1e-12)

    def test_stage_weighting_is_linear_ramp(self):
        gt = constant(0.25)
        off = constant(0.3125)
        # same offset in stage 1 of 2 carries weight 1/2
        assert recon_loss([off, gt], gt) == pytest.approx(
            0.5 * abs(mu_law(0.3125) - mu_law(0.25)), abs=1e-12)

    def test_empty_stage_list_rejected(self, random_pair):
        with pytest.raises(DomainError):
            recon_loss([], random_pair[0])


class TestPixelLosses:
    def test_linear_l1_identical(self, random_pair):
        a, _ = random_pair
        assert linear_l1(a, a) == 0.0

    def test_linear_l1_constant_offset(self):
        assert linear_l1(constant(0.7), constant(0.4)) == pytest.approx(0.3, abs=1e-7)

    def test_linear_l1_matches_oracle(self, random_pair):
        a, b = random_pair
        want = float(np.mean(np.abs(a.data.astype(np.float64) - b.data.astype(np.float64))))
        assert linear_l1(a, b) == pytest.approx(want, abs=1e-12)

    def test_denoise_equals_linear_by_printed_equation(self, random_pair):
        a, b = random_pair
        assert denoise_loss(a, b) == linear_l1(a, b)


class TestSsimPuLoss:
    def test_identical_is_zero(self, random_pair):
        a, _ = random_pair
        assert ssim_pu_loss(a, a) == pytest.approx(0.0, abs=1e-9)

    def test_bounded(self, random_pair):
        a, b = random_pair
        assert 0.0 <= ssim_pu_loss(a, b) <= 2.0

    def test_cross_module_kernel_consistency(self, random_pair):
        # the loss reuses the metrics SSIM kernel on compressed luminance
        from itmbench.color import MuLawParams, luminance, mu_law
        from itmbench.pu21 import ssim_mean
        a, b = random_pair
        pu = MuLawParams(10000.0)
        la = mu_law(luminance(a.data.astype(np.float64)), pu)
        lb = mu_law(luminance(b.data.astype(np.float64)), pu)
        assert ssim_pu_loss(a, b) == pytest.approx(1.0 - ssim_mean(la, lb, 1.0), abs=1e-12)


class TestColorLoss:
    def test_identical_is_zero(self, random_pair):
        a, _ = random_pair
        assert color_loss(a, a) == 0.0

    @pytest.mark.parametrize("scale", [0.25, 4.0])
    def test_global_exposure_invariance(self, rng, scale):
        base = rng.uniform(0.05, 0.9, (12, 12, 3)).astype(np.float64)
        scaled = scale * base
        assert color_loss(img(scaled), img(base)) <= 1e-6

    def test_gray_versus_colored_single_pixel(self):
        pred = img(np.array([[[0.5, 0.5, 0.5]]]))
        gt = img(np.array([[[0.8, 0.4, 0.2]]]))
        eps = 1e-8
        terms = [
            abs(np.log((0.5 + eps) / (0.5 + eps)) - np.log((0.8 + eps) / (0.4 + eps))),
            abs(np.log((0.5 + eps) / (0.5 + eps)) - np.log((0.4 + eps) / (0.2 + eps))),
            abs(np.log((0.5 + eps) / (0.5 + eps)) - np.log((0.2 + eps) / (0.8 + eps))),
        ]
        assert color_loss(pred, gt) == pytest.approx(np.mean(terms), abs=1e-12)


class TestTvLoss:
    def test_constant_is_zero(self):
        assert tv_loss(constant(0.3)) == 0.0

    def test_step_fixture_closed_form(self):
        # one vertical step of height h between two flat halves of a w-wide image
        h, w, step = 6, 8, 0.5  # step height exactly representable in float32
        data = np.zeros((h, w, 3))
        data[:, w // 2:] = step
        # horizontal differences: one column of h rows x 3 channels at `step`
        expected_h = (h * 3 * step) / (h * (w - 1) * 3)
        assert tv_loss(img(data)) == pytest.approx(expected_h, abs=1e-12)

    def test_non_negative(self, random_pair):
        assert tv_loss(random_pair[0]) >= 0.0


class TestUpfLoss:
    def test_constant_identical_is_zero(self):
        assert upf_loss(constant(0.5), constant(0.5)) == 0.0

    def test_identical_histogram_term_vanishes(self, rng):
        # identical inputs: charb and hist are exactly zero, smooth reduces to
        # the input's own gradient self-weighting (oracle decomposition)
        data = rng.uniform(0.1, 1.0, (32, 32, 3)).astype(np.float64)
        charb, hist, smooth, total = oracles.naive_upf(data, data)
        assert charb == 0.0
        assert hist == 0.0
        assert upf_loss(img(data), img(data)) == pytest.approx(smooth, rel=1e-9)

    def test_matches_independent_reimplementation(self, rng):
        a = rng.uniform(0.05, 1.0, (32, 32, 3)).astype(np.float64)
        b = rng.uniform(0.05, 1.0, (32, 32, 3)).astype(np.float64)
        _, _, _, want = oracles.naive_upf(a, b)
        assert upf_loss(img(a), img(b)) == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("shape", [(33, 31), (32, 32), (25, 41), (33, 65)],
                             ids=["below-chunk", "one-chunk", "one-above", "chunks-plus-partial"])
    def test_chunked_histogram_matches_oracle(self, rng, shape):
        a = rng.uniform(0.05, 1.0, shape + (3,)).astype(np.float32)
        b = rng.uniform(0.05, 1.0, shape + (3,)).astype(np.float32)
        _, _, _, want = oracles.naive_upf(a.astype(np.float64), b.astype(np.float64))
        assert upf_loss(img(a), img(b)) == pytest.approx(want, rel=1e-12)

    def test_gap_in_log_range_matches_oracle(self):
        # two tight clusters ~10.6 log units apart: bins between them get only
        # subnormal votes or none at all
        t = np.linspace(0.0, 1.0, 32 * 40).reshape(32, 40)
        k = np.arange(t.size).reshape(t.shape)
        a = np.where(k % 2 == 0, 0.5 + 0.05 * t, 2e4 + 2e3 * t)
        b = np.where(k % 3 == 0, 0.55 - 0.05 * t, 2.2e4 - 2e3 * t)
        a, b = (np.repeat(x[..., None], 3, axis=-1).astype(np.float32) for x in (a, b))

        logs = [np.log(oracles.naive_luminance(x.astype(np.float64)) + 1e-8).ravel()
                for x in (a, b)]
        centers = np.linspace(min(map(np.min, logs)), max(map(np.max, logs)), 64)
        for field in logs:
            peak = np.exp(-((field[:, None] - centers) ** 2) / (2 * 0.1**2)).max(axis=0)
            assert ((peak > 0) & (peak < np.finfo(np.float64).tiny)).any()

        _, _, _, want = oracles.naive_upf(a.astype(np.float64), b.astype(np.float64))
        assert upf_loss(img(a), img(b)) == pytest.approx(want, rel=1e-12)

    def test_truncated_votes_match_oracle(self, rng):
        # a 64^2 lognormal pair spans ~17 log units, so the centers lie ~2.7 sigma
        # apart and each pixel skips the votes of every center beyond 8.5 sigma
        a, b = (rng.lognormal(-1.5, 1.2, (64, 64, 3)) for _ in range(2))
        logs = [np.log(oracles.naive_luminance(x) + 1e-8) for x in (a, b)]
        span = max(map(np.max, logs)) - min(map(np.min, logs))
        assert span / (_UPF_BINS - 1) < 8.5 * _UPF_SIGMA < span
        _, _, _, want = oracles.naive_upf(a, b)
        assert upf_loss(a, b) == pytest.approx(want, rel=1e-12)

    def test_widely_spaced_centers_keep_every_pixel(self):
        # a black pixel and one at float32's largest value space the centers ~17 sigma
        # apart, the widest radiance allows, and a prediction midway between two of them
        # is ~8.5 sigma from both: a window of 8.5 sigma drops all the votes of most
        # midpoints, and one of half a spacing those of 16 through rounding; one whole
        # spacing keeps every pixel inside the windows of both centers around it
        top = float(np.finfo(np.float32).max)
        gt = np.ones((16, 16, 3))
        gt[0, 0], gt[5, 7] = 0.0, top
        centers = np.linspace(np.log(1e-8), np.log(oracles.naive_luminance(np.full(3, top))),
                              _UPF_BINS)
        assert 16.9 < (centers[31] - centers[30]) / _UPF_SIGMA < 17.1
        midpoints = np.exp(0.5 * (centers[1:] + centers[:-1]))
        values = [upf_loss(np.full((16, 16, 3), m), gt) for m in midpoints]
        assert np.isfinite(values).all()
        _, _, _, want = oracles.naive_upf(np.full((16, 16, 3), midpoints[12]), gt)
        assert values[12] == pytest.approx(want, rel=1e-12)

    def test_all_votes_underflowing_is_domain_error(self):
        # float64 data spanning log 1e-8 (a black pixel) to log 1e250 would space the
        # centers ~94 sigma apart, so that every vote of a prediction midway underflowed;
        # such data lies beyond float32's range, outside the loss inputs' domain
        gt = np.ones((16, 16, 3))
        gt[0, 0], gt[5, 7] = 0.0, 1e250
        centers = np.linspace(np.log(1e-8), np.log(1e250), _UPF_BINS)
        assert (centers[31] - centers[30]) / _UPF_SIGMA > 90
        pred = np.full((16, 16, 3), np.exp(0.5 * (centers[30] + centers[31])))
        with pytest.raises(DomainError, match="loss inputs must be finite and non-negative"):
            upf_loss(pred, gt)

    def test_peak_memory_does_not_grow_with_image(self, rng):
        a = rng.lognormal(0.0, 1.0, (512, 512, 3))
        b = rng.lognormal(0.0, 1.0, (512, 512, 3))
        tracemalloc.start()
        try:
            upf_loss(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_image_smaller_than_patch_rejected(self, rng):
        small = img(rng.uniform(0.1, 1.0, (8, 8, 3)))
        with pytest.raises(ShapeError):
            upf_loss(small, small)


class TestTotalLoss:
    def test_identical_constant_inputs_all_zero(self):
        a = constant(0.5)
        total, terms, _ = total_loss([a], a, a, perceptual=0.0)
        assert total == 0.0
        assert all(v == 0.0 for v in terms.values())

    def test_breakdown_sums_to_total(self, random_pair):
        a, b = random_pair
        total, terms, _ = total_loss([a, a], a, b, perceptual=0.37)
        assert total == pytest.approx(sum(terms.values()), abs=1e-9)

    def test_compositional_against_individual_terms(self, random_pair):
        a, b = random_pair
        w = WEIGHTS
        perc = 0.11
        manual = (recon_loss([a], b)
                  + w["alpha_perc"] * perc
                  + w["gamma_ssim"] * ssim_pu_loss(a, b)
                  + w["gamma_color"] * color_loss(a, b)
                  + w["gamma_tv"] * tv_loss(a)
                  + w["lambda_linear"] * linear_l1(a, b)
                  + w["alpha_denoise"] * denoise_loss(a, b)
                  + w["alpha_upf"] * upf_loss(a, b))
        total, _, _ = total_loss([a], a, b, perceptual=perc)
        assert total == pytest.approx(manual, abs=1e-12)

    def test_weights_are_read_only(self):
        with pytest.raises(TypeError):
            WEIGHTS["gamma_tv"] = 2.0
        assert WEIGHTS["gamma_tv"] == 0.1

    @pytest.mark.parametrize("perceptual", [math.nan, math.inf, -5.0])
    def test_perceptual_must_be_finite_and_non_negative(self, perceptual):
        a = constant(0.5)
        with pytest.raises(DomainError, match="perceptual must be finite and non-negative"):
            total_loss([a], a, a, perceptual=perceptual)


class TestScoreMatchingLoss:
    def test_perfect_trajectory_is_zero(self, rng):
        states = [rng.uniform(0, 1, (4,)) for _ in range(3)]
        loss = score_matching_loss([(s, s) for s in states], gammas=[1.0, 2.0, 3.0])
        assert loss == 0.0

    def test_lambda_zero_reduces_to_weighted_l1(self):
        traj = [(np.array([1.0]), np.array([0.5])), (np.array([2.0]), np.array([2.25]))]
        loss = score_matching_loss(traj, gammas=[2.0, 4.0], lam=0.0)
        assert loss == pytest.approx(2.0 * 0.5 + 4.0 * 0.25, abs=1e-12)

    def test_two_step_scalar_hand_sum(self):
        traj = [(np.array([0.3]), np.array([0.1])), (np.array([0.9]), np.array([1.0]))]
        assert score_matching_loss(traj, [1.0, 0.5]) == pytest.approx(
            1.0 * 0.2 + 0.5 * 0.1, abs=1e-12)

    def test_ssim_regularizer_needs_images(self):
        traj = [(np.array([1.0]), np.array([0.5]))]
        with pytest.raises(ShapeError):
            score_matching_loss(traj, [1.0], lam=0.1)

    def test_ssim_term_active_on_images(self, rng):
        a = rng.uniform(0, 1, (16, 16))
        b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
        plain = score_matching_loss([(a, b)], [1.0], lam=0.0)
        reg = score_matching_loss([(a, b)], [1.0], lam=0.5)
        assert reg > plain

    @pytest.mark.parametrize("lam, gamma, message", [
        (math.nan, 1.0, "lam must be finite"), (math.inf, 1.0, "lam must be finite"),
        (0.5, math.inf, "gammas must be finite"),
    ], ids=["lam-nan", "lam-inf", "gamma-inf"])
    def test_non_finite_scalars_rejected(self, rng, lam, gamma, message):
        a = rng.uniform(0, 1, (16, 16))
        with pytest.raises(DomainError, match=message):
            score_matching_loss([(a, 0.5 * a)], [gamma], lam=lam)

    def test_empty_pair_is_a_shape_error(self):
        # its mean used to warn "Mean of empty slice" and make the loss NaN
        with pytest.raises(ShapeError, match="or are empty"):
            score_matching_loss([(np.zeros(0), np.zeros(0))], [1.0])

    def test_gamma_length_mismatch(self):
        with pytest.raises(DomainError):
            score_matching_loss([(np.zeros(2), np.zeros(2))], gammas=[1.0, 1.0])
