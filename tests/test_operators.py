import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itmbench.camera import Crf, simulate_ldr
from itmbench.errors import DomainError, FormatError, ShapeError
from itmbench.image_io import LinearImage, Ldr8Image
from itmbench.operators import (MaskParams, MaskTriple, _thresholds, blurred_luminance,
                                exposure_masks, fuse_exposures, naive_expand,
                                residual_project)

import oracles


class TestThresholds:
    def test_zero_logits(self):
        assert _thresholds((0.0, 0.0)) == pytest.approx((0.5, 1.0), abs=1e-12)

    def test_ordering_holds_for_any_logits(self):
        t1, t2 = _thresholds((3.0, -2.0))
        assert 0 < t1 < t2 <= 1.0

    def test_params_validation(self):
        with pytest.raises(DomainError):
            MaskParams(alpha=0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(DomainError, match="alpha must be finite"):
            MaskParams(alpha=alpha)

    @pytest.mark.parametrize("theta", [(float("inf"), 0.0), (0.0, -float("inf")),
                                       (float("nan"), 0.0)])
    def test_logits_must_be_finite(self, theta):
        with pytest.raises(DomainError, match="finite threshold logits"):
            MaskParams(theta=theta)


class TestBlurredLuminance:
    def test_kernel_one_is_plain_luminance(self, rng):
        img = LinearImage(rng.uniform(0, 1, (6, 7, 3)).astype(np.float32))
        got = blurred_luminance(img, 1)
        assert np.allclose(got, oracles.naive_luminance(img.data.astype(np.float64)),
                           atol=1e-12)

    def test_constant_image_unchanged(self):
        img = LinearImage(np.full((5, 5, 3), 0.3, dtype=np.float32))
        out = blurred_luminance(img, 3)
        assert np.allclose(out, oracles.naive_luminance(img.data[:1, :1])[0, 0], atol=1e-7)

    def test_center_of_3x3_is_mean_of_nine(self, rng):
        img = LinearImage(rng.uniform(0, 1, (3, 3, 3)).astype(np.float32))
        lum = oracles.naive_luminance(img.data.astype(np.float64))
        out = blurred_luminance(img, 3)
        assert out[1, 1] == pytest.approx(lum.mean(), abs=1e-12)

    def test_matches_naive_replicated_box(self, rng):
        img = LinearImage(rng.uniform(0, 2, (9, 11, 3)).astype(np.float32))
        for k in (3, 5):
            got = blurred_luminance(img, k)
            want = oracles.naive_box_luminance(img.data, k)
            assert np.abs(got - want).max() <= 1e-10

    @pytest.mark.parametrize("shape", [(4, 5), (5, 4), (1, 3)])
    def test_kernel_wider_than_the_image(self, rng, shape):
        img = LinearImage(rng.uniform(0, 2, shape + (3,)).astype(np.float32))
        got = blurred_luminance(img, 41)
        assert np.abs(got - oracles.naive_box_luminance(img.data, 41)).max() <= 1e-10

    def test_memory_grows_with_the_image_not_the_kernel(self, rng):
        img = LinearImage(rng.uniform(0, 2, (16, 16, 3)).astype(np.float32))
        tracemalloc.start()
        try:
            out = blurred_luminance(img, 10**9 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # ~10 float64 16^2 RGB images
        assert np.isfinite(out).all() and out.shape == (16, 16)

    def test_even_kernel_rejected(self, rng):
        img = LinearImage(rng.uniform(0, 1, (4, 4, 3)).astype(np.float32))
        with pytest.raises(DomainError):
            blurred_luminance(img, 2)

    @pytest.mark.parametrize("kernel", [2.5, 3.0, True, np.float64(3.0), "3", None])
    def test_kernel_must_be_an_integer(self, kernel):
        # 2.5 used to raise a bare IndexError, and True was taken as 1
        img = LinearImage(np.full((4, 4, 3), 0.5, dtype=np.float32))
        with pytest.raises(DomainError, match="kernel must be an integer"):
            blurred_luminance(img, kernel)

    def test_numpy_integer_kernel(self, rng):
        img = LinearImage(rng.uniform(0, 1, (5, 5, 3)).astype(np.float32))
        np.testing.assert_array_equal(blurred_luminance(img, np.int64(3)), blurred_luminance(img, 3))


class TestExposureMasks:
    def test_partition_of_unity(self, rng):
        field = rng.uniform(-1, 2, (16, 16))
        masks = exposure_masks(field, MaskParams(alpha=10.0))
        total = masks.under + masks.mid + masks.over
        assert np.abs(total - 1.0).max() <= 1e-6

    @given(st.floats(-5, 5), st.floats(-5, 5),
           st.floats(0.1, 50.0), st.floats(-10, 10))
    @settings(max_examples=200, deadline=None)
    def test_partition_property(self, th1, th2, alpha, level):
        masks = exposure_masks(np.array([[level]]), MaskParams((th1, th2), alpha))
        total = masks.under + masks.mid + masks.over
        assert abs(float(total[0, 0]) - 1.0) <= 1e-6

    def test_dark_limit_is_all_under(self):
        masks = exposure_masks(np.array([[-100.0]]), MaskParams(alpha=5.0))
        assert masks.under[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_documented_example_values(self):
        # theta=(0,0) => taus=(0.5, 1.0); alpha=10 at level 0.5
        masks = exposure_masks(np.array([[0.5]]), MaskParams((0.0, 0.0), 10.0))
        assert masks.under[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert masks.over[0, 0] == pytest.approx(0.0066928509242848554, abs=1e-12)

    def test_pointwise_permutation_invariance(self, rng):
        field = rng.uniform(0, 1, (8, 8))
        perm = rng.permutation(64)
        masks_a = exposure_masks(field, MaskParams())
        masks_b = exposure_masks(field.ravel()[perm].reshape(8, 8), MaskParams())
        assert np.array_equal(masks_a.under.ravel()[perm], masks_b.under.ravel())


class TestFuseExposures:
    def _masks(self, img):
        return exposure_masks(blurred_luminance(img, 3), MaskParams())

    def test_uniform_weights_reconstruct_third(self, rng):
        img = LinearImage(rng.uniform(0, 1, (8, 8, 3)).astype(np.float32))
        fused = fuse_exposures(img, self._masks(img))
        assert np.allclose(fused.data, img.data / 3.0, atol=1e-6)

    def test_one_hot_mid_weight(self, rng):
        img = LinearImage(rng.uniform(0, 1, (8, 8, 3)).astype(np.float32))
        masks = self._masks(img)
        fused = fuse_exposures(img, masks, weights=(0.0, 1.0, 0.0))
        assert np.allclose(fused.data, img.data * masks.mid[..., None], atol=1e-6)

    def test_hand_computed_two_region_fixture(self):
        data = np.zeros((2, 2, 3), dtype=np.float32)
        data[0] = 0.2
        data[1] = 0.8
        img = LinearImage(data)
        masks = MaskTriple(under=np.array([[1.0, 1.0], [0.0, 0.0]]),
                           mid=np.array([[0.0, 0.0], [1.0, 1.0]]),
                           over=np.zeros((2, 2)))
        w_under = np.array([[0.6, 0.6], [0.2, 0.2]])
        w_mid = np.array([[0.3, 0.3], [0.7, 0.7]])
        w_over = 1.0 - w_under - w_mid
        fused = fuse_exposures(img, masks, weights=(w_under, w_mid, w_over))
        # row 0: 0.6*1*0.2 ; row 1: 0.7*1*0.8 (independently hand-computed)
        assert np.allclose(fused.data[0], 0.12, atol=1e-7)
        assert np.allclose(fused.data[1], 0.56, atol=1e-7)

    def test_non_simplex_weights_rejected(self, rng):
        img = LinearImage(rng.uniform(0, 1, (4, 4, 3)).astype(np.float32))
        with pytest.raises(DomainError):
            fuse_exposures(img, self._masks(img), weights=(0.5, 0.5, 0.5))

    # each weight is checked before the three are summed, so inf and 1e308 do not overflow
    @pytest.mark.parametrize("weights", [(float("nan"), 0.5, 0.5), (1.0, 0.0, float("nan")),
                                         (float("inf"), -float("inf"), 1.0), (1e308, 1e308, 0.0)])
    def test_nan_weights_fail_the_simplex_check(self, rng, weights):
        img = LinearImage(rng.uniform(0, 1, (4, 4, 3)).astype(np.float32))
        with pytest.raises(DomainError, match="simplex"):
            fuse_exposures(img, self._masks(img), weights=weights)


class TestResidualProject:
    def test_zero_gain_is_identity(self, rng):
        img = LinearImage(rng.uniform(0, 1, (4, 4, 3)).astype(np.float32))
        out = residual_project(img, 0.0, rng.uniform(-1, 1, (4, 4)))
        assert np.allclose(out.data, img.data, atol=1e-7)

    def test_zero_residual_is_identity(self, rng):
        img = LinearImage(rng.uniform(0, 1, (4, 4, 3)).astype(np.float32))
        out = residual_project(img, 0.7, np.zeros((4, 4)))
        assert np.allclose(out.data, img.data, atol=1e-7)

    def test_scalar_arithmetic_example(self):
        img = LinearImage(np.full((1, 1, 3), 2.0, dtype=np.float32))
        out = residual_project(img, 0.5, np.full((1, 1), 0.1))
        assert np.allclose(out.data, 2.1, atol=1e-6)

    def test_gain_domain(self, rng):
        img = LinearImage(rng.uniform(0, 1, (2, 2, 3)).astype(np.float32))
        with pytest.raises(DomainError):
            residual_project(img, 1.5, np.zeros((2, 2)))

    @pytest.mark.parametrize("gain, value", [(0.0, float("inf")), (0.5, float("nan")),
                                             (0.5, -float("inf"))])
    def test_residual_must_be_finite(self, gain, value):
        img = LinearImage(np.full((2, 2, 3), 0.5, dtype=np.float32))
        with pytest.raises(DomainError, match="residual must be finite"):
            residual_project(img, gain, np.full((2, 2), value))

    def test_output_beyond_float32_range_rejected(self):
        # a residual of 1e308 is beyond the 2**896 gain bound, which is checked first
        img = LinearImage(np.full((2, 2, 3), 0.5, dtype=np.float32))
        with pytest.raises(DomainError, match=r"at most 2\*\*896"):
            residual_project(img, 1.0, np.full((2, 2), 1e308))

    def test_output_within_the_gain_bound_beyond_float32_is_a_format_error(self):
        img = LinearImage(np.full((2, 2, 3), 0.5, dtype=np.float32))
        with pytest.raises(FormatError, match="within float32's range"):
            residual_project(img, 1.0, np.full((2, 2), 1e200))

    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_product_beyond_float64_range_is_domain_error(self, value):
        img = LinearImage(np.full((2, 2, 3), 4.0, dtype=np.float32))
        with pytest.raises(DomainError, match=r"at most 2\*\*896"):
            residual_project(img, 1.0, np.full((2, 2), value))

    @pytest.mark.parametrize("image", [np.full((2, 2, 3), -1.0), np.full((2, 2, 3), np.nan)])
    def test_image_outside_the_input_rule_is_domain_error(self, image):
        # a negative image used to be clamped to zero silently
        with pytest.raises(DomainError, match="must be finite and non-negative"):
            residual_project(image, 0.5, np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(3, 3), (4, 4, 2), (4, 4, 3, 1), (4,), (1, 3),
                                       (2, 4, 4, 3)])
    def test_residual_that_does_not_broadcast_to_the_image_is_shape_error(self, shape):
        img = LinearImage(np.full((4, 4, 3), 0.5, dtype=np.float32))
        with pytest.raises(ShapeError, match="does not broadcast"):
            residual_project(img, 0.5, np.zeros(shape))

    @pytest.mark.parametrize("shape", [(), (3,), (1, 1), (4, 1, 3), (4, 4, 1), (4, 4, 3)])
    def test_residual_that_broadcasts_to_the_image_is_applied(self, shape):
        img = LinearImage(np.full((4, 4, 3), 2.0, dtype=np.float32))
        out = residual_project(img, 0.5, np.full(shape, 0.1))
        assert out.data.shape == (4, 4, 3)
        assert np.allclose(out.data, 2.1, atol=1e-6)

    @pytest.mark.parametrize("dtype", ["datetime64[s]", "complex128", "U8"])
    def test_residual_of_another_kind_is_domain_error(self, dtype):
        img = LinearImage(np.full((2, 2, 3), 0.5, dtype=np.float32))
        with pytest.raises(DomainError, match="residual must be boolean, integer or real float"):
            residual_project(img, 0.5, np.zeros((2, 2), dtype=np.int64).astype(dtype))


class TestNaiveExpand:
    def test_endpoints_identity_crf(self):
        ldr = Ldr8Image(np.array([[[0, 0, 0], [255, 255, 255]]], dtype=np.uint8))
        out = naive_expand(ldr, Crf("gamma"))
        assert np.allclose(out.data[0, 0], 0.0)
        assert np.allclose(out.data[0, 1], 1.0)

    def test_midpoint_identity_crf(self):
        ldr = Ldr8Image(np.full((1, 1, 3), 128, dtype=np.uint8))
        out = naive_expand(ldr, Crf("gamma"))
        assert np.allclose(out.data, 128.0 / 255.0, atol=1e-7)

    def test_round_trip_identity_within_quantization(self, rng):
        # noise-free unsaturated pixels: expand(simulate(hdr)) stays inside the
        # quantization interval propagated through the CRF inverse
        data = rng.uniform(0.02, 0.98, (12, 12, 3)).astype(np.float32)
        img = LinearImage(data)
        for crf in (Crf("gamma"), Crf("gamma", gamma=0.45), Crf("sigmoid", n=0.9, sigma_c=0.6)):
            ldr = simulate_ldr(img, 0.0, crf)
            recovered = naive_expand(ldr, crf).data.astype(np.float64)
            f = crf.apply(data.astype(np.float64))
            lo = crf.inverse(np.clip(f - 1 / 510.0, 0.0, 1.0)) - 1e-9
            hi = crf.inverse(np.clip(f + 1 / 510.0, 0.0, 1.0)) + 1e-9
            assert (recovered >= lo).all() and (recovered <= hi).all()
