import numpy as np
import pytest

from itmbench.analysis import (error_map, error_stats, intensity_error_joint,
                               saturation_split)
from itmbench.errors import DomainError, ShapeError
from itmbench.image_io import LinearImage, Ldr8Image

import oracles


def gray_ldr(values):
    arr = np.asarray(values, dtype=np.uint8)
    return Ldr8Image(np.repeat(arr[..., None], 3, axis=-1))


class TestErrorMap:
    def test_identical_is_zero(self, random_pair):
        a, _ = random_pair
        assert error_map(a, a).max() == 0.0

    def test_symmetric_in_arguments(self, random_pair):
        a, b = random_pair
        assert np.array_equal(error_map(a, b), error_map(b, a))

    def test_2x2_fixture_hand_values(self):
        from itmbench.pu21 import pu_encode
        pred = LinearImage(np.array([[[0.1] * 3, [0.5] * 3],
                                     [[1.0] * 3, [0.0] * 3]], dtype=np.float32))
        gt = LinearImage(np.array([[[0.2] * 3, [0.5] * 3],
                                   [[0.5] * 3, [0.0] * 3]], dtype=np.float32))
        got = error_map(pred, gt)
        lum = lambda v: max(float(np.float32(v)) * 1000.0, 0.005)
        want = np.array([
            [abs(pu_encode(lum(0.1)) - pu_encode(lum(0.2))), 0.0],
            [abs(pu_encode(lum(1.0)) - pu_encode(lum(0.5))), 0.0],
        ])
        assert np.allclose(got, want, atol=1e-9)

    def test_shape_mismatch(self, rng):
        a = LinearImage(rng.uniform(0, 1, (4, 4, 3)).astype(np.float32))
        b = LinearImage(rng.uniform(0, 1, (4, 5, 3)).astype(np.float32))
        with pytest.raises(ShapeError):
            error_map(a, b)


class TestSaturationSplit:
    def test_constant_image_fully_saturated(self):
        split = saturation_split(gray_ldr(np.full((5, 5), 77)))
        assert split.frac == 1.0
        assert split.saturated_mask.all()

    def test_strict_ramp_masks_exactly_fifteen(self):
        split = saturation_split(gray_ldr(np.arange(100).reshape(10, 10)), quantile=0.85)
        assert int(split.saturated_mask.sum()) == 15

    def test_quantile_zero_masks_everything(self):
        split = saturation_split(gray_ldr(np.arange(100).reshape(10, 10)), quantile=0.0)
        assert split.saturated_mask.all()

    def test_realized_fraction_near_request(self):
        split = saturation_split(gray_ldr(np.arange(200).reshape(10, 20) % 256), 0.85)
        assert abs(split.frac - 0.15) <= 1.0 / 200 + 1e-12

    def test_threshold_permutation_invariant(self, rng):
        values = rng.integers(0, 256, size=(8, 8))
        split_a = saturation_split(gray_ldr(values))
        shuffled = values.ravel()[rng.permutation(64)].reshape(8, 8)
        split_b = saturation_split(gray_ldr(shuffled))
        assert split_a.threshold == split_b.threshold

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            saturation_split(gray_ldr(np.zeros((2, 2))), quantile=1.0)


class TestErrorStats:
    def test_zero_map_all_zero_stats(self):
        split = saturation_split(gray_ldr(np.arange(16).reshape(4, 4)))
        stats = error_stats(np.zeros((4, 4)), split)
        assert stats["saturated"]["mean"] == 0.0
        assert stats["non_saturated"]["p95"] == 0.0
        assert sum(stats["histogram"]["counts"]) == 16

    def test_partition_conserves_pixel_count(self, rng):
        ldr = gray_ldr(rng.integers(0, 256, (9, 7)))
        split = saturation_split(ldr)
        err = rng.uniform(0, 5, (9, 7))
        stats = error_stats(err, split)
        assert stats["saturated"]["count"] + stats["non_saturated"]["count"] == 63

    def test_two_region_fixture_hand_stats(self):
        values = np.zeros((2, 4), dtype=np.uint8)
        values[:, 2:] = 200  # bright half saturated at quantile 0.5
        split = saturation_split(gray_ldr(values), quantile=0.5)
        err = np.array([[1.0, 2.0, 10.0, 20.0], [3.0, 4.0, 30.0, 40.0]])
        stats = error_stats(err, split)
        assert stats["saturated"]["mean"] == pytest.approx(25.0)
        assert stats["non_saturated"]["mean"] == pytest.approx(2.5)
        assert stats["saturated"]["p50"] == 20.0  # nearest-rank of (10,20,30,40)
        assert stats["non_saturated"]["p95"] == 4.0

    def test_empty_region_reports_none(self):
        split = saturation_split(gray_ldr(np.full((3, 3), 9)))  # all saturated
        stats = error_stats(np.ones((3, 3)), split)
        assert stats["non_saturated"]["count"] == 0
        assert stats["non_saturated"]["mean"] is None


class TestJointHistogram:
    def test_zero_errors_concentrate_in_first_error_bin(self, rng):
        ldr = gray_ldr(rng.integers(0, 256, (6, 6)))
        joint = intensity_error_joint(ldr, np.zeros((6, 6)))
        counts = np.asarray(joint["counts"])
        assert counts[:, 0].sum() == 36
        assert counts[:, 1:].sum() == 0

    def test_total_mass_is_pixel_count(self, rng):
        ldr = gray_ldr(rng.integers(0, 256, (12, 5)))
        err = rng.uniform(0, 3, (12, 5))
        joint = intensity_error_joint(ldr, err)
        assert int(np.asarray(joint["counts"]).sum()) == 60

    def test_matches_brute_force_binning(self, rng):
        values = rng.integers(0, 256, (10, 10))
        ldr = gray_ldr(values)
        err = rng.uniform(0, 2, (10, 10))
        joint = intensity_error_joint(ldr, err)
        lum = oracles.naive_luminance(
            np.repeat(values[..., None], 3, axis=-1).astype(np.float64))
        want = oracles.naive_joint_histogram(lum, err, bins=64)
        assert np.array_equal(np.asarray(joint["counts"]), want)

    def test_shape_mismatch(self, rng):
        ldr = gray_ldr(rng.integers(0, 256, (4, 4)))
        with pytest.raises(ShapeError):
            intensity_error_joint(ldr, np.zeros((5, 5)))
