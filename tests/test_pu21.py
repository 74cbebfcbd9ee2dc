import json
import pathlib

import numpy as np
import pytest

from itmbench import pu21
from itmbench.color import DisplayMapping, to_display_luminance
from itmbench.errors import DomainError, ShapeError
from itmbench.image_io import LinearImage, read_hdr, write_hdr, write_pfm
from itmbench.pu21 import (MetricReport, PerImageScore, PuEncoding, _encode_owned, pu_decode,
                           pu_encode, pu_fields, pu_psnr, pu_ssim, rank_teams, rmse_linear,
                           score_dataset, ssim_mean)

import oracles

GOLDENS = json.loads((pathlib.Path(__file__).parent / "data" / "pu_goldens.json").read_text())


class TestEncoding:
    def test_committed_golden_values(self):
        enc = PuEncoding.default()
        for row in GOLDENS["points"]:
            got = pu_encode(row["y"], enc)
            # relative 1e-4 with a tiny absolute floor for the zero anchor
            assert got == pytest.approx(row["v"], rel=1e-4, abs=1e-9)

    def test_anchor_at_y_min(self):
        enc = PuEncoding.default()
        assert abs(pu_encode(enc.y_min, enc)) <= 1e-3

    def test_monotone_on_log_grid(self):
        enc = PuEncoding.default()
        grid = np.logspace(np.log10(enc.y_min), np.log10(enc.y_max), 10_000)
        assert (np.diff(pu_encode(grid, enc)) > 0).all()

    def test_scalar_matches_naive_oracle(self):
        for y in (0.01, 0.4, 3.0, 87.0, 4096.0):
            assert pu_encode(y) == pytest.approx(oracles.naive_pu_encode(y), rel=1e-12)

    def test_out_of_range_clamped(self):
        enc = PuEncoding.default()
        assert pu_encode(0.0, enc) == pu_encode(enc.y_min, enc)
        assert pu_encode(1e9, enc) == pu_encode(enc.y_max, enc)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            pu_encode(float("nan"))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), np.array([1.0, np.nan])])
    def test_decode_rejects_non_finite(self, value):
        with pytest.raises(DomainError, match="PU values must be finite"):
            pu_decode(value)

    def test_decode_inverts_encode(self):
        enc = PuEncoding.default()
        grid = np.logspace(np.log10(enc.y_min), np.log10(enc.y_max), 100)
        back = pu_decode(pu_encode(grid, enc), enc)
        assert np.abs(back - grid).max() / grid.max() <= 1e-9

    def test_validation_rejects_decreasing_fit(self):
        with pytest.raises(DomainError):
            PuEncoding(p=(1.0, -2.0, 0.5, 1.0, 1.0, 0.0, 1.0))

    def test_from_json(self, tmp_path):
        src = pathlib.Path(__file__).parents[1] / "src" / "itmbench" / "data" / "pu_banding_glare.json"
        enc = PuEncoding.from_json(src)
        assert enc.p == PuEncoding.default().p


class TestPsnr:
    def test_identical_is_infinite(self, random_pair):
        a, _ = random_pair
        assert pu_psnr(a, a) == float("inf")

    def test_resolution_invariance_for_constant_error(self):
        small_gt = LinearImage(np.full((16, 16, 3), 1.0, dtype=np.float32))
        small_pr = LinearImage(np.full((16, 16, 3), 0.5, dtype=np.float32))
        big_gt = LinearImage(np.full((32, 32, 3), 1.0, dtype=np.float32))
        big_pr = LinearImage(np.full((32, 32, 3), 0.5, dtype=np.float32))
        a = pu_psnr(small_pr, small_gt)
        b = pu_psnr(big_pr, big_gt)
        assert np.isfinite(a)
        assert a == pytest.approx(b, abs=1e-12)

    def test_matches_naive_double_loop(self, random_pair):
        a, b = random_pair
        got = pu_psnr(a, b)
        want = oracles.naive_pu_psnr(a.data, b.data)
        assert got == pytest.approx(want, abs=1e-9)

    def test_shape_mismatch(self, rng):
        a = LinearImage(rng.uniform(0, 1, (8, 8, 3)).astype(np.float32))
        b = LinearImage(rng.uniform(0, 1, (9, 8, 3)).astype(np.float32))
        with pytest.raises(ShapeError):
            pu_psnr(a, b)

    def test_decreases_with_noise_amplitude(self, rng):
        gt = LinearImage(rng.uniform(0.2, 0.8, (24, 24, 3)).astype(np.float32))
        values = []
        for amp in (0.001, 0.004, 0.016, 0.064, 0.256):
            noise = rng.normal(0.0, amp, gt.data.shape)
            pred = LinearImage(np.clip(gt.data + noise, 0, 1).astype(np.float32))
            values.append(pu_psnr(pred, gt))
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_flip_invariance(self, random_pair):
        a, b = random_pair
        fa = LinearImage(a.data[:, ::-1].copy())
        fb = LinearImage(b.data[:, ::-1].copy())
        assert pu_psnr(a, b) == pytest.approx(pu_psnr(fa, fb), abs=1e-12)


# The float32 values with zero low 16 bits, which every RGBE-decoded value is: the keys of
# the table `pu_fields` builds once per call.
TABLE_KEYS = (np.arange(0x7F80, dtype=np.uint32) << 16).view(np.float32)
_DEFAULT_P = PuEncoding.default().p
METRIC_SPACES = {
    "default": (None, DisplayMapping()),
    "other": (PuEncoding(_DEFAULT_P[:6] + (2 * _DEFAULT_P[6],), y_max=1000.0),
              DisplayMapping(peak_luminance=4000.0 / 0.7, black_floor=0.01)),
}


def direct_field(image, encoding=None, mapping=DisplayMapping()):
    """The per-channel PU field of `image`, one power per value, as with no table."""
    return _encode_owned(to_display_luminance(image, mapping), encoding or PuEncoding.default())


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture
def encoded_shapes(monkeypatch):
    """The shape of every array but the peak that `pu_fields` PU-encodes: (32640,) for its
    table, an image's shape for an image encoded directly."""
    shapes = []

    def spy(lum, enc):
        if np.ndim(lum):
            shapes.append(np.shape(lum))
        return _encode_owned(lum, enc)

    monkeypatch.setattr(pu21, "_encode_owned", spy)
    return shapes


class TestFieldTable:
    @pytest.mark.parametrize("space", METRIC_SPACES)
    def test_every_key_matches_the_direct_path(self, rng, encoded_shapes, space):
        # every key at a shuffled place of an image, with -0.0 in place of some repeats,
        # then a crop view of the image and a LinearImage of the crop
        encoding, mapping = METRIC_SPACES[space]
        values = np.concatenate([TABLE_KEYS, TABLE_KEYS])
        values[len(TABLE_KEYS) + rng.choice(len(TABLE_KEYS), 6, replace=False)] = -0.0
        image = rng.permutation(values).reshape(64, 340, 3)
        crop = image[5:-3:2, 7:-11]
        for data in (image, crop, LinearImage(crop)):
            encoded_shapes.clear()
            got, again, _ = pu_fields(data, data, encoding, mapping)
            assert encoded_shapes == [TABLE_KEYS.shape]  # one table for both images
            want = direct_field(data, encoding, mapping)
            assert same_bits(got, want) and same_bits(again, want)

    @pytest.mark.parametrize("space", METRIC_SPACES)
    def test_rgbe_round_trip_from_near_black_to_float32_top(self, tmp_path, rng,
                                                            encoded_shapes, space):
        # exponents 10 ... 255 decode to normal float32 values, and 0 to black
        encoding, mapping = METRIC_SPACES[space]
        rgbe = rng.integers(0, 256, (64, 48, 4), dtype=np.uint8)
        rgbe[..., 3] = np.linspace(10, 255, 64 * 48).astype(np.uint8).reshape(64, 48)
        rgbe[::7, ::5, 3] = 0
        scale = np.where(rgbe[..., 3:] > 0, 2.0 ** (rgbe[..., 3:] - 136.0), 0.0)
        write_hdr(LinearImage((rgbe[..., :3] * scale).astype(np.float32)), tmp_path / "a.hdr")
        data = read_hdr(tmp_path / "a.hdr").data
        assert data.max() > 2.0**126 and 0 < data[data > 0].min() < 2.0**-120
        assert (data == 0).any()
        got, _, _ = pu_fields(data, data, encoding, mapping)
        assert encoded_shapes == [TABLE_KEYS.shape]
        assert same_bits(got, direct_field(data, encoding, mapping))

    def test_full_precision_and_odd_subnormals_take_the_direct_path(self, rng, encoded_shapes):
        full = rng.lognormal(-1.5, 1.2, (20, 30, 3)).astype(np.float32)
        rgbe = (full.view(np.uint32) & 0xFFFF0000).view(np.float32)
        # an odd mantissa at RGBE exponent 1 decodes to a subnormal with low bits set
        subnormal = rgbe.copy()
        subnormal[3, 4, 1] = 3 * 2.0**-135
        assert subnormal[3, 4, 1].view(np.uint32) & 0xFFFF
        for data in (full, subnormal):
            encoded_shapes.clear()
            got, _, _ = pu_fields(data, rgbe)
            assert encoded_shapes == [data.shape, TABLE_KEYS.shape]
            assert same_bits(got, direct_field(data))
        encoded_shapes.clear()
        pu_fields(rgbe.astype(np.float64), rgbe.astype(np.float64))  # not float32 data
        assert encoded_shapes == [rgbe.shape, rgbe.shape]


class TestSsim:
    def test_identical_is_one(self, random_pair):
        a, _ = random_pair
        assert pu_ssim(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_offset_below_one_and_improving(self, rng):
        gt = LinearImage(rng.uniform(0.2, 0.6, (24, 24, 3)).astype(np.float32))
        values = []
        for c in (0.2, 0.1, 0.05, 0.01):
            pred = LinearImage((gt.data + c).astype(np.float32))
            values.append(pu_ssim(pred, gt))
        assert all(v < 1.0 for v in values)
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_matches_naive_sliding_window(self, random_pair):
        a, b = random_pair
        got = pu_ssim(a, b)
        want = oracles.naive_pu_ssim(a.data.astype(np.float64), b.data.astype(np.float64))
        assert got == pytest.approx(want, abs=1e-7)

    def test_too_small_raises(self, rng):
        a = LinearImage(rng.uniform(0, 1, (8, 8, 3)).astype(np.float32))
        with pytest.raises(ShapeError):
            pu_ssim(a, a)

    def test_flip_invariance(self, random_pair):
        a, b = random_pair
        fa = LinearImage(a.data[:, ::-1].copy())
        fb = LinearImage(b.data[:, ::-1].copy())
        assert pu_ssim(a, b) == pytest.approx(pu_ssim(fa, fb), abs=1e-12)

    def test_kernel_constant_fields(self):
        x = np.full((16, 16), 3.0)
        assert ssim_mean(x, x, data_range=10.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("data_range", [np.inf, np.nan, 0.0, -1.0, -np.inf])
    def test_data_range_must_be_finite_and_positive(self, rng, data_range):
        x = rng.uniform(0, 1, (16, 16))
        with pytest.raises(DomainError, match="data_range must be finite and positive"):
            ssim_mean(x, x * 0.9, data_range)

    @pytest.mark.parametrize("data_range", [1e300, np.float64(1e300), 1e200],
                             ids=["float_1e300", "float64_1e300", "float_1e200"])
    def test_data_range_whose_constants_overflow_is_domain_error(self, rng, data_range):
        x = rng.uniform(0, 1, (16, 16))
        with pytest.raises(DomainError, match=r"in \[2\*\*-126, float32's top\]"):
            ssim_mean(x, x * 0.9, data_range)


class TestRankInvariance:
    def test_peak_rescale_preserves_ordering(self, rng):
        gt = LinearImage(rng.uniform(0.05, 0.9, (24, 24, 3)).astype(np.float32))
        cand1 = LinearImage(np.clip(gt.data + rng.normal(0, 0.02, gt.data.shape), 0, 1).astype(np.float32))
        cand2 = LinearImage(np.clip(gt.data + rng.normal(0, 0.08, gt.data.shape), 0, 1).astype(np.float32))
        base = DisplayMapping(peak_luminance=1000.0)
        scaled = DisplayMapping(peak_luminance=4000.0, black_floor=0.02)
        order_base = pu_psnr(cand1, gt, mapping=base) > pu_psnr(cand2, gt, mapping=base)
        order_scaled = pu_psnr(cand1, gt, mapping=scaled) > pu_psnr(cand2, gt, mapping=scaled)
        assert order_base == order_scaled


class TestRmse:
    def test_identical(self, random_pair):
        a, _ = random_pair
        assert rmse_linear(a, a) == 0.0

    def test_constant_error(self):
        a = LinearImage(np.full((4, 4, 3), 0.75, dtype=np.float32))
        b = LinearImage(np.full((4, 4, 3), 0.25, dtype=np.float32))
        assert rmse_linear(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_matches_oracle(self, random_pair):
        a, b = random_pair
        assert rmse_linear(a, b) == pytest.approx(
            oracles.naive_rmse(a.data.astype(np.float64), b.data.astype(np.float64)),
            abs=1e-12)


class TestScoreDataset:
    def test_empty_intersection_reports_error(self, tmp_path):
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        report = score_dataset(tmp_path / "pred", tmp_path / "gt")
        assert report.per_image == []
        assert report.errors

    def test_identical_pair_scores_one(self, tmp_path, rng):
        img = LinearImage(rng.uniform(0.1, 1.0, (16, 16, 3)).astype(np.float32))
        for sub in ("pred", "gt"):
            (tmp_path / sub).mkdir()
            write_pfm(img, tmp_path / sub / "a.pfm")
        report = score_dataset(tmp_path / "pred", tmp_path / "gt")
        assert len(report.per_image) == 1
        assert report.aggregate["pu_ssim"] == pytest.approx(1.0, abs=1e-9)
        assert report.per_image[0].pu_psnr == float("inf")
        assert not report.errors

    def test_missing_prediction_is_error_entry(self, tmp_path, rng):
        img = LinearImage(rng.uniform(0.1, 1.0, (16, 16, 3)).astype(np.float32))
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        write_pfm(img, tmp_path / "gt" / "a.pfm")
        write_pfm(img, tmp_path / "gt" / "b.pfm")
        write_pfm(img, tmp_path / "pred" / "a.pfm")
        write_pfm(img, tmp_path / "pred" / "zz.pfm")
        report = score_dataset(tmp_path / "pred", tmp_path / "gt")
        assert len(report.per_image) == 1
        assert any("missing prediction: b" in e for e in report.errors)
        assert any("unmatched prediction: zz" in e for e in report.errors)

    def test_jobs_do_not_change_report(self, tmp_path, rng):
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        for i in range(4):
            gt = LinearImage(rng.uniform(0.1, 1.0, (16, 16, 3)).astype(np.float32))
            pred = LinearImage(np.clip(gt.data * 0.9, 0, 1).astype(np.float32))
            write_pfm(gt, tmp_path / "gt" / f"im{i}.pfm")
            write_pfm(pred, tmp_path / "pred" / f"im{i}.pfm")
        seq = score_dataset(tmp_path / "pred", tmp_path / "gt", jobs=1)
        par = score_dataset(tmp_path / "pred", tmp_path / "gt", jobs=8)
        assert seq.to_csv() == par.to_csv()

    @staticmethod
    def _three_pairs(root, rng, exact=(), missing=()):
        """Ground truths im0..im2 and their predictions: im2 the hardest, an `exact`
        one equal to its ground truth, a `missing` one not written."""
        for sub in ("pred", "gt"):
            (root / sub).mkdir()
        for i, noise in enumerate((0.02, 0.05, 0.3)):
            gt = rng.uniform(0.1, 1.0, (16, 16, 3)).astype(np.float32)
            pred = gt * rng.lognormal(0.0, noise, gt.shape).astype(np.float32)
            if i in exact:
                pred = gt
            write_pfm(LinearImage(gt), root / "gt" / f"im{i}.pfm")
            if i not in missing:
                write_pfm(LinearImage(pred), root / "pred" / f"im{i}.pfm")

    def test_incomplete_set_has_no_aggregate(self, tmp_path, rng):
        self._three_pairs(tmp_path, rng, missing=(2,))
        report = score_dataset(tmp_path / "pred", tmp_path / "gt")
        assert report.errors == ["missing prediction: im2"]
        assert report.aggregate is None
        doc = json.loads(report.to_json())
        assert doc["aggregate"] is None
        assert (doc["scored"], doc["expected"], doc["exact"]) == (2, 3, 0)
        assert [row["image"] for row in doc["per_image"]] == ["im0", "im1"]

    def test_ground_truth_stem_shared_by_two_files_leaves_the_set_incomplete(self, tmp_path,
                                                                             rng):
        self._three_pairs(tmp_path, rng)
        write_pfm(LinearImage(np.ones((16, 16, 3), np.float32)), tmp_path / "gt" / "im1.hdr")
        report = score_dataset(tmp_path / "pred", tmp_path / "gt")
        assert [r.image for r in report.per_image] == ["im0", "im2"]
        assert report.aggregate is None
        assert report.expected == 3
        assert report.errors[1:] == ["unmatched prediction: im1"]
        assert "share the stem 'im1'" in report.errors[0]

    def test_complete_set_counts_every_row(self, tmp_path, rng):
        self._three_pairs(tmp_path, rng)
        report = score_dataset(tmp_path / "pred", tmp_path / "gt")
        doc = json.loads(report.to_json())
        assert (doc["scored"], doc["expected"], doc["exact"]) == (3, 3, 0)
        assert doc["aggregate"]["pu_psnr"] == pytest.approx(
            np.mean([r.pu_psnr for r in report.per_image]), abs=1e-12)
        assert "runtime_ms_per_image" not in doc

    def test_exact_prediction_leaves_a_finite_psnr_over_the_others(self, tmp_path, rng):
        self._three_pairs(tmp_path, rng, exact=(0,))
        report = score_dataset(tmp_path / "pred", tmp_path / "gt")
        assert report.per_image[0].pu_psnr == np.inf
        others = [r.pu_psnr for r in report.per_image[1:]]
        assert report.aggregate["pu_psnr"] == pytest.approx(np.mean(others), abs=1e-12)
        assert report.aggregate["pu_ssim"] == pytest.approx(
            np.mean([r.pu_ssim for r in report.per_image]), abs=1e-12)
        doc = json.loads(report.to_json())
        assert doc["per_image"][0]["pu_psnr"] == "inf"
        assert isinstance(doc["aggregate"]["pu_psnr"], float)
        assert (doc["scored"], doc["expected"], doc["exact"]) == (3, 3, 1)

    def test_every_prediction_exact_aggregates_to_inf(self, tmp_path, rng):
        self._three_pairs(tmp_path, rng, exact=(0, 1, 2))
        doc = json.loads(score_dataset(tmp_path / "pred", tmp_path / "gt").to_json())
        assert doc["aggregate"]["pu_psnr"] == "inf"
        assert doc["exact"] == 3

    def test_empty_set_has_no_aggregate(self, tmp_path):
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        doc = json.loads(score_dataset(tmp_path / "pred", tmp_path / "gt").to_json())
        assert doc["aggregate"] is None
        assert (doc["scored"], doc["expected"], doc["exact"]) == (0, 0, 0)

    def test_aggregate_is_mean_of_rows(self, tmp_path, rng):
        report = MetricReport(per_image=[
            PerImageScore("a", 30.0, 0.9, 0.1),
            PerImageScore("b", 40.0, 0.8, 0.3),
        ])
        assert report.aggregate["pu_psnr"] == pytest.approx(35.0, abs=1e-9)
        assert report.aggregate["pu_ssim"] == pytest.approx(0.85, abs=1e-9)

    def test_json_serializes_inf_as_string(self):
        report = MetricReport(per_image=[PerImageScore("a", float("inf"), 1.0, 0.0)])
        doc = json.loads(report.to_json())
        assert doc["per_image"][0]["pu_psnr"] == "inf"
        assert doc["schema"] == 2

    def test_csv_layout(self):
        report = MetricReport(per_image=[PerImageScore("a", float("inf"), 1.0, 0.0)])
        lines = report.to_csv().splitlines()
        assert lines[0] == "image,psnr,ssim,rmse"
        assert lines[1].startswith("a,inf,")


class TestLeaderboard:
    ROWS = [
        ("UESTC-ITM", 34.06, 0.94),
        ("NJ Challenger", 29.22, 0.85),
        ("ToneMapper", 34.49, 0.95),
        ("Jowgik (DITM)", 33.64, 0.94),
        ("LiU_CGIP", 34.33, 0.95),
        ("HDRer", 34.39, 0.95),
    ]

    def test_challenge_ranking_order(self):
        ranked = [row[0] for row in rank_teams(self.ROWS)]
        assert ranked == ["ToneMapper", "HDRer", "LiU_CGIP", "UESTC-ITM",
                          "Jowgik (DITM)", "NJ Challenger"]

    @pytest.mark.parametrize("row", [("a", float("nan"), 0.5), ("a", 30.0, float("nan")),
                                     ("a", np.float64("nan"), 0.5)])
    def test_nan_score_is_domain_error(self, row):
        # a NaN PSNR used to compare false both ways and could rank first
        with pytest.raises(DomainError, match="NaN score"):
            rank_teams([row, ("b", 30.0, 0.9)])

    def test_exact_prediction_ranks_first(self):
        ranked = rank_teams(self.ROWS + [("Exact", float("inf"), 1.0)])
        assert ranked[0][0] == "Exact"
        assert [row[0] for row in ranked[1:]] == [row[0] for row in rank_teams(self.ROWS)]
