import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itmbench.camera import (Crf, ExposureRange, NoiseParams, SynthesisRecord,
                             SynthesisSettings, _derive_seed, estimate_exposure_range,
                             generate_dataset, simulate_ldr)
from itmbench.errors import DomainError, RangeError
from itmbench.image_io import LinearImage, write_hdr, write_pfm

import oracles


def constant_image(value, shape=(10, 10)):
    return LinearImage(np.full(shape + (3,), value, dtype=np.float32))


class TestCrf:
    def test_identity_family(self):
        crf = Crf("gamma")
        xs = np.linspace(0, 1, 64)
        assert np.array_equal(crf.apply(xs), xs)
        assert np.array_equal(crf.inverse(xs), xs)

    def test_sigmoid_hits_one_exactly(self):
        crf = Crf("sigmoid", n=0.9, sigma_c=0.6)
        assert crf.apply(1.0) == 1.0
        assert crf.apply(0.0) == 0.0

    def test_sigmoid_inverse_round_trip(self):
        crf = Crf("sigmoid", n=0.9, sigma_c=0.6)
        xs = np.linspace(0, 1, 257)
        assert np.abs(crf.inverse(crf.apply(xs)) - xs).max() <= 1e-10

    def test_gamma_round_trip(self):
        crf = Crf("gamma", gamma=1 / 2.2)
        xs = np.linspace(0, 1, 257)
        assert np.abs(crf.inverse(crf.apply(xs)) - xs).max() <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_monotone_table_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        table = np.cumsum(rng.uniform(0.01, 1.0, size=256))
        crf = Crf("table", table=table)
        xs = np.linspace(0, 1, 1024)
        assert np.abs(crf.inverse(crf.apply(xs)) - xs).max() <= 1e-4

    def test_non_monotone_table_rejected(self):
        table = np.linspace(0, 1, 256)
        table[128] = table[127]  # plateau breaks strict monotonicity
        with pytest.raises(DomainError):
            Crf("table", table=table)
        # an infinite end passes the monotone check but would normalize to NaN
        for end in (0, -1):
            table = np.linspace(0, 1, 256)
            table[end] = np.inf if end else -np.inf
            with pytest.raises(DomainError, match="entries must be finite"):
                Crf("table", table=table)

    def test_spec_parsing(self):
        assert Crf.from_spec("identity").family == "gamma"
        assert Crf.from_spec("gamma:0.45").gamma == pytest.approx(0.45)
        crf = Crf.from_spec("sigmoid:0.9,0.6")
        assert (crf.n, crf.sigma_c) == (0.9, 0.6)
        with pytest.raises(DomainError):
            Crf.from_spec("mystery:1")
        for spec in ("gamma:inf", "sigmoid:0.9,inf", "sigmoid:inf,0.6", "sigmoid:-inf,0.6"):
            with pytest.raises(DomainError, match="bad CRF spec .*finite"):
                Crf.from_spec(spec)
        with pytest.raises(DomainError, match="finite"):
            Crf.from_dict({"family": "sigmoid", "n": 1.0, "sigma_c": float("inf")})

    @pytest.mark.parametrize("crf", [
        Crf("gamma"), Crf("gamma", gamma=0.45), Crf("sigmoid", n=0.8, sigma_c=0.5),
        Crf("table", table=np.cumsum(np.linspace(0.5, 1.5, 256))),
    ], ids=["identity", "gamma", "sigmoid", "table"])
    def test_dict_round_trip(self, crf):
        assert Crf.from_dict(crf.as_dict()) == crf
        assert Crf.from_dict(json.loads(json.dumps(crf.as_dict()))) == crf

    @pytest.mark.parametrize("record, message", [
        ({"family": "gamma"}, "holds exactly the keys family, gamma; got family$"),
        ({"family": "sigmoid", "n": 1.0}, "holds exactly the keys family, n, sigma_c; got family, n$"),
        ({"family": "gamma", "gamma": "x"}, "CRF parameters must be numbers"),
        ({"family": "gamma", "gamma": 0.5, "n": 3}, "holds exactly the keys family, gamma; got"),
        ({"family": "gamma", "gamma": 10**400}, "CRF parameters must be numbers"),
    ], ids=["missing-gamma", "missing-sigma_c", "non-number", "extra-key", "huge-integer"])
    def test_malformed_dict_rejected(self, record, message):
        with pytest.raises(DomainError, match=message):
            Crf.from_dict(record)

    def test_table_of_integers_beyond_float64_rejected(self):
        # converting such an integer raises OverflowError, not ValueError
        with pytest.raises(DomainError, match="CRF parameters must be numbers"):
            Crf("table", table=(10**400,) * 256)

    def test_constructor_coerces_numbers(self):
        crf = Crf("sigmoid", n=np.float32(0.75), sigma_c="0.5")
        assert (crf.n, crf.sigma_c) == (0.75, 0.5)
        assert type(crf.n) is float and type(crf.sigma_c) is float

    # NaN and a value outside [0, 1] both get the unit range's one message, which names each rule
    @pytest.mark.parametrize("value, message", [(float("nan"), "must be finite"),
                                                (-0.1, r"must lie in \[0, 1\]"),
                                                (1.5, r"must lie in \[0, 1\]")])
    def test_input_outside_unit_interval_rejected(self, value, message):
        crf = Crf("sigmoid", n=0.9, sigma_c=0.6)
        unit = r" must be finite and must lie in \[0, 1\]$"
        with pytest.raises(DomainError, match="^CRF input" + unit) as info:
            crf.apply(np.array([0.5, value]))
        assert re.search(message, str(info.value))
        with pytest.raises(DomainError, match="^CRF inverse input" + unit) as info:
            crf.inverse(value)
        assert re.search(message, str(info.value))


class TestExposureRange:
    # 2^ev times a finite float32 value overflows float64 for some ev > 896
    @pytest.mark.parametrize("bounds", [(float("nan"), 1.0), (0.0, float("nan")),
                                        (-float("inf"), 0.0), (0.0, float("inf")), (1.0, 0.0),
                                        (0.0, 5000.0), (896.5, 897.0), (-1.0, 1024.0),
                                        (0.0, np.nextafter(896.0, np.inf))])
    def test_bounds_must_be_finite_and_ordered(self, bounds):
        with pytest.raises(DomainError, match="require finite ev_min <= ev_max"):
            ExposureRange(*bounds)

    def test_largest_bound_is_accepted(self):
        assert ExposureRange(-2000.0, 896.0).ev_max == 896.0

    def test_constant_one_saturates_immediately(self):
        er = estimate_exposure_range(constant_image(1.0), sat_frac=0.05)
        assert er.ev_max == pytest.approx(0.0, abs=1e-9)

    def test_constant_half_gains_exactly_one_stop(self):
        base = estimate_exposure_range(constant_image(1.0), sat_frac=0.05)
        half = estimate_exposure_range(constant_image(0.5), sat_frac=0.05)
        assert half.ev_max == pytest.approx(base.ev_max + 1.0, abs=1e-9)

    def test_two_level_image_matches_sweep_oracle(self):
        data = np.full((10, 10, 3), 0.1, dtype=np.float32)
        data[0, :, :] = 1.0  # top decile bright
        img = LinearImage(data)
        er = estimate_exposure_range(img, sat_frac=0.15, dark_frac=0.10)
        lum = oracles.naive_luminance(data.astype(np.float64))
        ev_min, ev_max = oracles.naive_exposure_sweep(lum, 0.15, 0.10)
        assert er.ev_max == pytest.approx(ev_max, abs=0.011)
        assert er.ev_min == pytest.approx(ev_min, abs=0.011)

    def test_random_images_match_sweep_oracle(self, rng):
        for _ in range(3):
            data = rng.lognormal(mean=-2.0, sigma=1.0, size=(12, 12, 3)).astype(np.float32)
            img = LinearImage(np.clip(data, 0, 100))
            er = estimate_exposure_range(img)
            lum = oracles.naive_luminance(img.data.astype(np.float64))
            ev_min, ev_max = oracles.naive_exposure_sweep(lum, 0.05, 0.10)
            if ev_min <= ev_max:  # the sweep cannot express the collapsed case
                assert er.ev_max == pytest.approx(ev_max, abs=0.011)
                assert er.ev_min == pytest.approx(ev_min, abs=0.011)

    def test_all_zero_rejected(self):
        with pytest.raises(RangeError):
            estimate_exposure_range(constant_image(0.0))

    def test_crossed_bounds_collapse_to_midpoint(self):
        # 20 stops between dark and bright quantile bands forces a collapse
        data = np.full((10, 10, 3), 2.0**-20, dtype=np.float32)
        data[:3] = 1.0
        er = estimate_exposure_range(LinearImage(data), sat_frac=0.05, dark_frac=0.10)
        assert er.ev_min == er.ev_max

    def test_bad_fractions(self):
        with pytest.raises(DomainError):
            estimate_exposure_range(constant_image(0.5), sat_frac=0.0)


class TestSimulate:
    def test_half_gray_quantizes_to_128(self):
        ldr = simulate_ldr(constant_image(0.5), ev=0.0, crf=Crf("gamma"))
        assert (ldr.data == 128).all()  # round(127.5) with round-half-up

    def test_saturated_input_clips_to_255(self):
        for crf in (Crf("gamma"), Crf("gamma", gamma=1 / 2.2), Crf("sigmoid", n=0.9, sigma_c=0.6)):
            ldr = simulate_ldr(constant_image(1.7), ev=0.0, crf=crf)
            assert (ldr.data == 255).all()

    def test_gamma_example_frozen_value(self):
        # 0.25 ** (1/2.2) = 0.53252054471998134 (50-digit evaluation)
        ldr = simulate_ldr(constant_image(0.25), ev=0.0, crf=Crf("gamma", gamma=1 / 2.2))
        assert (ldr.data == 136).all()

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 1e308,
                                       np.nextafter(2.0**896, np.inf)])
    def test_noise_level_must_be_finite(self, sigma):
        with pytest.raises(DomainError, match="noise level must be finite"):
            NoiseParams(sigma)

    def test_largest_noise_on_the_largest_exposure_stays_finite(self):
        # 2^896 of noise on float32's largest value times 2^896 stays inside float64
        noise = NoiseParams(2.0**896)
        top = constant_image(float(np.finfo(np.float32).max))
        assert (simulate_ldr(top, 896.0, Crf("gamma"), noise, seed=3).data == 255).all()
        assert simulate_ldr(constant_image(0.0), 0.0, Crf("gamma"), noise, seed=3).data.max() == 255

    def test_deterministic_given_seed(self, rng):
        img = LinearImage(rng.uniform(0, 1, (8, 8, 3)).astype(np.float32))
        noise = NoiseParams(sigma_read=0.05)
        a = simulate_ldr(img, 0.5, Crf("sigmoid", n=0.9, sigma_c=0.6), noise, seed=42)
        b = simulate_ldr(img, 0.5, Crf("sigmoid", n=0.9, sigma_c=0.6), noise, seed=42)
        c = simulate_ldr(img, 0.5, Crf("sigmoid", n=0.9, sigma_c=0.6), noise, seed=43)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_one_stop_doubles_preclip_values(self, rng):
        img = LinearImage(rng.uniform(0, 0.4, (8, 8, 3)).astype(np.float32))
        for ev in (1.0, 2.0):
            want = np.floor(np.clip(img.data.astype(np.float64) * 2.0**ev, 0.0, 1.0) * 255.0 + 0.5)
            assert np.array_equal(simulate_ldr(img, ev, Crf("gamma")).data, want)

    def test_saturated_fraction_nondecreasing_in_ev(self, rng):
        img = LinearImage(rng.uniform(0, 1.2, (16, 16, 3)).astype(np.float32))
        fracs = []
        for ev in (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0):
            ldr = simulate_ldr(img, ev, Crf("gamma"))
            fracs.append((ldr.data == 255).mean())
        assert all(x <= y for x, y in zip(fracs, fracs[1:]))

    @pytest.mark.parametrize("ev", [float("inf"), -float("inf"), float("nan"),
                                    np.nextafter(896.0, np.inf), 896.5, 1023.0, 1024.0, 2000.0])
    def test_exposure_must_be_finite(self, ev):
        with pytest.raises(DomainError, match="exposure ev must be finite"):
            simulate_ldr(constant_image(0.5), ev, Crf("gamma"))

    def test_largest_exposure_of_the_largest_float32_saturates(self):
        top = float(np.finfo(np.float32).max)
        assert (simulate_ldr(constant_image(top), 896.0, Crf("gamma")).data == 255).all()
        assert (simulate_ldr(constant_image(top), -2000.0, Crf("gamma")).data == 0).all()

    def test_float64_input_overflowing_at_the_exposure_rejected(self):
        # radiance stops at float32's largest value, whatever the exposure: 1e300 at
        # ev 0 no longer saturates to 255
        message = "camera input must be finite and non-negative"
        for value in (1e300, np.nextafter(float(np.finfo(np.float32).max), np.inf)):
            for ev in (100.0, 0.0, -100.0):
                with pytest.raises(DomainError, match=message):
                    simulate_ldr(np.full((2, 2, 3), value), ev, Crf("gamma"))

    def test_quantize_round_half_up(self):
        # the camera's last stage, floor(255 x + 0.5), on an array input with an identity CRF
        ldr = simulate_ldr(np.array([[[0.0, 0.5, 1.0], [127.5 / 255.0] * 3]]), 0.0, Crf("gamma"))
        assert ldr.data.tolist() == [[[0, 128, 255], [128, 128, 128]]]


class TestGenerateDataset:
    def _sources(self, tmp_path, rng, n=3, size=24):
        src = tmp_path / "src"
        src.mkdir()
        for i in range(n):
            data = rng.uniform(0.01, 2.0, (size, size, 3)).astype(np.float32)
            write_hdr(LinearImage(data), src / f"scene{i}.hdr")
        return src

    def test_pair_and_manifest_counts(self, tmp_path, rng):
        src = self._sources(tmp_path, rng)
        out = tmp_path / "out"
        records, errors = generate_dataset(src, out, count_per_image=2, master_seed=5)
        assert not errors
        assert len(records) == 6
        manifest = (out / "manifest.jsonl").read_text().splitlines()
        assert len(manifest) == 6
        for line in manifest:
            row = json.loads(line)
            assert set(row) >= {"source", "index", "seed", "ev", "crf", "noise_sigma"}

    @pytest.mark.parametrize("crop, crop_text", [((3, 5, 16, 16), "[3, 5, 16, 16]"),
                                                 (None, "null")])
    def test_manifest_line_text(self, crop, crop_text):
        # keys sorted, the crop tuple as a list (or null), the table CRF's entries as a list
        record = SynthesisRecord(
            source="a.hdr", index=1, seed=12345, ev=-1.5,
            crf=Crf("table", table=range(256)).as_dict(), noise_sigma=0.002, crop=crop,
            ldr_file="a_0001.png", hdr_file="a_0001.hdr")
        table = ", ".join(repr(k / 255) for k in range(256))
        assert record.to_json_line() == (
            f'{{"crf": {{"family": "table", "table": [{table}]}}, "crop": {crop_text}, '
            '"ev": -1.5, "hdr_file": "a_0001.hdr", "index": 1, "ldr_file": "a_0001.png", '
            '"noise_sigma": 0.002, "seed": 12345, "source": "a.hdr"}')
        assert table.startswith("0.0, 0.00392156862745098, ") and table.endswith(", 1.0")

    @pytest.mark.parametrize("count", [0, -1])
    def test_non_positive_count_rejected(self, tmp_path, rng, count):
        src = self._sources(tmp_path, rng, n=1)
        with pytest.raises(DomainError, match="count_per_image must be >= 1"):
            generate_dataset(src, tmp_path / "out", count_per_image=count)
        assert not (tmp_path / "out" / "manifest.jsonl").exists()

    @pytest.mark.parametrize("count", [2.5, float("nan"), "2"])
    def test_non_integer_count_rejected(self, tmp_path, rng, count):
        src = self._sources(tmp_path, rng, n=1)
        with pytest.raises(DomainError, match="count_per_image must be an integer"):
            generate_dataset(src, tmp_path / "out", count_per_image=count)
        assert not (tmp_path / "out" / "manifest.jsonl").exists()

    def test_numpy_integer_count_accepted(self, tmp_path, rng):
        src = self._sources(tmp_path, rng, n=1)
        records, errors = generate_dataset(src, tmp_path / "out", count_per_image=np.int64(2))
        assert len(records) == 2 and not errors

    def test_failed_pair_writes_no_file(self, tmp_path):
        # exposures of this source put its bright row beyond float32's range (the ground
        # truth image rejects it) or beyond RGBE's largest exponent (its encoder rejects it)
        src = tmp_path / "src"
        src.mkdir()
        data = np.full((32, 32, 3), 1e-6, np.float32)
        data[5] = 2.5e33
        write_pfm(LinearImage(data), src / "source.pfm")
        out = tmp_path / "out"
        records, errors = generate_dataset(src, out, count_per_image=8, master_seed=1)
        assert sum("within float32's range" in e for e in errors) == 4
        assert sum("too large for RGBE encoding" in e for e in errors) == 2
        written = {p.name for p in out.iterdir()}
        assert written == {"manifest.jsonl"} | {r.ldr_file for r in records} | {
            r.hdr_file for r in records}

    def test_same_master_seed_is_bit_identical(self, tmp_path, rng):
        src = self._sources(tmp_path, rng)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        generate_dataset(src, out1, count_per_image=2, master_seed=7)
        generate_dataset(src, out2, count_per_image=2, master_seed=7)
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_crop_produces_target_resolution(self, tmp_path, rng):
        src = tmp_path / "src"
        src.mkdir()
        data = rng.uniform(0.01, 1.5, (48, 48, 3)).astype(np.float32)
        write_hdr(LinearImage(data), src / "big.hdr")
        out = tmp_path / "out"
        settings = SynthesisSettings(crop=np.int64(24))
        assert type(settings.crop) is int
        records, errors = generate_dataset(src, out, settings=settings, master_seed=1)
        assert not errors
        from itmbench.image_io import read_hdr, read_ldr8
        ldr = read_ldr8(out / records[0].ldr_file)
        hdr = read_hdr(out / records[0].hdr_file)
        assert (ldr.height, ldr.width) == (24, 24)
        assert (hdr.height, hdr.width) == (24, 24)

    def test_unreadable_source_recorded_not_fatal(self, tmp_path, rng):
        src = self._sources(tmp_path, rng, n=1)
        (src / "junk.hdr").write_bytes(b"not an hdr file")
        out = tmp_path / "out"
        records, errors = generate_dataset(src, out, master_seed=3)
        assert len(records) == 1
        assert len(errors) == 1 and "junk.hdr" in errors[0]

    def test_derived_seed_stability(self):
        assert _derive_seed(7, "a.hdr", 0) == _derive_seed(7, "a.hdr", 0)
        assert _derive_seed(7, "a.hdr", 0) != _derive_seed(7, "a.hdr", 1)
        assert _derive_seed(7, "a.hdr", 0) != _derive_seed(8, "a.hdr", 0)


@pytest.mark.parametrize("field", ["crf_family", "crop_mode", "ldr_format", "hdr_format"])
def test_settings_reject_unknown_choice(field):
    with pytest.raises(DomainError, match=field):
        SynthesisSettings(**{field: "exr"})


@pytest.mark.parametrize("field, value", [
    ("sat_frac", 0.0), ("sat_frac", 1.0), ("dark_frac", -0.1), ("dark_frac", float("nan")),
    ("sigma_range", (-0.5, 0.01)), ("sigma_range", (0.02, 0.01)),
    ("gamma_range", (0.9, 0.2)), ("gamma_range", (0.0, 0.5)),
    ("sigmoid_n_range", (-1.0, 1.0)), ("sigmoid_c_range", (0.8, 0.4)),
    ("crop", -3),
    ("sigma_range", (0.0, float("inf"))), ("gamma_range", (0.35, float("inf"))),
    ("gamma_range", (float("inf"), float("inf"))), ("sigmoid_n_range", (0.7, float("inf"))),
    ("sigmoid_c_range", (0.4, float("inf"))),
    ("crop", 2.5), ("crop", float("nan")), ("crop", "24"),
])
def test_settings_reject_bad_number(field, value):
    with pytest.raises(DomainError, match=field):
        SynthesisSettings(**{field: value})
