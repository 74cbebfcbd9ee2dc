import numpy as np
import pytest

from itmbench.color import DisplayMapping, luminance, mu_law, to_display_luminance
from itmbench.errors import DomainError


class TestLuminance:
    def test_white(self):
        assert luminance((1.0, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-7)

    def test_pure_red_weight(self):
        assert luminance((1.0, 0.0, 0.0)) == 0.2126

    def test_half_green(self):
        assert luminance((0.0, 0.5, 0.0)) == pytest.approx(0.3576, abs=1e-12)

    def test_array_shape(self, rng):
        img = rng.uniform(0, 1, size=(4, 5, 3))
        assert luminance(img).shape == (4, 5)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            luminance((-1.0, 0.0, 0.0))


class TestCompressors:
    def test_mu_law_endpoints(self):
        assert mu_law(0.0) == 0.0
        assert mu_law(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_mu_law_midpoint_golden(self):
        # log(2501)/log(5001), frozen from a 50-digit evaluation
        assert mu_law(0.5, 5000.0) == pytest.approx(
            0.91864327187964633, abs=1e-12)

    def test_pu_approx_midpoint_golden(self):
        # the losses' PU approximation log10(1 + c x) / log10(1 + c) at c = 10000:
        # log(5001)/log(10001), frozen from a 50-digit evaluation
        assert mu_law(0.5, 10000.0) == pytest.approx(
            0.92475417374803362, abs=1e-12)

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, 1.0, 4096)
        assert (np.diff(mu_law(xs)) > 0).all()

    def test_domain(self):
        assert mu_law(1.2) > 1.0
        with pytest.raises(DomainError):
            mu_law(-0.1)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, None],
                             ids=["float16", "float32", "float64", "python_float"])
    def test_default_mu_is_5000(self, rng, dtype):
        # the gain is passed as the number itself: 5000.0 gives the bits of the default
        x = rng.lognormal(-1.0, 1.0, (7, 5, 3))
        x = float(x[0, 0, 0]) if dtype is None else x.astype(dtype)
        out = mu_law(x, 5000.0)
        assert type(out) is type(mu_law(x))
        assert np.asarray(out).tobytes() == np.asarray(mu_law(x)).tobytes()

    def test_bad_params(self):
        with pytest.raises(DomainError):
            mu_law(0.5, 0.0)
        with pytest.raises(DomainError):
            mu_law(0.5, -1.0)
        for mu in (np.inf, np.nan):
            with pytest.raises(DomainError, match="mu must be finite"):
                mu_law(0.5, mu)
        with pytest.raises(DomainError, match="mu must be a real number"):
            mu_law(0.5, object())


class TestDisplayMapping:
    def test_peak(self):
        assert to_display_luminance(np.array(1.0)) == pytest.approx(1000.0)

    def test_black_floor(self):
        assert to_display_luminance(np.array(0.0)) == pytest.approx(0.005)

    def test_linearity(self):
        assert to_display_luminance(np.array(0.5)) == pytest.approx(500.0)

    @pytest.mark.parametrize("peak", [1.0, 1000.0, 4000.0 / 0.7, 2.0**896])
    def test_relative_one_is_the_peak(self, peak):
        out = to_display_luminance(1.0, DisplayMapping(peak_luminance=peak))
        assert type(out) is float and out == peak

    @pytest.mark.parametrize("value", [
        1, 0.5, np.float16(0.5), np.float32(0.5), np.float64(0.5), np.array(0.5, np.float32),
    ], ids=["int", "float", "np_float16", "np_float32", "np_float64", "zero_d_float32"])
    def test_zero_d_input_gives_a_python_float(self, value):
        # as luminance, mu_law, pu_encode and pu_decode do; arrays of any other rank stay arrays
        out = to_display_luminance(value)
        assert type(out) is float and out == float(value) * 1000.0
        row = to_display_luminance(np.array([value]))
        assert type(row) is np.ndarray and row.tolist() == [out]

    @pytest.mark.parametrize("white", [0.5, 0.7, 2.0, 1000.0])
    def test_another_white_point_rescales_the_data(self, rng, white):
        # there is one display scale: data whose white is `white` is divided by it first,
        # x / white * peak == x * peak / white up to rounding
        x = rng.uniform(0.01, 4.0, (5, 6, 3))
        mapping = DisplayMapping(peak_luminance=4000.0)
        out = to_display_luminance(x / white, mapping)
        np.testing.assert_allclose(out, x * (4000.0 / white), rtol=4e-16)

    def test_invalid_mapping(self):
        for kwargs, message in [
            ({"peak_luminance": 1.0, "black_floor": 2.0}, "black_floor < peak_luminance"),
            ({"peak_luminance": float("inf")}, "peak_luminance must be finite"),
        ]:
            with pytest.raises(DomainError, match=message):
                DisplayMapping(**kwargs)
