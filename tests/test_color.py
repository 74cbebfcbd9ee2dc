import numpy as np
import pytest

from itmbench.color import DisplayMapping, MuLawParams, luminance, mu_law, to_display_luminance
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
        assert mu_law(0.5, MuLawParams(5000.0)) == pytest.approx(
            0.91864327187964633, abs=1e-12)

    def test_pu_approx_midpoint_golden(self):
        # the losses' PU approximation log10(1 + c x) / log10(1 + c) at c = 10000:
        # log(5001)/log(10001), frozen from a 50-digit evaluation
        assert mu_law(0.5, MuLawParams(10000.0)) == pytest.approx(
            0.92475417374803362, abs=1e-12)

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, 1.0, 4096)
        assert (np.diff(mu_law(xs)) > 0).all()

    def test_domain(self):
        assert mu_law(1.2) > 1.0
        with pytest.raises(DomainError):
            mu_law(-0.1)

    def test_bad_params(self):
        with pytest.raises(DomainError):
            MuLawParams(0.0)
        with pytest.raises(DomainError):
            MuLawParams(-1.0)
        for mu in (np.inf, np.nan):
            with pytest.raises(DomainError, match="mu must be finite"):
                MuLawParams(mu)


class TestDisplayMapping:
    def test_peak(self):
        assert to_display_luminance(np.array(1.0)) == pytest.approx(1000.0)

    def test_black_floor(self):
        assert to_display_luminance(np.array(0.0)) == pytest.approx(0.005)

    def test_linearity(self):
        assert to_display_luminance(np.array(0.5)) == pytest.approx(500.0)

    def test_reference_white(self):
        mapping = DisplayMapping(peak_luminance=1000.0, reference_white=2.0)
        assert to_display_luminance(np.array(1.0), mapping) == pytest.approx(500.0)

    def test_invalid_mapping(self):
        for kwargs, message in [
            ({"peak_luminance": 1.0, "black_floor": 2.0}, "black_floor < peak_luminance"),
            ({"peak_luminance": float("inf")}, "peak_luminance must be finite"),
            ({"reference_white": float("inf")}, "reference_white must be finite"),
            ({"reference_white": float("nan")}, "reference_white must be finite"),
            ({"reference_white": 0.0}, "reference_white must be finite and positive"),
        ]:
            with pytest.raises(DomainError, match=message):
                DisplayMapping(**kwargs)
