"""The input rule shared by every function that takes data, from the range table in `color`.

Each color, metric, loss, operator and exposure function takes a LinearImage
or an array; a value that is non-finite, negative or beyond float32's range
(the range of a LinearImage) is a DomainError whose text says "must be finite
and non-negative", data that is not boolean, integer or real float is a
DomainError too, mismatched shapes are a ShapeError, and a LinearImage gives
the value its `.data` gives. The other entry points for data follow the same
rule against another range of the table: a signed field (an SSIM input, a
trajectory entry, a mask field or mask, an SDE state) lies within plus or
minus float32's top, a CRF input or fusion weight in [0, 1], the residual
within 2^896 in magnitude, and luminance or PU values given to `pu_encode`
and `pu_decode` are finite. With radiance at most float32's largest value and
every gain on it (the residual and the mask sharpness among them) at most
2^896, no arithmetic can leave float64's range: each value is checked where it
enters, with no RuntimeWarning, and no function traps floating-point errors.
"""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from itmbench import losses
from itmbench.analysis import error_map, saturation_split
from itmbench.camera import (Crf, ExposureRange, NoiseParams, SynthesisSettings,
                             estimate_exposure_range, simulate_ldr)
from itmbench.color import DisplayMapping, MuLawParams, luminance, mu_law, to_display_luminance
from itmbench.errors import DomainError, FormatError, ShapeError
from itmbench.image_io import LinearImage, Ldr8Image
from itmbench.operators import (MaskParams, MaskTriple, blurred_luminance, exposure_masks,
                                fuse_exposures, residual_project)
from itmbench.pu21 import PuEncoding, pu_decode, pu_encode, pu_psnr, pu_ssim, rmse_linear, ssim_mean
from itmbench.sde import SdeSchedule, backward_simulate, forward_simulate

SHAPE = (16, 16, 3)  # the smallest side upf_loss's default 16 px patch accepts
F32_MAX = float(np.finfo(np.float32).max)
_MASKS = MaskTriple(under=np.ones(SHAPE[:2]), mid=np.zeros(SHAPE[:2]), over=np.zeros(SHAPE[:2]))

UNARY = {
    "luminance": luminance,
    "to_display_luminance": to_display_luminance,
    "mu_law": mu_law,
    "tv_loss": losses.tv_loss,
    "blurred_luminance": lambda image: blurred_luminance(image, 3),
    "fuse_exposures": lambda image: fuse_exposures(image, _MASKS).data,
    "residual_project": lambda image: residual_project(image, 0.5, np.zeros(SHAPE[:2])).data,
    "estimate_exposure_range": lambda image: tuple(vars(estimate_exposure_range(image)).values()),
}
BINARY = {
    "pu_psnr": pu_psnr,
    "pu_ssim": pu_ssim,
    "rmse_linear": rmse_linear,
    "error_map": error_map,
    "recon_loss": lambda pred, gt: losses.recon_loss([pred], gt),
    "linear_l1": losses.linear_l1,
    "denoise_loss": losses.denoise_loss,
    "ssim_pu_loss": losses.ssim_pu_loss,
    "color_loss": losses.color_loss,
    "upf_loss": losses.upf_loss,
}


_SCHED = SdeSchedule.cosine(4)
_FLAT = np.zeros(SHAPE[:2])
# the entry points that check data against another range of the table, each given one array
# (a residual, weight or mask takes its first channel)
RANGED = {
    "Crf.apply": lambda data: Crf("gamma", gamma=0.5).apply(data),
    "Crf.inverse": lambda data: Crf("gamma", gamma=0.5).inverse(data),
    "pu_encode": pu_encode,
    "pu_decode": pu_decode,
    "forward_simulate_x0": lambda data: forward_simulate(data, 0.0, _SCHED),
    "forward_simulate_mu": lambda data: forward_simulate(0.0, data, _SCHED),
    "backward_simulate_xT": lambda data: backward_simulate(data, 0.0, _SCHED, lambda x, s: 0.0),
    "backward_simulate_mu": lambda data: backward_simulate(0.0, data, _SCHED, lambda x, s: 0.0),
    "residual": lambda data: residual_project(np.ones(SHAPE), 0.5, data[..., 0]),
    "fusion_weight": lambda data: fuse_exposures(np.ones(SHAPE), _MASKS, (data[..., 0], 0, 0)),
    "fusion_mask": lambda data: fuse_exposures(np.ones(SHAPE), MaskTriple(data[..., 0], _FLAT,
                                                                          _FLAT)),
}


@pytest.fixture
def images(rng):
    return [LinearImage(rng.uniform(0.05, 1.5, SHAPE).astype(np.float32)) for _ in range(2)]


# (function, which argument is bad): every argument of every function
ARGUMENTS = [(name, 0) for name in UNARY] + [(name, k) for name in BINARY for k in (0, 1)]


def _call(name, args):
    if name in BINARY:
        return BINARY[name](*args)
    return (UNARY[name] if name in UNARY else RANGED[name])(args[0])


@pytest.mark.parametrize("name, position", ARGUMENTS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 3.5e38, np.nextafter(F32_MAX, np.inf)])
def test_non_finite_or_negative_is_a_domain_error(images, name, position, bad):
    args = [image.data.astype(np.float64) for image in images]
    args[position][3, 5, 1] = bad
    with pytest.raises(DomainError, match="must be finite and non-negative"):
        _call(name, args)


# data that is not boolean, integer or real float: each used to reach numpy, which raised
# its own ValueError (datetime), warned (complex) or computed with it (strings, objects)
BAD_DTYPES = ["datetime64[s]", "timedelta64[s]", "complex128", "complex64", "U8", "S8", "O"]


@pytest.mark.parametrize("name, position", ARGUMENTS + [(name, 0) for name in RANGED])
@pytest.mark.parametrize("dtype", BAD_DTYPES)
def test_data_of_another_kind_is_a_domain_error(images, name, position, dtype):
    args = [image.data for image in images]
    args[position] = args[position].astype(np.int64).astype(dtype)
    with pytest.raises(DomainError, match="must be boolean, integer or real float data"):
        _call(name, args)


@pytest.mark.parametrize("dtype", BAD_DTYPES)
def test_linear_image_of_another_kind_is_a_format_error(dtype):
    with pytest.raises(FormatError, match="must be boolean, integer or real float data"):
        LinearImage(np.ones((2, 2, 3), dtype=np.int64).astype(dtype))


def test_string_triple_is_not_a_luminance():
    with pytest.raises(DomainError, match="got dtype <U1"):
        luminance([["1", "2", "3"]])


@pytest.mark.parametrize("name", BINARY)
@pytest.mark.parametrize("position", [0, 1])
def test_mismatched_shapes_are_a_shape_error(images, name, position):
    args = [image.data for image in images]
    args[position] = args[position][:, :-1]
    with pytest.raises(ShapeError):
        _call(name, args)


# the public entry points that check their two images through `color._pair`, each with the name
# its range message gives the images
PAIRED = {"recon_loss": "loss inputs", "linear_l1": "loss inputs", "color_loss": "loss inputs",
          "ssim_pu_loss": "loss inputs", "upf_loss": "loss inputs",
          "rmse_linear": "linear RMSE inputs",
          "pu_psnr": "display mapping input", "pu_ssim": "display mapping input",
          "error_map": "display mapping input"}


@pytest.mark.parametrize("name", PAIRED)
def test_pair_check_takes_shapes_first_then_each_image(images, name):
    a, b = (image.data for image in images)
    bad = b.copy()
    bad[3, 5, 1] = np.nan
    for x, y in [(a[:, :-1], bad), (bad, a[:-1]), (images[0], LinearImage(b[1:]))]:
        shapes = f"{np.shape(getattr(x, 'data', x))} vs {np.shape(getattr(y, 'data', y))}"
        with pytest.raises(ShapeError, match=f"^image shapes differ: {re.escape(shapes)}$"):
            _call(name, [x, y])
    with pytest.raises(DomainError, match=f"^{PAIRED[name]} must be finite and non-negative"):
        _call(name, [a, bad])


def test_every_recon_stage_takes_the_pair_check(images):
    a, b = (image.data for image in images)
    bad = a.copy()
    bad[3, 5, 1] = np.nan
    with pytest.raises(ShapeError, match=re.escape(f"image shapes differ: {bad[:-1].shape} vs")):
        losses.recon_loss([a, bad[:-1]], b)
    with pytest.raises(DomainError, match="^loss inputs must be finite and non-negative"):
        losses.recon_loss([a, bad], b)


@pytest.mark.parametrize("name", [*UNARY, *BINARY])
def test_linear_image_and_its_data_agree(images, name):
    from_images = _call(name, images)
    from_arrays = _call(name, [image.data for image in images])
    np.testing.assert_array_equal(from_images, from_arrays)


@pytest.mark.parametrize("name", [*UNARY, *BINARY])
def test_largest_float32_gives_a_finite_value(images, name):
    # every value at the bound, against an ordinary image: finite, with no warning
    args = [np.full(SHAPE, F32_MAX), images[1].data]
    assert np.isfinite(_call(name, args)).all()


_STEP = np.zeros((2, 2, 3))
_STEP[:, 1] = 1.7e308
_HALF = np.zeros((16, 16, 3))  # float64 rows beyond any LinearImage's float32 range
_HALF[:8] = 1.7e308


_INPUT_RULE = "must be finite and non-negative"
_SIGNED_RULE = "must be finite and lie within float32's range"


@pytest.mark.parametrize("call, message", [
    # radiance: data a product or sum would take beyond float64 is outside the input rule
    (lambda: mu_law(np.full((2, 2, 3), 1e305)), _INPUT_RULE),  # times mu = 5000
    (lambda: pu_psnr(np.full(SHAPE, 1e306), np.ones(SHAPE)), _INPUT_RULE),  # times the scale
    (lambda: pu_ssim(np.full(SHAPE, 1e306), np.ones(SHAPE)), _INPUT_RULE),  # one channel at a time
    (lambda: error_map(np.full(SHAPE, 1e306), np.ones(SHAPE)), _INPUT_RULE),
    (lambda: losses.linear_l1(np.full((2, 2, 3), 1.7e308), np.zeros((2, 2, 3))), _INPUT_RULE),
    (lambda: losses.tv_loss(_STEP), _INPUT_RULE),
    (lambda: rmse_linear(np.full(SHAPE, 1e200), np.zeros(SHAPE)), _INPUT_RULE),  # the square
    (lambda: blurred_luminance(SimpleNamespace(data=_HALF), 5), _INPUT_RULE),  # running sums
    # signed fields: beyond float32's top in magnitude is outside their input rule
    (lambda: ssim_mean(np.full((16, 16), 1.7e308), np.zeros((16, 16)), 1.0), _SIGNED_RULE),
    (lambda: losses.score_matching_loss([(np.full(4, 1.7e308), np.full(4, -1.7e308))], [1.0]),
     _SIGNED_RULE),
    (lambda: losses.score_matching_loss([(np.full(4, 1.7e308), np.zeros(4))] * 3, [1.0] * 3),
     _SIGNED_RULE),
    (lambda: losses.score_matching_loss([(np.full(1, 1e308), np.zeros(1))] * 3, [1.0] * 3),
     _SIGNED_RULE),
    (lambda: forward_simulate(1e308, -1e308, SdeSchedule.cosine(4)), _SIGNED_RULE),  # mu - x0
], ids=["mu_law", "pu_psnr", "pu_ssim", "error_map", "linear_l1", "tv_loss", "rmse_linear",
        "blurred_luminance", "ssim_mean", "score_matching_difference", "score_matching_mean",
        "score_matching_total", "forward_simulate"])
def test_overflow_beyond_float64_is_a_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()


_NAN_16 = np.full((16, 16), np.nan)
_INF_16 = np.full((16, 16), np.inf)


# each of these returned NaN or inf, or warned, before its values were checked where they enter
@pytest.mark.parametrize("call", [
    lambda: ssim_mean(_NAN_16, np.zeros((16, 16)), 1.0),
    lambda: ssim_mean(np.zeros((16, 16)), _INF_16, 1.0),
    lambda: ssim_mean(-_INF_16, np.zeros((16, 16)), 1.0),
    lambda: losses.score_matching_loss([(np.full(4, np.nan), np.zeros(4))], [1.0]),
    lambda: losses.score_matching_loss([(np.zeros(4), np.full(4, -np.inf))], [1.0]),
    lambda: losses.score_matching_loss([(np.nan, 0.0)], [1.0]),
    lambda: exposure_masks(np.full((2, 2), np.nan)),
    lambda: exposure_masks(np.full((2, 2), -np.inf)),
], ids=["ssim_nan", "ssim_inf", "ssim_minus_inf", "score_matching_nan", "score_matching_inf",
        "score_matching_scalar_nan", "mask_field_nan", "mask_field_minus_inf"])
def test_non_finite_signed_field_is_a_domain_error(call):
    with pytest.raises(DomainError, match=_SIGNED_RULE):
        call()


@pytest.mark.parametrize("data_range", [1e-200, np.nextafter(2.0**-126, 0), 1e39])
def test_ssim_data_range_whose_constants_leave_float64_is_a_domain_error(data_range):
    # below 2^-126 the constants (K data_range)^2 can underflow to 0 and zero fields give 0/0
    with pytest.raises(DomainError, match=r"data_range must be finite and positive, in \[2\*\*-126"):
        ssim_mean(np.zeros((16, 16)), np.zeros((16, 16)), data_range)


def test_ssim_extremes_of_its_bounds_stay_finite():
    top = np.full((16, 16), F32_MAX)
    for x, y, data_range in [(top, top, F32_MAX),
                             (np.zeros((16, 16)), np.zeros((16, 16)), 2.0**-126)]:
        assert np.isfinite(ssim_mean(x, y, data_range))
    # opposite constant fields at the bound |field| <= 2^16 data_range: SSIM near -1
    edge = np.full((16, 16), 2.0**16)
    assert ssim_mean(edge, -edge, 1.0) == pytest.approx(-1.0, abs=0.005)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("level, data_range", [
    (3e38, 1.0),  # E[x^2] - E[x]^2 rounded the variances away: opposite fields gave SSIM 1.0
    (F32_MAX, 2.0**-126),
    (math.nextafter(2.0**16, math.inf), 1.0),
])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ssim_field_beyond_two_to_the_16_data_ranges_is_a_domain_error(level, data_range, sign):
    field = np.full((16, 16), sign * level)
    for x, y in [(field, -field), (np.zeros((16, 16)), field)]:
        with pytest.raises(DomainError, match=r"^SSIM inputs must be at most 2\*\*16 \* data_range"):
            ssim_mean(x, y, data_range)


@pytest.mark.filterwarnings("error")
def test_pu_ssim_peak_too_dim_for_the_ssim_bound_names_peak_luminance():
    # PU(0.0050001 cd/m^2) is 8.2e-5, under 2^-16 of PU(y_max) = 511: `ssim_mean` raised a
    # message naming neither the mapping nor its peak; 0.00501 cd/m^2 still scores
    bright, ones = np.full((16, 16, 3), 1e6), np.ones((16, 16, 3))
    with pytest.raises(DomainError, match="^peak_luminance must PU-encode to at least 2\\*\\*-16"):
        pu_ssim(bright, ones, mapping=DisplayMapping(peak_luminance=0.0050001))
    assert np.isfinite(pu_ssim(bright, ones, mapping=DisplayMapping(peak_luminance=0.00501)))


@pytest.mark.parametrize("level, gammas, lam", [(3e38, [1e308], 0.0), (3e38, [1e308] * 2, 0.0),
                                                (1.0, [1.0], 1e308)])
def test_score_matching_sum_beyond_float64_is_a_domain_error(level, gammas, lam):
    # every entry within float32's range; the Python-float sum reaches inf, then raises (with
    # lam, 1 - SSIM of opposite constant fields is about 2)
    pairs = [(np.full((16, 16), level), np.full((16, 16), -level))] * len(gammas)
    with pytest.raises(DomainError, match="exceeds float64's range"):
        losses.score_matching_loss(pairs, gammas, lam)


def test_largest_gains_on_the_largest_radiance_stay_finite():
    # each gain's owner admits 2^896, which times float32's largest value is below 2^1024
    top = np.full(SHAPE, F32_MAX)
    assert np.isfinite(mu_law(top, MuLawParams(2.0**896))).all()
    mapping = DisplayMapping(peak_luminance=2.0**896)
    assert mapping.scale == 2.0**896
    assert np.isfinite(to_display_luminance(top, mapping)).all()
    assert np.isfinite(pu_psnr(top, np.zeros(SHAPE), mapping=mapping))
    assert np.isfinite(pu_ssim(top, np.zeros(SHAPE), mapping=mapping))
    # the residual: float32's top times (1 + 2^896) is below 2^1024 - 2^971
    assert F32_MAX * (1.0 + 2.0**896) < 2.0**1023 * (2.0 - 2.0**-52)
    out = residual_project(top, 1.0, np.full(SHAPE[:2], -2.0**896))
    assert (out.data == 0).all()
    with pytest.raises(FormatError, match="within float32's range"):  # finite, beyond float32
        residual_project(top, 1.0, np.full(SHAPE[:2], 2.0**896))
    # the mask sharpness, on a signed field at float32's top either way
    for level in (F32_MAX, -F32_MAX):
        masks = exposure_masks(np.full((2, 2), level), MaskParams(alpha=2.0**896))
        assert all(np.isfinite(m).all() for m in (masks.under, masks.mid, masks.over))


@pytest.mark.parametrize("make", [
    lambda big: MuLawParams(big),
    lambda big: DisplayMapping(peak_luminance=big),
    lambda big: DisplayMapping(peak_luminance=1000.0, reference_white=1000.0 / big),
    lambda big: MaskParams(alpha=big),
    lambda big: exposure_masks(np.full((2, 2), 3e38), MaskParams(alpha=big)),
    lambda big: residual_project(np.ones(SHAPE), 1.0, np.full(SHAPE[:2], big)),
    lambda big: residual_project(np.ones(SHAPE), 0.5, np.full(SHAPE[:2], -big)),
    # whatever `big`: float32 and float16 hold no value between their top and inf. The bound is
    # compared as a Python float, not rounded into their dtype (which warned on every such residual)
    lambda big: residual_project(np.ones(SHAPE), 0.5, np.full(SHAPE[:2], -np.inf, np.float32)),
    lambda big: residual_project(np.ones(SHAPE), 0.5, np.full(SHAPE[:2], np.inf, np.float16)),
], ids=["mu", "peak_luminance", "reference_white", "mask_alpha", "exposure_masks",
        "residual", "negative_residual", "float32_residual", "float16_residual"])
@pytest.mark.parametrize("big", [np.nextafter(2.0**896, np.inf), 1e308])
def test_gain_beyond_two_to_the_896_is_a_domain_error(make, big):
    with pytest.raises(DomainError, match=r"at most 2\*\*896"):
        make(big)


_IMAGE = np.ones(SHAPE)
_PAIR = [(np.zeros(4), np.zeros(4))]


# a Python integer beyond float64 is not finite: each scalar's owner raises a DomainError, where
# float() of it raised a bare OverflowError
@pytest.mark.parametrize("make", [
    lambda huge: DisplayMapping(peak_luminance=huge),
    lambda huge: losses.total_loss([_IMAGE], _IMAGE, _IMAGE, perceptual=huge),
    lambda huge: losses.score_matching_loss(_PAIR, [1.0], lam=huge),
    lambda huge: losses.score_matching_loss(_PAIR, [huge]),
    lambda huge: ssim_mean(np.zeros((16, 16)), np.zeros((16, 16)), data_range=huge),
], ids=["peak_luminance", "perceptual", "lam", "gammas", "data_range"])
def test_integer_beyond_float64_is_a_domain_error(make):
    with pytest.raises(DomainError, match="must be finite"):
        make(10**400)


# Every real-valued setting follows one rule, `color._number`: float() converts it (a numpy
# scalar, a bool or a numeric string works) and the result must lie in its range of the table.
_TINY = float(np.nextafter(0.0, 1.0))
_F64_MAX = float(np.finfo(np.float64).max)
# each range as closed bounds: an open end is the float beside it
POSITIVE_GAIN, NON_NEGATIVE_GAIN = (_TINY, 2.0**896), (0.0, 2.0**896)
POSITIVE, NON_NEGATIVE, FINITE = (_TINY, _F64_MAX), (0.0, _F64_MAX), (-_F64_MAX, _F64_MAX)
_BELOW_1 = float(np.nextafter(1.0, 0.0))
OPEN_UNIT, UNIT, QUANTILE = (_TINY, _BELOW_1), (0.0, 1.0), (0.0, _BELOW_1)
EXPOSURE, DATA_RANGE = (-_F64_MAX, 896.0), (2.0**-126, F32_MAX)
LOGIT = (-(2.0**1022), 2.0**1022)

_GRAY = np.full((16, 16, 3), 0.5)
_ZEROS = np.zeros((16, 16))
_P = PuEncoding.default().p


def _with(values, k, value):
    """`values` as a tuple with entry k replaced by `value`."""
    return tuple(value if i == k else v for i, v in enumerate(values))


def _ranges(field, bounds):
    """The lo and hi ends of a SynthesisSettings `_range` pair, the other end at its bound."""
    low, high = bounds
    return {f"{field}_lo": (lambda v: SynthesisSettings(**{field: (v, high)}), bounds, 1.0,
                            lambda s: getattr(s, field)[0], field),
            f"{field}_hi": (lambda v: SynthesisSettings(**{field: (low, v)}), bounds, 1.0,
                            lambda s: getattr(s, field)[1], field)}


# setting -> (a call that takes the value, its range, a valid value, where the call stores it or
# None, the name its message starts with)
SETTINGS = {
    "mu": (MuLawParams, POSITIVE_GAIN, 1.0, lambda o: o.mu, "mu"),
    "peak_luminance": (lambda v: DisplayMapping(peak_luminance=v), POSITIVE, 1.0,
                       lambda o: o.peak_luminance, "peak_luminance"),
    "black_floor": (lambda v: DisplayMapping(black_floor=v), FINITE, 1.0,
                    lambda o: o.black_floor, "black_floor"),
    "reference_white": (lambda v: DisplayMapping(reference_white=v), POSITIVE, 1.0,
                        lambda o: o.reference_white, "reference_white"),
    "crf_gamma": (lambda v: Crf("gamma", gamma=v), POSITIVE, 1.0, lambda o: o.gamma, "gamma"),
    "crf_n": (lambda v: Crf("sigmoid", n=v), POSITIVE, 1.0, lambda o: o.n, "n"),
    "crf_sigma_c": (lambda v: Crf("sigmoid", sigma_c=v), POSITIVE, 1.0, lambda o: o.sigma_c,
                    "sigma_c"),
    "ev_min": (lambda v: ExposureRange(v, 896.0), EXPOSURE, 1.0, lambda o: o.ev_min, "ev_min"),
    "ev_max": (lambda v: ExposureRange(-_F64_MAX, v), EXPOSURE, 1.0, lambda o: o.ev_max,
               "ev_max"),
    "sigma_read": (NoiseParams, NON_NEGATIVE_GAIN, 1.0, lambda o: o.sigma_read, "noise level"),
    "estimate_sat_frac": (lambda v: estimate_exposure_range(_GRAY, sat_frac=v), OPEN_UNIT, 0.5,
                          None, "sat_frac"),
    "estimate_dark_frac": (lambda v: estimate_exposure_range(_GRAY, dark_frac=v), OPEN_UNIT, 0.5,
                           None, "dark_frac"),
    "ev": (lambda v: simulate_ldr(_GRAY, v, Crf("gamma")), EXPOSURE, 1.0, None, "exposure ev"),
    "synth_sat_frac": (lambda v: SynthesisSettings(sat_frac=v), OPEN_UNIT, 0.5,
                       lambda o: o.sat_frac, "sat_frac"),
    "synth_dark_frac": (lambda v: SynthesisSettings(dark_frac=v), OPEN_UNIT, 0.5,
                        lambda o: o.dark_frac, "dark_frac"),
    **_ranges("sigma_range", NON_NEGATIVE),
    **_ranges("gamma_range", POSITIVE),
    **_ranges("sigmoid_n_range", POSITIVE),
    **_ranges("sigmoid_c_range", POSITIVE),
    "mask_alpha": (lambda v: MaskParams(alpha=v), POSITIVE_GAIN, 1.0, lambda o: o.alpha, "alpha"),
    "mask_theta_0": (lambda v: MaskParams(theta=(v, 0.0)), LOGIT, 1.0, lambda o: o.theta[0],
                     "theta"),
    "mask_theta_1": (lambda v: MaskParams(theta=(0.0, v)), LOGIT, 1.0, lambda o: o.theta[1],
                     "theta"),
    "residual_gain": (lambda v: residual_project(_GRAY, v, _ZEROS), UNIT, 1.0, None, "gain"),
    "quantile": (lambda v: saturation_split(Ldr8Image(np.full((4, 4, 3), 9, np.uint8)), v),
                 QUANTILE, 0.5, None, "quantile"),
    "perceptual": (lambda v: losses.total_loss([_GRAY], _GRAY, _GRAY, perceptual=v),
                   NON_NEGATIVE, 1.0, None, "perceptual"),
    "lam": (lambda v: losses.score_matching_loss([(_ZEROS, _ZEROS)], [1.0], lam=v), NON_NEGATIVE,
            1.0, None, "lam"),
    "gamma": (lambda v: losses.score_matching_loss([(_ZEROS, _ZEROS)], [v]), POSITIVE, 1.0, None,
              "gammas"),
    # p1 = 0.8359375 is a float32 value
    "pu_p": (lambda v: PuEncoding(_with(_P, 0, v)), FINITE, _P[0], lambda o: o.p[0], "p"),
    "pu_y_min": (lambda v: PuEncoding(_P, y_min=v), POSITIVE, 0.005, lambda o: o.y_min, "y_min"),
    "pu_y_max": (lambda v: PuEncoding(_P, y_max=v), POSITIVE, 1.0, lambda o: o.y_max, "y_max"),
    "data_range": (lambda v: ssim_mean(_ZEROS, _ZEROS, v), DATA_RANGE, 1.0, None,
                   "SSIM data_range"),
    # a step's theta * dt and sigma**2 * dt are at most 1: at dt = 1/4, theta <= 4 and sigma <= 2
    "sde_theta": (lambda v: SdeSchedule((v,), (0.1,), 0.25), (_TINY, 4.0), 1.0,
                  lambda o: o.theta[0], "theta"),
    "sde_sigma": (lambda v: SdeSchedule((1.0,), (v,), 0.25), (0.0, 2.0), 1.0,
                  lambda o: o.sigma[0], "sigma"),
    "sde_dt": (lambda v: SdeSchedule((_TINY,), (0.0,), v), POSITIVE, 1.0, lambda o: o.dt, "dt"),
}
NOT_NUMBERS = {"abc": "abc", "None": None, "1j": 1j, "complex128": np.complex128(1),
               "list": [1.0], "array": np.array([1.0]), "10**400": 10**400, "nan": np.nan,
               "inf": np.inf, "-inf": -np.inf}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [*NOT_NUMBERS, "below", "above"])
@pytest.mark.parametrize("setting", SETTINGS)
def test_setting_outside_its_rule_is_a_domain_error_naming_it(setting, value):
    make, (low, high), _, _, name = SETTINGS[setting]
    # math.nextafter: numpy's warns on overflow to inf
    bad = {"below": math.nextafter(low, -math.inf), "above": math.nextafter(high, math.inf),
           **NOT_NUMBERS}[value]
    with pytest.raises(DomainError, match=rf"^{re.escape(name)}\b.* must "):
        make(bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("setting, form", [
    (setting, form) for setting, (_, _, valid, _, _) in SETTINGS.items()
    for form in ("float32", "str", "bool") if form != "bool" or valid == 1.0])  # True is 1.0
def test_setting_converts_with_float(setting, form):
    make, _, valid, read, _ = SETTINGS[setting]
    value = {"float32": np.float32(valid), "str": str(valid), "bool": True}[form]
    made = make(value)
    if read is not None:
        assert type(read(made)) is float and read(made) == float(value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_mask_logits_far_apart_are_a_domain_error_with_no_overflow(sign):
    # beyond the logit row the owner names theta, where softmax's difference of the two
    # overflowed; at the row's ends the difference is finite and the thresholds collapse
    with pytest.raises(DomainError, match=r"^theta\b.* must "):
        MaskParams(theta=(sign * 1e308, -sign * 1e308))
    with pytest.raises(DomainError, match="^thresholds must"):
        MaskParams(theta=(sign * 2.0**1022, -sign * 2.0**1022))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta, sigma, dt, name", [
    ((1e300,) * 4, (0.1,) * 4, 1e10, "theta"),  # forward_simulate overflowed in a product
    ((1.0,) * 4, (1e200,) * 4, 0.1, "sigma"),  # forward_simulate returned a state of -5e198
    ((0.1, 0.1, 4.0), (0.1,) * 3, 0.5, "theta"),  # the last step alone
    ((1.0,) * 3, (0.1, 2.0, 0.1), 0.5, "sigma"),
])
def test_sde_step_beyond_one_is_a_domain_error_naming_its_coefficient(theta, sigma, dt, name):
    with pytest.raises(DomainError, match=rf"^{name}\b.* must be at most 1 at every step"):
        SdeSchedule(theta, sigma, dt)


@pytest.mark.filterwarnings("error")
def test_sde_steps_at_one_are_accepted_with_no_warning():
    # theta dt = sigma^2 dt = 1 at every step, and the cosine schedule well inside
    sched = SdeSchedule((4.0,) * 4, (2.0,) * 4, 0.25)
    assert np.isfinite(forward_simulate(np.array([0.5]), 0.0, sched)).all()
    cosine = SdeSchedule.cosine(100)
    assert max(cosine.theta) * cosine.dt < 0.11 and max(cosine.sigma) ** 2 * cosine.dt < 0.003


# PU21 banding+glare (Mantiuk & Azimi, PCS 2021), exponent third and denominator fourth
_PU21_P = (0.353487901, 0.3734658629, 0.9062562627, 8.277049286e-05, 0.09150303166,
           0.9099517204, 596.3148142)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k, value", [
    (2, 1e308), (2, 500.0), (2, -500.0), (4, -1e308),  # overflow in a power
    (0, 1e308), (1, 1e308), (3, 1e308), (5, 1e308),  # overflow in a product
    (3, -1.0), (1, -5.0), (0, -1e308),  # a fractional power of a negative ratio
])
def test_pu_coefficients_leaving_float64_are_a_domain_error_naming_p(k, value):
    # each warned in _pu_forward while the monotonicity grid was evaluated
    with pytest.raises(DomainError, match=r"^p must keep every stage of the PU formula"):
        PuEncoding(_with(_P, k, value))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [_P, _PU21_P], ids=["pq", "pu21"])
def test_pq_and_pu21_coefficients_are_accepted_with_no_warning(p):
    assert PuEncoding(p).p == p


def test_crf_table_entry_of_another_kind_is_a_domain_error():
    # the table is data: `_float64` checks it, so a ragged entry or a string is no number
    for entry in ("abc", None, 1j, [1.0], np.array([1.0]), 10**400, np.nan, np.inf):
        table = _with(np.linspace(0.0, 1.0, 256), 255, entry)
        with pytest.raises(DomainError, match="^table CRF entries must "):
            Crf("table", table=table)
