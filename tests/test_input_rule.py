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

from types import SimpleNamespace

import numpy as np
import pytest

from itmbench import losses
from itmbench.analysis import error_map
from itmbench.camera import Crf, estimate_exposure_range
from itmbench.color import DisplayMapping, MuLawParams, luminance, mu_law, to_display_luminance
from itmbench.errors import DomainError, FormatError, ShapeError
from itmbench.image_io import LinearImage
from itmbench.operators import (MaskParams, MaskTriple, blurred_luminance, exposure_masks,
                                fuse_exposures, residual_project)
from itmbench.pu21 import pu_decode, pu_encode, pu_psnr, pu_ssim, rmse_linear, ssim_mean
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
    for x, y, data_range in [(top, -top, 2.0**-126), (top, top, F32_MAX),
                             (np.zeros((16, 16)), np.zeros((16, 16)), 2.0**-126)]:
        assert np.isfinite(ssim_mean(x, y, data_range))


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
