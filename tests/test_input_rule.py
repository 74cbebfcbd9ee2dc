"""The input rule shared by every color, metric and loss function.

Each takes a LinearImage or an array; a non-finite or negative value is a
DomainError whose text says "must be finite and non-negative", mismatched
shapes are a ShapeError, and a LinearImage gives the value its `.data` gives.
Finite float64 data whose product or sum would leave float64's range is a
DomainError from the function that multiplies or sums, not a RuntimeWarning.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from itmbench import losses
from itmbench.analysis import error_map
from itmbench.color import luminance, mu_law, to_display_luminance
from itmbench.errors import DomainError, ShapeError
from itmbench.image_io import LinearImage
from itmbench.operators import blurred_luminance
from itmbench.pu21 import pu_psnr, pu_ssim, rmse_linear, ssim_mean

UNARY = {
    "luminance": luminance,
    "to_display_luminance": to_display_luminance,
    "mu_law": mu_law,
    "tv_loss": losses.tv_loss,
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
SHAPE = (16, 16, 3)  # the smallest side upf_loss's default 16 px patch accepts


@pytest.fixture
def images(rng):
    return [LinearImage(rng.uniform(0.05, 1.5, SHAPE).astype(np.float32)) for _ in range(2)]


# (function, which argument is bad): every argument of every function
ARGUMENTS = [(name, 0) for name in UNARY] + [(name, k) for name in BINARY for k in (0, 1)]


def _call(name, args):
    return UNARY[name](args[0]) if name in UNARY else BINARY[name](*args)


@pytest.mark.parametrize("name, position", ARGUMENTS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_non_finite_or_negative_is_a_domain_error(images, name, position, bad):
    args = [image.data.copy() for image in images]
    args[position][3, 5, 1] = bad
    with pytest.raises(DomainError, match="must be finite and non-negative"):
        _call(name, args)


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


_STEP = np.zeros((2, 2, 3))
_STEP[:, 1] = 1.7e308
_HALF = np.zeros((16, 16, 3))  # float64 rows beyond any LinearImage's float32 range
_HALF[:8] = 1.7e308


@pytest.mark.parametrize("call", [
    lambda: mu_law(np.full((2, 2, 3), 1e305)),  # times mu = 5000
    lambda: pu_psnr(np.full(SHAPE, 1e306), np.ones(SHAPE)),  # times the display scale 1000
    lambda: pu_ssim(np.full(SHAPE, 1e306), np.ones(SHAPE)),  # the same, one channel at a time
    lambda: error_map(np.full(SHAPE, 1e306), np.ones(SHAPE)),
    lambda: losses.linear_l1(np.full((2, 2, 3), 1.7e308), np.zeros((2, 2, 3))),  # the mean's sum
    lambda: losses.tv_loss(_STEP),
    lambda: rmse_linear(np.full(SHAPE, 1e200), np.zeros(SHAPE)),  # the square
    lambda: ssim_mean(np.full((16, 16), 1.7e308), np.zeros((16, 16)), 1.0),  # the square
    lambda: losses.score_matching_loss([(np.full(4, 1.7e308), np.full(4, -1.7e308))], [1.0]),
    lambda: losses.score_matching_loss([(np.full(4, 1.7e308), np.zeros(4))] * 3, [1.0] * 3),
    lambda: losses.score_matching_loss([(np.full(1, 1e308), np.zeros(1))] * 3, [1.0] * 3),
    lambda: blurred_luminance(SimpleNamespace(data=_HALF), 5),  # the running sums
], ids=["mu_law", "pu_psnr", "pu_ssim", "error_map", "linear_l1", "tv_loss", "rmse_linear",
        "ssim_mean", "score_matching_difference", "score_matching_mean", "score_matching_total",
        "blurred_luminance"])
def test_overflow_beyond_float64_is_a_domain_error(call):
    with pytest.raises(DomainError, match="exceeds? float64's range"):
        call()
