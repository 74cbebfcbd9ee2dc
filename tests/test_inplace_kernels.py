"""The in-place image kernels against frozen copies of their one-expression forms.

`color`, `pu21`, `analysis`, `camera` and `losses` compute their hot kernels in
work buffers they allocate themselves; the color and loss kernels, the luma
path of `pu_fields` and `rmse_linear` read float32 (or integer) data as it is
and upcast it in their first operation. Three things are pinned here:

- no public function writes an array its caller passed in (`as_radiance` and
  the other range checks of `color` hand a float64 array through without
  copying it);
- every result is bit-identical to the expressions below, which are the
  kernels as they were written before the rewrite (kept here, not in
  `oracles.py`, which holds naive loops and stays independent of both);
- the traced peak of one call at 256^2, as a multiple of one float64 RGB image,
  and of the PNG writer at 512^2.
"""

import tracemalloc

import numpy as np
import pytest

from itmbench import losses
from itmbench.analysis import error_map
from itmbench.camera import Crf, NoiseParams, simulate_ldr
from itmbench.color import DisplayMapping, MuLawParams, luminance, mu_law
from itmbench.image_io import LinearImage, Ldr8Image, _png_encode, _rgbe_decode_rows
from itmbench.pu21 import (PuEncoding, _pu_forward, _windowed_mean, _gaussian_window,
                           pu_encode, pu_fields, pu_psnr, pu_ssim, rmse_linear, ssim_mean)

CRFS = [Crf("gamma"), Crf("gamma", gamma=0.45), Crf("gamma", gamma=2.0),
        Crf("sigmoid", n=0.9, sigma_c=0.6), Crf("table", table=np.linspace(0, 1, 256) ** 0.7)]


# ---------------------------------------------------------------------------
# The kernels as one expression each


def frozen_pu_forward(y, p):
    z = np.power(y, p[2])
    return p[6] * (((p[0] + p[1] * z) / (1.0 + p[3] * z)) ** p[4] - p[5])


def frozen_pu_encode(y, enc):
    return frozen_pu_forward(np.clip(np.asarray(y, dtype=np.float64), enc.y_min, enc.y_max), enc.p)


def frozen_ssim_mean(x, y, data_range):
    w = _gaussian_window()
    mx = _windowed_mean(x, w)
    my = _windowed_mean(y, w)
    mxx = _windowed_mean(x * x, w)
    myy = _windowed_mean(y * y, w)
    mxy = _windowed_mean(x * y, w)
    vx = mxx - mx * mx
    vy = myy - my * my
    cov = mxy - mx * my
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    ssim_map = ((2 * mx * my + c1) * (2 * cov + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))
    return float(ssim_map.mean())


def f64(image):
    return np.asarray(getattr(image, "data", image), dtype=np.float64)


def frozen_luminance(rgb):
    arr = f64(rgb)
    out = 0.2126 * arr[..., 0] + 0.7152 * arr[..., 1] + 0.0722 * arr[..., 2]
    return out if out.ndim else float(out)


def frozen_mu_law(x, mu):
    out = np.log1p(mu * f64(x)) / np.log1p(mu)
    return out if out.ndim else float(out)


def frozen_fields(pred, gt, luma, mapping=DisplayMapping()):
    enc = PuEncoding.default()

    def encode(image):
        display = np.maximum(f64(image) * mapping.scale, mapping.black_floor)
        if luma:
            display = frozen_luminance(display)
        return frozen_pu_encode(display, enc)

    return encode(pred), encode(gt), float(frozen_pu_encode(mapping.peak_luminance, enc))


def frozen_recon_loss(preds, gt):
    gt_c = frozen_mu_law(gt, 5000.0)
    return sum((i / len(preds)) * float(np.mean(np.abs(frozen_mu_law(p, 5000.0) - gt_c)))
               for i, p in enumerate(preds, start=1))


def frozen_linear_l1(pred, gt):
    return float(np.mean(np.abs(f64(pred) - f64(gt))))


def frozen_ssim_pu_loss(pred, gt):
    la, lb = (frozen_mu_law(frozen_luminance(x), 10000.0) for x in (pred, gt))
    return 1.0 - frozen_ssim_mean(la, lb, data_range=1.0)


def frozen_color_loss(pred, gt):
    def ratios(img):
        r, g, bl = img[..., 0] + 1e-8, img[..., 1] + 1e-8, img[..., 2] + 1e-8
        return np.stack([np.log(r / g), np.log(g / bl), np.log(bl / r)])

    return float(np.mean(np.abs(ratios(f64(pred)) - ratios(f64(gt)))))


def frozen_tv_loss(pred):
    a = f64(pred)
    return float(np.mean(np.abs(np.diff(a, axis=1))) + np.mean(np.abs(np.diff(a, axis=0))))


def frozen_upf_loss(pred, gt):
    la, lb = (np.log(frozen_luminance(x) + 1e-8) for x in (pred, gt))
    h, w = la.shape
    d = la - lb
    rho = np.sqrt(d * d + 1e-3**2) - 1e-3
    patch_err = rho[:h // 16 * 16, :w // 16 * 16].reshape(h // 16, 16, w // 16, 16).mean(axis=(1, 3))
    peak = patch_err.max()
    charb = float(np.mean((patch_err / peak) ** 1.5 * patch_err)) if peak > 0 else 0.0
    lo, hi = min(la.min(), lb.min()), max(la.max(), lb.max())
    centers = np.linspace(lo, hi, 64)

    r = max(8.5 * 0.1, centers[1] - centers[0])

    def soft_hist(x):  # each center's votes from the sorted pixels within r of it
        xs = np.sort(x, axis=None)
        h = np.array([np.exp((xs[(xs >= c - r) & (xs <= c + r)] - c) ** 2 / -(2.0 * 0.1**2)).sum()
                      for c in centers])
        return h / h.sum()

    hist = float(np.mean(np.abs(soft_hist(la) - soft_hist(lb)))) if hi - lo >= 1e-12 else 0.0
    sm_h = np.mean(np.abs(np.diff(la, axis=1)) * np.exp(-np.abs(np.diff(lb, axis=1))))
    sm_v = np.mean(np.abs(np.diff(la, axis=0)) * np.exp(-np.abs(np.diff(lb, axis=0))))
    return charb + hist + 0.5 * float(sm_h + sm_v)


FROZEN_LOSSES = {"recon_loss": lambda p, g: frozen_recon_loss([p, g, p], g),
                 "linear_l1": frozen_linear_l1, "denoise_loss": frozen_linear_l1,
                 "ssim_pu_loss": frozen_ssim_pu_loss, "color_loss": frozen_color_loss,
                 "tv_loss": lambda p, g: frozen_tv_loss(p), "upf_loss": frozen_upf_loss}
LOSSES = {"recon_loss": lambda p, g: losses.recon_loss([p, g, p], g),
          "linear_l1": losses.linear_l1, "denoise_loss": losses.denoise_loss,
          "ssim_pu_loss": losses.ssim_pu_loss, "color_loss": losses.color_loss,
          "tv_loss": lambda p, g: losses.tv_loss(p), "upf_loss": losses.upf_loss}


def frozen_rgbe_decode(rgbe):
    e = rgbe[:, 3].astype(np.int64)
    scale = np.ldexp(np.float32(1.0), (e - 136).astype(np.int64)).astype(np.float32)
    scale[e == 0] = 0.0
    return rgbe[:, :3].astype(np.float32) * scale[:, None]


def frozen_simulate_ldr(hdr, ev, crf, noise, seed):
    exposed = np.asarray(hdr.data, dtype=np.float64) * (2.0**ev)
    if noise.sigma_read > 0:
        rng = np.random.Generator(np.random.Philox(key=seed))
        exposed = exposed + noise.sigma_read * rng.standard_normal(exposed.shape)
    x = np.clip(exposed, 0.0, 1.0)
    if crf.family == "gamma":
        out = x**crf.gamma
    elif crf.family == "sigmoid":
        xn = x**crf.n
        out = (1.0 + crf.sigma_c) * xn / (xn + crf.sigma_c)
    else:
        out = np.interp(x, np.linspace(0.0, 1.0, 256), np.asarray(crf.table))
    return np.floor(out * 255.0 + 0.5).astype(np.uint8)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def lognormal_pair(rng, size, dtype=np.float32):
    shape = (size, size, 3)
    return (rng.lognormal(-1.5, 1.2, shape).astype(dtype),
            rng.lognormal(-1.5, 1.2, shape).astype(dtype))


def typed_pair(rng, dtype, shape=(40, 57, 3)):
    """A pred/gt pair as a file gives it (float32 LinearImages), as float64 or as uint8 arrays."""
    if dtype == np.uint8:
        return tuple(rng.integers(0, 256, shape, dtype=np.uint8) for _ in range(2))
    a, b = (rng.lognormal(-1.5, 1.2, shape).astype(dtype) for _ in range(2))
    return (LinearImage(a), LinearImage(b)) if dtype == np.float32 else (a, b)


DTYPES = [np.float32, np.float64, np.uint8]


# ---------------------------------------------------------------------------
# Bit identity


def test_rgbe_decode_matches_ldexp_for_every_exponent():
    mantissas = np.array([0, 1, 2, 127, 128, 200, 255], dtype=np.uint8)
    e, m = np.meshgrid(np.arange(256), mantissas, indexing="ij")
    rgbe = np.stack([m, m[:, ::-1], np.roll(m, 1, axis=1), e], axis=-1).reshape(-1, 4)
    rgbe = rgbe.astype(np.uint8)
    got = _rgbe_decode_rows(rgbe)
    exps = rgbe[:, 3:].astype(np.int64)
    # component = mantissa * 2^(e - 136), exact in float32; an exponent byte of 0 is black
    want = np.where(exps > 0, np.ldexp(rgbe[:, :3].astype(np.float64), exps - 136), 0.0)
    assert same_bits(got, want.astype(np.float32))
    assert same_bits(got, frozen_rgbe_decode(rgbe))


@pytest.mark.parametrize("p4", [0.5, 1.0, 2.0, None])
def test_pu_forward_matches_one_expression(rng, p4):
    enc = PuEncoding.default()
    p = enc.p if p4 is None else enc.p[:4] + (p4,) + enc.p[5:]
    y = np.concatenate([np.logspace(np.log10(enc.y_min), np.log10(enc.y_max), 4100),
                        np.clip(rng.lognormal(3.0, 3.0, 40000), enc.y_min, enc.y_max)])
    want = frozen_pu_forward(y, p)
    assert same_bits(_pu_forward(y, p), want)
    field = y.reshape(-1, 7, 3)
    owned = field.copy()
    assert same_bits(_pu_forward(owned, p, out=owned), want.reshape(field.shape))
    for scalar in (enc.y_min, 1.0, 123.0, enc.y_max):
        assert _pu_forward(np.asarray(scalar), p) == frozen_pu_forward(np.asarray(scalar), p)


def test_pu_encode_matches_one_expression(rng):
    enc = PuEncoding.default()
    y = rng.lognormal(3.0, 4.0, (64, 48))
    assert same_bits(pu_encode(y), frozen_pu_encode(y, enc))
    for scalar in (0.0, enc.y_min, 0.5, 100.0, 1000.0, 1e6):
        want = float(frozen_pu_encode(scalar, enc))
        assert pu_encode(scalar) == want and pu_encode(np.float64(scalar)) == want


@pytest.mark.parametrize("shape", [(64, 64), (40, 57), (11, 11)])
def test_ssim_mean_matches_one_expression(rng, shape):
    x = rng.uniform(0.0, 600.0, shape)
    y = x + rng.normal(0.0, 20.0, shape)
    for data_range in (1.0, 420.1):
        assert ssim_mean(x, y, data_range) == frozen_ssim_mean(x, y, data_range)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scores_match_one_expression(rng, dtype):
    a, b = lognormal_pair(rng, 48, dtype)
    pred, gt = (LinearImage(a), LinearImage(b)) if dtype == np.float32 else (a, b)
    pa, pb, peak = frozen_fields(pred, gt, luma=False)
    assert pu_psnr(pred, gt) == 20.0 * np.log10(peak / np.sqrt(float(np.mean((pa - pb) ** 2))))
    la, lb, peak = frozen_fields(pred, gt, luma=True)
    assert pu_ssim(pred, gt) == frozen_ssim_mean(la, lb, peak)
    assert same_bits(error_map(pred, gt), np.abs(la - lb))
    da, db = (np.asarray(getattr(v, "data", v), dtype=np.float64) for v in (pred, gt))
    assert rmse_linear(pred, gt) == float(np.sqrt(np.mean((da - db) ** 2)))


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_color_kernels_match_one_expression(rng, dtype):
    pred, gt = typed_pair(rng, dtype)
    assert same_bits(luminance(pred), frozen_luminance(pred))
    for mu in (5000.0, 10000.0):
        assert same_bits(mu_law(gt, MuLawParams(mu)), frozen_mu_law(gt, mu))
    triple = np.asarray(getattr(pred, "data", pred))[3, 5]
    assert luminance(triple) == frozen_luminance(triple)
    assert mu_law(triple[0]) == frozen_mu_law(triple[0], 5000.0)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("name", sorted(LOSSES))
def test_loss_terms_match_one_expression(rng, dtype, name):
    pred, gt = typed_pair(rng, dtype)
    assert LOSSES[name](pred, gt) == FROZEN_LOSSES[name](pred, gt)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_total_loss_matches_one_expression(rng, dtype):
    pred, gt = typed_pair(rng, dtype, shape=(32, 48, 3))
    _, _, raw = losses.total_loss([pred], pred, gt)
    want = {name: FROZEN_LOSSES[name + "_loss"](pred, gt)
            for name in ("ssim_pu", "color", "tv", "upf")}
    want.update(recon=frozen_recon_loss([pred], gt), linear=frozen_linear_l1(pred, gt),
                denoise=frozen_linear_l1(pred, gt))
    assert raw == want


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_luma_fields_and_rmse_match_one_expression(rng, dtype):
    pred, gt = typed_pair(rng, dtype)
    la, lb, peak = pu_fields(pred, gt, luma=True)
    fa, fb, fpeak = frozen_fields(pred, gt, luma=True)
    assert same_bits(la, fa) and same_bits(lb, fb) and peak == fpeak
    assert rmse_linear(pred, gt) == float(np.sqrt(np.mean((f64(pred) - f64(gt)) ** 2)))


@pytest.mark.parametrize("crf", CRFS, ids=lambda c: c.family)
@pytest.mark.parametrize("sigma", [0.0, 0.01])
def test_simulate_ldr_matches_one_expression(rng, crf, sigma):
    img = LinearImage(rng.lognormal(-1.0, 1.0, (40, 33, 3)).astype(np.float32))
    noise = NoiseParams(sigma)
    for ev in (-1.3, 0.0, 0.7):
        got = simulate_ldr(img, ev, crf, noise, seed=11).data
        assert same_bits(got, frozen_simulate_ldr(img, ev, crf, noise, seed=11))


# ---------------------------------------------------------------------------
# No caller array is written


def test_caller_arrays_are_not_written(rng):
    unit = rng.uniform(0.0, 1.0, (24, 24, 3))
    fields = rng.uniform(0.0, 600.0, (2, 24, 24))
    for dtype in (np.float32, np.float64):
        a, b = lognormal_pair(rng, 24, dtype)
        kept = [arr.copy() for arr in (a, b, unit, fields)]
        pu_psnr(a, b)
        pu_ssim(a, b)
        pu_fields(a, b, luma=True)
        rmse_linear(a, b)
        error_map(a, b)
        pu_encode(a)
        luminance(a)
        mu_law(a)
        losses.total_loss([a, b], a, b)
        for loss in LOSSES.values():
            loss(a, b)
        ssim_mean(fields[0], fields[1], 600.0)
        simulate_ldr(a, 0.5, Crf("sigmoid", n=0.9, sigma_c=0.6), NoiseParams(0.01), seed=3)
        for crf in CRFS:
            crf.apply(unit)
        for arr, copy in zip((a, b, unit, fields), kept):
            assert same_bits(arr, copy)


# ---------------------------------------------------------------------------
# Traced peak memory at 256^2


def traced_peak(run) -> int:
    run()  # caches (the packaged encoding) are filled outside the measured call
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# bound per call, in float64 RGB images; the one-expression kernels read 6.0 (pu_psnr,
# simulate_ldr), 4.06 (pu_ssim), 3.33 (error_map) and 3.0 (rmse_linear) on these inputs.
# Taking a float64 copy of each input, then upcasting per operation instead, they read:
# total_loss 6.0 -> 2.86, color_loss 6.0 -> 2.33, ssim_pu_loss 4.86 -> 2.86, upf_loss
# 4.33 -> 1.42, recon_loss 4.0 -> 2.04, linear_l1 and tv_loss 4.0 -> 1.08, rmse_linear
# 2.13 -> 1.08 and error_map 2.0 -> 1.04
PEAK_BOUNDS = {"pu_psnr": 3.5, "simulate_ldr": 3.5, "pu_ssim": 3.5, "error_map": 1.5,
               "rmse_linear": 1.5, "total_loss": 3.5, "recon_loss": 2.5, "linear_l1": 1.5,
               "denoise_loss": 1.5, "ssim_pu_loss": 3.5, "color_loss": 3.0, "tv_loss": 1.5,
               "upf_loss": 2.0}


@pytest.mark.parametrize("name", sorted(PEAK_BOUNDS))
def test_traced_peak_at_256(rng, name):
    a, b = lognormal_pair(rng, 256)
    pred, gt = LinearImage(a), LinearImage(b)  # float32, as read from a file
    crf = Crf("sigmoid", n=0.9, sigma_c=0.6)
    calls = {
        "pu_psnr": lambda: pu_psnr(pred, gt),
        "pu_ssim": lambda: pu_ssim(pred, gt),
        "error_map": lambda: error_map(pred, gt),
        "rmse_linear": lambda: rmse_linear(pred, gt),
        "simulate_ldr": lambda: simulate_ldr(pred, 0.5, crf, NoiseParams(0.01), seed=3),
        "total_loss": lambda: losses.total_loss([pred], pred, gt),
        "recon_loss": lambda: losses.recon_loss([pred], gt),
        "tv_loss": lambda: losses.tv_loss(pred),
        **{name: (lambda f=getattr(losses, name): f(pred, gt))
           for name in ("linear_l1", "denoise_loss", "ssim_pu_loss", "color_loss", "upf_loss")},
    }
    image_bytes = 256 * 256 * 3 * 8
    assert traced_peak(calls[name]) <= PEAK_BOUNDS[name] * image_bytes


def test_png_encode_traced_peak_at_512(rng):
    # the filter choice reuses one scanline buffer and one scratch buffer; noise, which
    # deflate cannot shrink, gives the largest IDAT. 3.1 MiB measured; keeping a copy
    # of each filtered candidate read 5.4 MiB.
    image = Ldr8Image(rng.integers(0, 256, (512, 512, 3), dtype=np.uint8))
    assert traced_peak(lambda: _png_encode(image)) <= 4 << 20
