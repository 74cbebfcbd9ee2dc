"""Independent naive reference implementations used as test oracles.

Everything here recomputes results from first principles (explicit loops,
direct formulas) without touching the library's vectorized code paths, so a
bug in the implementation cannot hide in its own oracle.
"""

import functools
import json
import math
import pathlib

import numpy as np

from itmbench.errors import ParseError

DATA_DIR = pathlib.Path(__file__).parent / "data"

LUMA = (0.2126, 0.7152, 0.0722)


@functools.lru_cache(maxsize=1)
def load_pu_coefficients():
    doc = json.loads(
        (pathlib.Path(__file__).parents[1] / "src" / "itmbench" / "data"
         / "pu_banding_glare.json").read_text()
    )
    return tuple(doc["p"]), doc["y_min"], doc["y_max"]


def naive_pu_encode(y: float) -> float:
    """Scalar rational-power encoding evaluated directly from the coefficient file."""
    p, y_min, y_max = load_pu_coefficients()
    y = min(max(y, y_min), y_max)
    z = y ** p[2]
    return p[6] * (((p[0] + p[1] * z) / (1.0 + p[3] * z)) ** p[4] - p[5])


def naive_display(value: float, peak: float = 1000.0, floor: float = 0.005,
                  ref: float = 1.0) -> float:
    return max(value * peak / ref, floor)


def naive_pu_image(img: np.ndarray, peak=1000.0, floor=0.005) -> np.ndarray:
    out = np.empty_like(img, dtype=np.float64)
    flat_in = img.reshape(-1)
    flat_out = out.reshape(-1)
    for i in range(flat_in.size):
        flat_out[i] = naive_pu_encode(naive_display(float(flat_in[i]), peak, floor))
    return out


def naive_pu_psnr(pred: np.ndarray, gt: np.ndarray, peak=1000.0, floor=0.005) -> float:
    """Double-loop PSNR in PU space."""
    pa = naive_pu_image(pred, peak, floor)
    pb = naive_pu_image(gt, peak, floor)
    total = 0.0
    count = 0
    for a, b in zip(pa.reshape(-1), pb.reshape(-1)):
        total += (a - b) ** 2
        count += 1
    if total == 0.0:
        return float("inf")
    rmse = math.sqrt(total / count)
    return 20.0 * math.log10(naive_pu_encode(peak) / rmse)


def naive_luminance(img: np.ndarray) -> np.ndarray:
    return LUMA[0] * img[..., 0] + LUMA[1] * img[..., 1] + LUMA[2] * img[..., 2]


def naive_ssim(x: np.ndarray, y: np.ndarray, data_range: float,
               window: int = 11, sigma: float = 1.5,
               k1: float = 0.01, k2: float = 0.03) -> float:
    """Sliding-window SSIM with an explicit loop over window positions."""
    half = window // 2
    ax = np.arange(window) - half
    g = np.exp(-(ax**2) / (2.0 * sigma**2))
    kernel = np.outer(g, g)
    kernel /= kernel.sum()
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    h, w = x.shape
    values = []
    for i in range(h - window + 1):
        for j in range(w - window + 1):
            px = x[i:i + window, j:j + window]
            py = y[i:i + window, j:j + window]
            mx = float((kernel * px).sum())
            my = float((kernel * py).sum())
            vx = float((kernel * px * px).sum()) - mx * mx
            vy = float((kernel * py * py).sum()) - my * my
            cov = float((kernel * px * py).sum()) - mx * my
            values.append(((2 * mx * my + c1) * (2 * cov + c2))
                          / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    return float(np.mean(values))


def naive_pu_ssim(pred: np.ndarray, gt: np.ndarray, peak=1000.0, floor=0.005) -> float:
    """Display map -> luminance -> PU encode -> sliding-window SSIM."""
    la = np.empty(pred.shape[:2])
    lb = np.empty(gt.shape[:2])
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            ya = naive_luminance(pred[i, j] * 1000.0 / 1.0)
            yb = naive_luminance(gt[i, j] * 1000.0 / 1.0)
            la[i, j] = naive_pu_encode(max(ya, floor))
            lb[i, j] = naive_pu_encode(max(yb, floor))
    return naive_ssim(la, lb, data_range=naive_pu_encode(peak))


def naive_rmse(pred: np.ndarray, gt: np.ndarray) -> float:
    total = 0.0
    count = 0
    for a, b in zip(pred.reshape(-1), gt.reshape(-1)):
        total += (float(a) - float(b)) ** 2
        count += 1
    return math.sqrt(total / count)


def naive_box_luminance(img: np.ndarray, k: int) -> np.ndarray:
    """Box-filtered luminance with replicated edges, computed windowwise."""
    lum = naive_luminance(img.astype(np.float64))
    h, w = lum.shape
    r = k // 2
    out = np.empty_like(lum)
    for i in range(h):
        for j in range(w):
            total = 0.0
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    ii = min(max(i + di, 0), h - 1)
                    jj = min(max(j + dj, 0), w - 1)
                    total += lum[ii, jj]
            out[i, j] = total / (k * k)
    return out


def naive_exposure_sweep(lum: np.ndarray, sat_frac: float, dark_frac: float,
                         lo=-12.0, hi=12.0, step=0.01):
    """Exhaustive sweep over the ev grid; returns (ev_min, ev_max)."""
    flat = lum.reshape(-1)
    n = flat.size
    evs = np.arange(lo, hi + step, step)
    ev_max = None
    for ev in evs:
        frac = float(np.count_nonzero(flat * 2.0**ev > 1.0)) / n
        if frac <= sat_frac:
            ev_max = ev
    ev_min = None
    for ev in evs[::-1]:
        frac = float(np.count_nonzero(flat * 2.0**ev < 2.0**-8)) / n
        if frac <= dark_frac:
            ev_min = ev
    return ev_min, ev_max


def naive_upf(pred: np.ndarray, gt: np.ndarray, patch=16, focal_gamma=1.5,
              hist_bins=64, hist_sigma=0.1, alpha_hist=1.0, beta_smooth=1.0,
              eps_charb=1e-3, eps_log=1e-8):
    """Independent reimplementation of the unified patch fidelity terms.

    Returns (charb, hist, smooth, total)."""
    la = np.log(naive_luminance(pred.astype(np.float64)) + eps_log)
    lb = np.log(naive_luminance(gt.astype(np.float64)) + eps_log)
    h, w = la.shape

    errors = []
    for pi in range(h // patch):
        for pj in range(w // patch):
            acc = 0.0
            for i in range(pi * patch, (pi + 1) * patch):
                for j in range(pj * patch, (pj + 1) * patch):
                    d = la[i, j] - lb[i, j]
                    acc += math.sqrt(d * d + eps_charb**2) - eps_charb
            errors.append(acc / (patch * patch))
    peak = max(errors)
    if peak > 0:
        charb = float(np.mean([(e / peak) ** focal_gamma * e for e in errors]))
    else:
        charb = 0.0

    lo = min(la.min(), lb.min())
    hi = max(la.max(), lb.max())
    if hi - lo < 1e-12:
        hist = 0.0
    else:
        centers = [lo + (hi - lo) * b / (hist_bins - 1) for b in range(hist_bins)]

        def histogram(field):
            votes = [0.0] * hist_bins
            for v in field.reshape(-1):
                for b, c in enumerate(centers):
                    votes[b] += math.exp(-((v - c) ** 2) / (2 * hist_sigma**2))
            total = sum(votes)
            return [v / total for v in votes]

        ha, hb = histogram(la), histogram(lb)
        hist = float(np.mean([abs(a - b) for a, b in zip(ha, hb)]))

    gh_p = np.abs(la[:, 1:] - la[:, :-1])
    gh_g = np.abs(lb[:, 1:] - lb[:, :-1])
    gv_p = np.abs(la[1:, :] - la[:-1, :])
    gv_g = np.abs(lb[1:, :] - lb[:-1, :])
    smooth = 0.5 * (float(np.mean(gh_p * np.exp(-gh_g))) + float(np.mean(gv_p * np.exp(-gv_g))))

    total = charb + alpha_hist * hist + beta_smooth * smooth
    return charb, hist, smooth, total


def naive_joint_histogram(intensity: np.ndarray, error: np.ndarray, bins: int):
    """Brute-force 2-D binning matching numpy.histogram2d edge semantics."""
    top = float(error.max())
    if top <= 0:
        top = 1.0
    counts = np.zeros((bins, bins), dtype=int)
    for v, e in zip(intensity.reshape(-1), error.reshape(-1)):
        bi = min(int(v / 255.0 * bins), bins - 1)
        bj = min(int(e / top * bins), bins - 1)
        counts[bi, bj] += 1
    return counts


class _NaiveBytes:
    """Byte cursor that raises ParseError with the current offset on EOF."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def line(self, limit=4096) -> bytes:
        end = self.data.find(b"\n", self.pos, self.pos + limit)
        if end < 0:
            raise ParseError("unterminated header line", offset=self.pos)
        out = self.data[self.pos:end]
        self.pos = end + 1
        return out

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ParseError("unexpected end of file", offset=len(self.data))
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def byte(self) -> int:
        if self.pos >= len(self.data):
            raise ParseError("unexpected end of file", offset=self.pos)
        v = self.data[self.pos]
        self.pos += 1
        return v


def naive_rgbe_encode(r: float, g: float, b: float) -> tuple:
    """One RGBE pixel (r, g, b, exponent) from first principles, one float at a time.

    The exponent e is the smallest with max(r, g, b) < 2**(e - 128); each
    mantissa is component * 2**(136 - e) rounded half up. When that rounding
    carries the largest mantissa to 256, e goes up by one. Zero, and anything
    left with e < 1, is canonical black; e > 255 raises ValueError.
    """
    top = max(r, g, b)
    if top == 0.0:
        return (0, 0, 0, 0)
    e = math.frexp(top)[1] + 128  # top = f * 2**(e - 128) with 0.5 <= f < 1
    mant = [math.floor(math.ldexp(c, 136 - e) + 0.5) for c in (r, g, b)]
    if max(mant) >= 256:
        e += 1
        mant = [math.floor(math.ldexp(c, 136 - e) + 0.5) for c in (r, g, b)]
    if e < 1:
        return (0, 0, 0, 0)
    if e > 255:
        raise ValueError("component too large for RGBE encoding")
    return (mant[0], mant[1], mant[2], e)


def naive_read_hdr(data: bytes):
    """Radiance RGBE decoder that walks the stream one byte or pixel at a time.

    Returns the decoded (height, width, 3) float32 pixels, each component
    mantissa * 2**(exponent - 136), black for exponent 0; header lines other
    than FORMAT are skipped.
    Raises ParseError with the same message and byte offset as `read_hdr`.
    """
    rd = _NaiveBytes(data)
    if rd.line() not in (b"#?RADIANCE", b"#?RGBE"):
        raise ParseError("not a Radiance RGBE file", offset=0)
    while True:
        at = rd.pos
        line = rd.line()
        if line == b"":
            break
        try:
            text = line.decode("ascii")
        except UnicodeDecodeError:
            raise ParseError("non-ASCII header line", offset=at) from None
        if text.startswith("FORMAT=") and text != "FORMAT=32-bit_rle_rgbe":
            raise ParseError(f"unsupported pixel format {text!r}", offset=at)
    at = rd.pos
    parts = rd.line().split()
    if len(parts) != 4 or parts[0] != b"-Y" or parts[2] != b"+X":
        raise ParseError("unsupported or malformed resolution string", offset=at)
    try:
        height, width = int(parts[1]), int(parts[3])
    except ValueError:
        raise ParseError("malformed resolution string", offset=at) from None
    if width < 1 or height < 1:
        raise ParseError("image dimensions must be positive", offset=at)
    if width * height > 1 << 24:
        raise ParseError(f"image of {width}x{height} pixels exceeds parser limit", offset=at)

    rows = [[None] * width for _ in range(height)]
    for y in range(height):
        _naive_hdr_scanline(rd, rows[y], width)
    pixels = np.empty((height, width, 3), dtype=np.float32)
    for y in range(height):
        for x in range(width):
            r, g, b, e = rows[y][x]
            for c, m in enumerate((r, g, b)):
                pixels[y, x, c] = 0.0 if e == 0 else m * 2.0 ** (e - 136)
    return pixels


def _naive_hdr_scanline(rd: _NaiveBytes, row: list, width: int):
    at = rd.pos
    head = rd.take(4)
    if (8 <= width <= 32767 and head[0] == 2 and head[1] == 2
            and head[2] & 0x80 == 0):
        if (head[2] << 8) | head[3] != width:
            raise ParseError("adaptive RLE scanline length mismatch", offset=at)
        channels = [[0] * width for _ in range(4)]
        for ch in range(4):
            x = 0
            while x < width:
                code = rd.byte()
                if code > 128:  # run
                    count = code - 128
                    if x + count > width:
                        raise ParseError("RLE run overflows scanline", offset=rd.pos)
                    value = rd.byte()
                    for i in range(count):
                        channels[ch][x + i] = value
                elif code > 0:  # literal
                    if x + code > width:
                        raise ParseError("RLE literal overflows scanline", offset=rd.pos)
                    chunk = rd.take(code)
                    for i in range(code):
                        channels[ch][x + i] = chunk[i]
                    count = code
                else:
                    raise ParseError("zero-length RLE code", offset=rd.pos)
                x += count
        for x in range(width):
            row[x] = tuple(channels[ch][x] for ch in range(4))
        return
    # old style: flat 4-byte pixels; (1,1,1,n) repeats the previous pixel
    # n << shift times, and each consecutive repeat code adds 8 to the shift
    x = 0
    pixel = head
    shift = 0
    while True:
        if pixel[0] == 1 and pixel[1] == 1 and pixel[2] == 1:
            if x == 0:
                raise ParseError("repeat code with no previous pixel", offset=at)
            count = pixel[3] << shift
            if x + count > width:
                raise ParseError("repeat code overflows scanline", offset=at)
            for i in range(count):
                row[x + i] = row[x - 1]
            x += count
            shift += 8
        else:
            row[x] = tuple(pixel)
            x += 1
            shift = 0
        if x >= width:
            return
        at = rd.pos
        pixel = rd.take(4)


def naive_rle_component(data: bytes) -> bytes:
    """Classic Radiance run-length coding: runs of >= 4, literals up to 128 bytes."""
    out = bytearray()
    n = len(data)
    pos = 0
    while pos < n:
        run_start = pos
        run_len = 0
        while run_start < n:  # find next run of at least 4 equal bytes
            run_len = 1
            while (run_len < 127 and run_start + run_len < n
                   and data[run_start + run_len] == data[run_start]):
                run_len += 1
            if run_len >= 4:
                break
            run_start += run_len
        if run_start + run_len >= n and run_len < 4:
            run_start = n
        lit = run_start - pos
        while lit > 0:  # literals before the run
            chunk = min(lit, 128)
            out.append(chunk)
            out += data[pos:pos + chunk]
            pos += chunk
            lit -= chunk
        if pos < n and run_len >= 4:
            out.append(128 + run_len)
            out.append(data[pos])
            pos += run_len
    return bytes(out)


def naive_png_unfilter(scan: bytes, width: int, height: int):
    """Rebuild 8-bit RGB PNG rows byte by byte from the filtered scanlines.

    Returns the pixels as nested lists, or raises ParseError for an unknown
    filter type on the first row that has one.
    """
    stride = 3 * width
    prev = [0] * stride
    rows = []
    for y in range(height):
        line = scan[y * (stride + 1):(y + 1) * (stride + 1)]
        ftype, cur = line[0], list(line[1:])
        if ftype > 4:
            raise ParseError(f"unknown PNG filter type {ftype}")
        for i in range(stride):
            a = cur[i - 3] if i >= 3 else 0
            b = prev[i]
            c = prev[i - 3] if i >= 3 else 0
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = a
            elif ftype == 2:
                pred = b
            elif ftype == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                if pa <= pb and pa <= pc:
                    pred = a
                elif pb <= pc:
                    pred = b
                else:
                    pred = c
            cur[i] = (cur[i] + pred) & 0xFF
        rows.append([cur[x * 3:x * 3 + 3] for x in range(width)])
        prev = cur
    return rows


def naive_png_scan(pixels) -> bytes:
    """The scanlines an 8-bit RGB PNG writer stores, one filter byte per row.

    Builds the whole image with each of None, Sub and Up (ISO 15948 section 9:
    x - 0, x - a, x - b modulo 256, with a the same byte of the pixel to the
    left and b the byte above, 0 outside the image), scores each by the sum of
    min(d, 256 - d) over its filtered bytes d (section 12.8's minimum sum of
    absolute differences) and returns the lowest, the lower type on a tie.
    """
    rows = [[int(v) for px in row for v in px] for row in np.asarray(pixels).tolist()]
    best = None
    for ftype in range(3):
        out, score = bytearray(), 0
        prev = [0] * len(rows[0])
        for cur in rows:
            out.append(ftype)
            for i, x in enumerate(cur):
                a = cur[i - 3] if i >= 3 else 0
                d = (x - (0, a, prev[i])[ftype]) % 256
                out.append(d)
                score += min(d, 256 - d)
            prev = cur
        if best is None or score < best[0]:
            best = (score, bytes(out))
    return best[1]


def naive_splitmix64(seed, n):
    """Output n (counted from 1) of SplitMix64 seeded with `seed`, in Python integers.

    The generator of Steele, Lea & Flood ("Fast splittable pseudorandom
    number generators", OOPSLA 2014) adds the increment gamma to its 64-bit
    state before each output and returns the state's finalizer, so output n
    is the finalizer of seed + n gamma, all mod 2^64.
    """
    mask = 2**64 - 1
    z = (seed + n * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def naive_chain_moments(x0, mu, theta, sigma, dt):
    """Mean and variance of the discretized forward SDE chain, one step at a time.

    `x0` and `mu` are lists of floats, `theta` and `sigma` the per-step
    coefficients. m_{i+1} = m_i + theta_i (mu - m_i) dt and
    v_{i+1} = (1 - theta_i dt)^2 v_i + sigma_i^2 dt, from m_0 = x0, v_0 = 0.
    Returns (means, variances): steps + 1 rows of len(x0) means, and
    steps + 1 variances.
    """
    means = [[float(v) for v in x0]]
    variances = [0.0]
    for th, sg in zip(theta, sigma):
        means.append([m + th * (u - m) * dt for m, u in zip(means[-1], mu)])
        variances.append((1.0 - th * dt) ** 2 * variances[-1] + sg * sg * dt)
    return means, variances


def ou_moments(x0, mu, theta, sigma, t):
    """Closed-form Ornstein-Uhlenbeck mean and variance at continuous time t.

    For dx = theta (mu - x) dt + sigma dw from x0 at t = 0, the state is Gaussian with
    mean mu + (x0 - mu) e^(-theta t) and variance sigma^2 (1 - e^(-2 theta t)) / (2 theta).
    Scalars give floats; arrays broadcast.
    """
    rate = theta * np.asarray(t, dtype=np.float64)
    mean = mu + (np.asarray(x0, dtype=np.float64) - mu) * np.exp(-rate)
    var = 0.5 * sigma * (sigma * (-np.expm1(-2.0 * rate) / theta))
    if mean.ndim == 0 and var.ndim == 0:
        return float(mean), float(var)
    return mean, var


def make_ou_score(x0, mu, theta, sigma, dt):
    """The Gaussian score -(x - m_t) / v_t of the OU moments at t = step * dt, as a
    `backward_simulate` hook; the variance is positive for every step >= 1."""
    def score(x, step):
        mean, var = ou_moments(x0, mu, theta, sigma, step * dt)
        return -(x - mean) / var

    return score
