"""Virtual camera: turn HDR sources into degraded 8-bit LDR inputs.

`simulate_ldr` is the camera. Its pipeline order is fixed: scale by 2^ev,
add Gaussian read noise, clip to [0, 1], apply the camera response curve,
quantize to 8 bits (round half up).
Dataset generation derives one seed per output pair from the master seed so
results are identical regardless of worker count or iteration order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .color import (_GAIN_MAX, _GAIN_STOPS, _float64, _int_at_least, _radiance, as_radiance,
                    luminance)
from .errors import DomainError, ItmError, RangeError
from .image_io import (LDR_ENCODERS, LINEAR_WRITERS, LinearImage, Ldr8Image, index_linear_dir,
                       ordered_map, read_linear, write_ldr8, write_linear)

# Exposure clamp when an image has too few bright/dark pixels to pin a bound.
_EV_LIMIT = 30.0


# family -> the parameters that define it; as_dict, from_dict and from_spec follow this table
_CRF_PARAMS = {"gamma": ("gamma",), "sigmoid": ("n", "sigma_c"), "table": ("table",)}


@dataclass(frozen=True)
class Crf:
    """Monotone camera response curve on [0, 1] with an analytic inverse.

    Families: power (f = x^g), sigmoid (f = (1+c) x^n / (x^n + c)), and a
    256-entry monotone table interpolated linearly. All satisfy f(0) = 0 and
    f(1) = 1. `Crf("gamma")` (g = 1) is the identity. The constructor coerces
    its numbers with `float()`, so a numpy scalar or a numeric string works.
    """

    family: str
    gamma: float = 1.0
    n: float = 1.0
    sigma_c: float = 1.0
    table: tuple = ()

    def __post_init__(self):
        try:
            for name in ("gamma", "n", "sigma_c"):
                object.__setattr__(self, name, float(getattr(self, name)))
            t = np.asarray(self.table, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"CRF parameters must be numbers: {exc}") from None
        if self.family == "gamma":
            if not (0 < self.gamma < np.inf):
                raise DomainError(f"gamma must be finite and positive; got {self.gamma!r}")
        elif self.family == "sigmoid":
            if not (0 < self.n < np.inf and 0 < self.sigma_c < np.inf):
                raise DomainError("sigmoid needs finite n > 0 and sigma_c > 0")
        elif self.family == "table":
            if t.shape != (256,):
                raise DomainError("table CRF needs exactly 256 entries")
            if not np.isfinite(t).all():
                raise DomainError("table CRF entries must be finite")
            if not (np.diff(t) > 0).all():
                raise DomainError("table CRF must be strictly increasing")
            t = (t - t[0]) / (t[-1] - t[0])  # normalize to f(0)=0, f(1)=1
            object.__setattr__(self, "table", tuple(t))
        else:
            raise DomainError(f"unknown CRF family {self.family!r}")

    def apply(self, v):
        out = self._apply_owned(np.array(_radiance(v, "CRF input", "unit"), dtype=np.float64))
        return out if out.ndim else float(out)

    def _apply_owned(self, x: np.ndarray) -> np.ndarray:
        """`apply` on a float64 array in [0, 1] of the caller's own, overwriting it."""
        if self.family == "gamma":
            x **= self.gamma
        elif self.family == "sigmoid":
            x **= self.n
            den = x + self.sigma_c
            x *= 1.0 + self.sigma_c
            x /= den
        else:
            x[...] = np.interp(x, np.linspace(0.0, 1.0, 256), np.asarray(self.table))
        return x

    def inverse(self, v):
        y = _float64(v, "CRF inverse input", "unit")
        if self.family == "gamma":
            out = y ** (1.0 / self.gamma)
        elif self.family == "sigmoid":
            xn = y * self.sigma_c / (1.0 + self.sigma_c - y)
            out = np.maximum(xn, 0.0) ** (1.0 / self.n)
        else:
            out = np.interp(y, np.asarray(self.table), np.linspace(0.0, 1.0, 256))
        return out if out.ndim else float(out)

    def as_dict(self) -> dict:
        doc = {"family": self.family}
        for name in _CRF_PARAMS[self.family]:
            value = getattr(self, name)
            doc[name] = list(value) if name == "table" else value
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "Crf":
        """Inverse of `as_dict`: the record holds `family` and exactly that family's parameters."""
        family = doc.get("family")
        if family not in tuple(_CRF_PARAMS):  # a tuple: an unhashable family is just unknown
            raise DomainError(f"unknown CRF family {family!r}")
        keys = ("family", *_CRF_PARAMS[family])
        if set(doc) != set(keys):
            raise DomainError(f"a {family} CRF record holds exactly the keys {', '.join(keys)}; "
                              f"got {', '.join(sorted(doc))}")
        return Crf(**doc)

    @staticmethod
    def from_spec(spec: str) -> "Crf":
        """Parse CLI syntax: 'identity', 'gamma:G', 'sigmoid:N,C', 'table:PATH'."""
        name, _, args = spec.partition(":")
        try:
            if name == "identity":
                return Crf("gamma")
            if name == "table":
                return Crf("table", table=[float(v) for v in Path(args).read_text().split()])
            if name in _CRF_PARAMS:
                params, values = _CRF_PARAMS[name], args.split(",")
                if len(values) != len(params):
                    raise ValueError(f"{name} takes {len(params)} comma-separated numbers")
                return Crf(name, **dict(zip(params, values)))
        except (ValueError, OSError) as exc:
            raise DomainError(f"bad CRF spec {spec!r}: {exc}") from None
        raise DomainError(f"unknown CRF spec {spec!r}")


@dataclass(frozen=True)
class ExposureRange:
    ev_min: float
    ev_max: float

    def __post_init__(self):
        if not (-np.inf < self.ev_min <= self.ev_max <= _GAIN_STOPS):
            raise DomainError(f"require finite ev_min <= ev_max <= {_GAIN_STOPS}")


@dataclass(frozen=True)
class NoiseParams:
    """Gaussian read-noise level in linear [0, 1] units, a gain on unit normal noise."""

    sigma_read: float = 0.0

    def __post_init__(self):
        if not (0 <= self.sigma_read <= _GAIN_MAX):
            raise DomainError(f"noise level must be finite and non-negative, at most 2**896; "
                              f"got {self.sigma_read!r}")


def estimate_exposure_range(image, sat_frac: float = 0.05, dark_frac: float = 0.10) -> ExposureRange:
    """Largest exposure window keeping clipping fractions within budget.

    ev_max is the largest ev whose saturated fraction (luminance scaled above
    1.0) stays <= sat_frac; ev_min the smallest ev whose dark fraction (below
    2^-8) stays <= dark_frac. Both are exact order statistics of the sorted
    luminances (the limit of bisecting the step-shaped constraint). When
    zeros exhaust the dark budget the threshold falls back to the smallest
    positive luminance; if the two bounds cross (inner band wider than 8
    stops) both collapse to their midpoint.
    """
    if not (0 < sat_frac < 1 and 0 < dark_frac < 1):
        raise DomainError("sat_frac and dark_frac must lie in (0, 1)")
    lum = np.sort(luminance(image).ravel())
    n = lum.size
    if lum[-1] <= 0:
        raise RangeError("cannot estimate exposure range of an all-zero image")

    k_sat = int(np.floor(sat_frac * n))
    bright = lum[n - 1 - k_sat]
    ev_max = -np.log2(bright) if bright > 0 else _EV_LIMIT

    k_dark = int(np.floor(dark_frac * n))
    dark = lum[min(k_dark, n - 1)]
    if dark <= 0:
        dark = lum[lum > 0][0]
    ev_min = -8.0 - np.log2(dark)

    ev_max = float(np.clip(ev_max, -_EV_LIMIT, _EV_LIMIT))
    ev_min = float(np.clip(ev_min, -_EV_LIMIT, _EV_LIMIT))
    if ev_min > ev_max:
        ev_min = ev_max = 0.5 * (ev_min + ev_max)
    return ExposureRange(ev_min=ev_min, ev_max=ev_max)


def simulate_ldr(hdr, ev: float, crf: Crf, noise: NoiseParams = NoiseParams(),
                 seed: int = 0) -> Ldr8Image:
    """Virtual camera: 2^ev scaling, Gaussian noise, clip, CRF, 8-bit quantization.

    `hdr` (a LinearImage or an array) is not written: every stage after the scaling
    works in place on the float64 product hdr * 2^ev, which this call allocates.
    """
    if not (-np.inf < ev <= _GAIN_STOPS):  # the gain 2^ev is at most 2^896
        raise DomainError(f"exposure ev must be finite and at most {_GAIN_STOPS}; got {ev!r}")
    seed = _int_at_least(seed, "seed", 0)
    if seed >= 2**128:
        raise DomainError(f"seed must be below 2**128, the size of Philox's key; got {seed!r}")
    # a float32 image's copy is reused: numpy elides the unnamed temporary
    exposed = as_radiance(hdr, "camera input") * 2.0**ev
    if noise.sigma_read > 0:
        rng = np.random.Generator(np.random.Philox(key=seed))
        exposed += noise.sigma_read * rng.standard_normal(exposed.shape)
    np.clip(exposed, 0.0, 1.0, out=exposed)
    crf._apply_owned(exposed)
    exposed *= 255.0  # 8 bits, round half up
    exposed += 0.5
    return Ldr8Image(np.floor(exposed, out=exposed).astype(np.uint8))


# ---------------------------------------------------------------------------
# Dataset generation


_SETTING_CHOICES = {
    "crf_family": ("sigmoid", "gamma", "identity"),
    "crop_mode": ("random", "center"),
    "ldr_format": tuple(suffix[1:] for suffix in LDR_ENCODERS),
    "hdr_format": tuple(suffix[1:] for suffix in LINEAR_WRITERS),
}


@dataclass(frozen=True)
class SynthesisSettings:
    sat_frac: float = 0.05
    dark_frac: float = 0.10
    sigma_range: tuple = (0.0, 0.01)
    crf_family: str = "sigmoid"
    gamma_range: tuple = (0.35, 0.6)
    sigmoid_n_range: tuple = (0.7, 1.1)
    sigmoid_c_range: tuple = (0.4, 0.8)
    crop: int = 0  # 0 disables cropping
    crop_mode: str = "random"
    ldr_format: str = "png"
    hdr_format: str = "hdr"

    def __post_init__(self):
        for name, choices in _SETTING_CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise DomainError(f"{name} must be one of {', '.join(choices)}; got {value!r}")
        for name in ("sat_frac", "dark_frac"):
            if not (0 < getattr(self, name) < 1):
                raise DomainError(f"{name} must lie in (0, 1); got {getattr(self, name)!r}")
        for name, low, low_ok in (
            ("sigma_range", "0 <=", self.sigma_range[0] >= 0),
            ("gamma_range", "0 <", self.gamma_range[0] > 0),
            ("sigmoid_n_range", "0 <", self.sigmoid_n_range[0] > 0),
            ("sigmoid_c_range", "0 <", self.sigmoid_c_range[0] > 0),
        ):
            lo, hi = getattr(self, name)
            if not (low_ok and lo <= hi < np.inf):
                raise DomainError(f"{name} must satisfy {low} lo <= hi < inf; got ({lo!r}, {hi!r})")
        object.__setattr__(self, "crop", _int_at_least(self.crop, "crop", 0))


@dataclass(frozen=True)
class SynthesisRecord:
    """Everything needed to reproduce one LDR/HDR pair bit-exactly."""

    source: str
    index: int
    seed: int
    ev: float
    crf: dict
    noise_sigma: float
    crop: tuple | None
    ldr_file: str
    hdr_file: str

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _derive_seed(master_seed: int, source_id: str, index: int) -> int:
    """Stable 63-bit per-pair seed; independent of iteration order and parallelism."""
    import hashlib

    digest = hashlib.sha256(f"{master_seed}:{source_id}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _sample_crf(rng: np.random.Generator, settings: SynthesisSettings) -> Crf:
    if settings.crf_family == "identity":
        return Crf("gamma")
    if settings.crf_family == "gamma":
        return Crf("gamma", gamma=rng.uniform(*settings.gamma_range))
    n = rng.uniform(*settings.sigmoid_n_range)
    c = rng.uniform(*settings.sigmoid_c_range)
    return Crf("sigmoid", n=n, sigma_c=c)


def _synthesize_pair(source: LinearImage, name: str, index: int, seed: int,
                     ev_range: ExposureRange, settings: SynthesisSettings,
                     out_dir: Path) -> SynthesisRecord:
    rng = np.random.Generator(np.random.Philox(key=seed))
    # draw order is part of the reproducibility contract: ev, crf, sigma, crop
    ev = float(rng.uniform(ev_range.ev_min, ev_range.ev_max))
    crf = _sample_crf(rng, settings)
    lo, hi = settings.sigma_range
    sigma = float(rng.uniform(lo, hi))
    crop = None
    data = source.data
    if settings.crop:
        c = settings.crop
        if source.height < c or source.width < c:
            raise RangeError(f"source {name} is smaller than the {c}px crop")
        if settings.crop_mode == "center":
            y0, x0 = (source.height - c) // 2, (source.width - c) // 2
        else:
            y0 = int(rng.integers(0, source.height - c + 1))
            x0 = int(rng.integers(0, source.width - c + 1))
        data = data[y0:y0 + c, x0:x0 + c]
        crop = (y0, x0, c, c)

    stem = f"{Path(name).stem}_{index:04d}"
    ldr_file = f"{stem}.{settings.ldr_format}"
    hdr_file = f"{stem}.{settings.hdr_format}"
    # ground truth is exposure-aligned: LDR == quantize(crf(clip(gt))), so both read one product
    exposed = data.astype(np.float64) * (2.0**ev)
    ldr = simulate_ldr(exposed, 0.0, crf, NoiseParams(sigma_read=sigma), seed=seed)
    write_linear(LinearImage(exposed), out_dir / hdr_file)  # first: it may reject the content
    write_ldr8(ldr, out_dir / ldr_file)
    return SynthesisRecord(
        source=name, index=index, seed=seed, ev=ev, crf=crf.as_dict(),
        noise_sigma=sigma, crop=crop, ldr_file=ldr_file, hdr_file=hdr_file,
    )


def generate_dataset(hdr_dir, out_dir, count_per_image: int = 1,
                     settings: SynthesisSettings = SynthesisSettings(), master_seed: int = 0,
                     jobs: int = 1) -> tuple[list[SynthesisRecord], list[str]]:
    """Synthesize LDR/HDR pairs plus a JSONL manifest of SynthesisRecord rows.

    Unreadable or degenerate sources, and sources sharing a stem, are recorded
    in the returned error list and generation continues. Records, and manifest
    rows, follow the sources' file-name order, then the pair index. Output is
    byte-identical for any `jobs`.
    """
    count_per_image = _int_at_least(count_per_image, "count_per_image", 1)
    master_seed = _int_at_least(master_seed, "master_seed", -np.inf)  # of either sign
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sources, errors = index_linear_dir(hdr_dir)
    tasks = []
    for path in sources.values():
        try:
            source = read_linear(path)
            ev_range = estimate_exposure_range(source, settings.sat_frac, settings.dark_frac)
        except ItmError as exc:
            errors.append(f"{path.name}: {exc}")
            continue
        for index in range(count_per_image):
            seed = _derive_seed(master_seed, path.name, index)
            tasks.append((source, path.name, index, seed, ev_range))

    def run(task):
        source, name, index, seed, ev_range = task
        try:
            pair = _synthesize_pair(source, name, index, seed, ev_range, settings, out_dir)
            return pair, None
        except ItmError as exc:
            return None, f"{name}[{index}]: {exc}"

    results = ordered_map(run, tasks, jobs)

    records = [r for r, _ in results if r is not None]
    errors.extend(sorted(e for _, e in results if e is not None))
    manifest = out_dir / "manifest.jsonl"
    with open(manifest, "w") as fh:
        for record in records:
            fh.write(record.to_json_line() + "\n")
    return records, errors
