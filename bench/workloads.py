"""The benchmark's workloads: why each exists, its fixtures, ops and output checks.

Each workload runs in its own fresh process as a closed loop with one client:
the next op starts only after the previous op and its output check ended. An
op is one in-process `itmbench.cli.main(argv)` call. Ops come in units, one
user-level evaluation each: a single op, or in `baseline_eval` the expand and
analyze of one LDR. A run ends on a unit boundary, and latencies are per
unit: timed apart, expand and analyze form two clusters, and the median of
the mix sits in the gap between them (it moved 22% between seeds). Fixtures
are generated from the benchmark's seed before any timing; the program
receives only those files.

An op fails on a non-zero exit, an exception, or a failed output check. Every
check holds for any correct implementation: expected values come from the
library's own public functions applied to the same inputs, never from
committed numbers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fixtures import PNG_FILTERS, FixtureSet, smooth_hdr, texture_hdr, to_ldr8
from itmbench.camera import Crf, NoiseParams, simulate_ldr
from itmbench.config import Config
from itmbench.image_io import LinearImage, Ldr8Image, read_hdr, read_ldr8, read_pfm, write_ldr8
from itmbench.operators import naive_expand
from itmbench.pu21 import pu_psnr, pu_ssim, rmse_linear

# Which per-layer metric should move which end-to-end metric, on which
# workload, and where it is predicted not to move. Later changes cite rows of
# this table by layer name.
LAYER_MAP = (
    ("image_io.read_hdr.{calls,self_s,mb_s,rle_scanlines,flat_scanlines}",
     "throughput_mpix_s, op_p50_ms", "score", "sde_demo, baseline_eval"),
    ("image_io.write_hdr.{calls,self_s,mb_s}, image_io.write_ldr8.{calls,self_s,mb_s}",
     "throughput_mpix_s", "synthesize", "score, sde_demo"),
    ("image_io.read_ldr8.{calls,self_s}, image_io.read_ldr8.{none,sub,up,average,paeth}_ms",
     "op_p50_ms", "baseline_eval", "score, synthesize"),
    ("image_io.{read_pfm,write_pfm}.self_s", "op_p50_ms", "baseline_eval", "score"),
    ("camera.estimate_exposure_range.self_s, camera.simulate_ldr.{calls,self_s}",
     "throughput_mpix_s", "synthesize", "score"),
    ("pu21.{pu_psnr,pu_ssim,rmse_linear}.self_s", "throughput_mpix_s", "score", "synthesize"),
    ("pu21.score_dataset.parallel_eff", "throughput_mpix_s", "score", "synthesize (jobs 1)"),
    ("operators.naive_expand.self_s", "op_p50_ms", "baseline_eval", "all others"),
    ("losses.upf_loss.{calls,self_s,peak_alloc_mb}, losses.{total_loss,ssim_pu_loss}.self_s, "
     "losses.small_terms.self_s", "op_p50_ms, peak_rss_mb", "baseline_eval", "all others"),
    ("analysis.{error_map,saturation_split,intensity_error_joint}.self_s",
     "op_p50_ms", "baseline_eval", "all others"),
    ("sde.{forward_simulate,backward_simulate,itm_sde_demo}.self_s, sde.noise_draws, "
     "sde.noise_draws_per_s", "op_p50_ms", "sde_demo", "score, synthesize, baseline_eval"),
    ("cli.self_s, <module>.errors", "op_p50_ms, failed_frac", "all", "-"),
    ("trace.overhead_frac", "-", "all", "-"),
)


class CheckFailed(Exception):
    """An op's output is wrong."""


def require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


def close(a, b, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@dataclass
class Op:
    argv: list
    pixels: int  # pixels of the input images the op is given
    out: Path
    check: object  # check(op) raises CheckFailed


class Workload:
    name = ""  # as in BENCHMARK.json; the class docstring says why it exists

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.fx = FixtureSet(work / "fixtures")
        self.rng = np.random.default_rng(seed)
        self.config = Config()
        self._first: dict = {}

    def same_as_first(self, key: str, value, what: str):
        """Outputs are deterministic: every op equals the first checked op of its kind."""
        first = self._first.setdefault(key, value)
        require(value == first, f"{what} differs from the first op's")

    def prepare(self):
        """Write fixtures and compute expected values (untimed)."""

    def warmup(self, out: Path) -> list:
        return self.unit(0, out)

    def unit(self, i: int, out: Path) -> list:
        raise NotImplementedError


class Score(Workload):
    """`score --jobs 2` over four 512² pred/GT `.hdr` pairs.

    GTs are adaptive RLE; half the predictions are adaptive RLE and half flat
    RGBE, as other tools write them. Content is half smooth gradients
    (run-heavy) and half lognormal texture (literal-heavy). RGBE decode and the
    PU metrics do almost all the work, and `--jobs 2` (<= nproc) exercises
    the threaded fan-out.
    """

    name = "score"
    SIZE = 512

    def prepare(self):
        for content, make in (("smooth", smooth_hdr), ("texture", texture_hdr)):
            gt = make(self.rng, self.SIZE)
            for kind in ("rle", "flat"):
                stem = f"{content}_{kind}"
                # a reconstruction with ~10% multiplicative error per channel
                pred = gt * self.rng.lognormal(0.0, 0.1, gt.shape).astype(np.float32)
                self.fx.hdr(f"gt/{stem}.hdr", gt, rle=True)
                self.fx.hdr(f"pred/{stem}.hdr", pred, rle=kind == "rle")
        self.pixels = sum(info["pixels"] for info in self.fx.files.values())
        # replay of what the op computes, through the same public functions
        enc, mapping = self.config.encoding(), self.config.display
        self.expected = {}
        for path in sorted((self.fx.root / "gt").iterdir()):
            pred = read_hdr(self.fx.root / "pred" / path.name)
            gt = read_hdr(path)
            self.expected[path.stem] = {
                "pu_psnr": pu_psnr(pred, gt, enc, mapping),
                "pu_ssim": pu_ssim(pred, gt, enc, mapping),
                "rmse_linear": rmse_linear(pred, gt),
            }

    def unit(self, i, out):
        argv = ["score", "--pred", str(self.fx.root / "pred"), "--gt", str(self.fx.root / "gt"),
                "--jobs", "2", "--out", str(out)]
        return [Op(argv, self.pixels, out, self.check)]

    def check(self, op):
        doc = json.loads((op.out / "report.json").read_text())
        # the only field that may differ between runs of the same inputs
        doc.pop("runtime_ms_per_image", None)
        require(doc["errors"] == [], f"report errors: {doc['errors']}")
        rows = {r["image"]: r for r in doc["per_image"]}
        require(set(rows) == set(self.expected), "report images differ from the fixtures")
        for stem, expected in self.expected.items():
            for key, value in expected.items():
                got = rows[stem][key]
                require(isinstance(got, float) and close(got, value, 1e-9),
                        f"{stem}.{key} = {got!r}, replay gives {value!r}")
        require((op.out / "report.csv").is_file(), "report.csv missing")
        self.same_as_first("report", doc, "report.json")


class Synthesize(Workload):
    """`synthesize --jobs 1` from two 512² `.hdr` sources, two pairs per source.

    Sources are one smooth and one texture image. The write side of image_io
    (adaptive RLE encode, zlib-9 PNG) and the camera dominate; reads are a
    small share and the fan-out is bypassed. A read-path or fan-out gain
    should show no change here, and a writer change that costs reads shows
    up in `score`.
    """

    name = "synthesize"
    SIZE = 512
    COUNT = 2

    def prepare(self):
        self.fx.hdr("src/smooth.hdr", smooth_hdr(self.rng, self.SIZE), rle=True)
        self.fx.hdr("src/texture.hdr", texture_hdr(self.rng, self.SIZE), rle=True)
        self.pixels = sum(info["pixels"] for info in self.fx.files.values())
        self.sources = {p.name: read_hdr(p) for p in sorted((self.fx.root / "src").iterdir())}

    def unit(self, i, out):
        argv = ["synthesize", "--hdr-dir", str(self.fx.root / "src"), "--count", str(self.COUNT),
                "--seed", str(self.seed), "--jobs", "1", "--out", str(out)]
        return [Op(argv, self.pixels, out, self.check)]

    def check(self, op):
        digest = tree_digest(op.out)
        if "tree" not in self._first:
            self.replay(op.out)
        self.same_as_first("tree", digest, "output bytes")

    def replay(self, out: Path):
        """Rebuild each pair from its manifest record and compare."""
        records = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
        require(len(records) == self.COUNT * len(self.sources), f"{len(records)} manifest records")
        scratch = self.work / "replay"
        scratch.mkdir(parents=True, exist_ok=True)
        for rec in records:
            data = self.sources[rec["source"]].data
            if rec["crop"] is not None:
                y0, x0, h, w = rec["crop"]
                data = data[y0:y0 + h, x0:x0 + w]
            ldr = simulate_ldr(LinearImage(data), rec["ev"], Crf.from_dict(rec["crf"]),
                               NoiseParams(sigma_read=rec["noise_sigma"]), seed=rec["seed"])
            write_ldr8(ldr, scratch / rec["ldr_file"])
            require((scratch / rec["ldr_file"]).read_bytes() == (out / rec["ldr_file"]).read_bytes(),
                    f"{rec['ldr_file']} does not match its manifest record")
            gt = read_hdr(out / rec["hdr_file"]).data.astype(np.float64)
            ref = data.astype(np.float64) * 2.0 ** rec["ev"]
            # RGBE keeps 8 mantissa bits of the largest channel per pixel
            tol = ref.max(axis=-1, keepdims=True) * 2.0**-7 * (1 + 1e-6)
            require(np.all(np.abs(gt - ref) <= tol), f"{rec['hdr_file']} is not source * 2^ev")


class SdeDemo(Workload):
    """`sde-demo --steps 100` at 64² from `.pfm` inputs, default ensemble of 16.

    Noise generation in `sde` is nearly all of it; codecs and scoring are
    nearly nothing, which makes it the control for image_io/pu21 changes.
    Its checks are statistical, not byte digests across commits, so a change
    of the noise generator's bytes still passes.
    """

    name = "sde_demo"
    SIZE = 64
    WARM_STEP = 4  # warm-up on every 4th pixel: same code paths at 1/16 of the cost
    STEPS = 100

    def prepare(self):
        gt = smooth_hdr(self.rng, self.SIZE) * self.rng.lognormal(0.0, 0.3, (self.SIZE, self.SIZE, 1))
        gt = (gt / gt.max()).astype(np.float32)  # within the display peak
        # an 8-bit capture exposed so that the brightest 30% of pixels clip
        gain = 1.0 / np.quantile(gt, 0.7)
        degraded = ((to_ldr8(gt * gain) / 255.0) ** 2.2 / gain).astype(np.float32)
        self.inputs = {}
        for key, step in (("full", 1), ("warm", self.WARM_STEP)):
            g = self.fx.pfm(f"{key}/gt.pfm", gt[::step, ::step])
            d = self.fx.pfm(f"{key}/degraded.pfm", degraded[::step, ::step])
            psnr = pu_psnr(read_pfm(d), read_pfm(g), self.config.encoding(), self.config.display)
            self.inputs[key] = (g, d, psnr, self.SIZE // step)

    def _op(self, key, out):
        g, d, psnr, size = self.inputs[key]
        argv = ["sde-demo", "--hdr", str(g), "--ldr", str(d), "--steps", str(self.STEPS),
                "--seed", str(self.seed), "--out", str(out)]
        return Op(argv, 2 * size * size, out, lambda op: self.check(op, size, psnr))

    def warmup(self, out):
        return [self._op("warm", out)]

    def unit(self, i, out):
        return [self._op("full", out)]

    def check(self, op, size, degraded_psnr):
        report = json.loads((op.out / "sde_report.json").read_text())
        row = report["per_image"][0]
        values = [row["pu_psnr"], row["pu_ssim"], row["rmse_linear"]]
        require(all(isinstance(v, float) and math.isfinite(v) for v in values),
                f"non-finite scores {values}")
        require(row["pu_psnr"] > degraded_psnr,
                f"restored PU-PSNR {row['pu_psnr']:.2f} dB <= degraded input {degraded_psnr:.2f} dB")
        diag = json.loads((op.out / "sde_diagnostics.json").read_text())
        require(diag["restored_pu_l1"] < diag["forward_residual"],
                "restored_pu_l1 is not below forward_residual")
        err = read_pfm(op.out / "sde_error_map.pfm").data
        require(err.shape[:2] == (size, size), f"error map shape {err.shape}")
        with open(op.out / "sde_trajectories.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        require(len(rows) == self.STEPS + 1, f"{len(rows)} trajectory rows")
        require(all(math.isfinite(float(v)) for r in rows for v in r), "non-finite trajectory")
        self.same_as_first(f"report{size}", report, "sde_report.json")


class BaselineEval(Workload):
    """For each LDR: `expand --format pfm`, then `analyze --losses --ldr`.

    Inputs are one 512² LDR image written as five PNGs, one per filter type
    (None/Sub/Up/Average/Paeth, as adaptive encoders write them), with a
    `.pfm` GT. This is the only path through losses, analysis, operators and
    PNG unfiltering; `.pfm` keeps RGBE out of it, and the `upf_loss` vote
    matrices set `peak_rss_mb`.
    """

    name = "baseline_eval"
    SIZE = 512
    CRF = "gamma:0.4545"  # the curve to_ldr8 encodes with

    def prepare(self):
        gt = smooth_hdr(self.rng, self.SIZE) * self.rng.lognormal(0.0, 0.25, (self.SIZE, self.SIZE, 1))
        gt = (gt / np.quantile(gt, 0.9)).astype(np.float32)  # ~10% of pixels saturate
        ldr = to_ldr8(gt)
        self.gt = self.fx.pfm("gt.pfm", gt)
        self.ldr = {}
        for kind in PNG_FILTERS:
            path = self.fx.png(f"ldr/{kind}.png", ldr, kind)
            require(np.array_equal(read_ldr8(path).data, ldr), f"{path.name} does not decode to its source")
            self.ldr[kind] = path
        self.expanded = naive_expand(Ldr8Image(ldr), Crf.from_spec(self.CRF)).data
        self.pixels = self.SIZE * self.SIZE

    def unit(self, i, out):
        kind = PNG_FILTERS[i % len(PNG_FILTERS)]
        pred = out / "expand" / f"{kind}.pfm"
        expand = ["expand", "--input", str(self.ldr[kind]), "--crf", self.CRF,
                  "--format", "pfm", "--out", str(out / "expand")]
        analyze = ["analyze", "--pred", str(pred), "--gt", str(self.gt), "--ldr", str(self.ldr[kind]),
                   "--losses", "--out", str(out / "analyze")]
        return [Op(expand, self.pixels, pred, self.check_expand),
                Op(analyze, 3 * self.pixels, out / "analyze", self.check_analyze)]

    def check_expand(self, op):
        require(np.array_equal(read_pfm(op.out).data, self.expanded),
                f"{op.out.name} differs from naive_expand of the source LDR")

    def check_analyze(self, op):
        doc = json.loads((op.out / "analysis.json").read_text())
        losses = doc["losses"]
        total = sum(losses["weighted"].values())
        require(math.isclose(total, losses["total"], rel_tol=1e-12, abs_tol=1e-15),
                f"weighted terms sum to {total!r}, total is {losses['total']!r}")
        err = read_pfm(op.out / "error_map.pfm").data
        require(err.shape[:2] == (self.SIZE, self.SIZE), f"error map shape {err.shape}")
        self.same_as_first("analysis", (doc, err.tobytes()), "analysis output")


WORKLOADS = {w.name: w for w in (Score, Synthesize, SdeDemo, BaselineEval)}
