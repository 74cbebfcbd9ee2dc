"""Single executable binding all modules.

Subcommands: synthesize, score, analyze, expand, sde-demo. Exit codes:
0 success, 1 any per-item failure, 2 usage or configuration error. All
output lands under --out; machine output (CSV/JSON) is byte-identical across
runs and worker counts given identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import error_map, error_stats, intensity_error_joint, saturation_split
from .camera import Crf, NoiseParams, generate_dataset, simulate_ldr
from .config import Config, parse_config
from .errors import ConfigError, ItmError
from .image_io import LINEAR_WRITERS, LinearImage, read_ldr8, read_linear, write_linear, write_pfm
from .image_io import read_hdr  # noqa: F401  still bound: bench/test_perfbench.py reads cli.read_hdr
from .losses import WEIGHTS, total_loss
from .operators import naive_expand
from .pu21 import SCHEMA_VERSION, score_dataset
from .sde import itm_sde_demo


def _demo_fixture() -> tuple:
    """Built-in deterministic 16x16 HDR/LDR pair for self-contained demos."""
    y, x = np.mgrid[0:16, 0:16].astype(np.float64) / 15.0
    hdr = np.stack([0.05 + 1.5 * x * y, 0.05 + 0.8 * x, 0.05 + 0.6 * y], axis=-1)
    gt = LinearImage(hdr.astype(np.float32))
    ldr = simulate_ldr(gt, ev=0.0, crf=Crf("gamma"), noise=NoiseParams(), seed=0)
    degraded = naive_expand(ldr, Crf("gamma"))
    return degraded, gt


def _write_error_map(err: np.ndarray, path: Path):
    """Write a 2-D error map as a PFM whose three channels are equal."""
    write_pfm(LinearImage(np.repeat(err.astype(np.float32)[..., None], 3, axis=-1)), path)


def _cmd_synthesize(args, out: Path) -> int:
    records, errors = generate_dataset(
        args.hdr_dir, out, count_per_image=args.count,
        settings=args.cfg.synth, master_seed=args.seed, jobs=args.jobs,
    )
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    print(f"wrote {len(records)} pairs to {args.out}")
    return 1 if errors else 0


def _cmd_score(args, out: Path) -> int:
    report = score_dataset(args.pred, args.gt, encoding=args.cfg.encoding(),
                           mapping=args.cfg.display, jobs=args.jobs)
    (out / "report.json").write_text(report.to_json())
    (out / "report.csv").write_text(report.to_csv())
    for err in report.errors:
        print(f"error: {err}", file=sys.stderr)
    agg = report.aggregate
    if agg is not None:
        print(f"pu_psnr={agg['pu_psnr']} pu_ssim={agg['pu_ssim']} rmse={agg['rmse_linear']}")
    return 1 if report.errors else 0


def _cmd_analyze(args, out: Path) -> int:
    pred, gt = read_linear(args.pred), read_linear(args.gt)
    err = error_map(pred, gt, encoding=args.cfg.encoding(), mapping=args.cfg.display)
    _write_error_map(err, out / "error_map.pfm")
    doc: dict = {"schema": SCHEMA_VERSION}
    if args.ldr:
        ldr = read_ldr8(Path(args.ldr))
        split = saturation_split(ldr, quantile=args.quantile)
        doc["saturation"] = {
            "threshold": split.threshold,
            "frac": split.frac,
            "stats": error_stats(err, split),
        }
        doc["intensity_error_joint"] = intensity_error_joint(ldr, err)
    if args.losses:
        total, weighted, raw = total_loss([pred], pred, gt)
        doc["losses"] = {"raw": raw, "weighted": weighted, "weights": dict(WEIGHTS), "total": total}
    (out / "analysis.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote analysis to {args.out}")
    return 0


def _cmd_expand(args, out: Path) -> int:
    crf = Crf.from_spec(args.crf)
    ldr = read_ldr8(Path(args.input))
    name = Path(args.input).stem + ("." + args.format)
    write_linear(naive_expand(ldr, crf), out / name)
    print(f"wrote {out / name}")
    return 0


def _cmd_sde_demo(args, out: Path) -> int:
    if args.hdr:
        gt = read_linear(args.hdr)
        degraded = read_linear(args.ldr)
    else:
        degraded, gt = _demo_fixture()
    result = itm_sde_demo(degraded, gt, steps=args.steps, encoding=args.cfg.encoding(),
                          mapping=args.cfg.display, seed=args.seed)
    (out / "sde_report.json").write_text(result.report.to_json())
    _write_error_map(result.error_map, out / "sde_error_map.pfm")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step"] + [f"pixel{i}" for i in range(result.forward_history.shape[1])])
    for step, values in enumerate(result.forward_history):
        writer.writerow([step] + [repr(float(v)) for v in values])
    (out / "sde_trajectories.csv").write_text(buf.getvalue())
    diag = json.dumps(result.diagnostics, indent=2, sort_keys=True)
    (out / "sde_diagnostics.json").write_text(diag + "\n")
    print(f"wrote SDE demo outputs to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="itmbench",
                                     description="Inverse tone mapping benchmark toolkit")
    parser.add_argument("--version", action="version",
                        version=f"itmbench {__version__} (schema {SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--seed": {"type": int, "default": None, "help": "master random seed"},
        "--config": {"type": str, "default": None, "help": "key = value config file"},
        "--jobs": {"type": int, "default": 1, "help": "parallel workers"},
    }

    def finish(p, func, *options):
        """Bind `func`, which reads `--out` and each of the shared `options`."""
        for name in options:
            p.add_argument(name, **shared[name])
        p.add_argument("--out", type=str, required=True, help="output directory")
        p.set_defaults(func=func)

    p = sub.add_parser("synthesize", help="generate LDR/HDR training pairs")
    p.add_argument("--hdr-dir", required=True, help="directory of source HDR images")
    p.add_argument("--count", type=int, default=1, help="pairs per source image")
    finish(p, _cmd_synthesize, "--seed", "--config", "--jobs")

    p = sub.add_parser("score", help="score HDR reconstructions against ground truth")
    p.add_argument("--pred", required=True, help="directory of predictions")
    p.add_argument("--gt", required=True, help="directory of ground truth")
    finish(p, _cmd_score, "--config", "--jobs")

    p = sub.add_parser("analyze", help="error maps, saturation stats, loss breakdown")
    p.add_argument("--pred", required=True, help="prediction image (.hdr/.pfm)")
    p.add_argument("--gt", required=True, help="ground-truth image (.hdr/.pfm)")
    p.add_argument("--ldr", default=None, help="input LDR image for saturation analysis")
    p.add_argument("--quantile", type=float, default=0.85, help="saturation quantile")
    p.add_argument("--losses", action="store_true", help="emit per-term loss breakdown")
    finish(p, _cmd_analyze, "--config")

    p = sub.add_parser("expand", help="naive linearization baseline (8-bit -> linear)")
    p.add_argument("--input", required=True, help="8-bit input image")
    p.add_argument("--crf", default="identity",
                   help="CRF spec: identity | gamma:G | sigmoid:N,C | table:PATH")
    p.add_argument("--format", choices=[suffix[1:] for suffix in LINEAR_WRITERS], default="hdr")
    finish(p, _cmd_expand)

    p = sub.add_parser("sde-demo", help="mean-reverting restoration SDE diagnostic")
    p.add_argument("--hdr", default=None, help="ground-truth image (.hdr/.pfm)")
    p.add_argument("--ldr", default=None, help="degraded linear image (.hdr/.pfm)")
    p.add_argument("--steps", type=int, default=100, help="SDE step count")
    finish(p, _cmd_sde_demo, "--seed", "--config")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "sde-demo" and bool(args.hdr) != bool(args.ldr):
        parser.error("sde-demo takes --hdr and --ldr together, or neither")
    try:
        if "config" in args:  # a handler reads the loaded settings as args.cfg
            args.cfg = parse_config(args.config) if args.config else Config()
        if "seed" in args and args.seed is None:
            args.seed = args.cfg.master_seed
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ItmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():  # console_scripts hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
