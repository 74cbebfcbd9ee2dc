#!/usr/bin/env python3
"""Digest of a fixed run of every itmbench subcommand, for byte-identity checks.

Writes seeded inputs under OUT, runs a fixed list of command lines in-process
through `itmbench.cli.main` (working directory OUT, relative paths only), and
prints, per command, its exit code and the sha256 of its stdout and stderr,
then the sha256 of every file it wrote. To compare two source trees, run
against each and diff the outputs:

    PYTHONPATH=<tree>/src python tools/cli_digest.py OUT [--size N] > digest.txt

A `# ` header comes first: what the bytes depend on besides the source, the numpy
version, zlib's runtime version, Python's version and the CPU features numpy
dispatched to. The committed goldens `tests/data/cli_digest_16.txt` and
`cli_digest_64.txt` are its output at those sizes.

Uses numpy and the standard library only.
"""

import argparse
import contextlib
import hashlib
import io
import os
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from itmbench.cli import main as cli_main
from itmbench.image_io import LinearImage, Ldr8Image, write_hdr, write_ldr8, write_pfm

# (label, argv without --out); each command writes to OUT/<label>
COMMANDS = [
    ("synthesize_j1", ["synthesize", "--hdr-dir", "in/gt", "--count", "2", "--seed", "3"]),
    ("synthesize_j3", ["synthesize", "--hdr-dir", "in/gt", "--count", "2", "--seed", "3",
                       "--jobs", "3"]),
    ("synthesize_count0", ["synthesize", "--hdr-dir", "in/gt", "--count", "0"]),
    ("synthesize_jobs0", ["synthesize", "--hdr-dir", "in/gt", "--jobs", "0"]),
    ("synthesize_ppm", ["synthesize", "--hdr-dir", "in/gt", "--seed", "4",
                        "--config", "in/ppm.ini"]),
    ("synthesize_jpg", ["synthesize", "--hdr-dir", "in/gt", "--config", "in/jpg.ini"]),
    ("synthesize_gamma", ["synthesize", "--hdr-dir", "in/gt", "--seed", "6",
                          "--config", "in/gamma.ini"]),
    ("synthesize_identity", ["synthesize", "--hdr-dir", "in/gt", "--config", "in/identity.ini"]),
    ("score_j2", ["score", "--pred", "in/pred", "--gt", "in/gt", "--jobs", "2"]),
    ("score_jobs0", ["score", "--pred", "in/pred", "--gt", "in/gt", "--jobs", "0"]),
    ("score_bad_config", ["score", "--pred", "in/pred", "--gt", "in/gt",
                          "--config", "in/bad.ini"]),
    # a prediction for every ground truth: report.json's aggregate, and its stdout line
    ("score_complete", ["score", "--pred", "in/pred", "--gt", "in/complete"]),
    ("analyze", ["analyze", "--pred", "in/pred/a.hdr", "--gt", "in/gt/a.pfm", "--ldr", "in/ldr.png",
                 "--losses"]),
    ("analyze_missing", ["analyze", "--pred", "in/pred/missing.hdr", "--gt", "in/gt/a.pfm"]),
    ("expand_hdr", ["expand", "--input", "in/ldr.png", "--crf", "sigmoid:0.9,0.6"]),
    ("expand_pfm", ["expand", "--input", "in/ldr.png", "--crf", "gamma:0.45", "--format", "pfm"]),
    ("expand_identity", ["expand", "--input", "in/ldr.png", "--crf", "identity"]),
    ("expand_table", ["expand", "--input", "in/ldr.png", "--crf", "table:in/crf.txt"]),
    # the PNG reader's diagonal sweep: rows filtered with Average and Paeth as well
    ("expand_mixed", ["expand", "--input", "in/mixed.png", "--crf", "gamma:0.45"]),
    ("sde_builtin", ["sde-demo", "--steps", "20", "--seed", "5"]),
    ("sde_files", ["sde-demo", "--hdr", "in/gt/b.hdr", "--ldr", "in/pred/b.pfm", "--steps", "12"]),
    ("sde_steps0", ["sde-demo", "--steps", "0"]),
    ("sde_hdr_only", ["sde-demo", "--hdr", "in/gt/b.hdr", "--steps", "4"]),
    # 37 x 23 x 3 = 2,553 elements end in a partial tile, 9 steps in a partial 4-step noise block
    ("sde_odd", ["sde-demo", "--hdr", "in/sde/gt.pfm", "--ldr", "in/sde/degraded.pfm",
                 "--steps", "9", "--seed", "3"]),
    # options no handler reads: each is a usage error (exit 2) that writes nothing
    ("score_seed", ["score", "--pred", "in/pred", "--gt", "in/gt", "--seed", "1"]),
    ("analyze_seed", ["analyze", "--pred", "in/pred/a.hdr", "--gt", "in/gt/a.pfm", "--seed", "1"]),
    ("analyze_jobs", ["analyze", "--pred", "in/pred/a.hdr", "--gt", "in/gt/a.pfm", "--jobs", "2"]),
    ("expand_seed", ["expand", "--input", "in/ldr.png", "--seed", "1"]),
    ("expand_jobs", ["expand", "--input", "in/ldr.png", "--jobs", "2"]),
    ("expand_config", ["expand", "--input", "in/ldr.png", "--config", "in/ppm.ini"]),
    ("sde_jobs", ["sde-demo", "--steps", "4", "--jobs", "2"]),
    # readers no command above reaches: a .ppm capture, flat RGBE scanlines, a truncated file
    ("expand_ppm", ["expand", "--input", "synthesize_ppm/a_0000.ppm"]),
    ("synthesize_narrow", ["synthesize", "--hdr-dir", "in/narrow"]),
    ("synthesize_cut", ["synthesize", "--hdr-dir", "in/cut"]),
    # a NaN setting from the command line and from a config file: each owner's range message
    ("expand_crf_nan", ["expand", "--input", "in/ldr.png", "--crf", "gamma:nan"]),
    ("synthesize_nan_config", ["synthesize", "--hdr-dir", "in/gt", "--config", "in/nan.ini"]),
]


def write_inputs(root: Path, size: int):
    """Seeded ground truths a, b, c; predictions for a and b only (c is a missing prediction);
    `complete/`, ground truths a and b alone, so every one has a prediction;
    a 256-value ascending CRF table `crf.txt`; `mixed.png`, the bytes of `ldr.png`'s pixels
    stored as scanlines whose filter types cycle through None, Sub, Up, Average and Paeth;
    a 37 x 23 `sde/` pair of a ground truth and its clipped capture, whatever `size` is;
    a 5 x 6 `narrow/` ground truth, which the writer stores in flat scanlines (width
    below 8); and `cut/`, ground truth c cut to the first half of its bytes."""
    rng = np.random.default_rng(2025)
    for sub in ("gt", "pred"):
        (root / sub).mkdir(parents=True)
    y, x = np.mgrid[0:size, 0:size] / max(size - 1, 1)
    ramp = np.stack([0.02 + 3.0 * x * y, 0.02 + 1.2 * x, 0.02 + 0.8 * y], axis=-1)
    gts = {"a": ramp, "b": rng.lognormal(-1.5, 1.2, (size, size, 3)),
           "c": rng.uniform(0.0, 2.0, (size, size, 3))}
    write_pfm(LinearImage(gts["a"].astype(np.float32)), root / "gt" / "a.pfm")
    write_hdr(LinearImage(gts["b"].astype(np.float32)), root / "gt" / "b.hdr")
    write_hdr(LinearImage(gts["c"].astype(np.float32)), root / "gt" / "c.hdr")
    noisy = np.clip(gts["a"] * rng.uniform(0.8, 1.2, gts["a"].shape), 0.0, None)
    write_hdr(LinearImage(noisy.astype(np.float32)), root / "pred" / "a.hdr")
    write_pfm(LinearImage(np.minimum(gts["b"], 1.0).astype(np.float32)), root / "pred" / "b.pfm")
    ldr = np.round(255.0 * np.clip(gts["a"], 0.0, 1.0) ** (1 / 2.2)).astype(np.uint8)
    write_ldr8(Ldr8Image(ldr), root / "ldr.png")
    scan = np.empty((size, 1 + 3 * size), dtype=np.uint8)
    scan[:, 0] = np.arange(size) % 5
    scan[:, 1:] = ldr.reshape(size, -1)
    (root / "mixed.png").write_bytes(b"\x89PNG\r\n\x1a\n" + b"".join(
        struct.pack(">I", len(body)) + kind + body
        + struct.pack(">I", zlib.crc32(kind + body) & 0xFFFFFFFF)
        for kind, body in [(b"IHDR", struct.pack(">IIBBBBB", size, size, 8, 2, 0, 0, 0)),
                           (b"IDAT", zlib.compress(scan.tobytes())), (b"IEND", b"")]))
    (root / "bad.ini").write_text("[display]\nblack_floor = -1\n")
    (root / "ppm.ini").write_text("[synth]\nldr_format = ppm\n")
    (root / "jpg.ini").write_text("[synth]\nldr_format = jpg\n")
    (root / "gamma.ini").write_text("[synth]\ncrf_family = gamma\n")
    (root / "identity.ini").write_text("[synth]\ncrf_family = identity\n")
    (root / "nan.ini").write_text("[synth]\nsat_frac = nan\n")
    table = np.cumsum(np.random.default_rng(256).uniform(0.2, 1.0, 256))
    (root / "crf.txt").write_text("".join(f"{v!r}\n" for v in table.tolist()))
    (root / "sde").mkdir()
    gt = np.random.default_rng(37).lognormal(-1.5, 1.0, (23, 37, 3))
    write_pfm(LinearImage(gt.astype(np.float32)), root / "sde" / "gt.pfm")
    write_pfm(LinearImage(np.minimum(gt, 0.5).astype(np.float32)), root / "sde" / "degraded.pfm")
    for sub in ("narrow", "cut", "complete"):
        (root / sub).mkdir()
    for name in ("a.pfm", "b.hdr"):
        (root / "complete" / name).write_bytes((root / "gt" / name).read_bytes())
    narrow = np.random.default_rng(5).lognormal(-1.0, 1.0, (6, 5, 3))
    write_hdr(LinearImage(narrow.astype(np.float32)), root / "narrow" / "n.hdr")
    whole = (root / "gt" / "c.hdr").read_bytes()
    (root / "cut" / "c.hdr").write_bytes(whole[:len(whole) // 2])


def environment() -> list:
    """The header lines: numpy's version, zlib's runtime version, Python's version (its
    argparse words the usage errors) and the CPU features numpy dispatched to beyond its
    baseline, in numpy's order."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    dispatched = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    return [f"# numpy {np.__version__}", f"# zlib {zlib.ZLIB_RUNTIME_VERSION}",
            f"# python {sys.version_info.major}.{sys.version_info.minor}", f"# cpu {dispatched}"]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(label: str, argv: list) -> list:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli_main(argv + ["--out", label])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    lines = [f"{label} exit={code} "
             f"stdout={hashlib.sha256(stdout.getvalue().encode()).hexdigest()} "
             f"stderr={hashlib.sha256(stderr.getvalue().encode()).hexdigest()}"]
    out = Path(label)
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    lines += [f"  {p.as_posix()} {file_digest(p)}" for p in files]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="empty or new working directory")
    parser.add_argument("--size", type=int, default=64, help="input side in pixels (>= 16)")
    args = parser.parse_args(argv)
    if args.size < 16:
        parser.error("--size must be >= 16 (the upf_loss patch)")
    args.out.mkdir(parents=True, exist_ok=True)
    if any(args.out.iterdir()):
        parser.error(f"{args.out} is not empty")
    os.chdir(args.out)
    write_inputs(Path("in"), args.size)
    lines = [f"  {p.as_posix()} {file_digest(p)}" for p in sorted(Path("in").rglob("*"))
             if p.is_file()]
    for label, command in COMMANDS:
        lines += run(label, command)
    sys.stdout.write("\n".join([*environment(), "inputs", *lines]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
