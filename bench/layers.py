"""Layers of the program, the spans recorded around them, and their metrics.

Layers are the `itmbench` modules. Each traced function is a public function
of one module; its span's self time is charged to that module. `cli.self_s`
is what an op spends outside every traced function: argument parsing, the
subcommand's own code and its JSON/CSV writing.

In a threaded op the spans of parallel items overlap, and each item's wall
time includes its wait for the interpreter lock, so their self times can sum
to more than the op wall; `pu21.score_dataset.parallel_eff` therefore counts
the items' thread CPU time.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter, defaultdict

import numpy as np

from fixtures import PNG_FILTERS
from spans import Traced, self_times

MODULES = ("image_io", "camera", "pu21", "operators", "losses", "analysis", "sde")
SMALL_LOSS_TERMS = ("recon_loss", "linear_l1", "denoise_loss", "color_loss", "tv_loss")


def _path(args, result):
    return {"path": str(args["path"])}


def _written(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _jobs(args, result):
    return {"jobs": int(args.get("jobs", 1))}


def _forward_draws(args, result):
    # one standard normal per trajectory, step and state element
    dim = max(np.size(args["x0"]), np.size(args["mu"]))
    return {"noise_draws": int(args.get("n_traj", 1)) * args["sched"].steps * dim}


def _backward_draws(args, result):
    xT = np.asarray(args["xT"])
    if xT.ndim == 2:
        n_traj, dim = xT.shape
    else:
        n_traj, dim = int(args.get("n_traj", 1)), max(xT.size, np.size(args["mu"]))
    return {"noise_draws": n_traj * args["sched"].steps * dim}


TRACED = (
    Traced("image_io", "read_hdr", _path),
    Traced("image_io", "write_hdr", _written),
    Traced("image_io", "read_pfm"),
    Traced("image_io", "write_pfm"),
    Traced("image_io", "read_ldr8", _path),
    Traced("image_io", "write_ldr8", _written),
    Traced("camera", "estimate_exposure_range"),
    Traced("camera", "simulate_ldr"),
    Traced("camera", "generate_dataset"),
    Traced("pu21", "pu_psnr"),
    Traced("pu21", "pu_ssim"),
    Traced("pu21", "rmse_linear"),
    Traced("pu21", "score_dataset", _jobs),
    Traced("operators", "naive_expand"),
    Traced("losses", "upf_loss", alloc=True),
    Traced("losses", "total_loss"),
    Traced("losses", "ssim_pu_loss"),
    *(Traced("losses", name) for name in SMALL_LOSS_TERMS),
    Traced("analysis", "error_map"),
    Traced("analysis", "saturation_split"),
    Traced("analysis", "intensity_error_joint"),
    Traced("sde", "forward_simulate", _forward_draws),
    Traced("sde", "backward_simulate", _backward_draws),
    Traced("sde", "itm_sde_demo"),
)

# name -> unit, better. Every traced run reports all of them; a layer a
# workload never calls reads 0.
METRICS = {
    "image_io.read_hdr.calls": ("count", "lower"),
    "image_io.read_hdr.self_s": ("s", "lower"),
    "image_io.read_hdr.mb_s": ("MB/s", "higher"),
    "image_io.read_hdr.rle_scanlines": ("count", "lower"),
    "image_io.read_hdr.flat_scanlines": ("count", "lower"),
    "image_io.write_hdr.calls": ("count", "lower"),
    "image_io.write_hdr.self_s": ("s", "lower"),
    "image_io.write_hdr.mb_s": ("MB/s", "higher"),
    "image_io.write_ldr8.calls": ("count", "lower"),
    "image_io.write_ldr8.self_s": ("s", "lower"),
    "image_io.write_ldr8.mb_s": ("MB/s", "higher"),
    "image_io.read_ldr8.calls": ("count", "lower"),
    "image_io.read_ldr8.self_s": ("s", "lower"),
    **{f"image_io.read_ldr8.{f}_ms": ("ms", "lower") for f in PNG_FILTERS},
    "image_io.read_pfm.self_s": ("s", "lower"),
    "image_io.write_pfm.self_s": ("s", "lower"),
    "camera.estimate_exposure_range.self_s": ("s", "lower"),
    "camera.simulate_ldr.calls": ("count", "lower"),
    "camera.simulate_ldr.self_s": ("s", "lower"),
    "pu21.pu_psnr.self_s": ("s", "lower"),
    "pu21.pu_ssim.self_s": ("s", "lower"),
    "pu21.rmse_linear.self_s": ("s", "lower"),
    "pu21.score_dataset.parallel_eff": ("ratio", "higher"),
    "operators.naive_expand.self_s": ("s", "lower"),
    "losses.upf_loss.calls": ("count", "lower"),
    "losses.upf_loss.self_s": ("s", "lower"),
    "losses.upf_loss.peak_alloc_mb": ("MB", "lower"),
    "losses.total_loss.self_s": ("s", "lower"),
    "losses.ssim_pu_loss.self_s": ("s", "lower"),
    "losses.small_terms.self_s": ("s", "lower"),
    "analysis.error_map.self_s": ("s", "lower"),
    "analysis.saturation_split.self_s": ("s", "lower"),
    "analysis.intensity_error_joint.self_s": ("s", "lower"),
    "sde.forward_simulate.self_s": ("s", "lower"),
    "sde.backward_simulate.self_s": ("s", "lower"),
    "sde.itm_sde_demo.self_s": ("s", "lower"),
    "sde.noise_draws": ("count", "lower"),
    "sde.noise_draws_per_s": ("1/s", "higher"),
    "cli.self_s": ("s", "lower"),
    **{f"{m}.errors": ("count", "lower") for m in MODULES},
    "trace.overhead_frac": ("ratio", "lower"),
}

# Allowed gap between the op wall timed around the root span and the root
# span itself: the cost of one wrapper call.
_WALL_SLACK_NS = 2_000_000


def layer_metrics(spans, units, fixtures, untraced_walls_s, alloc_spans) -> dict:
    """Per-layer metrics from the spans of the traced units.

    `units` holds, per traced unit, (op id, op wall in ns, op) of each op;
    self times and call counts are means per unit. `untraced_walls_s` are the
    walls in seconds of the same units run untraced, for the tracing overhead
    and the parallel efficiency. `alloc_spans` are spans recorded with the
    allocation peak turned on.
    """
    by_op = defaultdict(list)
    for s in spans:
        by_op[s.op].append(s)
    self_s = defaultdict(float)
    calls = Counter()
    nbytes = Counter()
    scanlines = Counter()
    filter_ms = defaultdict(list)
    errors = Counter()
    draws = 0
    cli_self = 0.0
    eff = []
    untraced_wall = statistics.median(untraced_walls_s)
    for op_id, wall_ns, _ in (op for unit in units for op in unit):
        op_spans = by_op[op_id]
        selfs, overlap = self_times(op_spans)
        root = next(s for s in op_spans if s.name == "cli")
        if not 0 <= wall_ns - (sum(selfs.values()) - overlap) <= _WALL_SLACK_NS:
            raise ValueError(f"layer self times of op {op_id} do not add up to its wall")
        children = defaultdict(list)
        for s in op_spans:
            children[s.parent].append(s)
        for s in op_spans:
            sec = selfs[s.sid] / 1e9
            if s is root:
                cli_self += sec
                continue
            calls[s.name] += 1
            self_s[s.name] += sec
            info = fixtures.info(s.attrs.get("path"))
            nbytes[s.name] += s.attrs.get("bytes", info.get("bytes", 0))
            if s.name == "image_io.read_hdr":
                scanlines["rle"] += info.get("rle_scanlines", 0)
                scanlines["flat"] += info.get("flat_scanlines", 0)
            if s.name == "image_io.read_ldr8" and "filter" in info:
                filter_ms[info["filter"]].append(sec * 1e3)
            draws += s.attrs.get("noise_draws", 0)
            if "error" in s.attrs:
                errors[s.name.split(".")[0]] += 1
            if s.name == "pu21.score_dataset":
                # per-item work as thread CPU time: under the interpreter lock
                # a worker's wall time also counts its wait for the lock
                item_ns = sum(c.cpu for c in children[s.sid])
                eff.append(item_ns / 1e9 / (s.attrs["jobs"] * untraced_wall))

    n = len(units)
    out = {}
    for t in TRACED:
        name = f"{t.module}.{t.func}"
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.self_s"] = self_s[name] / n
        out[f"{name}.mb_s"] = nbytes[name] / 1e6 / self_s[name] if self_s[name] else 0.0
    out["image_io.read_hdr.rle_scanlines"] = scanlines["rle"] / n
    out["image_io.read_hdr.flat_scanlines"] = scanlines["flat"] / n
    for f in PNG_FILTERS:
        out[f"image_io.read_ldr8.{f}_ms"] = statistics.median(filter_ms[f]) if filter_ms[f] else 0.0
    out["pu21.score_dataset.parallel_eff"] = statistics.median(eff) if eff else 0.0
    peaks = [s.attrs["peak_alloc_bytes"] for s in alloc_spans if "peak_alloc_bytes" in s.attrs]
    out["losses.upf_loss.peak_alloc_mb"] = max(peaks) / 1e6 if peaks else 0.0
    out["losses.small_terms.self_s"] = sum(self_s[f"losses.{t}"] for t in SMALL_LOSS_TERMS) / n
    out["sde.noise_draws"] = draws / n
    sim_s = self_s["sde.forward_simulate"] + self_s["sde.backward_simulate"]
    out["sde.noise_draws_per_s"] = draws / sim_s if sim_s else 0.0
    out["cli.self_s"] = cli_self / n
    for m in MODULES:
        out[f"{m}.errors"] = errors[m] / n
    traced_wall = statistics.median(sum(w for _, w, _ in unit) / 1e9 for unit in units)
    out["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return {name: out[name] for name in METRICS}
