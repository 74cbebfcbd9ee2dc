#!/usr/bin/env python3
"""Benchmark of the itmbench CLI: one workload per fresh process.

    python3 bench/run.py --workload score --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; `src/` must hold the program. The run writes
seeded fixtures under `.bench_work/`, runs units of ops (see workloads.py)
until their walls add up to `--seconds`, checks every op's outputs, and prints
as its last line one JSON object: `correct`, `attempted` and `failed` (counted
in ops) and `metrics`. With `--trace 0` the metrics are the end-to-end ones,
measured with no spans installed. With
`--trace 1` they are the per-layer ones: each unit runs untraced and then
traced; the traced ones give the layer numbers and the pair gives the tracing
overhead. The full result, with the environment, goes to
`.bench_out/<workload>-seed<seed>-trace<t>.json`, and the spans of a traced
run to a `.spans.jsonl` file next to it. `--workload all` runs every workload
in its own process and prints the end-to-end table. The exit code is 0 only
when every op passed its checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_out"

WORKLOAD_NAMES = ("score", "synthesize", "sde_demo", "baseline_eval")
SETUP_REPEATS = 7
# numpy is imported before the clock starts: it is a dependency, and its
# import time moves with the machine's state (0.09-0.16 s on one 2-CPU host)
# far more than the program's own set-up does.
SETUP_CODE = (
    "import sys, time\n"
    "import numpy\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import itmbench, itmbench.cli\n"
    "itmbench.PuEncoding.default()\n"
    "print(time.perf_counter() - t)\n"
)
# name -> unit. Latencies are of units (op_p50_ms is their median, op_tail_ms
# the tail of stats.tail). failed_frac is printed and saved with them but is
# not listed here: it is 0 on a correct program, and the result line carries
# it as `failed` / `attempted`.
END_TO_END = {
    "throughput_mpix_s": "Mpix/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def environment() -> dict:
    def first_line(path, prefix=""):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line
        except OSError:
            return None
        return None

    import numpy

    cpu = first_line("/proc/cpuinfo", "model name")
    load = first_line("/proc/loadavg")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu.split(":", 1)[1].strip() if cpu else platform.processor(),
        "loadavg_at_start": [float(v) for v in load.split()[:3]] if load else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure_setup() -> list:
    """Seconds to import itmbench and itmbench.cli and load the default PU
    encoding, each time in a fresh interpreter that has imported numpy."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return times


def unit_wall(ops) -> float:
    """Seconds a unit took: the sum of its ops' walls."""
    return sum(wall for _, wall, _ in ops) / 1e9


class Runner:
    def __init__(self, cli, recorder, check_error: type):
        self.cli = cli
        self.check_error = check_error
        self.recorder = recorder
        self.next_op = 0
        self.attempted = 0
        self.failures = []

    def run_unit(self, ops, traced: bool) -> list:
        """Run one unit's ops in order; return (op id, wall ns, op) per op."""
        done = []
        for op in ops:
            self.next_op += 1
            self.attempted += 1
            rc, error = None, None
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter_ns()
                try:
                    if traced:
                        rc = self.recorder.run_op(self.next_op, self.cli.main, op.argv)
                    else:
                        rc = self.cli.main(op.argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception:
                    error = traceback.format_exc(limit=3)
                wall = time.perf_counter_ns() - start
            if error is None and rc != 0:
                error = f"exit code {rc}: {sink.getvalue().strip()[-500:]}"
            if error is None:
                try:
                    op.check(op)
                except self.check_error as exc:
                    error = f"check failed: {exc}"
            if error is not None:
                self.failures.append({"op": self.next_op, "argv": op.argv, "error": error})
            done.append((self.next_op, wall, op))
        return done


def run_workload(args) -> int:
    env = environment()
    setup = measure_setup() if args.trace == 0 else None
    sys.path.insert(0, str(SRC))
    import itmbench
    import itmbench.cli
    if Path(itmbench.__file__).resolve().parent != (SRC / "itmbench").resolve():
        raise RuntimeError(f"imported itmbench from {itmbench.__file__}, not from {SRC}")
    import layers
    from spans import Recorder
    from workloads import WORKLOADS, CheckFailed

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    recorder = Recorder(itmbench.ItmError)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        runner = Runner(itmbench.cli, recorder, CheckFailed)
        try:
            wl.prepare()
        except CheckFailed as exc:
            runner.attempted, runner.failures = 1, [{"op": 0, "error": f"fixture check: {exc}"}]
            return report(args, env, runner, {}, {})

        def unit(make, i, traced):
            out = work / "out" / f"u{i}"
            if traced:
                recorder.install("itmbench", layers.TRACED)
            try:
                return runner.run_unit(make(i, out), traced)
            finally:
                recorder.uninstall()
                shutil.rmtree(out, ignore_errors=True)

        # warm-up: lazy set-up and caches fill before timing; in a traced run
        # it also records the upf_loss allocation peak, which slows it down
        recorder.measure_alloc = bool(args.trace)
        unit(lambda i, out: wl.warmup(out), 0, bool(args.trace))
        recorder.measure_alloc = False
        alloc_spans = list(recorder.spans)
        recorder.spans.clear()

        # a traced run times each unit twice, untraced then traced, so the
        # overhead compares the same ops
        plain, traced_units, i = [], [], 0
        while sum(unit_wall(u) for u in plain + traced_units) < args.seconds:
            plain.append(unit(wl.unit, i, False))
            if args.trace:
                traced_units.append(unit(wl.unit, i, True))
            i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls_s = [unit_wall(u) for u in plain]
    detail = {"units": i, "setup_runs_s": setup,
              "unit_walls_ms": [round(w * 1e3, 3) for w in walls_s]}
    if args.trace:
        metrics = layers.layer_metrics(recorder.spans, traced_units, wl.fx, walls_s, alloc_spans)
        units = {name: unit_ for name, (unit_, _) in layers.METRICS.items()}
        RESULTS.mkdir(exist_ok=True)
        with open(RESULTS / f"{args.workload}-seed{args.seed}-trace1.spans.jsonl", "w") as fh:
            for s in recorder.spans + alloc_spans:
                fh.write(json.dumps(asdict(s)) + "\n")
    else:
        from stats import tail
        tail_s, pct, beyond = tail(walls_s)
        metrics = {
            "throughput_mpix_s": sum(op.pixels for u in plain for _, _, op in u) / 1e6 / sum(walls_s),
            "op_p50_ms": statistics.median(walls_s) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
        detail.update(tail_percentile=pct, tail_units_beyond=beyond)
    return report(args, env, runner, {k: (v, units[k]) for k, v in metrics.items()}, detail)


def report(args, env, runner, metrics, detail) -> int:
    failed = len(runner.failures)
    attempted = max(runner.attempted, 1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, failed_frac=failed / attempted, environment=env,
                detail=detail, failures=runner.failures)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=2) + "\n")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"env {json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<42} {failed / attempted:>14.6g} ratio  ({failed}/{attempted} ops)")
    if detail:
        print(f"  detail {json.dumps(detail)}")
    for f in runner.failures[:5]:
        print(f"  FAILED op {f['op']}: {f['error']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process; print the end-to-end table."""
    rc = 0
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        rc = rc or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if lines:
            rows.append((name, json.loads(lines[-1])))
    for name, res in rows:
        cells = "  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name:<14} failed_frac={res['failed'] / res['attempted']:.6g} ratio  {cells}")
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "itmbench" / "cli.py").is_file():
        print(f"error: no itmbench sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
