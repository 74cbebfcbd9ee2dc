"""Tests of the benchmark itself: fixtures, span arithmetic, the tail rule.

    PYTHONPATH=src python -m pytest -q bench/test_perfbench.py
"""

import json
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fixtures as fx  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, self_times  # noqa: E402
from stats import tail  # noqa: E402

import itmbench  # noqa: E402
import itmbench.cli  # noqa: E402
from itmbench.image_io import read_hdr, read_ldr8  # noqa: E402


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_fixtures_repeat_per_seed(name, tmp_path, monkeypatch):
    cls = workloads.WORKLOADS[name]
    if cls is not workloads.SdeDemo:
        monkeypatch.setattr(cls, "SIZE", 32)
    sets = {}
    for run_name, seed in (("a", 5), ("b", 5), ("c", 6)):
        wl = cls(seed, tmp_path / run_name)
        wl.prepare()
        details = {str(Path(p).relative_to(wl.fx.root)): d for p, d in wl.fx.files.items()}
        sets[run_name] = (_tree(wl.fx.root), details)
    assert sets["a"] == sets["b"]
    assert sets["a"][0].keys() == sets["c"][0].keys()
    assert sets["a"][0] != sets["c"][0]


@pytest.mark.parametrize("kind", fx.PNG_FILTERS)
def test_png_filter_writer_round_trip(kind, tmp_path):
    img = np.random.default_rng(1).integers(0, 256, (9, 13, 3), dtype=np.uint8)
    payload = fx.encode_png(img, kind)
    path = tmp_path / f"{kind}.png"
    path.write_bytes(payload)
    # every scanline carries the requested filter type (IDAT follows IHDR)
    (length,) = struct.unpack(">I", payload[33:37])
    scan = np.frombuffer(zlib.decompress(payload[41:41 + length]), dtype=np.uint8).reshape(9, 40)
    assert set(scan[:, 0]) == {fx.PNG_FILTERS.index(kind)}
    np.testing.assert_array_equal(read_ldr8(path).data, img)


@pytest.mark.parametrize("rle", [True, False])
def test_hdr_writer_round_trip(rle, tmp_path):
    rng = np.random.default_rng(2)
    data = fx.texture_hdr(rng, 24)
    data[3, :] = data[3, 0]  # a run-heavy row
    fs = fx.FixtureSet(tmp_path)
    path = fs.hdr("x.hdr", data, rle=rle)
    px = fx.rgbe_bytes(data).reshape(-1, 4).astype(np.float64)
    expected = px[:, :3] * np.ldexp(1.0, px[:, 3].astype(int) - 136)[:, None]
    np.testing.assert_array_equal(read_hdr(path).data.reshape(-1, 3), expected.astype(np.float32))
    info = fs.info(path)
    assert info["bytes"] == path.stat().st_size
    assert (info["rle_scanlines"], info["flat_scanlines"]) == ((24, 0) if rle else (0, 24))


def _span(sid, start, end, parent, cpu=0):
    return Span(sid, "cli" if parent is None else f"m.f{sid}", start, end, parent, 1, cpu)


def test_self_time_sequential_tree():
    spans = [_span(1, 0, 100, None), _span(2, 10, 50, 1), _span(3, 20, 30, 2),
             _span(4, 25, 28, 3), _span(5, 60, 90, 1)]
    selfs, overlap = self_times(spans)
    assert selfs == {1: 30, 2: 30, 3: 7, 4: 3, 5: 30}
    assert overlap == 0
    assert sum(selfs.values()) == 100


def test_self_time_concurrent_children():
    # two worker-thread children overlap inside their fan-out parent
    spans = [_span(1, 0, 100, None), _span(2, 10, 90, 1), _span(3, 20, 70, 2), _span(4, 30, 80, 2)]
    selfs, overlap = self_times(spans)
    assert selfs == {1: 20, 2: 20, 3: 50, 4: 50}
    assert overlap == 40  # 50 + 50 - union 60
    assert sum(selfs.values()) - overlap == 100


def test_self_time_rejects_child_outside_parent():
    with pytest.raises(ValueError):
        self_times([_span(1, 0, 10, None), _span(2, 5, 11, 1)])


@pytest.mark.parametrize("n, pct, beyond", [
    (5, 50.0, 2), (19, 50.0, 9), (20, 50.0, 10), (39, 50.0, 19),
    (40, 75.0, 10), (100, 90.0, 10), (199, 90.0, 19), (200, 95.0, 10), (1000, 99.0, 10),
])
def test_tail_keeps_ten_beyond(n, pct, beyond):
    values = list(range(n, 0, -1))
    value, got_pct, got_beyond = tail(values)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert value == n - beyond
    assert sum(v > value for v in values) == beyond


def test_recorder_spans_a_threaded_op_and_restores_bindings(tmp_path):
    rng = np.random.default_rng(3)
    fs = fx.FixtureSet(tmp_path)
    for stem in ("a", "b", "c"):
        gt = fx.smooth_hdr(rng, 16)
        fs.hdr(f"gt/{stem}.hdr", gt, rle=True)
        fs.hdr(f"pred/{stem}.hdr", gt * 1.1, rle=False)
    originals = (itmbench.cli.read_hdr, dict(itmbench.pu21._HDR_READERS), itmbench.cli.score_dataset)
    rec = Recorder(itmbench.ItmError)
    rec.install("itmbench", layers.TRACED)
    try:
        assert itmbench.pu21._HDR_READERS[".hdr"].__wrapped__ is originals[1][".hdr"]
        argv = ["score", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                "--jobs", "2", "--out", str(tmp_path / "out")]
        assert rec.run_op(1, itmbench.cli.main, argv) == 0
    finally:
        rec.uninstall()
    assert (itmbench.cli.read_hdr, itmbench.pu21._HDR_READERS, itmbench.cli.score_dataset) == (
        originals[0], originals[1], originals[2])
    names = sorted(s.name for s in rec.spans)
    assert names.count("image_io.read_hdr") == 6 and names.count("pu21.pu_ssim") == 3
    by_name = {s.name: s for s in rec.spans}
    fan_out = by_name["pu21.score_dataset"]
    assert all(s.parent == fan_out.sid for s in rec.spans if s.name.startswith(("image_io", "pu21.pu")))
    selfs, overlap = self_times(rec.spans)
    assert sum(selfs.values()) - overlap == by_name["cli"].dur
    metrics = layers.layer_metrics(rec.spans, [[(1, by_name["cli"].dur, None)]], fs,
                                   [by_name["cli"].dur / 1e9], [])
    # calls outside an op, such as output checks, are not recorded
    rec.install("itmbench", layers.TRACED)
    try:
        itmbench.cli.read_hdr(tmp_path / "gt" / "a.hdr")
    finally:
        rec.uninstall()
    assert len(rec.spans) == len(names)
    assert metrics["image_io.read_hdr.calls"] == 6
    assert metrics["image_io.read_hdr.rle_scanlines"] == 48
    assert metrics["image_io.read_hdr.flat_scanlines"] == 48
    assert 0 < metrics["pu21.score_dataset.parallel_eff"] <= 1.05


def test_recorder_counts_errors_once_per_module(tmp_path):
    bad = tmp_path / "bad.hdr"
    bad.write_bytes(b"not an image")
    rec = Recorder(itmbench.ItmError)
    rec.install("itmbench", layers.TRACED)
    try:
        with pytest.raises(itmbench.ItmError):
            rec.run_op(1, itmbench.pu21._load_any, bad)
    finally:
        rec.uninstall()
    assert [s.attrs.get("error") for s in rec.spans if s.name != "cli"] == ["ParseError"]
    assert "error" not in next(s for s in rec.spans if s.name == "cli").attrs


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == layers.METRICS


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "score", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
