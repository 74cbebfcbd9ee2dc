"""Acceptance gate: one test per release criterion, each printing a
pass/fail line. Tolerances are fixed here, not calibrated elsewhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from itmbench.camera import Crf, NoiseParams, simulate_ldr
from itmbench.cli import main
from itmbench.errors import ItmError
from itmbench.image_io import (LinearImage, read_hdr, read_pfm, write_hdr,
                               write_pfm)
from itmbench.losses import (color_loss, denoise_loss, linear_l1, recon_loss,
                             score_matching_loss, ssim_pu_loss, total_loss,
                             tv_loss, upf_loss)
from itmbench.operators import MaskParams, exposure_masks, naive_expand
from itmbench.pu21 import pu_encode, pu_psnr, pu_ssim, rank_teams, rmse_linear
from itmbench.sde import SdeSchedule, backward_simulate, forward_simulate

import oracles
from oracles import make_ou_score, ou_moments

GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "pu_goldens.json").read_text())


def report(index, name):
    print(f"[PASS] criterion {index}: {name}")


def test_criterion_1_metric_oracle_equivalence():
    """pu_psnr / pu_ssim / rmse_linear match naive references on 25 random pairs."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(25):
        a = rng.uniform(0.005, 1.0, (32, 32, 3))
        b = rng.uniform(0.005, 1.0, (32, 32, 3))
        pa, pb = LinearImage(a.astype(np.float32)), LinearImage(b.astype(np.float32))
        av, bv = pa.data.astype(np.float64), pb.data.astype(np.float64)
        assert pu_psnr(pa, pb) == pytest.approx(oracles.naive_pu_psnr(av, bv), abs=1e-9)
        assert pu_ssim(pa, pb) == pytest.approx(oracles.naive_pu_ssim(av, bv), abs=1e-7)
        assert rmse_linear(pa, pb) == pytest.approx(oracles.naive_rmse(av, bv), abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"metric oracle sweep took {elapsed:.2f}s (budget 5s)"
    report(1, f"metric-oracle equivalence on 25 pairs ({elapsed:.2f}s)")


def test_criterion_2_pu_golden_values():
    """Encoder matches committed high-precision golden values at 20 luminances."""
    points = GOLDENS["points"]
    assert len(points) == 20
    for row in points:
        got = pu_encode(row["y"])
        # relative 1e-4; absolute floor only for the anchored zero at y_min
        assert got == pytest.approx(row["v"], rel=1e-4, abs=1e-9)
    report(2, "PU encoder matches 20 committed golden values at 1e-4 relative")


def test_criterion_3_round_trip_pipeline_identity():
    """naive_expand(simulate_ldr(hdr)) stays inside the propagated quantization bound."""
    rng = np.random.default_rng(313)
    crfs = [Crf("gamma", gamma=rng.uniform(0.3, 0.9)) for _ in range(4)]
    crfs += [Crf("sigmoid", n=rng.uniform(0.7, 1.1), sigma_c=rng.uniform(0.3, 0.9))
             for _ in range(3)]
    for _ in range(3):
        table = np.cumsum(rng.uniform(0.05, 1.0, size=256))
        crfs.append(Crf("table", table=table))
    assert len(crfs) == 10
    for crf in crfs:
        data = rng.uniform(0.02, 0.98, (16, 16, 3))
        hdr = LinearImage(data.astype(np.float32))
        ldr = simulate_ldr(hdr, ev=0.0, crf=crf, noise=NoiseParams(0.0), seed=0)
        recovered = naive_expand(ldr, crf).data.astype(np.float64)
        truth = hdr.data.astype(np.float64)
        encoded = crf.apply(truth)
        lo = crf.inverse(np.clip(encoded - 1.0 / 510.0, 0.0, 1.0)) - 1e-9
        hi = crf.inverse(np.clip(encoded + 1.0 / 510.0, 0.0, 1.0)) + 1e-9
        assert (recovered >= lo).all() and (recovered <= hi).all(), crf.family
    report(3, "round-trip identity holds under the propagated 1/(2*255) bound, 10 CRFs")


def _mutate(blob: bytes, rng) -> bytes:
    data = bytearray(blob)
    for _ in range(int(rng.integers(1, 8))):
        action = rng.integers(0, 4)
        if action == 0 and data:  # flip a byte
            data[int(rng.integers(0, len(data)))] = int(rng.integers(0, 256))
        elif action == 1 and len(data) > 1:  # truncate
            data = data[: int(rng.integers(1, len(data)))]
        elif action == 2:  # insert junk
            at = int(rng.integers(0, len(data) + 1))
            data[at:at] = bytes(rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8))
        elif data:  # delete a span
            at = int(rng.integers(0, len(data)))
            del data[at: at + int(rng.integers(1, 5))]
    return bytes(data)


def test_criterion_4_format_fuzzing(tmp_path):
    """10^4 mutated RGBE/PFM streams parse or fail structurally, never crash."""
    rng = np.random.default_rng(404)
    img = LinearImage(rng.uniform(0.0, 4.0, (8, 8, 3)).astype(np.float32))
    hdr_path, pfm_path = tmp_path / "seed.hdr", tmp_path / "seed.pfm"
    write_hdr(img, hdr_path)
    write_pfm(img, pfm_path)
    seeds = {"hdr": (hdr_path.read_bytes(), read_hdr),
             "pfm": (pfm_path.read_bytes(), read_pfm)}

    # valid files meet the stated quantization bounds
    back = read_hdr(hdr_path).data.astype(np.float64)
    orig = img.data.astype(np.float64)
    assert (np.abs(back.max(axis=2) - orig.max(axis=2)) <= orig.max(axis=2) / 256 + 1e-12).all()
    assert np.array_equal(read_pfm(pfm_path).data, img.data)

    target = tmp_path / "fuzz.bin"
    outcomes = {"ok": 0, "error": 0}
    for i in range(10_000):
        kind = "hdr" if i % 2 == 0 else "pfm"
        blob, reader = seeds[kind]
        target.write_bytes(_mutate(blob, rng))
        try:
            reader(target)
            outcomes["ok"] += 1
        except ItmError:
            outcomes["error"] += 1
        # anything else propagates and fails the test
    assert sum(outcomes.values()) == 10_000
    report(4, f"format fuzzing survived 10000 streams ({outcomes})")


def test_criterion_5_mask_partition_of_unity():
    """Exposure masks sum to one for 1000 random (theta, alpha, level) samples."""
    rng = np.random.default_rng(505)
    for _ in range(1000):
        params = MaskParams(theta=tuple(rng.uniform(-4, 4, 2)),
                            alpha=float(rng.uniform(0.1, 40.0)))
        level = rng.uniform(-2.0, 3.0, (1, 1))
        masks = exposure_masks(level, params)
        total = float((masks.under + masks.mid + masks.over)[0, 0])
        assert abs(total - 1.0) <= 1e-6
    report(5, "mask partition of unity within 1e-6 on 1000 random samples")


def test_criterion_6_loss_suite():
    """Losses vanish on identical inputs; color loss is exposure invariant;
    total breakdown is additive; UPF matches its independent reimplementation."""
    rng = np.random.default_rng(606)

    # reconstruction-style losses vanish on identical non-constant pairs;
    # regularizers (tv, upf smoothness) vanish on constant fields
    varied = LinearImage(rng.uniform(0.05, 1.0, (32, 32, 3)).astype(np.float32))
    flat = LinearImage(np.full((32, 32, 3), 0.5, dtype=np.float32))
    assert recon_loss([varied], varied) == 0.0
    assert linear_l1(varied, varied) == 0.0
    assert denoise_loss(varied, varied) == 0.0
    assert ssim_pu_loss(varied, varied) == pytest.approx(0.0, abs=1e-9)
    assert color_loss(varied, varied) == 0.0
    assert tv_loss(flat) == 0.0
    assert upf_loss(flat, flat) == 0.0
    assert score_matching_loss([(varied.data, varied.data)], [1.0]) == 0.0
    total_zero, _, _ = total_loss([flat], flat, flat, perceptual=0.0)
    assert total_zero == 0.0

    # exposure invariance of the log-chrominance loss
    base = rng.uniform(0.05, 0.9, (16, 16, 3))
    for scale in (0.25, 4.0):
        value = color_loss(LinearImage((scale * base).astype(np.float32)),
                           LinearImage(base.astype(np.float32)))
        assert value <= 1e-6, f"scale {scale}: {value}"

    # additive weighted breakdown
    a = LinearImage(rng.uniform(0.05, 1.0, (32, 32, 3)).astype(np.float32))
    b = LinearImage(rng.uniform(0.05, 1.0, (32, 32, 3)).astype(np.float32))
    total, terms, _ = total_loss([a, a], a, b, perceptual=0.21)
    assert total == pytest.approx(sum(terms.values()), abs=1e-9)

    # UPF against the independent loop-based reimplementation
    for _ in range(3):
        pa = rng.uniform(0.05, 1.0, (32, 32, 3))
        pb = rng.uniform(0.05, 1.0, (32, 32, 3))
        want = oracles.naive_upf(pa, pb)[3]
        got = upf_loss(LinearImage(pa.astype(np.float32)), LinearImage(pb.astype(np.float32)))
        assert got == pytest.approx(want, abs=1e-6)
    report(6, "loss suite: zeros, exposure invariance, additivity, UPF oracle")


def test_criterion_7_sde_moments():
    """Forward ensemble matches OU closed form; backward with the analytic
    Gaussian score recovers the initial mean. n=10^4, theta=1, sigma=0.5,
    dt=0.01, T=500."""
    start = time.perf_counter()
    sched = SdeSchedule((1.0,) * 500, (0.5,) * 500, 0.01)
    x0, mu = 2.0, 0.0
    ensemble = forward_simulate(x0, mu, sched, seed=701, n_traj=10_000)
    final = ensemble[:, -1, 0]
    mean_th, var_th = ou_moments(x0, mu, 1.0, 0.5, 500 * 0.01)
    se = final.std(ddof=1) / np.sqrt(final.size)
    assert abs(final.mean() - mean_th) <= 3 * se
    assert abs(final.var(ddof=1) - var_th) <= 0.10 * var_th

    # backward: start each reverse path from its own forward endpoint
    bx0, bmu = 1.0, 0.8
    fwd = forward_simulate(bx0, bmu, sched, seed=702, n_traj=10_000)
    score = make_ou_score(bx0, bmu, 1.0, 0.5, 0.01)
    back = backward_simulate(fwd[:, -1, :], bmu, sched, score, seed=702)[:, 0]
    se_b = back.std(ddof=1) / np.sqrt(back.size)
    assert abs(back.mean() - bx0) <= 3 * se_b
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"SDE moment checks took {elapsed:.1f}s (budget 30s)"
    report(7, f"SDE forward/backward moments within tolerance ({elapsed:.1f}s)")


def _tree_bytes(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(pathlib.Path(directory).rglob("*")) if p.is_file()}


def test_criterion_8_cli_determinism(tmp_path):
    """synthesize and score are byte-identical across runs and job counts, sde-demo across
    runs."""
    rng = np.random.default_rng(808)
    src = tmp_path / "src"
    src.mkdir()
    for i in range(3):
        data = rng.uniform(0.01, 2.0, (20, 20, 3)).astype(np.float32)
        write_hdr(LinearImage(data), src / f"s{i}.hdr")

    trees = []
    for name, jobs in (("r1", "1"), ("r2", "1"), ("r8", "8")):
        out = tmp_path / f"synth_{name}"
        code = main(["synthesize", "--hdr-dir", str(src), "--count", "2",
                     "--seed", "17", "--jobs", jobs, "--out", str(out)])
        assert code == 0
        trees.append(_tree_bytes(out))
    assert trees[0] == trees[1] == trees[2]

    demos = []  # sde-demo runs single-threaded and takes no --jobs
    for name in ("d1", "d2", "d3"):
        out = tmp_path / f"demo_{name}"
        code = main(["sde-demo", "--steps", "30", "--seed", "17", "--out", str(out)])
        assert code == 0
        demos.append(_tree_bytes(out))
    assert demos[0] == demos[1] == demos[2]

    for sub in ("gt", "pred"):
        (tmp_path / sub).mkdir()
    for i in range(3):
        gt = rng.uniform(0.01, 2.0, (20, 20, 3)).astype(np.float32)
        pred = gt * rng.lognormal(0.0, 0.1, gt.shape).astype(np.float32)
        write_hdr(LinearImage(gt), tmp_path / "gt" / f"p{i}.hdr")
        write_pfm(LinearImage(pred), tmp_path / "pred" / f"p{i}.pfm")
    scores = []
    for name, jobs in (("r1", "1"), ("r2", "1"), ("r2j", "2"), ("r8", "8")):
        out = tmp_path / f"score_{name}"
        code = main(["score", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                     "--jobs", jobs, "--out", str(out)])
        assert code == 0
        scores.append(_tree_bytes(out))
    assert sorted(scores[0]) == ["report.csv", "report.json"]
    assert scores[0] == scores[1] == scores[2] == scores[3]
    report(8, "synthesize byte-identical across runs and --jobs 1 vs 8, score across runs and "
              "--jobs 1, 2 and 8, sde-demo across runs")


def test_criterion_9_leaderboard_order():
    """The six reference rows rank in the expected order."""
    rows = [
        ("HDRer", 34.39, 0.95),
        ("Jowgik (DITM)", 33.64, 0.94),
        ("LiU_CGIP", 34.33, 0.95),
        ("NJ Challenger", 29.22, 0.85),
        ("ToneMapper", 34.49, 0.95),
        ("UESTC-ITM", 34.06, 0.94),
    ]
    ranked = [r[0] for r in rank_teams(rows)]
    assert ranked == ["ToneMapper", "HDRer", "LiU_CGIP", "UESTC-ITM",
                      "Jowgik (DITM)", "NJ Challenger"]
    report(9, "leaderboard reproduces the reference ranking order")
