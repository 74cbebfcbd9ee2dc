import json

import numpy as np
import pytest

from itmbench.cli import main
from itmbench.image_io import (LinearImage, Ldr8Image, read_hdr, read_pfm,
                               write_hdr, write_ldr8, write_pfm)


def snapshot(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.fixture
def hdr_sources(tmp_path, rng):
    src = tmp_path / "sources"
    src.mkdir()
    for i in range(2):
        data = rng.uniform(0.01, 2.0, (20, 20, 3)).astype(np.float32)
        write_hdr(LinearImage(data), src / f"scene{i}.hdr")
    return src


class TestScoreCommand:
    def test_identical_pair_reports_inf_and_exit_zero(self, tmp_path, rng):
        img = LinearImage(rng.uniform(0.1, 1.0, (16, 16, 3)).astype(np.float32))
        for sub in ("pred", "gt"):
            (tmp_path / sub).mkdir()
            write_pfm(img, tmp_path / sub / "one.pfm")
        out = tmp_path / "out"
        code = main(["score", "--pred", str(tmp_path / "pred"),
                     "--gt", str(tmp_path / "gt"), "--out", str(out)])
        assert code == 0
        csv_lines = (out / "report.csv").read_text().splitlines()
        assert csv_lines[1].split(",")[1] == "inf"
        assert csv_lines[1].split(",")[2] == repr(1.0)
        doc = json.loads((out / "report.json").read_text())
        assert doc["schema"] == 1

    def test_missing_prediction_exit_one(self, tmp_path, rng):
        img = LinearImage(rng.uniform(0.1, 1.0, (16, 16, 3)).astype(np.float32))
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        write_pfm(img, tmp_path / "gt" / "one.pfm")
        code = main(["score", "--pred", str(tmp_path / "pred"),
                     "--gt", str(tmp_path / "gt"), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_shared_prediction_stem_is_an_error(self, tmp_path, rng, capsys):
        for sub in ("pred", "gt"):
            (tmp_path / sub).mkdir()
        for stem in ("a", "b"):
            img = LinearImage(rng.uniform(0.1, 1.0, (16, 16, 3)).astype(np.float32))
            write_pfm(img, tmp_path / "gt" / f"{stem}.pfm")
            write_pfm(img, tmp_path / "pred" / f"{stem}.pfm")
        write_hdr(img, tmp_path / "pred" / "a.hdr")
        out = tmp_path / "out"
        code = main(["score", "--pred", str(tmp_path / "pred"),
                     "--gt", str(tmp_path / "gt"), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "pred" / "a.hdr") in err and str(tmp_path / "pred" / "a.pfm") in err
        doc = json.loads((out / "report.json").read_text())
        assert [row["image"] for row in doc["per_image"]] == ["b"]


class TestSynthesizeCommand:
    def test_repeat_runs_byte_identical(self, tmp_path, hdr_sources):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            code = main(["synthesize", "--hdr-dir", str(hdr_sources),
                         "--count", "2", "--seed", "7", "--out", str(out)])
            assert code == 0
        assert snapshot(out1) == snapshot(out2)

    def test_jobs_do_not_change_bytes(self, tmp_path, hdr_sources):
        out1, out2 = tmp_path / "j1", tmp_path / "j8"
        main(["synthesize", "--hdr-dir", str(hdr_sources), "--count", "2",
              "--seed", "3", "--jobs", "1", "--out", str(out1)])
        main(["synthesize", "--hdr-dir", str(hdr_sources), "--count", "2",
              "--seed", "3", "--jobs", "8", "--out", str(out2)])
        assert snapshot(out1) == snapshot(out2)

    def test_shared_source_stem_is_an_error(self, tmp_path, hdr_sources, capsys):
        write_pfm(read_hdr(hdr_sources / "scene0.hdr"), hdr_sources / "scene0.pfm")
        out = tmp_path / "out"
        code = main(["synthesize", "--hdr-dir", str(hdr_sources), "--seed", "1",
                     "--out", str(out)])
        assert code == 1
        assert "share the stem 'scene0'" in capsys.readouterr().err
        rows = [json.loads(l) for l in (out / "manifest.jsonl").read_text().splitlines()]
        assert [row["source"] for row in rows] == ["scene1.hdr"]
        assert not list(out.glob("scene0_*"))

    def test_config_controls_settings(self, tmp_path, hdr_sources):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[synth]\ncrop = 10\nldr_format = ppm\nhdr_format = pfm\n")
        out = tmp_path / "out"
        code = main(["synthesize", "--hdr-dir", str(hdr_sources), "--seed", "1",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = [json.loads(l) for l in (out / "manifest.jsonl").read_text().splitlines()]
        assert rows[0]["ldr_file"].endswith(".ppm")
        img = read_pfm(out / rows[0]["hdr_file"])
        assert (img.height, img.width) == (10, 10)


class TestScoreAtChallengeResolution:
    def test_512px_images_score_and_aggregate(self, tmp_path, rng):
        # benchmark-scale inputs (512x512); two images keep the suite quick
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        for i in range(2):
            gt = LinearImage(rng.uniform(0.005, 1.5, (512, 512, 3)).astype(np.float32))
            pred = LinearImage(np.clip(gt.data * 0.95, 0, None).astype(np.float32))
            write_pfm(gt, tmp_path / "gt" / f"im{i}.pfm")
            write_pfm(pred, tmp_path / "pred" / f"im{i}.pfm")
        out = tmp_path / "out"
        code = main(["score", "--pred", str(tmp_path / "pred"),
                     "--gt", str(tmp_path / "gt"), "--jobs", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["per_image"]) == 2
        assert doc["aggregate"]["pu_psnr"] > 0
        assert doc["runtime_ms_per_image"] > 0


class TestConfigErrors:
    def test_unknown_key_is_exit_two(self, tmp_path, hdr_sources):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[synth]\nsaturation_fraction = 0.05\n")
        code = main(["synthesize", "--hdr-dir", str(hdr_sources),
                     "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_unknown_section_is_exit_two(self, tmp_path, hdr_sources):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[mystery]\nx = 1\n")
        code = main(["synthesize", "--hdr-dir", str(hdr_sources),
                     "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_usage_error_is_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["score"])  # missing required arguments
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", [
        "[display]\nblack_floor = -1\n",
        "[synth]\ncrop_mode = bogus\n",
        "[synth]\ncrf_family = gamma\ngamma_lo = 0.9\ngamma_hi = 0.2\n",
        "[synth]\nsigma_lo = -0.5\n",
        "[synth]\ncrop = -3\n",
        "[synth]\nsat_frac = 2\n",
    ], ids=["black_floor", "crop_mode", "gamma_range", "sigma_lo", "crop", "sat_frac"])
    def test_rejected_value_is_exit_two(self, tmp_path, hdr_sources, capsys, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = main(["synthesize", "--hdr-dir", str(hdr_sources),
                     "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        None,  # missing file
        "not json",
        "[1, 2]",
        '{"p": [1, 2, 3, 4, 5, 6, 7], "y_min": 0.005}',
        '{"p": [1, 2], "y_min": 0.005, "y_max": 10000}',
    ], ids=["missing", "not-json", "not-object", "missing-key", "bad-coefficients"])
    def test_bad_pu_coefficients_is_exit_two(self, tmp_path, rng, capsys, content):
        coeffs = tmp_path / "pu.json"
        if content is not None:
            coeffs.write_text(content)
        cfg = tmp_path / "score.cfg"
        cfg.write_text(f"[score]\npu_coefficients = {coeffs}\n")
        img = LinearImage(rng.uniform(0.1, 1.0, (16, 16, 3)).astype(np.float32))
        for sub in ("pred", "gt"):
            (tmp_path / sub).mkdir()
            write_pfm(img, tmp_path / sub / "a.pfm")
        code = main(["score", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                     "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert str(coeffs) in capsys.readouterr().err


class TestExpandCommand:
    def test_missing_config_is_exit_two(self, tmp_path, capsys):
        write_ldr8(Ldr8Image(np.zeros((4, 4, 3), dtype=np.uint8)), tmp_path / "in.png")
        code = main(["expand", "--input", str(tmp_path / "in.png"),
                     "--config", str(tmp_path / "missing.ini"), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "missing.ini" in capsys.readouterr().err

    def test_expand_writes_linear_image(self, tmp_path, rng):
        data = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        write_ldr8(Ldr8Image(data), tmp_path / "in.png")
        out = tmp_path / "out"
        code = main(["expand", "--input", str(tmp_path / "in.png"),
                     "--crf", "gamma:0.5", "--out", str(out)])
        assert code == 0
        img = read_hdr(out / "in.hdr")
        want = (data.astype(np.float64) / 255.0) ** 2.0  # inverse of gamma 0.5
        assert np.allclose(img.data, want, atol=1 / 255.0)

    def test_pfm_output_format(self, tmp_path, rng):
        data = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        write_ldr8(Ldr8Image(data), tmp_path / "in.png")
        out = tmp_path / "out"
        code = main(["expand", "--input", str(tmp_path / "in.png"),
                     "--format", "pfm", "--out", str(out)])
        assert code == 0
        assert (out / "in.pfm").exists()


class TestAnalyzeCommand:
    def test_emits_stats_and_error_map(self, tmp_path, rng):
        gt = LinearImage(rng.uniform(0.05, 1.0, (20, 20, 3)).astype(np.float32))
        pred = LinearImage(np.clip(gt.data * 0.8, 0, 1).astype(np.float32))
        write_pfm(gt, tmp_path / "gt.pfm")
        write_pfm(pred, tmp_path / "pred.pfm")
        ldr = Ldr8Image(rng.integers(0, 256, (20, 20, 3), dtype=np.uint8))
        write_ldr8(ldr, tmp_path / "in.png")
        out = tmp_path / "out"
        code = main(["analyze", "--pred", str(tmp_path / "pred.pfm"),
                     "--gt", str(tmp_path / "gt.pfm"),
                     "--ldr", str(tmp_path / "in.png"),
                     "--losses", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "analysis.json").read_text())
        assert "saturation" in doc and "losses" in doc
        assert doc["losses"]["total"] >= 0
        assert set(doc["losses"]["raw"]) == {
            "recon", "linear", "denoise", "ssim_pu", "color", "tv", "upf"}
        assert (out / "error_map.pfm").exists()


class TestSdeDemoCommand:
    def test_builtin_fixture_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sde-demo", "--steps", "20", "--seed", "5", "--out", str(out)])
        assert code == 0
        assert (out / "sde_report.json").exists()
        assert (out / "sde_error_map.pfm").exists()
        header = (out / "sde_trajectories.csv").read_text().splitlines()[0]
        assert header.startswith("step,pixel0")

    def test_repeat_runs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["sde-demo", "--steps", "20", "--seed", "5", "--out", str(out)])
        assert snapshot(out1) == snapshot(out2)

    def test_explicit_image_pair(self, tmp_path, rng):
        gt = LinearImage(rng.uniform(0.05, 1.2, (16, 16, 3)).astype(np.float32))
        degraded = LinearImage(np.clip(gt.data, 0, 1).astype(np.float32))
        write_pfm(gt, tmp_path / "gt.pfm")
        write_pfm(degraded, tmp_path / "in.pfm")
        out = tmp_path / "out"
        code = main(["sde-demo", "--hdr", str(tmp_path / "gt.pfm"),
                     "--ldr", str(tmp_path / "in.pfm"),
                     "--steps", "15", "--seed", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "sde_report.json").read_text())
        assert doc["per_image"][0]["image"] == "sde-demo"


class TestHygiene:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "schema 1" in capsys.readouterr().out

    def test_writes_stay_inside_out(self, tmp_path, hdr_sources):
        before = snapshot(hdr_sources)
        out = tmp_path / "only-here"
        main(["synthesize", "--hdr-dir", str(hdr_sources), "--seed", "2",
              "--out", str(out)])
        assert snapshot(hdr_sources) == before
        assert out.exists()
