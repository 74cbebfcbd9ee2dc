import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from itmbench import losses
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
        assert doc["schema"] == 2

    def test_csv_cells_parse_as_floats(self, tmp_path, rng):
        for sub in ("pred", "gt"):
            (tmp_path / sub).mkdir()
        for stem in ("a", "b"):
            gt = rng.uniform(0.1, 1.0, (16, 16, 3)).astype(np.float32)
            write_pfm(LinearImage(gt), tmp_path / "gt" / f"{stem}.pfm")
            write_pfm(LinearImage(gt * 0.9), tmp_path / "pred" / f"{stem}.pfm")
        out = tmp_path / "out"
        assert main(["score", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                     "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            cells = row.split(",")[1:]
            assert len(cells) == 3
            assert all(np.isfinite(float(c)) for c in cells), row

    def test_missing_prediction_exit_one(self, tmp_path, rng):
        img = LinearImage(rng.uniform(0.1, 1.0, (16, 16, 3)).astype(np.float32))
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        write_pfm(img, tmp_path / "gt" / "one.pfm")
        code = main(["score", "--pred", str(tmp_path / "pred"),
                     "--gt", str(tmp_path / "gt"), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_incomplete_set_prints_and_writes_no_aggregate(self, tmp_path, rng, capsys):
        for sub in ("pred", "gt"):
            (tmp_path / sub).mkdir()
        for stem in ("a", "b"):
            gt = rng.uniform(0.1, 1.0, (16, 16, 3)).astype(np.float32)
            write_pfm(LinearImage(gt), tmp_path / "gt" / f"{stem}.pfm")
        write_pfm(LinearImage(gt * 0.9), tmp_path / "pred" / "b.pfm")
        out = tmp_path / "out"
        code = main(["score", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                     "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: missing prediction: a\n")
        doc = json.loads((out / "report.json").read_text())
        assert (doc["aggregate"], doc["scored"], doc["expected"]) == (None, 1, 2)

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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_output_order_where_file_name_and_stem_order_differ(tmp_path, rng, jobs):
    # file-name order is a-b.hdr, a.pfm, ab.hdr ('-' < '.' < 'b'); stem order is a, a-b, ab
    src = tmp_path / "src"
    src.mkdir()
    for name, write in (("ab.hdr", write_hdr), ("a.pfm", write_pfm), ("a-b.hdr", write_hdr)):
        write(LinearImage(rng.uniform(0.01, 2.0, (12, 12, 3)).astype(np.float32)), src / name)
    synth = tmp_path / "synth"
    assert main(["synthesize", "--hdr-dir", str(src), "--count", "2", "--jobs", jobs,
                 "--out", str(synth)]) == 0
    rows = [json.loads(line) for line in (synth / "manifest.jsonl").read_text().splitlines()]
    assert [(r["source"], r["index"]) for r in rows] == [
        ("a-b.hdr", 0), ("a-b.hdr", 1), ("a.pfm", 0), ("a.pfm", 1), ("ab.hdr", 0), ("ab.hdr", 1)]
    score = tmp_path / "score"
    assert main(["score", "--pred", str(src), "--gt", str(src), "--jobs", jobs,
                 "--out", str(score)]) == 0
    doc = json.loads((score / "report.json").read_text())
    assert [r["image"] for r in doc["per_image"]] == ["a", "a-b", "ab"]
    csv_stems = [line.split(",")[0] for line in (score / "report.csv").read_text().splitlines()]
    assert csv_stems == ["image", "a", "a-b", "ab"]


def test_hdr_header_lines_change_no_output(tmp_path, rng):
    # read_hdr skips every header line but FORMAT, so EXPOSURE and comments reach no output
    images = {side: rng.uniform(0.01, 2.0, (20, 20, 3)) for side in ("pred", "gt")}
    magic = b"#?RADIANCE\n"
    outputs = []
    for run, extra in (("plain", b""), ("header", b"EXPOSURE=2.0\n# a comment\n")):
        for side, data in images.items():
            path = tmp_path / run / side / "scene.hdr"
            path.parent.mkdir(parents=True)
            write_hdr(LinearImage(data.astype(np.float32)), path)
            path.write_bytes(magic + extra + path.read_bytes()[len(magic):])
        out = tmp_path / run / "out"
        assert main(["synthesize", "--hdr-dir", str(tmp_path / run / "gt"), "--count", "2",
                     "--seed", "5", "--out", str(out / "synth")]) == 0
        assert main(["score", "--pred", str(tmp_path / run / "pred"),
                     "--gt", str(tmp_path / run / "gt"), "--out", str(out / "score")]) == 0
        outputs.append(snapshot(out))
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) >= 5


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
        assert "runtime_ms_per_image" not in doc


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
        "[synth]\nldr_format = jpg\n",
        "[synth]\njpeg_quality = -5\n",
        "[synth]\ncrf_family = gamma\ngamma_hi = inf\n",
        "[synth]\nsigma_hi = inf\n",
        "[synth]\nsigmoid_c_hi = inf\n",
        "[display]\npeak_luminance = inf\n",
        "[display]\nreference_white = inf\n",
    ], ids=["black_floor", "crop_mode", "gamma_range", "sigma_lo", "crop", "sat_frac",
            "ldr_format_jpg", "jpeg_quality", "gamma_hi_inf", "sigma_hi_inf",
            "sigmoid_c_hi_inf", "peak_luminance_inf", "reference_white_inf"])
    def test_rejected_value_is_exit_two(self, tmp_path, hdr_sources, capsys, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = main(["synthesize", "--hdr-dir", str(hdr_sources),
                     "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")

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

    @pytest.mark.parametrize("command", [
        ["synthesize", "--hdr-dir", "sources"],
        ["score", "--pred", "sources", "--gt", "sources"],
        ["analyze", "--pred", "sources/scene0.hdr", "--gt", "sources/scene1.hdr"],
        ["sde-demo", "--steps", "4"],
    ], ids=["synthesize", "score", "analyze", "sde-demo"])
    def test_unreadable_pu_coefficients_write_nothing(self, tmp_path, hdr_sources, capsys,
                                                      monkeypatch, command):
        # the encoding is loaded as the settings are built, before --out is created
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "score.cfg"
        cfg.write_text("[score]\npu_coefficients = no/such.json\n")
        code = main(command + ["--config", str(cfg), "--out", "out"])
        assert code == 2
        assert "config error: cannot load PU coefficients no/such.json" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestExpandCommand:
    def test_missing_config_is_exit_two(self, tmp_path, capsys):
        # expand reads no settings, so any --config is a usage error
        write_ldr8(Ldr8Image(np.zeros((4, 4, 3), dtype=np.uint8)), tmp_path / "in.png")
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--input", str(tmp_path / "in.png"),
                  "--config", str(tmp_path / "missing.ini"), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("spec", ["gamma:inf", "sigmoid:0.9,inf"])
    def test_non_finite_crf_is_exit_one(self, tmp_path, capsys, spec):
        write_ldr8(Ldr8Image(np.full((4, 4, 3), 128, dtype=np.uint8)), tmp_path / "in.png")
        out = tmp_path / "out"
        code = main(["expand", "--input", str(tmp_path / "in.png"), "--crf", spec,
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: bad CRF spec '{spec}'")
        assert not (out / "in.hdr").exists()

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

    @pytest.mark.parametrize("flag", ["--hdr", "--ldr"])
    def test_lone_image_flag_is_a_usage_error(self, tmp_path, capsys, flag):
        write_pfm(LinearImage(np.full((16, 16, 3), 0.5, dtype=np.float32)), tmp_path / "x.pfm")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["sde-demo", flag, str(tmp_path / "x.pfm"), "--steps", "4", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--hdr" in err and "--ldr" in err
        assert not out.exists()


class TestHygiene:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "schema 2" in capsys.readouterr().out

    def test_writes_stay_inside_out(self, tmp_path, hdr_sources):
        before = snapshot(hdr_sources)
        out = tmp_path / "only-here"
        main(["synthesize", "--hdr-dir", str(hdr_sources), "--seed", "2",
              "--out", str(out)])
        assert snapshot(hdr_sources) == before
        assert out.exists()


class TestMissingInputDirectory:
    @pytest.mark.parametrize("side", ["--pred", "--gt"])
    def test_score_exits_one_naming_the_directory(self, tmp_path, rng, capsys, side):
        present = tmp_path / "present"
        present.mkdir()
        write_pfm(LinearImage(rng.uniform(0.1, 1.0, (16, 16, 3)).astype(np.float32)),
                  present / "one.pfm")
        missing = tmp_path / "no" / "such"
        dirs = {"--pred": present, "--gt": present, side: missing}
        code = main(["score", "--pred", str(dirs["--pred"]), "--gt", str(dirs["--gt"]),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    def test_synthesize_exits_one_naming_the_directory(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such"
        code = main(["synthesize", "--hdr-dir", str(missing), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


class TestUnreadableInputFile:
    @pytest.fixture
    def pair(self, tmp_path, rng):
        img = LinearImage(rng.uniform(0.05, 1.0, (16, 16, 3)).astype(np.float32))
        write_pfm(img, tmp_path / "gt.pfm")
        return tmp_path / "gt.pfm"

    def test_analyze_missing_prediction(self, tmp_path, pair, capsys):
        missing = tmp_path / "missing.pfm"
        code = main(["analyze", "--pred", str(missing), "--gt", str(pair),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert _one_error_line(capsys) == (f"error: cannot read file {missing}: "
                                           "No such file or directory")

    def test_expand_missing_input(self, tmp_path, capsys):
        missing = tmp_path / "missing.png"
        code = main(["expand", "--input", str(missing), "--out", str(tmp_path / "out")])
        assert code == 1
        assert str(missing) in _one_error_line(capsys)

    def test_sde_demo_missing_ground_truth(self, tmp_path, pair, capsys):
        missing = tmp_path / "missing.hdr"
        code = main(["sde-demo", "--hdr", str(missing), "--ldr", str(pair), "--steps", "4",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert str(missing) in _one_error_line(capsys)

    def test_score_directory_named_like_an_image(self, tmp_path, rng, capsys):
        for sub in ("pred", "gt"):
            (tmp_path / sub).mkdir()
        for stem in ("a", "b"):
            img = LinearImage(rng.uniform(0.1, 1.0, (16, 16, 3)).astype(np.float32))
            write_pfm(img, tmp_path / "gt" / f"{stem}.pfm")
        write_pfm(img, tmp_path / "pred" / "b.pfm")
        (tmp_path / "pred" / "a.hdr").mkdir()
        out = tmp_path / "out"
        code = main(["score", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
                     "--out", str(out)])
        assert code == 1
        assert "error: a: cannot read file" in _one_error_line(capsys)
        doc = json.loads((out / "report.json").read_text())
        assert [row["image"] for row in doc["per_image"]] == ["b"]
        assert doc["per_image"][0]["pu_psnr"] == "inf"


class TestNegativeSeed:
    def test_sde_demo_seed_flag(self, tmp_path, capsys):
        code = main(["sde-demo", "--steps", "4", "--seed", "-1", "--out", str(tmp_path / "out")])
        assert code == 1
        assert _one_error_line(capsys) == "error: seed must be >= 0; got -1"

    def test_sde_demo_master_seed(self, tmp_path, capsys):
        cfg = tmp_path / "neg.ini"
        cfg.write_text("[seeds]\nmaster = -1\n")
        code = main(["sde-demo", "--steps", "4", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert _one_error_line(capsys) == "error: seed must be >= 0; got -1"


class TestNonPositiveCounts:
    """Counts below one are rejected by the function that owns them; the CLI
    reports that as one error line and exit 1."""

    @pytest.fixture
    def dirs(self, tmp_path, rng):
        img = LinearImage(rng.uniform(0.1, 1.0, (16, 16, 3)).astype(np.float32))
        for sub in ("pred", "gt"):
            (tmp_path / sub).mkdir()
            write_pfm(img, tmp_path / sub / "a.pfm")
        return tmp_path

    @pytest.mark.parametrize("argv, error", [
        (["synthesize", "--hdr-dir", "gt", "--count", "-1"], "count_per_image must be >= 1; got -1"),
        (["synthesize", "--hdr-dir", "gt", "--count", "0"], "count_per_image must be >= 1; got 0"),
        (["synthesize", "--hdr-dir", "gt", "--jobs", "0"], "jobs must be >= 1; got 0"),
        (["synthesize", "--hdr-dir", "gt", "--jobs", "-4"], "jobs must be >= 1; got -4"),
        (["score", "--pred", "pred", "--gt", "gt", "--jobs", "0"], "jobs must be >= 1; got 0"),
        (["score", "--pred", "pred", "--gt", "gt", "--jobs", "-4"], "jobs must be >= 1; got -4"),
        (["sde-demo", "--steps", "0"], "steps must be >= 1; got 0"),
    ])
    def test_rejected_with_one_error_line(self, dirs, capsys, monkeypatch, argv, error):
        monkeypatch.chdir(dirs)
        assert main(argv + ["--out", "out"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {error}\n")
        assert list((dirs / "out").iterdir()) == []


def test_analyze_losses_computes_each_term_once(tmp_path, rng, monkeypatch):
    gt = LinearImage(rng.uniform(0.05, 1.0, (20, 20, 3)).astype(np.float32))
    pred = LinearImage(rng.uniform(0.05, 1.0, (20, 20, 3)).astype(np.float32))
    write_pfm(gt, tmp_path / "gt.pfm")
    write_pfm(pred, tmp_path / "pred.pfm")
    expected = {"recon": losses.recon_loss([pred], gt), "linear": losses.linear_l1(pred, gt),
                "denoise": losses.denoise_loss(pred, gt), "ssim_pu": losses.ssim_pu_loss(pred, gt),
                "color": losses.color_loss(pred, gt), "tv": losses.tv_loss(pred),
                "upf": losses.upf_loss(pred, gt)}
    calls = []
    upf_loss = losses.upf_loss
    monkeypatch.setattr(losses, "upf_loss", lambda *a, **k: calls.append(1) or upf_loss(*a, **k))
    out = tmp_path / "out"
    code = main(["analyze", "--pred", str(tmp_path / "pred.pfm"), "--gt", str(tmp_path / "gt.pfm"),
                 "--losses", "--out", str(out)])
    assert code == 0
    assert len(calls) == 1
    doc = json.loads((out / "analysis.json").read_text())["losses"]
    assert doc["raw"] == expected
    assert doc["weights"] == losses.WEIGHTS
    assert doc["total"] == pytest.approx(sum(doc["weighted"].values()), rel=1e-12)


def test_cli_digest_is_identical_across_runs(tmp_path_factory):
    # tools/cli_digest.py hashes every output byte of every subcommand, report.json's too;
    # two runs of one tree, each in its own process and temporary directory, must agree
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    digests = [subprocess.run([sys.executable, str(root / "tools" / "cli_digest.py"),
                               str(tmp_path_factory.mktemp(run) / "out"), "--size", "16"],
                              env=env, capture_output=True, text=True, check=True).stdout
               for run in ("one", "two")]
    assert digests[0] == digests[1]
    assert "  score_j2/report.json " in digests[0]
    commands = [line.split()[0] for line in digests[0].splitlines() if not line.startswith(" ")]
    assert {"synthesize_j1", "score_j2", "analyze", "expand_hdr", "sde_builtin"} <= set(commands)


def test_importing_the_cli_loads_no_thread_pool_or_hash_module():
    # concurrent.futures (and the logging it imports) serves only ordered_map's pool at
    # --jobs > 1, and hashlib only synthesize's per-pair seeds; each is imported where used
    root = Path(__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import itmbench.cli; "
            "print(sorted({'logging', 'concurrent.futures', 'hashlib'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(root / "src")],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# numpy picks each ufunc's SIMD kernel at import, among the CPU features it dispatches to beyond
# its build's baseline. exp, log, log1p, power and tan round differently on those paths, so these
# files move in their last digits when the features are switched off: SSIM in score_j2's and
# score_complete's reports (and the aggregate line score_complete prints, keyed by its label),
# the losses and region means of analysis.json, and every sde-demo report (its noise). Image
# files, and every synthesize and expand output, are identical across the paths.
DISPATCH_SENSITIVE = {
    "score_j2/report.csv", "score_j2/report.json", "analyze/analysis.json",
    "score_complete", "score_complete/report.csv", "score_complete/report.json",
    "sde_builtin/sde_diagnostics.json", "sde_builtin/sde_report.json",
    "sde_files/sde_diagnostics.json", "sde_files/sde_report.json",
    "sde_files/sde_trajectories.csv",
    "sde_odd/sde_diagnostics.json", "sde_odd/sde_report.json",
}


def split_digest(text: str) -> tuple:
    """A digest's `# ` header lines, and its other lines."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("# ")]
    return header, lines[len(header):]


def test_cli_digest_across_cpu_dispatch_differs_only_in_listed_files(tmp_path):
    # the determinism contract holds for one numpy version and one CPU feature set: run
    # tools/cli_digest.py natively and with every dispatched feature this CPU has disabled
    # (NPY_DISABLE_CPU_FEATURES); on a CPU with only the baseline's features the two runs
    # take the same kernels and no file differs
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)

    def digest(name, env):
        text = subprocess.run([sys.executable, str(root / "tools" / "cli_digest.py"),
                               str(tmp_path / name), "--size", "16"],
                              env=env, capture_output=True, text=True, check=True).stdout
        header, lines = split_digest(text)
        return header[-1].removeprefix("# cpu "), {line.split()[0]: line for line in lines}

    dispatched, native = digest("native", env)
    _, baseline = digest("baseline", dict(env, NPY_DISABLE_CPU_FEATURES=dispatched))
    assert native.keys() == baseline.keys()
    assert {key for key in native if native[key] != baseline[key]} <= DISPATCH_SENSITIVE


@pytest.mark.parametrize("size", [16, 64])
def test_cli_digest_matches_its_committed_golden(size, traced_digest, tmp_path):
    # every output byte of every subcommand against tests/data/cli_digest_<size>.txt: every
    # line where the run's header (numpy, zlib, Python, CPU features) is the golden's, the
    # lines outside DISPATCH_SENSITIVE where only the CPU features differ. A declared byte
    # change regenerates the golden in the same diff:
    #   PYTHONPATH=src python tools/cli_digest.py OUT --size N > tests/data/cli_digest_N.txt
    root = Path(__file__).resolve().parent.parent
    if size == 16:  # the run that the reach trace of tests/test_census.py makes
        text = traced_digest["digest"]
    else:
        text = subprocess.run([sys.executable, str(root / "tools" / "cli_digest.py"),
                               str(tmp_path / "out"), "--size", str(size)],
                              env=dict(os.environ, PYTHONPATH=str(root / "src")),
                              capture_output=True, text=True, check=True).stdout
    golden_header, golden = split_digest((root / "tests" / "data" /
                                          f"cli_digest_{size}.txt").read_text())
    header, lines = split_digest(text)
    if header[:-1] != golden_header[:-1]:  # all but the CPU features
        pytest.skip(f"the golden was made with {golden_header[:-1]}, this run has {header[:-1]}")
    full = header == golden_header
    keyed, golden_keyed = ({line.split()[0]: line for line in run} for run in (lines, golden))
    moved = sorted(key for key in keyed.keys() | golden_keyed.keys()
                   if keyed.get(key) != golden_keyed.get(key)
                   and (full or key not in DISPATCH_SENSITIVE))
    compared = "every line" if full else "the lines outside DISPATCH_SENSITIVE"
    assert not moved, f"{compared} compared ({header[-1]}); moved: {moved}"
    assert not full or lines == golden  # in the golden's order too
