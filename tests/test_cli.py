import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from accordion import analysis, runfiles
from accordion.cli import PRESETS, main
from accordion.runfiles import read_config, read_manifest, read_pgm, write_pgm


def parse_keyvals(text):
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            out[parts[0]] = parts[1]
    return out


def dir_digest(path):
    chunks = []
    for p in sorted(Path(path).rglob("*")):
        if p.is_file():
            chunks.append(p.name.encode())
            chunks.append(hashlib.sha256(p.read_bytes()).digest())
    return hashlib.sha256(b"".join(chunks)).hexdigest()


class TestSpacingCommand:
    def test_reference_configuration(self, capsys):
        assert main(["spacing", "--wavelength", "0.532", "--focal", "30000",
                     "--separation", "19250"]) == 0
        vals = parse_keyvals(capsys.readouterr().out)
        assert float(vals["spacing_fourier_um"]) == pytest.approx(0.8291, abs=1e-4)
        assert float(vals["spacing_thin_lens_um"]) == pytest.approx(0.8707, abs=1e-4)
        assert float(vals["thin_lens_ratio"]) == pytest.approx(1.0502, abs=1e-4)
        assert float(vals["beam_angle_deg"]) == pytest.approx(37.4, abs=0.05)

    def test_target_spacing_inversion(self, capsys):
        assert main(["spacing", "--wavelength", "0.532", "--focal", "80000",
                     "--separation", "43810", "--target-spacing", "11.2"]) == 0
        vals = parse_keyvals(capsys.readouterr().out)
        assert float(vals["separation_for_target_um"]) == pytest.approx(3800.0, abs=0.5)

    def test_missing_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["spacing", "--wavelength", "0.532"])
        assert exc.value.code == 2

    def test_domain_error_exit_code(self, capsys):
        # D >= 2f
        assert main(["spacing", "--wavelength", "0.532", "--focal", "1000",
                     "--separation", "2000"]) == 2


class TestSensitivityCommand:
    def test_reference_deviation(self, capsys):
        assert main(["sensitivity", "--spacing", "10",
                     "--deviations", "2.13,0,0.266"]) == 0
        lines = [l.split() for l in capsys.readouterr().out.splitlines()
                 if l and not l.startswith("#") and not l.startswith("  dev")]
        rows = [list(map(float, l)) for l in lines if l[0][0].isdigit() or l[0][0] == '-']
        dev, path, fringes, shift, mirror = rows[0]
        assert path == pytest.approx(4.26)
        assert fringes == pytest.approx(8.0075, abs=0.005)
        assert shift == pytest.approx(80.075, abs=0.05)
        assert mirror == 0.0
        assert rows[1] == [0.0, 0.0, 0.0, 0.0, 0.0]
        assert rows[2][2] == pytest.approx(1.0, abs=1e-3)  # half-wave deviation

    def test_bad_spacing_rejected(self, capsys):
        assert main(["sensitivity", "--spacing", "-1", "--deviations", "1"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--wavelength", "0"), ("--wavelength", "-0.5"), ("--wavelength", "nan"),
        ("--spacing", "0"), ("--spacing", "nan"), ("--spacing", "inf"),
    ])
    def test_nonpositive_or_nonfinite_length_is_usage_error(self, capsys, flag, value):
        flags = {"--spacing": "10", "--wavelength": "0.532", flag: value}
        assert main(["sensitivity", "--deviations", "1",
                     *(tok for item in flags.items() for tok in item)]) == 2
        captured = capsys.readouterr()
        assert f"{flag} must be positive and finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("deviations", ["nan", "inf", "-inf", "1,nan"])
    def test_nonfinite_deviation_is_usage_error(self, capsys, deviations):
        assert main(["sensitivity", "--spacing", "10",
                     f"--deviations={deviations}"]) == 2
        captured = capsys.readouterr()
        assert "--deviations must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("deviations, message", [
        ("a", "--deviations: could not convert"),
        ("1,a", "--deviations: could not convert"),
        ("1;2", "--deviations: could not convert"),
        (",", "--deviations needs at least one value"),
        ("", "--deviations needs at least one value"),
    ])
    def test_malformed_deviations_is_usage_error(self, capsys, deviations, message):
        assert main(["sensitivity", "--spacing", "10",
                     f"--deviations={deviations}"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestSweepCommand:
    def test_single_frame_preset(self, tmp_path, capsys):
        out = tmp_path / "fig4a"
        assert main(["sweep", "--preset", "fig4a", "--out", str(out)]) == 0
        assert (out / "frame_0000.pgm").exists()
        assert (out / "manifest.csv").exists()
        assert (out / "config.txt").exists()
        assert not (out / "composite.pgm").exists()  # single frame
        records = read_manifest(out / "manifest.csv")
        assert len(records) == 1
        assert records[0].separation_um == 19250.0
        cfgvals = read_config(out / "config.txt")
        assert cfgvals["focal"] == "30000.0"
        assert cfgvals["waist2"] == "40.0"

    def test_ladder_preset_writes_composite(self, tmp_path):
        out = tmp_path / "fig4b"
        assert main(["sweep", "--preset", "fig4b", "--out", str(out)]) == 0
        records = read_manifest(out / "manifest.csv")
        assert [r.separation_um for r in records] == \
            [19250.0, 17000.0, 14000.0, 11000.0, 8000.0, 5000.0]
        comp = read_pgm(out / "composite.pgm")
        assert comp.shape == (6, 640)

    def test_slow_preset_duration(self, tmp_path):
        out = tmp_path / "fig6a"
        assert main(["sweep", "--preset", "fig6a", "--out", str(out)]) == 0
        records = read_manifest(out / "manifest.csv")
        assert len(records) == 136
        assert records[-1].time_s == pytest.approx(4.5)
        assert min(r.separation_um for r in records) == pytest.approx(3810.0)

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        args = ["sweep", "--separations", "19250,12000,8000", "--focal", "30000",
                "--read-noise", "2", "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("focal=30000\nseparations=19250,12000\nread_noise=1.5\n")
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--focal", "80000",
                     "--out", str(out)]) == 0
        echoed = read_config(out / "config.txt")
        assert echoed["focal"] == "80000.0"       # flag wins
        assert echoed["read_noise"] == "1.5"      # file value kept
        assert len(read_manifest(out / "manifest.csv")) == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("focal=30000\nnonsense=1\n")
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_config_key_given_twice_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("focal=30000\nseparations=19250\nfocal=80000\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "run.cfg: config key 'focal' given twice" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_is_usage_error(self, tmp_path, capsys, workers):
        assert main(["sweep", "--preset", "fig4a", "--workers", workers,
                     "--out", str(tmp_path / "run")]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--read-noise", "nan", "read_noise"),
        ("--gain", "nan", "exposure_gain"),
        ("--gain", "inf", "exposure_gain"),
    ])
    def test_nonfinite_camera_value_is_usage_error(self, tmp_path, capsys,
                                                   flag, value, field):
        out = tmp_path / "run"
        assert main(["sweep", "--preset", "fig4a", flag, value,
                     "--out", str(out)]) == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("frame_rate", ["nan", "inf", "0"])
    def test_static_sweep_frame_rate_must_be_positive(self, tmp_path, capsys,
                                                      frame_rate):
        out = tmp_path / "run"
        assert main(["sweep", "--separations", "19250,12000",
                     "--frame-rate", frame_rate, "--out", str(out)]) == 2
        assert "frame_rate must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_options_are_gone(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("focal=30000\nseparations=19250\ngrid_nx=2048\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "grid_nx" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "fig4a", "--grid-nx", "2048"])
        assert exc.value.code == 2

    def test_empty_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("focal=30000\nseparations=19250\nseed=\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "'seed'" in capsys.readouterr().err

    def test_echoed_config_round_trips(self, tmp_path):
        # waist2 and initial_separation are unset, so config.txt leaves them empty
        assert main(["sweep", "--separations", "19250,12000", "--focal", "30000",
                     "--amplitude2", "0.8", "--read-noise", "2", "--seed", "3",
                     "--out", str(tmp_path / "a")]) == 0
        echoed = read_config(tmp_path / "a" / "config.txt")
        assert echoed["waist2"] == "" and echoed["initial_separation"] == ""
        assert main(["sweep", "--config", str(tmp_path / "a" / "config.txt"),
                     "--out", str(tmp_path / "b")]) == 0
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    @pytest.mark.parametrize("key, value, from_flag", [
        ("bit_depth", "8.0", False), ("bit_depth", "2000", False), ("gain", "abc", False),
        ("separations", "19250,abc", False), ("gain", "abc", True),
        ("separations", "19250,abc", True),
    ])
    def test_conversion_error_names_the_key(self, tmp_path, capsys, key, value,
                                            from_flag):
        cfg = tmp_path / "run.cfg"
        settings = {"focal": "30000", "separations": "19250"}
        argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]
        if from_flag:
            argv += ["--" + key.replace("_", "-"), value]
        else:
            settings[key] = value
        cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        assert main(argv) == 2
        err = capsys.readouterr().err
        if from_flag:
            assert "--" + key.replace("_", "-") in err
        else:
            assert f"'{key}'" in err and "run.cfg" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("dwell", ["nan", "inf"])
    def test_nonfinite_dwell_is_usage_error(self, tmp_path, capsys, dwell):
        out = tmp_path / "run"
        assert main(["sweep", "--initial-separation", "43810", "--speed", "20000",
                     "--travel", "20000", "--dwell", dwell, "--out", str(out)]) == 2
        assert "dwell must be >= 0 and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_every_preset_round_trips_through_its_config(self, tmp_path, preset):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--preset", preset, "--out", str(a)]) == 0
        echoed = read_config(a / "config.txt")
        # every preset key is a sweep key, echoed as the preset gives it
        assert {key: echoed.get(key) for key in PRESETS[preset]} == \
            {key: str(value) for key, value in PRESETS[preset].items()}
        assert main(["sweep", "--config", str(a / "config.txt"), "--out", str(b)]) == 0
        # the same bytes, but for the preset name that --config does not carry
        assert (b / "config.txt").read_bytes() == (a / "config.txt").read_bytes().replace(
            f"preset={preset}\n".encode(), b"preset=\n")
        (a / "config.txt").unlink()
        (b / "config.txt").unlink()
        assert dir_digest(a) == dir_digest(b)

    # SHA-256 of config.txt, pinned at 0.3.0
    @pytest.mark.parametrize("args, digest", [
        (["--preset", "fig6b", "--seed", "7"],
         "a575a0ac66d302c72296487583df252cb2fb8c1a943c4d989a5158cbe53081ff"),
        (["--separations", "19250,12000,8000", "--focal", "30000", "--waist", "36",
          "--waist2", "40", "--amplitude2", "0.8", "--sensor", "1280x240",
          "--bit-depth", "16", "--read-noise", "40", "--path-difference", "0.1",
          "--seed", "7"],
         "2d6d575ba94374204b15f6e69e604760da000d490141cbc619ec2c30ee4f8356"),
    ], ids=["fig6b", "ladder-16bit-noise"])
    def test_config_bytes_are_pinned(self, tmp_path, args, digest):
        out = tmp_path / "run"
        assert main(["sweep", *args, "--out", str(out)]) == 0
        assert hashlib.sha256((out / "config.txt").read_bytes()).hexdigest() == digest

    # SHA-256 of the frame_*.pgm bytes in name order, pinned at 0.2.0
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("args, digest", [
        (["--preset", "fig6b", "--seed", "7"],
         "0dceed77579ecde48bf6bb78ed12dfaed59b70913ef3cc306602f8bb0bd31cd3"),
        (["--separations", "19250,12000,8000", "--focal", "30000", "--waist", "36",
          "--waist2", "40", "--amplitude2", "0.8", "--sensor", "1280x240",
          "--bit-depth", "16", "--read-noise", "40", "--path-difference", "0.1",
          "--seed", "7"],
         "dd1b7db1cf17739d5bc7764e7ffc8e5211b681f32016ec1fba06960546253fb6"),
    ], ids=["fig6b", "ladder-16bit-noise"])
    def test_frame_bytes_are_pinned(self, tmp_path, args, digest, workers):
        out = tmp_path / "run"
        assert main(["sweep", *args, "--workers", workers, "--out", str(out)]) == 0
        frames = b"".join(p.read_bytes() for p in sorted(out.glob("frame_*.pgm")))
        assert hashlib.sha256(frames).hexdigest() == digest

    @pytest.mark.parametrize("sensor", ["640", "640x", "x120", "axb"])
    def test_malformed_sensor_is_usage_error(self, tmp_path, capsys, sensor):
        assert main(["sweep", "--preset", "fig4a", "--sensor", sensor,
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "--sensor" in err and repr(sensor) in err

    def test_interrupted_rerun_leaves_no_manifest(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        assert main(["sweep", "--preset", "fig4b", "--out", str(out)]) == 0
        write = runfiles.write_pgm
        written = []

        def fail_on_second_frame(path, pixels):
            written.append(path)
            if len(written) == 2:
                raise OSError(f"{path}: disk full")
            write(path, pixels)

        monkeypatch.setattr(runfiles, "write_pgm", fail_on_second_frame)
        assert main(["sweep", "--separations", "18000,9000,6000", "--focal", "30000",
                     "--out", str(out)]) == 2
        # frame_0000 is new and the old frames are gone: no run to measure
        assert main(["analyze", str(out)]) == 2
        assert "missing manifest.csv" in capsys.readouterr().err

    def test_failed_render_leaves_the_earlier_run_untouched(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["sweep", "--preset", "fig4b", "--out", str(out)]) == 0
        before = dir_digest(out)
        # sample 1 (D = 150 mm) puts fewer than 4 pixels on a fringe: every
        # frame is rendered before the run directory is touched
        assert main(["sweep", "--separations", "19250,150000", "--focal", "30000",
                     "--out", str(out)]) == 2
        assert "sample 1" in capsys.readouterr().err
        assert dir_digest(out) == before

    def test_rerun_replaces_the_earlier_run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--preset", "fig4b", "--out", str(out)]) == 0
        assert main(["analyze", str(out), "--calibrate"]) == 0
        assert main(["sweep", "--preset", "fig4a", "--out", str(out)]) == 0
        # frames 0001-0005, the composite and the reports described fig4b
        assert sorted(p.name for p in out.iterdir()) == [
            "config.txt", "frame_0000.pgm", "manifest.csv"]
        assert read_config(out / "config.txt")["preset"] == "fig4a"

    def test_env_var_sets_default_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ACCORDION_OUT_DIR", str(tmp_path / "elsewhere"))
        assert main(["sweep", "--preset", "fig4a"]) == 0
        assert (tmp_path / "elsewhere" / "fig4a" / "manifest.csv").exists()


@pytest.fixture(scope="module")
def ladder_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "ladder"
    assert main(["sweep", "--preset", "fig4b", "--read-noise", "2",
                 "--seed", "5", "--out", str(out)]) == 0
    return out


class TestAnalyzeCommand:
    def test_run_directory_measurements(self, ladder_run, capsys):
        assert main(["analyze", str(ladder_run)]) == 0
        out = capsys.readouterr().out
        assert "period range" in out
        csv_path = ladder_run / "measurements.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ("frame,time_s,separation_um,period_px,period_um,"
                            "center_um,contrast")
        assert len(lines) == 7
        # every cell must parse as a plain number (no numpy reprs)
        for line in lines[1:]:
            for cell in line.split(",")[1:]:
                float(cell)
        # round trip: measured period_um vs manifest analytic spacing
        records = read_manifest(ladder_run / "manifest.csv")
        for line, rec in zip(lines[1:], records):
            period_um = float(line.split(",")[4])
            assert period_um == pytest.approx(rec.analytic_spacing_um, rel=5e-3)

    def test_calibrate_recovers_pixel_scale(self, ladder_run, capsys):
        assert main(["analyze", str(ladder_run), "--calibrate"]) == 0
        out = capsys.readouterr().out
        assert "pixel scale" in out
        first = (ladder_run / "calibration.csv").read_text().splitlines()[1]
        scale = float(first.split(",")[0])
        assert scale == pytest.approx(0.0853, abs=5e-4)

    def test_calibrate_flag_beats_config(self, ladder_run, tmp_path):
        scales = {}
        for name, flags in (("config", []), ("flag", ["--focal", "60000"])):
            assert main(["analyze", str(ladder_run), "--calibrate",
                         "--out", str(tmp_path / name), *flags]) == 0
            row = (tmp_path / name / "calibration.csv").read_text().splitlines()[1]
            scales[name] = float(row.split(",")[0])
        # config.txt says f = 30 mm; the fitted scale is proportional to f
        assert scales["flag"] == pytest.approx(2 * scales["config"], rel=1e-12)

    def test_analyze_without_calibrate_removes_earlier_calibration(self, ladder_run,
                                                                   tmp_path):
        assert main(["analyze", str(ladder_run), "--calibrate", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "calibration.csv").exists()
        assert main(["analyze", str(ladder_run), "--window-rows", "2",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "measurements.csv").exists()
        assert not (tmp_path / "calibration.csv").exists()

    def test_failed_calibration_removes_earlier_calibration(self, ladder_run, tmp_path,
                                                            capsys):
        reports = tmp_path / "reports"
        assert main(["analyze", str(ladder_run), "--calibrate", "--out", str(reports)]) == 0
        two_frames = tmp_path / "run"
        assert main(["sweep", "--separations", "19250,12000", "--focal", "30000",
                     "--out", str(two_frames)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(two_frames), "--calibrate", "--out", str(reports)]) == 1
        assert "calibration: ill-conditioned" in capsys.readouterr().err
        assert (reports / "measurements.csv").exists()
        assert not (reports / "calibration.csv").exists()

    def test_each_frame_is_profiled_once(self, ladder_run, tmp_path, monkeypatch):
        calls = []
        profile = analysis.fringe_profile

        def counted(*args):
            calls.append(args)
            return profile(*args)

        monkeypatch.setattr(analysis, "fringe_profile", counted)
        assert main(["analyze", str(ladder_run), "--calibrate",
                     "--out", str(tmp_path)]) == 0
        assert len(calls) == len(read_manifest(ladder_run / "manifest.csv")) == 6

    def test_frames_off_the_expected_period_are_listed(self, ladder_run, tmp_path,
                                                       capsys):
        # a wrong pixel scale puts every manifest period 30% off its fringe:
        # each frame is rejected by name and both reports describe this run
        assert main(["analyze", str(ladder_run), "--calibrate", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(ladder_run), "--pixel-scale", "0.12",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 6
        assert err[0].startswith("frame_0000.pgm: no fringe found at the expected period")
        assert (tmp_path / "measurements.csv").read_text() == (
            "frame,time_s,separation_um,period_px,period_um,center_um,contrast\n")
        assert not (tmp_path / "calibration.csv").exists()

    def test_malformed_pgm_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "short.pgm").write_bytes(b"P5\n3 2\n255\n" + bytes(5))
        assert main(["analyze", str(tmp_path / "short.pgm")]) == 2
        assert "short.pgm" in capsys.readouterr().err

    def test_empty_pgm_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "empty.pgm").write_bytes(b"P5 0 5 255\n")
        assert main(["analyze", str(tmp_path / "empty.pgm")]) == 2
        assert "empty.pgm: empty 0x5 image" in capsys.readouterr().err

    def test_calibrate_without_optics_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["sweep", "--preset", "fig4b", "--out", str(out)]) == 0
        (out / "config.txt").unlink()
        capsys.readouterr()
        assert main(["analyze", str(out), "--calibrate",
                     "--pixel-scale", "0.0853"]) == 2
        captured = capsys.readouterr()
        assert "--calibrate needs wavelength and focal length" in captured.err
        assert captured.out == ""
        assert not (out / "measurements.csv").exists()

    def test_single_image(self, ladder_run, capsys):
        assert main(["analyze", str(ladder_run / "frame_0000.pgm"),
                     "--pixel-scale", "0.0853"]) == 0
        out = capsys.readouterr().out
        assert "period_um" in out and "contrast" in out

    def test_single_image_without_scale_flags_pixels(self, ladder_run, capsys):
        assert main(["analyze", str(ladder_run / "frame_0000.pgm")]) == 0
        assert "pixel units" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--wavelength", "--focal"])
    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_single_image_nonpositive_or_nonfinite_optics_is_usage_error(
            self, ladder_run, monkeypatch, capsys, flag, value):
        monkeypatch.setattr(runfiles, "read_pgm",
                            lambda path: pytest.fail(f"{path} read before the check"))
        assert main(["analyze", str(ladder_run / "frame_0000.pgm"),
                     "--pixel-scale", "0.0853", f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert f"{flag} must be positive and finite" in captured.err
        assert captured.out == ""

    def test_uniform_image_fails_with_no_fringe(self, tmp_path, capsys):
        write_pgm(tmp_path / "flat.pgm", np.full((64, 256), 40, np.uint8))
        assert main(["analyze", str(tmp_path / "flat.pgm")]) == 1
        assert "no fringe" in capsys.readouterr().err

    def test_uniform_frame_in_run_listed_and_nonzero(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["sweep", "--separations", "19250,12000", "--focal", "30000",
                     "--out", str(out)]) == 0
        write_pgm(out / "frame_0001.pgm",
                  np.full((120, 640), 40, np.uint8))  # overwrite with a flat frame
        assert main(["analyze", str(out)]) == 1
        err = capsys.readouterr().err
        assert "frame_0001.pgm" in err and "no fringe" in err

    def test_missing_target_is_usage_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope")]) == 2

    def test_calibrate_single_image_is_usage_error(self, ladder_run, capsys):
        assert main(["analyze", str(ladder_run / "frame_0000.pgm"), "--calibrate",
                     "--pixel-scale", "0.0853"]) == 2
        assert "--calibrate needs a run directory" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["0", "-5"])
    def test_nonpositive_window_rows_is_usage_error(self, ladder_run, tmp_path,
                                                    capsys, rows):
        assert main(["analyze", str(ladder_run), "--window-rows", rows,
                     "--out", str(tmp_path)]) == 2
        assert "--window-rows" in capsys.readouterr().err
        assert not (tmp_path / "measurements.csv").exists()

    @pytest.mark.parametrize("flags, config_line, named", [
        (["--calibrate", "--wavelength", "nan"], None, "--wavelength"),
        (["--calibrate", "--focal", "inf"], None, "--focal"),
        (["--calibrate"], "wavelength=nan", "config key 'wavelength'"),
        (["--pixel-scale", "0"], None, "--pixel-scale"),
        (["--pixel-scale", "-0.0853"], None, "--pixel-scale"),
        (["--pixel-scale", "nan"], None, "--pixel-scale"),
    ], ids=["wavelength-nan", "focal-inf", "config-wavelength-nan", "pixel-scale-0",
            "pixel-scale-negative", "pixel-scale-nan"])
    def test_nonpositive_or_nonfinite_optics_is_usage_error(
            self, ladder_run, tmp_path, monkeypatch, capsys, flags, config_line, named):
        target = ladder_run
        if config_line is not None:
            target = tmp_path / "run"
            shutil.copytree(ladder_run, target)
            config = target / "config.txt"
            key = config_line.partition("=")[0]
            config.write_text("".join(
                (config_line if line.partition("=")[0] == key else line) + "\n"
                for line in config.read_text().splitlines()))
        monkeypatch.setattr(runfiles, "read_pgm",
                            lambda path: pytest.fail(f"{path} read before the check"))
        reports = tmp_path / "reports"
        assert main(["analyze", str(target), *flags, "--out", str(reports)]) == 2
        captured = capsys.readouterr()
        assert f"{named} must be positive and finite" in captured.err
        assert captured.out == ""
        assert not (reports / "measurements.csv").exists()
        assert not (reports / "calibration.csv").exists()

    # SHA-256 of measurements.csv and calibration.csv, pinned at 0.2.0: one
    # spectral pass per frame must not move a single bit of the reports
    @pytest.mark.parametrize("args, digests", [
        (["--preset", "fig6b", "--read-noise", "2", "--seed", "7"],
         ("03a0cfe31c5d5928e4e61d38bec40bea2d745a5bb604f0fe1495b86f13fe70c3",
          "d38a0ee4cfa3cd2fe88ca5abd4556536b4d777db52b5fd18b0357ff8e984fd26")),
        (["--separations", "19250,12000,8000", "--focal", "30000", "--waist", "36",
          "--waist2", "40", "--amplitude2", "0.8", "--sensor", "1280x240",
          "--bit-depth", "16", "--read-noise", "40", "--path-difference", "0.1",
          "--seed", "7"],
         ("ee2b68c4a87ef05e3ef185f2a7a7c76aa8b8ecfdbbdd34aa94b41c999e12bb9c",
          "c53fa4f52bb5c1f9099c69b87404cbd805e27b4bf4ce25382e642aa3d4f5b81b")),
    ], ids=["fig6b-noise", "ladder-16bit-noise"])
    def test_report_bytes_are_pinned(self, tmp_path, args, digests):
        out = tmp_path / "run"
        assert main(["sweep", *args, "--out", str(out)]) == 0
        assert main(["analyze", str(out), "--calibrate"]) == 0
        assert tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                     for name in ("measurements.csv", "calibration.csv")) == digests


def test_cli_start_up_does_not_import_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, accordion.cli; accordion.cli.build_parser(); "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
                          check=True)
    assert done.stdout.strip() == "[]"
