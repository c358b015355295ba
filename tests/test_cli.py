import csv
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from accordion import analysis, instrument, render_sequence, runfiles, static_sweep
from accordion.cli import PRESETS, build_parser, main
from accordion.runfiles import read_config, read_manifest, read_pgm, write_pgm, write_run
from conftest import PIXEL_SCALE, make_camera, make_config, run_fresh


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

    def test_unreachable_target_spacing_is_usage_error(self, capsys):
        # 0.1 um needs D = 159.6 mm, beyond 2f = 60 mm: sweep would reject it
        assert main(["spacing", "--wavelength", "0.532", "--focal", "30000",
                     "--separation", "19250", "--target-spacing", "0.1"]) == 2
        captured = capsys.readouterr()
        assert "separation_for_target_um" not in captured.out
        assert "lam/2 = 0.266 um" in captured.err

    def test_large_focal_length(self, capsys):
        # f**2 overflows a float; the thin-lens period is still lam*f/D
        assert main(["spacing", "--wavelength", "0.5", "--focal", "1e200",
                     "--separation", "1"]) == 0
        vals = parse_keyvals(capsys.readouterr().out)
        assert float(vals["spacing_thin_lens_um"]) == pytest.approx(5e199)
        assert float(vals["thin_lens_ratio"]) == 1.0

    def test_overflowing_lens_law_is_usage_error(self, capsys):
        # lam*f overflows: no infinite period and no nan ratio is printed
        assert main(["spacing", "--wavelength", "1e200", "--focal", "1e200",
                     "--separation", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the fringe period lam*f/D must be positive and "
                                "finite, got 1e+200 * 1e+200 / 1.0 = inf um\n")

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

    @pytest.mark.parametrize("deviations, wavelength, named", [
        ("1e308", "0.532", "1e+308"),        # 2*dev overflows
        ("1,-1e308", "0.532", "-1e+308"),
        ("1e10", "1e-300", "10000000000.0"),  # the path difference in fringes overflows
        ("1e307", "0.532", "1e+307"),        # only the shift in um overflows
    ])
    def test_deviation_with_nonfinite_shift_is_usage_error(
            self, capsys, deviations, wavelength, named):
        assert main(["sensitivity", "--spacing", "10", "--wavelength", wavelength,
                     f"--deviations={deviations}"]) == 2
        captured = capsys.readouterr()
        assert "--deviations must be finite" in captured.err
        assert named in captured.err
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

    def test_calls_in_one_process_share_no_parsed_value(self, tmp_path, capsys):
        # every main() call of a process parses with the one cached parser
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "nope"])
        assert exc.value.code == 2
        assert main(["sweep", "--preset", "fig4a", "--seed", "3",
                     "--out", str(tmp_path / "a")]) == 0
        assert read_config(tmp_path / "a" / "config.txt")["seed"] == "3"
        assert main(["sweep", "--preset", "fig4a", "--out", str(tmp_path / "b")]) == 0
        assert read_config(tmp_path / "b" / "config.txt")["seed"] == "0"

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

    def test_undecodable_config_file_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"focal=30000\nseparations=19250\n# caf\xe9\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}: 'utf-8' codec can't decode byte 0xe9")
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

    @pytest.mark.parametrize("flag, value, message", [
        # 2.5e17 samples, 1.73 EiB per array: beyond any address space, so
        # NumPy refuses the allocation at once, whatever the host's overcommit
        ("--frame-rate", "1e17", "error: frame_rate 1e+17 samples the sweep "
                                 "250000000000000001 times: Unable to allocate"),
        # a count that overflows to inf, through the rate or through the dwell
        ("--frame-rate", "1e308", "error: frame_rate 1e+308 samples the sweep inf times: "),
        ("--dwell", "1e308", "error: frame_rate 30.0 samples the sweep inf times: "),
        # 1.2e306 samples: beyond NumPy's largest array
        ("--speed", "1e-300", "error: frame_rate 30.0 samples the sweep 1.2e+306 times: "),
        # 2**63 + 1 samples, for which np.arange returns an empty array
        ("--frame-rate", "3.6893488147419103e18",
         "error: frame_rate 3.6893488147419105e+18 samples the sweep 9.22337e+18 times: "),
    ], ids=["unallocatable", "infinite-rate", "infinite-dwell", "beyond-numpy", "near-2**63"])
    def test_unallocatable_sweep_is_usage_error(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "run"
        assert main(["sweep", "--preset", "fig6b", flag, value,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_fringe_phase_is_usage_error(self, tmp_path, capsys):
        # dL is finite, but 2 pi dL/lam is not: it would render cos(inf)
        out = tmp_path / "run"
        assert main(["sweep", "--preset", "fig4a", "--path-difference", "1e308",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: rendering failed at sample 0: path_difference must "
                              "leave the fringe phase 2 pi dL/lam finite")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("sensor, size", [("10000000x10000000", "364. TiB"),
                                              ("2x100000000000000", "728. TiB")],
                             ids=["envelope", "pixel-centres"])
    def test_unallocatable_sensor_is_usage_error_and_leaves_the_earlier_run(
            self, tmp_path, capsys, sensor, size):
        # beyond the 128 TiB of a 64-bit user address space, so NumPy refuses
        # the allocation at once, whatever the host's overcommit
        out = tmp_path / "run"
        assert main(["sweep", "--preset", "fig4a", "--out", str(out)]) == 0
        capsys.readouterr()
        before = dir_digest(out)
        assert main(["sweep", "--preset", "fig4a", "--sensor", sensor,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: sensor {sensor}: Unable to allocate {size}")
        assert err.count("\n") == 1
        assert dir_digest(out) == before

    def test_an_unallocatable_sensor_is_refused_before_its_pixel_centres(self, tmp_path):
        # the envelope's size is known from the sensor alone; building the
        # 10^7 pixel centres in x and in y first took the process to 259 MB.
        # The peak RSS of a fresh process since its exec, VmHWM: its
        # ru_maxrss starts at the forking test runner's RSS, and tracemalloc
        # would record the refused 364 TiB request as its peak
        code = ("import pathlib, sys\n"
                "from accordion.cli import main\n"
                "code = main(['sweep', '--preset', 'fig4a', '--sensor', "
                "'10000000x10000000', '--out', sys.argv[1]])\n"
                "status = pathlib.Path('/proc/self/status').read_text().splitlines()\n"
                "print(code, *(l.split()[1] for l in status if l.startswith('VmHWM:')))\n")
        out = tmp_path / "run"
        code, peak_rss_kb = map(int, run_fresh(code, str(out)).split())
        assert code == 2
        assert peak_rss_kb < 100 * 1024
        assert not out.exists()

    def test_no_separation_source_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["sweep", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: need --initial-separation "
                                           "(or --separations / a preset)\n")
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

    @pytest.mark.parametrize("preset, flag", [
        ("fig6b", "--separations"), ("fig4b", "--waist2"),
        ("fig4b", "--initial-separation"),
    ])
    def test_empty_flag_is_usage_error(self, tmp_path, capsys, preset, flag):
        # only a key= line of a config file unsets a key: an empty flag would
        # drop the preset's value, fig4b's 40 um waist2, or set nothing
        out = tmp_path / "run"
        assert main(["sweep", "--preset", preset, flag, "", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag} needs a value\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("value", [",", ",,"])
    @pytest.mark.parametrize("from_flag", [True, False], ids=["flag", "config"])
    def test_separations_without_a_number_is_usage_error(self, tmp_path, capsys, value,
                                                         from_flag):
        # given but empty, the list would leave the preset's timed sweep in place
        out = tmp_path / "run"
        argv = ["sweep", "--preset", "fig6b", "--out", str(out)]
        if from_flag:
            argv += ["--separations", value]
            source = "--separations"
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"separations={value}\n")
            argv += ["--config", str(cfg)]
            source = f"{cfg}: config key 'separations'"
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {source}: must list at least one separation, got {value!r}\n")
        assert not out.exists()

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

    # SHA-256 of manifest.csv, pinned at 0.7.0
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("args, digest", [
        (["--preset", "fig6b", "--seed", "7"],
         "196fb8730ae0e4aafb590e342e23f114580ace50ebdc5fcf146a4258a119993a"),
        (["--separations", "19250,12000,8000", "--focal", "30000", "--waist", "36",
          "--waist2", "40", "--amplitude2", "0.8", "--sensor", "1280x240",
          "--bit-depth", "16", "--read-noise", "40", "--path-difference", "0.1",
          "--seed", "7"],
         "87f7f177de8b60686346ddf4dfa82b5560aa4c1d758f608bffdba9aab75cb622"),
    ], ids=["fig6b", "ladder-16bit-noise"])
    def test_manifest_bytes_are_pinned(self, tmp_path, args, digest, workers):
        out = tmp_path / "run"
        assert main(["sweep", *args, "--workers", workers, "--out", str(out)]) == 0
        assert hashlib.sha256((out / "manifest.csv").read_bytes()).hexdigest() == digest

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
        # sample 1 (D = 150 mm) is not below twice the focal length (f = 30
        # mm), so its beams miss the lens: every sample is checked before the
        # run directory is touched
        assert main(["sweep", "--separations", "19250,150000", "--focal", "30000",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sample 1" in err
        assert "twice the focal length" in err
        assert dir_digest(out) == before

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("bad", [0, 2, 4], ids=["first", "middle", "last"])
    def test_unrenderable_sample_anywhere_leaves_the_earlier_run(self, tmp_path, capsys,
                                                                 bad, workers):
        out = tmp_path / "run"
        assert main(["sweep", "--preset", "fig4b", "--out", str(out)]) == 0
        before = dir_digest(out)
        separations = ["19250", "17000", "14000", "11000", "8000"]
        separations[bad] = "55000"  # 3.4 px per fringe
        assert main(["sweep", "--separations", ",".join(separations), "--focal", "30000",
                     "--workers", workers, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"rendering failed at sample {bad}:" in err
        assert "samples per fringe" in err
        assert dir_digest(out) == before

    @pytest.mark.parametrize("flags, message", [
        (["--waist", "1e200"], "focal_waist squared must be positive and finite"),
        (["--waist", "1e-200", "--sensor", "641x121"],
         "focal_waist squared must be positive and finite"),
        (["--amplitude", "1e200"], "amplitude must be >= 0 and its square finite"),
        (["--amplitude", "1e154", "--amplitude2", "1e154"], "no finite value"),
        (["--amplitude", "1e-200", "--amplitude2", "1e-200"], "no finite value"),
        (["--amplitude", "1e154", "--amplitude2", "1e154", "--gain", "1"],
         "peak intensity (a1 + a2)^2 no finite value"),
        (["--amplitude", "1e150", "--gain", "1e300"],
         "peak counts gain * (a1 + a2)^2 no finite value"),
        (["--waist", "1e-160"], "and its reciprocal finite"),
        (["--wavelength", "1e200", "--focal", "1e200"],
         "the fringe period lam*f/D must be positive and finite"),
        (["--separations", "19250,1e-310,8000"],
         "rendering failed at sample 1: the fringe period lam*f/D must be positive"),
    ], ids=["huge-waist", "tiny-waist", "huge-amplitude", "overflowing-gain",
            "infinite-gain", "overflowing-peak", "overflowing-counts",
            "overflowing-reciprocal", "overflowing-lens-law", "overflowing-lens-law-mid-sweep"])
    def test_extreme_beam_is_usage_error_and_leaves_the_earlier_run(
            self, tmp_path, capsys, flags, message):
        # a waist squared that overflows or underflows, or whose reciprocal
        # overflows; an amplitude squared, a peak intensity (a1 + a2)^2 or
        # peak counts gain * (a1 + a2)^2 that overflow; an auto gain
        # 255 / (a1 + a2)^2 that does; and a fringe period lam*f/D that
        # overflows, at the first sample or mid-sweep
        out = tmp_path / "run"
        assert main(["sweep", "--preset", "fig4b", "--out", str(out)]) == 0
        capsys.readouterr()
        before = dir_digest(out)
        assert main(["sweep", "--preset", "fig4b", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert dir_digest(out) == before

    def test_envelope_failure_leaves_the_earlier_run(self, tmp_path, monkeypatch, capsys):
        # the beam envelopes are evaluated before render_sequence returns,
        # so before write_run clears the run directory
        out = tmp_path / "run"
        assert main(["sweep", "--preset", "fig4b", "--out", str(out)]) == 0
        before = dir_digest(out)

        def failing(cfg, x, y):
            raise ValueError("no envelopes")

        monkeypatch.setattr(instrument, "beam_envelopes", failing)
        assert main(["sweep", "--preset", "fig4b", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: no envelopes\n"
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


class TestStreamingSweep:
    """A sweep streams each frame from the renderer to disk, so its memory
    does not grow with its length."""

    SENSOR = (1280, 240)
    FRAME_BYTES = SENSOR[0] * SENSOR[1] * 2  # 16-bit samples

    def _traced_peak(self, out, n, workers):
        separations = ",".join(repr(float(d)) for d in np.linspace(19250.0, 5000.0, n))
        tracemalloc.reset_peak()
        assert main(["sweep", "--separations", separations, "--focal", "30000",
                     "--sensor", "%dx%d" % self.SENSOR, "--bit-depth", "16",
                     "--read-noise", "40", "--seed", "3", "--workers", str(workers),
                     "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]

    @pytest.mark.parametrize("workers, frames_held", [(1, 2), (2, 2 + 2)])
    def test_peak_memory_does_not_grow_with_the_sweep(self, tmp_path, workers,
                                                      frames_held):
        tracemalloc.start()
        try:
            # a first sweep takes the one-time allocations
            self._traced_peak(tmp_path / "warm", 2, workers)
            short = self._traced_peak(tmp_path / "short", 10, workers)
            long = self._traced_peak(tmp_path / "long", 40, workers)
        finally:
            tracemalloc.stop()
        assert len(list((tmp_path / "long").glob("frame_*.pgm"))) == 40
        assert long - short < frames_held * self.FRAME_BYTES


class TestStreamingAnalyze:
    """An analyze reads, measures and drops one frame at a time, and keeps a
    rejection as its error without its traceback, so it holds one frame,
    however many frames it has or rejects."""

    SENSOR = (1280, 240)
    FRAME_BYTES = SENSOR[0] * SENSOR[1] * 2  # 16-bit samples

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Noisy 16-bit runs of 2 and 12 frames, "accepted2" and "accepted12",
        and copies whose every frame is flat, "flat2" and "flat12"."""
        base = tmp_path_factory.mktemp("analyze-memory")
        for n in (2, 12):
            run = base / f"accepted{n}"
            separations = ",".join(repr(float(d)) for d in np.linspace(19250.0, 5000.0, n))
            assert main(["sweep", "--separations", separations, "--focal", "30000",
                         "--sensor", "%dx%d" % self.SENSOR, "--bit-depth", "16",
                         "--read-noise", "40", "--seed", "3", "--out", str(run)]) == 0
            shutil.copytree(run, base / f"flat{n}")
            for pgm in (base / f"flat{n}").glob("frame_*.pgm"):
                write_pgm(pgm, np.full(self.SENSOR[::-1], 1000, dtype=">u2"))
        return base

    def _traced_peak(self, run, reports, status):
        """The traced peak of one analyze of run, and that peak above the
        memory traced when it began."""
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert main(["analyze", str(run), "--out", str(reports)]) == status
        peak = tracemalloc.get_traced_memory()[1]
        return peak, peak - start

    @pytest.mark.parametrize("kind, status", [("accepted", 0), ("flat", 1)])
    def test_peak_memory_does_not_grow_with_the_run(self, runs, tmp_path, kind, status):
        tracemalloc.start()
        try:
            # a first analyze takes the one-time allocations
            self._traced_peak(runs / f"{kind}2", tmp_path / "warm", status)
            short, _ = self._traced_peak(runs / f"{kind}2", tmp_path / "short", status)
            long, held = self._traced_peak(runs / f"{kind}12", tmp_path / "long", status)
        finally:
            tracemalloc.stop()
        assert long - short < 1.5 * self.FRAME_BYTES
        assert held < 1.5 * self.FRAME_BYTES

    def test_a_rejection_keeps_no_traceback(self, runs):
        run = runs / "flat2"
        records = read_manifest(run / "manifest.csv")
        results = analysis.measure_run((read_pgm(run / rec.frame) for rec in records),
                                       [rec.analytic_spacing_um for rec in records],
                                       PIXEL_SCALE)
        assert [type(r.measurement) for r in results] == [analysis.NoFringeError] * 2
        assert all(r.measurement.__traceback__ is None for r in results)


def scale_manifest(run, out, scale):
    """A copy of run at out, its reports left out, with scale applied to
    each manifest analytic_spacing_um, written as its repr."""
    shutil.copytree(run, out, ignore=shutil.ignore_patterns("*.csv"))
    with open(run / "manifest.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    k = rows[0].index("analytic_spacing_um")
    for row in rows[1:]:
        row[k] = repr(scale(float(row[k])))
    with open(out / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


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

    def test_calibrate_fits_the_manifest_spacings(self, ladder_run, tmp_path):
        # the fit reads each frame's analytic_spacing_um, as the referee does:
        # 2% wider spacings, within the 5% tolerance, give a 2% larger scale
        # and move no measured period or tracked center
        scaled = tmp_path / "scaled"
        scale_manifest(ladder_run, scaled, lambda u: u * 1.02)
        scales = {}
        for run in (ladder_run, scaled):
            assert main(["analyze", str(run), "--calibrate",
                         "--out", str(tmp_path / run.name / "reports")]) == 0
            row = (tmp_path / run.name / "reports" / "calibration.csv").read_text()
            scales[run.name] = float(row.splitlines()[1].split(",")[0])
        assert scales["scaled"] == pytest.approx(1.02 * scales["ladder"], rel=1e-12)
        assert ((tmp_path / "scaled" / "reports" / "measurements.csv").read_bytes()
                == (tmp_path / "ladder" / "reports" / "measurements.csv").read_bytes())

    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_spacings_scaled_by_a_power_of_two_calibrate(self, ladder_run, tmp_path,
                                                         capsys, exponent):
        # a spacing's square under- or overflows at 2**-600 or 2**600: with
        # the pixel scale scaled alike, every frame keeps its period in pixels
        # and the fitted scale and its uncertainty scale bit for bit
        scaled = tmp_path / "scaled"
        scale_manifest(ladder_run, scaled, lambda u: math.ldexp(u, exponent))
        reports = tmp_path / "reports"
        assert main(["analyze", str(ladder_run), "--calibrate", "--out", str(reports)]) == 0
        assert main(["analyze", str(scaled), "--calibrate", "--pixel-scale",
                     repr(math.ldexp(PIXEL_SCALE, exponent))]) == 0
        assert "Traceback" not in capsys.readouterr().err
        rows = [list(csv.reader((run / "calibration.csv").read_text().splitlines()))[1:]
                for run in (reports, scaled)]
        assert len(rows[0]) == len(rows[1]) == 6
        for row, scaled_row in zip(*rows):
            assert [float(cell) for cell in scaled_row[:2]] == [
                math.ldexp(float(cell), exponent) for cell in row[:2]]
            assert scaled_row[2:] == row[2:]

    def test_analyze_without_calibrate_removes_earlier_calibration(self, ladder_run,
                                                                   tmp_path):
        assert main(["analyze", str(ladder_run), "--calibrate", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "calibration.csv").exists()
        assert main(["analyze", str(ladder_run), "--out", str(tmp_path)]) == 0
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
        # a wrong pixel scale puts every measured period 41% off the
        # manifest's: each frame is rejected by name, by the one off-period
        # rule, and both reports describe this run
        assert main(["analyze", str(ladder_run), "--calibrate", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(ladder_run), "--pixel-scale", "0.12",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 6
        assert err[0] == ("frame_0000.pgm: measured period 9.721 px is +40.7% off the "
                          "manifest period 6.909 px (tolerance 5%)")
        assert all("off the manifest period" in line for line in err)
        assert (tmp_path / "measurements.csv").read_text() == (
            "frame,time_s,separation_um,period_px,period_um,center_um,contrast\n")
        assert not (tmp_path / "calibration.csv").exists()

    def test_wrong_pixel_scale_rejects_every_fig6b_frame(self, tmp_path, capsys):
        # at 0.12 um/px (true 0.0853) two frames have a fringe near their
        # expected period, but 41% off it: they are rejected by name too
        run = tmp_path / "fig6b"
        assert main(["sweep", "--preset", "fig6b", "--seed", "7", "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(run), "--pixel-scale", "0.12"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == [
            f"frame_{i:04d}.pgm" for i in range(76)]
        for i in (29, 46):
            assert "off the manifest period" in err[i]
        assert (run / "measurements.csv").read_text() == (
            "frame,time_s,separation_um,period_px,period_um,center_um,contrast\n")

    def test_an_off_period_breach_shows_in_its_decimals(self, tmp_path, capsys):
        # at 0.081 um/px (true 0.0853) the first frames measure just over 5%
        # off their manifest periods: one decimal would print -5.0%, no breach
        # of a 5% tolerance, so the offset takes as many as show the breach
        run = tmp_path / "fig6b"
        assert main(["sweep", "--preset", "fig6b", "--seed", "7", "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(run), "--pixel-scale", "0.081"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[1] == ("frame_0001.pgm: measured period 11.75 px is -5.04% off the "
                          "manifest period 12.37 px (tolerance 5%)")
        assert [line.split(" is ")[1].split(" off ")[0] for line in err[:7]] == [
            "-5.1%", "-5.04%", "-5.03%", "-5.05%", "-5.1%", "-5.03%", "-5.04%"]

    @pytest.mark.parametrize("name", ["config.txt", "manifest.csv"])
    def test_undecodable_run_file_is_named(self, ladder_run, tmp_path, name, capsys):
        run = tmp_path / "run"
        shutil.copytree(ladder_run, run)
        with open(run / name, "ab") as fh:
            fh.write(b"\xff\n")
        assert main(["analyze", str(run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run / name}: 'utf-8' codec can't decode byte 0xff")

    def test_malformed_pgm_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "short.pgm").write_bytes(b"P5\n3 2\n255\n" + bytes(5))
        assert main(["analyze", str(tmp_path / "short.pgm")]) == 2
        assert "short.pgm" in capsys.readouterr().err

    def test_empty_pgm_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "empty.pgm").write_bytes(b"P5 0 5 255\n")
        assert main(["analyze", str(tmp_path / "empty.pgm")]) == 2
        assert "empty.pgm: empty 0x5 image" in capsys.readouterr().err

    def test_calibrate_without_config_needs_only_a_pixel_scale(self, tmp_path):
        # the manifest holds every spacing the fit reads: a run without
        # config.txt calibrates to the same calibration.csv, byte for byte
        out = tmp_path / "run"
        assert main(["sweep", "--preset", "fig4b", "--out", str(out)]) == 0
        bare = tmp_path / "bare"
        shutil.copytree(out, bare, ignore=shutil.ignore_patterns("config.txt"))
        assert main(["analyze", str(out), "--calibrate"]) == 0
        assert main(["analyze", str(bare), "--calibrate", "--pixel-scale", "0.0853"]) == 0
        for name in ("measurements.csv", "calibration.csv"):
            assert (bare / name).read_bytes() == (out / name).read_bytes()

    def test_a_run_without_config_needs_a_pixel_scale(self, ladder_run, tmp_path, capsys):
        bare = tmp_path / "bare"
        shutil.copytree(ladder_run, bare,
                        ignore=shutil.ignore_patterns("config.txt", "measurements.csv"))
        assert main(["analyze", str(bare)]) == 2
        assert capsys.readouterr().err == ("error: no pixel scale: pass --pixel-scale "
                                           "or provide config.txt\n")
        assert not (bare / "measurements.csv").exists()

    def test_single_image(self, ladder_run, capsys):
        assert main(["analyze", str(ladder_run / "frame_0000.pgm"),
                     "--pixel-scale", "0.0853"]) == 0
        out = capsys.readouterr().out
        assert "period_um" in out and "contrast" in out

    def test_single_image_without_scale_flags_pixels(self, ladder_run, capsys):
        assert main(["analyze", str(ladder_run / "frame_0000.pgm")]) == 0
        assert "pixel units" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_single_image_nonpositive_or_nonfinite_pixel_scale_is_usage_error(
            self, ladder_run, monkeypatch, capsys, value):
        monkeypatch.setattr(runfiles, "read_pgm",
                            lambda path: pytest.fail(f"{path} read before the check"))
        assert main(["analyze", str(ladder_run / "frame_0000.pgm"),
                     f"--pixel-scale={value}"]) == 2
        captured = capsys.readouterr()
        assert "--pixel-scale must be positive and finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("config_line", ["focal=60000", "focal=0", "wavelength=nan"])
    def test_config_optics_do_not_move_the_calibration(self, ladder_run, tmp_path,
                                                       config_line):
        # the fit reads the manifest's spacings alone: config.txt's wavelength
        # and focal length, even ones no sweep would take, change no report byte
        run = tmp_path / "run"
        shutil.copytree(ladder_run, run, ignore=shutil.ignore_patterns("*.csv"))
        shutil.copy(ladder_run / "manifest.csv", run)
        config = run / "config.txt"
        key = config_line.partition("=")[0]
        lines = config.read_text().splitlines()
        assert any(line.partition("=")[0] == key for line in lines)
        config.write_text("".join(
            (config_line if line.partition("=")[0] == key else line) + "\n"
            for line in lines))
        reports = tmp_path / "reports"
        assert main(["analyze", str(ladder_run), "--calibrate", "--out", str(reports)]) == 0
        assert main(["analyze", str(run), "--calibrate"]) == 0
        for name in ("measurements.csv", "calibration.csv"):
            assert (run / name).read_bytes() == (reports / name).read_bytes()

    @pytest.mark.parametrize("flag, value", [("--wavelength", "0.5"), ("--focal", "60000")])
    @pytest.mark.parametrize("target, flags", [("frame_0000.pgm", []), (".", ["--calibrate"])],
                             ids=["image", "run-calibrate"])
    def test_optics_are_not_options(self, ladder_run, tmp_path, monkeypatch, capsys,
                                    target, flags, flag, value):
        # analyze reads no wavelength or focal length: the manifest's
        # analytic spacings are its only lam*f/D
        monkeypatch.setattr(runfiles, "read_pgm",
                            lambda path: pytest.fail(f"{path} read by a refused command"))
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(ladder_run / target), *flags, flag, value,
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

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

    def test_a_rejected_frame_drops_only_its_own_row(self, tmp_path, capsys):
        # dL 0 -> 0.4 um moves the center fringe 0 -> -4 um, past the fold at
        # -d/2 = -2.66 um: every measured row reports its tracked center,
        # whether or not another frame of the run was rejected; frame 3,
        # 1.6 um from frame 1 across the rejected frame, is flagged
        traj = static_sweep([8000.0] * 6).with_path_difference(np.linspace(0.0, 0.4, 6))
        frames, records = render_sequence(traj, make_config(separation=8000.0),
                                          make_camera())
        run = tmp_path / "ramp"
        write_run(run, frames, records)
        args = ["analyze", str(run), "--pixel-scale", str(PIXEL_SCALE)]
        assert main([*args, "--out", str(tmp_path / "clean")]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "max center-fringe drift 4.001 um"
        write_pgm(run / "frame_0002.pgm", np.full((120, 640), 40, np.uint8))
        assert main(args) == 1
        clean = (tmp_path / "clean" / "measurements.csv").read_text().splitlines(True)
        assert (run / "measurements.csv").read_text() == "".join(
            line for line in clean if not line.startswith("frame_0002"))
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            "measured 5/6 frames; period range [5.315, 5.316] um",
            "max center-fringe drift 4.001 um; unwrap flagged at frames [3]"]
        assert err == "frame_0002.pgm: no fringe found\n"

    def test_missing_target_is_usage_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda cells: cells[:3], "column separation_um: expected a number, got None"),
        (lambda cells: cells[:4] + ["abc"] + cells[5:],
         "column analytic_spacing_um: expected a number, got 'abc'"),
    ], ids=["short-row", "non-numeric"])
    def test_malformed_manifest_row_is_usage_error(self, ladder_run, tmp_path, capsys,
                                                   edit, message):
        run = tmp_path / "run"
        shutil.copytree(ladder_run, run)
        manifest = run / "manifest.csv"
        lines = manifest.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))  # frame 1's row
        manifest.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(run)]) == 2
        assert f"error: {manifest}: line 3, {message}\n" in capsys.readouterr().err

    def test_frame_name_outside_the_run_is_usage_error(self, ladder_run, tmp_path, capsys):
        # frame 1's cell names a frame of another run by its absolute path
        run = tmp_path / "run"
        shutil.copytree(ladder_run, run, ignore=shutil.ignore_patterns("*.csv"))
        shutil.copy(ladder_run / "manifest.csv", run)
        manifest = run / "manifest.csv"
        lines = manifest.read_text().splitlines()
        other = str(ladder_run / "frame_0000.pgm")
        lines[2] = ",".join([other] + lines[2].split(",")[1:])
        manifest.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(run)]) == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: line 3, column frame: expected a file name, "
            f"got {other!r}\n")
        assert not (run / "measurements.csv").exists()

    def test_calibrate_single_image_is_usage_error(self, ladder_run, capsys):
        assert main(["analyze", str(ladder_run / "frame_0000.pgm"), "--calibrate",
                     "--pixel-scale", "0.0853"]) == 2
        assert "--calibrate needs a run directory" in capsys.readouterr().err

    def test_out_with_single_image_is_usage_error(self, ladder_run, tmp_path,
                                                  monkeypatch, capsys):
        # a single image writes no report, so --out would be silently ignored
        monkeypatch.setattr(runfiles, "read_pgm",
                            lambda path: pytest.fail(f"{path} read before the check"))
        assert main(["analyze", str(ladder_run / "frame_0000.pgm"),
                     "--out", str(tmp_path / "reports")]) == 2
        captured = capsys.readouterr()
        assert "--out needs a run directory" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_manifest_spacing_rejects_its_frame(self, ladder_run, tmp_path,
                                                          capsys, value):
        # the referee rejects frame 1 by its manifest period; the fit takes
        # the other frames' spacings
        run = tmp_path / "run"
        shutil.copytree(ladder_run, run, ignore=shutil.ignore_patterns("*.csv"))
        shutil.copy(ladder_run / "manifest.csv", run)
        manifest = run / "manifest.csv"
        lines = manifest.read_text().splitlines()
        column = lines[0].split(",").index("analytic_spacing_um")
        cells = lines[2].split(",")
        cells[column] = value
        lines[2] = ",".join(cells)
        manifest.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(run), "--calibrate"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"frame_0001.pgm: period must be positive and finite, "
                                f"got {value}\n")
        assert "pixel scale" in captured.out
        rows = (run / "calibration.csv").read_text().splitlines()[1:]
        assert len(rows) == len(read_manifest(manifest)) - 1 == 5
        assert not any(row.split(",")[2] == "17000.0" for row in rows)

    def test_window_rows_is_not_an_option(self, ladder_run, tmp_path, capsys):
        # every profile is the central quarter of the rows
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(ladder_run), "--window-rows", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--window-rows" in capsys.readouterr().err
        assert not (tmp_path / "measurements.csv").exists()

    @pytest.mark.parametrize("flags, config_line, named", [
        (["--pixel-scale", "0"], None, "--pixel-scale"),
        (["--pixel-scale", "-0.0853"], None, "--pixel-scale"),
        (["--pixel-scale", "nan"], None, "--pixel-scale"),
        (["--calibrate"], "pixel_scale=inf", "config key 'pixel_scale'"),
        ([], "pixel_scale=0", "config key 'pixel_scale'"),
        ([], "pixel_scale=-0.0853", "config key 'pixel_scale'"),
        ([], "pixel_scale=nan", "config key 'pixel_scale'"),
    ], ids=["pixel-scale-0", "pixel-scale-negative", "pixel-scale-nan",
            "config-pixel-scale-inf", "config-pixel-scale-0", "config-pixel-scale-negative",
            "config-pixel-scale-nan"])
    def test_nonpositive_or_nonfinite_pixel_scale_is_usage_error(
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
    # spectral pass per frame must not move a single bit of the reports.
    # measurements.csv re-pinned once each center came from measure_frame,
    # at the measured period: its centers moved by at most 15 pm
    @pytest.mark.parametrize("args, digests", [
        (["--preset", "fig6b", "--read-noise", "2", "--seed", "7"],
         ("0f2476123bc5a12724aa91114eb78e2e8831f5dd2161290439eb0c51b5bb0440",
          "d38a0ee4cfa3cd2fe88ca5abd4556536b4d777db52b5fd18b0357ff8e984fd26")),
        (["--separations", "19250,12000,8000", "--focal", "30000", "--waist", "36",
          "--waist2", "40", "--amplitude2", "0.8", "--sensor", "1280x240",
          "--bit-depth", "16", "--read-noise", "40", "--path-difference", "0.1",
          "--seed", "7"],
         ("d0aa8797f422bed59ad5ab3bffdc1f4b3f43e55f44f9c47aa12fc4714ba053b7",
          "c53fa4f52bb5c1f9099c69b87404cbd805e27b4bf4ce25382e642aa3d4f5b81b")),
    ], ids=["fig6b-noise", "ladder-16bit-noise"])
    def test_report_bytes_are_pinned(self, tmp_path, args, digests):
        out = tmp_path / "run"
        assert main(["sweep", *args, "--out", str(out)]) == 0
        assert main(["analyze", str(out), "--calibrate"]) == 0
        assert tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                     for name in ("measurements.csv", "calibration.csv")) == digests

    def test_a_frame_name_with_a_comma_and_a_quote_keeps_its_row(self, tmp_path):
        # the manifest quotes such a name, and so must measurements.csv: a
        # split row would shift the separation into period_px
        run = tmp_path / "run"
        assert main(["sweep", "--preset", "fig4b", "--out", str(run)]) == 0
        name = 'a,"b".pgm'
        (run / "frame_0000.pgm").rename(run / name)
        first, *rest = read_manifest(run / "manifest.csv")
        runfiles.write_manifest(run / "manifest.csv", [replace(first, frame=name), *rest])
        assert main(["analyze", str(run), "--calibrate"]) == 0
        with open(run / "measurements.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6 and all(None not in row for row in rows)
        assert rows[0]["frame"] == name
        assert float(rows[0]["period_px"]) == pytest.approx(9.72, abs=0.01)
        assert float(rows[0]["separation_um"]) == 19250.0


def run_cli(cwd, *argv, env=(), flags=()):
    """The command line run by a fresh interpreter, with flags before -m and
    env added to the environment; returns the finished process."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, *flags, "-m", "accordion.cli", *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src), **dict(env)})


# a locale whose codec is ASCII, with neither UTF-8 mode nor locale coercion
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def test_a_sweep_under_the_c_locale_writes_the_same_run(tmp_path):
    """Run files are UTF-8 whatever the locale: a --config file with a UTF-8
    comment sweeps under the C locale to the run that the default locale
    writes, byte for byte, and analyze reports the same on both."""
    check = subprocess.run([sys.executable, "-c",
                            "import locale; print(locale.getpreferredencoding(False))"],
                           capture_output=True, text=True, env={**os.environ, **C_LOCALE})
    assert check.stdout.strip() in ("ANSI_X3.4-1968", "US-ASCII", "ascii")
    (tmp_path / "fig4b.cfg").write_bytes("# waist in \u00b5m\nwaist=36\n".encode())
    for name, env in [("default", {}), ("c", C_LOCALE)]:
        for argv in (["sweep", "--preset", "fig4b", "--config", "fig4b.cfg", "--out", name],
                     ["analyze", name, "--calibrate"]):
            done = run_cli(tmp_path, *argv, env=env)
            assert done.returncode == 0, done.stderr
    default = sorted(p.name for p in (tmp_path / "default").iterdir())
    assert default == sorted(p.name for p in (tmp_path / "c").iterdir())
    assert "calibration.csv" in default
    for name in default:
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


def test_no_run_file_is_opened_with_the_locale_encoding(tmp_path):
    """With every EncodingWarning an error, a sweep from a --config file and
    analyze --calibrate of its run finish cleanly, and warn of nothing."""
    (tmp_path / "fig4b.cfg").write_bytes(b"waist=36\n")
    flags = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    for argv in (["sweep", "--preset", "fig4b", "--config", "fig4b.cfg", "--out", "run"],
                 ["analyze", "run", "--calibrate"]):
        done = run_cli(tmp_path, *argv, flags=flags)
        assert done.returncode == 0 and done.stderr == "", done.stderr


def test_cli_start_up_does_not_import_scipy():
    """Nor numpy, nor a numeric layer: not for the parser, spacing,
    sensitivity, --help or a usage error, whether argparse or a command
    rejects it.  The loaded modules are printed after each step."""
    code = """if True:
        import contextlib, io, sys
        from accordion.cli import build_parser, main

        def loaded(step):
            print(step, sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy")
                               or m in [f"accordion.{layer}" for layer in
                                        ("fields", "instrument", "runfiles", "analysis")]))

        def exit_code(argv):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    return main(argv)
                except SystemExit as stop:
                    return stop.code

        build_parser()
        loaded("parser")
        assert exit_code(["spacing", "--wavelength", "0.532", "--focal", "30000",
                          "--separation", "19250", "--target-spacing", "1"]) == 0
        loaded("spacing")
        assert exit_code(["sensitivity", "--spacing", "10", "--deviations", "2.13,0"]) == 0
        loaded("sensitivity")
        assert exit_code(["--help"]) == 0
        assert exit_code(["sweep", "--help"]) == 0
        loaded("help")
        assert exit_code(["spacing", "--wavelength", "0.532"]) == 2
        assert exit_code(["sweep", "--preset", "nope"]) == 2
        loaded("argparse-usage-error")
        assert exit_code(["sensitivity", "--spacing", "10", "--deviations", "1e308"]) == 2
        assert exit_code(["spacing", "--wavelength", "0.532", "--focal", "30000",
                          "--separation", "19250", "--target-spacing", "0.1"]) == 2
        loaded("command-usage-error")
    """
    lines = run_fresh(code).splitlines()
    assert lines == [f"{step} []" for step in (
        "parser", "spacing", "sensitivity", "help", "argparse-usage-error",
        "command-usage-error")]


@pytest.mark.parametrize("command", ["sweep", "analyze"])
def test_a_sweep_or_analyze_process_holds_every_traced_layer(tmp_path, command):
    """bench/tracer.py patches the five layers it finds in sys.modules, after
    warming up on sweeps alone in one workload: either command loads them
    all, in a process that ran nothing else, and neither loads NumPy's
    masked arrays."""
    run = tmp_path / "fig4a"
    if command == "analyze":
        assert main(["sweep", "--preset", "fig4a", "--out", str(run)]) == 0
    argv = (["sweep", "--preset", "fig4a", "--out", str(run)] if command == "sweep"
            else ["analyze", str(run), "--out", str(tmp_path / "reports")])
    code = """if True:
        import contextlib, io, sys
        from accordion.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(sys.argv[1:]) == 0
        print(*sys.modules)
    """
    held = run_fresh(code, *argv).split()
    assert {f"accordion.{layer}" for layer in
            ("fields", "instrument", "runfiles", "analysis", "cli")} <= set(held)
    assert "numpy.ma" not in held
