import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from accordion import (
    BeamSpec,
    CameraModel,
    LatticeConfig,
    MirrorDrive,
    OpticalParams,
    Trajectory,
    bs_translation_path_difference,
    build_trajectory,
    center_fringe_shift,
    measure_contrast,
    mirror_to_separation,
    render_frame,
    render_sequence,
    spacetime_composite,
    spacing_fourier,
    static_sweep,
)
from accordion.runfiles import read_manifest, read_pgm, write_manifest, write_pgm
from conftest import PIXEL_SCALE, make_camera, make_config, render_simple

FIG6B_DRIVE = MirrorDrive(initial_separation=43810.0, speed=20000.0,
                          travel=20000.0, dwell=0.5, frame_rate=30.0)


class TestMirrorToSeparation:
    def test_full_travel(self):
        assert mirror_to_separation(20000.0, 43810.0) == pytest.approx(3810.0)

    def test_no_displacement(self):
        assert mirror_to_separation(0.0, 43810.0) == 43810.0

    def test_midpoint(self):
        assert mirror_to_separation(10000.0, 43810.0) == pytest.approx(23810.0)

    def test_overtravel_rejected(self):
        with pytest.raises(ValueError):
            mirror_to_separation(25000.0, 43810.0)


class TestBuildTrajectory:
    def test_fast_sweep_sampling(self):
        traj = build_trajectory(FIG6B_DRIVE)
        assert len(traj) == 76
        assert traj.times[-1] == pytest.approx(2.5)
        assert traj.separations[0] == 43810.0
        assert traj.separations.min() == pytest.approx(3810.0)
        assert traj.separations[-1] == pytest.approx(43810.0)
        assert np.all(traj.path_differences == 0.0)
        # dwell spans t in [1.0, 1.5]: frames 30..45 inclusive
        dwell = np.flatnonzero(np.isclose(traj.separations, 3810.0))
        assert dwell[0] == 30 and dwell[-1] == 45

    def test_slow_sweep_duration(self):
        drive = MirrorDrive(43810.0, 10000.0, 20000.0, 0.5, 30.0)
        traj = build_trajectory(drive)
        assert len(traj) == 136
        assert traj.times[-1] == pytest.approx(4.5)
        out_end = np.flatnonzero(np.isclose(traj.separations, 3810.0))[0]
        assert traj.times[out_end] == pytest.approx(2.0)

    def test_zero_dwell_is_palindromic(self):
        drive = MirrorDrive(43810.0, 20000.0, 20000.0, 0.0, 30.0)
        traj = build_trajectory(drive)
        assert len(traj) == 61
        assert np.allclose(traj.separations, traj.separations[::-1])

    def test_piecewise_linear_slopes(self):
        traj = build_trajectory(FIG6B_DRIVE)
        slopes = np.diff(traj.separations) * FIG6B_DRIVE.frame_rate
        moving_out = slopes[:29]
        dwell = slopes[31:44]
        moving_back = slopes[46:]
        assert np.allclose(moving_out, -2 * FIG6B_DRIVE.speed)
        assert np.allclose(dwell, 0.0)
        assert np.allclose(moving_back, +2 * FIG6B_DRIVE.speed)

    @pytest.mark.parametrize("kwargs", [
        dict(initial_separation=43810.0, speed=0.0, travel=20000.0),
        dict(initial_separation=43810.0, speed=1e4, travel=0.0),
        dict(initial_separation=43810.0, speed=1e4, travel=20000.0, frame_rate=0.0),
        dict(initial_separation=40000.0, speed=1e4, travel=20000.0),  # D -> 0
        dict(initial_separation=43810.0, speed=1e4, travel=20000.0, dwell=-1.0),
    ])
    def test_invalid_drives_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MirrorDrive(**kwargs)

    @pytest.mark.parametrize("dwell", [float("nan"), float("inf")])
    def test_nonfinite_dwell_rejected(self, dwell):
        with pytest.raises(ValueError, match="dwell must be >= 0 and finite"):
            MirrorDrive(initial_separation=43810.0, speed=1e4, travel=20000.0, dwell=dwell)

    def test_path_difference_injection(self):
        traj = build_trajectory(FIG6B_DRIVE)
        stepped = traj.with_path_difference(np.where(traj.times >= 1.25, 0.5, 0.0))
        assert stepped.path_differences[0] == 0.0
        assert stepped.path_differences[-1] == 0.5
        constant = traj.with_path_difference(0.266)
        assert np.all(constant.path_differences == 0.266)
        explicit = traj.with_path_difference(np.linspace(0, 1, len(traj)))
        assert explicit.path_differences[-1] == 1.0

    def test_trajectory_validation(self):
        with pytest.raises(ValueError, match="uniform"):
            Trajectory(np.array([0.0, 0.1, 0.3]), np.zeros(3),
                       np.full(3, 1e4), np.zeros(3))
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(np.array([0.0, 0.0]), np.zeros(2),
                       np.full(2, 1e4), np.zeros(2))
        with pytest.raises(ValueError, match="positive"):
            static_sweep([1e4, -1.0])

    @pytest.mark.parametrize("frame_rate", [0.0, -30.0, float("nan"), float("inf")])
    def test_static_sweep_needs_positive_finite_frame_rate(self, frame_rate):
        with pytest.raises(ValueError, match="frame_rate must be positive"):
            static_sweep([19250.0, 12000.0], frame_rate=frame_rate)


class TestBsTranslation:
    def test_doubles_the_deviation(self):
        assert bs_translation_path_difference(2.13) == pytest.approx(4.26)
        assert bs_translation_path_difference(0.0) == 0.0
        assert bs_translation_path_difference(-1.5) == -3.0

    def test_shift_at_ten_micron_spacing(self):
        path = bs_translation_path_difference(2.13)
        cfg = make_config(separation=4256.0, path_difference=path)  # d = 10 um
        shift = center_fringe_shift(cfg)
        assert abs(shift) / 10.0 == pytest.approx(8.0075, abs=5e-4)
        assert abs(shift) == pytest.approx(80.075, abs=5e-3)


class TestCameraModel:
    @pytest.mark.parametrize("kwargs", [
        dict(pixel_scale=0.0),
        dict(bit_depth=12),
        dict(read_noise=-1.0),
        dict(exposure_gain=0.0),
        dict(seed=-1),
        dict(sensor=(1, 1)),
        dict(read_noise=float("nan")),
        dict(read_noise=float("inf")),
        dict(exposure_gain=float("nan")),
        dict(exposure_gain=float("inf")),
    ])
    def test_invalid_cameras_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CameraModel(**kwargs)

    def test_full_scale(self):
        assert CameraModel(bit_depth=8).full_scale == 255
        assert CameraModel(bit_depth=16).full_scale == 65535


class TestRenderFrame:
    def test_extremes_hit_full_scale_and_zero(self):
        # pixel centres on multiples of the pixel scale, fringe period
        # 12 px: trough lands exactly on a pixel center
        ps = 0.0853
        d = 12 * ps
        cfg = make_config(separation=0.532 * 80000 / d)
        cam = CameraModel(pixel_scale=ps, sensor=(641, 31), bit_depth=8,
                          exposure_gain=255 / 4.0)
        img = render_frame(cfg, cam)
        assert img.dtype == np.uint8
        assert img[15, 320] == 255          # central bright fringe
        assert img[15, 320 + 6] == 0        # adjacent dark fringe

    def test_bit_identical_for_same_seed_and_index(self):
        a = render_simple(20000.0, read_noise=2.0, seed=9, frame_index=4)
        b = render_simple(20000.0, read_noise=2.0, seed=9, frame_index=4)
        c = render_simple(20000.0, read_noise=2.0, seed=9, frame_index=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sixteen_bit_output(self):
        cam = make_camera(bit_depth=16, gain=65535 / 4.0)
        img = render_simple(20000.0)  # 8-bit default for contrast
        img16 = render_frame(make_config(separation=20000.0), cam)
        assert img16.dtype == np.uint16
        assert img16.max() > 255 >= img.max()


class TestRenderSequence:
    def test_single_sample_equals_render_frame(self):
        cfg = make_config(separation=20000.0)
        cam = make_camera(read_noise=1.0)
        traj = static_sweep([20000.0])
        frames, records = render_sequence(traj, cfg, cam)
        assert len(frames) == 1
        direct = render_frame(cfg, cam, frame_index=0)
        assert np.array_equal(frames[0], direct)
        assert records[0].frame == "frame_0000.pgm"
        assert records[0].analytic_spacing_um == pytest.approx(
            spacing_fourier(cfg.optics))

    def test_each_frame_equals_render_frame_of_its_own_config(self):
        # the beam envelopes are computed once per sweep; D and dL differ per
        # frame and must not leak into them
        base = LatticeConfig(OpticalParams(0.532, 80000.0, 43810.0),
                             BeamSpec(30.0, 1.0, (5.0, -3.0)), BeamSpec(42.0, 0.7))
        cam = make_camera(read_noise=1.5, seed=4, gain=255 / 1.7 ** 2)
        traj = Trajectory(np.array([0.0, 0.1]), np.array([0.0, 6905.0]),
                          np.array([43810.0, 30000.0]), np.array([0.0, 0.19]))
        frames, _ = render_sequence(traj, base, cam)
        for i, image in enumerate(frames):
            cfg = replace(base, optics=replace(base.optics,
                                               separation=float(traj.separations[i])),
                          path_difference=float(traj.path_differences[i]))
            direct = render_frame(cfg, cam, frame_index=i)
            assert np.array_equal(image, direct)
        assert not np.array_equal(frames[0], frames[1])

    def test_parallel_matches_serial(self):
        cfg = make_config()
        cam = make_camera(read_noise=2.0, seed=3)
        traj = static_sweep(np.linspace(43810.0, 20000.0, 12))
        serial, _ = render_sequence(traj, cfg, cam, workers=1)
        parallel, _ = render_sequence(traj, cfg, cam, workers=4)
        assert all(np.array_equal(s, p) for s, p in zip(serial, parallel))

    def test_fine_fringes_keep_full_contrast(self):
        # fig4b optics: 9.7 px fringes at D = 19.25 mm, equal beams
        cfg = make_config(focal=30000.0, separation=19250.0)
        frames, records = render_sequence(static_sweep([19250.0, 5000.0]), cfg,
                                          make_camera())
        for image, rec in zip(frames, records):
            d_px = rec.analytic_spacing_um / PIXEL_SCALE
            assert measure_contrast(image, d_px) >= 0.99

    def test_half_wave_shift_moves_fringes_half_period(self):
        from accordion import extract_fringe_phase
        cfg = make_config(separation=8000.0)  # d = 5.32 um
        cam = make_camera()
        traj = static_sweep([8000.0, 8000.0])
        plain, recs = render_sequence(traj, cfg, cam)
        shifted, _ = render_sequence(traj.with_path_difference(0.266), cfg, cam)
        d_px = recs[0].analytic_spacing_um / cam.pixel_scale
        _, c0 = extract_fringe_phase(plain[0], d_px)
        _, c1 = extract_fringe_phase(shifted[0], d_px)
        assert abs(c1 - c0) == pytest.approx(d_px / 2, abs=0.05)

    def test_failure_reports_sample_index(self):
        cfg = make_config()
        # second separation gives d = 0.28 um, 3.3 px: undersampled
        traj = static_sweep([43810.0, 150000.0])
        with pytest.raises(ValueError, match="sample 1"):
            render_sequence(traj, cfg, make_camera())

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_pooled_failure_reports_lowest_sample(self, workers):
        # samples 1 and 2 are undersampled and, with two or more workers,
        # rendered at once: the lower one must be reported whichever fails first
        traj = static_sweep([43810.0, 150000.0, 150000.0, 43810.0])
        with pytest.raises(ValueError, match="sample 1:"):
            render_sequence(traj, make_config(), make_camera(), workers=workers)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers):
        traj = static_sweep([43810.0])
        with pytest.raises(ValueError, match="workers must be at least 1"):
            render_sequence(traj, make_config(), make_camera(), workers=workers)

    def test_pool_under_thread_switch_stress(self):
        # more workers than cores, a thread switch every microsecond: every
        # pooled render must still equal the serial one byte for byte
        cfg = make_config(waist2=40.0, amp2=0.8)
        cam = make_camera(read_noise=3.0, seed=11, sensor=(160, 24), bit_depth=16)
        traj = static_sweep(np.linspace(43810.0, 20000.0, 13))
        serial, serial_records = render_sequence(traj, cfg, cam)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 2.0
            rounds = 0
            while rounds < 3 or (time.monotonic() < deadline and rounds < 50):
                frames, records = render_sequence(traj, cfg, cam, workers=5)
                assert records == serial_records
                assert all(f.tobytes() == s.tobytes() for f, s in zip(frames, serial))
                rounds += 1
        finally:
            sys.setswitchinterval(interval)

    def test_frames_do_not_share_scratch_memory(self):
        cam = make_camera(read_noise=2.0)
        frames, _ = render_sequence(static_sweep([43810.0, 30000.0, 20000.0]),
                                    make_config(), cam, workers=2)
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(frames) for b in frames[i + 1:])
        assert all(f.flags.owndata for f in frames)


class TestComposite:
    def test_stationary_rows_identical(self):
        cfg = make_config(separation=20000.0)
        cam = make_camera(read_noise=0.0)
        frames, _ = render_sequence(static_sweep([20000.0] * 5), cfg, cam)
        comp = spacetime_composite(frames)
        assert comp.shape == (5, 640)
        assert all(np.array_equal(comp[0], row) for row in comp)

    def test_two_frames_two_rows(self):
        frames = [np.zeros((4, 8), np.uint8), np.ones((6, 8), np.uint8)]
        assert spacetime_composite(frames).shape == (2, 8)

    def test_rejects_mismatched_widths_and_single_frame(self):
        with pytest.raises(ValueError, match="width"):
            spacetime_composite([np.zeros((4, 8), np.uint8),
                                 np.zeros((4, 9), np.uint8)])
        with pytest.raises(ValueError, match="2 frames"):
            spacetime_composite([np.zeros((4, 8), np.uint8)])

    def test_center_column_stays_bright_through_sweep(self):
        cfg = make_config()
        frames, _ = render_sequence(build_trajectory(FIG6B_DRIVE), cfg, make_camera())
        comp = spacetime_composite(frames)
        center = comp[:, 319:321].max(axis=1)
        assert center.min() >= 200


class TestRunFiles:
    def test_pgm_round_trip_8bit(self, tmp_path):
        img = (np.arange(48, dtype=np.uint8) * 5).reshape(6, 8)
        write_pgm(tmp_path / "t.pgm", img)
        back = read_pgm(tmp_path / "t.pgm")
        assert back.dtype == np.uint8
        assert np.array_equal(back, img)

    def test_pgm_round_trip_16bit(self, tmp_path):
        img = (np.arange(48, dtype=np.uint16) * 1311).reshape(6, 8)
        write_pgm(tmp_path / "t.pgm", img)
        back = read_pgm(tmp_path / "t.pgm")
        assert back.dtype == np.uint16
        assert np.array_equal(back, img)

    def test_pgm_header_is_p5(self, tmp_path):
        write_pgm(tmp_path / "t.pgm", np.zeros((2, 3), np.uint8))
        raw = (tmp_path / "t.pgm").read_bytes()
        assert raw.startswith(b"P5\n3 2\n255\n")
        assert len(raw) == len(b"P5\n3 2\n255\n") + 6

    @pytest.mark.parametrize("raw, problem", [
        (b"P5\n3 2\n", "three integers"),
        (b"P5\n3 x 255\n" + bytes(6), "three integers"),
        (b"P5\n3 2\n0\n" + bytes(6), "outside 1..65535"),
        (b"P5\n3 2\n70000\n" + bytes(12), "outside 1..65535"),
        (b"P5\n3 2\n255\n" + bytes(5), "payload"),
        (b"P5\n3 2\n1000\n" + bytes(11), "payload"),
        (b"P5\n3 2\n100\n" + bytes([0, 1, 2, 3, 4, 101]), "exceeds maxval"),
        (b"P5\n3 2\n1000\n" + bytes(10) + b"\x03\xe9", "exceeds maxval"),
    ], ids=["two-tokens", "non-integer", "maxval-0", "maxval-70000", "short-8bit",
            "short-16bit", "sample-over-maxval-8bit", "sample-over-maxval-16bit"])
    def test_malformed_pgm_rejected_with_path(self, tmp_path, raw, problem):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=problem) as err:
            read_pgm(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("raw", [b"P5 0 5 255\n", b"P5\n3 0\n255\n"],
                             ids=["zero-width", "zero-height"])
    def test_empty_pgm_rejected_with_path(self, tmp_path, raw):
        path = tmp_path / "empty.pgm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="empty") as err:
            read_pgm(path)
        assert str(path) in str(err.value)

    def test_manifest_round_trip(self, tmp_path):
        cfg = make_config()
        frames, records = render_sequence(static_sweep([43810.0, 30000.0]),
                                          cfg, make_camera())
        write_manifest(tmp_path / "manifest.csv", records)
        back = read_manifest(tmp_path / "manifest.csv")
        assert back == records
        header = (tmp_path / "manifest.csv").read_text().splitlines()[0]
        assert header == ("frame,time_s,mirror_um,separation_um,"
                          "analytic_spacing_um,path_difference_um")
