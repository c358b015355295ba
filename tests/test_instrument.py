import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accordion import (
    BeamSpec,
    CameraModel,
    FrameRecord,
    LatticeConfig,
    MirrorDrive,
    OpticalParams,
    Trajectory,
    bs_translation_path_difference,
    build_trajectory,
    center_fringe_shift,
    fields,
    instrument,
    measure_frame,
    measure_run,
    render_frame,
    render_sequence,
    spacing_fourier,
    static_sweep,
)
from accordion.runfiles import read_manifest, read_pgm, write_manifest, write_pgm, write_run
from conftest import make_camera, make_config, render_simple
from oracles import digitized_frame, fraunhofer_row

FIG6B_DRIVE = MirrorDrive(initial_separation=43810.0, speed=20000.0,
                          travel=20000.0, dwell=0.5, frame_rate=30.0)

# a small camera, and the separations where make_config's lattice stops
# rendering on its pixels, each with its neighbouring floats: twice the
# focal length (160 mm), and a fringe of 4 pixels (about 124.7 mm)
SMALL_CAMERA = make_camera(sensor=(64, 8))
_dx = float(np.diff(SMALL_CAMERA.pixel_x()[:2])[0])
RENDER_LIMITS = [float(v) for limit in (2 * 80000.0, 0.532 * 80000.0 / (4 * _dx))
                 for v in (np.nextafter(limit, 0), limit, np.nextafter(limit, np.inf))]


@pytest.fixture
def rendered(monkeypatch):
    """The (separation, path difference), the number of rows and the widths
    of the blocks of each frame rendered so far, in any thread.  A frame
    computes its cross row once, one cross_row call, then renders its rows
    on the same thread in blocks, one fringes_into call each: a cross_row
    call starts its thread's entry, and each block adds its rows and its
    width to it."""
    calls = []
    current = threading.local()
    cross_row, fringes_into = instrument.cross_row, instrument.fringes_into

    def counting_cross_row(optics, separation, path_difference, x, cross_x):
        current.entry = [(separation, path_difference), 0, set()]
        calls.append(current.entry)
        return cross_row(optics, separation, path_difference, x, cross_x)

    def counting_fringes_into(out, envelope, cross_y, row):
        current.entry[1] += out.shape[0]
        current.entry[2].add(out.shape[1])
        return fringes_into(out, envelope, cross_y, row)

    monkeypatch.setattr(instrument, "cross_row", counting_cross_row)
    monkeypatch.setattr(instrument, "fringes_into", counting_fringes_into)
    return calls


def assert_each_frame_is_render_frame(traj, base, cam, workers=1):
    """Render the sweep and check frame i against render_frame of sample
    i's config; returns the frames.  render_frame renders through the same
    cross_row and fringes_into as the sweep: it runs on the unpatched ones,
    so the rendered fixture counts the sweep's frames only."""
    frames = list(render_sequence(traj, base, cam, workers=workers)[0])
    assert len(frames) == len(traj)
    counting = instrument.cross_row, instrument.fringes_into
    instrument.cross_row, instrument.fringes_into = fields.cross_row, fields.fringes_into
    try:
        for i, image in enumerate(frames):
            cfg = replace(base, optics=replace(base.optics,
                                               separation=float(traj.separations[i])),
                          path_difference=float(traj.path_differences[i]))
            assert np.array_equal(image, render_frame(cfg, cam, frame_index=i))
    finally:
        instrument.cross_row, instrument.fringes_into = counting
    return frames


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

    def test_midpoint_separation(self):
        # D = D0 - 2m: retroreflection doubles the mirror's shift.  Mirror
        # positions 0 and 20000 um (D = 43810 and 3810 um) are checked in
        # test_fast_sweep_sampling
        traj = build_trajectory(FIG6B_DRIVE)
        assert traj.mirror_positions[15] == pytest.approx(10000.0)
        assert traj.separations[15] == pytest.approx(23810.0)

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
        dict(initial_separation=43810.0, speed=1e4, travel=25000.0),  # overtravel
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
        with pytest.raises(ValueError, match="length does not match"):
            Trajectory(30.0, np.zeros(3), np.full(2, 1e4), np.zeros(2))
        with pytest.raises(ValueError, match="positive"):
            static_sweep([1e4, -1.0])
        with pytest.raises(ValueError, match="separations must be positive"):
            static_sweep([np.nan, 1e4])
        with pytest.raises(ValueError, match="path differences must be finite"):
            static_sweep([1e4, 2e4]).with_path_difference([0.0, np.nan])

    @pytest.mark.parametrize("field, values, message", [
        ("separations", [np.nan, 1e4], "separations must be positive"),
        ("frame_rate", np.nan, "frame_rate must be positive"),
        ("frame_rate", np.inf, "frame_rate must be positive"),
        ("frame_rate", 0.0, "frame_rate must be positive"),
        ("path_differences", [0.0, np.nan], "path differences must be finite"),
        ("path_differences", [np.inf, 0.0], "path differences must be finite"),
    ])
    def test_trajectory_rejects_nan(self, field, values, message):
        # NaN fails every comparison, so a check for bad values passes it
        n = 2
        arrays = dict(frame_rate=30.0, mirror_positions=np.zeros(n),
                      separations=np.full(n, 1e4), path_differences=np.zeros(n))
        arrays[field] = np.array(values)
        with pytest.raises(ValueError, match=message):
            Trajectory(**arrays)

    @pytest.mark.parametrize("separations", [[], [[1e4, 2e4]]], ids=["empty", "2-D"])
    def test_static_sweep_needs_a_non_empty_1d_sequence(self, separations):
        with pytest.raises(ValueError,
                           match="^separations must be a non-empty 1-D sequence$"):
            static_sweep(separations)

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
        assert img16.dtype == np.dtype(">u2")
        assert img16.max() > 255 >= img.max()

    @pytest.mark.parametrize("bit_depth", [8, 16])
    @pytest.mark.parametrize("cfg", [
        make_config(separation=43810.0),
        make_config(separation=3810.0, waist2=40.0, amp2=0.8, path_difference=0.1),
        make_config(separation=10000.0, path_difference=0.25),
        make_config(focal=30000.0, separation=19250.0, waist2=40.0, amp2=0.8),
    ], ids=["fig6b-start", "fig6b-far-unequal-beams", "10mm-quarter-wave", "ladder-start"])
    def test_center_row_digitizes_the_fraunhofer_row(self, cfg, bit_depth):
        # the digitizer's stores, checked against optics independent of the
        # renderer; an odd sensor height puts the center row on y = 0
        cam = make_camera(sensor=(640, 121), bit_depth=bit_depth)
        row = render_frame(cfg, cam)[60]
        expected = np.clip(np.rint(cam.exposure_gain * fraunhofer_row(cfg, cam.pixel_x())),
                           0, cam.full_scale)
        assert np.max(np.abs(row - expected)) <= 1


class TestRenderSequence:
    def test_single_sample_equals_render_frame(self):
        cfg = make_config(separation=20000.0)
        cam = make_camera(read_noise=1.0)
        traj = static_sweep([20000.0])
        frames, records = render_sequence(traj, cfg, cam)
        frames = list(frames)
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
        traj = Trajectory(10.0, np.array([0.0, 6905.0]),
                          np.array([43810.0, 30000.0]), np.array([0.0, 0.19]))
        frames = assert_each_frame_is_render_frame(traj, base, cam)
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
        frames, _ = render_sequence(static_sweep([19250.0, 5000.0]), cfg, make_camera())
        for image in frames:
            # projected at the measured period, within half a bin of lam*f/D
            assert measure_frame(image).contrast >= 0.99

    def test_half_wave_shift_moves_fringes_half_period(self):
        cfg = make_config(separation=8000.0)  # d = 5.32 um
        cam = make_camera()
        traj = static_sweep([8000.0, 8000.0])
        plain, recs = render_sequence(traj, cfg, cam)
        plain = list(plain)
        shifted = list(render_sequence(traj.with_path_difference(0.266), cfg, cam)[0])
        d_um = recs[0].analytic_spacing_um
        d_px = d_um / cam.pixel_scale

        def center_px(image):
            # one frame per run: across frames the half-period jump would be unwrapped
            (result,) = measure_run([image], [d_um], cam.pixel_scale)
            return result.position_um / cam.pixel_scale

        c0, c1 = center_px(plain[0]), center_px(shifted[0])
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

    @pytest.mark.parametrize("workers", [1, 2])
    @settings(max_examples=60, deadline=None)
    @given(separations=st.lists(st.sampled_from(RENDER_LIMITS) | st.floats(20000.0, 170000.0),
                                min_size=1, max_size=5))
    def test_fails_exactly_where_render_frame_fails(self, workers, separations):
        # render_sequence raises if and only if render_frame of some sample's
        # config does, naming the lowest such sample with its own message;
        # otherwise its frames are render_frame's
        base, cam = make_config(), SMALL_CAMERA
        expected, direct = None, []
        for i, separation in enumerate(separations):
            try:
                cfg = replace(base, optics=replace(base.optics, separation=separation))
                direct.append(render_frame(cfg, cam, i))
            except ValueError as err:
                expected = f"rendering failed at sample {i}: {err}"
                break
        if expected is None:
            frames, _ = render_sequence(static_sweep(separations), base, cam, workers)
            assert all(np.array_equal(f, d) for f, d in zip(frames, direct, strict=True))
        else:
            with pytest.raises(ValueError) as raised:
                render_sequence(static_sweep(separations), base, cam, workers)
            assert str(raised.value) == expected

    def test_overflowing_phase_fails_where_render_frame_fails(self):
        # dL = 1e308 is finite, but its fringe phase 2 pi dL/lam is not
        base = make_config(separation=43810.0)
        with pytest.raises(ValueError) as direct:
            replace(base, path_difference=1e308)
        with pytest.raises(ValueError) as raised:
            render_sequence(static_sweep([43810.0]).with_path_difference(1e308),
                            base, make_camera())
        assert str(raised.value) == f"rendering failed at sample 0: {direct.value}"

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers):
        traj = static_sweep([43810.0])
        with pytest.raises(ValueError, match="workers must be at least 1"):
            render_sequence(traj, make_config(), make_camera(), workers=workers)

    # the envelope needs 364 TiB, the pixel centres 728 TiB: beyond the 128
    # TiB of a 64-bit user address space, so NumPy refuses them at once,
    # whatever the host's overcommit
    @pytest.mark.parametrize("sensor, size", [((10**7, 10**7), "364. TiB"),
                                              ((2, 10**14), "728. TiB")],
                             ids=["envelope", "pixel-centres"])
    def test_an_unallocatable_sensor_is_a_value_error(self, sensor, size):
        cam = make_camera(sensor=sensor)
        message = "sensor %dx%d: Unable to allocate %s" % (*sensor, size)
        with pytest.raises(ValueError, match=message):
            render_sequence(static_sweep([43810.0]), make_config(), cam)
        with pytest.raises(ValueError, match=message):
            render_frame(make_config(), cam)

    def test_pool_under_thread_switch_stress(self):
        # more workers than cores, a thread switch every microsecond: every
        # pooled render must still equal the serial one byte for byte
        cfg = make_config(waist2=40.0, amp2=0.8)
        cam = make_camera(read_noise=3.0, seed=11, sensor=(160, 24), bit_depth=16)
        traj = static_sweep(np.linspace(43810.0, 20000.0, 13))
        serial, serial_records = render_sequence(traj, cfg, cam)
        serial = list(serial)
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
        frames = list(render_sequence(static_sweep([43810.0, 30000.0, 20000.0]),
                                      make_config(), cam, workers=2)[0])
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(frames) for b in frames[i + 1:])
        assert all(f.flags.owndata for f in frames)


class TestStreamedFrames:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_sample_is_checked_before_any_frame_renders(self, rendered, workers):
        traj = static_sweep([43810.0, 30000.0, 20000.0, 150000.0])
        with pytest.raises(ValueError, match="rendering failed at sample 3:"):
            render_sequence(traj, make_config(), make_camera(), workers=workers)
        assert rendered == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_frames_render_on_demand_in_sample_order(self, rendered, workers):
        cfg = make_config()
        cam = make_camera(read_noise=2.0, seed=5)
        traj = static_sweep(np.linspace(43810.0, 20000.0, 6))
        frames, records = render_sequence(traj, cfg, cam, workers=workers)
        assert rendered == [] and len(records) == 6
        for i, image in enumerate(frames):
            direct = render_frame(replace(cfg, optics=replace(
                cfg.optics, separation=records[i].separation_um)), cam, i)
            assert np.array_equal(image, direct)
        assert list(frames) == []  # single pass

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sampling_is_checked_once_per_sample(self, monkeypatch, workers):
        # render_sequence checks every sample before it returns, the last one
        # too; no rendered frame, nor a repeated one, checks its sampling again
        traj = build_trajectory(FIG6B_DRIVE)
        last_undersampled = replace(traj, separations=np.append(traj.separations[:-1],
                                                                150000.0))
        with pytest.raises(ValueError, match="rendering failed at sample 75: sampling"):
            render_sequence(last_undersampled, make_config(), make_camera(),
                            workers=workers)
        frames, records = render_sequence(traj, make_config(), make_camera(),
                                          workers=workers)

        def checked_while_rendering(*args):
            raise AssertionError("a sample's sampling was checked while frames render")

        monkeypatch.setattr(fields, "require_resolved", checked_while_rendering)
        monkeypatch.setattr(instrument, "require_resolved", checked_while_rendering)
        assert len(list(frames)) == len(records) == 76

    def test_closing_early_cancels_the_queue_and_joins_the_pool(self, rendered):
        workers = 2
        before = set(threading.enumerate())
        frames, _ = render_sequence(static_sweep(np.linspace(43810.0, 20000.0, 10)),
                                    make_config(), make_camera(read_noise=1.0),
                                    workers=workers)
        assert set(threading.enumerate()) == before  # no pool before the first next()
        taken = [next(frames) for _ in range(2)]
        frames.close()
        assert set(threading.enumerate()) == before
        # the two frames taken and at most one sample per worker ahead of them
        assert 2 <= len(rendered) <= 2 + workers
        assert len(taken) == 2 and list(frames) == []


class TestNoiseFreeRender:
    """Without read noise a sweep renders each run of identical samples
    once, and a frame the rows and columns up to the center where they
    mirror the rest."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("read_noise, calls, rows", [(0.0, 61, 60), (2.0, 76, 120)])
    def test_fig6b_render_counts(self, rendered, workers, read_noise, calls, rows):
        # both beams on the axis: the 60 rows of 120 up to the center, and
        # the 16 dwell frames share one config; read noise makes every pixel
        # differ, and a noisy frame renders 2 blocks of rows, the second
        # reading the first's envelope rows backwards, but its cross row once
        frames, _ = render_sequence(build_trajectory(FIG6B_DRIVE), make_config(),
                                    make_camera(read_noise=read_noise), workers=workers)
        assert sum(1 for _ in frames) == 76
        assert [n for _, n, _ in rendered] == [rows] * calls

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sensor, read_noise, path_difference, width", [
        ((640, 120), 0.0, 0.0, 320), ((641, 121), 0.0, 0.0, 321),
        ((640, 120), 2.0, 0.0, 640), ((640, 120), 0.0, 0.1, 640)])
    def test_fig6b_renders_mirror_columns_once(self, rendered, workers, sensor,
                                               read_noise, path_difference, width):
        # both beams on the axis at zero path difference: every row reads the
        # same reversed, so a noise-free frame renders the columns up to the
        # center and copies their mirror; read noise or a path difference
        # renders every column
        cfg = make_config(path_difference=path_difference)
        cam = make_camera(read_noise=read_noise, sensor=sensor)
        traj = build_trajectory(FIG6B_DRIVE).with_path_difference(path_difference)
        frames, _ = render_sequence(traj, cfg, cam, workers=workers)
        for i, image in enumerate(frames):
            cfg_i = replace(cfg, optics=replace(cfg.optics,
                                                separation=float(traj.separations[i])))
            assert np.array_equal(image, digitized_frame(cfg_i, cam, i))
        assert {w for _, _, widths in rendered for w in widths} == {width}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_beams_offset_in_y_repeat_no_row(self, rendered, workers):
        # beams off the axis in y: no row mirrors another, so every row renders
        base = LatticeConfig(OpticalParams(0.532, 80000.0, 43810.0),
                             BeamSpec(36.0, 1.0, (0.0, 2.0)), BeamSpec(36.0, 0.8, (0.0, -2.0)))
        traj = static_sweep([43810.0, 30000.0, 20000.0])
        assert_each_frame_is_render_frame(traj, base, make_camera(), workers)
        assert [n for _, n, _ in rendered] == [120] * 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_path_difference_changed_mid_dwell_is_rendered(self, rendered, workers):
        drive = MirrorDrive(initial_separation=43810.0, speed=20000.0,
                            travel=5000.0, dwell=0.2, frame_rate=30.0)
        traj = build_trajectory(drive)
        held = np.flatnonzero(traj.mirror_positions == drive.travel)
        assert held.size == 6
        path = np.where(np.arange(len(traj)) >= held[3], 0.1, 0.0)
        frames = assert_each_frame_is_render_frame(
            traj.with_path_difference(path), make_config(), make_camera(), workers)
        assert not np.array_equal(frames[held[3]], frames[held[2]])
        # the hold renders twice, once per path difference
        assert len(rendered) == len(traj) - held.size + 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_consumer_cannot_change_a_repeated_frame(self, workers):
        cfg, cam = make_config(), make_camera()
        frames, _ = render_sequence(static_sweep([43810.0, 43810.0]), cfg, cam,
                                    workers=workers)
        first = next(frames)
        with pytest.raises(ValueError, match="read-only"):
            first[:] = 0
        assert np.array_equal(next(frames), render_frame(cfg, cam, frame_index=1))


def record_empty(monkeypatch):
    """Every array instrument allocates with np.empty, with the thread that
    allocated it, (array, thread id), through a stand-in for instrument.np."""
    made = []

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape, dtype=float):
            array = np.empty(shape, dtype)
            made.append((array, threading.get_ident()))
            return array

    monkeypatch.setattr(instrument, "np", RecordingNumpy())
    return made


class TestFrameAllocation:
    @pytest.mark.parametrize("read_noise", [0.0, 2.0])
    def test_a_pooled_sweep_allocates_its_frames_on_the_consuming_thread(
            self, monkeypatch, read_noise):
        # each frame comes from the heap of the thread that iterates the
        # sweep; the pool's threads allocate only their float64 blocks
        cam = make_camera(read_noise=read_noise)
        made = record_empty(monkeypatch)
        frames, _ = render_sequence(static_sweep(np.linspace(43810.0, 20000.0, 6)),
                                    make_config(), cam, workers=2)
        here = threading.get_ident()
        for image in frames:
            assert any(array is image for array, _ in made)
        frames_made = [(array, thread) for array, thread in made
                       if array.shape == cam.sensor[::-1] and array.dtype == cam.dtype]
        blocks_made = {thread for array, thread in made if array.dtype == np.float64}
        assert {thread for _, thread in frames_made} == {here}
        assert blocks_made and here not in blocks_made

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_noise_free_sweep_allocates_no_integer_array_but_its_frames(
            self, monkeypatch, workers):
        # a noise-free frame renders its rows up to the center straight into
        # the frame and copies their mirror there: no integer temporary
        cam = make_camera()
        made = record_empty(monkeypatch)
        frames, _ = render_sequence(static_sweep(np.linspace(43810.0, 20000.0, 6)),
                                    make_config(), cam, workers=workers)
        assert sum(1 for _ in frames) == 6
        integer = [(array.shape, array.dtype) for array, _ in made
                   if array.dtype.kind in "iu"]
        assert integer == [(cam.sensor[::-1], cam.dtype)] * 6


# every sensor row count up to 90 at widths up to 1500, and sensors wider
# than one row block (1 row per block) with up to 3 rows
sensors = st.one_of(
    st.tuples(st.integers(2, 1500), st.integers(1, 90)),
    st.tuples(st.integers(instrument._BLOCK_ELEMENTS + 1, 50000), st.integers(1, 3)))
# the y center offsets of (beam_plus, beam_minus): both on the axis, both
# off it by the same amount either way, or one of them off it
offsets_y = st.sampled_from([(0.0, 0.0), (0.5, 0.5), (-0.5, -0.5), (0.5, 0.0)])


def offset_in_y(cfg, offsets):
    """cfg with its beams' y center offsets replaced by offsets."""
    plus, minus = (replace(beam, center_offset=(beam.center_offset[0], y))
                   for beam, y in zip((cfg.beam_plus, cfg.beam_minus), offsets))
    return replace(cfg, beam_plus=plus, beam_minus=minus)


class TestBlockedRender:
    """Frames are rendered and digitized one block of rows at a time, with
    the bytes of the whole frame at once."""

    @settings(max_examples=60, deadline=None)
    @given(sensor=sensors, bit_depth=st.sampled_from([8, 16]),
           read_noise=st.sampled_from([0.0, 0.7, 40.0]),
           separation=st.floats(5000.0, 43810.0), over=st.floats(0.5, 2.0),
           seed=st.integers(0, 2**32), offsets=offsets_y)
    @example(sensor=(640, 1), bit_depth=8, read_noise=2.0, separation=43810.0,
             over=1.0, seed=0, offsets=(0.0, 0.0))
    @example(sensor=(1283, 241), bit_depth=16, read_noise=40.0, separation=19250.0,
             over=1.0, seed=1, offsets=(0.0, 0.0))
    @example(sensor=(1283, 241), bit_depth=8, read_noise=0.0, separation=19250.0,
             over=1.0, seed=1, offsets=(0.0, 0.0))
    @example(sensor=(50000, 3), bit_depth=16, read_noise=40.0, separation=43810.0,
             over=1.5, seed=2, offsets=(0.0, 0.0))
    @example(sensor=(1283, 241), bit_depth=16, read_noise=40.0, separation=19250.0,
             over=1.0, seed=1, offsets=(0.5, 0.0))
    def test_blocked_frames_equal_the_unblocked_oracle(
            self, sensor, bit_depth, read_noise, separation, over, seed, offsets):
        cfg = offset_in_y(make_config(separation=separation, waist2=40.0, amp2=0.8),
                          offsets)
        cam = make_camera(read_noise=read_noise, seed=seed, sensor=sensor,
                          bit_depth=bit_depth,
                          gain=over * ((1 << bit_depth) - 1) / 3.24)
        assert np.array_equal(render_frame(cfg, cam, 3), digitized_frame(cfg, cam, 3))
        traj = static_sweep([separation, 0.8 * separation])
        for workers in (1, 2):
            frames, _ = render_sequence(traj, cfg, cam, workers=workers)
            for i, image in enumerate(frames):
                cfg_i = replace(cfg, optics=replace(cfg.optics,
                                                    separation=float(traj.separations[i])))
                assert np.array_equal(image, digitized_frame(cfg_i, cam, i))

    @settings(max_examples=40, deadline=None)
    @given(width=st.integers(2, 700), height=st.integers(1, 30),
           path_difference=st.sampled_from([0.0, 0.1, -0.37]),
           waist2=st.sampled_from([36.0, 40.0]), amp2=st.sampled_from([1.0, 0.8]),
           offset_x=st.sampled_from([0.0, 0.5, -20.0]),
           separation=st.floats(5000.0, 43810.0), offsets=offsets_y)
    @example(width=640, height=120, path_difference=0.0, waist2=36.0, amp2=1.0,
             offset_x=0.0, separation=43810.0, offsets=(0.0, 0.0))
    @example(width=641, height=121, path_difference=0.0, waist2=40.0, amp2=0.8,
             offset_x=0.0, separation=19250.0, offsets=(0.0, 0.0))
    @example(width=641, height=121, path_difference=0.1, waist2=36.0, amp2=1.0,
             offset_x=0.0, separation=43810.0, offsets=(0.0, 0.0))
    @example(width=640, height=120, path_difference=0.0, waist2=36.0, amp2=1.0,
             offset_x=0.5, separation=43810.0, offsets=(0.0, 0.0))
    @example(width=641, height=121, path_difference=0.0, waist2=36.0, amp2=1.0,
             offset_x=0.0, separation=43810.0, offsets=(-0.5, -0.5))
    @example(width=640, height=120, path_difference=0.0, waist2=36.0, amp2=1.0,
             offset_x=0.0, separation=43810.0, offsets=(0.5, 0.0))
    def test_noise_free_frames_equal_the_unblocked_oracle(
            self, width, height, path_difference, waist2, amp2, offset_x, separation,
            offsets):
        # mirror rows are rendered once only with both beams centred in y, and
        # mirror columns only where the frame reads the same reversed bit for
        # bit; any other frame renders its full height or width
        cfg = offset_in_y(LatticeConfig(OpticalParams(0.532, 80000.0, separation),
                                        BeamSpec(36.0, 1.0, (offset_x, 0.0)),
                                        BeamSpec(waist2, amp2), path_difference),
                          offsets)
        cam = make_camera(sensor=(width, height))
        assert np.array_equal(render_frame(cfg, cam), digitized_frame(cfg, cam))
        traj = static_sweep([separation, 0.8 * separation]).with_path_difference(
            path_difference)
        for workers in (1, 2):
            frames, _ = render_sequence(traj, cfg, cam, workers=workers)
            for i, image in enumerate(frames):
                cfg_i = replace(cfg, optics=replace(cfg.optics,
                                                    separation=float(traj.separations[i])))
                assert np.array_equal(image, digitized_frame(cfg_i, cam, i))

    def test_a_noisy_sweep_holds_no_float64_frame(self):
        # the ladder's camera: fine fringes on a 1280 x 240 16-bit sensor
        cfg = make_config(focal=30000.0, separation=19250.0, amp2=0.8)
        cam = make_camera(read_noise=40.0, sensor=(1280, 240), bit_depth=16)
        traj = static_sweep(np.linspace(19250.0, 5000.0, 4))
        float_frame, envelope = 1280 * 240 * 8, 120 * 1280 * 8  # bytes
        # a first sweep imports and caches whatever the render path needs
        list(render_sequence(traj, cfg, cam)[0])
        tracemalloc.start()
        try:
            frames, _ = render_sequence(traj, cfg, cam, workers=1)
            for _ in frames:
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - envelope < float_frame

    @pytest.mark.parametrize("workers, frames_held", [(1, 3), (2, 6)])
    def test_a_written_noisy_sweep_holds_the_frames_in_flight(
            self, tmp_path, workers, frames_held):
        # beyond the envelope of its 120 rows up to the center, a sweep that
        # write_run consumes holds per worker the frame being rendered and
        # two float64 blocks of 0.53 frames each, and with a pool the frame
        # being written: about 2.2 integer frames on 1 worker and 5.3 on 2
        cfg = make_config(focal=30000.0, separation=19250.0, amp2=0.8)
        cam = make_camera(read_noise=40.0, sensor=(1280, 240), bit_depth=16)
        traj = static_sweep(np.linspace(19250.0, 5000.0, 6))
        frame, envelope = 1280 * 240 * 2, 120 * 1280 * 8  # bytes
        write_run(tmp_path, *render_sequence(traj, cfg, cam, workers=workers))
        tracemalloc.start()
        try:
            write_run(tmp_path, *render_sequence(traj, cfg, cam, workers=workers))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - envelope < frames_held * frame

    @pytest.mark.parametrize("read_noise", [0.0, 3.0])
    def test_rows_past_both_beams_mirror_like_the_rest(self, rendered, read_noise):
        # a sensor 2.4 mm tall at 1 um per pixel: both beams' y-factors
        # underflow to 0 beyond about 1.1 mm, and those rows mirror like any
        # other: a noise-free frame renders the 1200 rows up to the center,
        # a noisy one all 2400
        cfg = make_config(separation=10000.0, waist2=40.0, amp2=0.8)
        cam = make_camera(read_noise=read_noise, sensor=(64, 2400), pixel_scale=1.0)
        frames, _ = render_sequence(static_sweep([10000.0]), cfg, cam)
        assert np.array_equal(next(frames), digitized_frame(cfg, cam, 0))
        assert [n for _, n, _ in rendered] == [2400 if read_noise else 1200]

    @given(rows_half=st.integers(1, 300).flatmap(
               lambda rows: st.tuples(st.just(rows), st.integers((rows + 1) // 2, rows))),
           width=st.integers(2, 3 * instrument._BLOCK_ELEMENTS))
    def test_row_blocks_read_every_row_in_order(self, rows_half, width):
        rows, half = rows_half
        step = max(1, instrument._BLOCK_ELEMENTS // width)
        blocks = list(instrument._row_blocks(rows, half, width))
        assert [r for frame_rows, _ in blocks for r in range(rows)[frame_rows]] \
            == list(range(rows))
        for frame_rows, src in blocks:
            assert frame_rows.stop - frame_rows.start <= step
            # row r reads envelope row r below half, and its mirror past it
            assert np.arange(half)[src].tolist() == [
                r if r < half else rows - 1 - r for r in range(rows)[frame_rows]]


def central_rows(frames):
    """The space-time composite of frames: each one's central row, stacked."""
    return np.stack([f[f.shape[0] // 2] for f in frames])


class TestComposite:
    def test_stationary_rows_identical(self):
        cfg = make_config(separation=20000.0)
        cam = make_camera(read_noise=0.0)
        frames = list(render_sequence(static_sweep([20000.0] * 5), cfg, cam)[0])
        comp = central_rows(frames)
        assert comp.shape == (5, 640)
        assert all(np.array_equal(comp[0], row) for row in comp)

    def test_two_frames_two_rows(self, tmp_path):
        frames = [np.zeros((4, 8), np.uint8), np.ones((6, 8), np.uint8)]
        records = [FrameRecord(f"frame_{i:04d}.pgm", 0.1 * i, 0.0, 1000.0, 1.0, 0.0)
                   for i in range(2)]
        write_run(tmp_path, frames, records)
        assert read_pgm(tmp_path / "composite.pgm").shape == (2, 8)

    def test_center_column_stays_bright_through_sweep(self):
        cfg = make_config()
        frames = list(render_sequence(build_trajectory(FIG6B_DRIVE), cfg, make_camera())[0])
        comp = central_rows(frames)
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
        assert back.dtype == np.dtype(">u2")
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
