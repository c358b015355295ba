import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accordion import (
    AnalysisError,
    FringeMeasurement,
    LatticeConfig,
    NoFringeError,
    OpticalParams,
    calibrate_pixel_scale,
    extract_fringe_phase,
    extract_period,
    fit_knife_edge,
    fringe_profile,
    knife_edge_waist,
    measure_contrast,
    measure_frame,
    measure_run,
    render_frame,
    render_sequence,
    spacing_fourier,
    static_sweep,
)
from accordion.fields import BeamSpec
from conftest import PIXEL_SCALE, WAVELENGTH, make_camera, make_config, render_simple
from oracles import autocorr_period, beam_intensity, half_plane_knife_profile


def separation_for_pixel_period(period_px, focal=80000.0):
    return WAVELENGTH * focal / (period_px * PIXEL_SCALE)


class TestExtractPeriod:
    def test_known_pixel_period(self):
        img = render_simple(separation_for_pixel_period(11.25))
        period, sigma = extract_period(img)
        assert period == pytest.approx(11.25, abs=0.05)
        assert sigma >= 0.0
        assert autocorr_period(img) == pytest.approx(period, rel=5e-3)

    def test_small_spacing_maps_to_expected_pixels(self):
        # 0.96 um lattice on the 0.0853 um/px camera: 11.254 px
        img = render_simple(WAVELENGTH * 80000 / 0.96)
        period, _ = extract_period(img)
        assert period == pytest.approx(0.96 / PIXEL_SCALE, abs=0.05)

    def test_uniform_image_has_no_fringe(self):
        with pytest.raises(NoFringeError, match="no fringe"):
            extract_period(np.full((120, 640), 37, dtype=np.uint8))

    def test_too_few_periods_rejected(self):
        img = render_simple(separation_for_pixel_period(320.0))
        with pytest.raises(AnalysisError, match="fewer than 3"):
            extract_period(img)

    def test_undersampled_fringe_rejected(self):
        # a 3.2 px fringe, which render_frame refuses to render: fewer than
        # 4 pixels per period
        fringe = np.cos(2 * math.pi * np.arange(640) / 3.2)
        img = np.rint(127.5 + 127.5 * np.tile(fringe, (120, 1))).astype(np.uint8)
        with pytest.raises(AnalysisError, match="samples per fringe"):
            extract_period(img)

    def test_spacing_law_trend(self):
        # f = 30 mm ladder: extracted period tracks lam*f/D
        for sep in (5000.0, 10000.0, 15000.0, 19250.0):
            img = render_simple(sep, focal=30000.0, waist=36.0)
            period, _ = extract_period(img)
            expected = WAVELENGTH * 30000.0 / sep
            assert period * PIXEL_SCALE == pytest.approx(expected, rel=5e-3)

    def test_agrees_with_autocorrelation_oracle(self, rng):
        for _ in range(25):
            period_px = float(np.exp(rng.uniform(np.log(6), np.log(150))))
            sep = separation_for_pixel_period(period_px)
            cfg = make_config(separation=sep, waist=250.0)
            img = render_frame(cfg, make_camera(sensor=(640, 16)))
            period, _ = extract_period(img)
            assert period == pytest.approx(autocorr_period(img), rel=5e-3)


class TestExtractFringePhase:
    def test_centered_pattern_reads_zero(self):
        img = render_simple(8000.0)
        d_px = spacing_fourier(make_config(separation=8000.0).optics) / PIXEL_SCALE
        phase, center = extract_fringe_phase(img, d_px)
        assert abs(center) <= 0.1
        assert abs(phase) <= 2 * math.pi * 0.1 / d_px

    def test_quarter_wave_offset(self):
        cfg = make_config(separation=8000.0, path_difference=WAVELENGTH / 4)
        d = spacing_fourier(cfg.optics)
        img = render_simple(8000.0, path_difference=WAVELENGTH / 4)
        phase, center = extract_fringe_phase(img, d / PIXEL_SCALE)
        assert phase == pytest.approx(math.pi / 2, abs=5e-3)
        assert center * PIXEL_SCALE == pytest.approx(-d / 4, abs=0.01)

    def test_full_wave_periodicity(self):
        d_px = spacing_fourier(make_config(separation=8000.0).optics) / PIXEL_SCALE
        img_a = render_simple(8000.0, path_difference=0.1)
        img_b = render_simple(8000.0, path_difference=0.1 + WAVELENGTH)
        _, center_a = extract_fringe_phase(img_a, d_px)
        _, center_b = extract_fringe_phase(img_b, d_px)
        assert center_a == pytest.approx(center_b, abs=0.01)

    def test_response_is_linear_with_unit_slope(self):
        d_px = spacing_fourier(make_config(separation=8000.0).optics) / PIXEL_SCALE
        injected = np.linspace(-0.45, 0.45, 19) * WAVELENGTH
        measured = []
        for dl in injected:
            img = render_simple(8000.0, path_difference=float(dl))
            phase, _ = extract_fringe_phase(img, d_px)
            measured.append(phase)
        expected = 2 * math.pi * injected / WAVELENGTH
        slope = np.polyfit(expected, np.unwrap(measured), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.01)

    def test_single_beam_has_no_fringe(self):
        img = render_simple(8000.0, amp2=0.0)
        with pytest.raises(NoFringeError):
            extract_fringe_phase(img, 62.0)

    def test_rejects_nonpositive_period(self):
        with pytest.raises(AnalysisError):
            extract_fringe_phase(np.zeros((8, 64)), 0.0)


class TestMeasureContrast:
    d_px = spacing_fourier(make_config(separation=6864.5).optics) / PIXEL_SCALE

    def test_equal_power_full_contrast(self):
        img = render_simple(6864.5)
        assert measure_contrast(img, self.d_px) == pytest.approx(1.0, abs=0.02)

    def test_quarter_power_ratio(self):
        img = render_simple(6864.5, amp2=0.5)  # power ratio 0.25
        assert measure_contrast(img, self.d_px) == pytest.approx(0.8, abs=0.02)

    def test_single_beam_near_zero(self):
        img = render_simple(6864.5, amp2=0.0)
        assert measure_contrast(img, self.d_px) <= 0.05


class TestFringeProfile:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    @pytest.mark.parametrize("window_rows", [None, 1, 3, 60, 500])
    def test_matches_mean_of_full_frame_conversion(self, rng, dtype, window_rows):
        img = rng.integers(0, np.iinfo(dtype).max, size=(240, 1280), dtype=dtype)
        rows = min(window_rows or 240 // 4, 240)
        start = 120 - rows // 2
        expected = np.asarray(img, dtype=float)[start:start + rows].mean(axis=0)
        assert np.array_equal(fringe_profile(img, window_rows), expected)


@pytest.mark.parametrize("shape", [(5, 0), (0, 5)])
@pytest.mark.parametrize("measure", [
    extract_period,
    lambda image: extract_fringe_phase(image, 10.0),
    lambda image: measure_contrast(image, 10.0),
    measure_frame,
], ids=["extract_period", "extract_fringe_phase", "measure_contrast", "measure_frame"])
def test_empty_image_is_analysis_error(measure, shape):
    with pytest.raises(AnalysisError, match="empty image"):
        measure(np.zeros(shape, np.uint8))


class TestMeasureFrame:
    def test_combined_measurement(self):
        img = render_simple(8000.0, path_difference=0.1)
        m = measure_frame(img, PIXEL_SCALE)
        d = spacing_fourier(make_config(separation=8000.0).optics)
        assert m.period_um == pytest.approx(d, rel=5e-3)
        assert m.period_um == pytest.approx(m.period_px * PIXEL_SCALE, rel=1e-12)
        assert m.center_um == pytest.approx(-0.1 * d / WAVELENGTH, abs=0.01)
        assert m.contrast == pytest.approx(1.0, abs=0.02)
        assert -math.pi < m.fringe_phase <= math.pi

    def test_without_pixel_scale(self):
        img = render_simple(8000.0)
        m = measure_frame(img)
        assert m.period_um is None and m.center_um is None
        assert m.period_px > 0

    @pytest.mark.parametrize("bit_depth, read_noise", [(8, 1.5), (16, 40.0)])
    @pytest.mark.parametrize("window_rows", [None, 3])
    def test_one_pass_equals_the_public_functions(self, bit_depth, read_noise,
                                                  window_rows):
        # measure_frame reads one spectrum; the public functions each make
        # their own, and every number must come out the same
        cfg = LatticeConfig(OpticalParams(WAVELENGTH, 30000.0, 19250.0),
                            BeamSpec(30.0, 1.0, (5.0, -3.0)), BeamSpec(42.0, 0.7))
        cam = make_camera(read_noise=read_noise, seed=4, sensor=(1280, 240),
                          bit_depth=bit_depth)
        traj = static_sweep([19250.0, 12000.0, 5000.0]).with_path_difference(0.13)
        frames, _ = render_sequence(traj, cfg, cam)
        for img in frames:
            period, sigma = extract_period(img, window_rows)
            phase, center = extract_fringe_phase(img, period, window_rows)
            contrast = measure_contrast(img, period, window_rows)
            expected = FringeMeasurement(period, sigma, phase, center, contrast,
                                         period * PIXEL_SCALE, center * PIXEL_SCALE)
            assert measure_frame(img, PIXEL_SCALE, window_rows) == expected


class TestCalibratePixelScale:
    FOCAL = 30000.0
    SEPS = np.linspace(5000.0, 19250.0, 12)

    def test_exact_points_recover_scale(self):
        truth = 0.0853
        points = [(d, WAVELENGTH * self.FOCAL / d / truth) for d in self.SEPS]
        fit = calibrate_pixel_scale(points, WAVELENGTH, self.FOCAL)
        assert fit.pixel_scale == pytest.approx(truth, rel=1e-6)
        assert np.all(np.abs(fit.residuals) < 1e-12)
        assert fit.pixel_scale_uncertainty == pytest.approx(0.0, abs=1e-12)

    def test_doubled_periods_halve_the_scale(self):
        points = [(d, WAVELENGTH * self.FOCAL / d / 0.0853) for d in self.SEPS]
        doubled = [(d, 2 * p) for d, p in points]
        s1 = calibrate_pixel_scale(points, WAVELENGTH, self.FOCAL).pixel_scale
        s2 = calibrate_pixel_scale(doubled, WAVELENGTH, self.FOCAL).pixel_scale
        assert s2 == pytest.approx(s1 / 2, rel=1e-12)

    def test_recovery_from_noisy_frames(self):
        points = []
        for i, sep in enumerate(self.SEPS):
            img = render_simple(sep, focal=self.FOCAL, read_noise=2.0,
                                seed=11, frame_index=i)
            period, _ = extract_period(img)
            points.append((sep, period))
        fit = calibrate_pixel_scale(points, WAVELENGTH, self.FOCAL)
        assert abs(fit.pixel_scale - PIXEL_SCALE) <= 5e-4

    def test_requires_three_points(self):
        with pytest.raises(AnalysisError, match="3 points"):
            calibrate_pixel_scale([(5000.0, 37.4), (10000.0, 18.7)],
                                  WAVELENGTH, self.FOCAL)

    @pytest.mark.parametrize("wavelength, focal, name", [
        (0.0, FOCAL, "wavelength"), (-WAVELENGTH, FOCAL, "wavelength"),
        (math.nan, FOCAL, "wavelength"), (WAVELENGTH, math.inf, "focal_length"),
        (WAVELENGTH, 0.0, "focal_length"), (WAVELENGTH, math.nan, "focal_length"),
    ])
    def test_rejects_nonpositive_or_nonfinite_optics(self, wavelength, focal, name):
        points = [(d, WAVELENGTH * self.FOCAL / d / PIXEL_SCALE) for d in self.SEPS]
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            calibrate_pixel_scale(points, wavelength, focal)

    def test_requires_two_fold_span(self):
        points = [(d, 10.0) for d in (10000.0, 12000.0, 15000.0)]
        with pytest.raises(AnalysisError, match="span"):
            calibrate_pixel_scale(points, WAVELENGTH, self.FOCAL)

    def test_waist_based_route_agrees_with_fit(self):
        """Both calibration routes must recover the same pixel scale: the
        erf fit of a digitized beam of known waist, and the spacing-law fit."""
        waist = 36.0
        cfg = make_config(separation=8000.0, waist=waist, amp2=0.0)
        cam = make_camera(sensor=(2048, 32), gain=255.0)
        img = render_frame(cfg, cam).astype(float)
        # knife-edge in pixel units: cumulative column power across the image
        powers = np.concatenate([[0.0], np.cumsum(img.sum(axis=0))])
        positions = np.arange(powers.size, dtype=float)
        waist_px = fit_knife_edge(positions[::64], powers[::64]).waist
        scale_from_waist = waist / waist_px

        points = []
        for i, sep in enumerate(self.SEPS):
            frame = render_simple(sep, focal=self.FOCAL)
            points.append((sep, extract_period(frame).period_px))
        scale_from_fit = calibrate_pixel_scale(points, WAVELENGTH, self.FOCAL).pixel_scale
        assert scale_from_waist == pytest.approx(scale_from_fit, rel=0.01)
        assert scale_from_waist == pytest.approx(PIXEL_SCALE, rel=0.01)


class TestKnifeEdge:
    def _profile(self, waist, n_points=15, offset=0.0):
        beam = BeamSpec(focal_waist=waist)
        x = np.linspace(-3 * waist, 3 * waist, 2001)
        y = np.linspace(-3 * waist, 3 * waist, 501)
        positions = np.linspace(-1.5 * waist, 1.5 * waist, n_points)
        powers = half_plane_knife_profile(beam_intensity(beam, x, y), x, y, positions)
        return positions + offset, powers

    @pytest.mark.parametrize("waist", [36.0, 40.0])
    def test_recovers_waist(self, waist):
        positions, powers = self._profile(waist)
        assert knife_edge_waist(positions, powers) == pytest.approx(waist, abs=0.2)

    def test_translation_shifts_center_only(self):
        positions, powers = self._profile(36.0, offset=7.3)
        fit = fit_knife_edge(positions, powers)
        assert fit.center == pytest.approx(7.3, abs=0.05)
        assert fit.waist == pytest.approx(36.0, abs=0.2)

    def test_needs_eight_points(self):
        positions, powers = self._profile(36.0, n_points=6)
        with pytest.raises(AnalysisError, match="8"):
            knife_edge_waist(positions, powers)

    def test_garbage_fails_cleanly(self, rng):
        positions = np.linspace(-50, 50, 15)
        powers = rng.uniform(0.0, 1.0, 15)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(AnalysisError, match="fit failed"):
                knife_edge_waist(positions, powers)
        assert caught == []

    # (waist, center, total_power, rms_residual) from scipy.optimize.curve_fit
    # on these profiles, pinned at version 0.2.0 before the fit moved to numpy
    CURVE_FIT = {
        (36.0, 0.0): (36.00022398871057, -6.856002100969535e-08,
                      2035.7520286430179, 0.0002570659665570787),
        (40.0, 0.0): (40.00024938456258, 1.362111281264563e-07,
                      2513.2741257622865, 0.0003172219837133791),
        (36.0, 7.3): (36.00022423656965, 7.300000247253914,
                      2035.752047280564, 0.000256915531544652),
    }

    @pytest.mark.parametrize("waist, offset", sorted(CURVE_FIT))
    def test_matches_pinned_curve_fit(self, waist, offset):
        fit = fit_knife_edge(*self._profile(waist, offset=offset))
        pinned_waist, pinned_center, pinned_total, pinned_rms = self.CURVE_FIT[waist, offset]
        assert fit.waist == pytest.approx(pinned_waist, rel=1e-6)
        # the center is relative to the waist, the scale of the edge
        assert fit.center == pytest.approx(pinned_center, abs=1e-6 * waist)
        assert fit.total_power == pytest.approx(pinned_total, rel=1e-6)
        # a converged least-squares fit ends at no larger a residual
        assert fit.rms_residual <= pinned_rms * (1 + 1e-9)

    @pytest.mark.parametrize("case, message", [
        ("nan", "must be finite"), ("all-equal", "does not resolve the waist"),
        ("decreasing", "fit failed"), ("step", "does not resolve the waist"),
        ("one-position", "do not span the edge"),
    ], ids=["nan", "all-equal", "decreasing", "step", "one-position"])
    def test_unfittable_scan_is_analysis_error(self, case, message):
        positions, powers = self._profile(36.0)
        total = powers.max()
        # the middle of the 15 positions is 0, the edge center
        step = np.where(positions < 0, 0.0, np.where(positions > 0, total, total / 2))
        positions, powers = {
            "nan": (positions, np.where(np.arange(powers.size) == 4, np.nan, powers)),
            "all-equal": (positions, np.full_like(powers, total)),
            "decreasing": (positions, powers[::-1]),
            "step": (positions, step),  # fits ever better as w -> 0
            "one-position": (np.zeros_like(positions), powers),
        }[case]
        with pytest.raises(AnalysisError, match=message):
            fit_knife_edge(positions, powers)


def _erf_edge(x, total, center, waist):
    u = math.sqrt(2) * (np.asarray(x) - center) / waist
    return total / 2 * (1 + np.array([math.erf(v) for v in u]))


def _edge_std(x, total, center, waist, sigma):
    """Standard deviations of (center, waist) for a least-squares fit of
    (total, center, waist) under white noise sigma: the square roots of the
    diagonal of sigma^2 (J^T J)^-1 at the true parameters."""
    u = math.sqrt(2) * (np.asarray(x) - center) / waist
    slope = total / math.sqrt(math.pi) * np.exp(-u * u)  # d(total*g)/du
    jac = np.column_stack([_erf_edge(x, 1.0, center, waist),
                           slope * -math.sqrt(2) / waist, slope * -u / waist])
    return sigma * np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)))[1:]


@settings(max_examples=200, deadline=None)
@given(center=st.floats(-1e4, 1e4), waist=st.floats(5.0, 200.0),
       total=st.floats(1e-3, 1e6), n_points=st.integers(8, 60),
       half_span=st.floats(1.5, 3.0), noise=st.floats(0.0, 0.01),
       seed=st.integers(0, 2**32 - 1))
def test_knife_edge_recovers_random_edges_or_fails_cleanly(
        center, waist, total, n_points, half_span, noise, seed):
    positions = np.linspace(center - half_span * waist, center + half_span * waist,
                            n_points)
    sigma = noise * total
    powers = (_erf_edge(positions, total, center, waist)
              + np.random.default_rng(seed).normal(0.0, sigma, n_points))
    try:
        fit = fit_knife_edge(positions, powers)
    except AnalysisError as err:
        assert "fit failed" in str(err)
        return
    assert all(math.isfinite(v) for v in
               (fit.waist, fit.center, fit.total_power, fit.rms_residual))
    # six standard deviations of the estimate, and 1e-6 w for a clean scan
    std_center, std_waist = _edge_std(positions, total, center, waist, sigma)
    assert abs(fit.waist - waist) <= 6 * std_waist + 1e-6 * waist
    assert abs(fit.center - center) <= 6 * std_center + 1e-6 * waist


class TestNoiseRobustness:
    def test_period_and_center_errors_over_100_seeds(self):
        """8-bit frames with read_noise 2: period within 1%, center within
        0.2 px, across 100 independent noise streams."""
        cfg = make_config(separation=8000.0)
        d_um = spacing_fourier(cfg.optics)
        d_px = d_um / PIXEL_SCALE
        worst_period = 0.0
        worst_center = 0.0
        for seed in range(100):
            cam = make_camera(read_noise=2.0, seed=seed)
            img = render_frame(cfg, cam)
            period, _ = extract_period(img)
            _, center_px = extract_fringe_phase(img, d_px)
            worst_period = max(worst_period, abs(period - d_px) / d_px)
            worst_center = max(worst_center, abs(center_px))
        assert worst_period <= 0.01
        assert worst_center <= 0.2


class TestTrackCenterFringe:
    def _run(self, path_difference, n=31, separation=8000.0):
        cfg = make_config(separation=separation)
        cam = make_camera()
        traj = static_sweep([separation] * n).with_path_difference(path_difference)
        frames, records = render_sequence(traj, cfg, cam)
        spacings = [r.analytic_spacing_um for r in records]
        return frames, spacings, cam

    def test_constant_offset_reads_constant(self):
        frames, spacings, cam = self._run(0.05, n=5)
        trace = measure_run(frames, spacings, cam.pixel_scale)[1]
        assert np.ptp(trace.positions_um) <= 1e-3
        expected = -0.05 * 80000.0 / 8000.0
        assert trace.positions_um[0] == pytest.approx(expected, rel=0.01)
        assert trace.flagged == ()

    def test_sinusoidal_injection_matches_closed_form(self):
        amplitude = 0.1
        times = np.arange(31) / 30.0
        frames, spacings, cam = self._run(amplitude * np.sin(2 * math.pi * times))
        trace = measure_run(frames, spacings, cam.pixel_scale)[1]
        expected = -amplitude * np.sin(2 * math.pi * times) * 80000.0 / 8000.0
        scale = amplitude * 80000.0 / 8000.0
        assert np.all(np.abs(trace.positions_um - expected) <= 0.05 * scale)
        assert trace.max_drift_um == pytest.approx(np.abs(expected).max(), rel=0.05)
        assert trace.flagged == ()

    def test_large_jump_is_flagged(self):
        frames, spacings, cam = self._run(
            np.array([0.0, 0.0, 0.3 * WAVELENGTH]), n=3)
        trace = measure_run(frames, spacings, cam.pixel_scale)[1]
        assert trace.flagged == (2,)

    def test_length_mismatch_rejected(self):
        frames, spacings, cam = self._run(0.0, n=3)
        with pytest.raises(AnalysisError):
            measure_run(frames, spacings[:-1], cam.pixel_scale)[1]


class TestMeasureRun:
    def _frames(self, read_noise=1.5):
        # off-axis, unequal beams on a noisy 16-bit sensor
        cfg = LatticeConfig(OpticalParams(WAVELENGTH, 30000.0, 19250.0),
                            BeamSpec(30.0, 1.0, (5.0, -3.0)), BeamSpec(42.0, 0.7))
        cam = make_camera(read_noise=read_noise, seed=4, sensor=(1280, 240),
                          bit_depth=16)
        traj = static_sweep([19250.0, 12000.0, 5000.0]).with_path_difference(0.13)
        frames, records = render_sequence(traj, cfg, cam)
        return frames, [r.analytic_spacing_um for r in records]

    @pytest.mark.parametrize("window_rows", [None, 3])
    def test_each_result_equals_measure_frame(self, window_rows):
        frames, spacings = self._frames()
        results, trace = measure_run((img for img in frames), spacings, PIXEL_SCALE,
                                     window_rows)
        assert results == [measure_frame(img, PIXEL_SCALE, window_rows) for img in frames]
        assert trace is not None and trace.positions_um.shape == (3,)

    def test_rejected_frame_is_returned_in_its_place(self):
        frames, spacings = self._frames()
        frames[1] = np.full_like(frames[1], 900)
        results, trace = measure_run(iter(frames), spacings, PIXEL_SCALE)
        assert isinstance(results[1], NoFringeError)
        assert results[0] == measure_frame(frames[0], PIXEL_SCALE)
        assert results[2] == measure_frame(frames[2], PIXEL_SCALE)
        assert trace is None

    def test_center_off_the_manifest_period_rejects_the_frame(self):
        # a wrong pixel scale puts the manifest period 30% off the fringe
        frames, spacings = self._frames()
        results, trace = measure_run(frames, spacings, 0.12)
        assert all(isinstance(r, NoFringeError) for r in results)
        assert "no fringe found at the expected period" in str(results[0])
        assert trace is None

    @pytest.mark.parametrize("n_frames, n_spacings", [(2, 3), (3, 2)])
    def test_length_mismatch_of_a_generator_rejected(self, n_frames, n_spacings):
        frames, spacings = self._frames(read_noise=0.0)
        with pytest.raises(AnalysisError, match="differ in length"):
            measure_run((img for img in frames[:n_frames]), spacings[:n_spacings],
                        PIXEL_SCALE)

    def test_empty_run_rejected(self):
        with pytest.raises(AnalysisError, match="nothing to track"):
            measure_run([], [], PIXEL_SCALE)
