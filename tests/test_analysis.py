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
    MirrorDrive,
    NoFringeError,
    OpticalParams,
    build_trajectory,
    calibrate_pixel_scale,
    fit_knife_edge,
    fringe_profile,
    measure_frame,
    measure_run,
    render_frame,
    render_sequence,
    spacing_fourier,
    static_sweep,
)
from accordion import analysis
from accordion.analysis import PERIOD_TOLERANCE
from accordion.cli import main
from accordion.fields import BeamSpec
from accordion.runfiles import read_manifest, read_pgm
from conftest import PIXEL_SCALE, WAVELENGTH, make_camera, make_config, render_simple
from oracles import autocorr_period, beam_intensity, half_plane_knife_profile


def separation_for_pixel_period(period_px, focal=80000.0):
    return WAVELENGTH * focal / (period_px * PIXEL_SCALE)


def tracked(results):
    """The tracked positions (um) of a run in which every frame was measured,
    and the indices of the frames whose unwrap was flagged."""
    positions = np.array([r.position_um for r in results], dtype=float)
    assert not np.isnan(positions).any(), [r.measurement for r in results]
    return positions, [i for i, r in enumerate(results) if r.flagged]


def phase_at(img, d_um):
    """Phase and center (px) of one frame as measure_run tracks it: measured
    as measure_frame measures one image, its center at the measured period;
    the lattice spacing d_um only referees and converts the center to a
    phase."""
    (result,) = measure_run([img], [d_um], PIXEL_SCALE)
    assert result.position_um is not None, result.measurement
    position = result.position_um
    return -2 * math.pi * position / d_um, position / PIXEL_SCALE


class TestPeriod:
    def test_known_pixel_period(self):
        img = render_simple(separation_for_pixel_period(11.25))
        m = measure_frame(img)
        period = m.period_px
        assert period == pytest.approx(11.25, abs=0.05)
        assert m.period_uncertainty_px >= 0.0
        assert autocorr_period(img) == pytest.approx(period, rel=5e-3)

    def test_small_spacing_maps_to_expected_pixels(self):
        # 0.96 um lattice on the 0.0853 um/px camera: 11.254 px
        img = render_simple(WAVELENGTH * 80000 / 0.96)
        period = measure_frame(img).period_px
        assert period == pytest.approx(0.96 / PIXEL_SCALE, abs=0.05)

    def test_uniform_image_has_no_fringe(self):
        with pytest.raises(NoFringeError, match="no fringe"):
            measure_frame(np.full((120, 640), 37, dtype=np.uint8))

    def test_too_few_periods_rejected(self):
        # two periods, a peak at bin 2: too coarse, but a fringe
        img = render_simple(separation_for_pixel_period(320.0))
        with pytest.raises(AnalysisError, match="fewer than 3") as err:
            measure_frame(img)
        assert not isinstance(err.value, NoFringeError)

    def test_undersampled_fringe_rejected(self):
        # a 3.2 px fringe, which render_frame refuses to render: fewer than
        # 4 pixels per period
        fringe = np.cos(2 * math.pi * np.arange(640) / 3.2)
        img = np.rint(127.5 + 127.5 * np.tile(fringe, (120, 1))).astype(np.uint8)
        with pytest.raises(AnalysisError, match="samples per fringe"):
            measure_frame(img)

    def test_spacing_law_trend(self):
        # f = 30 mm ladder: extracted period tracks lam*f/D
        for sep in (5000.0, 10000.0, 15000.0, 19250.0):
            img = render_simple(sep, focal=30000.0, waist=36.0)
            period = measure_frame(img).period_px
            expected = WAVELENGTH * 30000.0 / sep
            assert period * PIXEL_SCALE == pytest.approx(expected, rel=5e-3)

    def test_agrees_with_autocorrelation_oracle(self, rng):
        for _ in range(25):
            period_px = float(np.exp(rng.uniform(np.log(6), np.log(150))))
            sep = separation_for_pixel_period(period_px)
            cfg = make_config(separation=sep, waist=250.0)
            img = render_frame(cfg, make_camera(sensor=(640, 16)))
            period = measure_frame(img).period_px
            assert period == pytest.approx(autocorr_period(img), rel=5e-3)


@settings(max_examples=500, deadline=None)
@given(spec=st.lists(st.floats(1e-300, 1e300) | st.sampled_from([0.0, math.inf, math.nan]),
                     min_size=5, max_size=64))
def test_spectral_floor_is_the_median_bit_for_bit(spec):
    # np.median(spec[1:]) is the reference: odd and even tails of 4 or more,
    # and a NaN anywhere makes both NaN
    spec = np.array(spec)
    floor = analysis._floor(spec)
    assert np.float64(floor).tobytes() == np.float64(np.median(spec[1:])).tobytes()


class TestPhaseAtKnownPeriod:
    d_um = spacing_fourier(make_config(separation=8000.0).optics)

    def test_centered_pattern_reads_zero(self):
        img = render_simple(8000.0)
        d_px = self.d_um / PIXEL_SCALE
        phase, center = phase_at(img, self.d_um)
        assert abs(center) <= 0.1
        assert abs(phase) <= 2 * math.pi * 0.1 / d_px

    def test_quarter_wave_offset(self):
        cfg = make_config(separation=8000.0, path_difference=WAVELENGTH / 4)
        d = spacing_fourier(cfg.optics)
        img = render_simple(8000.0, path_difference=WAVELENGTH / 4)
        phase, center = phase_at(img, d)
        assert phase == pytest.approx(math.pi / 2, abs=5e-3)
        assert center * PIXEL_SCALE == pytest.approx(-d / 4, abs=0.01)

    def test_full_wave_periodicity(self):
        img_a = render_simple(8000.0, path_difference=0.1)
        img_b = render_simple(8000.0, path_difference=0.1 + WAVELENGTH)
        _, center_a = phase_at(img_a, self.d_um)
        _, center_b = phase_at(img_b, self.d_um)
        assert center_a == pytest.approx(center_b, abs=0.01)

    def test_response_is_linear_with_unit_slope(self):
        injected = np.linspace(-0.45, 0.45, 19) * WAVELENGTH
        measured = []
        for dl in injected:
            img = render_simple(8000.0, path_difference=float(dl))
            phase, _ = phase_at(img, self.d_um)
            measured.append(phase)
        expected = 2 * math.pi * injected / WAVELENGTH
        slope = np.polyfit(expected, np.unwrap(measured), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.01)

    def test_single_beam_has_no_fringe(self):
        # the period is measured before the projection: a single beam's
        # dominant peak is its envelope's, at bin 1
        img = render_simple(8000.0, amp2=0.0)
        (result,) = measure_run([img], [self.d_um], PIXEL_SCALE)
        assert isinstance(result.measurement, NoFringeError)
        assert "scale of the beam envelope" in str(result.measurement)
        assert result.position_um is None

    @pytest.mark.parametrize("spacing, shown", [(0.0, "0.0"), (-5.32, "-62.36"),
                                                (math.nan, "nan"), (math.inf, "inf")])
    def test_rejects_nonpositive_period(self, spacing, shown):
        (result,) = measure_run([render_simple(8000.0)], [spacing], PIXEL_SCALE)
        assert isinstance(result.measurement, AnalysisError)
        assert f"period must be positive and finite, got {shown}" in str(result.measurement)
        assert result.position_um is None


class TestContrast:
    # projected at the measured period, within half a bin of the analytic one
    def test_equal_power_full_contrast(self):
        img = render_simple(6864.5)
        assert measure_frame(img).contrast == pytest.approx(1.0, abs=0.02)

    def test_quarter_power_ratio(self):
        img = render_simple(6864.5, amp2=0.5)  # power ratio 0.25
        assert measure_frame(img).contrast == pytest.approx(0.8, abs=0.02)

    def test_single_beam_is_rejected(self):
        # no fringe, so no contrast: the envelope's peak sits at bin 1
        img = render_simple(6864.5, amp2=0.0)
        with pytest.raises(NoFringeError, match="scale of the beam envelope"):
            measure_frame(img)


class TestFringeProfile:
    # ">u2": the camera's 16-bit frames and read_pgm's samples are big-endian
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, ">u2"])
    # the central quarter of the rows, and the middle row where a quarter
    # holds none
    @pytest.mark.parametrize("height, start, rows", [
        (1, 0, 1), (2, 1, 1), (3, 1, 1), (4, 2, 1), (7, 3, 1), (240, 90, 60),
    ], ids=["1", "2", "3", "4", "7", "240"])
    def test_matches_mean_of_full_frame_conversion(self, rng, dtype, height, start, rows):
        native = np.dtype(dtype).newbyteorder("=")
        img = rng.integers(0, np.iinfo(dtype).max, size=(height, 1280),
                           dtype=native).astype(dtype)
        expected = np.asarray(img, dtype=float)[start:start + rows].mean(axis=0)
        assert np.array_equal(fringe_profile(img), expected)


def _measure_run_or_raise(image):
    (result,) = measure_run([image], [10.0 * PIXEL_SCALE], PIXEL_SCALE)
    assert result.position_um is None
    raise result.measurement


@pytest.mark.parametrize("shape", [(5, 0), (0, 5)])
@pytest.mark.parametrize("measure", [measure_frame, _measure_run_or_raise],
                         ids=["measure_frame", "measure_run"])
def test_empty_image_is_analysis_error(measure, shape):
    with pytest.raises(AnalysisError, match="empty image"):
        measure(np.zeros(shape, np.uint8))


class TestMeasureFrame:
    def test_combined_measurement(self):
        img = render_simple(8000.0, path_difference=0.1)
        m = measure_frame(img)
        d = spacing_fourier(make_config(separation=8000.0).optics)
        assert m.period_px * PIXEL_SCALE == pytest.approx(d, rel=5e-3)
        assert m.center_px * PIXEL_SCALE == pytest.approx(-0.1 * d / WAVELENGTH, abs=0.01)
        assert m.contrast == pytest.approx(1.0, abs=0.02)
        assert -math.pi < m.fringe_phase <= math.pi

    def test_without_pixel_scale(self):
        img = render_simple(8000.0)
        m = measure_frame(img)
        assert m.period_px > 0

    def test_a_profile_under_8_samples_is_too_short(self):
        with pytest.raises(AnalysisError,
                           match="^profile of 7 samples is too short to analyze$"):
            measure_frame(np.ones((3, 7)))

    def test_a_frame_whose_weighted_total_is_not_positive_has_no_fringe(self):
        # -img has img's spectrum bit for bit, which passes the period's
        # gates, and a negative Hann-weighted total
        img = render_simple(8000.0).astype(float)
        measure_frame(img)
        with pytest.raises(NoFringeError, match="^no fringe found$"):
            measure_frame(-img)


class TestCalibratePixelScale:
    FOCAL = 30000.0
    SEPS = np.linspace(5000.0, 19250.0, 12)
    # each separation's analytic spacing lam*f/D, as a run manifest records it
    SPACINGS = WAVELENGTH * FOCAL / SEPS

    def test_exact_points_recover_scale(self):
        truth = 0.0853
        points = [(u, u / truth) for u in self.SPACINGS]
        fit = calibrate_pixel_scale(points)
        assert fit.pixel_scale == pytest.approx(truth, rel=1e-6)
        assert np.all(np.abs(fit.residuals) < 1e-12)
        assert fit.pixel_scale_uncertainty == pytest.approx(0.0, abs=1e-12)

    def test_doubled_periods_halve_the_scale(self):
        points = [(u, u / 0.0853) for u in self.SPACINGS]
        doubled = [(u, 2 * p) for u, p in points]
        s1 = calibrate_pixel_scale(points).pixel_scale
        s2 = calibrate_pixel_scale(doubled).pixel_scale
        assert s2 == pytest.approx(s1 / 2, rel=1e-12)

    def test_recovery_from_noisy_frames(self):
        points = []
        for i, (sep, u) in enumerate(zip(self.SEPS, self.SPACINGS)):
            img = render_simple(sep, focal=self.FOCAL, read_noise=2.0,
                                seed=11, frame_index=i)
            period = measure_frame(img).period_px
            points.append((u, period))
        fit = calibrate_pixel_scale(points)
        assert abs(fit.pixel_scale - PIXEL_SCALE) <= 5e-4

    def test_requires_three_points(self):
        with pytest.raises(AnalysisError, match="3 points"):
            calibrate_pixel_scale([(3.192, 37.4), (1.596, 18.7)])

    @pytest.mark.parametrize("cell", [0, 1])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_spacing_or_period(self, cell, value):
        points = [[u, u / PIXEL_SCALE] for u in self.SPACINGS]
        points[3][cell] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AnalysisError,
                               match="spacings and periods must be positive and finite"):
                calibrate_pixel_scale(points)

    @pytest.mark.parametrize("points", [
        [(1e308, 0.01), (5e307, 0.005), (2e307, 0.002)],  # the scale overflows
        [(1e-300, 1e30), (5e-301, 5e29), (2e-301, 2e29)],  # the scale underflows
    ], ids=["scale", "underflow"])
    def test_rejects_a_fit_beyond_the_float_range(self, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AnalysisError,
                               match="fitted scale .* must be positive and finite"):
                calibrate_pixel_scale(points)

    def test_requires_two_fold_span(self):
        points = [(u, 10.0) for u in (1.0, 1.2, 1.5)]
        with pytest.raises(AnalysisError, match="spacings span only 1.50x"):
            calibrate_pixel_scale(points)

    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_spacings_scaled_by_a_power_of_two_scale_the_fit_exactly(self, exponent):
        # u*u underflows to 0 at 2**-600 and overflows at 2**600: the fit is
        # solved in units of a power of two, so it scales bit for bit
        points = [(u, measure_frame(render_simple(sep, focal=self.FOCAL)).period_px)
                  for sep, u in zip(self.SEPS, self.SPACINGS)]
        fit = calibrate_pixel_scale(points)
        scaled = calibrate_pixel_scale([(math.ldexp(u, exponent), p) for u, p in points])
        assert scaled.pixel_scale == math.ldexp(fit.pixel_scale, exponent)
        assert scaled.pixel_scale_uncertainty == math.ldexp(fit.pixel_scale_uncertainty,
                                                            exponent)
        assert fit.pixel_scale_uncertainty > 0
        assert np.array_equal(scaled.residuals, fit.residuals)

    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_periods_scaled_by_a_power_of_two_scale_the_fit_exactly(self, exponent):
        # a period residual squared underflows to 0 at 2**-600 and overflows
        # at 2**600: the periods are solved in units of a power of two too
        points = [(u, measure_frame(render_simple(sep, focal=self.FOCAL)).period_px)
                  for sep, u in zip(self.SEPS, self.SPACINGS)]
        fit = calibrate_pixel_scale(points)
        scaled = calibrate_pixel_scale([(u, math.ldexp(p, exponent)) for u, p in points])
        assert scaled.pixel_scale == math.ldexp(fit.pixel_scale, -exponent)
        assert scaled.pixel_scale_uncertainty == math.ldexp(fit.pixel_scale_uncertainty,
                                                            -exponent)
        assert np.array_equal(scaled.residuals, fit.residuals)

    @pytest.mark.parametrize("points, scale", [
        ([(30, 1e200), (15, 5e199), (10, 1e200 / 3)], 3e-199),
        ([(30, 1e300), (15, 5e299), (10, 3.4e299)], 2.9958e-299),
    ], ids=["1e200", "1e300"])
    def test_huge_periods_recover_a_representable_scale(self, points, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = calibrate_pixel_scale(points)
        assert fit.pixel_scale == pytest.approx(scale, rel=1e-4)
        assert 0 <= fit.pixel_scale_uncertainty < 0.01 * fit.pixel_scale

    @pytest.mark.parametrize("factor", [1e-170, 1e170])
    def test_spacings_far_from_one_recover_the_scale(self, factor):
        points = [(u * factor, u / PIXEL_SCALE) for u in self.SPACINGS]
        fit = calibrate_pixel_scale(points)
        assert fit.pixel_scale == pytest.approx(PIXEL_SCALE * factor, rel=1e-15)

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
        for sep, u in zip(self.SEPS, self.SPACINGS):
            frame = render_simple(sep, focal=self.FOCAL)
            points.append((u, measure_frame(frame).period_px))
        scale_from_fit = calibrate_pixel_scale(points).pixel_scale
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
        assert fit_knife_edge(positions, powers).waist == pytest.approx(waist, abs=0.2)

    def test_translation_shifts_center_only(self):
        positions, powers = self._profile(36.0, offset=7.3)
        fit = fit_knife_edge(positions, powers)
        assert fit.center == pytest.approx(7.3, abs=0.05)
        assert fit.waist == pytest.approx(36.0, abs=0.2)

    def test_needs_eight_points(self):
        positions, powers = self._profile(36.0, n_points=6)
        with pytest.raises(AnalysisError, match="8"):
            fit_knife_edge(positions, powers).waist

    @pytest.mark.parametrize("power", [0.0, -1.0])
    def test_no_positive_power_fails(self, power):
        with pytest.raises(AnalysisError, match="^fit failed: powers are not positive$"):
            fit_knife_edge(np.arange(8.0), np.full(8, power))

    def test_garbage_fails_cleanly(self, rng):
        positions = np.linspace(-50, 50, 15)
        powers = rng.uniform(0.0, 1.0, 15)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(AnalysisError, match="fit failed"):
                fit_knife_edge(positions, powers).waist
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


@settings(max_examples=100, deadline=None)
@given(separation=st.floats(6000.0, 110000.0), waist=st.floats(20.0, 80.0),
       waist2=st.floats(20.0, 80.0), ratio=st.floats(0.0, 1.0),
       read_noise=st.floats(0.0, 20.0),
       scale_factor=st.floats(0.5, 2.0) | st.floats(0.9, 1.1))
def test_measure_run_accepts_exactly_the_frames_within_tolerance(
        separation, waist, waist2, ratio, read_noise, scale_factor):
    # the one rule for an off-period frame: measure_run keeps a frame when
    # measure_frame measures it within PERIOD_TOLERANCE of the manifest
    # period, whatever the pixel scale it is given
    cfg = make_config(separation=separation, waist=waist, waist2=waist2, amp2=ratio)
    image = render_frame(cfg, make_camera(read_noise=read_noise, seed=3))
    d_um = spacing_fourier(cfg.optics)
    pixel_scale = PIXEL_SCALE * scale_factor
    result = measure_run([image], [d_um], pixel_scale)[0].measurement
    try:
        m = measure_frame(image)
    except AnalysisError:
        m = None
    within = (m is not None
              and abs(m.period_px / (d_um / pixel_scale) - 1) <= PERIOD_TOLERANCE)
    assert result == m if within else isinstance(result, AnalysisError)


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
            period = measure_frame(img).period_px
            _, center_px = phase_at(img, d_um)
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
        positions, flagged = tracked(measure_run(frames, spacings, cam.pixel_scale))
        assert np.ptp(positions) <= 1e-3
        expected = -0.05 * 80000.0 / 8000.0
        assert positions[0] == pytest.approx(expected, rel=0.01)
        assert flagged == []

    def test_sinusoidal_injection_matches_closed_form(self):
        amplitude = 0.1
        times = np.arange(31) / 30.0
        frames, spacings, cam = self._run(amplitude * np.sin(2 * math.pi * times))
        positions, flagged = tracked(measure_run(frames, spacings, cam.pixel_scale))
        expected = -amplitude * np.sin(2 * math.pi * times) * 80000.0 / 8000.0
        scale = amplitude * 80000.0 / 8000.0
        assert np.all(np.abs(positions - expected) <= 0.05 * scale)
        assert np.abs(positions).max() == pytest.approx(np.abs(expected).max(), rel=0.05)
        assert flagged == []

    def test_large_jump_is_flagged(self):
        frames, spacings, cam = self._run(
            np.array([0.0, 0.0, 0.3 * WAVELENGTH]), n=3)
        _, flagged = tracked(measure_run(frames, spacings, cam.pixel_scale))
        assert flagged == [2]

    def test_length_mismatch_rejected(self):
        frames, spacings, cam = self._run(0.0, n=3)
        with pytest.raises(AnalysisError):
            measure_run(frames, spacings[:-1], cam.pixel_scale)


class TestMeasureRun:
    def _frames(self, read_noise=1.5, bit_depth=16):
        # off-axis, unequal beams on a noisy sensor
        cfg = LatticeConfig(OpticalParams(WAVELENGTH, 30000.0, 19250.0),
                            BeamSpec(30.0, 1.0, (5.0, -3.0)), BeamSpec(42.0, 0.7))
        cam = make_camera(read_noise=read_noise, seed=4, sensor=(1280, 240),
                          bit_depth=bit_depth)
        traj = static_sweep([19250.0, 12000.0, 5000.0]).with_path_difference(0.13)
        frames, records = render_sequence(traj, cfg, cam)
        return list(frames), [r.analytic_spacing_um for r in records]

    @pytest.mark.parametrize("bit_depth, read_noise", [(16, 1.5), (8, 1.5), (16, 40.0)])
    def test_each_result_equals_measure_frame(self, bit_depth, read_noise):
        frames, spacings = self._frames(read_noise, bit_depth)
        results = measure_run((img for img in frames), spacings, PIXEL_SCALE)
        assert [r.measurement for r in results] == [measure_frame(img) for img in frames]
        assert tracked(results)[0].shape == (3,)

    def test_rejected_frame_is_returned_in_its_place(self):
        frames, spacings = self._frames()
        frames[1] = np.full_like(frames[1], 900)
        results = measure_run(iter(frames), spacings, PIXEL_SCALE)
        assert isinstance(results[1].measurement, NoFringeError)
        assert results[0].measurement == measure_frame(frames[0])
        assert results[2].measurement == measure_frame(frames[2])
        assert results[1].position_um is None and not results[1].flagged

    def test_center_off_the_manifest_period_rejects_the_frame(self):
        # a wrong pixel scale puts the measured period 41% off the manifest's
        frames, spacings = self._frames()
        for r in measure_run(frames, spacings, 0.12):
            assert isinstance(r.measurement, AnalysisError)
            assert not isinstance(r.measurement, NoFringeError)
            assert "+40.7% off the manifest period" in str(r.measurement)
            assert "tolerance 5%" in str(r.measurement)
            assert r.position_um is None

    def test_period_off_the_manifest_beyond_tolerance_rejects_the_frame(self):
        # 8% off: every frame is measured, but its measured period is farther
        # off the manifest's than 5%
        frames, spacings = self._frames()
        for r in measure_run(frames, spacings, PIXEL_SCALE * 1.08):
            assert r.position_um is None
            assert isinstance(r.measurement, AnalysisError)
            assert not isinstance(r.measurement, NoFringeError)
            assert "off the manifest period" in str(r.measurement)
            assert "tolerance 5%" in str(r.measurement)
        results = measure_run(frames, spacings, PIXEL_SCALE * 1.03)
        assert all(isinstance(r.measurement, FringeMeasurement) for r in results)
        assert all(r.position_um is not None for r in results)

    def test_one_peak_search_per_frame(self, monkeypatch):
        # the period's argmax over the spectrum is the frame's only peak
        # search, and its one projection, at the measured period, gives the
        # center: the manifest period is never projected at
        frames, spacings = self._frames()
        searches, projections = [], []
        argmax, project = np.argmax, analysis._project

        def counting(a, *args, **kwargs):
            searches.append(np.shape(a))
            return argmax(a, *args, **kwargs)

        def counting_project(s, period_px):
            projections.append(period_px)
            return project(s, period_px)

        monkeypatch.setattr(np, "argmax", counting)
        monkeypatch.setattr(analysis, "_project", counting_project)
        results = measure_run(frames, spacings, PIXEL_SCALE)
        assert all(r.position_um is not None for r in results)
        assert len(searches) == len(frames) == 3
        assert projections == [r.measurement.period_px for r in results]

    @pytest.mark.parametrize("n_frames, n_spacings", [(2, 3), (3, 2)])
    def test_length_mismatch_of_a_generator_rejected(self, n_frames, n_spacings):
        frames, spacings = self._frames(read_noise=0.0)
        with pytest.raises(AnalysisError, match="differ in length"):
            measure_run((img for img in frames[:n_frames]), spacings[:n_spacings],
                        PIXEL_SCALE)

    def test_empty_run_rejected(self):
        with pytest.raises(AnalysisError, match="nothing to track"):
            measure_run([], [], PIXEL_SCALE)


@pytest.fixture(scope="module", params=["fig6b", "fig4b"])
def drifted_run(request, tmp_path_factory):
    """Frames and manifest spacings of a preset swept at a 0.1 um path
    difference, which puts every center about 0.19 period off the axis."""
    out = tmp_path_factory.mktemp(request.param) / "run"
    assert main(["sweep", "--preset", request.param, "--path-difference", "0.1",
                 "--out", str(out)]) == 0
    records = read_manifest(out / "manifest.csv")
    return ([read_pgm(out / r.frame) for r in records],
            [r.analytic_spacing_um for r in records])


class TestManifestOnlyReferees:
    def test_each_center_is_the_single_frame_measurement(self, drifted_run):
        # what analyze reports for one image is what it tracks in a run,
        # for every frame that crosses no unwrap branch (none here do)
        frames, spacings = drifted_run
        results = measure_run(frames, spacings, PIXEL_SCALE)
        assert [r.position_um for r in results] == [
            measure_frame(img).center_px * PIXEL_SCALE for img in frames]
        assert not any(r.flagged for r in results)

    @pytest.mark.parametrize("factor", [0.98, 1.02])
    def test_manifest_spacings_within_tolerance_change_nothing(self, drifted_run, factor):
        frames, spacings = drifted_run
        results = measure_run(frames, spacings, PIXEL_SCALE)
        assert all(r.position_um is not None for r in results)
        assert measure_run(frames, [d * factor for d in spacings], PIXEL_SCALE) == results


class TestTrackAcrossRejectedFrames:
    def _ramp(self, path_differences):
        cfg = make_config(separation=8000.0)
        cam = make_camera()
        traj = static_sweep([8000.0] * len(path_differences)).with_path_difference(
            np.asarray(path_differences))
        frames, records = render_sequence(traj, cfg, cam)
        return list(frames), [r.analytic_spacing_um for r in records], cam

    def test_a_rejected_frame_leaves_the_others_as_in_the_clean_run(self):
        # dL 0 -> 0.4 um moves the center 0 -> -4 um, past the fold at
        # -d/2 = -2.66 um; the unwrap passes over the flat frame 2, and frame
        # 3, 1.6 um from frame 1, is flagged
        frames, spacings, cam = self._ramp(np.linspace(0.0, 0.4, 6))
        clean = measure_run(frames, spacings, cam.pixel_scale)
        assert tracked(clean)[0] == pytest.approx(-np.linspace(0.0, 4.0, 6), abs=0.01)
        assert tracked(clean)[1] == []
        frames[2] = np.full_like(frames[2], 100)
        results = measure_run(frames, spacings, cam.pixel_scale)
        assert isinstance(results[2].measurement, NoFringeError)
        assert results[2][1:] == (None, False)
        assert [r[:2] for r in results[:2] + results[3:]] == [
            r[:2] for r in clean[:2] + clean[3:]]
        assert [r.flagged for r in results] == [False] * 3 + [True] + [False] * 2

    def test_a_jump_across_a_rejected_frame_is_flagged(self):
        # 0.15 wavelength of path difference a frame moves the center 0.15
        # period a frame; across the rejected frame 2 it jumps 0.3 period
        frames, spacings, cam = self._ramp(np.array([0.0, 0.0, 0.15, 0.3]) * WAVELENGTH)
        assert tracked(measure_run(frames, spacings, cam.pixel_scale))[1] == []
        frames[2] = np.full_like(frames[2], 100)
        results = measure_run(frames, spacings, cam.pixel_scale)
        assert [r.flagged for r in results] == [False, False, False, True]
        assert results[3].position_um == pytest.approx(-0.3 * spacings[3], abs=0.01)


class TestTrackAPathDriftAcrossASweep:
    """fig6b with a path difference dL = k * m drifting with the mirror: one
    fringe order of drift is lam*f/D, which changes 11-fold over the sweep,
    so only the fringe order, not a fixed branch width, follows it."""

    DRIVE = MirrorDrive(43810.0, 20000.0, 20000.0, dwell=0.5, frame_rate=30.0)
    # a path step below lam/2 a frame: a path rate below lam * frame_rate / 2
    K_LIMIT = WAVELENGTH * DRIVE.frame_rate / 2 / DRIVE.speed

    def _track(self, k):
        traj = build_trajectory(self.DRIVE)
        path_differences = k * traj.mirror_positions
        frames, records = render_sequence(traj.with_path_difference(path_differences),
                                          make_config(), make_camera())
        results = measure_run(frames, [r.analytic_spacing_um for r in records],
                              PIXEL_SCALE)
        assert len(results) == 76
        truth = -path_differences * 80000.0 / traj.separations
        return tracked(results)[0], truth

    @pytest.mark.parametrize("k", [1e-5, 5e-5, 1e-4, 3e-4])
    def test_every_center_follows_the_drift(self, k):
        # an unwrap in um, onto the branch nearest the previous center,
        # loses 11 to 123 um of this drift from k = 5e-5 on: n orders out,
        # a change of lam*f/D moves the branches n times as far
        assert k < self.K_LIMIT
        positions, truth = self._track(k)
        assert np.abs(positions - truth).max() <= 0.01
        assert np.ptp(positions) == pytest.approx(np.ptp(truth), abs=0.02)

    def test_a_drift_past_the_limit_aliases(self):
        # past lam/2 a frame (k above 4.0e-4 here) a step lands on the wrong
        # fringe order, as for any nearest-branch unwrap
        k = 6e-4
        assert k > self.K_LIMIT
        positions, truth = self._track(k)
        assert np.ptp(positions) < 0.5 * np.ptp(truth)


@pytest.mark.parametrize("scale", [0.0, -PIXEL_SCALE, math.nan, math.inf])
def test_bad_pixel_scale_is_rejected_by_name(scale):
    def frames():
        pytest.fail("a frame was read before the pixel scale was checked")
        yield

    with pytest.raises(ValueError, match="pixel_scale must be positive and finite"):
        measure_run(frames(), [5.32], scale)
