import math

import numpy as np
import pytest

from accordion import (
    OpticalParams,
    beam_angle,
    beam_angle_thin_lens,
    separation_for_spacing,
    spacing_fourier,
    spacing_thin_lens,
)


class TestSpacingFourier:
    def test_sweep_far_endpoint(self):
        d = spacing_fourier(OpticalParams(0.532, 80000, 3790))
        assert d == pytest.approx(11.2296, abs=5e-4)
        assert round(d, 1) == 11.2

    def test_sweep_near_endpoint(self):
        d = spacing_fourier(OpticalParams(0.532, 80000, 43810))
        assert d == pytest.approx(0.9714, abs=5e-4)

    def test_separation_equal_focal_gives_wavelength(self):
        assert spacing_fourier(OpticalParams(0.78, 5000, 5000)) == pytest.approx(0.78, rel=1e-15)


class TestSpacingThinLens:
    def test_large_angle_point(self):
        p = OpticalParams(0.532, 30000, 19250)
        assert spacing_thin_lens(p) == pytest.approx(0.8707, abs=1e-4)
        assert spacing_fourier(p) == pytest.approx(0.8291, abs=1e-4)
        assert spacing_thin_lens(p) / spacing_fourier(p) == pytest.approx(1.0502, abs=1e-4)

    def test_ratio_tends_to_one_for_small_separation(self):
        p = OpticalParams(0.532, 30000, 0.003)
        assert spacing_thin_lens(p) / spacing_fourier(p) == pytest.approx(1.0, abs=1e-12)

    def test_small_angle_point_indistinguishable(self):
        p = OpticalParams(0.532, 80000, 3790)
        assert spacing_thin_lens(p) / spacing_fourier(p) == pytest.approx(1.00028, abs=2e-5)
        assert spacing_thin_lens(p) == pytest.approx(11.23, abs=5e-3)

    def test_large_focal_length_does_not_overflow(self):
        # f**2 would overflow a float; the period is lam*f/D to within rounding
        p = OpticalParams(0.5, 1e200, 1.0)
        assert math.isfinite(spacing_thin_lens(p))
        assert spacing_thin_lens(p) / spacing_fourier(p) == pytest.approx(1.0, rel=1e-15)


class TestBeamAngle:
    def test_large_angle(self):
        p = OpticalParams(0.532, 30000, 19250)
        theta = beam_angle(p)
        assert theta == pytest.approx(0.6532, abs=2e-4)
        assert math.degrees(theta) == pytest.approx(37.4, abs=0.05)

    def test_small_separation_limit(self):
        assert beam_angle(OpticalParams(0.532, 30000, 1e-6)) == pytest.approx(0.0, abs=1e-9)

    def test_thin_lens_estimate_diverges_at_large_angle(self):
        p = OpticalParams(0.532, 30000, 19250)
        assert math.degrees(beam_angle_thin_lens(p)) == pytest.approx(35.6, abs=0.05)
        assert beam_angle(p) > beam_angle_thin_lens(p)


class TestSeparationForSpacing:
    def test_requested_small_spacing(self):
        assert separation_for_spacing(0.532, 80000, 0.96) == pytest.approx(44333.3, abs=0.1)

    def test_spacing_equal_wavelength_gives_focal(self):
        assert separation_for_spacing(0.65, 42000, 0.65) == pytest.approx(42000, rel=1e-15)

    def test_round_trip(self):
        p = OpticalParams(0.532, 80000, 12345.6)
        d = spacing_fourier(p)
        assert separation_for_spacing(0.532, 80000, d) == pytest.approx(p.separation, rel=1e-14)

    @pytest.mark.parametrize("spacing", [0.1, 0.266])
    def test_spacing_not_above_half_the_wavelength_rejected(self, spacing):
        # d <= lam/2 needs D >= 2f: the beams would miss the lens
        with pytest.raises(ValueError, match=r"smallest reachable spacing, lam/2 = 0\.266 um"
                                             r".*the beams miss the lens"):
            separation_for_spacing(0.532, 30000, spacing)
        assert separation_for_spacing(0.532, 30000, 0.27) < 2 * 30000

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            separation_for_spacing(0.532, 80000, 0.0)
        with pytest.raises(ValueError):
            separation_for_spacing(-0.5, 80000, 1.0)


class TestInvariants:
    @pytest.mark.parametrize("kwargs", [
        dict(wavelength=0.0, focal_length=1e4, separation=1e3),
        dict(wavelength=-0.5, focal_length=1e4, separation=1e3),
        dict(wavelength=0.5, focal_length=0.0, separation=1e3),
        dict(wavelength=0.5, focal_length=1e4, separation=-1.0),
        dict(wavelength=0.5, focal_length=1e4, separation=2e4),   # D = 2f
        dict(wavelength=0.5, focal_length=1e4, separation=3e4),   # D > 2f
        dict(wavelength=float("nan"), focal_length=1e4, separation=1e3),
        # each value positive and finite, but not the period lam*f/D
        dict(wavelength=1e200, focal_length=1e200, separation=1.0),     # lam*f overflows
        dict(wavelength=1e-200, focal_length=1e-200, separation=1e-300),  # lam*f underflows
        dict(wavelength=0.532, focal_length=3e4, separation=1e-310),    # lam*f/D overflows
    ])
    def test_rejected_parameters(self, kwargs):
        with pytest.raises(ValueError):
            OpticalParams(**kwargs)

    def test_separation_just_below_limit_accepted(self):
        OpticalParams(0.5, 1e4, 2e4 - 1e-6)


class TestProperties:
    """Identities over randomly drawn valid parameters."""

    def _draw(self, rng):
        wavelength = rng.uniform(0.2, 2.0)
        focal = 10 ** rng.uniform(3, 5)
        separation = rng.uniform(focal / 100, 1.9 * focal)
        return OpticalParams(wavelength, focal, separation)

    def test_product_identity(self, rng):
        for _ in range(300):
            p = self._draw(rng)
            lhs = spacing_fourier(p) * p.separation
            rhs = p.wavelength * p.focal_length
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_thin_lens_ratio_identity(self, rng):
        for _ in range(300):
            p = self._draw(rng)
            ratio = spacing_thin_lens(p) / spacing_fourier(p)
            expected = math.sqrt(1 + (p.separation / (2 * p.focal_length)) ** 2)
            assert abs(ratio - expected) <= 1e-12 * expected

    def test_spacing_monotone_in_separation(self, rng):
        for _ in range(50):
            wavelength = rng.uniform(0.2, 2.0)
            focal = 10 ** rng.uniform(3, 5)
            seps = np.sort(rng.uniform(focal / 100, 1.9 * focal, size=8))
            spacings = [spacing_fourier(OpticalParams(wavelength, focal, s)) for s in seps]
            assert all(a > b for a, b in zip(spacings, spacings[1:]))

    def test_spacing_monotone_in_wavelength_and_focal(self, rng):
        for _ in range(50):
            focal = 10 ** rng.uniform(3, 5)
            sep = rng.uniform(focal / 100, 1.5 * focal)
            w1, w2 = sorted(rng.uniform(0.2, 2.0, size=2))
            if w1 == w2:
                continue
            assert spacing_fourier(OpticalParams(w1, focal, sep)) \
                < spacing_fourier(OpticalParams(w2, focal, sep))
            f1, f2 = sorted([focal, focal * rng.uniform(1.01, 2.0)])
            assert spacing_fourier(OpticalParams(w1, f1, sep)) \
                < spacing_fourier(OpticalParams(w1, f2, sep))

    def test_angle_monotone_and_above_thin_lens(self, rng):
        for _ in range(50):
            focal = 10 ** rng.uniform(3, 5)
            seps = np.sort(rng.uniform(focal / 100, 1.9 * focal, size=8))
            angles = [beam_angle(OpticalParams(0.532, focal, s)) for s in seps]
            assert all(a < b for a, b in zip(angles, angles[1:]))
            for s, theta in zip(seps, angles):
                assert 0 < theta < math.pi
                assert theta > beam_angle_thin_lens(OpticalParams(0.532, focal, s))
