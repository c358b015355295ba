import math
from dataclasses import replace

import numpy as np
import pytest

from accordion import (
    BeamSpec,
    FieldGrid,
    GridSpec,
    IntensityFrame,
    LatticeConfig,
    OpticalParams,
    center_fringe_position,
    center_fringe_shift,
    default_grid,
    fields_intensity,
    focal_envelope,
    focal_field,
    fold_to_period,
    fringe_contrast,
    interference_intensity,
    intensity_at,
    lattice_fields,
    shifted_field,
    spacing_fourier,
)
from accordion.fields import beam_envelopes, fringes_at
from conftest import make_config


def centered_grid(width, nx, height=None, ny=None):
    return GridSpec(width=width, height=height or width, nx=nx, ny=ny or nx)


class TestTypes:
    def test_beam_spec_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BeamSpec(focal_waist=0.0)
        with pytest.raises(ValueError):
            BeamSpec(focal_waist=36.0, amplitude=-0.1)

    def test_lattice_config_needs_one_live_beam(self):
        optics = OpticalParams(0.532, 80000, 43810)
        with pytest.raises(ValueError):
            LatticeConfig(optics, BeamSpec(36, 0.0), BeamSpec(36, 0.0))

    def test_grid_invariants(self):
        with pytest.raises(ValueError):
            GridSpec(width=0.0, height=10.0)
        with pytest.raises(ValueError):
            GridSpec(width=10.0, height=10.0, nx=1)

    def test_frame_shape_and_negativity_checks(self):
        grid = centered_grid(10.0, 8)
        with pytest.raises(ValueError):
            IntensityFrame(grid, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            IntensityFrame(grid, -np.ones((8, 8)))
        with pytest.raises(ValueError):
            FieldGrid(grid, np.zeros((3, 3), dtype=complex))

    def test_default_grid_spans_waists(self):
        cfg = make_config(waist=20.0, waist2=50.0)
        grid = default_grid(cfg)
        assert grid.width == 200.0 and grid.height == 100.0
        assert (grid.nx, grid.ny) == (1024, 256)


class TestFocalEnvelope:
    def test_peak_and_waist_values(self):
        beam = BeamSpec(focal_waist=25.0, amplitude=1.5)
        grid = centered_grid(100.0, 101)  # nodes on integer um
        frame = focal_envelope(beam, grid)
        assert frame.values[50, 50] == pytest.approx(1.5**2, rel=1e-14)
        assert frame.values[50, 75] == pytest.approx(1.5**2 * math.exp(-2), rel=1e-12)

    def test_peak_follows_center_offset(self):
        beam = BeamSpec(focal_waist=20.0, amplitude=1.0, center_offset=(10.0, -5.0))
        frame = focal_envelope(beam, centered_grid(100.0, 201))
        iy, ix = np.unravel_index(np.argmax(frame.values), frame.values.shape)
        x = frame.grid.x_coords()
        y = frame.grid.y_coords()
        assert x[ix] == pytest.approx(10.0, abs=frame.grid.dx)
        assert y[iy] == pytest.approx(-5.0, abs=frame.grid.dy)

    def test_warns_when_grid_does_not_cover_waist(self):
        with pytest.warns(UserWarning, match="waist"):
            focal_envelope(BeamSpec(36.0), centered_grid(30.0, 64))


class TestShiftedField:
    def test_modulus_unchanged(self):
        optics = OpticalParams(0.532, 80000, 20000)
        base = focal_field(BeamSpec(36.0), centered_grid(120.0, 257))
        shifted = shifted_field(base, +1, optics)
        assert np.allclose(np.abs(shifted.values), np.abs(base.values), rtol=1e-14)

    @pytest.mark.filterwarnings("ignore:grid extent")
    def test_conjugate_pair_beats_at_fringe_frequency(self):
        optics = OpticalParams(0.532, 80000, 20000)
        grid = centered_grid(20.0, 257)
        base = focal_field(BeamSpec(500.0), grid)  # wide beam: modulus ~ 1
        plus = shifted_field(base, +1, optics)
        minus = shifted_field(base, -1, optics)
        product = plus.values[0] * np.conj(minus.values[0])
        x = grid.x_coords()
        freq = optics.separation / (optics.wavelength * optics.focal_length)
        expected = np.abs(product) * np.exp(-2j * math.pi * freq * x)
        assert np.allclose(product, expected, rtol=1e-10, atol=1e-10)

    def test_vanishing_separation_is_identity(self):
        optics = OpticalParams(0.532, 80000, 1e-12)
        base = focal_field(BeamSpec(36.0), centered_grid(120.0, 129))
        shifted = shifted_field(base, +1, optics)
        assert np.allclose(shifted.values, base.values, rtol=0, atol=1e-12)

    def test_bad_sign_rejected(self):
        optics = OpticalParams(0.532, 80000, 20000)
        base = focal_field(BeamSpec(36.0), centered_grid(120.0, 65))
        with pytest.raises(ValueError):
            shifted_field(base, 2, optics)


class TestInterferenceIntensity:
    def test_equal_beams_doubling_and_null(self):
        cfg = make_config(separation=8000.0)  # d = 5.32 um
        d = spacing_fourier(cfg.optics)
        grid = GridSpec(width=2 * d, height=2 * d, nx=17, ny=5)  # node at d/2
        frame = interference_intensity(cfg, grid)
        x = grid.x_coords()
        center = frame.values[2, 8]
        assert x[8] == pytest.approx(0.0, abs=1e-12)
        assert center == pytest.approx(4.0, rel=1e-12)
        assert x[12] == pytest.approx(d / 2, rel=1e-12)
        assert frame.values[2, 12] <= 1e-12

    def test_reduces_to_doubled_envelope_formula(self):
        cfg = make_config(separation=43810.0, waist=36.0)
        grid = default_grid(cfg)
        general = interference_intensity(cfg, grid).values
        envelope = focal_envelope(cfg.beam_plus, grid).values
        x = grid.x_coords()
        freq = cfg.optics.separation / (cfg.optics.wavelength * cfg.optics.focal_length)
        literal = 2 * (np.cos(2 * math.pi * freq * x)[None, :] + 1) * envelope
        assert np.allclose(general, literal, rtol=1e-12, atol=1e-12 * literal.max())

    def test_matches_complex_field_superposition(self):
        cfg = make_config(separation=20000.0, waist=30.0, waist2=45.0,
                          amp=1.0, amp2=0.6, path_difference=0.21)
        grid = GridSpec(width=180.0, height=90.0, nx=1501, ny=64)
        closed = interference_intensity(cfg, grid).values
        u_plus, u_minus = lattice_fields(cfg, grid)
        squared = fields_intensity(u_plus, u_minus).values
        assert np.allclose(closed, squared, rtol=1e-11, atol=1e-12 * closed.max())

    @pytest.mark.parametrize("plus, minus, path_difference", [
        (BeamSpec(36.0, 1.0, (6.0, -4.0)), BeamSpec(36.0, 1.0, (-5.0, 3.0)), 0.0),
        (BeamSpec(30.0, 1.0), BeamSpec(45.0, 0.6), 0.0),
        (BeamSpec(36.0), BeamSpec(36.0), 0.37),
        (BeamSpec(30.0, 0.9, (4.0, 2.5)), BeamSpec(42.0, 0.5, (-3.0, -6.0)), -0.21),
    ], ids=["off-axis", "unequal-beams", "path-difference", "all"])
    def test_intensity_at_matches_complex_fields(self, plus, minus, path_difference):
        cfg = LatticeConfig(OpticalParams(0.532, 80000.0, 20000.0), plus, minus,
                            path_difference)
        grid = GridSpec(width=200.0, height=120.0, nx=1501, ny=64)
        closed = intensity_at(cfg, grid.x_coords(), grid.y_coords())
        squared = fields_intensity(*lattice_fields(cfg, grid)).values
        assert np.allclose(closed, squared, rtol=1e-11, atol=1e-12 * closed.max())

    def test_envelopes_are_shared_across_separations_and_path_differences(self):
        base = LatticeConfig(OpticalParams(0.532, 80000.0, 20000.0),
                             BeamSpec(30.0, 0.9, (4.0, 2.5)), BeamSpec(42.0, 0.5))
        x = np.linspace(-80.0, 80.0, 801)
        y = np.linspace(-30.0, 30.0, 40)
        envelopes = beam_envelopes(base, x, y)
        assert not envelopes[0].flags.writeable
        for separation, path_difference in ((20000.0, 0.0), (35000.0, 0.19),
                                             (9000.0, -0.4)):
            cfg = replace(base, optics=replace(base.optics, separation=separation),
                          path_difference=path_difference)
            assert np.array_equal(fringes_at(cfg, x, envelopes), intensity_at(cfg, x, y))

    @pytest.mark.filterwarnings("ignore:grid extent")
    def test_common_phase_invariance(self, rng):
        cfg = make_config(separation=20000.0, waist=30.0, waist2=45.0, amp2=0.7)
        grid = GridSpec(width=180.0, height=20.0, nx=701, ny=8)
        u_plus, u_minus = lattice_fields(cfg, grid)
        base = fields_intensity(u_plus, u_minus).values
        mask = np.exp(1j * rng.uniform(-math.pi, math.pi, size=base.shape))
        masked = fields_intensity(FieldGrid(grid, u_plus.values * mask),
                                  FieldGrid(grid, u_minus.values * mask)).values
        assert np.allclose(masked, base, rtol=1e-12, atol=1e-12 * base.max())

    def test_nonnegative_and_bounded_by_four_envelopes(self):
        cfg = make_config(separation=30000.0, waist=36.0)
        grid = default_grid(cfg)
        vals = interference_intensity(cfg, grid).values
        peak_envelope = focal_envelope(cfg.beam_plus, grid).values.max()
        assert np.all(vals >= 0)
        assert vals.max() <= 4 * peak_envelope * (1 + 1e-12)

    def test_energy_is_sum_of_beam_energies(self):
        # grid spans 6 waists and ~42 fringes: cross term integrates out
        cfg = make_config(separation=10000.0, waist=30.0, amp=1.0, amp2=1.3,
                          path_difference=0.2)
        grid = GridSpec(width=180.0, height=180.0, nx=2048, ny=256)
        x, y = grid.x_coords(), grid.y_coords()
        total = np.trapezoid(np.trapezoid(
            interference_intensity(cfg, grid).values, x, axis=1), y)
        singles = 0.0
        for beam in (cfg.beam_plus, cfg.beam_minus):
            singles += np.trapezoid(np.trapezoid(
                focal_envelope(beam, grid).values, x, axis=1), y)
        assert total == pytest.approx(singles, rel=5e-3)

    def test_undersampled_grid_rejected(self):
        cfg = make_config(separation=43810.0)  # d = 0.97 um
        grid = GridSpec(width=144.0, height=20.0, nx=256, ny=8)  # 1.7 samples/fringe
        with pytest.raises(ValueError, match="samples per fringe"):
            interference_intensity(cfg, grid)


class TestCenterFringe:
    def test_sensitivity_reference_point(self):
        # d = 10 um exactly: D = lam*f/10
        cfg = make_config(separation=4256.0, path_difference=4.26)
        assert spacing_fourier(cfg.optics) == pytest.approx(10.0, rel=1e-14)
        shift = center_fringe_shift(cfg)
        assert shift == pytest.approx(-80.075, abs=2e-3)
        assert shift / 10.0 == pytest.approx(-8.0075, abs=2e-4)
        assert center_fringe_position(cfg) == pytest.approx(-0.0752, abs=2e-3)

    def test_zero_path_difference(self):
        cfg = make_config(path_difference=0.0)
        assert center_fringe_shift(cfg) == 0.0
        assert center_fringe_position(cfg) == 0.0

    def test_one_wavelength_is_one_fringe(self):
        cfg = make_config(separation=4256.0, path_difference=0.532)
        d = spacing_fourier(cfg.optics)
        assert center_fringe_shift(cfg) == pytest.approx(-d, rel=1e-12)
        assert center_fringe_position(cfg) == pytest.approx(0.0, abs=1e-9)

    def test_fold_interval_is_half_open(self):
        assert fold_to_period(5.0, 10.0) == pytest.approx(5.0)
        assert fold_to_period(-5.0, 10.0) == pytest.approx(5.0)
        assert fold_to_period(12.0, 10.0) == pytest.approx(2.0)
        folded = fold_to_period(np.array([-7.0, 3.0, 18.0]), 10.0)
        assert np.allclose(folded, [3.0, 3.0, -2.0])


class TestConjugateWaist:
    def test_reference_value(self):
        from accordion import conjugate_waist
        # 2 mm collimated beam through the f = 80 mm lens
        assert conjugate_waist(0.532, 80000.0, 2000.0) == pytest.approx(6.773, abs=1e-3)

    def test_self_inverse(self):
        from accordion import conjugate_waist
        w = conjugate_waist(0.532, 80000.0, 36.0)
        assert conjugate_waist(0.532, 80000.0, w) == pytest.approx(36.0, rel=1e-14)

    def test_rejects_nonpositive(self):
        from accordion import conjugate_waist
        with pytest.raises(ValueError):
            conjugate_waist(0.532, 80000.0, 0.0)


class TestFringeContrast:
    def test_reference_values(self):
        assert fringe_contrast(1.0) == pytest.approx(1.0, rel=1e-15)
        assert fringe_contrast(0.0) == 0.0
        assert fringe_contrast(0.25) == pytest.approx(0.8, rel=1e-15)

    def test_rejects_negative_ratio(self):
        with pytest.raises(ValueError):
            fringe_contrast(-0.1)

    def test_bounded_and_maximal_only_at_unity(self, rng):
        for r in rng.uniform(0.0, 20.0, size=200):
            c = fringe_contrast(r)
            assert 0.0 <= c <= 1.0
            if abs(r - 1.0) > 1e-6:
                assert c < 1.0
