import inspect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import accordion
from accordion import (
    BeamSpec,
    LatticeConfig,
    OpticalParams,
    center_fringe_position,
    center_fringe_shift,
    fold_to_period,
    fringe_contrast,
    intensity_at,
    spacing_fourier,
)
from accordion.fields import beam_envelopes, cross_row, fringes_into, require_resolved
from conftest import WAVELENGTH, make_camera, make_config
from oracles import beam_field, beam_intensity, fraunhofer_row, shifted_field, tilted_fields


def axis(width, n):
    """n nodes from -width/2 to +width/2 inclusive, in micrometers."""
    return np.linspace(-width / 2, width / 2, n)


class TestTypes:
    def test_beam_spec_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BeamSpec(focal_waist=0.0)
        with pytest.raises(ValueError):
            BeamSpec(focal_waist=36.0, amplitude=-0.1)

    @pytest.mark.parametrize("waist", [1e200, 1e-200, 1e-160])
    def test_beam_spec_rejects_a_waist_whose_square_is_not_positive_and_finite(
            self, waist):
        # the profiles divide by the waist squared: 1e200 overflows it,
        # 1e-200 makes it 0, the center pixel 0 / 0, and 1e-160 leaves it a
        # subnormal whose reciprocal overflows
        with pytest.raises(ValueError,
                           match="focal_waist squared must be positive and finite"):
            BeamSpec(focal_waist=waist)

    @pytest.mark.parametrize("offset", [
        (float("nan"), 0.0), (0.0, float("inf")), (-float("inf"), 0.0), (1.0,),
        (1.0, 2.0, 3.0), 5.0, ("a", 0.0)],
        ids=["nan", "inf", "-inf", "one", "three", "scalar", "text"])
    def test_beam_spec_rejects_an_offset_that_is_not_two_finite_numbers(self, offset):
        # a NaN offset would cast NaN into the frame, an infinite one remove
        # the beam, and a 1-tuple fail inside the render
        with pytest.raises(ValueError, match="center_offset must be two finite numbers"):
            BeamSpec(36.0, 1.0, offset)

    def test_a_pinpoint_beam_is_dark_off_its_center(self):
        # u*u / w2 overflows a pixel away: the profile is its limit 0, and no
        # overflow warning (an error under the test settings) is raised
        cfg = make_config(separation=20000.0, waist=1e-154)
        vals = intensity_at(cfg, axis(10.0, 101), axis(4.0, 5))
        assert vals[2, 50] == 4.0
        vals[2, 50] = 0.0
        assert not vals.any()

    def test_lattice_config_rejects_a_peak_intensity_that_is_not_finite(self):
        # each amplitude squared is finite, (a1 + a2)^2 is not
        optics = OpticalParams(0.532, 80000, 43810)
        with pytest.raises(ValueError, match=r"peak intensity \(a1 \+ a2\)\^2 no finite"):
            LatticeConfig(optics, BeamSpec(36, 1e154), BeamSpec(36, 1e154))

    def test_beam_spec_rejects_an_amplitude_whose_square_is_not_finite(self):
        with pytest.raises(ValueError, match="its square finite, got 1e[+]200"):
            BeamSpec(focal_waist=36.0, amplitude=1e200)
        # a square that underflows is a dark beam, not an error
        assert BeamSpec(focal_waist=36.0, amplitude=1e-200).amplitude == 1e-200

    def test_lattice_config_needs_one_live_beam(self):
        optics = OpticalParams(0.532, 80000, 43810)
        with pytest.raises(ValueError):
            LatticeConfig(optics, BeamSpec(36, 0.0), BeamSpec(36, 0.0))

    def test_grid_names_are_gone(self):
        # the sampled-grid rendering path and its bilinear resampler
        gone = {"GridSpec", "FieldGrid", "IntensityFrame", "default_grid",
                "focal_envelope", "focal_field", "shifted_field", "lattice_fields",
                "fields_intensity", "interference_intensity", "_warn_if_uncovered",
                "_bilinear"}
        for module in (accordion, accordion.fields, accordion.instrument):
            assert sorted(gone & set(vars(module))) == []
        assert next(iter(inspect.signature(accordion.render_frame).parameters)) == "cfg"


class TestFocalEnvelope:
    # with the second beam dark, intensity_at is the first beam's envelope

    def test_peak_and_waist_values(self):
        cfg = make_config(separation=8000.0, waist=25.0, amp=1.5, amp2=0.0)
        x = axis(100.0, 101)  # nodes on integer um
        values = intensity_at(cfg, x, x)
        assert values[50, 50] == pytest.approx(1.5**2, rel=1e-14)
        assert values[50, 75] == pytest.approx(1.5**2 * math.exp(-2), rel=1e-12)

    def test_peak_follows_center_offset(self):
        cfg = LatticeConfig(OpticalParams(0.532, 80000.0, 8000.0),
                            BeamSpec(20.0, 1.0, (10.0, -5.0)), BeamSpec(20.0, 0.0))
        x = axis(100.0, 201)
        values = intensity_at(cfg, x, x)
        iy, ix = np.unravel_index(np.argmax(values), values.shape)
        assert x[ix] == pytest.approx(10.0, abs=x[1] - x[0])
        assert x[iy] == pytest.approx(-5.0, abs=x[1] - x[0])


class TestShiftedField:
    # the phase tilt of the complex-field oracle that intensity_at is checked against

    def test_modulus_unchanged(self):
        optics = OpticalParams(0.532, 80000, 20000)
        x = axis(120.0, 257)
        base = beam_field(BeamSpec(36.0), x, x)
        shifted = shifted_field(base, +1, optics, x)
        assert np.allclose(np.abs(shifted), np.abs(base), rtol=1e-14)

    def test_conjugate_pair_beats_at_fringe_frequency(self):
        optics = OpticalParams(0.532, 80000, 20000)
        x = axis(20.0, 257)
        base = beam_field(BeamSpec(500.0), x, x)  # wide beam: modulus ~ 1
        plus = shifted_field(base, +1, optics, x)
        minus = shifted_field(base, -1, optics, x)
        product = plus[0] * np.conj(minus[0])
        freq = optics.separation / (optics.wavelength * optics.focal_length)
        expected = np.abs(product) * np.exp(-2j * math.pi * freq * x)
        assert np.allclose(product, expected, rtol=1e-10, atol=1e-10)

    def test_vanishing_separation_is_identity(self):
        optics = OpticalParams(0.532, 80000, 1e-12)
        x = axis(120.0, 129)
        base = beam_field(BeamSpec(36.0), x, x)
        shifted = shifted_field(base, +1, optics, x)
        assert np.allclose(shifted, base, rtol=0, atol=1e-12)

    def test_bad_sign_rejected(self):
        optics = OpticalParams(0.532, 80000, 20000)
        x = axis(120.0, 65)
        base = beam_field(BeamSpec(36.0), x, x)
        with pytest.raises(ValueError):
            shifted_field(base, 2, optics, x)


class TestInterferenceIntensity:
    def test_equal_beams_doubling_and_null(self):
        cfg = make_config(separation=8000.0)  # d = 5.32 um
        d = spacing_fourier(cfg.optics)
        x = axis(2 * d, 17)  # node at d/2
        values = intensity_at(cfg, x, axis(2 * d, 5))
        center = values[2, 8]
        assert x[8] == pytest.approx(0.0, abs=1e-12)
        assert center == pytest.approx(4.0, rel=1e-12)
        assert x[12] == pytest.approx(d / 2, rel=1e-12)
        assert values[2, 12] <= 1e-12

    def test_reduces_to_doubled_envelope_formula(self):
        cfg = make_config(separation=43810.0, waist=36.0)
        x, y = axis(144.0, 1024), axis(72.0, 256)  # 4 x 2 waists
        general = intensity_at(cfg, x, y)
        envelope = beam_intensity(cfg.beam_plus, x, y)
        freq = cfg.optics.separation / (cfg.optics.wavelength * cfg.optics.focal_length)
        literal = 2 * (np.cos(2 * math.pi * freq * x)[None, :] + 1) * envelope
        assert np.allclose(general, literal, rtol=1e-12, atol=1e-12 * literal.max())

    def test_matches_complex_field_superposition(self):
        cfg = make_config(separation=20000.0, waist=30.0, waist2=45.0,
                          amp=1.0, amp2=0.6, path_difference=0.21)
        x, y = axis(180.0, 1501), axis(90.0, 64)
        closed = intensity_at(cfg, x, y)
        u_plus, u_minus = tilted_fields(cfg, x, y)
        squared = np.abs(u_plus + u_minus) ** 2
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
        x, y = axis(200.0, 1501), axis(120.0, 64)
        closed = intensity_at(cfg, x, y)
        u_plus, u_minus = tilted_fields(cfg, x, y)
        squared = np.abs(u_plus + u_minus) ** 2
        assert np.allclose(closed, squared, rtol=1e-11, atol=1e-12 * closed.max())

    def test_envelopes_are_shared_across_separations_and_path_differences(self):
        base = LatticeConfig(OpticalParams(0.532, 80000.0, 20000.0),
                             BeamSpec(30.0, 0.9, (4.0, 2.5)), BeamSpec(42.0, 0.5))
        x = np.linspace(-80.0, 80.0, 801)
        y = np.linspace(-30.0, 30.0, 40)
        envelope, cross_y, cross_x = beam_envelopes(base, x, y)
        assert not envelope.flags.writeable
        assert envelope.shape == (40, 801) and cross_y.shape == (40,)
        assert cross_x.shape == (801,)
        for separation, path_difference in ((20000.0, 0.0), (35000.0, 0.19),
                                             (9000.0, -0.4)):
            cfg = replace(base, optics=replace(base.optics, separation=separation),
                          path_difference=path_difference)
            fringes = fringes_into(np.empty(envelope.shape), envelope, cross_y,
                                   cross_row(base.optics, separation, path_difference,
                                             x, cross_x))
            assert np.array_equal(fringes, intensity_at(cfg, x, y))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 40), width=st.integers(1, 300),
           descending=st.booleans())
    def test_fringes_into_equals_the_outer_product_form(self, data, rows, width,
                                                        descending):
        # the block of rows a renderer hands over: envelope rows read
        # ascending or, past a frame's center, descending, as views
        values = st.floats(-4.0, 4.0, allow_nan=False)
        envelope = data.draw(hnp.arrays(float, (2 * rows, width + 3),
                                        elements=st.floats(0.0, 4.0)))
        cross_y = data.draw(hnp.arrays(float, 2 * rows, elements=values))
        row = data.draw(hnp.arrays(float, width, elements=values))
        src = slice(rows - 1, None, -1) if descending else slice(rows, None)
        expected = np.multiply.outer(cross_y[src], row)
        expected += envelope[src, :width]
        np.maximum(expected, 0.0, out=expected)
        out = fringes_into(np.empty((rows, width)), envelope[src, :width],
                           cross_y[src], row)
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))

    def test_fringes_into_allocates_at_most_64_kb(self, rng):
        # a 32 x 1280 block, the block of a 1280-pixel-wide sensor: the
        # cross term once took a 124 KB iterator buffer
        envelope, cross_y = rng.random((32, 1280)), rng.random(32)
        row, out = rng.standard_normal(1280), np.empty((32, 1280))
        fringes_into(out, envelope, cross_y, row)
        tracemalloc.start()
        try:
            fringes_into(out, envelope, cross_y, row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 << 10

    def test_common_phase_invariance(self, rng):
        cfg = make_config(separation=20000.0, waist=30.0, waist2=45.0, amp2=0.7)
        u_plus, u_minus = tilted_fields(cfg, axis(180.0, 701), axis(20.0, 8))
        base = np.abs(u_plus + u_minus) ** 2
        mask = np.exp(1j * rng.uniform(-math.pi, math.pi, size=base.shape))
        masked = np.abs(u_plus * mask + u_minus * mask) ** 2
        assert np.allclose(masked, base, rtol=1e-12, atol=1e-12 * base.max())

    def test_nonnegative_and_bounded_by_four_envelopes(self):
        cfg = make_config(separation=30000.0, waist=36.0)
        x, y = axis(144.0, 1024), axis(72.0, 256)  # 4 x 2 waists
        vals = intensity_at(cfg, x, y)
        peak_envelope = beam_intensity(cfg.beam_plus, x, y).max()
        assert np.all(vals >= 0)
        assert vals.max() <= 4 * peak_envelope * (1 + 1e-12)

    def test_energy_is_sum_of_beam_energies(self):
        # grid spans 6 waists and ~42 fringes: cross term integrates out
        cfg = make_config(separation=10000.0, waist=30.0, amp=1.0, amp2=1.3,
                          path_difference=0.2)
        x, y = axis(180.0, 2048), axis(180.0, 256)
        total = np.trapezoid(np.trapezoid(intensity_at(cfg, x, y), x, axis=1), y)
        singles = 0.0
        for beam in (cfg.beam_plus, cfg.beam_minus):
            singles += np.trapezoid(np.trapezoid(
                beam_intensity(beam, x, y), x, axis=1), y)
        assert total == pytest.approx(singles, rel=5e-3)

    def test_undersampled_grid_rejected(self):
        cfg = make_config(separation=43810.0)  # d = 0.97 um
        x, y = axis(144.0, 256), axis(20.0, 8)  # 1.7 samples/fringe
        with pytest.raises(ValueError, match="samples per fringe"):
            intensity_at(cfg, x, y)


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

    @pytest.mark.parametrize("cfg", [
        make_config(separation=43810.0),
        make_config(separation=3810.0, waist2=40.0, amp2=0.8, path_difference=0.1),
        make_config(separation=10000.0, path_difference=0.25),
    ], ids=["fig6b-start", "fig6b-far-unequal-beams", "10mm-quarter-wave"])
    def test_center_row_matches_a_fraunhofer_sum(self, cfg):
        # the oracle derives the tilts and the sign of dL from the lens
        # plane: dL is beam_minus's path minus beam_plus's
        x = make_camera().pixel_x()
        row = intensity_at(cfg, x, np.zeros(1))[0]
        assert np.max(np.abs(fraunhofer_row(cfg, x) - row)) <= 1e-12 * row.max()

    @settings(max_examples=25, deadline=None)
    @given(focal=st.floats(20000.0, 100000.0), pixel_scale=st.floats(0.03, 0.2),
           fill=st.floats(0.02, 0.999),
           waists=st.tuples(st.floats(10.0, 60.0), st.floats(10.0, 60.0)),
           amplitudes=st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0)),
           path_difference=st.floats(-2.0, 2.0),
           offsets=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    def test_center_row_matches_a_fraunhofer_sum_wherever_it_renders(
            self, focal, pixel_scale, fill, waists, amplitudes, path_difference, offsets):
        # D up to the nearer of the renderer's two limits, a fringe of 4
        # pixels and twice the focal length: the first binds at coarse pixels,
        # the second at fine ones; each beam off the axis in x by up to 2
        # of its waists
        x = make_camera(sensor=(256, 1), pixel_scale=pixel_scale).pixel_x()
        limit = min(WAVELENGTH * focal / (4 * pixel_scale), 2 * focal)
        cfg = LatticeConfig(
            optics=OpticalParams(WAVELENGTH, focal, fill * limit),
            beam_plus=BeamSpec(waists[0], amplitudes[0], (offsets[0] * waists[0], 0.0)),
            beam_minus=BeamSpec(waists[1], amplitudes[1], (offsets[1] * waists[1], 0.0)),
            path_difference=path_difference)
        require_resolved(cfg.optics, x)
        row = intensity_at(cfg, x, np.zeros(1))[0]
        assert np.max(np.abs(fraunhofer_row(cfg, x) - row)) <= 1e-12 * row.max()

    def test_the_fraunhofer_sum_refuses_a_y_offset(self):
        cfg = replace(make_config(), beam_minus=BeamSpec(36.0, 1.0, (0.0, 5.0)))
        with pytest.raises(ValueError, match="centred in y only"):
            fraunhofer_row(cfg, make_camera().pixel_x())

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
