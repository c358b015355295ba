"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.
"""

import math

import numpy as np
import pytest

from accordion import (
    OpticalParams,
    beam_angle,
    build_trajectory,
    calibrate_pixel_scale,
    fit_knife_edge,
    intensity_at,
    measure_frame,
    measure_run,
    render_frame,
    render_sequence,
    spacing_fourier,
    spacing_thin_lens,
    static_sweep,
    MirrorDrive,
)
from accordion.cli import main
from accordion.fields import BeamSpec
from accordion.runfiles import read_manifest, read_pgm
from conftest import PIXEL_SCALE, WAVELENGTH, make_camera, make_config, render_simple
from oracles import (
    autocorr_period,
    beam_intensity,
    half_plane_knife_profile,
    tilted_fields,
)

FIG6B_DRIVE = MirrorDrive(initial_separation=43810.0, speed=20000.0,
                          travel=20000.0, dwell=0.5, frame_rate=30.0)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def fig6b_run(tmp_path_factory):
    """The fast-sweep preset rendered through the CLI, then read back."""
    out = tmp_path_factory.mktemp("acceptance") / "fig6b"
    assert main(["sweep", "--preset", "fig6b", "--out", str(out)]) == 0
    records = read_manifest(out / "manifest.csv")
    frames = [read_pgm(out / r.frame) for r in records]
    return out, frames, records


def test_criterion_1_spacing_law():
    focal = 30000.0
    seps = [5000.0, 8000.0, 11000.0, 14000.0, 17000.0, 19250.0]
    worst = 0.0
    for sep in seps:
        img = render_simple(sep, focal=focal, waist=36.0, waist2=40.0)
        period_px = measure_frame(img).period_px
        expected = WAVELENGTH * focal / sep
        worst = max(worst, abs(period_px * PIXEL_SCALE - expected) / expected)
    # thin-lens estimate must disagree with the measurement at the large angle
    img = render_simple(19250.0, focal=focal, waist=36.0, waist2=40.0)
    measured = measure_frame(img).period_px * PIXEL_SCALE
    thin = spacing_thin_lens(OpticalParams(WAVELENGTH, focal, 19250.0))
    deviation = abs(thin - measured) / measured
    ok = worst <= 0.005 and deviation > 0.03
    report(1, "spacing law", ok,
           f"worst extraction error {worst:.2%}, thin-lens deviation {deviation:.2%}")


def test_criterion_2_beam_angle():
    theta = math.degrees(beam_angle(OpticalParams(WAVELENGTH, 30000.0, 19250.0)))
    ok = abs(theta - 37.4) <= 0.1
    report(2, "beam angle", ok, f"theta = {theta:.3f} deg")


def test_criterion_3_accordion_sweep(fig6b_run):
    _, frames, records = fig6b_run
    n_ok = len(records) == 76 and records[-1].time_s == pytest.approx(2.5)
    analytic = np.array([r.analytic_spacing_um for r in records])
    d_start = WAVELENGTH * 80000.0 / 43810.0      # 0.9714 um
    d_far = WAVELENGTH * 80000.0 / 3790.0         # 11.2296 um
    start_px = measure_frame(frames[0]).period_px * PIXEL_SCALE
    peak_px = measure_frame(frames[37]).period_px * PIXEL_SCALE   # mid-dwell
    end_px = measure_frame(frames[-1]).period_px * PIXEL_SCALE
    errs = (abs(start_px - d_start) / d_start,
            abs(peak_px - d_far) / d_far,
            abs(end_px - d_start) / d_start)
    sweep_ok = (analytic[0] == pytest.approx(d_start, rel=1e-12)
                and analytic.max() == pytest.approx(11.17, abs=0.01)
                and analytic[-1] == pytest.approx(d_start, rel=1e-12))
    rounding_ok = abs(start_px - 0.96) / 0.96 <= 0.02 \
        and abs(peak_px - 11.2) / 11.2 <= 0.01
    ok = n_ok and sweep_ok and rounding_ok and max(errs) <= 0.01
    report(3, "accordion sweep", ok,
           f"76 frames over 2.5 s, extracted {start_px:.4f} -> {peak_px:.3f} -> "
           f"{end_px:.4f} um, endpoint errors {max(errs):.2%}")


def test_criterion_4_center_fringe_stability(fig6b_run):
    _, frames, records = fig6b_run
    spacings = [r.analytic_spacing_um for r in records]
    ideal = measure_run(frames, spacings, PIXEL_SCALE)
    ideal_drift = max(abs(r.position_um) for r in ideal)
    ideal_ok = ideal_drift <= 0.1 * PIXEL_SCALE and not any(r.flagged for r in ideal)

    # same trajectory with a 0.5 um path-difference step injected mid-dwell
    step = 0.5
    trajectory = build_trajectory(FIG6B_DRIVE)
    trajectory = trajectory.with_path_difference(
        np.where(trajectory.times >= 1.25, step, 0.0))
    cfg = make_config(separation=43810.0, waist=36.0)
    cam = make_camera()
    step_frames, step_records = render_sequence(trajectory, cfg, cam)
    positions = [r.position_um for r in measure_run(
        step_frames, [r.analytic_spacing_um for r in step_records], PIXEL_SCALE)]
    worst_rel = 0.0
    worst_pre = 0.0
    for i, rec in enumerate(step_records):
        if rec.path_difference_um == 0.0:
            worst_pre = max(worst_pre, abs(positions[i]))
            continue
        d = rec.analytic_spacing_um
        expected = -step * 80000.0 / rec.separation_um
        expected -= d * round(expected / d)
        worst_rel = max(worst_rel,
                        abs(positions[i] - expected) / abs(expected))
    step_ok = worst_pre <= 0.1 * PIXEL_SCALE and worst_rel <= 0.05
    ok = ideal_ok and step_ok
    report(4, "center-fringe stability", ok,
           f"ideal max drift {ideal_drift:.2e} um, "
           f"step tracking error {worst_rel:.2%}")


def test_criterion_5_bs_sensitivity(capsys):
    assert main(["sensitivity", "--spacing", "10", "--deviations", "2.13"]) == 0
    out = capsys.readouterr().out
    row = [float(tok) for tok in out.splitlines()[-1].split()]
    dev, path, fringes, shift_um, mirror = row
    ok = (path == pytest.approx(4.26, abs=1e-9)
          and abs(fringes - 8.0) <= 0.05
          and abs(shift_um - 80.0) <= 1.0
          and mirror == 0.0)
    report(5, "beam-splitter-translation sensitivity", ok,
           f"2.13 um -> {path} um path, {fringes:.4f} fringes, {shift_um:.2f} um")


def test_criterion_6_calibration():
    focal = 30000.0
    seps = np.linspace(5000.0, 19250.0, 12)

    def sweep_points(read_noise, seed):
        pts = []
        for i, sep in enumerate(seps):
            img = render_simple(sep, focal=focal, read_noise=read_noise,
                                seed=seed, frame_index=i)
            pts.append((WAVELENGTH * focal / sep, measure_frame(img).period_px))
        return pts

    clean = calibrate_pixel_scale(sweep_points(0.0, 0))
    noisy = calibrate_pixel_scale(sweep_points(2.0, 0))
    clean_rel = abs(clean.pixel_scale - PIXEL_SCALE) / PIXEL_SCALE
    noisy_abs = abs(noisy.pixel_scale - PIXEL_SCALE)
    ok = clean_rel <= 1e-4 and noisy_abs <= 5e-4
    report(6, "pixel-scale calibration", ok,
           f"noise-free rel error {clean_rel:.2e}, "
           f"read-noise-2 error {noisy_abs:.2e} um/px")


def test_criterion_7_knife_edge():
    results = {}
    for waist in (36.0, 40.0):
        beam = BeamSpec(focal_waist=waist)
        x = np.linspace(-3 * waist, 3 * waist, 2001)
        y = np.linspace(-3 * waist, 3 * waist, 501)
        positions = np.linspace(-1.5 * waist, 1.5 * waist, 15)
        powers = half_plane_knife_profile(beam_intensity(beam, x, y), x, y, positions)
        results[waist] = fit_knife_edge(positions, powers).waist
    ok = all(abs(results[w] - w) <= 0.2 for w in results)
    report(7, "knife-edge waists", ok,
           f"36 -> {results[36.0]:.3f} um, 40 -> {results[40.0]:.3f} um")


def test_criterion_8_property_suites(rng):
    details = []

    # envelope independence of the period: 20 um vs 200 um waists
    sep = WAVELENGTH * 80000.0 / 2.0  # d = 2 um
    cam = make_camera(sensor=(640, 32))
    periods = []
    for waist in (20.0, 200.0):
        cfg = make_config(separation=sep, waist=waist)
        periods.append(measure_frame(render_frame(cfg, cam)).period_px)
    envelope_ok = abs(periods[0] - periods[1]) / periods[1] <= 0.005
    details.append(f"envelope independence {abs(periods[0] - periods[1]) / periods[1]:.2e}")

    # common-phase invariance of |U+ + U-|^2
    cfg = make_config(separation=20000.0, waist=30.0, waist2=45.0, amp2=0.7,
                      path_difference=0.1)
    u_plus, u_minus = tilted_fields(cfg, np.linspace(-90.0, 90.0, 701),
                                    np.linspace(-10.0, 10.0, 8))
    base = np.abs(u_plus + u_minus) ** 2
    mask = np.exp(1j * rng.uniform(-math.pi, math.pi, size=base.shape))
    masked = np.abs(u_plus * mask + u_minus * mask) ** 2
    phase_ok = bool(np.allclose(masked, base, rtol=1e-12, atol=1e-12 * base.max()))
    details.append("common-phase invariance at 1e-12")

    # closed form reduces to the doubled-envelope formula for identical beams
    cfg = make_config(separation=43810.0, waist=36.0)
    x = np.linspace(-72.0, 72.0, 1024)
    y = np.linspace(-36.0, 36.0, 128)
    general = intensity_at(cfg, x, y)
    envelope = beam_intensity(cfg.beam_plus, x, y)
    freq = cfg.optics.separation / (cfg.optics.wavelength * cfg.optics.focal_length)
    literal = 2 * (np.cos(2 * math.pi * freq * x)[None, :] + 1) * envelope
    reduction_ok = bool(np.allclose(general, literal, rtol=1e-12,
                                    atol=1e-12 * literal.max()))
    details.append("doubled-envelope reduction at 1e-12")

    # autocorrelation oracle agreement over 200 random configurations
    worst = 0.0
    oracle_cam = make_camera(sensor=(640, 16))
    for _ in range(200):
        period_px = float(np.exp(rng.uniform(np.log(6), np.log(150))))
        waist = float(rng.uniform(150.0, 400.0))
        cfg = make_config(separation=WAVELENGTH * 80000.0 / (period_px * PIXEL_SCALE),
                          waist=waist)
        img = render_frame(cfg, oracle_cam)
        fft_period = measure_frame(img).period_px
        oracle = autocorr_period(img)
        worst = max(worst, abs(fft_period - oracle) / oracle)
    oracle_ok = worst <= 0.005
    details.append(f"oracle agreement worst {worst:.2e} over 200 configs")

    # bit-identical reruns with a fixed seed, serial and parallel
    cfg = make_config()
    cam = make_camera(read_noise=2.0, seed=3)
    traj = static_sweep(np.linspace(43810.0, 20000.0, 8))
    first = list(render_sequence(traj, cfg, cam, workers=1)[0])
    second = list(render_sequence(traj, cfg, cam, workers=1)[0])
    parallel = list(render_sequence(traj, cfg, cam, workers=4)[0])
    determinism_ok = all(np.array_equal(a, b) for a, b in zip(first, second)) \
        and all(np.array_equal(a, b) for a, b in zip(first, parallel))
    details.append("seeded reruns bit-identical incl. parallel")

    ok = envelope_ok and phase_ok and reduction_ok and oracle_ok and determinism_ok
    report(8, "property suites", ok, "; ".join(details))
