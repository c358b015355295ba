"""Command-line surface tying simulation, rendering and analysis together.

    accordion spacing      scalar geometry for one configuration
    accordion sweep        render an accordion run (frames + manifest + composite)
    accordion analyze      measure a run directory or a single P5 image
    accordion sensitivity  path-difference penalty of the beam-splitter scheme

Exit codes: 0 success, 1 analysis failure, 2 usage or configuration error.
Every flag of `sweep` can also come from a key=value config file
(--config); explicit flags win.  The default output root ./runs can be
overridden with the ACCORDION_OUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path

from . import analysis, geometry, instrument, runfiles
from .fields import BeamSpec, LatticeConfig

# Bundled experiment presets: static single shots / separation ladders at
# f = 30 mm, and the two timed sweeps at f = 80 mm (out 1 s or 2 s, dwell
# 0.5 s, back at the same speed, 30 frames/s).
PRESETS: dict[str, dict[str, object]] = {
    "fig4a": dict(focal=30000.0, separations="19250", waist=36.0, waist2=40.0),
    "fig4b": dict(focal=30000.0, separations="19250,17000,14000,11000,8000,5000",
                  waist=36.0, waist2=40.0),
    "fig6a": dict(focal=80000.0, initial_separation=43810.0, speed=10000.0,
                  travel=20000.0, dwell=0.5, waist=36.0, waist2=36.0),
    "fig6b": dict(focal=80000.0, initial_separation=43810.0, speed=20000.0,
                  travel=20000.0, dwell=0.5, waist=36.0, waist2=36.0),
}

SWEEP_DEFAULTS: dict[str, object] = dict(
    wavelength=0.532, focal=80000.0, initial_separation=None, speed=20000.0,
    travel=20000.0, dwell=0.5, frame_rate=30.0, separations=None,
    waist=36.0, waist2=None, amplitude=1.0, amplitude2=1.0,
    path_difference=0.0, pixel_scale=0.0853, sensor="640x120", bit_depth=8,
    read_noise=0.0, gain="auto", seed=0, workers=1,
)


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _fail_analysis(message: str) -> int:
    print(f"analysis error: {message}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------- spacing

def cmd_spacing(args) -> int:
    p = geometry.OpticalParams(args.wavelength, args.focal, args.separation)
    rows = [
        ("wavelength_um", args.wavelength),
        ("focal_length_um", args.focal),
        ("separation_um", args.separation),
        ("spacing_fourier_um", geometry.spacing_fourier(p)),
        ("spacing_thin_lens_um", geometry.spacing_thin_lens(p)),
        ("thin_lens_ratio", geometry.spacing_thin_lens(p) / geometry.spacing_fourier(p)),
        ("beam_angle_rad", geometry.beam_angle(p)),
        ("beam_angle_deg", math.degrees(geometry.beam_angle(p))),
        ("beam_angle_thin_lens_deg", math.degrees(geometry.beam_angle_thin_lens(p))),
    ]
    if args.target_spacing is not None:
        rows.append(("target_spacing_um", args.target_spacing))
        rows.append(("separation_for_target_um",
                     geometry.separation_for_spacing(args.wavelength, args.focal,
                                                     args.target_spacing)))
    for key, value in rows:
        print(f"{key:26s} {value:.6g}")
    return 0


# ------------------------------------------------------------------ sweep

def _resolve_sweep_params(args) -> dict:
    """flag > config file > preset > built-in default."""
    resolved = dict(SWEEP_DEFAULTS)
    if args.preset:
        if args.preset not in PRESETS:
            raise ValueError(f"unknown preset {args.preset!r}; "
                             f"choose from {', '.join(sorted(PRESETS))}")
        resolved.update(PRESETS[args.preset])
    if args.config:
        file_values = runfiles.read_config(args.config)
        unknown = set(file_values) - set(SWEEP_DEFAULTS) - {"preset", "command"}
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, raw in file_values.items():
            if key in ("preset", "command"):
                continue
            default = SWEEP_DEFAULTS[key]
            if raw == "None" or raw == "":
                # as sweep echoes them: only keys unset by default may be empty
                if default is not None:
                    raise ValueError(f"config key {key!r} needs a value")
                resolved[key] = None
            elif key in ("sensor", "gain", "separations"):
                resolved[key] = raw
            elif isinstance(default, int) and not isinstance(default, bool):
                resolved[key] = int(raw)
            else:
                resolved[key] = float(raw)
    for key in SWEEP_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _build_run(params: dict):
    wavelength = float(params["wavelength"])
    focal = float(params["focal"])
    if params["separations"]:
        seps = [float(tok) for tok in str(params["separations"]).split(",") if tok]
        trajectory = instrument.static_sweep(seps, float(params["frame_rate"]))
        initial = seps[0]
    else:
        initial = params["initial_separation"]
        if initial is None:
            raise ValueError("need --initial-separation (or --separations / a preset)")
        drive = instrument.MirrorDrive(
            initial_separation=float(initial),
            speed=float(params["speed"]),
            travel=float(params["travel"]),
            dwell=float(params["dwell"]),
            frame_rate=float(params["frame_rate"]),
        )
        trajectory = instrument.build_trajectory(drive)
    if float(params["path_difference"]) != 0.0:
        trajectory = trajectory.with_path_difference(float(params["path_difference"]))

    waist = float(params["waist"])
    waist2 = float(params["waist2"]) if params["waist2"] is not None else waist
    amp1 = float(params["amplitude"])
    amp2 = float(params["amplitude2"])
    base_cfg = LatticeConfig(
        optics=geometry.OpticalParams(wavelength, focal, float(initial)),
        beam_plus=BeamSpec(waist, amp1),
        beam_minus=BeamSpec(waist2, amp2),
    )

    sensor = re.fullmatch(r"\s*(\d+)\s*x\s*(\d+)\s*", str(params["sensor"]))
    if sensor is None:
        raise ValueError(f"--sensor must be WxH pixels, e.g. 640x120; "
                         f"got {params['sensor']!r}")
    gain = params["gain"]
    if gain == "auto":
        full = (1 << int(params["bit_depth"])) - 1
        gain_value = full / (amp1 + amp2) ** 2
    else:
        gain_value = float(gain)
    cam = instrument.CameraModel(
        pixel_scale=float(params["pixel_scale"]),
        sensor=(int(sensor[1]), int(sensor[2])),
        bit_depth=int(params["bit_depth"]),
        read_noise=float(params["read_noise"]),
        exposure_gain=gain_value,
        seed=int(params["seed"]),
    )
    return trajectory, base_cfg, cam


def _echo_config(params: dict, preset: str | None) -> dict:
    echo: dict[str, object] = {"command": "sweep", "preset": preset or ""}
    for key in SWEEP_DEFAULTS:
        echo[key] = params[key] if params[key] is not None else ""
    return echo


def cmd_sweep(args) -> int:
    params = _resolve_sweep_params(args)
    trajectory, base_cfg, cam = _build_run(params)
    frames, records = instrument.render_sequence(
        trajectory, base_cfg, cam, workers=int(params["workers"]))
    composite = instrument.spacetime_composite(frames) if len(frames) >= 2 else None

    out_root = Path(os.environ.get("ACCORDION_OUT_DIR", "runs"))
    out_dir = Path(args.out) if args.out else out_root / (args.preset or "sweep")
    runfiles.write_run(out_dir, frames, records,
                       config=_echo_config(params, args.preset),
                       composite=composite)
    spacings = [r.analytic_spacing_um for r in records]
    print(f"wrote {len(frames)} frames to {out_dir}")
    print(f"separation {records[0].separation_um:.6g} -> "
          f"{min(r.separation_um for r in records):.6g} um; "
          f"analytic spacing {min(spacings):.4g} -> {max(spacings):.4g} um; "
          f"{records[-1].time_s:.4g} s simulated")
    return 0


# ---------------------------------------------------------------- analyze

def _analyze_single(path: Path, pixel_scale, window_rows) -> int:
    image = runfiles.read_pgm(path)
    m = analysis.measure_frame(image, pixel_scale, window_rows)
    print(f"period_px   {m.period_px:.4f} +- {m.period_uncertainty_px:.4f}")
    if m.period_um is not None:
        print(f"period_um   {m.period_um:.6g}")
        print(f"center_um   {m.center_um:+.6g}")
    else:
        print(f"center_px   {m.center_px:+.4f}  (pixel units; no pixel scale given)")
    print(f"phase_rad   {m.fringe_phase:+.4f}")
    print(f"contrast    {m.contrast:.4f}")
    return 0


def cmd_analyze(args) -> int:
    if args.window_rows is not None and args.window_rows < 1:
        return _fail_usage(f"--window-rows must be at least 1, got {args.window_rows}")
    target = Path(args.target)
    if target.is_file():
        if args.calibrate:
            return _fail_usage(f"--calibrate needs a run directory; {target} is one image")
        return _analyze_single(target, args.pixel_scale, args.window_rows)
    if not target.is_dir():
        return _fail_usage(f"{target}: no such file or directory")

    manifest_path = target / "manifest.csv"
    if not manifest_path.exists():
        return _fail_usage(f"{target}: missing manifest.csv")
    records = runfiles.read_manifest(manifest_path)
    config = {}
    if (target / "config.txt").exists():
        config = runfiles.read_config(target / "config.txt")
    pixel_scale = args.pixel_scale
    if pixel_scale is None and "pixel_scale" in config:
        pixel_scale = float(config["pixel_scale"])
    if pixel_scale is None:
        return _fail_usage("no pixel scale: pass --pixel-scale or provide config.txt")
    if args.calibrate:
        # an explicit flag wins over config.txt, as in sweep
        wavelength = (args.wavelength if args.wavelength is not None
                      else float(config.get("wavelength") or 0))
        focal = args.focal if args.focal is not None else float(config.get("focal") or 0)
        if wavelength <= 0 or focal <= 0:
            return _fail_usage("--calibrate needs wavelength and focal length "
                               "(from config.txt or --wavelength/--focal)")

    frames = []
    measurements: list[analysis.FringeMeasurement | None] = []
    errors: list[str] = []
    for rec in records:
        image = runfiles.read_pgm(target / rec.frame)
        frames.append(image)
        try:
            measurements.append(analysis.measure_frame(image, pixel_scale,
                                                       args.window_rows))
        except analysis.AnalysisError as err:
            measurements.append(None)
            errors.append(f"{rec.frame}: {err}")

    trace = None
    if all(m is not None for m in measurements):
        spacings = [r.analytic_spacing_um for r in records]
        trace = analysis.track_center_fringe(frames, spacings, pixel_scale,
                                             args.window_rows)

    out_dir = Path(args.out) if args.out else target
    out_dir.mkdir(parents=True, exist_ok=True)
    # an earlier calibration.csv describes earlier measurements; only a
    # calibration fit below may write one beside the new measurements.csv
    (out_dir / "calibration.csv").unlink(missing_ok=True)
    with runfiles.create(out_dir / "measurements.csv") as fh:
        fh.write("frame,time_s,separation_um,period_px,period_um,center_um,contrast\n")
        for i, (rec, m) in enumerate(zip(records, measurements)):
            if m is None:
                continue
            center = float(trace.positions_um[i]) if trace is not None else m.center_um
            fh.write(f"{rec.frame},{rec.time_s!r},{rec.separation_um!r},"
                     f"{m.period_px!r},{m.period_um!r},{center!r},{m.contrast!r}\n")

    good = [m for m in measurements if m is not None]
    if good:
        lo = min(m.period_um for m in good)
        hi = max(m.period_um for m in good)
        print(f"measured {len(good)}/{len(records)} frames; "
              f"period range [{lo:.4g}, {hi:.4g}] um")
    if trace is not None:
        print(f"max center-fringe drift {trace.max_drift_um:.4g} um"
              + (f"; unwrap flagged at frames {list(trace.flagged)}" if trace.flagged else ""))

    if args.calibrate:
        points = [(rec.separation_um, m.period_px)
                  for rec, m in zip(records, measurements) if m is not None]
        try:
            fit = analysis.calibrate_pixel_scale(points, wavelength, focal)
        except analysis.AnalysisError as err:
            errors.append(f"calibration: {err}")
        else:
            with runfiles.create(out_dir / "calibration.csv") as fh:
                fh.write("pixel_scale_um_px,pixel_scale_uncertainty,"
                         "separation_um,period_px,relative_residual\n")
                for (sep, period), res in zip(points, fit.residuals):
                    fh.write(f"{fit.pixel_scale!r},{fit.pixel_scale_uncertainty!r},"
                             f"{sep!r},{period!r},{float(res)!r}\n")
            print(f"pixel scale {fit.pixel_scale:.6g} +- "
                  f"{fit.pixel_scale_uncertainty:.2g} um/px")

    for line in errors:
        print(line, file=sys.stderr)
    return 1 if errors else 0


# ------------------------------------------------------------- sensitivity

def cmd_sensitivity(args) -> int:
    deviations = [float(tok) for tok in args.deviations.split(",") if tok]
    for flag, value in (("--spacing", args.spacing), ("--wavelength", args.wavelength)):
        if not (math.isfinite(value) and value > 0):
            return _fail_usage(f"{flag} must be positive and finite, got {value!r}")
    for dev in deviations:
        if not math.isfinite(dev):
            return _fail_usage(f"--deviations must be finite, got {dev!r}")
    print(f"# lattice spacing {args.spacing} um, wavelength {args.wavelength} um")
    print(f"{'deviation_um':>14} {'path_diff_um':>14} {'shift_fringes':>14} "
          f"{'shift_um':>12} {'mirror_shift_um':>16}")
    for dev in deviations:
        path = instrument.bs_translation_path_difference(dev)
        fringes = path / args.wavelength
        shift = fringes * args.spacing
        print(f"{dev:14.4g} {path:14.4g} {fringes:14.6g} {shift:12.6g} "
              f"{0.0:16.1f}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accordion",
        description="Simulate and analyze accordion optical lattices "
                    "(two parallel beams focused by a common lens).")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spacing", help="scalar spacing/angle relations")
    sp.add_argument("--wavelength", type=float, required=True, help="um")
    sp.add_argument("--focal", type=float, required=True, help="um")
    sp.add_argument("--separation", type=float, required=True, help="um")
    sp.add_argument("--target-spacing", type=float, default=None,
                    help="also print the separation that gives this spacing (um)")
    sp.set_defaults(func=cmd_spacing)

    sw = sub.add_parser("sweep", help="render an accordion run")
    sw.add_argument("--preset", choices=sorted(PRESETS), default=None)
    sw.add_argument("--config", default=None, help="key=value file of sweep flags")
    sw.add_argument("--wavelength", type=float, default=None, help="um")
    sw.add_argument("--focal", type=float, default=None, help="um")
    sw.add_argument("--initial-separation", dest="initial_separation",
                    type=float, default=None, help="um")
    sw.add_argument("--speed", type=float, default=None, help="mirror um/s")
    sw.add_argument("--travel", type=float, default=None, help="mirror um")
    sw.add_argument("--dwell", type=float, default=None, help="s")
    sw.add_argument("--frame-rate", dest="frame_rate", type=float, default=None)
    sw.add_argument("--separations", default=None,
                    help="comma list of separations (um) for a static sweep")
    sw.add_argument("--waist", type=float, default=None, help="um")
    sw.add_argument("--waist2", type=float, default=None, help="um")
    sw.add_argument("--amplitude", type=float, default=None)
    sw.add_argument("--amplitude2", type=float, default=None)
    sw.add_argument("--path-difference", dest="path_difference", type=float,
                    default=None, help="um, constant over the run")
    sw.add_argument("--pixel-scale", dest="pixel_scale", type=float, default=None)
    sw.add_argument("--sensor", default=None, help="WxH pixels")
    sw.add_argument("--bit-depth", dest="bit_depth", type=int, default=None,
                    choices=(8, 16))
    sw.add_argument("--read-noise", dest="read_noise", type=float, default=None)
    sw.add_argument("--gain", default=None, help="counts per intensity unit, or 'auto'")
    sw.add_argument("--seed", type=int, default=None)
    sw.add_argument("--workers", type=int, default=None)
    sw.add_argument("--out", default=None, help="output directory")
    sw.set_defaults(func=cmd_sweep)

    an = sub.add_parser("analyze", help="measure a run directory or one image")
    an.add_argument("target", help="run directory or P5 image")
    an.add_argument("--pixel-scale", dest="pixel_scale", type=float, default=None)
    an.add_argument("--window-rows", dest="window_rows", type=int, default=None)
    an.add_argument("--calibrate", action="store_true",
                    help="fit the pixel scale from the manifest separations")
    an.add_argument("--wavelength", type=float, default=None, help="um")
    an.add_argument("--focal", type=float, default=None, help="um")
    an.add_argument("--out", default=None, help="directory for the CSV reports")
    an.set_defaults(func=cmd_analyze)

    se = sub.add_parser("sensitivity",
                        help="fringe shift per perpendicular deviation of the "
                             "translated-beam-splitter scheme")
    se.add_argument("--spacing", type=float, required=True, help="um")
    se.add_argument("--deviations", required=True, help="comma list of um values")
    se.add_argument("--wavelength", type=float, default=0.532, help="um")
    se.set_defaults(func=cmd_sensitivity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except analysis.AnalysisError as err:
        return _fail_analysis(str(err))
    except (ValueError, OSError) as err:
        return _fail_usage(str(err))


if __name__ == "__main__":
    sys.exit(main())
