"""Command-line surface tying simulation, rendering and analysis together.

    accordion spacing      scalar geometry for one configuration
    accordion sweep        render an accordion run (frames + manifest + composite)
    accordion analyze      measure a run directory or a single P5 image
    accordion sensitivity  path-difference penalty of the beam-splitter scheme

Exit codes: 0 success, 1 analysis failure, 2 usage or configuration error.
SWEEP_KEYS declares each sweep key once: the sweep flags, presets, --config
files and the config.txt echo follow it, resolved flag > --config file >
preset > built-in, and analyze reads config.txt through the same typed
reader.  The default output root ./runs can be overridden with the
ACCORDION_OUT_DIR environment variable.

Only geometry, pure math, is imported up front: spacing, sensitivity, --help
and usage errors run without numpy.  sweep and analyze both import the same
numeric layers when they run, so a process that ran either holds them all.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from pathlib import Path

from . import geometry
from .geometry import require_positive


class _Parsed(tuple):
    """Numbers read from a text; str() is that text, as config.txt echoes it."""

    def __new__(cls, values, text: str):
        self = super().__new__(cls, values)
        self.text = text
        return self

    def __str__(self) -> str:
        return self.text


def _separations(text: str) -> _Parsed:
    values = [float(tok) for tok in text.split(",") if tok]
    if not values:
        raise ValueError(f"must list at least one separation, got {text!r}")
    return _Parsed(values, text)


def _sensor(text: str) -> _Parsed:
    size = re.fullmatch(r"\s*(\d+)\s*x\s*(\d+)\s*", text)
    if size is None:
        raise ValueError(f"must be WxH pixels, e.g. 640x120; got {text!r}")
    return _Parsed((int(size[1]), int(size[2])), text)


def _bit_depth(text: str) -> int:
    if text not in ("8", "16"):
        raise ValueError(f"must be 8 or 16, got {text!r}")
    return int(text)


# One declaration per sweep key, in config.txt order: the type that converts its
# text, its built-in default (None: unset, echoed empty) and the help of --key.
SWEEP_KEYS: dict[str, tuple] = {
    "wavelength": (float, 0.532, "um"),
    "focal": (float, 80000.0, "um"),
    "initial_separation": (float, None, "um"),
    "speed": (float, 20000.0, "mirror um/s"),
    "travel": (float, 20000.0, "mirror um"),
    "dwell": (float, 0.5, "s"),
    "frame_rate": (float, 30.0, None),
    "separations": (_separations, None, "comma list of separations (um) for a static sweep"),
    "waist": (float, 36.0, "um"),
    "waist2": (float, None, "um"),
    "amplitude": (float, 1.0, None),
    "amplitude2": (float, 1.0, None),
    "path_difference": (float, 0.0, "um, constant over the run"),
    "pixel_scale": (float, 0.0853, None),
    "sensor": (_sensor, _sensor("640x120"), "WxH pixels"),
    "bit_depth": (_bit_depth, 8, "8 or 16"),
    "read_noise": (float, 0.0, None),
    "gain": (lambda text: text if text == "auto" else float(text), "auto",
             "counts per intensity unit, or 'auto'"),
    "seed": (int, 0, None),
    "workers": (int, 1, None),
}

# Bundled experiment presets: static single shots / separation ladders at
# f = 30 mm, and the two timed sweeps at f = 80 mm (out 1 s or 2 s, dwell
# 0.5 s, back at the same speed, 30 frames/s).
PRESETS: dict[str, dict[str, object]] = {
    "fig4a": dict(focal=30000.0, separations=_separations("19250"), waist=36.0, waist2=40.0),
    "fig4b": dict(focal=30000.0,
                  separations=_separations("19250,17000,14000,11000,8000,5000"),
                  waist=36.0, waist2=40.0),
    "fig6a": dict(focal=80000.0, initial_separation=43810.0, speed=10000.0,
                  travel=20000.0, dwell=0.5, waist=36.0, waist2=36.0),
    "fig6b": dict(focal=80000.0, initial_separation=43810.0, speed=20000.0,
                  travel=20000.0, dwell=0.5, waist=36.0, waist2=36.0),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _convert(key: str, text: str, source: str):
    """The text of a sweep key as its declared type; source names the flag,
    or the file and key, in the error of a value that does not convert.
    Empty text is a ValueError: only read_sweep_config reads an empty value
    as unset."""
    kind = SWEEP_KEYS[key][0]
    if text == "":
        raise ValueError(f"{source} needs a value")
    try:
        return kind(text)
    except ValueError as err:
        raise ValueError(f"{source}: {err}") from None


def read_sweep_config(path) -> dict:
    """The sweep keys of a --config file or a run's config.txt as their
    declared types, 'command' and 'preset' passed over; an unknown key or a
    value that does not convert is a ValueError naming the file and key.
    A key without a built-in default is unset (None) by an empty value, as
    sweep echoes it, or by 'None'."""
    from . import runfiles
    values = runfiles.read_config(path)
    unknown = set(values) - set(SWEEP_KEYS) - {"preset", "command"}
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    return {key: None if text in ("", "None") and SWEEP_KEYS[key][1] is None
            else _convert(key, text, f"{path}: config key {key!r}")
            for key, text in values.items() if key in SWEEP_KEYS}


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
    params = {key: default for key, (_, default, _) in SWEEP_KEYS.items()}
    params.update(PRESETS.get(args.preset, {}))
    if args.config:
        params.update(read_sweep_config(args.config))
    for key in SWEEP_KEYS:
        if getattr(args, key) is not None:
            params[key] = _convert(key, getattr(args, key), _flag(key))
    return params


def _build_run(params: dict):
    from . import fields, instrument
    if params["separations"]:
        trajectory = instrument.static_sweep(params["separations"], params["frame_rate"])
        initial = params["separations"][0]
    else:
        initial = params["initial_separation"]
        if initial is None:
            raise ValueError("need --initial-separation (or --separations / a preset)")
        trajectory = instrument.build_trajectory(instrument.MirrorDrive(
            initial, params["speed"], params["travel"], params["dwell"], params["frame_rate"]))
    if params["path_difference"] != 0.0:
        trajectory = trajectory.with_path_difference(params["path_difference"])

    waist, amp1, amp2 = params["waist"], params["amplitude"], params["amplitude2"]
    waist2 = params["waist2"] if params["waist2"] is not None else waist
    base_cfg = fields.LatticeConfig(
        optics=geometry.OpticalParams(params["wavelength"], params["focal"], initial),
        beam_plus=fields.BeamSpec(waist, amp1), beam_minus=fields.BeamSpec(waist2, amp2))
    gain = params["gain"]
    if gain == "auto":
        try:
            gain = ((1 << params["bit_depth"]) - 1) / (amp1 + amp2) ** 2
        except ZeroDivisionError:
            raise ValueError(f"amplitudes {amp1!r} and {amp2!r} leave the auto gain "
                             "no finite value; give --gain") from None
    cam = instrument.CameraModel(
        pixel_scale=params["pixel_scale"], sensor=params["sensor"],
        bit_depth=params["bit_depth"], read_noise=params["read_noise"],
        exposure_gain=gain, seed=params["seed"])
    return trajectory, base_cfg, cam


def cmd_sweep(args) -> int:
    from . import analysis, instrument, runfiles
    params = _resolve_sweep_params(args)
    trajectory, base_cfg, cam = _build_run(params)
    # every sample is checked here, before the run directory is touched;
    # the frames are rendered as write_run writes them
    frames, records = instrument.render_sequence(
        trajectory, base_cfg, cam, workers=params["workers"])

    out_root = Path(os.environ.get("ACCORDION_OUT_DIR", "runs"))
    out_dir = Path(args.out) if args.out else out_root / (args.preset or "sweep")
    echo = {key: "" if value is None else value for key, value in params.items()}
    runfiles.write_run(out_dir, frames, records,
                       config={"command": "sweep", "preset": args.preset or "", **echo})
    spacings = [r.analytic_spacing_um for r in records]
    print(f"wrote {len(records)} frames to {out_dir}")
    print(f"separation {records[0].separation_um:.6g} -> "
          f"{min(r.separation_um for r in records):.6g} um; "
          f"analytic spacing {min(spacings):.4g} -> {max(spacings):.4g} um; "
          f"{records[-1].time_s:.4g} s simulated")
    return 0


# ---------------------------------------------------------------- analyze

def _analyze_single(path: Path, pixel_scale) -> int:
    from . import analysis, runfiles
    image = runfiles.read_pgm(path)
    m = analysis.measure_frame(image)
    print(f"period_px   {m.period_px:.4f} +- {m.period_uncertainty_px:.4f}")
    if pixel_scale is not None:
        print(f"period_um   {m.period_px * pixel_scale:.6g}")
        print(f"center_um   {m.center_px * pixel_scale:+.6g}")
    else:
        print(f"center_px   {m.center_px:+.4f}  (pixel units; no pixel scale given)")
    print(f"phase_rad   {m.fringe_phase:+.4f}")
    print(f"contrast    {m.contrast:.4f}")
    return 0


def _pixel_scale(args, config: dict, config_path: Path | None):
    """analyze's one setting: --pixel-scale, which wins as in sweep, else
    config.txt's pixel_scale, checked positive and finite; None when
    neither gives it."""
    if args.pixel_scale is not None:
        return require_positive("--pixel-scale", _convert(
            "pixel_scale", args.pixel_scale, "--pixel-scale"))
    if config.get("pixel_scale") is not None:
        return require_positive(f"{config_path}: config key 'pixel_scale'",
                                config["pixel_scale"])
    return None


def cmd_analyze(args) -> int:
    """Measure a single image, or each frame of a run directory into
    measurements.csv.  With --calibrate, fit the pixel scale against each
    measured frame's manifest analytic_spacing_um, the lam*f/D that
    referees the frame and sizes its fringe order, into calibration.csv."""
    from . import analysis, instrument, runfiles
    target = Path(args.target)
    if target.is_file():
        if args.calibrate or args.out:
            flag = "--calibrate" if args.calibrate else "--out"
            raise ValueError(f"{flag} needs a run directory; {target} is one image")
        return _analyze_single(target, _pixel_scale(args, {}, None))
    if not target.is_dir():
        raise ValueError(f"{target}: no such file or directory")

    manifest_path = target / "manifest.csv"
    if not manifest_path.exists():
        raise ValueError(f"{target}: missing manifest.csv")
    records = runfiles.read_manifest(manifest_path)
    config_path = target / "config.txt"
    config = read_sweep_config(config_path) if config_path.exists() else {}
    pixel_scale = _pixel_scale(args, config, config_path)
    if pixel_scale is None:
        raise ValueError("no pixel scale: pass --pixel-scale or provide config.txt")

    results = analysis.measure_run(
        (runfiles.read_pgm(target / rec.frame) for rec in records),
        [rec.analytic_spacing_um for rec in records], pixel_scale)
    errors = [f"{rec.frame}: {r.measurement}" for rec, r in zip(records, results)
              if r.position_um is None]
    measured = [(rec, r.measurement, r.position_um) for rec, r in zip(records, results)
                if r.position_um is not None]

    out_dir = Path(args.out) if args.out else target
    runfiles.write_measurements(out_dir, (
        (rec.frame, rec.time_s, rec.separation_um, m.period_px,
         m.period_px * pixel_scale, center, m.contrast) for rec, m, center in measured))

    if measured:
        periods = [m.period_px * pixel_scale for _, m, _ in measured]
        flagged = [i for i, r in enumerate(results) if r.flagged]
        print(f"measured {len(measured)}/{len(records)} frames; "
              f"period range [{min(periods):.4g}, {max(periods):.4g}] um")
        print(f"max center-fringe drift {max(abs(c) for _, _, c in measured):.4g} um"
              + (f"; unwrap flagged at frames {flagged}" if flagged else ""))

    if args.calibrate:
        try:
            fit = analysis.calibrate_pixel_scale(
                (rec.analytic_spacing_um, m.period_px) for rec, m, _ in measured)
        except analysis.AnalysisError as err:
            errors.append(f"calibration: {err}")
        else:
            runfiles.write_calibration(out_dir, (
                (fit.pixel_scale, fit.pixel_scale_uncertainty, rec.separation_um, m.period_px,
                 float(res)) for (rec, m, _), res in zip(measured, fit.residuals)))
            print(f"pixel scale {fit.pixel_scale:.6g} +- "
                  f"{fit.pixel_scale_uncertainty:.2g} um/px")

    for line in errors:
        print(line, file=sys.stderr)
    return 1 if errors else 0


# ------------------------------------------------------------- sensitivity

def cmd_sensitivity(args) -> int:
    try:
        deviations = [float(tok) for tok in args.deviations.split(",") if tok]
    except ValueError as err:
        raise ValueError(f"--deviations: {err}") from None
    if not deviations:
        raise ValueError("--deviations needs at least one value")
    require_positive("--spacing", args.spacing)
    require_positive("--wavelength", args.wavelength)
    for dev in deviations:
        # not finite when the deviation, its path difference or fringe count is not
        shift = geometry.bs_translation_path_difference(dev) / args.wavelength * args.spacing
        if not math.isfinite(shift):
            raise ValueError(f"--deviations must be finite, with a finite path difference "
                             f"and shift; got {dev!r}, which shifts by {shift!r} um")
    print(f"# lattice spacing {args.spacing} um, wavelength {args.wavelength} um")
    print(f"{'deviation_um':>14} {'path_diff_um':>14} {'shift_fringes':>14} "
          f"{'shift_um':>12} {'mirror_shift_um':>16}")
    for dev in deviations:
        path = geometry.bs_translation_path_difference(dev)
        fringes = path / args.wavelength
        shift = fringes * args.spacing
        print(f"{dev:14.4g} {path:14.4g} {fringes:14.6g} {shift:12.6g} "
              f"{0.0:16.1f}")
    return 0


# ------------------------------------------------------------------ parser

# built once per process: parsing reads the parser and never changes it, so
# every main() call of a library or benchmark parses with the same one
@functools.cache
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
    for key, (_, _, help_text) in SWEEP_KEYS.items():
        sw.add_argument(_flag(key), help=help_text)
    sw.add_argument("--out", default=None, help="output directory")
    sw.set_defaults(func=cmd_sweep)

    an = sub.add_parser("analyze", help="measure a run directory or one image")
    an.add_argument("target", help="run directory or P5 image")
    an.add_argument("--calibrate", action="store_true",
                    help="fit the pixel scale against the manifest's analytic spacings")
    an.add_argument("--pixel-scale", help="um per pixel; overrides config.txt")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        # an AnalysisError (a ValueError) can come only from a loaded analysis
        analysis = sys.modules.get(f"{__package__}.analysis")
        failed = analysis is not None and isinstance(err, analysis.AnalysisError)
        print(f"{'analysis error' if failed else 'error'}: {err}", file=sys.stderr)
        return 1 if failed else 2


if __name__ == "__main__":
    sys.exit(main())
