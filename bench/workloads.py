"""The benchmark's workloads, their inputs and their correctness checks.

Everything here is independent of the accordion package: the ground truth
(separations, fringe periods, contrast), the generated frames of the
contrast check and the checks that read the program's output files are computed from the
physics and the documented file formats, not by calling the program.  A
change to the renderer or the analyzer can therefore not move the truth it
is checked against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

WAVELENGTH = 0.532          # um
PIXEL_SCALE = 0.0853        # um per pixel
PERIOD_TOL = 0.01           # relative; measured periods must be this close to lam*f/D
CENTER_TOL = 0.05           # fraction of a period; the center fringe truth is 0
FIG6B_NOISE = 2.0           # counts of read noise in the generated fig6b frames
FIG6B_AMPLITUDE2 = 0.5      # second-beam amplitude of the generated frames: r = 0.25


@dataclass(frozen=True)
class Truth:
    """What a correct run of the workload must reproduce."""

    separations_um: np.ndarray
    focal_um: float
    power_ratio: float
    sensor: tuple[int, int]
    contrast_tol: float     # absolute; measured contrasts must be this close to the truth

    @property
    def frames(self) -> int:
        return self.separations_um.size

    @property
    def spacings_um(self) -> np.ndarray:
        return WAVELENGTH * self.focal_um / self.separations_um

    @property
    def contrast(self) -> float:
        r = self.power_ratio
        return 2 * math.sqrt(r) / (1 + r)


def fig6b_separations() -> np.ndarray:
    """The fig6b mirror drive sampled at 30 frames/s: D0 = 43.81 mm, mirror
    out 20 mm at 20 mm/s, 0.5 s dwell, back at the same speed."""
    t = np.arange(76) / 30.0
    mirror = np.clip(np.minimum(20000.0 * t, 20000.0 - 20000.0 * (t - 1.5)), 0.0, 20000.0)
    return 43810.0 - 2.0 * mirror


# The program's fig6b frames are resampled bilinearly from its simulation
# grid, which costs up to about 0.07 of contrast on the finest fringes.
FIG6B = Truth(fig6b_separations(), 80000.0, 1.0, (640, 120), 0.1)
# The generated fig6b frames of the contrast check: fig6b at a contrast truth
# of 0.8, well inside (0, 1), so an analyzer that reports full contrast fails.
# The workloads' own truths (1.0 and 0.9756) lie at or near that clamp.
FIG6B_GENERATED = replace(FIG6B, power_ratio=FIG6B_AMPLITUDE2 ** 2, contrast_tol=0.02)
# On the ladder's 9.7 px fringes, rendering and analysis together measure a
# contrast about 0.105 below the truth.
LADDER = Truth(np.linspace(19250.0, 5000.0, 40), 30000.0, 0.8 ** 2, (1280, 240), 0.15)


# ----------------------------------------------------------------- formats

def read_p5(path: Path) -> np.ndarray:
    """Binary P5 graymap as written by the program: `P5\\n<w> <h>\\n<maxval>\\n`."""
    data = path.read_bytes()
    magic, w, h, maxval = data.split(maxsplit=4)[:4]
    if magic != b"P5":
        raise ValueError(f"{path.name}: not a P5 graymap")
    w, h, maxval = int(w), int(h), int(maxval)
    dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
    payload = np.dtype(dtype).itemsize * w * h
    if len(data) < payload:
        raise ValueError(f"{path.name}: short payload")
    return np.frombuffer(data[len(data) - payload:], dtype=dtype).reshape(h, w)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------- generated frames

def write_fig6b_run(out: Path, seed: int) -> None:
    """Write a 76-frame fig6b run directory in the program's formats.

    Each frame is the exact two-beam intensity evaluated at the pixel
    centres (equal 36 um waists, amplitudes 1 and FIG6B_AMPLITUDE2, no path
    difference), scaled so the peak is full scale, with Gaussian read noise
    of FIG6B_NOISE counts drawn from `seed`, rounded and clipped to 8 bits.
    """
    out.mkdir(parents=True, exist_ok=True)
    nx, ny = FIG6B.sensor
    x = (np.arange(nx) - (nx - 1) / 2) * PIXEL_SCALE
    y = (np.arange(ny) - (ny - 1) / 2) * PIXEL_SCALE
    envelope = np.exp(-2 * (y[:, None] ** 2 + x[None, :] ** 2) / 36.0 ** 2)
    a2 = FIG6B_AMPLITUDE2
    gain = 255 / (1 + a2) ** 2
    rng = np.random.default_rng(seed)
    with open(out / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("frame", "time_s", "mirror_um", "separation_um",
                         "analytic_spacing_um", "path_difference_um"))
        for i, (sep, spacing) in enumerate(zip(FIG6B.separations_um, FIG6B.spacings_um)):
            fringe = 1 + a2 ** 2 + 2 * a2 * np.cos(2 * math.pi * x / spacing)
            intensity = envelope * fringe[None, :]
            counts = gain * intensity + rng.normal(0.0, FIG6B_NOISE, intensity.shape)
            pixels = np.clip(np.rint(counts), 0, 255).astype(np.uint8)
            name = f"frame_{i:04d}.pgm"
            with open(out / name, "wb") as img:
                img.write(f"P5\n{nx} {ny}\n255\n".encode("ascii") + pixels.tobytes())
            writer.writerow((name, repr(i / 30.0), repr(float(43810.0 - sep) / 2),
                             repr(float(sep)), repr(float(spacing)), repr(0.0)))
    config = dict(command="sweep", preset="fig6b", wavelength=WAVELENGTH,
                  focal=FIG6B.focal_um, waist=36.0, waist2=36.0, amplitude=1.0,
                  amplitude2=a2, pixel_scale=PIXEL_SCALE, sensor=f"{nx}x{ny}",
                  bit_depth=8, read_noise=FIG6B_NOISE, seed=seed)
    (out / "config.txt").write_text("".join(f"{k}={v}\n" for k, v in config.items()))


# ------------------------------------------------------------------ checks

def fringe_period_px(image: np.ndarray) -> float:
    """Fringe period of a frame in pixels: peak of the zero-padded spectrum
    of the mean central-quarter row profile, refined by a parabola."""
    ny, nx = image.shape
    rows = max(1, ny // 4)
    start = ny // 2 - rows // 2
    profile = image[start:start + rows].astype(float).mean(axis=0)
    profile -= profile.mean()
    pad = 64 * nx
    spec = np.abs(np.fft.rfft(profile * np.hanning(nx), pad))
    lo = 3 * pad // nx  # at least 3 periods across the frame
    k = lo + int(np.argmax(spec[lo:-1]))
    a, b, c = spec[k - 1:k + 2]
    return pad / (k + 0.5 * (a - c) / (a - 2 * b + c))


def check_frames(run_dir: Path, truth: Truth) -> list[str]:
    """Frame and manifest counts, manifest truth, and every frame's period
    against lam*f/D."""
    manifest = read_csv(run_dir / "manifest.csv")
    problems = []
    if len(manifest) != truth.frames:
        return [f"manifest has {len(manifest)} rows, expected {truth.frames}"]
    frames = sorted(run_dir.glob("frame_*.pgm"))
    if len(frames) != truth.frames:
        problems.append(f"{len(frames)} frame files, expected {truth.frames}")
    for row, sep, spacing in zip(manifest, truth.separations_um, truth.spacings_um):
        if abs(float(row["separation_um"]) - sep) > 1e-6 * sep:
            problems.append(f"{row['frame']}: separation {row['separation_um']} != {sep!r}")
            continue
        image = read_p5(run_dir / row["frame"])
        if image.shape != truth.sensor[::-1]:
            problems.append(f"{row['frame']}: shape {image.shape}")
            continue
        period_um = fringe_period_px(image) * PIXEL_SCALE
        if abs(period_um - spacing) > PERIOD_TOL * spacing:
            problems.append(f"{row['frame']}: period {period_um:.5g} um, expected {spacing:.5g}")
    return problems


def check_measurements(out_dir: Path, truth: Truth) -> list[str]:
    """One measurements.csv row per frame, each period within PERIOD_TOL of
    lam*f/D, each tracked center within CENTER_TOL periods of 0 and each
    contrast within the truth's contrast_tol of 2*sqrt(r)/(1+r)."""
    rows = read_csv(out_dir / "measurements.csv")
    if len(rows) != truth.frames:
        return [f"measurements.csv has {len(rows)} rows, expected {truth.frames}"]
    problems = []
    for i, (row, spacing) in enumerate(zip(rows, truth.spacings_um)):
        if row["frame"] != f"frame_{i:04d}.pgm":
            problems.append(f"row {i} names {row['frame']}")
        elif abs(float(row["period_um"]) - spacing) > PERIOD_TOL * spacing:
            problems.append(f"{row['frame']}: period {row['period_um']} um, "
                            f"expected {spacing:.6g}")
        elif abs(float(row["center_um"])) > CENTER_TOL * spacing:
            problems.append(f"{row['frame']}: center {row['center_um']} um")
        elif abs(float(row["contrast"]) - truth.contrast) > truth.contrast_tol:
            problems.append(f"{row['frame']}: contrast {row['contrast']}, "
                            f"expected {truth.contrast:.4g}")
    return problems


def check_calibration(out_dir: Path, truth: Truth) -> list[str]:
    rows = read_csv(out_dir / "calibration.csv")
    if len(rows) != truth.frames:
        return [f"calibration.csv has {len(rows)} rows, expected {truth.frames}"]
    scale = float(rows[0]["pixel_scale_um_px"])
    if abs(scale - PIXEL_SCALE) > PERIOD_TOL * PIXEL_SCALE:
        return [f"calibrated pixel scale {scale!r}, expected {PIXEL_SCALE}"]
    return []


def accuracy(out_dir: Path, truth: Truth) -> dict[str, float]:
    """Errors of an `analyze --calibrate` output against the exact truth."""
    rows = read_csv(out_dir / "measurements.csv")
    spacing = dict(zip((f"frame_{i:04d}.pgm" for i in range(truth.frames)),
                       truth.spacings_um))
    scale = float(read_csv(out_dir / "calibration.csv")[0]["pixel_scale_um_px"])
    return {
        "period_rel_err.max": max(abs(float(r["period_um"]) - spacing[r["frame"]])
                                  / spacing[r["frame"]] for r in rows),
        "contrast_err.max": max(abs(float(r["contrast"]) - truth.contrast) for r in rows),
        "center_drift_um.max": max(abs(float(r["center_um"])) for r in rows),
        "pixel_scale_rel_err": abs(scale - PIXEL_SCALE) / PIXEL_SCALE,
    }


# --------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Step:
    """One CLI command of a cycle and the check its output must pass."""

    label: str
    argv: list[str]
    check: Callable[[], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    truth: Truth
    run_dir: Path
    steps: list[Step]


def _ladder_sweep_argv(out: Path, seed: int) -> list[str]:
    return ["sweep", "--separations", ",".join(repr(float(d)) for d in LADDER.separations_um),
            "--focal", repr(LADDER.focal_um), "--waist", "36", "--waist2", "40",
            "--amplitude2", "0.8", "--sensor", "1280x240", "--bit-depth", "16",
            "--read-noise", "40", "--seed", str(seed), "--workers", "2", "--out", str(out)]


def make_workload(name: str, work: Path, seed: int) -> Workload:
    """Build the named workload inside the scratch directory `work`."""
    run = work / "run"
    if name == "sweep-fig6b":
        sweep = ["sweep", "--preset", "fig6b", "--seed", str(seed), "--workers", "1",
                 "--out", str(run)]
        return Workload(name, FIG6B, run,
                        [Step("sweep", sweep, lambda: check_frames(run, FIG6B))])
    if name == "ladder-roundtrip":
        return Workload(name, LADDER, run, [
            Step("sweep", _ladder_sweep_argv(run, seed), lambda: check_frames(run, LADDER)),
            Step("analyze", ["analyze", str(run), "--calibrate"],
                 lambda: check_measurements(run, LADDER) + check_calibration(run, LADDER)),
        ])
    raise ValueError(f"unknown workload {name!r}")

