"""Shared builders for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from accordion import (
    BeamSpec,
    CameraModel,
    LatticeConfig,
    OpticalParams,
    render_frame,
)

WAVELENGTH = 0.532
PIXEL_SCALE = 0.0853


def make_config(focal=80000.0, separation=43810.0, waist=36.0, waist2=None,
                amp=1.0, amp2=1.0, path_difference=0.0, wavelength=WAVELENGTH):
    return LatticeConfig(
        optics=OpticalParams(wavelength, focal, separation),
        beam_plus=BeamSpec(waist, amp),
        beam_minus=BeamSpec(waist2 if waist2 is not None else waist, amp2),
        path_difference=path_difference,
    )


def make_camera(read_noise=0.0, seed=0, gain=None, sensor=(640, 120),
                bit_depth=8, pixel_scale=PIXEL_SCALE):
    if gain is None:
        gain = ((1 << bit_depth) - 1) / 4.0  # full scale for two unit beams
    return CameraModel(pixel_scale=pixel_scale, sensor=sensor,
                       bit_depth=bit_depth, read_noise=read_noise,
                       exposure_gain=gain, seed=seed)


def render_lattice(cfg, cam=None, frame_index=0):
    """Closed-form lattice -> digital frame at the pixel centres."""
    return render_frame(cfg, cam or make_camera(), frame_index)


def render_simple(separation, focal=80000.0, waist=36.0, read_noise=0.0,
                  seed=0, frame_index=0, path_difference=0.0, **cfg_kwargs):
    cfg = make_config(focal=focal, separation=separation, waist=waist,
                      path_difference=path_difference, **cfg_kwargs)
    return render_lattice(cfg, make_camera(read_noise=read_noise, seed=seed),
                          frame_index=frame_index)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def run_fresh(code: str, *args: str) -> str:
    """stdout of code run by a fresh interpreter that imports the package
    from src, with args as sys.argv[1:]."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout
