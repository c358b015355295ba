"""Accordion mechanics and the camera that digitizes the lattice.

The beam separation D is swept by translating a retroreflecting mirror:
a mirror displacement m changes the separation by 2*m while leaving the
optical path difference between the beams untouched, which is what keeps
the center fringe still during a sweep.  The rival scheme of translating
the beam-splitter pair is modeled only through its path-length penalty:
a perpendicular deviation delta costs 2*delta of path difference.

The camera sees the closed-form lattice at its pixel centres.
render_frame renders one configuration; render_sequence renders a sweep,
the beam envelopes once per sweep, then each frame's fringes, mapping
the samples in order over one thread or a pool of them.  Both apply gain,
optional Gaussian read noise and quantization in one shared digitizer.
The noise stream is keyed by (seed, frame_index) so that frames rendered
in parallel, serially, or in any order, or one at a time by render_frame,
are bit-identical.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .fields import LatticeConfig, beam_envelopes, fringes_at, intensity_at
from .geometry import require_positive, spacing_fourier


@dataclass(frozen=True)
class MirrorDrive:
    """Constant-velocity out / dwell / back sweep of the folding mirror.

    initial_separation is D at rest; the mirror moves `travel` micrometers
    at `speed` um/s, pauses `dwell` seconds, and returns at the same speed.
    D must stay positive through the sweep.
    """

    initial_separation: float
    speed: float
    travel: float
    dwell: float = 0.0
    frame_rate: float = 30.0

    def __post_init__(self):
        for name in ("initial_separation", "speed", "travel", "frame_rate"):
            require_positive(name, getattr(self, name))
        if not (math.isfinite(self.dwell) and self.dwell >= 0):
            raise ValueError(f"dwell must be >= 0 and finite, got {self.dwell!r}")
        if self.initial_separation - 2 * self.travel <= 0:
            raise ValueError(
                f"travel {self.travel} um drives the separation to "
                f"{self.initial_separation - 2 * self.travel} um; it must stay positive"
            )


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled sweep: time, mirror position, separation and
    path difference per frame (seconds / micrometers)."""

    times: np.ndarray
    mirror_positions: np.ndarray
    separations: np.ndarray
    path_differences: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        for name in ("mirror_positions", "separations", "path_differences"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length does not match times ({n})")
        if n > 1:
            dt = np.diff(self.times)
            if np.any(dt <= 0):
                raise ValueError("times must be strictly increasing")
            if not np.allclose(dt, dt[0], rtol=1e-6, atol=1e-12):
                raise ValueError("times must be uniformly spaced")
        if np.any(self.separations <= 0):
            raise ValueError("all separations must be positive")

    def __len__(self) -> int:
        return len(self.times)

    def with_path_difference(self, path_difference) -> "Trajectory":
        """Copy of the trajectory with path differences replaced by a
        scalar or an array of per-frame values, in micrometers."""
        pd = np.broadcast_to(np.asarray(path_difference, dtype=float),
                             self.times.shape).copy()
        return replace(self, path_differences=pd)


def mirror_to_separation(mirror_displacement: float,
                         initial_separation: float) -> float:
    """Separation after moving the mirror: D0 - 2*m (retroreflection doubles
    the lateral shift).  Raises if the result is not positive."""
    d = initial_separation - 2.0 * mirror_displacement
    if d <= 0:
        raise ValueError(
            f"mirror displacement {mirror_displacement} um gives separation "
            f"{d} um; must stay positive"
        )
    return d


def bs_translation_path_difference(perpendicular_deviation: float) -> float:
    """Path-length difference caused by a perpendicular deviation of the
    translated beam-splitter pair: exactly twice the deviation."""
    return 2.0 * perpendicular_deviation


def build_trajectory(drive: MirrorDrive) -> Trajectory:
    """Sample the out / dwell / back sweep at the drive's frame rate.

    Samples sit at k/frame_rate with both endpoints included; the mirror
    motion does not alter the path difference, so it is zero throughout.
    """
    t_out = drive.travel / drive.speed
    total = 2 * t_out + drive.dwell
    n = int(math.floor(total * drive.frame_rate + 1e-9)) + 1
    t = np.arange(n) / drive.frame_rate
    m = np.where(
        t <= t_out,
        drive.speed * t,
        np.where(t <= t_out + drive.dwell,
                 drive.travel,
                 drive.travel - drive.speed * (t - t_out - drive.dwell)),
    )
    m = np.maximum(m, 0.0)
    sep = drive.initial_separation - 2.0 * m
    return Trajectory(t, m, sep, np.zeros(n))


def static_sweep(separations, frame_rate: float = 30.0) -> Trajectory:
    """Trajectory visiting a fixed list of separations, one per frame.

    Useful for calibration sweeps that hit exact separation values rather
    than whatever a constant-velocity drive passes through.  The mirror
    positions are measured from the first separation.
    """
    sep = np.asarray(separations, dtype=float)
    if sep.ndim != 1 or sep.size == 0:
        raise ValueError("separations must be a non-empty 1-D sequence")
    require_positive("frame_rate", frame_rate)
    t = np.arange(sep.size) / frame_rate
    m = (sep[0] - sep) / 2.0
    return Trajectory(t, m, sep, np.zeros(sep.size))


@dataclass(frozen=True)
class CameraModel:
    """Pixel scale (focal-plane um per pixel, objective magnification folded
    in), sensor size, bit depth, additive Gaussian read noise in counts,
    gain in counts per intensity unit, and the noise seed."""

    pixel_scale: float = 0.0853
    sensor: tuple[int, int] = (640, 120)
    bit_depth: int = 8
    read_noise: float = 0.0
    exposure_gain: float = 1.0
    seed: int = 0

    def __post_init__(self):
        require_positive("pixel_scale", self.pixel_scale)
        if self.bit_depth not in (8, 16):
            raise ValueError(f"bit_depth must be 8 or 16, got {self.bit_depth!r}")
        if not (math.isfinite(self.read_noise) and self.read_noise >= 0):
            raise ValueError(f"read_noise must be >= 0 and finite, got {self.read_noise!r}")
        require_positive("exposure_gain", self.exposure_gain)
        nx, ny = self.sensor
        if nx < 2 or ny < 1:
            raise ValueError(f"sensor must be at least 2 x 1 pixels, got {self.sensor!r}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    @property
    def full_scale(self) -> int:
        return (1 << self.bit_depth) - 1

    @property
    def dtype(self):
        return np.uint8 if self.bit_depth == 8 else np.uint16

    def pixel_x(self) -> np.ndarray:
        nx = self.sensor[0]
        return (np.arange(nx) - (nx - 1) / 2) * self.pixel_scale

    def pixel_y(self) -> np.ndarray:
        ny = self.sensor[1]
        return (np.arange(ny) - (ny - 1) / 2) * self.pixel_scale


def _digitize(counts: np.ndarray, cam: CameraModel, frame_index: int) -> np.ndarray:
    # works in place on `counts`, a fresh intensity array the caller hands over
    counts *= cam.exposure_gain
    if cam.read_noise > 0:
        rng = np.random.default_rng([cam.seed, frame_index])
        # sigma * z bit for bit equals rng.normal(0.0, sigma)'s 0.0 + sigma * z
        noise = rng.standard_normal(counts.shape)
        noise *= cam.read_noise
        counts += noise
    np.rint(counts, out=counts)
    np.clip(counts, 0, cam.full_scale, out=counts)
    return counts.astype(cam.dtype)


def render_frame(cfg: LatticeConfig, cam: CameraModel,
                 frame_index: int = 0) -> np.ndarray:
    """Digitize the lattice of one configuration at the pixel centres.

    Parameters
    ----------
    cfg : LatticeConfig
    cam : CameraModel
    frame_index : int
        Keys the per-frame noise stream together with cam.seed.

    Returns
    -------
    ndarray of uint8 or uint16, shape (ny_px, nx_px)
        clamp(round(gain * I + N(0, read_noise))) to the bit depth, with I
        from intensity_at; byte for byte frame frame_index of a
        render_sequence sample with cfg's separation and path difference.
        Raises ValueError if a fringe spans fewer than 4 pixels.
    """
    return _digitize(intensity_at(cfg, cam.pixel_x(), cam.pixel_y()), cam, frame_index)


@dataclass(frozen=True)
class FrameRecord:
    """One manifest row: file name plus the ground truth of the frame."""

    frame: str
    time_s: float
    mirror_um: float
    separation_um: float
    analytic_spacing_um: float
    path_difference_um: float


def render_sequence(trajectory: Trajectory, base_cfg: LatticeConfig,
                    cam: CameraModel, workers: int = 1
                    ) -> tuple[list[np.ndarray], list[FrameRecord]]:
    """Render one digital frame per trajectory sample.

    Each sample substitutes its separation and path difference into
    base_cfg, and frame i is byte for byte render_frame(cfg_i, cam, i); the
    beam envelopes, which depend on neither, are evaluated once per sweep.
    Returns the frames and the matching manifest records.  With workers > 1
    the samples are rendered in a thread pool, with output identical to the
    serial render.  The samples are mapped in order, so a failure names the
    lowest failing sample.  A worker count below 1 is a ValueError.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    px = cam.pixel_x()
    envelopes = beam_envelopes(base_cfg, px, cam.pixel_y())

    def render(i: int) -> tuple[np.ndarray, FrameRecord]:
        try:
            cfg = replace(
                base_cfg,
                optics=replace(base_cfg.optics,
                               separation=float(trajectory.separations[i])),
                path_difference=float(trajectory.path_differences[i]),
            )
            image = _digitize(fringes_at(cfg, px, envelopes), cam, i)
        except ValueError as err:
            raise ValueError(f"rendering failed at sample {i}: {err}") from err
        return image, FrameRecord(
            frame=f"frame_{i:04d}.pgm",
            time_s=float(trajectory.times[i]),
            mirror_um=float(trajectory.mirror_positions[i]),
            separation_um=float(trajectory.separations[i]),
            analytic_spacing_um=spacing_fourier(cfg.optics),
            path_difference_um=float(trajectory.path_differences[i]),
        )

    samples = range(len(trajectory))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(render, samples))
    else:
        results = list(map(render, samples))
    return [image for image, _ in results], [record for _, record in results]


def spacetime_composite(frames) -> np.ndarray:
    """Stack the central row of each frame into a position-vs-time image.

    Row k of the result is the central sensor row of frame k, so a still
    lattice yields identical rows and a sweep shows the fringes fanning
    out and back.
    """
    if len(frames) < 2:
        raise ValueError("composite needs at least 2 frames")
    widths = {f.shape[1] for f in frames}
    if len(widths) != 1:
        raise ValueError(f"frames have mismatched widths: {sorted(widths)}")
    rows = [f[f.shape[0] // 2] for f in frames]
    return np.stack(rows)
