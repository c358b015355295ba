"""Accordion mechanics and the camera that digitizes the lattice.

The beam separation D is swept by translating a retroreflecting mirror:
a mirror displacement m changes the separation by 2*m while leaving the
optical path difference between the beams untouched, which is what keeps
the center fringe still during a sweep.  The rival scheme of translating
the beam-splitter pair is modeled only through its path-length penalty:
a perpendicular deviation delta costs 2*delta of path difference.

The camera sees the closed-form lattice at its pixel centres.  render_frame
renders one configuration.  render_sequence renders a sweep from its
trajectory's (D, dL) arrays, with no configuration per sample: it checks
every sample, and evaluates the beam envelopes, before it returns its
frames as an iterator that renders them on demand, in sample order, on the
calling thread or on a pool that runs at most one sample per worker ahead
of the consumer.  Both go through one renderer, which computes a frame's
cross row once and then renders and digitizes the frame one block of rows
at a time: gain, optional Gaussian read noise and quantization are applied
to each block, and the block is stored into the frame's integer array:
uint8, or big-endian uint16, the byte order of a binary graymap's 16-bit
samples, so that runfiles writes a frame from its own buffer and reads
one back with no byte swap.  The noise stream is keyed by (seed,
frame_index) and drawn block after block in row order, which is the
stream one draw for the whole frame would give, so that frames rendered
in parallel, serially, or in any order, or one at a time by render_frame,
are bit-identical.

One mirror rule serves rows and columns: where a frame reads bit for bit
the same reversed, only its rows or columns up to the center, ceil(n/2)
of them, are computed.  In y that holds for every frame with both beams
centred in y, since pixel_y is antisymmetric and each beam's y-factor
even, so the envelopes are evaluated on those rows only.  In x it holds
only where the envelope and the frame's cross row are checked to read the
same reversed, as at zero path difference with both beams on the axis,
where the center fringe sits on the sensor's center; NumPy's cos need not
be even, and a path difference, or a beam off the axis in x, renders the
full width.  A noise-free frame renders the quadrant up to both centers
into the frame and copies the mirror columns, then the mirror rows, after
digitizing.  A noisy frame, whose every pixel differs,
renders all its rows and columns in the order of its noise stream, its
mirror rows reading the envelope backwards.

Memory: beyond the float64 envelope (120 of the 240 rows of a 1280-pixel-
wide sensor with both beams centred in y, 1.2 MB), a frame being rendered
holds its integer frame and one float64 block of at most 320 KB at a
time, freed before the next is allocated, never a float64 array of the
whole frame; while it fills a block, a NumPy iterator buffer of about
62 KB, and while it digitizes a noisy block, a half-block buffer that its
read noise is drawn into half a block at a time: 1.5 blocks in all (a
noisy 1280 x 240 frame's traced scratch is 1.54 blocks).  Each digitized
block is stored straight into the frame, in the frame's own dtype.  The
integer frame is allocated by the thread that consumes the frames,
render_frame's caller or the iterator's, and handed to the renderer, so
that the frames of a pooled sweep come from that thread's heap, which the
consumer's own buffers reuse, and a worker thread holds only its blocks.  A sweep holds at most
one frame per worker, and each yielded frame is dropped by the iterator
before it pulls the next, so a consumer that drops it too, as write_run
does, adds only the frame it works on while a pool renders: on a noisy
1280 x 240 16-bit sensor, a sweep written by write_run peaks at about 1.9
integer frames above the envelope on 1 worker and 4.7 on 2.

Without read noise the digitizer does not read the frame index, so equal
inputs give equal bytes: a sample whose (D, dL) equals the previous
sample's yields the previous frame again, as during the hold at the far
end of a sweep.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import closing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .fields import (LatticeConfig, beam_envelopes, cross_row, fringes_into,
                     require_envelope, require_finite_phase, require_resolved)
from .geometry import OpticalParams, require_positive, spacing_fourier


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
    """A sweep sampled at frame_rate frames per second from t = 0: mirror
    position, separation and path difference per frame, in micrometers.

    Sample k is taken at times[k] = k / frame_rate seconds, derived from
    the frame rate, not stored.  Mirror positions and separations are both
    stored: a drive derives D from m, a separation ladder m from D, and
    each is exact only its own way round.
    """

    frame_rate: float
    mirror_positions: np.ndarray
    separations: np.ndarray
    path_differences: np.ndarray

    def __post_init__(self):
        require_positive("frame_rate", self.frame_rate)
        n = len(self.separations)
        for name in ("mirror_positions", "path_differences"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length does not match separations ({n})")
        # written so that a NaN, which fails every comparison, fails them too
        if not np.all(self.separations > 0):
            raise ValueError("all separations must be positive")
        if not np.all(np.isfinite(self.path_differences)):
            raise ValueError("path differences must be finite")

    def __len__(self) -> int:
        return len(self.separations)

    @property
    def times(self) -> np.ndarray:
        """Each sample's time, k / frame_rate seconds for sample k."""
        return np.arange(len(self)) / self.frame_rate

    def with_path_difference(self, path_difference) -> "Trajectory":
        """Copy of the trajectory with path differences replaced by a
        scalar or an array of per-frame values, in micrometers."""
        pd = np.broadcast_to(np.asarray(path_difference, dtype=float),
                             self.separations.shape).copy()
        return replace(self, path_differences=pd)


def build_trajectory(drive: MirrorDrive) -> Trajectory:
    """Sample the out / dwell / back sweep at the drive's frame rate.

    Samples sit at k/frame_rate with both endpoints included; the mirror
    motion does not alter the path difference, so it is zero throughout.
    A sample count that is not finite, or whose arrays NumPy cannot
    allocate, is a ValueError naming frame_rate.
    """
    t_out = drive.travel / drive.speed
    total = 2 * t_out + drive.dwell
    n = total * drive.frame_rate
    try:
        # an infinite count is an OverflowError, one beyond NumPy's array
        # sizes a ValueError and one beyond the host's memory a MemoryError,
        # each raised before anything is allocated; np.zeros asks first, as
        # np.arange(n) of an n near 2**63 returns an empty array instead
        n = math.floor(n + 1e-9) + 1
        path_differences = np.zeros(n)
        t = np.arange(n) / drive.frame_rate
    except (OverflowError, ValueError, MemoryError) as err:
        # a count of 19 digits or more is shown to 6 of them
        shown = n if n < 1e18 else f"{n:.6g}"
        raise ValueError(f"frame_rate {drive.frame_rate!r} samples the sweep "
                         f"{shown} times: {err}") from None
    m = np.where(
        t <= t_out,
        drive.speed * t,
        np.where(t <= t_out + drive.dwell,
                 drive.travel,
                 drive.travel - drive.speed * (t - t_out - drive.dwell)),
    )
    m = np.maximum(m, 0.0)
    sep = drive.initial_separation - 2.0 * m
    return Trajectory(drive.frame_rate, m, sep, path_differences)


def static_sweep(separations, frame_rate: float = 30.0) -> Trajectory:
    """Trajectory visiting a fixed list of separations, one per frame.

    Useful for calibration sweeps that hit exact separation values rather
    than whatever a constant-velocity drive passes through.  The mirror
    positions are measured from the first separation.
    """
    sep = np.asarray(separations, dtype=float)
    if sep.ndim != 1 or sep.size == 0:
        raise ValueError("separations must be a non-empty 1-D sequence")
    return Trajectory(frame_rate, (sep[0] - sep) / 2.0, sep, np.zeros(sep.size))


# the frames of a sweep or a run share one sensor: its grids are built once
# per length, read-only
@functools.lru_cache(maxsize=8)
def centred_pixels(n: int) -> np.ndarray:
    """Positions of n pixels in pixels, origin at the sensor center: the one
    pixel grid of the renderer and the analyzer, and antisymmetric bit for
    bit."""
    x = np.arange(n) - (n - 1) / 2
    x.flags.writeable = False
    return x


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
    def dtype(self) -> np.dtype:
        """uint8, or for 16 bits big-endian uint16: the byte order of a
        binary graymap's samples, so a frame is written as it is stored."""
        return np.dtype(np.uint8 if self.bit_depth == 8 else ">u2")

    def pixel_x(self) -> np.ndarray:
        """The pixel centres across the sensor in um, about its center."""
        return centred_pixels(self.sensor[0]) * self.pixel_scale

    def pixel_y(self) -> np.ndarray:
        """The pixel centres down the sensor in um, about its center."""
        return centred_pixels(self.sensor[1]) * self.pixel_scale


# the largest |z| NumPy's ziggurat normal draw can return (Marsaglia & Tsang,
# J. Stat. Softw. 5(8), 2000): its layers return |z| < r, the tail start
# r = 3.6541528853610088, and its tail r + x with x = -ln(1 - u) / r, where u,
# 53 random bits over 2^53, is at most 1 - 2^-53, so x <= 53 ln 2 / r (a
# bound: the tail's acceptance test rejects the largest x)
_R_ZIGGURAT = 3.6541528853610088
_Z_MAX = _R_ZIGGURAT + 53 * math.log(2) / _R_ZIGGURAT  # about 13.71


# float64 elements in one row block of a frame being rendered: 320 KB, small
# next to the frames of a fine-fringed sensor, yet one block holds the 60
# rows up to the center of a noise-free frame of the default 640 x 120
# sensor.  A frame computes its cross row once, so a block costs a few NumPy
# calls beyond its elementwise work
_BLOCK_ELEMENTS = 5 << 13


def _digitize(counts: np.ndarray, cam: CameraModel,
              rng: np.random.Generator | None) -> np.ndarray:
    """clip(rint(gain * counts + read_noise * z)) of one block of rows, in
    place on `counts`, a C-contiguous intensity block the caller hands over.
    z comes from rng, the frame's noise stream (None without read noise),
    drawn next for this block in two chunks of half the block into one
    half-block buffer: chunks in row order draw what one draw of the block
    would, and blocks in row order what one draw of the whole frame would."""
    counts *= cam.exposure_gain
    if rng is not None:
        flat = counts.reshape(-1)  # a view: the block is contiguous
        noise = np.empty((flat.size + 1) // 2)
        for part in (flat[:noise.size], flat[noise.size:]):
            # sigma * z bit for bit equals rng.normal(0.0, sigma)'s 0.0 + sigma * z
            z = rng.standard_normal(out=noise[:part.size])
            z *= cam.read_noise
            part += z
    np.rint(counts, out=counts)
    # bounds of the block's dtype: int ones are converted on every call
    np.clip(counts, 0.0, float(cam.full_scale), out=counts)
    return counts


def _row_blocks(rows: int, half: int, width: int) -> Iterator[tuple[slice, slice]]:
    """The row blocks of the first `rows` rows of a frame whose first `half`
    rows are rendered from the envelope's rows and whose row r past them
    reads envelope row rows - 1 - r, as pairs of slices (frame rows,
    envelope rows), each of at most _BLOCK_ELEMENTS // width rows: ascending
    below half and descending past it, so a block reads the envelope
    through a view, never a copy."""
    step = max(1, _BLOCK_ELEMENTS // width)
    for a in range(0, half, step):
        b = min(a + step, half)
        yield slice(a, b), slice(a, b)
    for a in range(half, rows, step):
        b = min(a + step, rows)
        yield slice(a, b), slice(rows - 1 - a, rows - 1 - b if b < rows else None, -1)


def _new_frame(cam: CameraModel) -> np.ndarray:
    """An uninitialized sensor-sized frame of the camera's dtype."""
    return np.empty(cam.sensor[::-1], cam.dtype)


def _frame_renderer(base_cfg: LatticeConfig, cam: CameraModel
                    ) -> tuple[Callable[[float, float, int, np.ndarray], np.ndarray],
                               np.ndarray]:
    """render(separation, path_difference, frame_index, frame): base_cfg's
    beams and lens digitized at that D and dL into frame, a _new_frame(cam)
    of the caller's, which it returns; frame_index keys the noise stream.
    Returned with cam.pixel_x(), which the caller's sampling checks read.

    The beam envelopes are evaluated here, once, on the rows up to the
    center only when both beams are centred in y.  A sensor whose envelope
    NumPy refuses to allocate is a ValueError raised before its pixel
    centres are built, and so is one whose pixel centres it refuses.  A
    frame computes its cross row once, then renders and digitizes one block
    of rows at a time, by the module's mirror rule; every step is
    elementwise, so the bytes do not depend on the blocks.  With read noise
    a frame renders every sensor row, in the order of its noise stream;
    without, the rows up to the center, and the columns up to it where the
    frame's cross row and the envelope read the same reversed, then copies
    their mirrors."""
    a = base_cfg.beam_plus.amplitude + base_cfg.beam_minus.amplitude
    # the counts before clipping peak at no more than gain * (a1 + a2)^2
    if not math.isfinite(cam.exposure_gain * a * a):
        raise ValueError(f"gain {cam.exposure_gain!r} leaves the peak counts "
                         "gain * (a1 + a2)^2 no finite value")
    # and with read noise at no more than read_noise * _Z_MAX
    if not math.isfinite(cam.exposure_gain * a * a + cam.read_noise * _Z_MAX):
        raise ValueError(f"read noise {cam.read_noise!r} leaves the counts gain * "
                         f"(a1 + a2)^2 + read_noise * {_Z_MAX:.4g} no finite value")
    # row r then equals row len(py) - 1 - r exactly, so it is not checked:
    # pixel_y is antisymmetric bit for bit, and exp(-v*v/w2) is even
    centred = (base_cfg.beam_plus.center_offset[1] == 0
               and base_cfg.beam_minus.center_offset[1] == 0)
    nx, ny = cam.sensor
    half = (ny + 1) // 2 if centred else ny
    try:
        # the envelope's size is known from the sensor alone: a sensor NumPy
        # refuses is refused before its pixel centres are built (160 MB and
        # more on a 10^7 x 10^7 sensor)
        require_envelope(half, nx)
        px, py = cam.pixel_x(), cam.pixel_y()
        envelope, cross_y, cross_x = beam_envelopes(base_cfg, px, py[:half])
    except MemoryError as err:
        # NumPy refuses an allocation beyond the host's memory before making it
        raise ValueError(f"sensor {cam.sensor[0]}x{cam.sensor[1]}: {err}") from None
    noisy = cam.read_noise > 0
    rows = ny if noisy else half
    mirrored = (not noisy and np.array_equal(envelope, envelope[:, ::-1])
                and np.array_equal(cross_x, cross_x[::-1]))

    def render(separation: float, path_difference: float, frame_index: int,
               frame: np.ndarray) -> np.ndarray:
        cross = cross_row(base_cfg.optics, separation, path_difference, px, cross_x)
        mirror = mirrored and np.array_equal(cross, cross[::-1])
        width = (px.size + 1) // 2 if mirror else px.size
        rng = np.random.default_rng([cam.seed, frame_index]) if noisy else None
        for frame_rows, src in _row_blocks(rows, half, width):
            block = np.empty((frame_rows.stop - frame_rows.start, width))
            fringes_into(block, envelope[src, :width], cross_y[src], cross[:width])
            # the values are whole numbers within the bit depth, so the cast
            # into the frame's dtype is exact
            frame[frame_rows, :width] = _digitize(block, cam, rng)
            # freed before the next block is allocated
            del block
        # column j past the rendered ones mirrors column len(px) - 1 - j, and
        # row r past them row len(py) - 1 - r
        frame[:rows, width:] = frame[:rows, :px.size - width][:, ::-1]
        frame[rows:] = frame[:ny - rows][::-1]
        return frame

    return render, px


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
    ndarray of uint8 or big-endian uint16 (cam.dtype), shape (ny_px, nx_px)
        clamp(round(gain * I + N(0, read_noise))) to the bit depth, with I
        from intensity_at; byte for byte frame frame_index of a
        render_sequence sample with cfg's separation and path difference.
        Raises ValueError if a fringe spans fewer than 4 pixels, if the
        peak counts gain * (a1 + a2)^2, or those plus read_noise times the
        largest normal deviate NumPy draws (about 13.71), are not finite,
        or if the sensor's pixel centres or envelope cannot be allocated.
    """
    render, px = _frame_renderer(cfg, cam)
    require_resolved(cfg.optics, px)
    return render(cfg.optics.separation, cfg.path_difference, frame_index, _new_frame(cam))


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
                    ) -> tuple[Iterator[np.ndarray], list[FrameRecord]]:
    """Render one digital frame per trajectory sample, one frame at a time.

    Each sample renders base_cfg's beams and lens at its D and dL, read
    from the trajectory's arrays.  Every sample is checked and its manifest
    record built before this returns: a sample that cannot render is a
    ValueError naming the lowest such sample, raised before any frame is
    rendered.  Returns the frames and the matching manifest records.

    The frames are a single-pass iterator in sample order, and frame i is
    byte for byte render_frame(cfg_i, cam, i), cfg_i being base_cfg at
    sample i's D and dL; the beam envelopes, which depend on neither D nor
    dL, are evaluated once per sweep, before this returns, so a consumer
    that has started its output meets no rendering error the checks above
    did not raise.  The frames are read-only.  Without read noise a sample
    whose (D, dL) equals the previous one's is not rendered: it yields the
    previous frame, the same array.  Rendering starts at the first next().
    With workers > 1 a thread pool renders at most `workers` samples ahead
    of the consumer, and the output is identical to the serial render.
    Each frame renders by the module's mirror rule: without read noise,
    rows and columns that mirror others are copied, not rendered.  Beyond
    the envelope, each sample being rendered holds its integer frame and
    1.5 float64 blocks of rows of at most 320 KB (one block at a time and,
    with read noise, half a block of noise), and the iterator drops
    each frame before it pulls the next: a consumer that does too holds at
    most workers + 1 integer frames, whatever the sweep's length and
    however fine its fringes, and on 1 worker one frame.  Every integer
    frame is allocated on the thread that iterates the frames, before its
    sample is handed to a worker, so a worker thread holds only its
    blocks.  Closing the iterator early cancels the samples not yet started
    and joins the pool.  A worker count below 1 is a ValueError, and so
    is a sensor whose pixel centres or envelope cannot be allocated.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    # the envelopes are evaluated before this returns, so that no rendering
    # error can come after a consumer has started its output
    render, px = _frame_renderer(base_cfg, cam)
    lens = base_cfg.optics
    samples = list(zip(trajectory.separations.astype(float).tolist(),
                       trajectory.path_differences.astype(float).tolist()))
    times = trajectory.times.tolist()
    records = []
    for i, (separation, path_difference) in enumerate(samples):
        try:
            # in the order render_frame meets them: the optics, the
            # configuration's phase, then the sampling
            optics = OpticalParams(lens.wavelength, lens.focal_length, separation)
            require_finite_phase(lens.wavelength, path_difference)
            require_resolved(optics, px)
        except ValueError as err:
            raise ValueError(f"rendering failed at sample {i}: {err}") from err
        records.append(FrameRecord(
            frame=f"frame_{i:04d}.pgm",
            time_s=times[i],
            mirror_um=float(trajectory.mirror_positions[i]),
            separation_um=separation,
            analytic_spacing_um=spacing_fourier(optics),
            path_difference_um=path_difference,
        ))
    return _render_frames(render, samples, cam, workers), records


def _render_frames(render_sample: Callable[[float, float, int, np.ndarray], np.ndarray],
                   samples: list[tuple[float, float]], cam: CameraModel, workers: int
                   ) -> Iterator[np.ndarray]:
    # the first sample of each run of samples that render alike
    starts = list(range(len(samples)))
    if cam.read_noise == 0:
        # without read noise the frame index is not read: equal (D, dL), equal frames
        starts = [i for i in starts if i == 0 or samples[i] != samples[i - 1]]
    counts = np.diff([*starts, len(samples)]).tolist()

    def render(i: int, frame: np.ndarray) -> np.ndarray:
        render_sample(*samples[i], i, frame)
        # a repeated sample yields this same array again
        frame.flags.writeable = False
        return frame

    def rendered() -> Iterator[np.ndarray]:
        # every frame is allocated here, on the consumer's thread, so it
        # comes from that thread's heap; a worker allocates only its blocks
        if workers == 1:
            yield from (render(i, _new_frame(cam)) for i in starts)
            return
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            ahead = deque()
            for i in starts:
                ahead.append(pool.submit(render, i, _new_frame(cam)))
                if len(ahead) > workers:
                    yield ahead.popleft().result()
            while ahead:
                yield ahead.popleft().result()
        finally:
            # closed early: the queued samples are dropped, the running ones joined
            pool.shutdown(cancel_futures=True)

    with closing(rendered()) as frames:
        for count in counts:
            # no name here holds a frame: once the consumer drops it, it is
            # freed before the next one is pulled and rendered
            yield from repeat(next(frames), count)
