"""Fringe metrology on digital frames.

Each frame gets one spectral pass: one profile averaged over the central
quarter of the sensor's rows, one Hann window and one FFT.  The period comes
from the dominant peak with sub-bin refinement; phase and contrast come from
one projection of the windowed profile onto quadratures at that period,
in pixels.  measure_run measures each frame of a run with measure_frame, as
one image is measured, referees its period against the manifest, then
tracks the center fringe by its fringe order: one unwrap of the accepted
frames' phases chooses each frame's order, and the manifest spacing only
gives the order's width in um.  Pixel-scale
calibration and knife-edge waist fitting close the loop between pixel and
physical units.  The knife-edge fit is a variable-projection least-squares
fit in numpy: the total power is solved in closed form and only the edge
centre and waist are iterated."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import MIN_SAMPLES_PER_FRINGE, fold_to_period
from .geometry import require_positive
from .instrument import centred_pixels

PEAK_GATE_DB = 6.0
MIN_PERIODS = 3
# measure_run rejects a frame whose measured period is farther than this,
# relatively, from its manifest period
PERIOD_TOLERANCE = 0.05


class AnalysisError(ValueError):
    """A frame or dataset could not be measured."""


class NoFringeError(AnalysisError):
    """No spectral peak rose far enough above the floor."""


@dataclass(frozen=True)
class FringeMeasurement:
    """Everything measured on one frame, in pixels: times a pixel scale in
    um per pixel, period_px and center_px are micrometers."""

    period_px: float
    period_uncertainty_px: float
    fringe_phase: float
    center_px: float
    contrast: float


@dataclass(frozen=True)
class CalibrationFit:
    """Single-parameter fit of measured periods against the analytic
    spacings lam*f/D."""

    pixel_scale: float
    pixel_scale_uncertainty: float
    residuals: np.ndarray


@dataclass(frozen=True)
class KnifeEdgeFit:
    waist: float
    center: float
    total_power: float
    rms_residual: float


class FrameResult(NamedTuple):
    """Per frame of a run: the measurement or the AnalysisError rejecting it,
    kept without its traceback, which would hold the rejected image; the
    tracked center fringe (um; None when rejected): center_px times the
    pixel scale, moved by the frame's fringe order times its manifest
    spacing; and the unwrap flag, set when the phase stepped more than
    pi/2 from the previous accepted frame."""

    measurement: FringeMeasurement | AnalysisError
    position_um: float | None
    flagged: bool


def fringe_profile(image) -> np.ndarray:
    """Average the central quarter of the image's rows, max(1, ny // 4) of
    ny, into one profile across the fringes: a band that trades noise
    against the curvature of the beam envelope."""
    img = np.atleast_2d(np.asarray(image))
    ny = img.shape[0]
    rows = max(1, ny // 4)
    start = ny // 2 - rows // 2
    # summed in float64 with no float copy of the band: a sum of integers
    # below 2**53 is exact, so the bits are those of the copy's mean
    return img[start:start + rows].mean(axis=0, dtype=float)


class _Spectrum(NamedTuple):
    total: float          # Hann-weighted sum of the profile
    windowed: np.ndarray  # Hann-weighted profile minus its weighted mean
    spec: np.ndarray      # |rfft(windowed)|


# the frames of a run share one width: their window is computed once per
# width, read-only
@functools.lru_cache(maxsize=8)
def _hann(n: int) -> tuple[np.ndarray, float]:
    """Hann window of n samples and its sum."""
    h = np.hanning(n)
    h.flags.writeable = False
    return h, h.sum()


def _spectrum(image) -> _Spectrum:
    """One profile over the central quarter of the rows, one Hann window and
    one FFT: all that period, phase and contrast read."""
    if np.size(image) == 0:
        raise AnalysisError(f"empty image of shape {np.shape(image)}: no profile to analyze")
    profile = fringe_profile(image)
    h, h_sum = _hann(profile.size)
    total = (h * profile).sum()
    windowed = h * (profile - total / h_sum)
    return _Spectrum(float(total), windowed, np.abs(np.fft.rfft(windowed)))


def _floor(spec: np.ndarray) -> float:
    """The spectral floor, np.median(spec[1:]) bit for bit, as np.median
    computes it: the middle one or two of the partitioned non-DC
    magnitudes, averaged, or the NaN that partitioning puts last.  With no
    np.median, no masked-array module is imported for its NaN check."""
    m = spec.size - 1
    part = np.partition(spec[1:], [(m - 1) // 2, m // 2, -1])
    return float(part[-1] if math.isnan(part[-1]) else part[(m - 1) // 2:m // 2 + 1].mean())


def _period(s: _Spectrum) -> tuple[float, float]:
    """Period in pixels, refined by a parabola through the log magnitudes of
    the peak bin and its neighbours, and a heuristic 1-sigma uncertainty
    propagated from the spectral floor through that curvature."""
    n, spec = s.windowed.size, s.spec
    if spec.size < 5:
        raise AnalysisError(f"profile of {n} samples is too short to analyze")
    # the dominant non-DC bin, 6 dB-gated vs the median; a peak whose implied
    # modulation depth is below 1e-9 of the windowed sum is rounding dust
    k = 1 + int(np.argmax(spec[1:-1]))
    floor = _floor(spec)
    peak = float(spec[k])
    if peak <= 0 or floor <= 0 or peak < 1e-9 * abs(s.total) \
            or 20 * math.log10(peak / floor) < PEAK_GATE_DB:
        raise NoFringeError("no fringe found")
    if k == 1:
        # under 1.5 periods fit: a peak there is the beam envelope's own scale
        raise NoFringeError("no fringe found: the dominant peak at bin 1 is the "
                            "scale of the beam envelope")
    if k < MIN_PERIODS:
        raise AnalysisError(f"dominant peak at bin {k}: fewer than {MIN_PERIODS} "
                            f"fringe periods fit in the window")
    if k > n // MIN_SAMPLES_PER_FRINGE:
        raise AnalysisError(f"dominant peak at bin {k} of {n}: fewer than "
                            f"{MIN_SAMPLES_PER_FRINGE} samples per fringe period")
    lm, l0, lp = np.log(np.maximum(spec[k - 1:k + 2], peak * 1e-15))
    curvature = lm - 2 * l0 + lp
    delta = 0.5 * (lm - lp) / curvature
    period = n / (k + delta)
    sigma_delta = math.sqrt(1.5) * (floor / peak) / abs(curvature)
    return float(period), float(period * sigma_delta / (k + delta))


def _positive_period(period_px: float) -> float:
    if not (period_px > 0 and math.isfinite(period_px)):
        raise AnalysisError(f"period must be positive and finite, got {float(period_px)!r}")
    return period_px


def _project(s: _Spectrum, period_px: float) -> tuple[float, float, float]:
    """Phase in (-pi, pi], bright-fringe center nearest the axis in
    (-period/2, period/2] and fundamental amplitude, from the quadratures of
    the windowed profile at 1/period_px, pixel origin at the sensor center."""
    _positive_period(period_px)
    x = centred_pixels(s.windowed.size)
    projection = np.sum(s.windowed * np.exp(-2j * math.pi * x / period_px))
    phase = float(np.angle(projection))
    center = fold_to_period(-phase * period_px / (2 * math.pi), period_px)
    return phase, float(center), abs(projection)


def measure_frame(image) -> FringeMeasurement:
    """Full single-frame measurement: period, phase, center and contrast,
    from one spectral pass over the profile of the central quarter of the
    image's rows and one projection at the measured period.

    At least 3 full periods and 4 samples per period must fit across the
    image.  A best non-DC peak less than 6 dB above the median spectrum
    magnitude, or at bin 1, the scale of the beam envelope itself, is a
    NoFringeError; too few periods or samples per period, or an empty image,
    is an AnalysisError."""
    s = _spectrum(image)
    period, sigma = _period(s)
    phase, center_px, amplitude = _project(s, period)
    if s.total <= 0:
        raise NoFringeError("no fringe found")
    contrast = float(min(max(2 * amplitude / s.total, 0.0), 1.0))
    return FringeMeasurement(period, sigma, phase, center_px, contrast)


def calibrate_pixel_scale(points) -> CalibrationFit:
    """Fit the pixel scale from (analytic spacing in um, measured period in
    px) pairs, each spacing being a frame's lam*f/D as its run manifest
    records it.

    The model period_px = spacing / s has the single parameter s, so the
    least-squares solution is closed-form in b = 1/s.  It is solved with
    the spacings in units of 2**e and the periods in units of 2**f, the
    powers of two just above the largest of each, and scaled back by
    2**(e - f): exact, with no square of a spacing or a period that under-
    or overflows where they are finite.  Needs at least 3 points whose
    spacings span at least a factor of 2.  A fit whose scale or standard
    error is no positive finite float, as where a spacing over a period
    leaves the float range, is an AnalysisError.

    Returns the scale in um/pixel, its standard error, and the per-point
    relative residuals of the fit.
    """
    pts = [(float(u), float(p)) for u, p in points]
    if len(pts) < 3:
        raise AnalysisError(f"ill-conditioned: need at least 3 points, got {len(pts)}")
    spacings, periods = np.array(pts).T
    if not (np.all(spacings > 0) and np.all(periods > 0) and np.isfinite(pts).all()):
        raise AnalysisError("spacings and periods must be positive and finite")
    if spacings.max() / spacings.min() < 2.0:
        raise AnalysisError(f"ill-conditioned: spacings span only "
                            f"{spacings.max() / spacings.min():.2f}x; need at least 2x")
    e = math.frexp(spacings.max())[1]
    f = math.frexp(periods.max())[1]
    u = np.ldexp(spacings, -e)  # in [1/2, 1) at the largest: sum(u*u) >= 1/4
    q = np.ldexp(periods, -f)
    # a scale beyond the float range overflows 1/b, its sigma or their
    # scaling back: the fit runs in NumPy scalars, which give inf or nan
    # there, and such a fit is refused below
    with np.errstate(all="ignore"):
        b = (u * q).sum() / (u * u).sum()
        predicted = u * b
        residuals = (q - predicted) / predicted
        var_period = ((q - predicted) ** 2).sum() / (len(pts) - 1)
        sigma_b = np.sqrt(var_period / (u * u).sum())
        scale = float(np.ldexp(1.0 / b, e - f))
        sigma = float(np.ldexp(sigma_b / b**2, e - f))
    if not (0 < scale < math.inf and sigma < math.inf):
        raise AnalysisError(f"the fitted scale {scale!r} um/px and its sigma "
                            f"{sigma!r} must be positive and finite")
    return CalibrationFit(scale, sigma, residuals)


KNIFE_EDGE_MAX_ITERATIONS = 100
KNIFE_EDGE_STEP_TOL = 1e-10


def _edge_projection(x, p, center: float, waist: float):
    """Unit-power edge g = (1 + erf(u))/2 with u = sqrt2 (x-x0)/w, the total
    power that best scales it onto p, the residual p - total*g and the
    exact Jacobian of that residual over (x0, w) with the total eliminated
    (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973).  None when the
    edge lies so far beyond the scan that g vanishes at every point."""
    u = math.sqrt(2) * (x - center) / waist
    g = 0.5 * (1.0 + np.array([math.erf(v) for v in u]))
    gg = float(g @ g)
    total = float(g @ p) / gg if gg > 0 else math.inf
    if not math.isfinite(total):
        return None
    slope = np.exp(-u * u) / math.sqrt(math.pi)  # dg/du
    residual = p - total * g
    jac = np.empty((x.size, 2))
    for k, dg in enumerate((slope * (-math.sqrt(2) / waist), slope * (-u / waist))):
        jac[:, k] = -total * (dg - g * float(g @ dg) / gg) - g * float(dg @ residual) / gg
    return total, residual, jac


def fit_knife_edge(positions, powers) -> KnifeEdgeFit:
    """Fit a knife-edge transmission curve P(x) = (P/2)(1 + erf(sqrt2 (x-x0)/w)).

    P enters linearly, so it is solved in closed form at every step and a
    Levenberg-Marquardt iteration runs over (x0, w) alone, starting from the
    half-power point and the 16-84% width.  It stops when a step moves the
    parameters by less than KNIFE_EDGE_STEP_TOL times the waist, and gives
    up after KNIFE_EDGE_MAX_ITERATIONS steps.

    Parameters
    ----------
    positions, powers : sequences
        Knife positions (um) and transmitted powers; at least 8 points
        spanning the transition, increasing with position up to noise.

    Returns
    -------
    KnifeEdgeFit
        Fitted 1/e^2 intensity radius w, edge center x0, total power and
        the rms fit residual.

    Raises
    ------
    AnalysisError
        "fit failed" when the iteration does not converge, ends on a
        non-finite or non-positive parameter, leaves w unresolved (w -> 0,
        or an edge outside the scan), or the residual rms exceeds 5% of the
        total power.  Non-finite input is an AnalysisError too.
    """
    x = np.asarray(positions, dtype=float)
    p = np.asarray(powers, dtype=float)
    if x.size != p.size or x.size < 8:
        raise AnalysisError(f"need at least 8 knife-edge points, got {x.size}")
    if not (np.isfinite(x).all() and np.isfinite(p).all()):
        raise AnalysisError("fit failed: knife-edge positions and powers must be finite")
    total0 = float(p.max())
    if total0 <= 0:
        raise AnalysisError("fit failed: powers are not positive")
    center0 = float(x[np.argmin(np.abs(p - total0 / 2))])
    hi = float(np.interp(0.84 * total0, p, x))
    lo = float(np.interp(0.16 * total0, p, x))
    waist0 = max(hi - lo, (x.max() - x.min()) / 20)
    if not waist0 > 0:
        raise AnalysisError("fit failed: the positions do not span the edge")

    theta = np.array([center0, waist0])
    fit = _edge_projection(x, p, *theta)  # g >= 1/2 at center0, never None
    cost = float(fit[1] @ fit[1])
    damping = 1e-3
    for _ in range(KNIFE_EDGE_MAX_ITERATIONS):
        _, residual, jac = fit
        normal = jac.T @ jac
        try:
            step = np.linalg.solve(normal + damping * np.diag(np.diag(normal)),
                                   -(jac.T @ residual))
        except np.linalg.LinAlgError:
            raise AnalysisError("fit failed: the edge shape does not constrain "
                                "the center and waist") from None
        if not np.isfinite(step).all():
            raise AnalysisError("fit failed: a fitted parameter is not finite")
        # both parameters are lengths on the scale of the waist
        if math.hypot(*step) <= KNIFE_EDGE_STEP_TOL * theta[1]:
            break
        trial = theta + step
        trial_fit = _edge_projection(x, p, *trial) if trial[1] > 0 else None
        trial_cost = math.inf if trial_fit is None else float(trial_fit[1] @ trial_fit[1])
        if trial_cost < cost:
            theta, fit, cost = trial, trial_fit, trial_cost
            damping = max(damping / 10, 1e-12)
        else:
            damping *= 10
    else:
        raise AnalysisError(f"fit failed: no convergence in "
                            f"{KNIFE_EDGE_MAX_ITERATIONS} iterations")
    total, _, jac = fit
    center, waist = (float(v) for v in theta)
    if total <= 0:
        raise AnalysisError(f"fit failed: fitted total power {total:.3g} is not positive")
    # the data pin w down only where the edge has a slope at some scan
    # point; as w -> 0, or once the edge leaves the scan, g is 0 or 1 at
    # every point and doubling w moves the model by next to nothing
    if float(np.linalg.norm(jac[:, 1])) * waist <= 1e-6 * total:
        raise AnalysisError(f"fit failed: the scan does not resolve the waist "
                            f"{waist:.3g} at center {center:.4g}: the fitted edge is a "
                            f"step between two points or lies outside the scan")
    rms = math.sqrt(cost / x.size)
    if rms > 0.05 * total:
        raise AnalysisError(
            f"fit failed: residual rms {rms:.3g} exceeds 5% of total power "
            f"{total:.3g}"
        )
    return KnifeEdgeFit(waist, center, total, rms)


def _referee(m: FringeMeasurement, d_um: float, pixel_scale: float) -> FringeMeasurement:
    """m, unless its manifest period d_um / pixel_scale is not positive and
    finite or its measured period is more than PERIOD_TOLERANCE (relative)
    off it, as a wrong pixel scale gives: each an AnalysisError, the only
    rule for an off-period frame."""
    # before the division: a manifest period <= 0 is rejected by name
    expected_px = _positive_period(d_um / pixel_scale)
    off = m.period_px / expected_px - 1
    if abs(off) > PERIOD_TOLERANCE:
        # the fewest decimals, at least one, that show the breach
        digits = next((k for k in range(1, 16)
                       if abs(float(f"{off:.{k}%}"[:-1])) > 100 * PERIOD_TOLERANCE), 1)
        raise AnalysisError(
            f"measured period {m.period_px:.4g} px is {off:+.{digits}%} off the "
            f"manifest period {expected_px:.4g} px (tolerance {PERIOD_TOLERANCE:.0%})")
    return m


def measure_run(frames, spacings_um, pixel_scale: float) -> list[FrameResult]:
    """Measure each frame of a run with measure_frame, over the central
    quarter of its rows, into one FrameResult, referee it against the
    manifest, then track the center fringe of the accepted frames by its
    fringe order.

    frames is any iterable of 2-D arrays, read once and in order (a generator
    that loads each frame will do), each measured blind, as one image is.
    One frame is held at a time: each is dropped before the next is read,
    and a rejection is kept as its error, without its traceback.  No
    masked-array module is loaded: the spectral floor is taken without
    np.median.
    spacings_um, each frame's analytic spacing from the run manifest,
    referees each frame and gives the width of one fringe order; it chooses
    no order.  pixel_scale is in um per pixel, checked positive and finite
    (a ValueError) before any frame is read.

    A frame is rejected by measure_frame's AnalysisError, then by a manifest
    period that is not positive and finite, then by a measured period more
    than PERIOD_TOLERANCE (relative) off the manifest period, as a wrong
    pixel scale gives: the only rule for an off-period frame.  The accepted
    frames' phases phi, -2 pi center_px / period_px (fringe_phase folded as
    the center is), are unwrapped in one pass, each onto the branch nearest
    the previous accepted frame's.  A frame's fringe order is
    n = round((unwrap(phi) - phi) / 2 pi), and its position_um is
    center_px * pixel_scale - n * spacing: the phases choose the order,
    the manifest gives only its width.  A frame whose unwrapped step from
    the previous accepted frame exceeds pi/2, a quarter period, is flagged,
    also where that step spans rejected frames; a flag is no error.  The
    tracking holds while each step stays below half a period, a change of
    path difference below wavelength/2 from one accepted frame to the next:
    on a sweep with no rejected frame, a path rate below
    wavelength * frame_rate / 2.  Past it a step aliases onto the wrong
    order, and no flag need fire.
    """
    require_positive("pixel_scale", pixel_scale)
    spacings = np.asarray(spacings_um, dtype=float).tolist()
    if not spacings:
        raise AnalysisError("nothing to track")
    measured: list[FringeMeasurement | AnalysisError] = []
    frames = iter(frames)
    # one frame per spacing, and not one more read
    for d_um in spacings:
        image = next(frames, None)
        if image is None:
            break
        try:
            measured.append(_referee(measure_frame(image), d_um, pixel_scale))
        except AnalysisError as err:
            # its traceback would keep measure_frame's frame, and the image
            measured.append(err.with_traceback(None))
        # dropped before the next frame is read
        del image
    if len(measured) != len(spacings) or next(frames, None) is not None:
        raise AnalysisError("frames and spacings differ in length")
    # each accepted center's own phase, in [-pi, pi): at fringe_phase pi
    # exactly the center folds to +period/2, a whole turn from the phase
    phase = np.array([-2 * math.pi * m.center_px / m.period_px for m in measured
                      if isinstance(m, FringeMeasurement)])
    unwrapped = np.unwrap(phase)
    orders = iter(np.rint((unwrapped - phase) / (2 * math.pi)).tolist())
    flags = iter((np.abs(np.diff(unwrapped, prepend=unwrapped[:1])) > math.pi / 2).tolist())
    return [FrameResult(m, m.center_px * pixel_scale - next(orders) * d_um, next(flags))
            if isinstance(m, FringeMeasurement) else FrameResult(m, None, False)
            for m, d_um in zip(measured, spacings)]
