"""Fringe metrology on digital frames.

Each frame gets one spectral pass: one profile averaged over a band of rows
around the sensor center, one Hann window and one FFT.  The period comes
from the dominant peak with sub-bin refinement; phase and contrast come from
one projection of the windowed profile onto quadratures at that period.
Pixel-scale calibration and knife-edge waist fitting close the loop between
pixel and physical units.  The knife-edge fit is a variable-projection
least-squares fit in numpy: the total power is solved in closed form and
only the edge centre and waist are iterated."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import fold_to_period
from .geometry import require_positive

PEAK_GATE_DB = 6.0
MIN_PERIODS = 3
MIN_SAMPLES_PER_PERIOD = 4


class AnalysisError(ValueError):
    """A frame or dataset could not be measured."""


class NoFringeError(AnalysisError):
    """No spectral peak rose far enough above the floor."""


class PeriodEstimate(NamedTuple):
    period_px: float
    uncertainty_px: float


class PhaseEstimate(NamedTuple):
    phase: float
    center_px: float


@dataclass(frozen=True)
class FringeMeasurement:
    """Everything measured on one frame.  period_um and center_um are None
    when no pixel scale was supplied."""

    period_px: float
    period_uncertainty_px: float
    fringe_phase: float
    center_px: float
    contrast: float
    period_um: float | None = None
    center_um: float | None = None


@dataclass(frozen=True)
class CalibrationFit:
    """Single-parameter fit of measured periods against lam*f/D."""

    pixel_scale: float
    pixel_scale_uncertainty: float
    residuals: np.ndarray


@dataclass(frozen=True)
class KnifeEdgeFit:
    waist: float
    center: float
    total_power: float
    rms_residual: float


@dataclass(frozen=True)
class DriftTrace:
    """Per-frame center-fringe positions (um), unwrapped across frames."""

    positions_um: np.ndarray
    max_drift_um: float
    flagged: tuple[int, ...]


def fringe_profile(image, window_rows: int | None = None) -> np.ndarray:
    """Average a band of rows about the image center into one profile.

    window_rows defaults to a quarter of the image height, trading noise
    against envelope curvature.
    """
    img = np.atleast_2d(np.asarray(image))
    ny = img.shape[0]
    rows = window_rows if window_rows is not None else max(1, ny // 4)
    rows = int(min(max(rows, 1), ny))
    start = ny // 2 - rows // 2
    return img[start:start + rows].astype(float).mean(axis=0)


class _Spectrum(NamedTuple):
    total: float          # Hann-weighted sum of the profile
    windowed: np.ndarray  # Hann-weighted profile minus its weighted mean
    spec: np.ndarray      # |rfft(windowed)|


def _spectrum(image, window_rows: int | None) -> _Spectrum:
    """One profile, Hann window and FFT: all that period, phase and contrast read."""
    if np.size(image) == 0:
        raise AnalysisError(f"empty image of shape {np.shape(image)}: no profile to analyze")
    profile = fringe_profile(image, window_rows)
    h = np.hanning(profile.size)
    total = (h * profile).sum()
    windowed = h * (profile - total / h.sum())
    return _Spectrum(float(total), windowed, np.abs(np.fft.rfft(windowed)))


def _dominant_peak(s: _Spectrum) -> tuple[int, float, float]:
    """Dominant non-DC bin, 6 dB-gated vs the median.  A peak whose implied
    modulation depth is below 1e-9 of the windowed sum is rounding dust."""
    k = 1 + int(np.argmax(s.spec[1:-1]))
    floor = float(np.median(s.spec[1:]))
    peak = float(s.spec[k])
    if peak <= 0 or floor <= 0 or peak < 1e-9 * abs(s.total) \
            or 20 * math.log10(peak / floor) < PEAK_GATE_DB:
        raise NoFringeError("no fringe found")
    return k, peak, floor


def _period(s: _Spectrum) -> PeriodEstimate:
    n, spec = s.windowed.size, s.spec
    if spec.size < 5:
        raise AnalysisError(f"profile of {n} samples is too short to analyze")
    k, peak, floor = _dominant_peak(s)
    if k < MIN_PERIODS:
        raise AnalysisError(f"dominant peak at bin {k}: fewer than {MIN_PERIODS} "
                            f"fringe periods fit in the window")
    if k > n // MIN_SAMPLES_PER_PERIOD:
        raise AnalysisError(f"dominant peak at bin {k} of {n}: fewer than "
                            f"{MIN_SAMPLES_PER_PERIOD} samples per fringe period")
    lm, l0, lp = np.log(np.maximum(spec[k - 1:k + 2], peak * 1e-15))
    curvature = lm - 2 * l0 + lp
    delta = 0.5 * (lm - lp) / curvature
    period = n / (k + delta)
    sigma_delta = math.sqrt(1.5) * (floor / peak) / abs(curvature)
    return PeriodEstimate(float(period), float(period * sigma_delta / (k + delta)))


def _project(s: _Spectrum, period_px: float) -> tuple[PhaseEstimate, float]:
    """Phase, center and fundamental amplitude from the quadratures of the
    windowed profile at 1/period_px, pixel origin at the sensor center."""
    if not (period_px > 0 and math.isfinite(period_px)):
        raise AnalysisError(f"period must be positive, got {period_px!r}")
    n = s.windowed.size
    x = np.arange(n) - (n - 1) / 2
    projection = np.sum(s.windowed * np.exp(-2j * math.pi * x / period_px))
    phase = float(np.angle(projection))
    center = fold_to_period(-phase * period_px / (2 * math.pi), period_px)
    return PhaseEstimate(phase, float(center)), abs(projection)


def _contrast(s: _Spectrum, amplitude: float) -> float:
    if s.total <= 0:
        raise NoFringeError("no fringe found")
    return float(min(max(2 * amplitude / s.total, 0.0), 1.0))


def extract_period(image, window_rows: int | None = None) -> PeriodEstimate:
    """Fringe period of an image in pixels, with sub-bin refinement.

    Parameters
    ----------
    image : 2-D array
        Digital frame; at least 3 full periods and 4 samples per period
        must fit across its width.
    window_rows : int, optional
        Rows averaged about the center (default: a quarter of the height).

    Returns
    -------
    PeriodEstimate
        Period in pixels and a heuristic 1-sigma uncertainty propagated
        from the spectral floor through the interpolation curvature.

    Raises
    ------
    NoFringeError
        If the best non-DC peak is less than 6 dB above the median
        spectrum magnitude.
    AnalysisError
        If the dominant peak implies fewer than 3 periods in the window
        or fewer than 4 samples per period.
    """
    return _period(_spectrum(image, window_rows))


def extract_fringe_phase(image, period_px: float,
                         window_rows: int | None = None) -> PhaseEstimate:
    """Fringe phase and center position at a known period.

    Projects the averaged profile onto quadratures at 1/period_px (pixel
    origin at the sensor center), so the phase is free of spectral-bin
    scalloping.  The period should be known to a couple of percent, e.g.
    from extract_period or from the run manifest.

    Returns the phase in (-pi, pi] and the bright-fringe position nearest
    the axis, center_px = -phase * period / 2 pi, reduced to
    (-period/2, period/2].
    """
    s = _spectrum(image, window_rows)
    estimate, _ = _project(s, period_px)
    # the 6 dB guard of extract_period, and the peak must sit at the supplied
    # period: quantization contouring of a fringe-free beam passes a floor test
    k, _, _ = _dominant_peak(s)
    expected_bin = s.windowed.size / period_px
    if abs(k - expected_bin) > max(0.25 * expected_bin, 1.5):
        raise NoFringeError(
            f"no fringe found at the expected period ({period_px:.3g} px)")
    return estimate


def measure_contrast(image, period_px: float,
                     window_rows: int | None = None) -> float:
    """Michelson contrast of the fringe at a known period.

    Ratio of the fitted fundamental amplitude to the local mean, both
    taken with the same center-weighted window so the beam envelope
    cancels; clipped into [0, 1].
    """
    s = _spectrum(image, window_rows)
    return _contrast(s, _project(s, period_px)[1])


def measure_frame(image, pixel_scale: float | None = None,
                  window_rows: int | None = None) -> FringeMeasurement:
    """Full single-frame measurement: period, phase, center and contrast,
    from one spectral pass and one projection at the measured period."""
    s = _spectrum(image, window_rows)
    period, sigma = _period(s)
    # within half a bin of the peak: extract_fringe_phase's peak guard cannot fire
    (phase, center_px), amplitude = _project(s, period)
    contrast = _contrast(s, amplitude)
    period_um = center_um = None
    if pixel_scale is not None:
        period_um = period * pixel_scale
        center_um = center_px * pixel_scale
    return FringeMeasurement(period, sigma, phase, center_px, contrast,
                             period_um, center_um)


def calibrate_pixel_scale(points, wavelength: float,
                          focal_length: float) -> CalibrationFit:
    """Fit the pixel scale from (separation, measured period) pairs.

    The model period_px = (lam*f/D) / s has the single parameter s, so the
    least-squares solution is closed-form in b = 1/s.  Needs at least 3
    points whose separations span at least a factor of 2.

    Returns the scale in um/pixel, its standard error, and the per-point
    relative residuals of the fit.  A wavelength or focal length that is
    not positive and finite is a ValueError.
    """
    require_positive("wavelength", wavelength)
    require_positive("focal_length", focal_length)
    pts = [(float(d), float(p)) for d, p in points]
    if len(pts) < 3:
        raise AnalysisError(f"ill-conditioned: need at least 3 points, got {len(pts)}")
    seps = np.array([d for d, _ in pts])
    periods = np.array([p for _, p in pts])
    if np.any(seps <= 0) or np.any(periods <= 0):
        raise AnalysisError("separations and periods must be positive")
    if seps.max() / seps.min() < 2.0:
        raise AnalysisError(f"ill-conditioned: separations span only "
                            f"{seps.max() / seps.min():.2f}x; need at least 2x")
    u = wavelength * focal_length / seps  # physical spacing per point
    b = float((u * periods).sum() / (u * u).sum())
    predicted = u * b
    residuals = (periods - predicted) / predicted
    var_period = float(((periods - predicted) ** 2).sum() / (len(pts) - 1))
    sigma_b = math.sqrt(var_period / float((u * u).sum()))
    return CalibrationFit(1.0 / b, sigma_b / b**2, residuals)


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


def knife_edge_waist(positions, powers) -> float:
    """1/e^2 intensity radius from a knife-edge scan, micrometers."""
    return fit_knife_edge(positions, powers).waist


def track_center_fringe(frames, spacings_um, pixel_scale: float,
                        window_rows: int | None = None) -> DriftTrace:
    """Track the center fringe across a frame sequence.

    Parameters
    ----------
    frames : sequence of 2-D arrays
    spacings_um : sequence of floats
        Per-frame analytic spacing (from the run manifest); the phase is
        measured at this period rather than re-extracted per frame.
    pixel_scale : float
        um per pixel, converting fringe positions to micrometers.

    Each frame's reduced position is continued onto the branch nearest
    the previous frame's position; a frame is flagged when even the best
    branch jumps by more than a quarter period.  max_drift_um is the
    largest |position| over the sequence.
    """
    spacings = np.asarray(spacings_um, dtype=float)
    if len(frames) != spacings.size:
        raise AnalysisError("frames and spacings differ in length")
    if spacings.size == 0:
        raise AnalysisError("nothing to track")
    positions = np.empty(spacings.size)
    flagged: list[int] = []
    prev: float | None = None
    for i, (image, d_um) in enumerate(zip(frames, spacings)):
        _, center_px = extract_fringe_phase(image, d_um / pixel_scale, window_rows)
        pos = center_px * pixel_scale
        if prev is not None:
            pos += d_um * round((prev - pos) / d_um)
            if abs(pos - prev) > d_um / 4:
                flagged.append(i)
        positions[i] = pos
        prev = pos
    return DriftTrace(positions, float(np.max(np.abs(positions))), tuple(flagged))
