"""Independent models and estimators used to cross-check the package.

Deliberately separate from the package:
- the complex-field oracle builds each beam's field on a coordinate grid
  and applies the linear phase tilt of its +-D/2 offset and the
  path-difference phase; the squared modulus of the sum of the two fields
  referees the closed form (`intensity_at`) without touching it;
- the Fraunhofer oracle goes one step further back, to the lens plane: it
  sums two Gaussians at +-D/2, beam_minus's extra path dL in its phase,
  through the lens's Fourier kernel at the exact focal-plane points, so
  the tilts and the sign of dL come from the optics, not from the closed
  form's conventions;
- the period oracle works in the time domain (tapered autocorrelation,
  direct O(n^2) correlation), never touching the spectral path it
  verifies;
- the knife-edge oracle integrates an intensity image over a half plane;
- the digitizer oracle applies gain, read noise and quantization to the
  whole frame at once, its noise drawn in one call, which the renderer
  does one block of rows at a time.

Coordinates are 1-D vectors in micrometers; images have shape
(len(y), len(x)), x varying fastest.
"""

import math

import numpy as np

from accordion import conjugate_waist, intensity_at


def beam_field(beam, x, y):
    """Complex field amplitude * exp(-r^2 / w^2) of one BeamSpec, zero phase."""
    u = np.asarray(x, dtype=float) - beam.center_offset[0]
    v = np.asarray(y, dtype=float) - beam.center_offset[1]
    r2 = np.add.outer(v * v, u * u)
    return (beam.amplitude * np.exp(-r2 / beam.focal_waist**2)).astype(complex)


def beam_intensity(beam, x, y):
    """Single-beam intensity amplitude^2 * exp(-2 r^2 / w^2)."""
    return np.abs(beam_field(beam, x, y)) ** 2


def shifted_field(values, shift_sign, optics, x):
    """Apply the linear phase tilt of a beam offset by +-D/2 before the lens.

    shift_sign +1 multiplies by exp(-j*pi*D/(lam*f)*x), -1 by its
    conjugate; the modulus of every sample is unchanged.
    """
    if shift_sign not in (+1, -1):
        raise ValueError(f"shift_sign must be +1 or -1, got {shift_sign!r}")
    tilt = np.exp(-1j * shift_sign * math.pi * optics.separation
                  / (optics.wavelength * optics.focal_length) * np.asarray(x))
    return values * tilt[None, :]


def tilted_fields(cfg, x, y):
    """Both tilted beam fields of a LatticeConfig, (u_plus, u_minus), with
    the path-difference phase on beam_plus."""
    u_plus = shifted_field(beam_field(cfg.beam_plus, x, y), +1, cfg.optics, x)
    u_minus = shifted_field(beam_field(cfg.beam_minus, x, y), -1, cfg.optics, x)
    phase = np.exp(-2j * math.pi * cfg.path_difference / cfg.optics.wavelength)
    return u_plus * phase, u_minus


def fraunhofer_row(cfg, x):
    """Intensity at the focal-plane points (x, 0) of cfg's beams, by a
    direct 1-D Fraunhofer sum over the lens plane.

    Each beam enters the lens as a Gaussian centred at c = +-D/2 (beam_plus
    at +D/2), of the waist conjugate_waist gives for its focal waist, scaled
    so that its focal-plane peak is its amplitude; beam_minus, longer by
    dL, carries exp(+2 pi i dL/lam).  A beam's x offset x0 enters as the
    lens-plane tilt exp(2 pi i x0 (xi - c)/(lam f)), about the beam's own
    lens-plane centre c: that pivot leaves the fringe phase where the
    closed form puts it.  The focal field at x is the sum over a uniform
    lens-plane grid xi of the lens field times exp(-2 pi i x xi/(lam f)),
    at each x itself: no FFT and no x grid.  A y offset, which this 1-D
    sum cannot model, is refused.
    """
    lam, f, sep = cfg.optics.wavelength, cfg.optics.focal_length, cfg.optics.separation
    beams = ((cfg.beam_plus, sep / 2, 1.0),
             (cfg.beam_minus, -sep / 2, np.exp(2j * math.pi * cfg.path_difference / lam)))
    if any(beam.center_offset[1] != 0.0 for beam, _, _ in beams):
        raise ValueError("the Fraunhofer oracle models beams centred in y only")
    x = np.asarray(x, dtype=float)
    waists = [conjugate_waist(lam, f, beam.focal_waist) for beam, _, _ in beams]
    # the step resolves the narrowest lens-plane beam, and puts the sum's
    # aliases, lam*f/step apart in x, 12 focal waists beyond every x and
    # every beam's focal-plane centre
    reach = np.abs(x).max() + max(abs(beam.center_offset[0]) + 12 * beam.focal_waist
                                  for beam, _, _ in beams)
    step = min(min(waists) / 8, lam * f / reach)
    n = math.ceil((sep / 2 + 12 * max(waists)) / step)
    xi = np.arange(-n, n + 1) * step
    lens = sum(beam.amplitude * phase / (math.sqrt(math.pi) * w)
               * np.exp(-((xi - center) / w) ** 2
                        + 2j * math.pi * beam.center_offset[0] * (xi - center) / (lam * f))
               for (beam, center, phase), w in zip(beams, waists))
    kernel = np.exp(-2j * math.pi / (lam * f) * np.multiply.outer(x, xi))
    return np.abs(kernel @ lens * step) ** 2


def autocorr_period(image):
    """Fringe period in pixels from the autocorrelation peak.

    The profile is the mean of the central max(1, ny // 4) of the image's
    ny rows, the band the analysis profiles.  It is Hann-tapered so the
    correlation of a few-cycle fringe is not polluted by partial-period edge
    leakage, and the correlation is divided by the taper's own pair weight
    so the peak is not dragged toward shorter lags by the taper decay.  The
    discrete peak is refined with a three-point parabola on the correlation
    values.
    """
    img = np.atleast_2d(np.asarray(image, dtype=float))
    ny = img.shape[0]
    rows = max(1, ny // 4)
    start = ny // 2 - rows // 2
    s = img[start:start + rows].mean(axis=0)
    n = s.size
    h = np.hanning(n)
    sw = h * (s - s.mean())
    corr = np.correlate(sw, sw, mode="full")[n - 1:]
    weight = np.correlate(h, h, mode="full")[n - 1:]
    good = weight > 1e-9 * weight[0]
    norm = np.where(good, corr / np.maximum(weight, 1e-300), 0.0)
    if norm[0] <= 0:
        raise ValueError("no signal")
    norm = norm / norm[0]
    for k in range(3, int(0.75 * n)):
        if norm[k] >= norm[k - 1] and norm[k] > norm[k + 1] and norm[k] > 0.3:
            a, b, c = norm[k - 1], norm[k], norm[k + 1]
            curv = a - 2 * b + c
            delta = 0.5 * (a - c) / curv if curv != 0 else 0.0
            return k + delta
    raise ValueError("no autocorrelation peak")


def half_plane_knife_profile(values, x, y, positions):
    """Numerically integrated knife-edge transmission of an intensity image
    sampled at the coordinates x, y.

    The knife blocks everything at x above the knife position, so the
    transmitted power is the trapezoid integral of the intensity over the
    half plane x <= position.
    """
    column = np.trapezoid(values, y, axis=0)
    dx = x[1] - x[0]
    cumulative = np.concatenate(
        [[0.0], np.cumsum((column[1:] + column[:-1]) / 2 * dx)])
    return np.interp(positions, x, cumulative)


def digitized_frame(cfg, cam, frame_index=0):
    """clip(rint(gain * I + read_noise * z)) in the camera's dtype, with I
    from intensity_at at the camera's pixel centres and z one standard
    normal draw of the whole frame from the stream keyed by
    (cam.seed, frame_index)."""
    counts = cam.exposure_gain * intensity_at(cfg, cam.pixel_x(), cam.pixel_y())
    if cam.read_noise > 0:
        z = np.random.default_rng([cam.seed, frame_index]).standard_normal(counts.shape)
        counts = counts + cam.read_noise * z
    return np.clip(np.rint(counts), 0, cam.full_scale).astype(cam.dtype)
