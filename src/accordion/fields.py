"""Two-beam interference intensity at the lens focal plane, in closed form.

Each beam arrives at the focal plane as a Gaussian envelope carrying a
linear phase tilt exp(-j*pi*D/(lam*f)*x) whose sign follows the sign of the
beam's +-D/2 offset in front of the lens.  Two such beams superpose to a
fringe pattern

    I = A1^2 G1 + A2^2 G2
        + 2 A1 A2 sqrt(G1 G2) cos(2 pi D x / (lam f) + 2 pi dL / lam)

where G1, G2 are the unit-peak envelopes and dL is the optical path-length
difference between the beams.  The period lam*f/D does not depend on the
envelopes, so the same formula serves arbitrarily large or small beams.
It is evaluated at whatever points the caller names, in practice the
camera's pixel centres; there is no intermediate simulation grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import OpticalParams, require_positive, spacing_fourier

MIN_SAMPLES_PER_FRINGE = 4


@dataclass(frozen=True)
class BeamSpec:
    """One beam at the focal plane: 1/e^2 intensity radius, field amplitude
    and transverse center offset (x, y), lengths in micrometers."""

    focal_waist: float
    amplitude: float = 1.0
    center_offset: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        require_positive("focal_waist", self.focal_waist)
        # the profiles divide by the waist squared, and the envelopes hold
        # the amplitudes squared
        w2 = self.focal_waist * self.focal_waist
        if not (0 < w2 < math.inf and 1 / w2 < math.inf):
            raise ValueError("focal_waist squared must be positive and finite, "
                             f"and its reciprocal finite, got {self.focal_waist!r}")
        if not (self.amplitude >= 0 and math.isfinite(self.amplitude * self.amplitude)):
            raise ValueError("amplitude must be >= 0 and its square finite, "
                             f"got {self.amplitude!r}")


@dataclass(frozen=True)
class LatticeConfig:
    """Everything the interference formula needs.

    beam_plus is the beam offset by +D/2 in front of the lens, beam_minus
    the one at -D/2.  path_difference is the optical path length of
    beam_minus minus that of beam_plus, in micrometers; it shifts the
    fringe pattern by path_difference/wavelength fringes.
    """

    optics: OpticalParams
    beam_plus: BeamSpec
    beam_minus: BeamSpec
    path_difference: float = 0.0

    def __post_init__(self):
        a1, a2 = self.beam_plus.amplitude, self.beam_minus.amplitude
        if a1 == 0 and a2 == 0:
            raise ValueError("at least one beam amplitude must be positive")
        # the fringes peak at no more than (a1 + a2)^2
        if not math.isfinite((a1 + a2) * (a1 + a2)):
            raise ValueError(f"amplitudes {a1!r} and {a2!r} leave the peak intensity "
                             "(a1 + a2)^2 no finite value")
        require_finite_phase(self.optics.wavelength, self.path_difference)


def fold_to_period(x, period: float):
    """Reduce positions into the interval (-period/2, period/2]."""
    half = period / 2
    folded = half - np.remainder(half - np.asarray(x, dtype=float), period)
    return float(folded) if np.ndim(x) == 0 else folded


def _profiles(beam: BeamSpec, x: np.ndarray, y: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    # x and y factors of the separable Gaussian field modulus
    u = x - beam.center_offset[0]
    v = y - beam.center_offset[1]
    w2 = beam.focal_waist**2
    # far out on a narrow beam u*u / w2 overflows to inf, and the profile
    # to its limit exp(-inf) = 0
    with np.errstate(over="ignore"):
        return np.exp(-u * u / w2), np.exp(-v * v / w2)


def intensity_at(cfg: LatticeConfig, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Two-beam fringe pattern at the points (x, y), in closed form.

    x and y are uniformly spaced coordinates in micrometers, at least two
    in x.  Returns the module's formula with shape (len(y), len(x)); every
    term factors into an x and a y profile, so it is a sum of three outer
    products.  For identical beams and zero path difference it reduces
    exactly to 2 (cos(2 pi D x/(lam f)) + 1) I0.  Checks the sampling with
    require_resolved: fewer than 4 samples per period is a ValueError, as
    an undersampled lattice would alias silently otherwise.
    """
    require_resolved(cfg.optics, x)
    envelope, cross_y, cross_x = beam_envelopes(cfg, x, y)
    return fringes_into(np.empty(envelope.shape), envelope, cross_y,
                        cross_row(cfg.optics, cfg.optics.separation,
                                  cfg.path_difference, x, cross_x))


def require_envelope(rows: int, cols: int) -> None:
    """Raise NumPy's MemoryError if the envelope beam_envelopes allocates
    for rows y and cols x points cannot be allocated, from the sizes alone,
    before any coordinate is built; an envelope that can is freed untouched,
    with no page of it written."""
    np.empty((rows, cols))


def beam_envelopes(cfg: LatticeConfig, x: np.ndarray, y: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The part of intensity_at that reads only cfg's beams, not D or dL.

    Returns the envelope sum A1^2 G1 + A2^2 G2 at the points (x, y),
    read-only, of shape (len(y), len(x)) and the only 2-D array here; the
    y factors f1y*f2y of the cross-term amplitude; and its x factor
    2*a1*a2*f1x*f2x.
    """
    a1, a2 = cfg.beam_plus.amplitude, cfg.beam_minus.amplitude
    # allocated first: an envelope beyond the host's memory costs no profile
    envelope = np.empty((len(y), len(x)))
    # field-modulus profiles: the intensities are their squares, and
    # sqrt(G1 G2) is the product of the two fields
    f1x, f1y = _profiles(cfg.beam_plus, x, y)
    f2x, f2y = _profiles(cfg.beam_minus, x, y)
    np.multiply.outer((a1 * f1y) ** 2, f1x * f1x, out=envelope)
    # the second beam is added row by row, so the sum holds no second array
    # of the envelope's size
    g2x = f2x * f2x
    for row, g2y in zip(envelope, (a2 * f2y) ** 2):
        row += g2y * g2x
    envelope.flags.writeable = False
    return envelope, f1y * f2y, 2 * a1 * a2 * f1x * f2x


def require_resolved(optics: OpticalParams, x: np.ndarray) -> None:
    """Raise ValueError if the spacing of the uniform coordinates x puts
    fewer than MIN_SAMPLES_PER_FRINGE samples on one of optics' fringes; an
    undersampled lattice would alias silently otherwise."""
    d = spacing_fourier(optics)
    dx = abs(float(x[1] - x[0]))
    if d / dx < MIN_SAMPLES_PER_FRINGE:
        raise ValueError(
            f"sampling resolves only {d / dx:.2f} samples per fringe "
            f"(period {d:.4g} um, dx {dx:.4g} um); need at least "
            f"{MIN_SAMPLES_PER_FRINGE}"
        )


def require_finite_phase(wavelength: float, path_difference: float) -> None:
    """Raise ValueError unless the fringe phase 2 pi dL/lam that the path
    difference dL adds, computed as cross_row computes it, is finite: past
    that, cos(inf) is NaN, and the frame digitizes to zeros."""
    if not math.isfinite(2 * math.pi * path_difference / wavelength):
        raise ValueError(f"path_difference must leave the fringe phase 2 pi dL/lam "
                         f"finite, got {path_difference!r} um at wavelength {wavelength!r} um")


def cross_row(optics: OpticalParams, separation: float, path_difference: float,
              x: np.ndarray, cross_x: np.ndarray) -> np.ndarray:
    """The cross term's x profile cross_x * cos(2 pi D x/(lam f) + 2 pi dL/lam),
    cross_x from beam_envelopes, at D = separation, dL = path_difference
    (beam_minus's path minus beam_plus's) and optics' lam and f: the one
    part of intensity_at that reads D and dL, a row of len(x).  The caller
    checks the sampling with require_resolved and the phase with
    require_finite_phase, once per sample."""
    phase = (2 * math.pi * separation
             / (optics.wavelength * optics.focal_length) * x
             + 2 * math.pi * path_difference / optics.wavelength)
    return cross_x * np.cos(phase)


def fringes_into(out: np.ndarray, envelope: np.ndarray, cross_y: np.ndarray,
                 row: np.ndarray) -> np.ndarray:
    """Rows of intensity_at into out, which it returns: the envelope rows
    plus the outer product of their cross-term y factors cross_y with a
    sample's cross_row, in place.  The steps are elementwise, so any split
    of the rows gives the same bytes."""
    # cross_y[i] * row[j], as np.multiply.outer forms it, in half of the
    # 124 KB of NumPy iterator buffers that takes on a 32 x 1280 block: out
    # *= row still takes one of about 62 KB for its broadcast row, and so
    # does out += envelope on a descending view (tracemalloc, NumPy 2.4)
    out[...] = cross_y[:, None]
    out *= row
    out += envelope
    # the closed form is >= 0 analytically; clamp rounding dust
    np.maximum(out, 0.0, out=out)
    return out


def center_fringe_shift(cfg: LatticeConfig) -> float:
    """Unreduced center-fringe position -dL*f/D in micrometers.

    dL is beam_minus's path minus beam_plus's; the paths are equal there.
    One wavelength of dL moves the pattern by exactly one fringe, so the
    shift in fringes is dL/lam regardless of the spacing.
    """
    return -cfg.path_difference * cfg.optics.focal_length / cfg.optics.separation


def center_fringe_position(cfg: LatticeConfig) -> float:
    """Bright-fringe position nearest the axis, in (-d/2, d/2] micrometers."""
    d = spacing_fourier(cfg.optics)
    return float(fold_to_period(center_fringe_shift(cfg), d))


def fringe_contrast(power_ratio: float) -> float:
    """Michelson contrast 2*sqrt(r)/(1+r) of two beams with power ratio r.

    Equals 1 only for equal powers and falls to 0 for a single beam.  It is
    the equal-waist case, where the contrast is the same at every point.
    With unequal waists it varies across the beams, and a frame's measured
    contrast is its mean over the analysis band: noise-free 16-bit frames
    of 36 and 40 um waists, amplitude ratio 0.8 and f = 30 mm read 0.98092
    at D = 19.25 mm, where this gives 0.97561 for r = 0.64.
    """
    if not (math.isfinite(power_ratio) and power_ratio >= 0):
        raise ValueError(f"power ratio must be >= 0 and finite, got {power_ratio!r}")
    return 2 * math.sqrt(power_ratio) / (1 + power_ratio)


def conjugate_waist(wavelength: float, focal_length: float, waist: float) -> float:
    """Waist on the far side of the lens for a collimated Gaussian beam.

    The focal-plane and input-plane waists of a Fourier-transforming lens
    are conjugate through w' = lam*f/(pi*w); applying it twice returns the
    original waist.  The lattice model takes the focal waist directly; this
    helper converts when only the incident beam size is known.
    """
    for name, v in (("wavelength", wavelength), ("focal_length", focal_length),
                    ("waist", waist)):
        require_positive(name, v)
    return wavelength * focal_length / (math.pi * waist)
