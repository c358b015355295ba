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
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude!r}")


@dataclass(frozen=True)
class LatticeConfig:
    """Everything the interference formula needs.

    beam_plus is the beam offset by +D/2 in front of the lens, beam_minus
    the one at -D/2.  path_difference is the optical path length of
    beam_plus minus that of beam_minus, in micrometers; it shifts the
    fringe pattern by path_difference/wavelength fringes.
    """

    optics: OpticalParams
    beam_plus: BeamSpec
    beam_minus: BeamSpec
    path_difference: float = 0.0

    def __post_init__(self):
        if self.beam_plus.amplitude == 0 and self.beam_minus.amplitude == 0:
            raise ValueError("at least one beam amplitude must be positive")
        if not math.isfinite(self.path_difference):
            raise ValueError("path_difference must be finite")


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
    return np.exp(-u * u / w2), np.exp(-v * v / w2)


def intensity_at(cfg: LatticeConfig, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Two-beam fringe pattern at the points (x, y), in closed form.

    x and y are uniformly spaced coordinates in micrometers, at least two
    in x.  Returns the module's formula with shape (len(y), len(x)); every
    term factors into an x and a y profile, so it is a sum of three outer
    products.  For identical beams and zero path difference it reduces
    exactly to 2 (cos(2 pi D x/(lam f)) + 1) I0.  Raises ValueError if the
    x spacing resolves the fringe with fewer than 4 samples per period; an
    undersampled lattice would alias silently otherwise.
    """
    return fringes_at(cfg, x, beam_envelopes(cfg, x, y))


def beam_envelopes(cfg: LatticeConfig, x: np.ndarray, y: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Envelope sum A1^2 G1 + A2^2 G2 at (x, y), read-only, and the y and x
    factors f1y*f2y, 2*a1*a2*f1x*f2x of the cross-term amplitude: the part
    of intensity_at that reads only cfg's beams, not D or dL."""
    a1, a2 = cfg.beam_plus.amplitude, cfg.beam_minus.amplitude
    # field-modulus profiles: the intensities are their squares, and
    # sqrt(G1 G2) is the product of the two fields
    f1x, f1y = _profiles(cfg.beam_plus, x, y)
    f2x, f2y = _profiles(cfg.beam_minus, x, y)
    envelope = np.multiply.outer((a1 * f1y) ** 2, f1x * f1x)
    envelope += np.multiply.outer((a2 * f2y) ** 2, f2x * f2x)
    envelope.flags.writeable = False
    return envelope, f1y * f2y, 2 * a1 * a2 * f1x * f2x


def fringes_at(cfg: LatticeConfig, x: np.ndarray,
               envelopes: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """intensity_at(cfg, x, y), given beam_envelopes(c, x, y) of any config c
    with cfg's beams: adds the cos(2 pi D x/(lam f) + 2 pi dL/lam) cross
    term to the envelope sum in one outer product, in a fresh array."""
    d = spacing_fourier(cfg.optics)
    dx = abs(float(x[1] - x[0]))
    if d / dx < MIN_SAMPLES_PER_FRINGE:
        raise ValueError(
            f"sampling resolves only {d / dx:.2f} samples per fringe "
            f"(period {d:.4g} um, dx {dx:.4g} um); need at least "
            f"{MIN_SAMPLES_PER_FRINGE}"
        )
    envelope, cross_y, cross_x = envelopes
    phase = (2 * math.pi * cfg.optics.separation
             / (cfg.optics.wavelength * cfg.optics.focal_length) * x
             + 2 * math.pi * cfg.path_difference / cfg.optics.wavelength)
    vals = np.multiply.outer(cross_y, cross_x * np.cos(phase))
    vals += envelope
    # the closed form is >= 0 analytically; clamp rounding dust
    np.maximum(vals, 0.0, out=vals)
    return vals


def center_fringe_shift(cfg: LatticeConfig) -> float:
    """Unreduced center-fringe position -dL*f/D in micrometers.

    A path-length difference of one wavelength moves the pattern by
    exactly one fringe, so the shift in fringes is dL/lam regardless of
    the spacing.
    """
    return -cfg.path_difference * cfg.optics.focal_length / cfg.optics.separation


def center_fringe_position(cfg: LatticeConfig) -> float:
    """Bright-fringe position nearest the axis, in (-d/2, d/2] micrometers."""
    d = spacing_fourier(cfg.optics)
    return float(fold_to_period(center_fringe_shift(cfg), d))


def fringe_contrast(power_ratio: float) -> float:
    """Michelson contrast 2*sqrt(r)/(1+r) of two beams with power ratio r.

    Equals 1 only for equal powers and falls to 0 for a single beam.
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
