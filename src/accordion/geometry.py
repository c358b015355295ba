"""Closed-form geometry of a two-beam lattice at the focal plane of a lens.

Two parallel beams separated by a distance D enter a lens of focal length f
and cross at the focal plane, where they interfere.  The fringe period d,
the crossing angle theta and the inverse problem (which D gives a wanted d)
are all scalar relations:

    d = lam * f / D                      (Fourier-plane result, exact)
    d ~ lam * sqrt(D^2/4 + f^2) / D      (thin-lens small-angle estimate)
    theta = 2 * asin(D / (2 f))

All lengths are micrometers and all angles radians throughout the package;
the single unit avoids nm/um/mm conversion mistakes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def require_positive(name: str, value: float) -> float:
    """value, if it is positive and finite; otherwise a ValueError that
    names it."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class OpticalParams:
    """Wavelength, lens focal length and beam separation, all in micrometers.

    separation must stay below 2*focal_length; beyond that the beams
    geometrically miss the lens and the crossing angle is undefined.  The
    fringe period lam*f/D must be positive and finite (spacing_fourier).
    Out-of-range values raise instead of being clamped so that a bad
    configuration cannot pass silently.
    """

    wavelength: float
    focal_length: float
    separation: float

    def __post_init__(self):
        for name in ("wavelength", "focal_length", "separation"):
            require_positive(name, getattr(self, name))
        if self.separation >= 2 * self.focal_length:
            raise ValueError(
                f"separation {self.separation} um must be below twice the focal "
                f"length ({2 * self.focal_length} um); the beams miss the lens"
            )
        spacing_fourier(self)


def spacing_fourier(p: OpticalParams) -> float:
    """Fringe period lam*f/D in micrometers (exact Fourier-plane result), if
    it is positive and finite; otherwise a ValueError naming the three
    values.  lam*f is taken first, so it can overflow or underflow where the
    period alone would not."""
    spacing = p.wavelength * p.focal_length / p.separation
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"the fringe period lam*f/D must be positive and finite, got "
                         f"{p.wavelength!r} * {p.focal_length!r} / {p.separation!r} "
                         f"= {spacing!r} um")
    return spacing


def spacing_thin_lens(p: OpticalParams) -> float:
    """Thin-lens estimate lam*sqrt(D^2/4 + f^2)/D of the fringe period.

    Always exceeds spacing_fourier; the ratio between the two is exactly
    sqrt(1 + (D/2f)^2), which grows noticeably once the crossing angle
    gets large.  Computed through hypot, so that no square of f or D
    overflows.
    """
    d = p.separation
    return p.wavelength * math.hypot(d / 2, p.focal_length) / d


def beam_angle(p: OpticalParams) -> float:
    """Crossing angle 2*asin(D/2f) between the beams at focus, radians."""
    return 2.0 * math.asin(p.separation / (2.0 * p.focal_length))


def beam_angle_thin_lens(p: OpticalParams) -> float:
    """Small-angle (paraxial) estimate 2*atan(D/2f) of the crossing angle."""
    return 2.0 * math.atan(p.separation / (2.0 * p.focal_length))


def separation_for_spacing(wavelength: float, focal_length: float,
                           spacing: float) -> float:
    """Beam separation D = lam*f/d that produces a wanted fringe period.

    Inverse of spacing_fourier; round-trips with it to machine precision.
    A spacing not above lam/2 needs D >= 2f, which OpticalParams rejects: a
    ValueError naming that smallest reachable spacing.
    """
    for name, v in (("wavelength", wavelength), ("focal_length", focal_length),
                    ("spacing", spacing)):
        require_positive(name, v)
    try:
        return OpticalParams(wavelength, focal_length,
                             wavelength * focal_length / spacing).separation
    except ValueError as err:
        raise ValueError(f"spacing {spacing} um must exceed the smallest reachable "
                         f"spacing, lam/2 = {wavelength / 2} um; {err}") from None


def bs_translation_path_difference(perpendicular_deviation: float) -> float:
    """Path-length difference caused by a perpendicular deviation of the
    translated beam-splitter pair: exactly twice the deviation."""
    return 2.0 * perpendicular_deviation
