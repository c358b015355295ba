"""Complex fields and interference intensity at the lens focal plane.

Each beam arrives at the focal plane as a Gaussian envelope carrying a
linear phase tilt exp(-j*pi*D/(lam*f)*x) whose sign follows the sign of the
beam's +-D/2 offset in front of the lens.  Two such beams superpose to a
fringe pattern

    I = A1^2 G1 + A2^2 G2
        + 2 A1 A2 sqrt(G1 G2) cos(2 pi D x / (lam f) + 2 pi dL / lam)

where G1, G2 are the unit-peak envelopes and dL is the optical path-length
difference between the beams.  The period lam*f/D does not depend on the
envelopes, so the same formula serves arbitrarily large or small beams.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import OpticalParams, spacing_fourier

MIN_SAMPLES_PER_FRINGE = 4


@dataclass(frozen=True)
class BeamSpec:
    """One beam at the focal plane: 1/e^2 intensity radius, field amplitude
    and transverse center offset (x, y), lengths in micrometers."""

    focal_waist: float
    amplitude: float = 1.0
    center_offset: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not (math.isfinite(self.focal_waist) and self.focal_waist > 0):
            raise ValueError(f"focal_waist must be positive, got {self.focal_waist!r}")
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


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling grid centered on the optical axis.

    Nodes run from -width/2 to +width/2 inclusive (nx of them), likewise
    in y; values laid out row-major with x varying fastest.
    """

    width: float
    height: float
    nx: int = 1024
    ny: int = 256

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ValueError("grid extent must be positive")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 samples per axis")

    @property
    def dx(self) -> float:
        return self.width / (self.nx - 1)

    @property
    def dy(self) -> float:
        return self.height / (self.ny - 1)

    def x_coords(self) -> np.ndarray:
        return np.linspace(-self.width / 2, self.width / 2, self.nx)

    def y_coords(self) -> np.ndarray:
        return np.linspace(-self.height / 2, self.height / 2, self.ny)


@dataclass(frozen=True)
class FieldGrid:
    """Complex field samples on a GridSpec, shape (ny, nx)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                f"field shape {self.values.shape} does not match grid "
                f"({self.grid.ny}, {self.grid.nx})"
            )


@dataclass(frozen=True)
class IntensityFrame:
    """Nonnegative real intensity samples on a GridSpec, shape (ny, nx)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                f"intensity shape {self.values.shape} does not match grid "
                f"({self.grid.ny}, {self.grid.nx})"
            )
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("intensity values must be finite and >= 0")


def default_grid(cfg: LatticeConfig, nx: int = 1024, ny: int = 256) -> GridSpec:
    """Grid spanning 4x the larger waist in x and 2x in y."""
    w = max(cfg.beam_plus.focal_waist, cfg.beam_minus.focal_waist)
    return GridSpec(width=4 * w, height=2 * w, nx=nx, ny=ny)


def fold_to_period(x, period: float):
    """Reduce positions into the interval (-period/2, period/2]."""
    half = period / 2
    folded = half - np.remainder(half - np.asarray(x, dtype=float), period)
    return float(folded) if np.ndim(x) == 0 else folded


def _warn_if_uncovered(beam: BeamSpec, grid: GridSpec):
    x0, y0 = beam.center_offset
    if grid.width / 2 - abs(x0) < beam.focal_waist or \
       grid.height / 2 - abs(y0) < beam.focal_waist:
        warnings.warn(
            f"grid extent ({grid.width} x {grid.height} um) does not cover "
            f"one full waist ({beam.focal_waist} um) around the beam center",
            UserWarning, stacklevel=3)


def _profiles(beam: BeamSpec, x: np.ndarray, y: np.ndarray,
              power: float) -> tuple[np.ndarray, np.ndarray]:
    # x and y factors of the separable Gaussian; power=2 gives intensity,
    # power=1 the field modulus
    u = x - beam.center_offset[0]
    v = y - beam.center_offset[1]
    w2 = beam.focal_waist**2
    return np.exp(-power * u * u / w2), np.exp(-power * v * v / w2)


def focal_envelope(beam: BeamSpec, grid: GridSpec) -> IntensityFrame:
    """Single-beam intensity amplitude^2 * exp(-2 r^2 / w^2) on the grid.

    Warns when the grid does not reach one waist from the beam center,
    since downstream fits assume the envelope is substantially sampled.
    """
    _warn_if_uncovered(beam, grid)
    gx, gy = _profiles(beam, grid.x_coords(), grid.y_coords(), 2.0)
    return IntensityFrame(grid, beam.amplitude**2 * np.outer(gy, gx))


def focal_field(beam: BeamSpec, grid: GridSpec) -> FieldGrid:
    """Single-beam complex field amplitude * exp(-r^2 / w^2), zero phase."""
    _warn_if_uncovered(beam, grid)
    gx, gy = _profiles(beam, grid.x_coords(), grid.y_coords(), 1.0)
    return FieldGrid(grid, (beam.amplitude * np.outer(gy, gx)).astype(complex))


def shifted_field(envelope_field: FieldGrid, shift_sign: int,
                  optics: OpticalParams) -> FieldGrid:
    """Apply the linear phase tilt of a beam offset by +-D/2 before the lens.

    shift_sign +1 multiplies by exp(-j*pi*D/(lam*f)*x), -1 by its
    conjugate; the modulus of every sample is unchanged.
    """
    if shift_sign not in (+1, -1):
        raise ValueError(f"shift_sign must be +1 or -1, got {shift_sign!r}")
    x = envelope_field.grid.x_coords()
    tilt = np.exp(-1j * shift_sign * math.pi * optics.separation
                  / (optics.wavelength * optics.focal_length) * x)
    return FieldGrid(envelope_field.grid, envelope_field.values * tilt[None, :])


def lattice_fields(cfg: LatticeConfig, grid: GridSpec | None = None
                   ) -> tuple[FieldGrid, FieldGrid]:
    """Both tilted beam fields, with the path-difference phase on beam_plus."""
    grid = grid or default_grid(cfg)
    u_plus = shifted_field(focal_field(cfg.beam_plus, grid), +1, cfg.optics)
    u_minus = shifted_field(focal_field(cfg.beam_minus, grid), -1, cfg.optics)
    phase = np.exp(-2j * math.pi * cfg.path_difference / cfg.optics.wavelength)
    return FieldGrid(grid, u_plus.values * phase), u_minus


def fields_intensity(*fields: FieldGrid) -> IntensityFrame:
    """|sum of fields|^2 as an IntensityFrame; all fields share one grid."""
    if not fields:
        raise ValueError("need at least one field")
    grid = fields[0].grid
    if any(f.grid != grid for f in fields[1:]):
        raise ValueError("fields must share the same grid")
    total = np.zeros_like(fields[0].values)
    for f in fields:
        total = total + f.values
    return IntensityFrame(grid, np.abs(total) ** 2)


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
    f1x, f1y = _profiles(cfg.beam_plus, x, y, 1.0)
    f2x, f2y = _profiles(cfg.beam_minus, x, y, 1.0)
    envelope = np.multiply.outer((a1 * f1y) ** 2, f1x * f1x)
    envelope += np.multiply.outer((a2 * f2y) ** 2, f2x * f2x)
    envelope.flags.writeable = False
    return envelope, f1y * f2y, 2 * a1 * a2 * f1x * f2x


def fringes_at(cfg: LatticeConfig, x: np.ndarray,
               envelopes: tuple[np.ndarray, np.ndarray, np.ndarray],
               out: np.ndarray | None = None) -> np.ndarray:
    """intensity_at(cfg, x, y), given beam_envelopes(c, x, y) of any config c
    with cfg's beams: adds the cos(2 pi D x/(lam f) + 2 pi dL/lam) cross
    term to the envelope sum in one outer product.  The result goes into
    `out`, a float64 array of the envelope's shape, if given (as with a
    numpy ufunc), else into a fresh array; either way it is returned."""
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
    vals = np.multiply.outer(cross_y, cross_x * np.cos(phase), out=out)
    vals += envelope
    # the closed form is >= 0 analytically; clamp rounding dust
    np.maximum(vals, 0.0, out=vals)
    return vals


def interference_intensity(cfg: LatticeConfig,
                           grid: GridSpec | None = None) -> IntensityFrame:
    """Two-beam fringe pattern on the grid (default_grid(cfg) if omitted);
    see intensity_at for the formula and the sampling check."""
    grid = grid or default_grid(cfg)
    return IntensityFrame(grid, intensity_at(cfg, grid.x_coords(), grid.y_coords()))


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
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v!r}")
    return wavelength * focal_length / (math.pi * waist)
