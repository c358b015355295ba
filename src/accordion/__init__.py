"""Accordion optical lattices: simulation, camera rendering and fringe metrology.

Two parallel laser beams brought together by a lens interfere at its focal
plane; translating a retroreflecting mirror changes the beam separation and
sweeps the fringe period in real time without moving the center fringe.
This package renders the lattice and the camera frames for such a
setup and measures period, phase, contrast, drift and calibration from the
digital frames.
"""

from .geometry import (
    OpticalParams,
    beam_angle,
    beam_angle_thin_lens,
    separation_for_spacing,
    spacing_fourier,
    spacing_thin_lens,
)
from .fields import (
    BeamSpec,
    LatticeConfig,
    center_fringe_position,
    center_fringe_shift,
    conjugate_waist,
    fold_to_period,
    fringe_contrast,
    intensity_at,
)
from .instrument import (
    CameraModel,
    FrameRecord,
    MirrorDrive,
    Trajectory,
    bs_translation_path_difference,
    build_trajectory,
    render_frame,
    render_sequence,
    static_sweep,
)
from .analysis import (
    AnalysisError,
    CalibrationFit,
    FrameResult,
    FringeMeasurement,
    KnifeEdgeFit,
    NoFringeError,
    calibrate_pixel_scale,
    fit_knife_edge,
    fringe_profile,
    measure_frame,
    measure_run,
)

__version__ = "0.7.0"
