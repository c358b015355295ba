"""Accordion optical lattices: simulation, camera rendering and fringe metrology.

Two parallel laser beams brought together by a lens interfere at its focal
plane; translating a retroreflecting mirror changes the beam separation and
sweeps the fringe period in real time without moving the center fringe.
This package renders the lattice and the camera frames for such a
setup and measures period, phase, contrast, drift and calibration from the
digital frames.

`import accordion` loads no submodule and no numpy: each public name below
imports the submodule that defines it on first use (PEP 562) and is kept
here from then on.  A submodule itself is imported as usual, e.g.
`from accordion import analysis`.
"""

import importlib

__version__ = "0.10.0"

# each public name and the submodule that defines it
_SUBMODULE = {
    **dict.fromkeys(("OpticalParams", "beam_angle", "beam_angle_thin_lens",
                     "bs_translation_path_difference", "separation_for_spacing",
                     "spacing_fourier", "spacing_thin_lens"), "geometry"),
    **dict.fromkeys(("BeamSpec", "LatticeConfig", "center_fringe_position",
                     "center_fringe_shift", "conjugate_waist", "fold_to_period",
                     "fringe_contrast", "intensity_at"), "fields"),
    **dict.fromkeys(("CameraModel", "FrameRecord", "MirrorDrive", "Trajectory",
                     "build_trajectory", "render_frame", "render_sequence",
                     "static_sweep"), "instrument"),
    **dict.fromkeys(("AnalysisError", "CalibrationFit", "FrameResult",
                     "FringeMeasurement", "KnifeEdgeFit", "NoFringeError",
                     "calibrate_pixel_scale", "fit_knife_edge", "fringe_profile",
                     "measure_frame", "measure_run"), "analysis"),
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
