"""On-disk formats for simulation runs.

A run directory holds:
    config.txt      resolved run parameters, one key=value per line
    manifest.csv    frame,time_s,mirror_um,separation_um,analytic_spacing_um,
                    path_difference_um
    frame_NNNN.pgm  binary P5 graymaps (maxval 255, or big-endian 65535)
    composite.pgm   space-time composite, when the run has >= 2 frames

Everything is written deterministically so a rerun with the same seed is
byte-identical.  The manifest is written last: a directory without one is
not a complete run.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path

import numpy as np

from .instrument import FrameRecord

# width, height and maxval, separated by whitespace and '#' comment lines,
# then the single whitespace byte that precedes the samples
_SEP = rb"(?:\s|#[^\n]*\n)+"
_PGM_HEADER = re.compile(rb"P5%s(\d+)%s(\d+)%s(\d+)\s" % (_SEP, _SEP, _SEP))

MANIFEST_FIELDS = ("frame", "time_s", "mirror_um", "separation_um",
                   "analytic_spacing_um", "path_difference_um")


def write_pgm(path, pixels: np.ndarray) -> None:
    """Write a 2-D uint8 or uint16 array as a binary P5 graymap."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {pixels.shape}")
    if pixels.dtype == np.uint8:
        maxval, raw = 255, pixels.tobytes()
    elif pixels.dtype == np.uint16:
        maxval, raw = 65535, pixels.astype(">u2").tobytes()
    else:
        raise ValueError(f"unsupported dtype {pixels.dtype}; use uint8 or uint16")
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(raw)


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 graymap into uint8 (maxval <= 255) or uint16.

    Raises ValueError naming the path when the header lacks width, height
    or maxval, maxval is outside 1..65535, the payload is short, or a
    sample exceeds maxval.
    """
    data = Path(path).read_bytes()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError(f"{path}: not a binary P5 graymap with three integers "
                         f"(width, height, maxval) in its header")
    w, h, maxval = map(int, header.groups())
    pos = header.end()
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: maxval {maxval} outside 1..65535")
    dtype = np.dtype(np.uint8) if maxval <= 255 else np.dtype(">u2")
    need = w * h * dtype.itemsize
    if len(data) - pos < need:
        raise ValueError(f"{path}: payload holds {len(data) - pos} bytes, "
                         f"{w}x{h} samples need {need}")
    img = np.frombuffer(data, dtype=dtype, count=w * h, offset=pos)
    if maxval not in (255, 65535) and img.size and img.max() > maxval:
        raise ValueError(f"{path}: sample {img.max()} exceeds maxval {maxval}")
    # big-endian 16-bit samples become native uint16; 8-bit ones stay a view
    return img.astype(dtype.newbyteorder("="), copy=False).reshape(h, w)


def write_manifest(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_FIELDS)
        for r in records:
            writer.writerow([r.frame, repr(r.time_s), repr(r.mirror_um),
                             repr(r.separation_um), repr(r.analytic_spacing_um),
                             repr(r.path_difference_um)])


def read_manifest(path) -> list[FrameRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(MANIFEST_FIELDS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: manifest is missing columns {sorted(missing)}")
        for row in reader:
            records.append(FrameRecord(
                frame=row["frame"],
                time_s=float(row["time_s"]),
                mirror_um=float(row["mirror_um"]),
                separation_um=float(row["separation_um"]),
                analytic_spacing_um=float(row["analytic_spacing_um"]),
                path_difference_um=float(row["path_difference_um"]),
            ))
    return records


def write_config(path, values: dict) -> None:
    """Write key=value lines; values serialized with repr-stable formatting."""
    with open(path, "w") as fh:
        for key, value in values.items():
            fh.write(f"{key}={value}\n")


def read_config(path) -> dict[str, str]:
    values: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: malformed config line {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def write_run(out_dir, frames, records, config: dict | None = None,
              composite: np.ndarray | None = None) -> Path:
    """Write frames, optional composite and config, then the manifest, into
    out_dir.  An existing manifest is removed before the first frame, so a
    rerun that fails part-way leaves no manifest beside a mix of old and
    new frames."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.csv").unlink(missing_ok=True)
    for image, rec in zip(frames, records):
        write_pgm(out / rec.frame, image)
    if composite is not None:
        write_pgm(out / "composite.pgm", composite)
    if config is not None:
        write_config(out / "config.txt", config)
    write_manifest(out / "manifest.csv", records)
    return out
