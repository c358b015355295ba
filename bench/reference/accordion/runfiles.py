"""On-disk formats for simulation runs.

A run directory holds:
    config.txt      resolved run parameters, one key=value per line
    manifest.csv    frame,time_s,mirror_um,separation_um,analytic_spacing_um,
                    path_difference_um
    frame_NNNN.pgm  binary P5 graymaps (maxval 255, or big-endian 65535)
    composite.pgm   space-time composite, when the run has >= 2 frames

Everything is written deterministically so a rerun with the same seed is
byte-identical.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .instrument import FrameRecord

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
    """Read a binary P5 graymap into uint8 (maxval <= 255) or uint16."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary P5 graymap")
    # header tokens may be separated by whitespace and '#' comment lines
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        tokens.append(int(data[start:pos]))
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = tokens
    if maxval <= 255:
        img = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
    else:
        img = np.frombuffer(data, dtype=">u2", count=w * h, offset=pos).astype(np.uint16)
    return img.reshape(h, w)


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
    """Write frames, manifest, optional composite and config into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for image, rec in zip(frames, records):
        write_pgm(out / rec.frame, image)
    write_manifest(out / "manifest.csv", records)
    if composite is not None:
        write_pgm(out / "composite.pgm", composite)
    if config is not None:
        write_config(out / "config.txt", config)
    return out
