"""On-disk formats for simulation runs: the one module that writes a run
directory, with one writer per kind of file.

A run directory holds:
    config.txt        resolved run parameters, one key=value per line
    manifest.csv      MANIFEST_FIELDS, FrameRecord's fields: frame,time_s,
                      mirror_um,separation_um,analytic_spacing_um,
                      path_difference_um
    frame_NNNN.pgm    binary P5 graymaps (maxval 255, or big-endian 65535)
    composite.pgm     each frame's central row, when the run has >= 2 frames
analyze adds its reports:
    measurements.csv  MEASUREMENT_FIELDS, one row per measured frame: frame,
                      time_s,separation_um,period_px,period_um,center_um,
                      contrast
    calibration.csv   CALIBRATION_FIELDS, with --calibrate, one row per fitted
                      frame: pixel_scale_um_px,pixel_scale_uncertainty,
                      separation_um,period_px,relative_residual

The three tables are written by one csv.writer, each number as its repr and
a cell quoted where it holds a comma or a quote, so any frame name keeps
its row; the manifest ends its lines with \r\n, the reports with \n.
Everything is written deterministically so a rerun with the same seed is
byte-identical.  write_run writes each frame as it arrives from its
iterable, so a sweep streams from the renderer to disk and holds no more
of the run than the renderer does.  Every file is written by one
function, as bytes: one create, one write and one close.  It is created
new, by an os.open with O_CREAT | O_EXCL: an existing file of the same name
is unlinked, never truncated and rewritten in place, so a hard link to it
keeps the old bytes, and a file system that flushes a truncated and
rewritten file when it is closed (ext4's auto_da_alloc) has nothing to
flush.  Its bytes then go out in one os.writev: a graymap's header and
samples, or a text file whole, formatted first, so a table appears only
once it is complete.  Text is UTF-8, written and read, whatever the
locale.  os.writev makes the module Unix-only.  read_pgm returns the
samples as a view of the bytes read, in the same byte order, so no step
from the digitizer to the analysis byte-swaps a 16-bit sample.  A rerun
into a run directory first removes the earlier run's files (its manifest
first), so no stale frame, composite or report outlives it, and new
measurements remove an earlier calibration.csv.  The manifest is written
last: a directory without one is not a complete run.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import os
import re
from collections.abc import Sized
from operator import attrgetter
from pathlib import Path

import numpy as np

from .instrument import FrameRecord

# width, height and maxval, separated by whitespace and '#' comment lines,
# then the single whitespace byte that precedes the samples
_SEP = rb"(?:\s|#[^\n]*\n)+"
_PGM_HEADER = re.compile(rb"P5%s(\d+)%s(\d+)%s(\d+)\s" % (_SEP, _SEP, _SEP))

# a new file, write-only, not inherited by child processes
_CREATE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC

MANIFEST_FIELDS = tuple(field.name for field in dataclasses.fields(FrameRecord))
MEASUREMENT_FIELDS = ("frame", "time_s", "separation_um", "period_px", "period_um",
                      "center_um", "contrast")
CALIBRATION_FIELDS = ("pixel_scale_um_px", "pixel_scale_uncertainty", "separation_um",
                      "period_px", "relative_residual")

# the files of a run directory that a new run replaces; manifest.csv is
# removed before all of them
_RUN_FILE = re.compile(r"frame_\d{4,}\.pgm|composite\.pgm|config\.txt"
                       r"|measurements\.csv|calibration\.csv")


def _write_file(path, *parts) -> None:
    """Create path new and write the parts to it, a str part as UTF-8, in
    one os.writev, resuming short writes.  An existing file is unlinked
    first, never truncated; the descriptor is closed whatever happens."""
    views = [memoryview(part.encode("utf-8") if isinstance(part, str) else part).cast("B")
             for part in parts]
    try:
        fd = os.open(path, _CREATE_FLAGS, 0o666)
    except FileExistsError:
        os.unlink(path)
        fd = os.open(path, _CREATE_FLAGS, 0o666)
    try:
        while views:
            done = os.writev(fd, views)
            while views and done >= len(views[0]):
                done -= len(views.pop(0))
            if views:
                views[0] = views[0][done:]
    finally:
        os.close(fd)


def write_pgm(path, pixels: np.ndarray) -> None:
    """Write a 2-D uint8 or uint16 array, of either byte order, as a binary
    P5 graymap.

    The samples are row-major, big-endian for 16 bits.  The file is created
    new, an existing one unlinked first, and its header and samples are
    written to its raw descriptor in one os.writev (Unix only); the
    descriptor is closed whatever happens.  A C-contiguous array already in
    that byte order, as every uint8 one is and every 16-bit frame the camera
    renders, is written from its own buffer; any other is first copied into
    that order, whole."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2 or pixels.size == 0:
        raise ValueError(f"expected a non-empty 2-D image, got shape {pixels.shape}")
    if pixels.dtype == np.uint8:
        maxval = 255
    elif pixels.dtype.kind == "u" and pixels.dtype.itemsize == 2:
        maxval = 65535
    else:
        raise ValueError(f"unsupported dtype {pixels.dtype}; use uint8 or uint16")
    h, w = pixels.shape
    samples = np.ascontiguousarray(pixels, dtype=pixels.dtype.newbyteorder(">"))
    _write_file(path, f"P5\n{w} {h}\n{maxval}\n", samples)


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 graymap into uint8 (maxval <= 255) or big-endian
    uint16.

    The samples are a read-only view of the bytes read, in the file's byte
    order, with no copy: 16-bit ones are the big-endian uint16 that the
    camera renders and write_pgm writes in one call.

    Raises ValueError naming the path when the header lacks width, height
    or maxval, the width or height is 0, maxval is outside 1..65535, the
    payload is short, or a sample exceeds maxval.
    """
    data = Path(path).read_bytes()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError(f"{path}: not a binary P5 graymap with three integers "
                         f"(width, height, maxval) in its header")
    w, h, maxval = map(int, header.groups())
    pos = header.end()
    if w == 0 or h == 0:
        raise ValueError(f"{path}: empty {w}x{h} image")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: maxval {maxval} outside 1..65535")
    dtype = np.dtype(np.uint8) if maxval <= 255 else np.dtype(">u2")
    need = w * h * dtype.itemsize
    if len(data) - pos < need:
        raise ValueError(f"{path}: payload holds {len(data) - pos} bytes, "
                         f"{w}x{h} samples need {need}")
    img = np.frombuffer(data, dtype=dtype, count=w * h, offset=pos)
    if maxval not in (255, 65535) and img.max() > maxval:
        raise ValueError(f"{path}: sample {img.max()} exceeds maxval {maxval}")
    return img.reshape(h, w)


def _write_table(path, columns, rows, lineterminator: str) -> None:
    """Write a CSV table: its columns, then each row, a str cell as it is and
    any other as its repr, quoted where it needs to be.  The file is created
    once the whole table is formatted, so a failing row source leaves none."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator=lineterminator)
    writer.writerow(columns)
    writer.writerows([c if isinstance(c, str) else repr(c) for c in row] for row in rows)
    _write_file(path, text.getvalue())


def write_manifest(path, records) -> None:
    _write_table(path, MANIFEST_FIELDS, map(attrgetter(*MANIFEST_FIELDS), records), "\r\n")


def write_measurements(out_dir, rows) -> None:
    """Write measurements.csv into out_dir, made if missing: one row of
    MEASUREMENT_FIELDS per measured frame.  An earlier calibration.csv there
    describes earlier measurements and is removed first, so only a
    write_calibration after this one leaves a calibration beside it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "calibration.csv").unlink(missing_ok=True)
    _write_table(out / "measurements.csv", MEASUREMENT_FIELDS, rows, "\n")


def write_calibration(out_dir, rows) -> None:
    """Write calibration.csv into out_dir: one row of CALIBRATION_FIELDS per
    frame of the fit."""
    _write_table(Path(out_dir) / "calibration.csv", CALIBRATION_FIELDS, rows, "\n")


def _read_text(path) -> str:
    """path's UTF-8 text, newlines untranslated; a ValueError names an
    undecodable file."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None


def read_manifest(path) -> list[FrameRecord]:
    """A missing column, a surplus cell, a frame that is not a plain file
    name or a cell that is not a number is a ValueError naming the file."""
    records = []
    reader = csv.DictReader(io.StringIO(_read_text(path), newline=""))
    missing = set(MANIFEST_FIELDS) - set(reader.fieldnames or ())
    if missing:
        raise ValueError(f"{path}: manifest is missing columns {sorted(missing)}")
    for row in reader:
        if None in row:  # DictReader's key for cells beyond the header
            raise ValueError(f"{path}: line {reader.line_num}: more cells "
                             f"than the header has columns")
        frame = row["frame"]
        # a frame name with a directory in it would point out of the run
        if not frame or frame in (".", "..") or Path(frame).name != frame:
            raise ValueError(f"{path}: line {reader.line_num}, column frame: "
                             f"expected a file name, got {frame!r}")
        values = {}
        # a short row leaves its last cells None
        for name in MANIFEST_FIELDS[1:]:
            try:
                values[name] = float(row[name])
            except (TypeError, ValueError):
                raise ValueError(f"{path}: line {reader.line_num}, column {name}: "
                                 f"expected a number, got {row[name]!r}") from None
        records.append(FrameRecord(frame=frame, **values))
    return records


def write_config(path, values: dict) -> None:
    """Write key=value lines; values serialized with repr-stable formatting."""
    _write_file(path, "".join(f"{key}={value}\n" for key, value in values.items()))


def read_config(path) -> dict[str, str]:
    """key=value lines, blank and '#' lines skipped; a line without '=', a key
    given twice or an undecodable byte is a ValueError naming the file."""
    values: dict[str, str] = {}
    for line in _read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: malformed config line {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"{path}: config key {key!r} given twice")
        values[key] = value.strip()
    return values


def write_run(out_dir, frames, records, config: dict | None = None) -> Path:
    """Write frames, their composite and config, then the manifest, into
    out_dir.  The earlier run's files there are removed first, its manifest
    before the rest: frames, composite, config and the analyze reports that
    describe them.  Other files are left alone.  A rerun that fails
    part-way therefore leaves no manifest, and one that succeeds leaves no
    stale file of the old run.

    frames is any iterable of 2-D arrays, read once, alongside records; each
    frame is written as it arrives, and only a copy of its central row is
    kept: stacked, those rows are composite.pgm, the space-time composite
    written when the run has at least 2 frames.  Fewer or more frames than
    records, or frames of mismatched widths, is a ValueError raised before
    the composite and the manifest: the directory is then not a complete run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.csv").unlink(missing_ok=True)
    with os.scandir(out) as entries:
        for entry in entries:
            if _RUN_FILE.fullmatch(entry.name):
                os.unlink(entry.path)
    count = len(frames) if isinstance(frames, Sized) else None
    frames = iter(frames)
    # copies: a view of the central row would keep its whole frame alive
    rows = []
    # one frame per record, and not one more read
    for rec in records:
        image = next(frames, None)
        if image is None:
            break
        write_pgm(out / rec.frame, image)
        rows.append(image[image.shape[0] // 2].copy())
        # dropped before the next frame is pulled, which may render it
        del image
    if len(rows) < len(records) or next(frames, None) is not None:
        if count is None:
            count = len(rows) if len(rows) < len(records) else f"more than {len(rows)}"
        raise ValueError(f"{count} frames for {len(records)} manifest records; "
                         f"a run needs one record per frame")
    widths = {row.size for row in rows}
    if len(widths) > 1:
        raise ValueError(f"frames have mismatched widths: {sorted(widths)}")
    if len(rows) >= 2:
        write_pgm(out / "composite.pgm", np.stack(rows))
    if config is not None:
        write_config(out / "config.txt", config)
    write_manifest(out / "manifest.csv", records)
    return out
