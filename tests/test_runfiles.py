"""Round trips of the run-file formats, and how write_run replaces a run."""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from accordion import FrameRecord, render_frame, runfiles
from accordion.runfiles import (
    read_config,
    read_manifest,
    read_pgm,
    write_calibration,
    write_config,
    write_manifest,
    write_measurements,
    write_pgm,
    write_run,
)
from conftest import make_camera, make_config

dims = st.integers(1, 9)


@st.composite
def images(draw):
    """uint8 or uint16 images in every memory layout write_pgm may meet:
    row-major, Fortran order, strided and reversed views, transposes; 1xN
    and Nx1 shapes included."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    h, w = draw(st.one_of(st.tuples(st.just(1), dims), st.tuples(dims, st.just(1)),
                          st.tuples(dims, dims)))
    layout = draw(st.sampled_from(["C", "F", "strided", "reversed", "transposed"]))
    if layout == "transposed":
        return draw(hnp.arrays(dtype, (w, h))).T
    base = draw(hnp.arrays(dtype, (2 * h, 3 * w)))
    if layout == "strided":
        return base[::2, ::3]
    if layout == "reversed":
        return base[h - 1::-1, :w]
    return np.asarray(base[:h, :w], order=layout)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


@settings(max_examples=150, deadline=None)
@given(image=images())
def test_pgm_round_trip(scratch, image):
    # one path for every example: each write replaces the previous file
    path = scratch / "image.pgm"
    write_pgm(path, image)
    back = read_pgm(path)
    assert back.dtype == image.dtype.newbyteorder(">") and np.array_equal(back, image)
    h, w = image.shape
    maxval = 255 if image.dtype == np.uint8 else 65535
    assert path.read_bytes() == (f"P5\n{w} {h}\n{maxval}\n".encode()
                                 + image.astype(image.dtype.newbyteorder(">")).tobytes())


class _RecordingOS:
    """The os module, recording the descriptors a writer opens and closes
    and the bytes of each write: ("open", fd), ("writev", bytes), ("close", fd)."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(os, name)

    def open(self, *args):
        fd = os.open(*args)
        self.calls.append(("open", fd))
        return fd

    def writev(self, fd, buffers):
        data = b"".join(bytes(memoryview(buf)) for buf in buffers)
        self.calls.append(("writev", data))
        return os.writev(fd, buffers)

    def close(self, fd):
        self.calls.append(("close", fd))
        return os.close(fd)


_big = np.random.default_rng(7).integers(0, 1 << 16, (2 * 241, 2 * 1280))


@pytest.mark.parametrize("image", [
    _big[:241, :1280].astype(np.uint16),
    _big[::2, ::2].astype(np.uint16),
    _big[:241, :1280].astype(np.uint16)[::-1],
    # already in file order, the bytes of its native twin
    _big[:241, :1280].astype(">u2"),
    _big[:241, :1280].astype(np.uint8),
    _big.astype(np.uint8)[::2, ::2],
], ids=["16bit", "16bit-strided", "16bit-reversed", "16bit-big-endian", "8bit",
        "8bit-strided"])
def test_pgm_is_one_create_one_write_and_one_close(tmp_path, monkeypatch, image):
    # in file order or not, contiguous or strided, a graymap's header and
    # samples go out together in one write
    header = f"P5\n1280 241\n{255 if image.dtype == np.uint8 else 65535}\n".encode()
    expected = header + image.astype(image.dtype.newbyteorder(">")).tobytes()
    recording = _RecordingOS()
    monkeypatch.setattr(runfiles, "os", recording)
    write_pgm(tmp_path / "image.pgm", image)
    assert (tmp_path / "image.pgm").read_bytes() == expected
    assert np.array_equal(read_pgm(tmp_path / "image.pgm"), image)
    (opened, fd), written, last = recording.calls
    assert opened == "open" and written == ("writev", expected) and last == ("close", fd)


_records = [FrameRecord(f"frame_{i:04d}.pgm", i / 30, 0.5 * i, 19250.0 - i, 0.829, 0.0)
            for i in range(2)]


@pytest.mark.parametrize("write, name, data, expected", [
    (write_config, "config.txt", {"seed": 7, "note": "waist in \u00b5m"},
     b"seed=7\nnote=waist in \xc2\xb5m\n"),
    (write_manifest, "manifest.csv", _records,
     b"frame,time_s,mirror_um,separation_um,analytic_spacing_um,path_difference_um\r\n"
     b"frame_0000.pgm,0.0,0.0,19250.0,0.829,0.0\r\n"
     b"frame_0001.pgm,0.03333333333333333,0.5,19249.0,0.829,0.0\r\n"),
    (lambda path, rows: write_measurements(path.parent, rows), "measurements.csv",
     [("a,\"b\".pgm", 0.0, 19250.0, 9.72, 0.829, -0.001, 0.98)],
     b"frame,time_s,separation_um,period_px,period_um,center_um,contrast\n"
     b"\"a,\"\"b\"\".pgm\",0.0,19250.0,9.72,0.829,-0.001,0.98\n"),
    (lambda path, rows: write_calibration(path.parent, rows), "calibration.csv",
     [(0.0853, 1e-05, 19250.0, 9.72, 0.0)],
     b"pixel_scale_um_px,pixel_scale_uncertainty,separation_um,period_px,"
     b"relative_residual\n0.0853,1e-05,19250.0,9.72,0.0\n"),
], ids=["config", "manifest", "measurements", "calibration"])
def test_a_text_file_is_one_create_one_write_and_one_close(tmp_path, monkeypatch, write,
                                                           name, data, expected):
    # each text file is formatted whole, then written as a graymap is: its
    # UTF-8 bytes in one write, whatever the locale
    recording = _RecordingOS()
    monkeypatch.setattr(runfiles, "os", recording)
    write(tmp_path / name, data)
    assert (tmp_path / name).read_bytes() == expected
    (opened, fd), written, last = recording.calls
    assert opened == "open" and written == ("writev", expected) and last == ("close", fd)


def test_a_failing_row_source_leaves_no_table(tmp_path):
    # the table is formatted before its file is created
    def rows():
        yield ("frame_0000.pgm", 0.0, 19250.0, 9.72, 0.829, 0.0, 0.98)
        raise ValueError("frame_0001.pgm: no fringe")

    with pytest.raises(ValueError, match="frame_0001.pgm: no fringe"):
        write_measurements(tmp_path, rows())
    assert os.listdir(tmp_path) == []


def test_a_rendered_16_bit_frame_is_one_write(tmp_path, monkeypatch):
    # the camera stores its 16-bit samples big-endian, the file's order:
    # a ladder frame costs one create, one write and one close
    cfg = make_config(focal=30000.0, separation=19250.0, amp2=0.8)
    frame = render_frame(cfg, make_camera(read_noise=40.0, sensor=(1280, 240),
                                          bit_depth=16))
    recording = _RecordingOS()
    monkeypatch.setattr(runfiles, "os", recording)
    write_pgm(tmp_path / "frame.pgm", frame)
    assert [call for call, _ in recording.calls] == ["open", "writev", "close"]
    assert recording.calls[1][1] == b"P5\n1280 240\n65535\n" + frame.astype(">u2").tobytes()


@pytest.mark.parametrize("bit_depth, dtype", [(8, np.uint8), (16, np.dtype(">u2"))],
                         ids=["8bit", "16bit"])
def test_read_pgm_returns_a_view_of_the_bytes_read(tmp_path, monkeypatch, bit_depth,
                                                   dtype):
    # no sample is copied or byte-swapped on the way in
    image = (_big[:240, :1280] >> (16 - bit_depth)).astype(dtype)
    write_pgm(tmp_path / "image.pgm", image)
    read = []
    read_bytes = Path.read_bytes

    def recording_read_bytes(self):
        read.append(read_bytes(self))
        return read[-1]

    monkeypatch.setattr(Path, "read_bytes", recording_read_bytes)
    back = read_pgm(tmp_path / "image.pgm")
    assert back.dtype == dtype and np.array_equal(back, image)
    assert not back.flags.owndata and not back.flags.writeable
    assert np.shares_memory(back, np.frombuffer(read[0], np.uint8))


@pytest.mark.parametrize("write, data, most", [
    (write_pgm, _big[:5, :6].astype(np.uint8), 1),
    (write_pgm, _big[:5, :6].astype(np.uint16)[::-1], 7),
    (write_pgm, _big[:241, :1280].astype(np.uint8), 4099),
    (write_pgm, _big[::2, ::2].astype(np.uint16), 4099),
    (write_config, {"seed": 7, "note": "waist in \u00b5m"}, 1),
    (write_manifest, _records * 40, 7),
], ids=["8bit-1", "16bit-7", "8bit-4099", "16bit-strided-4099", "config-1", "manifest-7"])
def test_pgm_short_writes_are_resumed(tmp_path, monkeypatch, write, data, most):
    # a write may take fewer bytes than it is given, and may stop inside
    # the header, inside a buffer or at its end; a text file, one buffer,
    # inside a UTF-8 character
    calls = []

    def short_writev(fd, buffers):
        calls.append(fd)
        data = b"".join(bytes(memoryview(buf).cast("B")[:most]) for buf in buffers)
        return os.write(fd, data[:most])

    write(tmp_path / "whole", data)
    monkeypatch.setattr(os, "writev", short_writev)
    write(tmp_path / "short", data)
    whole = (tmp_path / "whole").read_bytes()
    assert (tmp_path / "short").read_bytes() == whole
    # every write went through os.writev, each taking `most` bytes
    assert len(calls) == -(-len(whole) // most)


@pytest.mark.parametrize("image", [np.zeros((3, 4), np.uint8),
                                   _big[::2, ::2].astype(np.uint16)],
                         ids=["8bit", "16bit-strided"])
def test_pgm_write_error_closes_the_descriptor(tmp_path, monkeypatch, image):
    # a raw descriptor leaks silently, with no ResourceWarning: count closes
    recording = _RecordingOS()

    def failing_writev(fd, buffers):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(recording, "writev", failing_writev)
    monkeypatch.setattr(runfiles, "os", recording)
    with pytest.raises(OSError, match="No space left on device"):
        write_pgm(tmp_path / "image.pgm", image)
    (opened, fd), last = recording.calls
    assert opened == "open" and last == ("close", fd)


numbers = st.floats(allow_nan=False)
records = st.builds(
    FrameRecord,
    frame=st.from_regex(r"frame_[0-9]{4}\.pgm", fullmatch=True),
    time_s=numbers, mirror_um=numbers, separation_um=numbers,
    analytic_spacing_um=numbers, path_difference_um=numbers,
)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(records, max_size=5))
def test_manifest_round_trip(scratch, rows):
    path = scratch / "manifest.csv"
    write_manifest(path, rows)
    assert read_manifest(path) == rows


@pytest.mark.parametrize("edit, message", [
    (lambda cells: cells[:3], "line 3, column separation_um: expected a number, got None"),
    (lambda cells: cells[:1] + ["abc"] + cells[2:],
     "line 3, column time_s: expected a number, got 'abc'"),
    (lambda cells: cells + ["0.0"], "line 3: more cells than the header has columns"),
    # a frame name with a directory in it would point out of the run
    *[(lambda cells, frame=frame: [frame] + cells[1:],
       f"line 3, column frame: expected a file name, got {frame!r}")
      for frame in ("", ".", "..", "sub/frame_0001.pgm", "../run2/frame_0001.pgm",
                    "/tmp/frame_0001.pgm")],
], ids=["short-row", "non-numeric", "long-row", "frame-empty", "frame-dot", "frame-dotdot",
        "frame-subdirectory", "frame-parent", "frame-absolute"])
def test_malformed_manifest_row_names_the_line_and_column(tmp_path, edit, message):
    path = tmp_path / "manifest.csv"
    write_manifest(path, [FrameRecord(f"frame_{i:04d}.pgm", i / 30, 0.0, 8000.0, 5.32, 0.0)
                          for i in range(3)])
    lines = path.read_text().splitlines()
    lines[2] = ",".join(edit(lines[2].split(",")))  # frame 1's row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as raised:
        read_manifest(path)
    assert str(raised.value) == f"{path}: {message}"


# values as sweep echoes them: numbers, and text without line breaks or
# surrounding blanks (read_config strips both)
texts = st.text(st.sampled_from("abcxyzAZ0129.,:+-=_/ "), max_size=12).map(str.strip)
values = st.one_of(st.integers(), st.floats(allow_nan=False), texts)


@settings(max_examples=100, deadline=None)
@given(config=st.dictionaries(st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True),
                              values, max_size=8))
def test_config_round_trip(scratch, config):
    path = scratch / "config.txt"
    write_config(path, config)
    assert read_config(path) == {key: str(value) for key, value in config.items()}


def test_config_key_given_twice_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("focal=30000\nseparations=19250\nfocal = 80000\n")
    with pytest.raises(ValueError, match=r"run\.cfg: config key 'focal' given twice"):
        read_config(path)


def test_config_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("\n# waist in um\n   \nfocal = 30000\n  # indented\n")
    assert read_config(path) == {"focal": "30000"}


def test_config_line_without_equals_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("focal=30000\n separations 19250 \n")
    with pytest.raises(ValueError) as raised:
        read_config(path)
    assert str(raised.value) == f"{path}: malformed config line 'separations 19250'"


def test_a_manifest_missing_a_column_is_named(tmp_path):
    path = tmp_path / "manifest.csv"
    write_manifest(path, [FrameRecord("frame_0000.pgm", 0.0, 0.0, 8000.0, 5.32, 0.0)])
    path.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                            for line in path.read_text().splitlines()))
    with pytest.raises(ValueError) as raised:
        read_manifest(path)
    assert str(raised.value) == f"{path}: manifest is missing columns ['path_difference_um']"


@pytest.mark.parametrize("image, message", [
    (np.zeros(4, np.uint8), "expected a non-empty 2-D image, got shape (4,)"),
    (np.zeros((0, 3), np.uint8), "expected a non-empty 2-D image, got shape (0, 3)"),
    (np.zeros((2, 2)), "unsupported dtype float64; use uint8 or uint16"),
], ids=["1-D", "empty", "float"])
def test_write_pgm_refuses_what_no_graymap_holds(tmp_path, image, message):
    path = tmp_path / "frame.pgm"
    with pytest.raises(ValueError) as raised:
        write_pgm(path, image)
    assert str(raised.value) == message
    assert not path.exists()


def _run(n, value):
    frames = [np.full((3, 4), value + i, np.uint8) for i in range(n)]
    rows = [FrameRecord(f"frame_{i:04d}.pgm", 0.1 * i, 0.0, 1000.0, 1.0, 0.0)
            for i in range(n)]
    return frames, rows


def test_rerun_removes_the_earlier_runs_files(tmp_path):
    frames, rows = _run(6, 10)
    write_run(tmp_path, frames, rows, config={"seed": 1})
    for name in ("measurements.csv", "calibration.csv", "notes.txt", "frame_a.pgm"):
        (tmp_path / name).write_text("x\n")
    frames, rows = _run(1, 50)
    write_run(tmp_path, frames, rows)
    # the old frames, composite, config and reports are gone, and one frame
    # writes no composite; files a run does not write are left alone
    assert sorted(os.listdir(tmp_path)) == ["frame_0000.pgm", "frame_a.pgm",
                                            "manifest.csv", "notes.txt"]
    assert np.array_equal(read_pgm(tmp_path / "frame_0000.pgm"), frames[0])
    assert read_manifest(tmp_path / "manifest.csv") == rows


def test_run_from_a_generator_writes_its_frames_and_composite(tmp_path):
    frames, rows = _run(5, 10)
    frames[2] = np.arange(12, dtype=np.uint8).reshape(3, 4)
    write_run(tmp_path, (image for image in frames), rows)
    for image, rec in zip(frames, rows):
        assert np.array_equal(read_pgm(tmp_path / rec.frame), image)
    assert np.array_equal(read_pgm(tmp_path / "composite.pgm"),
                          np.stack([image[image.shape[0] // 2] for image in frames]))
    assert read_manifest(tmp_path / "manifest.csv") == rows


def test_rerun_creates_files_new(tmp_path):
    out = tmp_path / "run"
    write_run(out, *_run(2, 10), config={"seed": 1})
    kept = {}
    for name in ("frame_0000.pgm", "manifest.csv", "config.txt"):
        os.link(out / name, tmp_path / name)
        kept[name] = (out / name).read_bytes()
    frames, rows = _run(2, 90)
    rows[0] = replace(rows[0], time_s=7.0)
    write_run(out, frames, rows, config={"seed": 2})
    # a hard link to an old file keeps the old bytes: nothing was rewritten
    # in place, each name now points to a new file
    for name, old in kept.items():
        assert (tmp_path / name).read_bytes() == old
        assert (out / name).read_bytes() != old
        assert not os.path.samefile(out / name, tmp_path / name)
    assert np.array_equal(read_pgm(out / "frame_0000.pgm"), frames[0])


@pytest.mark.parametrize("write, old, new", [
    (write_pgm, np.zeros((3, 4), np.uint8), np.ones((3, 4), np.uint8)),
    (write_config, {"seed": 1}, {"seed": 2}),
], ids=["graymap", "text"])
def test_writing_over_a_file_creates_it_new(tmp_path, write, old, new):
    # without write_run, which removes a run's files first: the writer
    # itself unlinks the existing file, so a hard link keeps its bytes
    write(tmp_path / "file", old)
    os.link(tmp_path / "file", tmp_path / "link")
    kept = (tmp_path / "file").read_bytes()
    write(tmp_path / "file", new)
    assert (tmp_path / "link").read_bytes() == kept
    assert (tmp_path / "file").read_bytes() != kept


@pytest.mark.parametrize("frames, records, counted", [
    (2, 3, "2 frames for 3 manifest records"),
    (4, 2, "4 frames for 2 manifest records"),
])
@pytest.mark.parametrize("stream", [False, True], ids=["list", "generator"])
def test_frames_and_records_must_pair_up(tmp_path, frames, records, counted, stream):
    images, _ = _run(frames, 10)
    _, rows = _run(records, 10)
    if stream:
        images = (image for image in images)
        # a stream is not read past the first frame without a record
        counted = counted.replace("4 frames", "more than 2 frames")
    with pytest.raises(ValueError, match=counted):
        write_run(tmp_path, images, rows)
    # no manifest: the directory is not a complete run
    assert not (tmp_path / "manifest.csv").exists()
    assert sorted(os.listdir(tmp_path)) == [f"frame_{i:04d}.pgm"
                                            for i in range(min(frames, records))]


def test_mismatched_widths_are_rejected_before_the_composite_and_manifest(tmp_path):
    frames, rows = _run(3, 10)
    frames[1] = np.zeros((3, 5), np.uint8)
    with pytest.raises(ValueError, match=r"frames have mismatched widths: \[4, 5\]"):
        write_run(tmp_path, frames, rows)
    assert not (tmp_path / "composite.pgm").exists()
    assert not (tmp_path / "manifest.csv").exists()
