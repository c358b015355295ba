"""In-memory span tracer for the accordion layers, and the per-layer metrics
computed from its spans.

`Tracer.install()` replaces every public function of the traced modules
with a wrapper that records one span per call: name, start, end, parent
span, command id, and a work count where the call does countable work
(grid nodes, pixels, bytes).  A function is replaced under every name that
refers to it inside the package, because callers look functions up by the
name bound in their own module: `instrument.render_sequence` reaches
`interference_intensity` through `instrument.interference_intensity`,
bound there by `from .fields import`, so patching only
`fields.interference_intensity` would let those calls escape the trace.

The current span lives in a context variable.  `render_sequence` renders
in a `ThreadPoolExecutor` looked up in `instrument`'s globals; the tracer
swaps in a pool that runs each task in a copy of the submitting context,
so spans recorded on pool threads still name `render_sequence` as their
parent.

`geometry` is not traced: its functions are scalar relations that take a
few microseconds, so a span would cost about as much as the call it
measures and would inflate every frame's time for no information.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

LAYERS = ("fields", "instrument", "runfiles", "analysis", "cli")


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    command: int
    thread: int
    work: int
    error: bool

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _path_size(args, kwargs, _result) -> int:
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path)


# Work counted at the boundary, from the call's arguments or its result.
WORK = {
    "fields.interference_intensity": lambda a, k, r: int(r.values.size),
    "instrument.render_frame": lambda a, k, r: int(r.size),
    "runfiles.write_pgm": _path_size,
    "runfiles.write_manifest": _path_size,
    "runfiles.write_config": _path_size,
    "runfiles.read_pgm": _path_size,
    "runfiles.read_manifest": _path_size,
    "runfiles.read_config": _path_size,
}


class Tracer:
    """Records spans for calls into the accordion layers while installed.

    A span's command id is the id of the outermost span above it, so every
    span of one `cli.main` call shares it, on pool threads too."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[tuple[int, int] | None] = \
            contextvars.ContextVar("accordion_span", default=None)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        work_of = WORK.get(name)
        spans, ids, current = self.spans, self._ids, self._current

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            outer = current.get()
            parent, command = outer if outer else (None, sid)
            token = current.set((sid, command))
            error = True
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                current.reset(token)
                work = work_of(args, kwargs, result) if work_of and not error else 0
                spans.append(Span(sid, parent, name, start, end, command,
                                  threading.get_ident(), work, error))

        return traced

    def install(self) -> None:
        """Patch the public functions of every traced layer, everywhere they
        are bound inside the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "accordion" or n.startswith("accordion."))]
        for layer in LAYERS:
            module = sys.modules[f"accordion.{layer}"]
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{name}", fn)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapped)
        instrument = sys.modules["accordion.instrument"]
        self._patches.append((instrument, "ThreadPoolExecutor", instrument.ThreadPoolExecutor))
        instrument.ThreadPoolExecutor = _ContextPool

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _ms_percentile(durations, q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(spans: list[Span], cycles: int) -> dict[str, float]:
    """Per-layer metrics; counts and busy times are per workload cycle,
    latency percentiles are over individual calls."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ())) / cycles

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ())) / cycles

    def work(*names):
        return sum(s.work for n in names for s in by_name.get(n, ())) / cycles

    def pct(name, q):
        return _ms_percentile([s.duration for s in by_name.get(name, ())], q)

    m: dict[str, float] = {}
    for name in ("fields.interference_intensity", "instrument.render_frame",
                 "analysis.measure_frame"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.ms_p50"] = pct(name, 50)
        m[f"{name}.ms_p99"] = pct(name, 99)
    m["fields.samples"] = work("fields.interference_intensity")
    m["instrument.pixels"] = work("instrument.render_frame")

    sequences = by_name.get("instrument.render_sequence", ())
    seq_ids = {s.id for s in sequences}
    child_busy = sum(s.duration for s in spans if s.parent in seq_ids)
    seq_wall = sum(s.duration for s in sequences)
    m["instrument.render_sequence.wall_s"] = seq_wall / cycles
    m["instrument.render_sequence.parallelism"] = child_busy / seq_wall if seq_wall else 0.0

    for name in ("runfiles.write_pgm", "runfiles.read_pgm"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    m["runfiles.write_run.busy_s"] = busy("runfiles.write_run")
    m["runfiles.read_manifest.busy_s"] = busy("runfiles.read_manifest")
    m["runfiles.bytes_written"] = work("runfiles.write_pgm", "runfiles.write_manifest",
                                       "runfiles.write_config")
    m["runfiles.bytes_read"] = work("runfiles.read_pgm", "runfiles.read_manifest",
                                    "runfiles.read_config")

    m["analysis.extract_period.busy_s"] = busy("analysis.extract_period")
    m["analysis.extract_fringe_phase.calls"] = calls("analysis.extract_fringe_phase")
    m["analysis.extract_fringe_phase.busy_s"] = busy("analysis.extract_fringe_phase")
    m["analysis.measure_contrast.busy_s"] = busy("analysis.measure_contrast")
    m["analysis.track_center_fringe.busy_s"] = busy("analysis.track_center_fringe")
    m["analysis.calibrate_pixel_scale.busy_s"] = busy("analysis.calibrate_pixel_scale")
    m["analysis.frames_rejected"] = sum(
        s.error for s in by_name.get("analysis.measure_frame", ())) / cycles
    frames_measured = len(by_name.get("analysis.measure_frame", ()))
    m["analysis.profiles_per_frame"] = (
        len(by_name.get("analysis.fringe_profile", ())) / frames_measured
        if frames_measured else 0.0)
    m["analysis.phase_calls_per_frame"] = (
        len(by_name.get("analysis.extract_fringe_phase", ())) / frames_measured
        if frames_measured else 0.0)

    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.busy_s"] = busy("cli.main")
    m["cli.self_s"] = cli_self_time(spans) / cycles
    return m


def cli_self_time(spans: list[Span]) -> float:
    """Time inside `cli.main` not covered by calls from the cli layer into
    another layer (its direct children outside cli)."""
    layer_of = {s.id: s.layer for s in spans}
    covered: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.layer != "cli" and layer_of.get(s.parent) == "cli":
            covered.setdefault(s.command, []).append((s.start, s.end))
    return sum(s.duration - _union_length(covered.get(s.command, ()))
               for s in spans if s.name == "cli.main")
