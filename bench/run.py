"""Closed-loop benchmark of the accordion command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; it imports the package from ./src.  One client
in one process calls `accordion.cli.main(argv)` in-process, one command at
a time, and starts the next command only after the previous one returned
(a closed loop).  Commands run in-process because `import accordion` costs
far more than an `analyze`; that import is measured in fresh interpreters,
spread over the run, as `setup_s`.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
with tracing off and after a warm-up.  Each cycle of the code under test is
paired with a cycle of the reference build under bench/reference (a frozen
copy of the package as it was when this benchmark was defined), run back to
back in the same process, and the timing metric is the median ratio of the
two: the host's speed drifts by 20% and more over minutes, and the ratio
cancels that drift.  The raw times go to the detail line.  Pairs run for S
seconds of command wall time.  Each command's output is checked outside
the timed part, and so is an analyze of frames the benchmark generates
itself.  With --trace 1 it alternates untraced and traced cycles of the
code under test for S seconds and reports the per-layer metrics computed
from the spans, plus the tracing overhead.  The seed goes to the program
as --seed or seeds the generated inputs; nothing else about the inputs
varies between runs.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds run details
(machine, versions, commit, sample counts, first problems found).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics
from workloads import (FIG6B_GENERATED, accuracy, check_calibration, check_measurements,
                       make_workload, write_fig6b_run)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference" / "accordion"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 9
WARMUP_CYCLES = 2
WARMUP_SECONDS = 1.0
MIN_CYCLES = 3
FAILED_ACCURACY = 1.0  # reported in place of an error that could not be measured


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {problems[0]}"
                                     + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""))


def invoke(cli, argv: list[str]) -> tuple[int | None, float, str]:
    """Run one CLI command in-process; returns exit code, wall seconds and
    what the command wrote to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a benchmark error
            traceback.print_exc(file=err)
            rc = None
        wall = time.perf_counter() - start
    return rc, wall, err.getvalue()


def run_cycle(cli, workload, tally: Tally | None) -> tuple[float, dict, bool]:
    """One closed-loop cycle: every step of the workload in order.  Returns
    the cycle's command wall time, each step's wall time and whether all
    steps passed.  Checks run after the step's clock has stopped."""
    walls: dict[str, float] = {}
    ok = True
    for step in workload.steps:
        rc, wall, err = invoke(cli, step.argv)
        walls[step.label] = wall
        if tally is None:
            continue
        if rc != 0:
            problems = [f"exit code {rc}: {err.strip().splitlines()[-1] if err.strip() else ''}"]
        else:
            try:
                problems = step.check()
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"output unreadable: {exc!r}"]
        tally.record(step.label, problems)
        ok = ok and not problems
    return sum(walls.values()), walls, ok


def warm_up(cli, workload) -> None:
    start = time.perf_counter()
    cycles = 0
    while cycles < WARMUP_CYCLES or time.perf_counter() - start < WARMUP_SECONDS:
        run_cycle(cli, workload, None)
        cycles += 1


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter until `import accordion.cli`
    and `build_parser()` have finished."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "from accordion import cli; cli.build_parser(); print(time.monotonic())")
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1]) - start


def accuracy_pass(cli, workload, work: Path, tally: Tally) -> dict[str, float]:
    """Untimed `analyze --calibrate` of the workload's last output, scored
    against the exact truth."""
    out = work / "accuracy"
    rc, _, err = invoke(cli, ["analyze", str(workload.run_dir), "--calibrate", "--out", str(out)])
    problems = [f"exit code {rc}: {err.strip()[-200:]}"] if rc != 0 else []
    values = dict.fromkeys(("period_rel_err.max", "contrast_err.max",
                            "center_drift_um.max", "pixel_scale_rel_err"), FAILED_ACCURACY)
    try:
        problems += check_measurements(out, workload.truth) + check_calibration(out, workload.truth)
        values = accuracy(out, workload.truth)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"accuracy output unreadable: {exc!r}")
    tally.record("accuracy", problems)
    return values


def contrast_check(cli, work: Path, seed: int, tally: Tally) -> None:
    """Untimed `analyze` of 76 fig6b frames the benchmark generates itself
    at a contrast truth of 0.8, so an analyzer that reports full contrast
    fails on every workload."""
    run_dir = work / "generated"
    write_fig6b_run(run_dir, seed)
    rc, _, err = invoke(cli, ["analyze", str(run_dir)])
    problems = [f"exit code {rc}: {err.strip()[-200:]}"] if rc != 0 else []
    try:
        problems += check_measurements(run_dir, FIG6B_GENERATED)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"generated-frame output unreadable: {exc!r}")
    tally.record("generated-contrast", problems)


def load_reference():
    """The reference build's `cli`: the frozen copy of the package under
    bench/reference, imported as `accordion_ref` beside the code under test."""
    spec = importlib.util.spec_from_file_location(
        "accordion_ref", REFERENCE / "__init__.py", submodule_search_locations=[str(REFERENCE)])
    package = importlib.util.module_from_spec(spec)
    sys.modules["accordion_ref"] = package
    spec.loader.exec_module(package)
    return importlib.import_module("accordion_ref.cli")


def timed_run(cli, workload, ref_cli, reference, work: Path, seed: int, seconds: float,
              tally: Tally) -> tuple[dict, dict]:
    """Pairs of cycles, one of the code under test and one of the reference
    build back to back (alternating which goes first), for `seconds` of
    command wall time.  Between pairs, SETUP_REPEATS set-up samples are
    taken evenly over the run, so their median sees the same stretch of
    the host's speed as the cycles do."""
    walls: list[float] = []
    ref_walls: list[float] = []
    ratios: list[float] = []
    step_walls: dict[str, list[float]] = {}
    setup: list[float] = []
    frames_done = 0
    while sum(walls) + sum(ref_walls) < seconds or len(walls) < MIN_CYCLES:
        if len(walls) % 2:
            ref_walls.append(run_cycle(ref_cli, reference, None)[0])
        wall, steps, ok = run_cycle(cli, workload, tally)
        if not len(walls) % 2:
            ref_walls.append(run_cycle(ref_cli, reference, None)[0])
        walls.append(wall)
        ratios.append(wall / ref_walls[-1])
        for label, w in steps.items():
            step_walls.setdefault(label, []).append(w)
        frames_done += workload.truth.frames if ok else 0
        if len(setup) < SETUP_REPEATS * min(1.0, (sum(walls) + sum(ref_walls)) / seconds):
            setup.append(measure_setup())
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup())
    values = {"cycle_vs_ref.p50": statistics.median(ratios), "setup_s": statistics.median(setup)}
    values.update(accuracy_pass(cli, workload, work, tally))
    contrast_check(cli, work, seed, tally)
    detail = {"cycles": len(walls), "frames_per_s": frames_done / sum(walls),
              "cycle_s.p50": statistics.median(walls),
              "ref_cycle_s.p50": statistics.median(ref_walls),
              "setup_s.samples": len(setup),
              "center_drift_um.max": values["center_drift_um.max"]}
    for label, w in step_walls.items():
        detail[f"{label}_s.p50"] = statistics.median(w)
        detail[f"{label}_s.samples"] = len(w)
    return values, detail


def traced_run(cli, workload, seconds: float, tally: Tally, spans_path: Path) -> tuple[dict, dict]:
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    while sum(plain) + sum(traced) < seconds or len(traced) < MIN_CYCLES:
        plain.append(run_cycle(cli, workload, tally)[0])
        tracer.install()
        try:
            traced.append(run_cycle(cli, workload, tally)[0])
        finally:
            tracer.uninstall()
    values = layer_metrics(tracer.spans, len(traced))
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    tracer.write(spans_path)
    return values, {"cycles": len(traced), "untraced_cycles": len(plain),
                    "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}


def run_facts() -> dict:
    """Machine, interpreter, library versions and the code under test."""
    import numpy
    import scipy

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = ((ROOT / ".git" / ref[5:]).read_text().strip()
                  if ref.startswith("ref: ") else ref)
    digest = hashlib.sha256()
    for path in sorted((SRC / "accordion").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit, "src_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (SRC / "accordion" / "__init__.py").is_file():
        print(f"error: no accordion sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    measure_setup()  # untimed: fills the bytecode cache
    sys.path.insert(0, str(SRC))
    from accordion import cli

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        workload = make_workload(args.workload, work, args.seed)
        warm_up(cli, workload)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            spans_path = WORK_ROOT / f"spans-{args.workload}.jsonl"
            values, detail = traced_run(cli, workload, args.seconds, tally, spans_path)
            metric_specs = spec["per_layer"]
        else:
            ref_cli = load_reference()
            reference = make_workload(args.workload, work / "reference", args.seed)
            warm_up(ref_cli, reference)
            values, detail = timed_run(cli, workload, ref_cli, reference, work, args.seed,
                                       args.seconds, tally)
            values["peak_rss_mb"] = peak_rss_mb
            metric_specs = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  problems=tally.problems, **run_facts())
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
