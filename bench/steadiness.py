"""Steadiness check: two sets of benchmark runs of the same code.

    python3 bench/steadiness.py

Runs bench/run.py with --trace 0 on seeds 1..10 of every workload in
BENCHMARK.json, twice: the run of set 1 and the run of set 2 for each seed
go back to back, so a slow drift of the host's speed hits both sets alike.
For each end-to-end metric and workload it prints each set's median and
quartiles and the spread (quartile distance over the median, as
`statistics.quantiles(values, n=4)` gives the quartiles), against the
metric's bound.  A spread is steady below a third of its bound; setup_s has
no spread requirement.  It also prints how far the two medians lie apart,
|m2 - m1| / min(m1, m2), which must stay within the bound in either
direction, setup_s included.

It then makes two --trace 1 runs on each of seeds 1 and 2 of every workload
and requires the exact counts (grid samples, pixels, bytes, profiles and
phase calls per frame) to repeat exactly.  Runs go one at a time.  Exits 1
when a requirement fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
SEEDS = range(1, 11)
TRACE_SEEDS = range(1, 3)
EXACT = ("fields.samples", "instrument.pixels", "runfiles.bytes_written",
         "runfiles.bytes_read", "analysis.profiles_per_frame",
         "analysis.phase_calls_per_frame")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n{done.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs: dict[tuple[int, str], list[dict]] = {}
    for workload in workloads:
        for seed in SEEDS:
            for s in range(SETS):
                runs.setdefault((s, workload), []).append(bench(workload, seed, seconds, 0))
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)

    ok = True
    unsteady = 0
    print(f"{'workload':17s} {'metric':20s} {'set':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in range(SETS):
                med, q1, q3, spread = summary([r[name] for r in runs[(s, workload)]])
                medians.append(med)
                if name == "setup_s":
                    verdict = "not gated"
                elif spread <= bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict, unsteady = "within bound, not steady", unsteady + 1
                else:
                    verdict, ok = "TOO WIDE", False
                print(f"{workload:17s} {name:20s} {s + 1:3d} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f} {bound:6.3f}  {verdict}")
            lo, hi = sorted(abs(m) for m in medians)
            apart = (hi - lo) / lo if lo else (0.0 if hi == 0 else float("inf"))
            ok = ok and apart <= bound
            print(f"{workload:17s} {name:20s} {'2v1':>3s} medians apart by {apart:.4f}"
                  f" (bound {bound})  {'ok' if apart <= bound else 'MEDIANS DIFFER'}")

    for workload in workloads:
        for seed in TRACE_SEEDS:
            traced = [bench(workload, seed, seconds, 1) for _ in range(SETS)]
            counts = [{k: r[k] for k in EXACT} for r in traced]
            same = all(c == counts[0] for c in counts)
            ok = ok and same
            print(f"{workload:17s} exact counts, seed {seed}: "
                  f"{'identical' if same else 'DIFFER'} {json.dumps(counts[0])}")
    print(("every spread and median distance within its bound" if ok else "NOT WITHIN BOUNDS")
          + f"; {unsteady} spreads above a third of their bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
