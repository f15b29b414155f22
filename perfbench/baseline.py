#!/usr/bin/env python3
"""Record the benchmark's baseline in perfbench/baseline.json.

    python3 perfbench/baseline.py                          # every workload
    python3 perfbench/baseline.py --workloads lattice-nonp # re-run one

Run from the root of a source checkout. Per workload it makes two sets of
runs of `perfbench/run.py`, each on seeds 1 to 10 with the `run_seconds`
of BENCHMARK.json, then two traced runs on seed 1. Per set and end-to-end
metric it records the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread, (q3 - q1) / median.
Per metric it records how far the second set's median moved from the
first's, as a share of the first, and whether that stays within the
metric's bound. The traced runs' per-layer values show whether the counts
repeat. The output also names the machine, the Python and numpy versions
and the git commit. Workloads not re-run keep their recorded entries.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "baseline.json"
SEEDS = range(1, 11)
SETS = 2
TRACE_RUNS = 2


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "git_sha": sha or None}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_elapsed_s"] = elapsed
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def run_set(workload: str, seconds: int, names: list[str]) -> dict:
    runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
    return {
        "seeds": list(SEEDS),
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "run_elapsed_s": summarize([r["run_elapsed_s"] for r in runs]),
        "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in runs])
                       for name in names},
    }


def main() -> int:
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in decl["workloads"]])
    args = ap.parse_args()

    seconds = decl["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in decl["end_to_end"]}
    doc = json.loads(OUT.read_text()) if OUT.is_file() else {}
    doc.update({"machine": machine(), "run_seconds": seconds,
                "seeds": list(SEEDS), "sets": SETS, "bounds": bounds})
    entries = doc.setdefault("workloads", {})
    for workload in args.workloads:
        sets = [run_set(workload, seconds, list(bounds)) for _ in range(SETS)]
        first, last = (s["end_to_end"] for s in (sets[0], sets[-1]))
        change = {}
        for name, bound in bounds.items():
            moved = (last[name]["median"] - first[name]["median"]) / first[name]["median"]
            change[name] = {"change": moved, "within_bound": abs(moved) <= bound}
        traced = [run_once(workload, SEEDS[0], seconds, 1) for _ in range(TRACE_RUNS)]
        entries[workload] = {
            "sets": sets,
            "median_change": change,
            "trace_correct": all(r["correct"] for r in traced),
            "per_layer": {name: [r["metrics"][name]["value"] for r in traced]
                          for name in traced[0]["metrics"]},
        }
        for name, bound in bounds.items():
            spreads = " ".join(f"{s['end_to_end'][name]['spread']:.3f}" for s in sets)
            flag = "" if change[name]["within_bound"] else "  OUT OF BOUND"
            print(f"{workload:14} {name:14} spreads {spreads} median change "
                  f"{change[name]['change']:+.3f} bound {bound}{flag}",
                  file=sys.stderr)
        OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
