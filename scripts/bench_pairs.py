#!/usr/bin/env python3
"""Alternating benchmark pairs: a base commit against the working tree.

Runs `perfbench/run.py` (at its defaults unless `--seconds` is given) on two
sides: the committed files of `--base`, exported with `git archive` into a
temporary directory that is removed on exit, and this checkout's working
tree. Each side runs its own `perfbench/run.py`. Each pair runs both sides
once per workload, and the side that goes first alternates from pair to
pair. Every run uses `--seed 1`. It writes `BENCH_<sha>.json`, <sha> being
this checkout's HEAD, with per workload and end-to-end metric (as
BENCHMARK.json declares them) both sides' values, medians and quartiles,
and the pairs the working tree won; beside them the base sha, the seed,
the machine, and each run's `failed` count.

    python3 scripts/bench_pairs.py --base HEAD~1
    python3 scripts/bench_pairs.py --base HEAD~1 --workload lattice-nonp --pairs 10
    python3 scripts/bench_pairs.py --base HEAD --workload smoke --pairs 1 --seconds 1 --out /tmp
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEED = 1


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(REPO), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export(ref: str, dest: Path) -> None:
    """The committed files of ref, as `git archive` gives them, under dest."""
    blob = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", ref],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)


def run_once(root: Path, workload: str, seconds: float | None) -> dict:
    """One `perfbench/run.py` run in root; the JSON of its last line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    """Median and quartiles; with fewer than two values all three are it."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: dict, declared: list[dict]) -> dict:
    """Per end-to-end metric: each side's values and quartiles, and the
    pairs in which the working tree's value was the better one."""
    metrics = {}
    for m in declared:
        name, lower = m["name"], m["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        metrics[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "base": {**quartiles(base), "values": base},
            "change": {**quartiles(change), "values": change},
            "pairs_won": won,
        }
    return metrics


def main(argv=None) -> int:
    decl = json.loads((REPO / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git ref of the base side")
    ap.add_argument("--workload", action="append",
                    help="a workload to run (repeatable; default: BENCHMARK.json's)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="pairs per workload (default 10)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="passed to run.py; default: run.py's own")
    ap.add_argument("--out", type=Path, default=REPO,
                    help="directory for BENCH_<sha>.json (default: the repo root)")
    args = ap.parse_args(argv)

    workloads = args.workload or [w["name"] for w in decl["workloads"]]
    base_sha = git("rev-parse", args.base)
    sha = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        base_root = tmp / "base"
        export(base_sha, base_root)
        sides = {"base": base_root, "change": REPO}
        report = {
            "sha": sha,
            "dirty": dirty,
            "base": base_sha,
            "seed": SEED,
            "seconds": args.seconds,
            "machine": {
                "platform": platform.platform(),
                "processor": platform.machine(),
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
            },
            "workloads": {},
        }
        for w in workloads:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(run_once(sides[side], w, args.seconds))
                print(f"{w}: pair {i + 1} of {args.pairs} done", file=sys.stderr)
            report["workloads"][w] = {
                "pairs": args.pairs,
                "first": ["base" if i % 2 == 0 else "change" for i in range(args.pairs)],
                "failed": {s: [r["failed"] for r in runs[s]] for s in runs},
                "metrics": summarize(runs, decl["end_to_end"]),
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{sha[:12]}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for w, r in report["workloads"].items():
        for name, m in r["metrics"].items():
            print(f"{w:14s} {name:14s} base {m['base']['median']:.4g} "
                  f"change {m['change']['median']:.4g} "
                  f"won {m['pairs_won']}/{r['pairs']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
