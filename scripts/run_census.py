#!/usr/bin/env python3
"""Run the claim census over the bundled corpus and print a summary.

Thin wrapper around `dcgroup census` that defaults the corpus to the
checked-in corpus/ directory and prints per-claim pass/fail/error/skip
counts after writing the full report, then every failed or raising claim.

Usage:
    python3 scripts/run_census.py                       # JSON to census_report.json
    python3 scripts/run_census.py --jobs 4 --format csv --out report.csv
    python3 scripts/run_census.py --corpus my_specs/ --seed 7
"""

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from dcgroup.cli import main as cli_main


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--corpus", default=str(REPO / "corpus"))
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--lattice-cap", type=int, default=None)
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    ap.add_argument("--out", default=None)
    return ap.parse_args()


def summarize(report_path: Path) -> None:
    report = json.loads(report_path.read_text())
    tally: Counter = Counter()
    per_claim: dict[str, Counter] = {}
    # (group id or "left|right" pair id, its claims)
    rows = [*((gid, row["claims"]) for gid, row in report["groups"].items()),
            *report.get("pairs", {}).items()]
    for c in (c for _, claims in rows for c in claims):
        status = "skip" if c["status"] == "skipped" else c["status"]
        tally[status] += 1
        per_claim.setdefault(c["claim"], Counter())[status] += 1

    s = report["summary"]
    print(f"groups: {s['groups']}  pairs: {s['pairs']}  skipped: {s['skipped']}")
    print(f"claim checks: {tally['pass']} pass, {tally['fail']} fail, "
          f"{tally['error']} error, {tally['skip']} skip")
    width = max(map(len, per_claim), default=0)
    for claim in sorted(per_claim):
        c = per_claim[claim]
        mark = "FAIL" if c["fail"] else "ERROR" if c["error"] else "ok"
        print(f"  {claim:<{width}}  {c['pass']:>4} pass {c['skip']:>5} skip  {mark}")
    for gid, claims in rows:
        for c in claims:
            if c["status"] in ("fail", "error"):
                print(f"{c['status'].upper()} {gid} {c['claim']}: {c['detail']}")


def main() -> int:
    args = parse_args()
    out = args.out or ("census_report.json" if args.format == "json" else "census_report.csv")
    argv = ["census", "--corpus", args.corpus, "--jobs", str(args.jobs),
            "--format", args.format, "--out", out]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    if args.lattice_cap is not None:
        argv += ["--lattice-cap", str(args.lattice_cap)]
    rc = cli_main(argv)
    if rc == 2:
        # exit 2 writes no report, so a file at `out` is from an earlier run
        print(f"no report written (exit {rc})")
        return rc
    print(f"report written to {out} (exit {rc})")
    if args.format == "json":
        summarize(Path(out))
    return rc


if __name__ == "__main__":
    sys.exit(main())
