#!/usr/bin/env python3
"""Write pins.json: the values the benchmark checks every output against.

    python3 perfbench/pin.py

Run from the root of a source checkout. For every group a workload can
generate it records the spec's sha256, `is_dc`, `ds.size` and the invariant
block, as the current code reports them; for the census it also records the
product pairs. It refuses to pin an output with a nonzero exit code or a
failed claim. Run it only when a pinned value changes for a stated reason.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, ROOT, import_package, plan_calls, run_pass, spec_digest

SEED = 2026


def pin_rows(workload: str, specs: list[tuple[str, dict]], cli, workloads) -> dict:
    work = BENCH / ".work" / f"pin-{workload}"
    paths = workloads.write_specs(specs, work)
    done = run_pass(cli, plan_calls(workload, paths, work, SEED, jobs=2))
    for call in done.calls:
        if call.rc != 0:
            sys.exit(f"{call.label}: exit {call.rc}: {call.err}")
    if workload == "corpus-census":
        report = json.loads(done.calls[0].out)
        rows, pairs = report["groups"], sorted(report["pairs"])
    else:
        rows = {c.label: json.loads(c.out) for c in done.calls}
        pairs = []
    out = {}
    for gid, spec in specs:
        row = rows[gid]
        if any(c["status"] == "fail" for c in row["claims"]):
            sys.exit(f"{gid}: a claim failed")
        out[gid] = {"spec_sha256": spec_digest(spec), "is_dc": row["dc"]["is_dc"],
                    "ds_size": row["ds"]["size"], "invariants": row["invariants"]}
    shutil.rmtree(work)
    return {"groups": out, "pairs": pairs}


def main() -> int:
    cli, workloads = import_package()
    pool = workloads.consistent_grid_specs(2) + workloads.consistent_grid_specs(3)
    pins = {
        "corpus-census": pin_rows(
            "corpus-census", workloads.corpus_census(ROOT / "corpus"),
            cli, workloads),
        "lattice-nonp": pin_rows(
            "lattice-nonp", workloads.lattice_nonp(), cli, workloads),
        "pc-stream": pin_rows("pc-stream", pool, cli, workloads),
    }
    (BENCH / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
