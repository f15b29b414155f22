#!/usr/bin/env python3
"""dcgroup benchmark: one workload, its metrics and its output check.

    python3 perfbench/run.py --workload pc-stream --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Workloads (see workloads.py and BENCHMARK.json):

  corpus-census  `dcgroup census --jobs 2` over the corpus minus s6
  lattice-nonp   `dcgroup analyze` on seven non-p groups, two rounds
  pc-stream      `dcgroup analyze` on 118 pc presentations, one after another
  smoke          a dozen small analyze calls, for the benchmark's own tests

Every command is `dcgroup.cli.main` called in this process, in a closed loop
with one client; the census forks its two workers. The seed picks the
inputs and reaches the command line as `--seed`. A pass runs every input
once; passes repeat while the next one is expected to end within
`--seconds`, and at least one runs.

With `--trace 0` the last line holds the end-to-end metrics:

  setup_s        median over fresh processes of interpreter start, import,
                 workload generation and validation
  wall_s         median wall time of a pass
  cpu_s          median user plus system time of a pass, this process and
                 its children
  peak_rss_mb    peak resident set of this process or any child
  analyze_p50_s  median latency of one command call: each analyze call on
                 pc-stream and lattice-nonp, the census call on corpus-census
  analyze_p90_s  90th percentile of the same

With `--trace 1` it calls each group once untraced and once with the spans
of spans.py installed (the census with `--jobs 1`, since spans in forked
workers would be lost) and reports the per-layer metrics of BENCHMARK.json
and `trace.overhead_ratio`, the traced pass's wall time over the untraced.

Every output is checked against pins.json: exit code 0, no failed claim,
and per group `is_dc`, `ds.size` and the invariant block. One operation is
one analyze call, one census group or one census pair; a mismatch or an
exception fails it. The final line's `failed` counts them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("corpus-census", "lattice-nonp", "pc-stream", "smoke")
CENSUS_JOBS = 2
SETUP_REPEATS = 3


def spec_digest(spec: dict) -> str:
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def import_package():
    """Import dcgroup from the checkout's src/; exit with an error if absent."""
    if not (ROOT / "src" / "dcgroup" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dcgroup package under {ROOT / 'src'}")
    if not (ROOT / "corpus").is_dir():
        sys.exit(f"perfbench: no corpus directory under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import dcgroup.cli
    import workloads
    return dcgroup.cli, workloads


def setup(workload: str, seed: int):
    cli, workloads = import_package()
    specs = workloads.generate(workload, seed, ROOT / "corpus")
    return cli, workloads, specs


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that only set the workload up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(argv, check=True, timeout=60, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


# -- running --------------------------------------------------------------------------


@dataclass
class Call:
    label: str
    argv: list[str]
    rc: int | None = None
    out: str = ""
    err: str = ""
    seconds: float = 0.0


@dataclass
class Pass:
    calls: list[Call]
    wall: float = 0.0
    cpu: float = 0.0


def _cpu_now() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def plan_calls(workload: str, paths: list[Path], work: Path, seed: int,
               jobs: int) -> list[Call]:
    if workload == "corpus-census":
        return [Call("census", ["census", "--corpus", str(work), "--jobs",
                                str(jobs), "--seed", str(seed)])]
    return [Call(p.stem, ["analyze", "--spec", str(p), "--seed", str(seed)])
            for p in paths]


def run_call(cli, call: Call) -> Call:
    """Run one command in this process; a crash fails the call, not the run."""
    done = Call(call.label, call.argv)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            done.rc = cli.main(done.argv)
    except Exception as e:
        err.write(f"{type(e).__name__}: {e}")
    done.seconds = perf_counter() - start
    done.out, done.err = out.getvalue(), err.getvalue()
    return done


def run_pass(cli, calls: list[Call]) -> Pass:
    cpu0, t0 = _cpu_now(), perf_counter()
    done = [run_call(cli, c) for c in calls]
    return Pass(done, perf_counter() - t0, _cpu_now() - cpu0)


# -- output check -----------------------------------------------------------------------


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    census_sha256: list[str] = field(default_factory=list)

    def fail(self, where: str, why: str) -> None:
        self.failed += 1
        self.problems.append(f"{where}: {why}")


def _group_problem(pin: dict, spec: dict, row: dict) -> str | None:
    if spec_digest(spec) != pin["spec_sha256"]:
        return "spec differs from the pinned one"
    got = {"is_dc": row["dc"]["is_dc"], "ds_size": row["ds"]["size"],
           "invariants": row["invariants"]}
    want = {k: pin[k] for k in got}
    if got != want:
        return f"got {got}, pinned {want}"
    if any(c["status"] == "fail" for c in row["claims"]):
        return "a claim failed"
    return None


def check_analyze(call: Call, spec: dict, pin: dict | None, check: Check) -> None:
    check.attempted += 1
    if call.rc != 0:
        check.fail(call.label, f"exit {call.rc}: {call.err.strip()[:200]}")
        return
    if pin is None:
        check.fail(call.label, "no pinned values")
        return
    why = _group_problem(pin, spec, json.loads(call.out))
    if why:
        check.fail(call.label, why)


def check_census(call: Call, specs: dict[str, dict], pins: dict,
                 check: Check) -> None:
    pairs = pins["pairs"]
    ops = [*specs, *pairs]
    report = None
    if call.rc == 0:
        check.census_sha256.append(hashlib.sha256(call.out.encode()).hexdigest())
        report = json.loads(call.out)
        if report["summary"]["claims_failed"] or report["skipped"]:
            report = None
    if report is None:
        check.attempted += len(ops)
        for op in ops:
            check.fail(op, f"census exit {call.rc}: {call.err.strip()[:200]}")
        return
    for gid, spec in specs.items():
        check.attempted += 1
        row = report["groups"].get(gid)
        pin = pins["groups"].get(gid)
        why = ("missing from the report" if row is None else
               "no pinned values" if pin is None else
               _group_problem(pin, spec, row))
        if why:
            check.fail(gid, why)
    for pair in pairs:
        check.attempted += 1
        rows = report["pairs"].get(pair)
        if rows is None:
            check.fail(pair, "missing from the report")
        elif any(c["status"] == "fail" for c in rows):
            check.fail(pair, "a claim failed")


def check_pass(workload: str, done: Pass, specs: dict[str, dict],
               pins: dict, check: Check) -> None:
    if workload == "corpus-census":
        check_census(done.calls[0], specs, pins, check)
        return
    for call in done.calls:
        check_analyze(call, specs[call.label], pins["groups"].get(call.label),
                      check)


def check_same_output(first: Pass, second: Pass, check: Check) -> None:
    """Reports of one input must be byte-identical across passes."""
    for a, b in zip(first.calls, second.calls):
        if a.rc == 0 and b.rc == 0 and a.out != b.out:
            check.fail(a.label, "report differs between passes")


# -- metrics ----------------------------------------------------------------------------


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(passes: list[Pass], rss_mb: float,
               setups: list[float]) -> dict[str, float]:
    latencies = [c.seconds for p in passes for c in p.calls]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": rss_mb,
        "analyze_p50_s": statistics.median(latencies),
        "analyze_p90_s": p90(latencies),
    }


def census_layer(tracer, workload: str) -> dict[str, float]:
    """Slowest group's share of the group times, and the census pairs tail."""
    census = workload == "corpus-census"
    groups = tracer.durations("cli._census_one" if census else "cli.run_analyze")
    ends = tracer.ends("cli.run_census"), tracer.ends("cli._census_one")
    return {
        "census.max_group_share": max(groups) / sum(groups) if groups else 0.0,
        "census.pairs_s": max(ends[0]) - max(ends[1]) if all(ends) else 0.0,
    }


# -- timed and traced runs -------------------------------------------------------------


def timed(cli, args, paths, work, specs, pins, check) -> list[Pass]:
    calls = plan_calls(args.workload, paths, work, args.seed, CENSUS_JOBS)
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        done = run_pass(cli, calls)
        check_pass(args.workload, done, specs, pins, check)
        if passes:
            check_same_output(passes[0], done, check)
        passes.append(done)
        if perf_counter() - start + done.wall > args.seconds:
            return passes


def traced(cli, args, paths, work, specs, pins, check):
    """Each group's call runs untraced, then at once traced, so that both
    see the machine in the same state; the two passes are the sums of those
    calls."""
    from spans import Tracer, patched_bindings

    tracer = Tracer()
    plain, spanned = Pass([]), Pass([])
    # One call per group: lattice-nonp's repeated rounds add no new spans.
    calls = {c.label: c for c in plan_calls(args.workload, paths, work,
                                            args.seed, jobs=1)}
    for call in calls.values():
        plain.calls.append(run_call(cli, call))
        tracer.install()
        try:
            spanned.calls.append(run_call(cli, call))
        finally:
            tracer.remove()
    left = patched_bindings()
    if left:
        check.fail("tracer", f"bindings left patched: {left}")
    for done in (plain, spanned):
        done.wall = sum(c.seconds for c in done.calls)
        check_pass(args.workload, done, specs, pins, check)
    check_same_output(plain, spanned, check)

    slugs = [slug for slug, _ in sys.modules["dcgroup.dc"].CLAIMS]
    metrics = tracer.layer_metrics(slugs)
    metrics.update(census_layer(tracer, args.workload))
    metrics["trace.overhead_ratio"] = spanned.wall / plain.wall
    return metrics, [plain, spanned]


# -- main -------------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up and exit; used to time set-up")
    return ap.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in decl["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    units = declared_metrics(args.trace)
    cli, workloads, spec_list = setup(args.workload, args.seed)
    pins = json.loads((BENCH / "pins.json").read_text())
    pins = pins["pc-stream" if args.workload == "smoke" else args.workload]
    specs = dict(spec_list)

    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    check = Check()
    try:
        paths = workloads.write_specs(spec_list, work)
        if args.trace:
            metrics, passes = traced(cli, args, paths, work, specs, pins, check)
        else:
            passes = timed(cli, args, paths, work, specs, pins, check)
            # Read before the set-up processes run: they are children too.
            rss_mb = peak_rss_mb()
            metrics = end_to_end(passes, rss_mb,
                                 setup_seconds(args.workload, args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name in units if name not in metrics]
    if missing:
        sys.exit(f"perfbench: declared metrics not measured: {missing}")
    ncalls = sum(len(p.calls) for p in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"{ncalls} command calls (the latency sample count)")
    for sha in check.census_sha256:
        print(f"census report sha256 {sha}")
    for problem in check.problems:
        print(f"FAILED {problem}")
    print(f"failed_ratio {check.failed / check.attempted:.6f} ratio "
          f"({check.failed} of {check.attempted} operations)")
    for name, unit in units.items():
        print(f"  {name} {metrics[name]} {unit}")
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
