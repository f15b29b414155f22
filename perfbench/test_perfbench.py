"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import dcgroup  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import spec_digest  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(trace: int, seed: int = 3) -> dict:
    proc = run_bench("--workload", "smoke", "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, section):
    result = smoke(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in DECLARED[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_traced_counts_repeat_exactly():
    counts = [{name: m["value"] for name, m in smoke(1)["metrics"].items()
               if m["unit"] == "count"} for _ in range(2)]
    assert counts[0] == counts[1]
    assert counts[0]["lattice.all_subgroups.calls"] > 0


def test_every_claim_has_a_declared_metric():
    names = {m["name"] for m in DECLARED["per_layer"]}
    for slug, _ in dcgroup.dc.CLAIMS:
        assert f"dc.claim.{slug}.s" in names


@pytest.mark.parametrize("workload", ["corpus-census", "lattice-nonp",
                                      "pc-stream", "smoke"])
def test_generator_gives_identical_specs_for_one_seed(workload):
    first = workloads.generate(workload, 11, ROOT / "corpus")
    again = workloads.generate(workload, 11, ROOT / "corpus")
    assert first == again


def test_pc_stream_mix_and_seeding():
    specs = workloads.pc_stream(1)
    orders = [tuple(spec["orders"]) for _, spec in specs]
    assert orders.count((2,) * 5) == 100
    assert orders.count((3,) * 5) == 18
    assert specs != workloads.pc_stream(2)


def test_census_leaves_out_s6():
    gids = [gid for gid, _ in workloads.corpus_census(ROOT / "corpus")]
    assert "s6" not in gids and len(gids) == 72


def test_every_generated_group_is_pinned():
    pins = json.loads((BENCH / "pins.json").read_text())
    cases = [("corpus-census", workloads.corpus_census(ROOT / "corpus")),
             ("lattice-nonp", workloads.lattice_nonp()),
             ("pc-stream", workloads.consistent_grid_specs(2)
              + workloads.consistent_grid_specs(3))]
    for workload, specs in cases:
        pinned = pins[workload]["groups"]
        assert set(pinned) == {gid for gid, _ in specs}
        for gid, spec in specs:
            assert pinned[gid]["spec_sha256"] == spec_digest(spec), gid


def _bindings() -> dict:
    mods = [sys.modules["dcgroup"],
            *(sys.modules[f"dcgroup.{m}"] for m in spans.MODULES)]
    snap = {}
    for mod in mods:
        for attr, val in vars(mod).items():
            snap[(mod.__name__, attr)] = val
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for meth, member in vars(val).items():
                    snap[(mod.__name__, attr, meth)] = member
    snap["CLAIMS"] = list(dcgroup.dc.CLAIMS)
    return snap


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.installed >= set(spans.INCLUSIVE) | set(spans.CALLS)
        assert dcgroup.dc.all_subgroups is not before[("dcgroup.dc", "all_subgroups")]
        assert dcgroup.all_subgroups is dcgroup.lattice.all_subgroups
        assert spans.patched_bindings()
        dcgroup.lattice.all_subgroups(dcgroup.build_family("symmetric", {"degree": 3}))
    finally:
        tracer.remove()
    assert _bindings() == before
    assert spans.patched_bindings() == []
    assert tracer.layer_metrics([])["lattice.all_subgroups.calls"] == 1


def test_install_refuses_a_span_with_nothing_to_wrap(monkeypatch):
    before = _bindings()
    monkeypatch.setattr(spans, "REQUIRED",
                        spans.REQUIRED | {"structure.no_such_function"})
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError, match="structure.no_such_function"):
        tracer.install()
    assert _bindings() == before
    assert spans.patched_bindings() == []


def test_self_time_is_duration_minus_child_spans():
    tracer = spans.Tracer()
    for span in [("dc.is_dc_fast", "dc", -1, 0.0, 10.0),
                 ("lattice.all_subgroups", "lattice", 0, 1.0, 4.0),
                 ("lattice.closure", "lattice", 1, 2.0, 3.0),
                 ("core.flat_table", "pc", 2, 2.5, 2.75),
                 ("structure.derived_subgroup", "structure", 0, 5.0, 7.0)]:
        tracer.add(*span)
    m = tracer.layer_metrics([])
    assert m["dc.self_s"] == pytest.approx(5.0)
    assert m["lattice.self_s"] == pytest.approx(2.75)
    assert m["pc.self_s"] == pytest.approx(0.25)
    assert m["structure.self_s"] == pytest.approx(2.0)
    assert m["lattice.all_subgroups.s"] == pytest.approx(3.0)
    assert m["core.flat_table.s"] == pytest.approx(0.25)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", "smoke", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
