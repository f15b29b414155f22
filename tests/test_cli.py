"""Spec files, analyze/census commands, output formats, exit codes."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import load_script
import dcgroup.cli as cli_module
import dcgroup.dc as dc_module
from dcgroup.cli import (
    CSV_COLUMNS,
    _census_one,
    main,
    parse_group_spec,
    realize_spec,
    run_census,
    spec_hash,
    validate_spec,
)
from dcgroup.dc import ClaimResult
from dcgroup.errors import (
    BadPresentation,
    NotAutomorphism,
    SchemaViolation,
    SpecParseError,
)
from dcgroup.lattice import LATTICE_CAP

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


# -- validation ---------------------------------------------------------------------


def test_validate_accepts_every_corpus_file():
    files = sorted(CORPUS.glob("*.json"))
    assert len(files) >= 70
    for f in files:
        parse_group_spec(f)


def test_validate_rejects_unknown_kind():
    with pytest.raises(SchemaViolation, match="kind"):
        validate_spec({"kind": "weird"})


def test_validate_rejects_missing_and_unknown_fields():
    with pytest.raises(SchemaViolation, match="missing"):
        validate_spec({"kind": "family", "name": "cyclic"})
    with pytest.raises(SchemaViolation, match="unknown fields"):
        validate_spec({"kind": "family", "name": "cyclic", "order": 4, "zz": 1})


def test_validate_rejects_unknown_family():
    with pytest.raises(SchemaViolation, match="family"):
        validate_spec({"kind": "family", "name": "frobenius"})


def test_validate_rejects_bad_permutations():
    with pytest.raises(SchemaViolation, match="permutation"):
        validate_spec({"kind": "perm_gens", "degree": 3, "gens": [[0, 0, 1]]})


def test_validate_rejects_ragged_cayley_table():
    with pytest.raises(SchemaViolation, match="row"):
        validate_spec({"kind": "cayley", "table": [[0, 1], [1]]})


def test_validate_rejects_non_prime_power_pc_order():
    with pytest.raises(SchemaViolation, match="prime power"):
        validate_spec({"kind": "pc", "orders": [6, 2], "powers": {}, "commutators": {}})


def test_validate_rejects_bad_pc_keys():
    with pytest.raises(SchemaViolation, match="powers key"):
        validate_spec({"kind": "pc", "orders": [2, 2], "powers": {"0": []}, "commutators": {}})
    with pytest.raises(SchemaViolation, match="commutators key"):
        validate_spec(
            {"kind": "pc", "orders": [2, 2], "powers": {}, "commutators": {"(1,1)": []}}
        )


def test_validate_rejects_quotient_without_identity():
    with pytest.raises(SchemaViolation, match="identity"):
        validate_spec(
            {
                "kind": "quotient_of",
                "group": {"kind": "family", "name": "cyclic", "order": 4},
                "normal": [2],
            }
        )


def test_validate_rejects_bad_identify_pairs():
    with pytest.raises(SchemaViolation, match="identify"):
        validate_spec(
            {
                "kind": "central",
                "left": {"kind": "family", "name": "cyclic", "order": 4},
                "right": {"kind": "family", "name": "cyclic", "order": 4},
                "identify": [[2]],
            }
        )


def test_nested_component_errors_name_their_path():
    with pytest.raises(SchemaViolation, match=r"spec\.group"):
        validate_spec(
            {
                "kind": "quotient_of",
                "group": {"kind": "family", "name": "cyclic"},
                "normal": [0],
            }
        )


# -- parsing ------------------------------------------------------------------------


def test_parse_reports_json_position(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text('{"kind": "family",')
    with pytest.raises(SpecParseError, match=r"broken\.json:1:"):
        parse_group_spec(f)


def test_parse_missing_file(tmp_path):
    with pytest.raises(SpecParseError):
        parse_group_spec(tmp_path / "nope.json")


def test_parse_rejects_non_object(tmp_path):
    f = tmp_path / "arr.json"
    f.write_text("[1, 2]")
    with pytest.raises(SchemaViolation, match="object"):
        parse_group_spec(f)


# -- realization --------------------------------------------------------------------

REALIZE_ORDERS = {
    "c12": 12,
    "s3cayley": 6,
    "d10perm": 10,
    "pos32": 32,
    "d8xc2": 16,
    "q8cc4": 16,
    "sl23sd": 24,
    "q8modz": 4,
    "c2wrc4": 64,
}


@pytest.mark.parametrize("gid", sorted(REALIZE_ORDERS))
def test_realize_each_spec_kind(gid):
    spec = parse_group_spec(CORPUS / f"{gid}.json")
    G = realize_spec(spec, name=gid)
    assert G.order == REALIZE_ORDERS[gid]


def test_realize_valid_spec_with_impossible_pc_orders():
    # prime-power relative orders validate but the realizer wants primes
    spec = {"kind": "pc", "orders": [4, 2], "powers": {}, "commutators": {}}
    validate_spec(spec)
    with pytest.raises(BadPresentation):
        realize_spec(spec)


def test_realize_semidirect_with_wrong_action_length():
    bad = {
        "kind": "semidirect",
        "normal": {"kind": "family", "name": "cyclic", "order": 3},
        "quotient": {"kind": "family", "name": "cyclic", "order": 2},
        "action": [[0, 2]],
    }
    validate_spec(bad)
    with pytest.raises(NotAutomorphism):
        realize_spec(bad)


# -- spec hashing -------------------------------------------------------------------


def test_spec_hash_is_stable_and_key_order_free():
    a = {"kind": "family", "name": "cyclic", "order": 12}
    b = {"order": 12, "kind": "family", "name": "cyclic"}
    assert spec_hash(a) == spec_hash(b) == "125d663d452f"
    assert spec_hash({"kind": "family", "name": "cyclic", "order": 13}) != spec_hash(a)


# -- analyze ------------------------------------------------------------------------


def test_analyze_json_report_shape(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["analyze", "--spec", str(CORPUS / "sl23.json"), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["group_id"] == "sl23"
    assert rep["order"] == 24
    assert rep["dc"] == {"is_dc": True, "method": "oracle"}
    assert rep["ds"]["size"] == 3 and rep["ds"]["is_chain"] is True
    assert rep["invariants"]["dl"] == 3
    assert rep["spec_sha256"] == spec_hash(parse_group_spec(CORPUS / "sl23.json"))
    assert all(c["status"] != "fail" for c in rep["claims"])
    assert "timings" not in rep


def test_analyze_csv_golden_lines(capsys):
    assert main(["analyze", "--spec", str(CORPUS / "sl23.json"), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "sl23,24,,2,,3,nonabelian,true,oracle,0"

    assert main(
        ["analyze", "--spec", str(CORPUS / "d8.json"), "--format", "csv",
         "--lattice-cap", "0"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "d8,8,2,2,2,2,2,true,two-group-criterion,0"


def test_analyze_lattice_cap_0_skips_lattice_work(tmp_path):
    out = tmp_path / "r.json"
    rc = main(
        ["analyze", "--spec", str(CORPUS / "d16.json"), "--lattice-cap", "0",
         "--out", str(out)]
    )
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["ds"] == {"size": None, "is_chain": None, "is_sublattice": None}
    assert rep["dc"]["method"] == "two-group-criterion"
    # oracle-dependent claims skip without a lattice
    statuses = {c["claim"]: c["status"] for c in rep["claims"]}
    assert statuses["chain-implies-sublattice"] == "skipped"


def test_analyze_timings_flag(tmp_path):
    out = tmp_path / "r.json"
    rc = main(
        [
            "analyze",
            "--spec",
            str(CORPUS / "q8.json"),
            "--timings",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rep = json.loads(out.read_text())
    assert "timings" in rep and rep["timings"]
    assert all(isinstance(v, float) for v in rep["timings"].values())


def test_analyze_abelian_derived_beyond_relabel_size(tmp_path):
    """C7 acting on C7^6 by one Jordan block: order 7^7, derived subgroup
    abelian of order 7^5, whose type is read without relabeling it."""
    spec = {
        "kind": "pc",
        "orders": [7] * 7,
        "powers": {},
        "commutators": {f"({k},1)": [[k + 1, 1]] for k in range(2, 7)},
    }
    path, out = tmp_path / "c7_c7e6.json", tmp_path / "r.json"
    path.write_text(json.dumps(spec))
    rc = main(["analyze", "--spec", str(path), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["invariants"]["dprime_order"] == 16807
    assert rep["invariants"]["dprime_type"] == "7x7x7x7x7"
    # the p^7 property bundle describes groups with a non-abelian G'
    bundle = next(c for c in rep["claims"] if c["claim"] == "large-witness-property-bundle")
    assert bundle["status"] == "skipped"
    assert bundle["detail"] == "derived subgroup is abelian"


def test_analyze_exit_2_on_bad_inputs(tmp_path, capsys):
    assert main(["analyze", "--spec", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "nope"}')
    assert main(["analyze", "--spec", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error" in err


BAD_CAYLEY = ([[1, 0], [0, 1]], [[0, 0], [0, 1]])


@pytest.mark.parametrize("table", BAD_CAYLEY)
def test_analyze_exit_2_on_non_group_table(tmp_path, capsys, table):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "cayley", "table": table}))
    assert main(["analyze", "--spec", str(bad)]) == 2
    assert "Cayley table" in capsys.readouterr().err


@pytest.mark.parametrize(
    "normal, message",
    [
        ([0, 9], "id 9 outside [0, 4)"),
        ([0, 1], "not a subgroup"),
        ([0, 2, 2], "repeat an id"),
    ],
    ids=["id-outside-group", "not-a-subgroup", "repeated-id"],
)
def test_analyze_exit_2_on_bad_quotient_ids(tmp_path, capsys, normal, message):
    spec = tmp_path / "quotient.json"
    spec.write_text(json.dumps({
        "kind": "quotient_of",
        "group": {"kind": "family", "name": "cyclic", "order": 4},
        "normal": normal,
    }))
    assert main(["analyze", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]


def test_census_skips_non_group_table(tmp_path):
    # In a child process with a timeout, so a table that loops fails here
    # instead of hanging the suite.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(CORPUS / "d8.json", corpus / "d8.json")
    (corpus / "bad.json").write_text(
        json.dumps({"kind": "cayley", "table": BAD_CAYLEY[0]})
    )
    out = tmp_path / "census.json"
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from dcgroup.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "census", "--corpus", str(corpus),
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(out.read_text())
    assert sorted(rep["groups"]) == ["d8"]
    assert rep["skipped"]["bad"].startswith("realization failed")


def test_python_m_dcgroup_runs_cleanly():
    repo = CORPUS.parent
    path = os.pathsep.join(filter(None, (str(repo / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "dcgroup", "analyze", "--spec", "corpus/d8.json"],
        cwd=repo, env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["order"] == 8


def test_usage_errors_exit_2():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["analyze"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


def test_main_calls_the_command_bound_at_call_time(tmp_path, monkeypatch):
    """`main` builds its parser once, but reads `run_analyze` off the module
    on each call, so a wrapper bound there later (as a tracer binds one)
    sees every call."""
    calls = []
    real = cli_module.run_analyze

    def wrapped(args):
        calls.append(args.spec)
        return real(args)

    spec = str(CORPUS / "q8.json")
    assert main(["analyze", "--spec", spec, "--out", str(tmp_path / "a.json")]) == 0
    monkeypatch.setattr(cli_module, "run_analyze", wrapped)
    for k in range(2):
        assert main(["analyze", "--spec", spec, "--out", str(tmp_path / f"{k}.json")]) == 0
    assert calls == [spec, spec]


# -- census -------------------------------------------------------------------------

SMALL_CORPUS = ("c2", "c12", "d8", "q8", "s3cayley", "a4")


@pytest.fixture()
def small_corpus(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for gid in SMALL_CORPUS:
        shutil.copy(CORPUS / f"{gid}.json", d / f"{gid}.json")
    return d


def test_census_json_report(small_corpus, tmp_path):
    out = tmp_path / "census.json"
    rc = main(["census", "--corpus", str(small_corpus), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert sorted(rep["groups"]) == sorted(SMALL_CORPUS)
    assert rep["summary"]["groups"] == len(SMALL_CORPUS)
    assert rep["summary"]["claims_failed"] == 0
    assert rep["skipped"] == {}
    assert rep["groups"]["d8"]["dc"]["is_dc"] is True
    assert rep["groups"]["d8"]["ds"]["is_chain"] is True


def test_census_is_deterministic_across_jobs(small_corpus, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["census", "--corpus", str(small_corpus), "--out", str(a)]) == 0
    assert main(
        ["census", "--corpus", str(small_corpus), "--jobs", "2", "--out", str(b)]
    ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_census_pairs_in_the_pool_match_serial_run(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for gid in ("d8", "q8", "c2"):
        shutil.copy(CORPUS / f"{gid}.json", corpus / f"{gid}.json")
    # parses, but the realizer wants prime relative orders
    (corpus / "bad.json").write_text('{"kind": "pc", "orders": [4, 2]}\n')
    reports = []
    for jobs in (1, 2):
        out = tmp_path / f"census{jobs}.json"
        rc = main(["census", "--corpus", str(corpus), "--jobs", str(jobs),
                   "--out", str(out)])
        assert rc == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    rep = json.loads(reports[0])
    assert list(rep["skipped"]) == ["bad"]
    assert rep["skipped"]["bad"].startswith("realization failed: ")
    assert list(rep["pairs"]) == [
        "d8|c2", "d8|d8", "d8|q8", "q8|c2", "q8|d8", "q8|q8"
    ]
    assert all(len(claims) == 2 for claims in rep["pairs"].values())
    assert rep["summary"]["claims_failed"] == 0


def test_census_csv_format(small_corpus, tmp_path, capsys):
    rc = main(["census", "--corpus", str(small_corpus), "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(SMALL_CORPUS)
    ids = [ln.split(",")[0] for ln in lines[1:]]
    assert ids == sorted(SMALL_CORPUS)


def test_census_skips_unreadable_specs(small_corpus, tmp_path):
    (small_corpus / "junk.json").write_text("{broken")
    out = tmp_path / "census.json"
    rc = main(["census", "--corpus", str(small_corpus), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert "junk" in rep["skipped"]
    assert rep["summary"]["skipped"] == 1
    assert sorted(rep["groups"]) == sorted(SMALL_CORPUS)


def test_census_empty_corpus_gives_empty_report(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    out = tmp_path / "census.json"
    assert main(["census", "--corpus", str(empty), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["groups"] == {} and rep["summary"]["groups"] == 0


def test_analyze_trivial_group(tmp_path):
    spec = tmp_path / "c1.json"
    spec.write_text('{"kind": "family", "name": "cyclic", "order": 1}\n')
    out = tmp_path / "r.json"
    assert main(["analyze", "--spec", str(spec), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["order"] == 1
    assert rep["ds"]["size"] == 1 and rep["ds"]["is_chain"] is True
    assert rep["dc"]["is_dc"] is True


def test_census_exit_1_on_claim_failure(small_corpus, tmp_path, monkeypatch):
    def doomed(ctx):
        return ClaimResult("always-fails", "fail", "forced by test")

    monkeypatch.setattr(dc_module, "CLAIMS", list(dc_module.CLAIMS) + [("always-fails", doomed)])
    out = tmp_path / "census.json"
    rc = main(["census", "--corpus", str(small_corpus), "--out", str(out)])
    assert rc == 1
    rep = json.loads(out.read_text())
    assert rep["summary"]["claims_failed"] == len(SMALL_CORPUS)


def _dies_on_q8(args):
    """A census worker body that kills its process on q8."""
    if args[0] == "q8":
        os._exit(3)
    return _census_one(args)


def test_census_runs_the_largest_groups_first(tmp_path, monkeypatch):
    """Group rows start by descending order, ties by id; the report still
    lists them by id."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for gid in ("c2", "c12", "d8", "q8"):
        shutil.copy(CORPUS / f"{gid}.json", corpus / f"{gid}.json")
    started = []

    def recorded(args):
        started.append(args[0])
        return _census_one(args)

    monkeypatch.setattr(cli_module, "_census_one", recorded)
    rep = run_census(corpus, jobs=1)
    assert started == ["c12", "d8", "q8", "c2"]
    assert list(rep["groups"]) == ["c12", "c2", "d8", "q8"]


def test_census_worker_death_is_an_error_not_a_claim_failure(
    tmp_path, monkeypatch, capsys
):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for gid in ("c2", "d8", "q8"):
        shutil.copy(CORPUS / f"{gid}.json", corpus / f"{gid}.json")
    # run_census hands the pool whatever cli._census_one is at call time
    monkeypatch.setattr(cli_module, "_census_one", _dies_on_q8)
    out = tmp_path / "census.json"
    rc = main(["census", "--corpus", str(corpus), "--jobs", "2", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("dcgroup: error: a census worker died")
    assert not out.exists()


def test_claim_that_raises_is_an_error_not_an_abort(small_corpus, tmp_path, monkeypatch):
    monkeypatch.setattr(dc_module, "CLAIMS", list(dc_module.CLAIMS))
    dc_module._claim("always-raises")(lambda ctx: 1 // 0)
    try:
        1 // 0
    except ZeroDivisionError as e:
        want = {"claim": "always-raises", "status": "error",
                "detail": f"ZeroDivisionError: {e}"}

    out = tmp_path / "r.json"
    rc = main(["analyze", "--spec", str(small_corpus / "d8.json"), "--out", str(out)])
    assert rc == 1
    rep = json.loads(out.read_text())
    assert rep["claims"][-1] == want
    assert all(c["status"] != "fail" for c in rep["claims"])

    out = tmp_path / "census.json"
    rc = main(["census", "--corpus", str(small_corpus), "--out", str(out)])
    assert rc == 1
    rep = json.loads(out.read_text())
    assert sorted(rep["groups"]) == sorted(SMALL_CORPUS)
    assert all(g["claims"][-1] == want for g in rep["groups"].values())
    assert rep["summary"]["claims_failed"] == 0


def test_run_census_summary_shows_error_claims(tmp_path, capsys):
    summarize = load_script("run_census").summarize
    report = {
        "summary": {"groups": 1, "pairs": 1, "skipped": 0},
        "groups": {"x": {"claims": [
            {"claim": "c-ok", "status": "pass", "detail": ""},
            {"claim": "c-raises", "status": "error", "detail": "ZeroDivisionError: boom"},
        ]}},
        "pairs": {"x|y": [{"claim": "c-fails", "status": "fail", "detail": "witness"}]},
    }
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report))
    summarize(path)
    out = capsys.readouterr().out.splitlines()
    assert "claim checks: 1 pass, 1 fail, 1 error, 0 skip" in out
    marks = {line.split()[0]: line.split()[-1] for line in out if line.startswith("  ")}
    assert marks == {"c-fails": "FAIL", "c-ok": "ok", "c-raises": "ERROR"}
    assert "ERROR x c-raises: ZeroDivisionError: boom" in out
    assert "FAIL x|y c-fails: witness" in out

    # an empty corpus gives a report with no claims at all
    path.write_text(json.dumps({**report, "groups": {}, "pairs": {}}))
    summarize(path)
    assert "claim checks: 0 pass, 0 fail, 0 error, 0 skip" in capsys.readouterr().out


def test_hypothesis_that_raises_is_an_error_not_an_abort(small_corpus, tmp_path, monkeypatch):
    monkeypatch.setattr(dc_module, "CLAIMS", list(dc_module.CLAIMS))
    dc_module._claim("hypothesis-raises", (lambda ctx: 1 // 0, "never shown"))(
        lambda ctx: ("pass", "")
    )
    try:
        1 // 0
    except ZeroDivisionError as e:
        want = {"claim": "hypothesis-raises", "status": "error",
                "detail": f"ZeroDivisionError: {e}"}

    out = tmp_path / "census.json"
    rc = main(["census", "--corpus", str(small_corpus), "--out", str(out)])
    assert rc == 1
    rep = json.loads(out.read_text())
    assert sorted(rep["groups"]) == sorted(SMALL_CORPUS)
    assert all(g["claims"][-1] == want for g in rep["groups"].values())
    assert rep["summary"]["claims_failed"] == 0


def test_pair_claim_that_raises_is_an_error_not_an_abort(small_corpus, tmp_path, monkeypatch):
    def broken(G, p):
        raise RuntimeError("central element lookup broke")

    monkeypatch.setattr(dc_module, "_central_element_of_order", broken)
    out = tmp_path / "census.json"
    rc = main(["census", "--corpus", str(small_corpus), "--jobs", "1", "--out", str(out)])
    assert rc == 1
    rep = json.loads(out.read_text())
    assert sorted(rep["groups"]) == sorted(SMALL_CORPUS)
    assert rep["summary"]["claims_failed"] == 0
    # only an abelian right factor reaches the central-element lookup
    errored = {k for k, claims in rep["pairs"].items()
               if any(c["status"] == "error" for c in claims)}
    assert errored == {"d8|c2", "q8|c2"}
    assert rep["pairs"]["d8|c2"] == [
        {"claim": "direct-product-dc-iff", "status": "pass", "detail": ""},
        {"claim": "central-product-dc-iff", "status": "error",
         "detail": "RuntimeError: central element lookup broke"},
    ]


def test_run_census_api_matches_cli_output(small_corpus, tmp_path):
    out = tmp_path / "census.json"
    main(["census", "--corpus", str(small_corpus), "--out", str(out)])
    rep_cli = json.loads(out.read_text())
    rep_api = run_census(small_corpus)
    assert rep_api["groups"].keys() == rep_cli["groups"].keys()
    assert rep_api["summary"] == rep_cli["summary"]


def test_census_beyond_lattice_cap_exits_0(small_corpus, tmp_path):
    # c12 and a4 lie beyond both caps: the abelian c12 keeps its shortcut
    # verdict and its lattice claims skip instead of crashing the census.
    # At cap 8 the product d8 x c2 lies beyond it, but not the glued d8 * c2;
    # at cap 4 the left pair factor d8 lies beyond it too.
    pair_d8_c2 = {}
    for cap in (8, 4):
        out = tmp_path / f"census{cap}.json"
        rc = main(["census", "--corpus", str(small_corpus), "--lattice-cap",
                   str(cap), "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert sorted(rep["groups"]) == sorted(SMALL_CORPUS)
        assert rep["summary"]["claims_failed"] == 0
        assert rep["groups"]["c12"]["dc"] == {"is_dc": True, "method": "abelian-shortcut"}
        assert rep["groups"]["a4"]["dc"] == {"is_dc": None, "method": "undecided"}
        pair_d8_c2[cap] = [(c["status"], c["detail"]) for c in rep["pairs"]["d8|c2"]]
    assert pair_d8_c2 == {
        8: [("skipped", "product lattice beyond cap"), ("pass", "")],
        4: [("skipped", "left factor lattice beyond cap")] * 2,
    }


@pytest.mark.parametrize("cap", [LATTICE_CAP, 8])
def test_analyze_report_matches_census_row(small_corpus, tmp_path, cap):
    census = run_census(small_corpus, lattice_cap=cap)
    for gid in SMALL_CORPUS:
        out = tmp_path / f"{gid}.json"
        rc = main(["analyze", "--spec", str(small_corpus / f"{gid}.json"),
                   "--lattice-cap", str(cap), "--out", str(out)])
        assert rc == 0, gid
        rep = json.loads(out.read_text())
        assert rep.pop("tool") == census["tool"]
        assert rep.pop("group_id") == gid
        assert rep == census["groups"][gid], gid


def test_order_7_7_census_row_memory():
    """The order-7^7 census row (corpus group1p7, no Cayley table) peaks
    at a bounded multiple of one int64 id vector of |G| entries:
    tracemalloc sees numpy's buffers. The tables the row keeps are about
    5x; the rest is temporaries, which the pc kernels and the center test
    keep BLOCK ids long. Unblocked, the row peaked at 10.5x."""
    spec = parse_group_spec(CORPUS / "group1p7.json")
    tracemalloc.start()
    try:
        _census_one(("group1p7", spec, LATTICE_CAP, cli_module.DEFAULT_SEED))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.0 * 8 * 7**7


def test_run_census_roundup(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for gid in ("q8", "he3", "c6"):
        shutil.copy(CORPUS / f"{gid}.json", corpus / f"{gid}.json")
    rep = run_census(corpus)
    assert sorted(rep["groups"]) == ["c6", "he3", "q8"]
    assert rep["summary"]["claims_failed"] == 0
    assert rep["pairs"]
    assert "maximal-class-3group-order-3^5+" in rep["notes"]
