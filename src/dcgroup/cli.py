"""Batch command line: analyze one group spec or run the corpus census.

Groups enter as JSON spec files. `analyze` realizes one spec, computes the
invariant block and the derived-set verdict, and emits one report.
`census` realizes every spec in a directory, runs the full claim registry
plus the product-pair claims, and emits a combined report; its exit code is
nonzero exactly when some claim fails.

Reports are deterministic: canonical field order, no timestamps, and
timings only on request. Identical inputs produce byte-identical output
regardless of worker count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .constructors import (
    FAMILY_PARAMS,
    SemidirectGroup,
    build_family,
    central_product,
    direct_product,
)
from .core import (
    FiniteGroup,
    PermGroup,
    QuotientGroup,
    TableGroup,
    _pick_generators,
    closure_ids,
    prime_power,
)
from .dc import (
    ERROR,
    FAIL,
    ClaimResult,
    GroupContext,
    auto_pairs,
    census_claims,
    corpus_notes,
    is_sublattice,
    pair_claims,
)
from .errors import DcgroupError, SchemaViolation, SpecParseError
from .lattice import LATTICE_CAP
from .pc import PcPresentation, realize_pc_group
from .structure import abelian_type

__all__ = [
    "parse_group_spec",
    "validate_spec",
    "realize_spec",
    "spec_hash",
    "analyze_group",
    "run_analyze",
    "run_census",
    "main",
]

CSV_COLUMNS = [
    "group_id",
    "order",
    "p",
    "d",
    "cl",
    "dl",
    "dprime_type",
    "is_dc",
    "method",
    "claims_failed",
]

DEFAULT_SEED = 2026


# -- spec parsing ----------------------------------------------------------------

KINDS = (
    "family",
    "perm_gens",
    "cayley",
    "pc",
    "direct",
    "semidirect",
    "central",
    "quotient_of",
)


def _fail(where: str, msg: str):
    raise SchemaViolation(f"{where}: {msg}")


def _want_int(v, where: str, what: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        _fail(where, f"{what} must be an integer, got {v!r}")
    return v


def _want_int_list(v, where: str, what: str) -> list[int]:
    if not isinstance(v, list) or not v:
        _fail(where, f"{what} must be a nonempty array of integers")
    return [_want_int(x, where, f"{what} entry") for x in v]


def _want_keys(obj: dict, where: str, required: set[str], optional: set[str] = frozenset()):
    keys = set(obj) - {"kind"}
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        _fail(where, f"missing fields: {sorted(missing)}")
    if unknown:
        _fail(where, f"unknown fields: {sorted(unknown)}")


def _validate_word(v, where: str, ngens: int, what: str) -> list[list[int]]:
    if not isinstance(v, list):
        _fail(where, f"{what} must be an array of [generator, exponent] pairs")
    out = []
    for item in v:
        if not isinstance(item, list) or len(item) != 2:
            _fail(where, f"{what} entries must be [generator, exponent] pairs")
        g = _want_int(item[0], where, f"{what} generator")
        e = _want_int(item[1], where, f"{what} exponent")
        if not 1 <= g <= ngens:
            _fail(where, f"{what} generator {g} outside 1..{ngens}")
        if e < 1:
            _fail(where, f"{what} exponent {e} must be positive")
        out.append([g, e])
    return out


def validate_spec(obj, where: str = "spec") -> dict:
    """Validate one (possibly nested) group spec object.

    Unknown fields, missing fields, and type errors raise SchemaViolation
    with the offending location. The returned dict is the validated input.
    """
    if not isinstance(obj, dict):
        _fail(where, "spec must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        _fail(where, f"kind must be one of {list(KINDS)}, got {kind!r}")

    if kind == "family":
        name = obj.get("name")
        if not isinstance(name, str) or name not in FAMILY_PARAMS:
            _fail(where, f"unknown family {name!r}; expected one of "
                         f"{sorted(FAMILY_PARAMS)}")
        params = set(FAMILY_PARAMS[name])
        _want_keys(obj, where, {"name"} | params)
        for key in params:
            if key == "invariants":
                _want_int_list(obj[key], where, "invariants")
            elif key == "exponent":
                if obj[key] not in ("p", "p2", "p^2"):
                    _fail(where, f"exponent must be 'p' or 'p2', got {obj[key]!r}")
            else:
                _want_int(obj[key], where, key)
    elif kind == "perm_gens":
        _want_keys(obj, where, {"degree", "gens"})
        degree = _want_int(obj["degree"], where, "degree")
        if not isinstance(obj["gens"], list) or not obj["gens"]:
            _fail(where, "gens must be a nonempty array of permutations")
        for i, g in enumerate(obj["gens"]):
            images = _want_int_list(g, where, f"gens[{i}]")
            if sorted(images) != list(range(degree)):
                _fail(where, f"gens[{i}] is not a permutation of 0..{degree - 1}")
    elif kind == "cayley":
        _want_keys(obj, where, {"table"})
        table = obj["table"]
        if not isinstance(table, list) or not table:
            _fail(where, "table must be a nonempty array of rows")
        n = len(table)
        for i, row in enumerate(table):
            vals = _want_int_list(row, where, f"table row {i}")
            if len(vals) != n or any(not 0 <= v < n for v in vals):
                _fail(where, f"table row {i} must hold {n} ids in 0..{n - 1}")
    elif kind == "pc":
        _want_keys(obj, where, {"orders"}, {"powers", "commutators"})
        orders = _want_int_list(obj["orders"], where, "orders")
        for o in orders:
            if prime_power(o) is None:
                _fail(where, f"relative order {o} is not a prime power")
        ngens = len(orders)
        powers = obj.get("powers", {})
        if not isinstance(powers, dict):
            _fail(where, "powers must be an object keyed by generator index")
        for key, word in powers.items():
            try:
                i = int(key)
            except ValueError:
                i = 0
            if not 1 <= i <= ngens:
                _fail(where, f"powers key {key!r} must name a generator in 1..{ngens}")
            _validate_word(word, where, ngens, f"powers[{key}]")
        comms = obj.get("commutators", {})
        if not isinstance(comms, dict):
            _fail(where, "commutators must be an object keyed by '(j,i)' pairs")
        for key, word in comms.items():
            j, i = _parse_comm_key(key, where)
            if not (1 <= i < j <= ngens):
                _fail(where, f"commutators key {key!r} needs 1 <= i < j <= {ngens}")
            _validate_word(word, where, ngens, f"commutators[{key}]")
    elif kind == "direct" or kind == "central":
        fields = {"left", "right"} | ({"identify"} if kind == "central" else set())
        _want_keys(obj, where, fields)
        validate_spec(obj["left"], f"{where}.left")
        validate_spec(obj["right"], f"{where}.right")
        if kind == "central":
            ident = obj["identify"]
            if not isinstance(ident, list):
                _fail(where, "identify must be an array of [left_id, right_id] pairs")
            for k, pair in enumerate(ident):
                if not isinstance(pair, list) or len(pair) != 2:
                    _fail(where, f"identify[{k}] must be a [left_id, right_id] pair")
                _want_int(pair[0], where, f"identify[{k}] left id")
                _want_int(pair[1], where, f"identify[{k}] right id")
    elif kind == "semidirect":
        _want_keys(obj, where, {"normal", "quotient", "action"})
        validate_spec(obj["normal"], f"{where}.normal")
        validate_spec(obj["quotient"], f"{where}.quotient")
        if not isinstance(obj["action"], list) or not obj["action"]:
            _fail(where, "action must be a nonempty array of permutation arrays")
        for i, arr in enumerate(obj["action"]):
            _want_int_list(arr, where, f"action[{i}]")
    elif kind == "quotient_of":
        _want_keys(obj, where, {"group", "normal"})
        validate_spec(obj["group"], f"{where}.group")
        ids = _want_int_list(obj["normal"], where, "normal")
        if 0 not in ids:
            _fail(where, "normal must contain the identity id 0")
    return obj


def _parse_comm_key(key, where: str) -> tuple[int, int]:
    if isinstance(key, str):
        body = key.strip().removeprefix("(").removesuffix(")")
        parts = [s.strip() for s in body.split(",")]
        if len(parts) == 2:
            try:
                return int(parts[0]), int(parts[1])
            except ValueError:
                pass
    _fail(where, f"commutator key {key!r} must look like '(j,i)'")


def parse_group_spec(path: str | Path) -> dict:
    """Load and validate one spec file, with line/field diagnostics."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise SpecParseError(f"{path}: {e}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    return validate_spec(obj, where=str(path))


def realize_spec(spec: dict, name: str = "") -> FiniteGroup:
    """Build the group a validated spec describes."""
    kind = spec["kind"]
    if kind == "family":
        fam = spec["name"]
        params = {k: spec[k] for k in FAMILY_PARAMS[fam]}
        return build_family(fam, params)
    if kind == "perm_gens":
        return PermGroup(spec["gens"], name=name)
    if kind == "cayley":
        return TableGroup(spec["table"], len(spec["table"]), name=name)
    if kind == "pc":
        orders = tuple(spec["orders"])
        powers = {
            int(k) - 1: [(g - 1, e) for g, e in word]
            for k, word in spec.get("powers", {}).items()
        }
        comms = {}
        for key, word in spec.get("commutators", {}).items():
            j, i = _parse_comm_key(key, "pc spec")
            comms[(j - 1, i - 1)] = [(g - 1, e) for g, e in word]
        pres = PcPresentation(orders, powers, comms)
        return realize_pc_group(pres, name=name)
    if kind == "direct":
        return direct_product(
            realize_spec(spec["left"]), realize_spec(spec["right"]), name=name
        )
    if kind == "central":
        pairs = [(a, b) for a, b in spec["identify"]]
        return central_product(
            realize_spec(spec["left"]), realize_spec(spec["right"]), pairs, name=name
        )
    if kind == "semidirect":
        return SemidirectGroup(
            realize_spec(spec["normal"]),
            realize_spec(spec["quotient"]),
            spec["action"],
            name=name,
        )
    if kind == "quotient_of":
        G = realize_spec(spec["group"])
        ids = sorted(G.check_id(x) for x in spec["normal"])
        what = f"quotient_of: normal ids {spec['normal']}"
        if len(set(ids)) < len(ids):
            raise SchemaViolation(f"{what} repeat an id")
        if closure_ids(G, _pick_generators(G, ids)) != ids:
            raise SchemaViolation(f"{what} are not a subgroup of {G.name}")
        return QuotientGroup(G, ids, name=name)
    raise SchemaViolation(f"unhandled kind {kind!r}")


def spec_hash(spec: dict) -> str:
    """Stable short digest of the canonical spec serialization."""
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# -- report assembly --------------------------------------------------------------


def _json_default(v):
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.bool_):
        return bool(v)
    raise TypeError(f"not JSON serializable: {type(v).__name__}")


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, default=_json_default) + "\n"


def _invariants(ctx: GroupContext) -> dict:
    dp = ctx.derived
    if dp.order == 1:
        dp_type = "1"
    elif ctx.dprime_abelian:
        dp_type = "x".join(str(v) for v in abelian_type(ctx.G, dp))
    else:
        dp_type = "nonabelian"
    return {
        "d": ctx.d,
        "cl": ctx.cl,
        "dl": ctx.dl,
        "exponent": ctx.exponent,
        "dprime_order": dp.order,
        "dprime_type": dp_type,
    }


def _claims_json(claims: list[ClaimResult]) -> list[dict]:
    return [
        {"claim": c.claim, "status": c.status, "detail": c.detail} for c in claims
    ]


def analyze_group(
    G: FiniteGroup,
    spec: dict,
    lattice_cap: int = LATTICE_CAP,
    seed: int = DEFAULT_SEED,
    timings: dict | None = None,
) -> dict:
    """One group's report: invariants, DS(G), the DC verdict and the claims.

    `analyze` and `census` both report this. Beyond the lattice cap the DS
    fields are null and the verdict is the lattice-free one, or
    "undecided" when none applies. With a timings dict, the verdict and
    claim stages record their seconds in it.
    """
    ctx = GroupContext(G, lattice_cap=lattice_cap, seed=seed)
    t0 = time.perf_counter()
    ds = ctx.ds
    t1 = time.perf_counter()
    claims = census_claims(ctx)
    t2 = time.perf_counter()
    # The lattice-free verdict runs after the claims: run before them, it
    # raised the order-7^7 witness's peak RSS by 7 MB.
    verdict = ctx.verdict
    ds_block = {"size": None, "is_chain": None, "is_sublattice": None}
    if ds is not None:
        ds_block = {
            "size": len(ds.members),
            "is_chain": ds.is_chain,
            "is_sublattice": bool(is_sublattice(ds, ctx.lattice)),
        }
    if timings is not None:
        timings.update(
            verdict_s=round(t1 - t0 + time.perf_counter() - t2, 3),
            claims_s=round(t2 - t1, 3),
        )
    return {
        "spec_sha256": spec_hash(spec),
        "order": G.order,
        "p": None if ctx.pn is None else ctx.pn[0],
        "invariants": _invariants(ctx),
        "ds": ds_block,
        "dc": {
            "is_dc": None if verdict is None else verdict.is_dc,
            "method": "undecided" if verdict is None else verdict.method,
        },
        "claims": _claims_json(claims),
    }


def _csv_row(report: dict) -> list:
    inv = report["invariants"]
    dc = report["dc"]
    nfail = sum(1 for c in report["claims"] if c["status"] == FAIL)
    return [
        report["group_id"],
        report["order"],
        "" if report["p"] is None else report["p"],
        "" if inv["d"] is None else inv["d"],
        "" if inv["cl"] is None else inv["cl"],
        "" if inv["dl"] is None else inv["dl"],
        inv["dprime_type"],
        "" if dc["is_dc"] is None else str(dc["is_dc"]).lower(),
        dc["method"],
        nfail,
    ]


def _write_csv(rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    w.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# -- census -----------------------------------------------------------------------


def _census_one(args: tuple) -> tuple[str, dict]:
    """Worker body: realize one spec and analyze it."""
    gid, spec, lattice_cap, seed = args
    return gid, analyze_group(realize_spec(spec, name=gid), spec, lattice_cap, seed)


def _census_pair(args: tuple) -> tuple[str, list[dict]]:
    """Worker body: realize one (G, A) pair of specs and run the pair claims."""
    gid, gspec, aid, aspec, lattice_cap = args
    G = realize_spec(gspec, name=gid)
    A = realize_spec(aspec, name=aid)
    return f"{gid}|{aid}", _claims_json(pair_claims(G, A, lattice_cap=lattice_cap))


def _pair_entry(gid: str, spec: dict) -> tuple[str, int, bool, int | None]:
    """The (id, order, abelian, p) row `auto_pairs` takes, from one realization."""
    G = realize_spec(spec, name=gid)
    pn = prime_power(G.order)
    return gid, G.order, G.is_abelian, pn and pn[0]


def run_census(
    corpus_dir: str | Path,
    lattice_cap: int = LATTICE_CAP,
    jobs: int = 1,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Census every spec file in a directory; returns the report dict.

    Spec files that fail to parse or realize are recorded under "skipped"
    and do not abort the run. Each other spec is realized once up front to
    choose the product pairs; the groups, largest order first, and then the
    pairs run as tasks of one worker pool. The report is independent of the
    job count and of the task order. A worker that dies takes the pool
    down, and raises DcgroupError with no report.
    """
    corpus = Path(corpus_dir)
    if not corpus.is_dir():
        raise SpecParseError(f"{corpus}: not a directory")
    skipped: dict[str, str] = {}
    specs: dict[str, dict] = {}
    entries = []
    for f in sorted(corpus.glob("*.json")):
        gid = f.stem
        try:
            spec = parse_group_spec(f)
        except DcgroupError as e:
            skipped[gid] = f"parse failed: {e}"
            continue
        try:
            entries.append(_pair_entry(gid, spec))
        except DcgroupError as e:
            skipped[gid] = f"realization failed: {e}"
        else:
            specs[gid] = spec

    # largest groups first, so no large row starts last and runs alone
    by_size = sorted(entries, key=lambda e: (-e[1], e[0]))
    group_work = [(gid, specs[gid], lattice_cap, seed) for gid, *_ in by_size]
    pair_work = [
        (gid, specs[gid], aid, specs[aid], lattice_cap)
        for gid, aid in auto_pairs(entries)
    ]
    if jobs > 1 and len(group_work) + len(pair_work) > 1:
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                # Executor.map submits every task at once, so the pairs queue
                # behind the groups and start as soon as a worker is free.
                rows = pool.map(_census_one, group_work)
                pair_rows = pool.map(_census_pair, pair_work)
                results, pairs = dict(rows), dict(pair_rows)
        except BrokenProcessPool as e:
            raise DcgroupError(f"a census worker died: {e}") from e
    else:
        results = dict(map(_census_one, group_work))
        pairs = dict(map(_census_pair, pair_work))

    groups = {gid: results[gid] for gid in sorted(results)}
    note_rows = []
    for gid, row in groups.items():
        pn = prime_power(row["order"])
        note_rows.append((gid, row["p"], pn and pn[1], row["invariants"]["cl"]))

    all_claims = [c for g in groups.values() for c in g["claims"]]
    all_claims += [c for pc_list in pairs.values() for c in pc_list]
    summary = {
        "groups": len(groups),
        "pairs": len(pairs),
        "skipped": len(skipped),
        "claims_passed": sum(c["status"] == "pass" for c in all_claims),
        "claims_failed": sum(c["status"] == FAIL for c in all_claims),
        "claims_skipped": sum(c["status"] == "skipped" for c in all_claims),
    }
    return {
        "tool": {"name": "dcgroup", "version": __version__},
        "lattice_cap": lattice_cap,
        "seed": seed,
        "groups": groups,
        "pairs": pairs,
        "notes": corpus_notes(note_rows),
        "skipped": dict(sorted(skipped.items())),
        "summary": summary,
    }


def _census_csv(report: dict) -> str:
    return _write_csv(
        [_csv_row({"group_id": gid, **g}) for gid, g in report["groups"].items()]
    )


# -- entry points -----------------------------------------------------------------


def _any_broken(claims: list[dict]) -> bool:
    """Whether a claim failed or raised; either makes the command exit 1."""
    return any(c["status"] in (FAIL, ERROR) for c in claims)


def run_analyze(args) -> int:
    gid = Path(args.spec).stem
    spec = parse_group_spec(args.spec)
    t0 = time.perf_counter()
    G = realize_spec(spec, name=gid)
    timings = None
    if args.timings:
        timings = {"realize_s": round(time.perf_counter() - t0, 3)}
    report = {
        "tool": {"name": "dcgroup", "version": __version__},
        "group_id": gid,
        **analyze_group(G, spec, args.lattice_cap, args.seed, timings),
    }
    if timings is not None:
        report["timings"] = timings
    if args.format == "json":
        _emit(_dumps(report), args.out)
    else:
        _emit(_write_csv([_csv_row(report)]), args.out)
    return 1 if _any_broken(report["claims"]) else 0


def run_census_cmd(args) -> int:
    report = run_census(
        args.corpus,
        lattice_cap=args.lattice_cap,
        jobs=args.jobs,
        seed=args.seed,
    )
    if args.format == "json":
        _emit(_dumps(report), args.out)
    else:
        _emit(_census_csv(report), args.out)
    claims = [c for g in report["groups"].values() for c in g["claims"]]
    claims += [c for pair in report["pairs"].values() for c in pair]
    return 1 if _any_broken(claims) else 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dcgroup",
        description="Derived-subgroup chain analysis over group spec files.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--lattice-cap", type=int, default=LATTICE_CAP,
                        help="largest group order enumerated in full; 0 gives "
                             "the lattice-free verdict")
    common.add_argument("--out", default=None, help="write the report here")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for sampled claim checks")

    a = sub.add_parser("analyze", parents=[common],
                       help="analyze one group spec file")
    a.add_argument("--spec", required=True, help="path to a group spec JSON file")
    a.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte-identical reruns)")

    c = sub.add_parser("census", parents=[common],
                       help="run the claim census over a corpus directory")
    c.add_argument("--corpus", required=True, help="directory of spec JSON files")
    c.add_argument("--jobs", type=int, default=1, help="parallel workers")
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    # looked up by name on each call, so rebinding `run_analyze` or
    # `run_census_cmd` on this module (as a tracer does) takes effect
    run = run_analyze if args.command == "analyze" else run_census_cmd
    try:
        return run(args)
    except DcgroupError as e:
        print(f"dcgroup: error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"dcgroup: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
