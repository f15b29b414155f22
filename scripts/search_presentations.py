#!/usr/bin/env python3
"""Bounded search for the polycyclic presentations shipped in corpus/.

Two rule grids, both anchored on a fixed commutator skeleton with every
remaining power and commutator word drawn from single deeper letters:

  order 32   five generators of order 2, skeleton [g1, g0] = g2
  order 243  five generators of order 3, skeleton [gj, g0] = g(j+1)

The grids are `grid_32` and `grid_243` of perfbench/workloads.py, the
source of the benchmark's pc-stream groups; this script reads them there.

Every grid point is run through the consistency oracle; the consistent
ones are realized and profiled (generator need, nilpotency class, derived
type, chain verdict or fundamental-subgroup type). The script then locates
the profiles the corpus groups pos32, neg32, mc35a, mc35b were picked for
and reports which grid points match the shipped rule sets exactly.

Usage:
    python3 scripts/search_presentations.py            # both grids
    python3 scripts/search_presentations.py --grid 32
    python3 scripts/search_presentations.py --grid 243
"""

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))

from dcgroup.cli import realize_spec
from dcgroup.dc import GroupContext, dc_2group_predicate
from dcgroup.errors import InconsistentPresentation, NotAbelian
from dcgroup.pc import PcPresentation, check_consistency, realize_pc_group
from dcgroup.structure import (
    abelian_type,
    derived_subgroup,
    fundamental_subgroup,
    min_generators,
    nilpotency_class,
)
from workloads import grid_243, grid_32

Word = tuple[tuple[int, int], ...]


def shipped_rules(gid: str) -> tuple[dict, dict]:
    """Normalized (powers, commutators) of a corpus pc presentation."""
    spec = json.loads((REPO / "corpus" / f"{gid}.json").read_text())
    G = realize_spec(spec, name=gid)
    return dict(G.pres.powers), dict(G.pres.commutators)


def consistent(rel_orders: tuple[int, ...], powers: dict, comms: dict):
    try:
        pres = PcPresentation(rel_orders=rel_orders, powers=powers,
                              commutators=comms)
        check_consistency(pres)
    except InconsistentPresentation:
        return None
    return pres


def derived_label(G) -> str:
    dp = derived_subgroup(G)
    try:
        typ = abelian_type(G, dp)
    except NotAbelian:
        return f"order {dp.order} nonabelian"
    return "trivial" if typ == [] else "x".join(map(str, typ))


def rules_repr(pres: PcPresentation) -> str:
    ps = ", ".join(f"g{i}^{pres.rel_orders[i]}={_word(w)}"
                   for i, w in sorted(pres.powers.items()))
    cs = ", ".join(f"[g{j},g{i}]={_word(w)}"
                   for (j, i), w in sorted(pres.commutators.items()))
    return "; ".join(s for s in (ps, cs) if s)


def _word(w: Word) -> str:
    if not w:
        return "1"
    return "*".join(f"g{g}" if e == 1 else f"g{g}^{e}" for g, e in w)


def search(label: str, rel_orders: tuple[int, ...], grid, profile,
           targets: dict[str, str]) -> int:
    t0 = time.monotonic()
    total = 0
    found: list[tuple[str, PcPresentation]] = []
    for powers, comms in grid():
        total += 1
        pres = consistent(rel_orders, powers, comms)
        if pres is not None:
            found.append((profile(pres), pres))
    counts = Counter(prof for prof, _ in found)
    print(f"\n== {label} ==")
    print(f"{total} grid points, {len(found)} consistent, "
          f"{len(counts)} distinct profiles ({time.monotonic() - t0:.1f}s)")
    for prof, n in sorted(counts.items()):
        print(f"  {n:>4} x {prof}")

    bad = 0
    for gid, want in targets.items():
        powers, comms = shipped_rules(gid)
        hits = [prof for prof, pres in found
                if dict(pres.powers) == powers
                and dict(pres.commutators) == comms]
        if not hits:
            print(f"  {gid}: shipped rules NOT found in grid")
            bad += 1
            continue
        ok = hits[0] == want
        bad += 0 if ok else 1
        mark = "ok" if ok else f"MISMATCH (got {hits[0]})"
        print(f"  {gid}: shipped rules found, profile matches target: {mark}")
        print(f"       target profile: {want}")
        matches = [pres for prof, pres in found if prof == want]
        print(f"       grid points sharing that profile: {len(matches)}")
    return bad


def profile_32(pres: PcPresentation) -> str:
    ctx = GroupContext(realize_pc_group(pres))
    G, d, cl = ctx.G, ctx.d, ctx.cl
    dc = dc_2group_predicate(ctx)
    return (f"d={d} cl={cl} G'={derived_label(G)} "
            f"{'chain' if dc else 'not-chain'}")


def profile_243(pres: PcPresentation) -> str:
    G = realize_pc_group(pres)
    d = min_generators(G)
    cl = nilpotency_class(G)
    base = f"d={d} cl={cl} G'={derived_label(G)}"
    if cl != 4:
        return base
    S = fundamental_subgroup(G)
    sder = derived_subgroup(G, S)
    kind = "abelian" if sder.order == 1 else f"|G1'|={sder.order}"
    return f"{base} maximal-class G1-{kind}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", choices=("32", "243", "both"), default="both")
    args = ap.parse_args()

    bad = 0
    if args.grid in ("32", "both"):
        bad += search(
            "order 32, five generators of order 2", (2,) * 5, grid_32,
            profile_32,
            {
                "pos32": "d=2 cl=3 G'=2x2 chain",
                "neg32": "d=3 cl=2 G'=2x2 not-chain",
            },
        )
    if args.grid in ("243", "both"):
        bad += search(
            "order 243, five generators of order 3", (3,) * 5, grid_243,
            profile_243,
            {
                "mc35a": "d=2 cl=4 G'=3x9 maximal-class G1-abelian",
                "mc35b": "d=2 cl=4 G'=3x9 maximal-class G1-|G1'|=3",
            },
        )
    print("\nall target presentations recovered" if bad == 0
          else f"\n{bad} target(s) missing or mismatched")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
