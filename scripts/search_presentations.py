#!/usr/bin/env python3
"""Bounded search for the polycyclic presentations shipped in corpus/.

Two rule grids, both anchored on a fixed commutator skeleton with every
remaining power and commutator word drawn from single deeper letters:

  order 32   five generators of order 2, skeleton [g1, g0] = g2
  order 243  five generators of order 3, skeleton [gj, g0] = g(j+1)

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
from itertools import product
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

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


def assemble(skeleton: dict[tuple[int, int], Word],
             comm_slots: dict[tuple[int, int], Word],
             power_slots: dict[int, Word]) -> tuple[dict, dict]:
    comms = dict(skeleton)
    comms.update({k: w for k, w in comm_slots.items() if w})
    powers = {i: w for i, w in power_slots.items() if w}
    return powers, comms


def grid_32():
    """All grid points for the order-32 shape."""
    deep3: list[Word] = [(), ((3, 1),), ((4, 1),)]
    deep4: list[Word] = [(), ((4, 1),)]
    skeleton: dict[tuple[int, int], Word] = {(1, 0): ((2, 1),)}
    for c20, c21, p0, p1, p2 in product(deep3, repeat=5):
        for c30, c31, c32, p3 in product(deep4, repeat=4):
            yield assemble(
                skeleton,
                {(2, 0): c20, (2, 1): c21, (3, 0): c30, (3, 1): c31,
                 (3, 2): c32},
                {0: p0, 1: p1, 2: p2, 3: p3},
            )


def grid_243():
    """All grid points for the order-243 maximal-class shape."""
    g3_or_g4: list[Word] = [(), ((3, 1),), ((3, 2),), ((4, 1),), ((4, 2),)]
    g4_only: list[Word] = [(), ((4, 1),), ((4, 2),)]
    skeleton: dict[tuple[int, int], Word] = {
        (1, 0): ((2, 1),), (2, 0): ((3, 1),), (3, 0): ((4, 1),),
    }
    for c21 in g3_or_g4:
        for c31, c32, p0, p1, p2, p3 in product(g4_only, repeat=6):
            yield assemble(
                skeleton,
                {(2, 1): c21, (3, 1): c31, (3, 2): c32},
                {0: p0, 1: p1, 2: p2, 3: p3},
            )


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
