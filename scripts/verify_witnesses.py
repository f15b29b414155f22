#!/usr/bin/env python3
"""Re-derive the three reference witness constructions and check their facts.

Sections:
  s6      degree-6 symmetric group whose derived family is not a chain and
          not a sublattice of the subgroup lattice
  group1  order p^7 witness at a prime p >= 7 (default 7) with the defining
          commutator relations and the property bundle
  group2  fixed order-5^7 witness with two generators of order 25

Both p^7 witnesses are also decided by the maximal-subgroup descent
(`pgroup_descent`), which must find DS(G) a chain of 6 members. It keeps
member arrays and bitsets of |G| ids, so above order 7^7 it is skipped
with that reason.

group1 also runs first as a census row (`cli.analyze_group`) in a child
process, which must find it DC with no claim failed or errored. The row's
seconds and peak resident set are printed against a target of 2 s and
400 MB, which is reported, not checked.

Each line prints ok/FAIL; the exit code is the number of failed checks.
Every section runs in full, the lattice-wide s6 sublattice refutation and
both maximal-subgroup property bundles included.

Usage:
    python3 scripts/verify_witnesses.py
    python3 scripts/verify_witnesses.py --which group1 -p 11
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dcgroup import constructors as C
from dcgroup.core import perm_from_cycles
from dcgroup.dc import (
    GroupContext,
    is_sublattice,
    pgroup_descent,
    witness_property_check,
)
from dcgroup.lattice import closure, meet
from dcgroup.pc import check_consistency
from dcgroup.structure import (
    center,
    derived_subgroup,
    is_cyclic,
    min_generators,
    normalizer,
)

FAILURES = 0
# Largest witness the descent decides here: it holds member arrays and
# bitsets of |G| ids, 310 MB peak at 7^7.
DESCENT_MAX_ORDER = 7**7
# What the census row of group1 should take at p = 11, wall and peak.
ROW_TARGET_S, ROW_TARGET_MB = 2.0, 400

# Child process: realize the spec in argv[1] and analyze it as the census
# does; print the verdict, the failed claims, the seconds and ru_maxrss.
ROW_CHILD = """
import json, resource, sys, time
from dcgroup import cli
spec = json.loads(sys.argv[1])
t0 = time.perf_counter()
report = cli.analyze_group(cli.realize_spec(spec, name="group1"), spec)
print(json.dumps({
    "s": time.perf_counter() - t0,
    "mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "dc": report["dc"],
    "failed": [c["claim"] for c in report["claims"]
               if c["status"] in ("fail", "error")],
}))
"""


def check(label: str, ok: bool, note: str = "") -> None:
    global FAILURES
    if not ok:
        FAILURES += 1
    tag = "ok  " if ok else "FAIL"
    suffix = f"  ({note})" if note else ""
    print(f"  [{tag}] {label}{suffix}")


def section(title: str) -> None:
    print(f"\n== {title} ==")


def verify_descent(G) -> None:
    """The descent's verdict: DC, with |DS(G)| = 6, or a skip above the cap."""
    if G.order > DESCENT_MAX_ORDER:
        print(f"  [skip] descent: |G| = {G.order} exceeds {DESCENT_MAX_ORDER}; "
              "it would hold member arrays and bitsets of |G| ids")
        return
    t0 = time.monotonic()
    v = pgroup_descent(G)
    check("the maximal-subgroup descent finds DS(G) a chain of 6 members",
          v.is_dc and v.ds_size == 6, f"is_dc {v.is_dc}, {v.ds_size} members")
    print(f"  (descent took {time.monotonic() - t0:.1f}s)")


def verify_census_row(pres) -> None:
    """group1's census row in a fresh interpreter, against the row target."""
    def word(w):
        return [[g + 1, e] for g, e in w]

    spec = {
        "kind": "pc",
        "orders": list(pres.rel_orders),
        "powers": {str(i + 1): word(w) for i, w in pres.powers.items()},
        "commutators": {
            f"({j + 1},{i + 1})": word(w) for (j, i), w in pres.commutators.items()
        },
    }
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", ROW_CHILD, json.dumps(spec)],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    if out.returncode:
        check("the census row runs", False,
              f"exit {out.returncode}: {out.stderr.strip()[-300:]}")
        return
    row = json.loads(out.stdout)
    check("the census row finds G DC, and no claim fails or errs",
          row["dc"]["is_dc"] is True and not row["failed"],
          f"{row['dc']}, failed {row['failed']}")
    print(f"  (census row took {row['s']:.1f}s and {row['mb']:.0f} MB ru_maxrss; "
          f"target {ROW_TARGET_S:.0f}s and {ROW_TARGET_MB} MB)")


def verify_s6() -> None:
    section("s6: derived family is neither a chain nor a sublattice")
    b = C.witness_bundle("s6_example")
    G = b.G
    check("|G| = 720", G.order == 720)
    check("N has order 9 and L has order 8", b.N.order == 9 and b.L.order == 8)
    check("H = normalizer of N, order 72", b.H.order == 72)
    check("K has order 60 (copy of the alternating group)", b.K.order == 60)

    h_der = derived_subgroup(G, b.H)
    check("H' has order 18", h_der.order == 18)
    flip = G.id_of(perm_from_cycles(6, [(0, 1), (3, 4)]))
    check("H' = <N, (0 1)(3 4)>",
          h_der == closure(G, list(b.N.ids().tolist()) + [flip]))
    k_der = derived_subgroup(G, b.K)
    check("K' = K (K is perfect)", k_der == b.K)

    incomparable = not (h_der <= k_der) and not (k_der <= h_der)
    check("H' and K' are incomparable, so the derived family is not a chain",
          incomparable)
    cap = meet(h_der, k_der)
    check("H' meet K' has order 6", cap.order == 6)
    check("its normalizer has order 12", normalizer(G, cap).order == 12)

    t0 = time.monotonic()
    ctx = GroupContext(G)
    check("subgroup lattice has 1455 members", len(ctx.lattice) == 1455)
    ds = ctx.ds
    check("derived family has 215 members", len(ds.members) == 215)
    check("derived family is not a chain", not ds.is_chain)
    verdict = is_sublattice(ds, ctx.lattice)
    check("derived family is not a sublattice", not verdict.ok)
    check("H' and K' are in the family but their meet is not",
          any(m == h_der for m in ds.members)
          and any(m == k_der for m in ds.members)
          and not any(m == cap for m in ds.members))
    pairs = ctx.derived_pairs
    check("no subgroup's derived subgroup equals that meet",
          pairs is not None and not any(d == cap for _, d in pairs))
    print(f"  (lattice work took {time.monotonic() - t0:.1f}s)")


def verify_group1(p: int) -> None:
    section(f"group1: two-generated order {p}^7 witness")
    b = C.witness_bundle("group1", p=p)
    G = b.group
    # before this process builds G's larger tables, so the two peaks do not
    # add up
    verify_census_row(G.pres)
    check(f"presentation is consistent and |G| = {p}**7 = {p ** 7}",
          check_consistency(G.pres) is None and G.order == p ** 7)

    g = b.gens
    check("[x, a] = a1", G.commutator(g["x"], g["a"]) == g["a1"])
    for j in range(1, 5):
        lhs = G.commutator(g[f"a{j}"], g["a"])
        check(f"[a{j}, a] = a{j + 1}", lhs == g[f"a{j + 1}"])
    check("[a5, a] = 1", G.commutator(g["a5"], g["a"]) == 0)

    check("G needs exactly two generators", min_generators(G) == 2)
    check("the center is cyclic", is_cyclic(G, center(G)))
    dp = derived_subgroup(G)
    check(f"G' = <a1..a5> has order {p}**5",
          dp.order == p ** 5 and all(dp.contains(g[f"a{j}"]) for j in range(1, 6)))
    check("G' is non-abelian: [a2, a1] != 1",
          G.commutator(g["a2"], g["a1"]) != 0)

    t0 = time.monotonic()
    props = witness_property_check(GroupContext(G))
    for name, ok in props.items():
        check(name, ok)
    print(f"  (property bundle took {time.monotonic() - t0:.1f}s)")
    verify_descent(G)


def verify_group2() -> None:
    section("group2: order 5^7 witness with generators of order 25")
    b = C.witness_bundle("group2")
    G = b.group
    g = b.gens
    check("presentation is consistent and |G| = 5**7 = 78125",
          check_consistency(G.pres) is None and G.order == 5 ** 7)
    check("a1 has order 25 with a1^5 = a1p",
          G.element_order(g["a1"]) == 25 and G.power(g["a1"], 5) == g["a1p"])
    check("a3 has order 25 with a3^5 = a3p",
          G.element_order(g["a3"]) == 25 and G.power(g["a3"], 5) == g["a3p"])
    for name in ("a2", "a4", "a5", "a1p", "a3p"):
        check(f"{name} has order 5", G.element_order(g[name]) == 5)

    t0 = time.monotonic()
    props = witness_property_check(GroupContext(G))
    for name, ok in props.items():
        check(name, ok)
    print(f"  (property bundle took {time.monotonic() - t0:.1f}s)")
    verify_descent(G)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--which", choices=("s6", "group1", "group2", "all"),
                    default="all")
    ap.add_argument("-p", type=int, default=7,
                    help="prime parameter for group1 (>= 7)")
    args = ap.parse_args()

    if args.which in ("s6", "all"):
        verify_s6()
    if args.which in ("group1", "all"):
        verify_group1(args.p)
    if args.which in ("group2", "all"):
        verify_group2()

    print(f"\n{FAILURES} failed check(s)" if FAILURES else "\nall checks passed")
    return FAILURES


if __name__ == "__main__":
    sys.exit(main())
