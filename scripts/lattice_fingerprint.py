#!/usr/bin/env python3
"""Two sha256 digests over the subgroup lattices of three fixed sets of groups.

The full digest covers (order, bitset, generators) of every member of every
lattice, in the lattice's canonical order, so two commits that print the
same full digest build the same lattices member for member, generators
included. The member-set digest covers (order, bitset) only, so two commits
that print the same one find the same subgroups, whatever generators they
keep. The sets:

  corpus  the corpus groups of order <= LATTICE_CAP
  grid    the consistent grid points of scripts/search_presentations.py
  pairs   the direct and central products the census builds for its
          product-pair claims

Usage:
    python3 scripts/lattice_fingerprint.py
"""

import hashlib
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "scripts"))

from search_presentations import consistent, grid_32, grid_243

from dcgroup.cli import realize_spec
from dcgroup.constructors import central_product, direct_product
from dcgroup.core import prime_power
from dcgroup.dc import _central_element_of_order, auto_pairs
from dcgroup.lattice import LATTICE_CAP, all_subgroups
from dcgroup.pc import realize_pc_group


def corpus_groups() -> dict:
    """Every corpus group, by file stem."""
    return {
        f.stem: realize_spec(json.loads(f.read_text()), name=f.stem)
        for f in sorted((REPO / "corpus").glob("*.json"))
    }


def grid_groups() -> list:
    """The consistent grid points, order 32 first, in grid order."""
    out = []
    for rel_orders, grid in (((2,) * 5, grid_32), ((3,) * 5, grid_243)):
        for powers, comms in grid():
            pres = consistent(rel_orders, powers, comms)
            if pres is not None:
                out.append(realize_pc_group(pres))
    return out


def pair_groups(groups: dict) -> list:
    """The products `dc.pair_claims` builds for the census's pairs."""
    entries = []
    for gid, G in groups.items():
        pn = prime_power(G.order)
        entries.append((gid, G.order, G.is_abelian, pn and pn[0]))
    out = []
    for gid, aid in auto_pairs(entries):
        G, A = groups[gid], groups[aid]
        out.append(direct_product(G, A))
        if A.is_abelian:
            p = prime_power(G.order)[0]
            za = _central_element_of_order(G, p)
            zb = _central_element_of_order(A, p)
            if za is not None and zb is not None:
                out.append(central_product(G, A, [(za, zb)]))
    return out


def digest(groups) -> tuple[str, str, int]:
    """(full sha256, member-set sha256, members) over the lattices of the
    groups, in their order."""
    full, sets = hashlib.sha256(), hashlib.sha256()
    members = 0
    for G in groups:
        lattice = all_subgroups(G)
        head = f"group {G.order} {len(lattice)}\n".encode()
        full.update(head)
        sets.update(head)
        for S in lattice:
            key = f"{S.order} {S.bits:x}"
            full.update(f"{key} {S.gens}\n".encode())
            sets.update(f"{key}\n".encode())
        members += len(lattice)
    return full.hexdigest(), sets.hexdigest(), members


def fingerprint(verbose: bool = False) -> tuple[str, str]:
    """(full, member-set) sha256, each over that digest of the three sets;
    verbose prints each set."""
    corpus = corpus_groups()
    sets = {
        "corpus": [G for G in corpus.values() if G.order <= LATTICE_CAP],
        "grid": grid_groups(),
        "pairs": [P for P in pair_groups(corpus) if P.order <= LATTICE_CAP],
    }
    fulls, member_sets = [], []
    for name, groups in sets.items():
        t = time.perf_counter()
        full, member_set, members = digest(groups)
        fulls.append(full)
        member_sets.append(member_set)
        if verbose:
            print(f"{name:6} {len(groups):4} lattices {members:6} members "
                  f"{time.perf_counter() - t:6.2f}s  {full}  {member_set}")
    return tuple(
        hashlib.sha256("".join(d).encode()).hexdigest() for d in (fulls, member_sets)
    )


def main() -> int:
    t0 = time.perf_counter()
    full, member_set = fingerprint(verbose=True)
    print(f"all    {time.perf_counter() - t0:.2f}s  {full}  {member_set}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
