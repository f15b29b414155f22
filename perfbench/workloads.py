"""Seeded workload generator for the dcgroup benchmark.

Each workload is a list of (group_id, spec) pairs, validated with
`dcgroup.cli.validate_spec`. The same seed gives the same specs.
`write_specs` puts them in a directory as spec files, the form the
`dcgroup` command line reads.

  corpus-census  the checked-in corpus minus s6; one `dcgroup census`
  lattice-nonp   seven non-p groups built from `family` and `direct` specs,
                 analyzed one after another in a fixed order, two rounds
  pc-stream      consistent pc presentations from the order-32 and
                 order-243 rule grids, picked and ordered by the seed and
                 analyzed one after another
  smoke          a dozen order-32 presentations, for the benchmark's tests

The first two are fixed sets; their seed reaches only the command line's
`--seed`, which seeds the sampled claim checks.
"""

from __future__ import annotations

import json
import random
from itertools import product
from pathlib import Path

from dcgroup.cli import parse_group_spec, validate_spec
from dcgroup.errors import InconsistentPresentation
from dcgroup.pc import PcPresentation, check_consistency

# s6 alone takes about 113 s of census time; its lattice code path is
# covered by lattice-nonp instead.
CENSUS_EXCLUDED = ("s6",)

PC_STREAM_ORDER32 = 100
SMOKE_ORDER32 = 12


def _family(name: str, **params) -> dict:
    return {"kind": "family", "name": name, **params}


def _direct(left: dict, right: dict) -> dict:
    return {"kind": "direct", "left": left, "right": right}


# Orders 72 to 360; sl23xc3 is the one DC group.
LATTICE_NONP = {
    "a6": _family("alternating", degree=6),
    "s5xc2": _direct(_family("symmetric", degree=5), _family("cyclic", order=2)),
    "d8xs4": _direct(_family("dihedral", order=8), _family("symmetric", degree=4)),
    "s4xs3": _direct(_family("symmetric", degree=4), _family("symmetric", degree=3)),
    "a5xc3": _direct(_family("alternating", degree=5), _family("cyclic", order=3)),
    "s5": _family("symmetric", degree=5),
    "sl23xc3": _direct(_family("sl23"), _family("cyclic", order=3)),
}


# -- pc rule grids ----------------------------------------------------------------
#
# The two grids of scripts/search_presentations.py: a fixed commutator
# skeleton, with every other power and commutator word a single deeper
# letter or trivial. Words are 0-based (generator, exponent) tuples. They
# are copied here so that the benchmark's inputs stay put when the script
# changes; pins.json checks every point the seed can pick.


def _assemble(skeleton: dict, comm_slots: dict, power_slots: dict) -> tuple[dict, dict]:
    comms = dict(skeleton)
    comms.update({k: w for k, w in comm_slots.items() if w})
    powers = {i: w for i, w in power_slots.items() if w}
    return powers, comms


def grid_32():
    """Five generators of order 2 with [g1, g0] = g2."""
    deep3 = [(), ((3, 1),), ((4, 1),)]
    deep4 = [(), ((4, 1),)]
    skeleton = {(1, 0): ((2, 1),)}
    for c20, c21, p0, p1, p2 in product(deep3, repeat=5):
        for c30, c31, c32, p3 in product(deep4, repeat=4):
            yield _assemble(
                skeleton,
                {(2, 0): c20, (2, 1): c21, (3, 0): c30, (3, 1): c31, (3, 2): c32},
                {0: p0, 1: p1, 2: p2, 3: p3},
            )


def grid_243():
    """Five generators of order 3 with [gj, g0] = g(j+1): maximal class."""
    g3_or_g4 = [(), ((3, 1),), ((3, 2),), ((4, 1),), ((4, 2),)]
    g4_only = [(), ((4, 1),), ((4, 2),)]
    skeleton = {(1, 0): ((2, 1),), (2, 0): ((3, 1),), (3, 0): ((4, 1),)}
    for c21 in g3_or_g4:
        for c31, c32, p0, p1, p2, p3 in product(g4_only, repeat=6):
            yield _assemble(
                skeleton,
                {(2, 1): c21, (3, 1): c31, (3, 2): c32},
                {0: p0, 1: p1, 2: p2, 3: p3},
            )


def _pc_spec(rel_orders: tuple[int, ...], powers: dict, comms: dict) -> dict:
    """The 1-based `pc` spec of a 0-based presentation."""
    def word(w):
        return [[g + 1, e] for g, e in w]

    return {
        "kind": "pc",
        "orders": list(rel_orders),
        "powers": {str(i + 1): word(w) for i, w in sorted(powers.items())},
        "commutators": {f"({j + 1},{i + 1})": word(w)
                        for (j, i), w in sorted(comms.items())},
    }


def consistent_grid_specs(p: int) -> list[tuple[str, dict]]:
    """Every consistent grid point of the order-p^5 grid, in grid order."""
    rel_orders, grid = {2: ((2,) * 5, grid_32), 3: ((3,) * 5, grid_243)}[p]
    out = []
    for k, (powers, comms) in enumerate(grid()):
        try:
            check_consistency(PcPresentation(rel_orders, powers, comms))
        except InconsistentPresentation:
            continue
        out.append((f"pc{p ** 5}_{k:04d}", _pc_spec(rel_orders, powers, comms)))
    return out


# -- workloads --------------------------------------------------------------------


def corpus_census(corpus_dir: Path) -> list[tuple[str, dict]]:
    """The corpus minus s6."""
    return [(f.stem, parse_group_spec(f))
            for f in sorted(Path(corpus_dir).glob("*.json"))
            if f.stem not in CENSUS_EXCLUDED]


# The median call is s4xs3, about 1 s. On a busy 2-core host one such call
# took 0.71-1.26 s within a process, so a single round's median read
# 0.65-1.19 s across ten runs of identical work (spread 0.41-0.44). Two
# rounds make it the mean of two s4xs3 calls. A third round did not steady
# the figures against the host's drift and took a run to 70 s.
LATTICE_NONP_ROUNDS = 2


def lattice_nonp() -> list[tuple[str, dict]]:
    """The seven lattice-nonp groups in the order of LATTICE_NONP, repeated
    LATTICE_NONP_ROUNDS times."""
    once = [(gid, validate_spec(json.loads(json.dumps(spec)), gid))
            for gid, spec in LATTICE_NONP.items()]
    return once * LATTICE_NONP_ROUNDS


def pc_stream(seed: int, order32: int = PC_STREAM_ORDER32,
              order243: bool = True) -> list[tuple[str, dict]]:
    """`order32` seeded order-32 presentations plus every order-243 one,
    in a seeded order."""
    rng = random.Random(seed)
    items = rng.sample(consistent_grid_specs(2), order32)
    if order243:
        items += consistent_grid_specs(3)
    rng.shuffle(items)
    return [(gid, validate_spec(spec, gid)) for gid, spec in items]


def generate(workload: str, seed: int, corpus_dir: Path) -> list[tuple[str, dict]]:
    if workload == "corpus-census":
        return corpus_census(corpus_dir)
    if workload == "lattice-nonp":
        return lattice_nonp()
    if workload == "pc-stream":
        return pc_stream(seed)
    if workload == "smoke":
        return pc_stream(seed, order32=SMOKE_ORDER32, order243=False)
    raise ValueError(f"unknown workload {workload!r}")


def write_specs(specs: list[tuple[str, dict]], out_dir: Path) -> list[Path]:
    """Write each spec to <out_dir>/<gid>.json; returns the paths in
    workload order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for gid, spec in specs:
        path = out_dir / f"{gid}.json"
        path.write_text(json.dumps(spec, indent=1) + "\n")
        paths.append(path)
    return paths
