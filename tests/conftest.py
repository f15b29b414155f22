"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from dcgroup.cli import realize_spec
from dcgroup.core import prime_power
from dcgroup.pc import PcPresentation

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"


def load_script(name: str):
    """Import scripts/<name>.py as a module."""
    path = REPO / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spec(gid: str) -> dict:
    """Read one corpus spec by file stem."""
    return json.loads((CORPUS / f"{gid}.json").read_text())


def corpus_ids() -> list[str]:
    return sorted(p.stem for p in CORPUS.glob("*.json"))


def corpus_groups(max_order: int) -> list:
    """Fresh realizations of the corpus groups of order <= max_order."""
    groups = (realize_spec(load_spec(gid), name=gid) for gid in corpus_ids())
    return [G for G in groups if G.order <= max_order]


def corpus_pgroups(max_order: int) -> list:
    """Fresh realizations of the corpus groups of prime-power order <= max_order."""
    return [G for G in corpus_groups(max_order) if prime_power(G.order)]


def _family(name: str, **params) -> dict:
    return {"kind": "family", "name": name, **params}


def _direct(left: dict, right: dict) -> dict:
    return {"kind": "direct", "left": left, "right": right}


# The seven non-p groups of the benchmark's lattice-nonp workload, orders 72
# to 360, in its order.
LATTICE_NONP = {
    "a6": _family("alternating", degree=6),
    "s5xc2": _direct(_family("symmetric", degree=5), _family("cyclic", order=2)),
    "d8xs4": _direct(_family("dihedral", order=8), _family("symmetric", degree=4)),
    "s4xs3": _direct(_family("symmetric", degree=4), _family("symmetric", degree=3)),
    "a5xc3": _direct(_family("alternating", degree=5), _family("cyclic", order=3)),
    "s5": _family("symmetric", degree=5),
    "sl23xc3": _direct(_family("sl23"), _family("cyclic", order=3)),
}


def lattice_nonp_groups() -> dict:
    """Fresh realizations of the lattice-nonp groups, by name."""
    return {gid: realize_spec(spec, name=gid) for gid, spec in LATTICE_NONP.items()}


def order_5_7_pres() -> PcPresentation:
    """A consistent presentation of order 5^7, beyond TABLE_CAP."""
    return PcPresentation(
        (5,) * 7,
        powers={0: [(5, 1)], 2: [(6, 1)]},
        commutators={
            (1, 0): [(2, 1)],
            (2, 1): [(3, 1)],
            (3, 1): [(4, 1)],
            (4, 1): [(5, 1)],
            (3, 0): [(6, 4)],
            (3, 2): [(6, 4)],
            (4, 0): [(6, 4)],
            (5, 1): [(6, 4)],
        },
    )


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


def _subgroup_classes(G, lattice) -> int:
    """Number of conjugacy classes of subgroups in a full lattice of G.

    Conjugates every member by each generator of G and joins the classes of
    the two; asserts that each conjugate is itself a member.
    """
    index = {S.ids().tobytes(): i for i, S in enumerate(lattice)}
    table, inv = G.np_table(), G.inv_vec(np.arange(G.order))
    root = list(range(len(index)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, S in enumerate(lattice):
        for g in G.generators:
            conj = np.sort(table[table[inv[g], S.ids()], g])
            j = index.get(conj.tobytes())
            assert j is not None, f"a conjugate of an order-{S.order} member is missing"
            root[find(i)] = find(j)
    return sum(1 for i in range(len(root)) if find(i) == i)


@pytest.fixture(scope="session")
def subgroup_classes():
    return _subgroup_classes
