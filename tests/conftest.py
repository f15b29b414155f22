"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from dcgroup.cli import realize_spec
from dcgroup.core import prime_power
from dcgroup.pc import PcPresentation

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"


def load_spec(gid: str) -> dict:
    """Read one corpus spec by file stem."""
    return json.loads((CORPUS / f"{gid}.json").read_text())


def corpus_ids() -> list[str]:
    return sorted(p.stem for p in CORPUS.glob("*.json"))


def corpus_pgroups(max_order: int) -> list:
    """Fresh realizations of the corpus groups of prime-power order <= max_order."""
    groups = (realize_spec(load_spec(gid), name=gid) for gid in corpus_ids())
    return [G for G in groups if G.order <= max_order and prime_power(G.order)]


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
