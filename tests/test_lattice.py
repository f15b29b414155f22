"""Subgroup closure, lattice enumeration, and lattice operations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_groups, lattice_nonp_groups, load_script, load_spec
from dcgroup import constructors as C
from dcgroup.cli import realize_spec
from dcgroup.core import PermGroup, closure_ids, prime_power
from dcgroup.errors import OrderCapExceeded, ParentMismatch
from dcgroup.pc import realize_pc_group
from dcgroup.lattice import (
    LATTICE_CAP,
    Subgroup,
    _coset_join,
    all_subgroups,
    closure,
    full_subgroup,
    is_normal,
    join,
    maximal_subgroups,
    meet,
    normal_closure,
    subgroup_as_group,
    subgroups_brute,
    trivial_subgroup,
)
from dcgroup.structure import centralizer

# Frozen subgroup counts and maximal-subgroup order multisets.
LATTICE_FACTS = {
    "d8": (10, [4, 4, 4]),
    "q8": (6, [4, 4, 4]),
    "c12": (6, [4, 6]),
    "a4": (10, [3, 3, 3, 3, 4]),
    "s4": (30, [6, 6, 6, 6, 8, 8, 8, 12]),
    "sl23": (15, [6, 6, 6, 6, 8]),
    "d16": (19, [8, 8, 8]),
    "he3": (19, [9, 9, 9, 9]),
    "d8xc2": (35, [8, 8, 8, 8, 8, 8, 8]),
    "s5": (156, [12] * 10 + [20] * 6 + [24] * 5 + [60]),
    "a6": (501, [24] * 30 + [36] * 10 + [60] * 12),
}

BUILDERS = {
    "d8": lambda: C.dihedral(8),
    "q8": lambda: C.generalized_quaternion(8),
    "c12": lambda: C.cyclic(12),
    "a4": lambda: C.alternating(4),
    "s4": lambda: C.symmetric(4),
    "sl23": lambda: C.sl23(),
    "d16": lambda: C.dihedral(16),
    "he3": lambda: C.extraspecial_p3(3, "p"),
    "d8xc2": lambda: C.direct_product(C.dihedral(8), C.cyclic(2)),
    "s5": lambda: C.symmetric(5),
    "a6": lambda: C.alternating(6),
}


# -- closure -----------------------------------------------------------------------


def test_closure_of_empty_seed_is_trivial():
    G = C.symmetric(4)
    S = closure(G, [])
    assert S.order == 1 and S.is_trivial


def test_closure_of_generators_is_full():
    G = C.symmetric(4)
    S = closure(G, G.generators)
    assert S.is_full and S.order == 24


def test_closure_contains_inverses_and_products():
    G = C.symmetric(4)
    r = G.id_of((1, 2, 3, 0))
    S = closure(G, [r])
    assert S.order == 4
    ids = set(S.ids().tolist())
    assert all(G.inv(x) in ids and G.mul(x, y) in ids for x in ids for y in ids)


def test_subgroup_comparison_and_sort_key():
    G = C.dihedral(8)
    t = trivial_subgroup(G)
    f = full_subgroup(G)
    assert t <= f and t != f and t < f
    assert t.sort_key() < f.sort_key()
    assert closure(G, G.generators) == f


# -- enumeration -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(LATTICE_FACTS))
def test_all_subgroups_counts(name):
    G = BUILDERS[name]()
    count, max_orders = LATTICE_FACTS[name]
    L = all_subgroups(G)
    assert len(L) == count
    assert sorted(s.order for s in maximal_subgroups(G, L)) == max_orders
    for S in L:
        assert closure(G, S.gens) == S
        assert 2 ** len(S.gens) <= S.order


def test_lattice_is_sorted_and_bounded():
    G = C.symmetric(4)
    L = all_subgroups(G)
    keys = [s.sort_key() for s in L]
    assert keys == sorted(keys)
    assert L.bottom.is_trivial and L.top.is_full
    assert all(G.order % s.order == 0 for s in L)


def test_all_subgroups_respects_order_cap():
    with pytest.raises(OrderCapExceeded):
        all_subgroups(C.symmetric(4), cap=23)


def test_lattice_of_order_matches_lagrange():
    L = all_subgroups(C.cyclic(12))
    # cyclic groups have exactly one subgroup per divisor
    for k in (1, 2, 3, 4, 6, 12):
        assert len(L.of_order(k)) == 1


def test_brute_enumerator_matches_lattice_smoke():
    for name in ("d8", "q8", "c12", "a4", "s4", "d8xc2"):
        G = BUILDERS[name]()
        fast = {bytes(s.ids().tolist()) for s in all_subgroups(G)}
        brute = {bytes(s.ids().tolist()) for s in subgroups_brute(G)}
        assert fast == brute


@pytest.mark.parametrize("name, classes", [("s4", 11), ("s5", 19), ("a6", 22)])
def test_lattice_is_closed_under_conjugation(name, classes, subgroup_classes):
    G = BUILDERS[name]()
    assert subgroup_classes(G, all_subgroups(G)) == classes


def test_brute_enumerator_matches_lattice_on_order_32_grid():
    # Most subgroups of a 2-group are normal, so each class is one subgroup
    # and the normalizer orbits on atoms are as large as they get.
    search = load_script("search_presentations")
    points = 0
    for k, (powers, comms) in enumerate(search.grid_32()):
        pres = search.consistent((2,) * 5, powers, comms)
        if pres is None:
            continue
        points += 1
        G = realize_pc_group(pres)
        fast = {s.ids().tobytes() for s in all_subgroups(G)}
        brute = {s.ids().tobytes() for s in subgroups_brute(G)}
        assert fast == brute, f"grid point {k}"
    assert points == 109


# sha256 over (order, bitset, generators) of every member of every lattice
# in the three sets of scripts/lattice_fingerprint.py; a change to the
# lattice code must build the same lattices, member for member.
LATTICE_FINGERPRINT = "fc702c783c818466a26d3dba7d1097ce337842037617a74a6b0c3ec4609618f6"


def test_lattice_fingerprint_is_pinned():
    assert load_script("lattice_fingerprint").fingerprint() == LATTICE_FINGERPRINT


@pytest.mark.parametrize("name", ["s4", "d8xc2", "he3", "sl23", "a5", "pos32"])
def test_coset_join_matches_closure(name):
    """R v <a> by right cosets of R, for every member R and zuppo generator a."""
    if name == "pos32":
        G = realize_spec(load_spec("pos32"))
    elif name == "a5":
        G = C.alternating(5)
    else:
        G = BUILDERS[name]()
    lattice = all_subgroups(G)
    zuppos = [
        S.gens[0] for S in lattice if len(S.gens) == 1 and prime_power(S.order)
    ]
    for R in lattice:
        r_member = np.zeros(G.order, dtype=np.bool_)
        r_member[R.ids()] = True
        before = r_member.copy()
        for a in zuppos:
            mask, index = _coset_join(G, R, r_member, a)
            J = closure_ids(G, R.gens + (a,))
            assert np.flatnonzero(mask).tolist() == J
            assert index == len(J) // R.order
        assert np.array_equal(r_member, before)


def _all_pairs_maximal_subgroups(lattice) -> list:
    """Proper subgroups that no other proper subgroup strictly contains,
    tested against every member of the lattice."""
    proper = [s for s in lattice if not s.is_full]
    return [
        s
        for s in proper
        if not any(s.order < t.order and t.bits & s.bits == s.bits for t in proper)
    ]


def test_maximal_subgroups_match_all_pairs_definition():
    """The scan against the maximals already found gives the same members
    in the same order, on the corpus groups up to LATTICE_CAP and the
    lattice-nonp groups."""
    groups = corpus_groups(LATTICE_CAP) + list(lattice_nonp_groups().values())
    assert len(groups) >= 70
    found = 0
    for G in groups:
        L = all_subgroups(G)
        got = [(M.order, M.bits, M.gens) for M in maximal_subgroups(G, L)]
        want = [(M.order, M.bits, M.gens) for M in _all_pairs_maximal_subgroups(L)]
        assert got == want, G.name
        found += len(got)
    assert found >= 500


def test_brute_enumerator_cap():
    with pytest.raises(OrderCapExceeded):
        subgroups_brute(C.symmetric(4), cap=10)


# -- meet / join -------------------------------------------------------------------


def test_meet_is_intersection():
    G = C.symmetric(4)
    L = all_subgroups(G)
    a, b = L.of_order(8)[0], L.of_order(12)[0]
    m = meet(a, b)
    assert set(m.ids().tolist()) == set(a.ids().tolist()) & set(b.ids().tolist())


def test_join_is_generated_union():
    G = C.symmetric(4)
    L = all_subgroups(G)
    a, b = L.of_order(2)[0], L.of_order(3)[0]
    j = join(a, b)
    assert a <= j and b <= j
    assert j.order % a.order == 0 and j.order % b.order == 0


def test_one_bitset_rule_without_a_table():
    # S8 has no Cayley table but lies under BITSET_CAP: every subgroup of it
    # carries a bitset, however it was built.
    G = C.symmetric(8)
    t = G.id_of((1, 0, 2, 3, 4, 5, 6, 7))
    Z = centralizer(G, closure(G, [t]))
    assert Z.order == 1440
    S = closure(G, Z.gens)
    assert S == Z and hash(S) == hash(Z) and len({S, Z}) == 1
    assert 2 ** len(meet(Z, full_subgroup(G)).gens) <= Z.order


def test_meet_join_reject_mixed_parents():
    A, B = C.dihedral(8), C.dihedral(8)
    with pytest.raises(ParentMismatch):
        meet(full_subgroup(A), full_subgroup(B))
    with pytest.raises(ParentMismatch):
        join(trivial_subgroup(A), trivial_subgroup(B))


# -- normality ---------------------------------------------------------------------


def test_normal_closure_of_transposition_in_s4():
    G = C.symmetric(4)
    t = G.id_of((1, 0, 2, 3))
    assert normal_closure(G, [t]).is_full


def test_normal_closure_of_double_transposition_is_v4():
    G = C.symmetric(4)
    x = G.id_of((1, 0, 3, 2))
    V = normal_closure(G, [x])
    assert V.order == 4
    assert is_normal(G, V)


def test_is_normal_examples():
    G = C.symmetric(4)
    L = all_subgroups(G)
    a4 = L.of_order(12)[0]
    assert is_normal(G, a4)
    some_s3 = L.of_order(6)[0]
    assert not is_normal(G, some_s3)


def test_subgroup_as_group_relabels():
    G = C.symmetric(4)
    x = G.id_of((1, 0, 3, 2))
    V = normal_closure(G, [x])
    H, embed = subgroup_as_group(V)
    assert H.order == 4 and H.is_abelian
    assert embed[0] == 0 and sorted(embed) == sorted(V.ids().tolist())
    for a in range(4):
        for b in range(4):
            assert embed[H.mul(a, b)] == G.mul(embed[a], embed[b])


# -- sampled properties ------------------------------------------------------------

PROP_POOL = [C.dihedral(16), C.symmetric(4), C.sl23()]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_closure_is_closed(data):
    G = data.draw(st.sampled_from(PROP_POOL))
    seed = data.draw(
        st.lists(st.integers(min_value=0, max_value=G.order - 1), max_size=3)
    )
    S = closure(G, seed)
    ids = set(S.ids().tolist())
    assert 0 in ids and set(seed) <= ids
    assert all(G.inv(x) in ids for x in ids)
    sample = sorted(ids)[:8]
    assert all(G.mul(x, y) in ids for x in sample for y in sample)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_meet_join_absorption(data):
    G = C.dihedral(16)
    L = all_subgroups(G)
    a = data.draw(st.sampled_from(list(L)))
    b = data.draw(st.sampled_from(list(L)))
    assert meet(a, join(a, b)) == a
    assert join(a, meet(a, b)) == a
    assert meet(a, b) <= a and a <= join(a, b)
