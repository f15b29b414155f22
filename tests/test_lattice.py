"""Subgroup closure, lattice enumeration, and lattice operations."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_groups, lattice_nonp_groups, load_script, load_spec
from dcgroup import constructors as C
from dcgroup import lattice as lattice_module
from dcgroup.cli import realize_spec
from dcgroup.core import PermGroup, TableGroup, _grow, perm_from_cycles, prime_power
from dcgroup.dc import GroupContext
from dcgroup.errors import InvalidId, OrderCapExceeded, ParentMismatch
from dcgroup.pc import realize_pc_group
from dcgroup.lattice import (
    LATTICE_CAP,
    Subgroup,
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
from dcgroup.structure import center, centralizer, lower_central_series

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
    cases = [
        (C.symmetric(4), 23),
        # order 8192, under the cap but beyond TABLE_CAP: no Cayley table
        (C.direct_product(C.dihedral(8), C.cyclic(1024)), 10**6),
    ]
    for G, cap in cases:
        with pytest.raises(OrderCapExceeded):
            all_subgroups(G, cap=cap)
        assert GroupContext(G, lattice_cap=cap).lattice is None


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


# -- perfect subgroups --------------------------------------------------------------
# A perfect subgroup is reached only by a join inside the solvable residual D,
# the last term of G's derived series. Besides the corpus A5 and S5 of the
# lattice fingerprint, these groups have D > 1. Counts by order were computed
# with the unfiltered join loop.


def _psl27():
    return PermGroup([[1, 2, 3, 4, 5, 6, 0], [1, 0, 4, 3, 2, 5, 6]], name="psl27")


def _sl25():
    """SL(2,5) as a table group of 2x2 matrices over F5."""

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) % 5 for j in range(2))
            for i in range(2)
        )

    gens = [((1, 1), (0, 1)), ((0, 4), (1, 0))]
    elems = [((1, 0), (0, 1))]
    index = {elems[0]: 0}
    for x in elems:  # elems grows while it is walked
        for g in gens:
            y = mul(x, g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    table = [index[mul(x, y)] for x in elems for y in elems]
    return TableGroup(table, len(elems), [index[g] for g in gens], name="sl25")


def test_lattice_of_a5_matches_brute_enumerator():
    # D = G: every join of two non-normalizing atoms is a case (b) join
    G = C.alternating(5)
    fast = [s.ids().tobytes() for s in all_subgroups(G)]
    brute = [s.ids().tobytes() for s in subgroups_brute(G, cap=60)]
    assert fast == brute


@pytest.mark.parametrize(
    "build, total, by_order",
    [
        (
            _psl27,
            179,
            {1: 1, 2: 21, 3: 28, 4: 35, 6: 28, 7: 8, 8: 21, 12: 14, 21: 8, 24: 14, 168: 1},
        ),
        (
            _sl25,
            76,
            {1: 1, 2: 1, 3: 10, 4: 15, 5: 6, 6: 10, 8: 5, 10: 6, 12: 10, 20: 6, 24: 5, 120: 1},
        ),
    ],
    ids=["psl27", "sl25"],
)
def test_lattice_counts_of_perfect_groups(build, total, by_order):
    G = build()
    L = all_subgroups(G)
    assert len(L) == total
    assert Counter(s.order for s in L) == by_order


def test_lattice_counts_with_a_proper_perfect_residual():
    # D = A5 x 1 < A5 x S3: the perfect subgroups lie in D, the others not
    G = C.direct_product(C.alternating(5), C.symmetric(3))
    by_order = Counter(s.order for s in all_subgroups(G))
    assert sum(by_order.values()) == 628
    assert by_order[60] == 7 and by_order[120] == 3


@pytest.mark.parametrize(
    "name, unfiltered_joins",
    [("d8xs4", 4395), ("c4sdc4|c2x2x2", 26583)],
)
def test_lattice_joins_only_where_a_new_subgroup_can_appear(
    name, unfiltered_joins, monkeypatch
):
    """`_grow` calls of one lattice, bounded by a third of what joining every
    atom orbit outside each representative took."""
    if name == "d8xs4":
        G = lattice_nonp_groups()["d8xs4"]
    else:
        left, right = (realize_spec(load_spec(g), name=g) for g in name.split("|"))
        G = C.direct_product(left, right)
    calls = []

    def counted(*args):
        calls.append(1)
        return _grow(*args)

    monkeypatch.setattr(lattice_module, "_grow", counted)
    all_subgroups(G)
    assert len(calls) <= unfiltered_joins // 3


# sha256 over (order, bitset) of every member of every lattice in the three
# sets of scripts/lattice_fingerprint.py; a change to the lattice code must
# find the same subgroups, member for member.
MEMBER_SET_FINGERPRINT = "34926715e8e5a7ffe283ddd239da4224895f9226995c9f2a474218dddc0573e0"
# the same over (order, bitset, generators): it moves only when the
# generators the members keep change.
LATTICE_FINGERPRINT = "28d0657b1704491a93bc10f8c82fa8824377f536608faefeacd0156a1be3a6c9"


def test_lattice_fingerprint_is_pinned():
    full, member_set = load_script("lattice_fingerprint").fingerprint()
    assert member_set == MEMBER_SET_FINGERPRINT
    assert full == LATTICE_FINGERPRINT


def _plain_orbit(G, gens) -> list[int]:
    """<gens> as sorted ids: the orbit of the identity under scalar G.mul."""
    seen, todo = {0}, [0]
    for x in todo:
        for g in gens:
            y = G.mul(x, g)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return sorted(seen)


def _check_grow(G, B, a) -> None:
    """_grow from B by a against the plain orbit of B's generators and a."""
    member = np.zeros(G.order, dtype=np.bool_)
    member[B.ids()] = True
    before = member.copy()
    mask, reps = _grow(G, member, B.ids(), B.gens + (a,))
    J = _plain_orbit(G, B.gens + (a,))
    assert np.flatnonzero(mask).tolist() == J
    assert len(reps) == len(J) // B.order and reps[0] == 0
    # the representatives lie in J, each in a right coset B t of its own
    cosets = {frozenset(G.mul(b, int(t)) for b in B.ids().tolist()) for t in reps}
    assert len(cosets) == len(reps) and set(map(int, reps)) <= set(J)
    assert np.array_equal(member, before)


@pytest.mark.parametrize("name", ["s4", "d8xc2", "he3", "sl23", "a5", "pos32"])
def test_coset_join_matches_closure(name):
    """R v <a> by right cosets of R over the Cayley table, for every member
    R and zuppo generator a, against a plain orbit over G.mul."""
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
    assert G.flat_table() is not None
    for R in lattice:
        assert _plain_orbit(G, R.gens) == R.ids().tolist()
        for a in zuppos:
            _check_grow(G, R, a)


def _s8_cases():
    G = C.symmetric(8)

    def p(*cycles):
        return G.id_of(perm_from_cycles(8, cycles))

    pairs = [
        ([p((0, 1, 2, 3))], p((0, 1))),  # C4 in S4
        ([p((0, 1, 2)), p((0, 1))], p((3, 4, 5, 6, 7))),  # S3 in S3 x C5
        ([p((0, 1), (2, 3)), p((0, 2), (1, 3))], p((0, 1, 2))),  # V4 in A4
        ([p((0, 1, 2)), p((0, 1), (2, 3))], p((3, 4))),  # A4 in S5
        ([p((0, 1, 2, 3, 4, 5, 6, 7))], p((0, 1))),  # C8 in S8
    ]
    return G, [(closure(G, gens), a) for gens, a in pairs]


def _group2_cases():
    G = C.witness_bundle("group2").group
    series = lower_central_series(G)
    # the terms of order 125, 25 and 5 of the lower central series, each by
    # the generators of the term above it, and Z(G) by each generator of G,
    # which spans an abelian group of order at most 5 times the exponent
    cases = [
        (series[i + 1], a) for i in (2, 3, 4) for a in series[i].gens
    ]
    Z = center(G)
    return G, cases + [(Z, g) for g in G.generators]


@pytest.mark.parametrize("build", [_s8_cases, _group2_cases], ids=["s8", "group2"])
def test_grow_without_a_table_matches_plain_orbit(build):
    """The frontier walk of _grow from B > 1 on groups beyond TABLE_CAP."""
    G, cases = build()
    assert G.np_table() is None
    assert all(B.order > 1 for B, _ in cases)
    for B, a in cases:
        _check_grow(G, B, a)


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


def _class_check_groups() -> list:
    """S4, D8 x C2, He3, SL(2,3), A5, the corpus pos32 and the lattice-nonp
    groups."""
    six = [BUILDERS[name]() for name in ("s4", "d8xc2", "he3", "sl23")]
    six += [C.alternating(5), realize_spec(load_spec("pos32"), name="pos32")]
    return six + list(lattice_nonp_groups().values())


def test_lattice_classes_are_the_conjugacy_classes():
    """Each class is J^t for its conjugators t, by scalar conjugation; it is
    closed under conjugation by G's generators and has |G : N_G(J)| members,
    so it is J's whole class; and the class sizes sum to |lattice|."""
    from dcgroup.structure import normalizer

    for G in _class_check_groups():
        L = all_subgroups(G)
        assert sum(len(c) for c in L.classes) == len(L), G.name
        assert {S.bits for c in L.classes for S in c.members} == {S.bits for S in L}
        for c in L.classes:
            J = c.rep
            assert c.conjugators[0] == 0 and len(c.conjugators) == len(c)
            assert len(c) == G.order // normalizer(G, J).order, G.name
            keys = {S.bits for S in c.members}
            assert len(keys) == len(c)
            for S, t in zip(c.members, c.conjugators):
                ids = J.ids().tolist()
                assert sorted(G.conjugate(x, t) for x in ids) == S.ids().tolist()
                for g in G.generators:
                    moved = sorted(G.conjugate(x, g) for x in S.ids().tolist())
                    assert sum(1 << x for x in moved) in keys


def test_classes_of_one_member_are_the_normal_subgroups():
    """A class has one member exactly when `is_normal` holds for it, on the
    corpus groups up to LATTICE_CAP and the lattice-nonp groups."""
    groups = corpus_groups(LATTICE_CAP) + list(lattice_nonp_groups().values())
    normal = 0
    for G in groups:
        for c in all_subgroups(G).classes:
            for S in c.members:
                assert is_normal(G, S) == (len(c) == 1), (G.name, S.order)
            normal += len(c) == 1
    assert normal >= 500


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
    # Neither S8 nor the corpus group2 (order 5^7, above 2^16) has a Cayley
    # table: every subgroup of either is keyed by its bitset, however it
    # was built.
    G = C.symmetric(8)
    t = G.id_of((1, 0, 2, 3, 4, 5, 6, 7))
    Z = centralizer(G, closure(G, [t]))
    assert Z.order == 1440
    S = closure(G, Z.gens)
    assert S == Z and hash(S) == hash(Z) and len({S, Z}) == 1
    assert 2 ** len(meet(Z, full_subgroup(G)).gens) <= Z.order

    G = C.witness_bundle("group2").group
    assert G.order == 5**7 and G.np_table() is None
    Z = centralizer(G, closure(G, [G.generators[0]]))
    assert 1 < Z.order < G.order
    S = closure(G, Z.gens)
    assert isinstance(S.bits, int) and isinstance(Z.bits, int)
    assert S == Z and hash(S) == hash(Z) and len({S, Z}) == 1

    # subset and membership tests on the bitsets agree with np.isin on the ids
    rng = np.random.default_rng(24)
    seeds = rng.choice(Z.ids(), 3).tolist() + rng.integers(1, G.order, 3).tolist()
    subs = [Z, center(G), full_subgroup(G), *(closure(G, [g]) for g in seeds)]
    verdicts = set()
    for A in subs:
        for B in subs:
            want = bool(np.isin(A.ids(), B.ids()).all())
            assert A.issubset(B) == want
            verdicts.add(want)
        xs = rng.integers(0, G.order, 300)
        assert [A.contains(x) for x in xs.tolist()] == np.isin(xs, A.ids()).tolist()
    assert verdicts == {True, False}


@pytest.mark.parametrize("gid", ["s4", "group2"])
def test_contains_rejects_ids_outside_the_parent(gid):
    """`contains` raises InvalidId for an id outside [0, |G|), as `G.mul`
    does, whatever the parent's order."""
    G = C.symmetric(4) if gid == "s4" else C.witness_bundle("group2").group
    for H in (closure(G, [1]), full_subgroup(G)):
        assert H.contains(0) and H.contains(1)
        for x in (-1, G.order):
            with pytest.raises(InvalidId):
                H.contains(x)


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
