"""Series, centers, generator counts, Sylow splits, regularity."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_groups, corpus_pgroups, lattice_nonp_groups
from dcgroup import constructors as C
from dcgroup import structure as S
from dcgroup.cli import realize_spec
from dcgroup.core import QuotientGroup
from dcgroup.errors import NotAbelian, NotPGroup, ParamOutOfRange, SearchBudgetExceeded
from dcgroup.lattice import (
    all_subgroups,
    closure,
    full_subgroup,
    is_normal,
    maximal_subgroups,
    subgroup_as_group,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def from_corpus(gid: str):
    spec = json.loads((CORPUS / f"{gid}.json").read_text())
    return realize_spec(spec, name=gid)


# -- derived and lower central series ----------------------------------------------


def test_derived_subgroup_examples():
    assert S.derived_subgroup(C.dihedral(8)).order == 2
    assert S.derived_subgroup(C.symmetric(4)).order == 12
    assert S.derived_subgroup(C.sl23()).order == 8
    assert S.derived_subgroup(C.cyclic(12)).is_trivial


def test_derived_subgroup_is_normal():
    for G in (C.symmetric(4), C.sl23(), C.dihedral(16)):
        assert is_normal(G, S.derived_subgroup(G))


def test_derived_series_orders():
    orders = [s.order for s in S.derived_series(C.sl23())]
    assert orders == [24, 8, 2, 1]
    orders = [s.order for s in S.derived_series(C.symmetric(4))]
    assert orders == [24, 12, 4, 1]


def test_derived_length():
    assert S.derived_length(C.cyclic(12)) == 1
    assert S.derived_length(C.dihedral(8)) == 2
    assert S.derived_length(C.symmetric(4)) == 3
    assert S.derived_length(C.sl23()) == 3
    # the derived series of a non-solvable group never reaches 1
    assert S.derived_length(C.alternating(5)) is None


def test_lower_central_series_and_class():
    assert S.nilpotency_class(C.generalized_quaternion(8)) == 2
    assert S.nilpotency_class(C.dihedral(16)) == 3
    assert S.nilpotency_class(C.extraspecial_p3(3, "p")) == 2
    assert S.nilpotency_class(C.cyclic(5)) == 0 or S.nilpotency_class(C.cyclic(5)) == 1
    assert S.nilpotency_class(C.symmetric(4)) is None


def test_lcs_terms_descend_and_are_normal():
    G = C.dihedral(32)
    series = S.lower_central_series(G)
    assert series[0].is_full and series[-1].is_trivial
    for a, b in zip(series, series[1:]):
        assert b <= a
        assert is_normal(G, b)


def test_maximal_class_witnesses():
    for gid in ("mc35a", "mc35b"):
        G = from_corpus(gid)
        assert G.order == 3**5
        assert S.nilpotency_class(G) == 4


# -- center, centralizer, normalizer ------------------------------------------------


def test_center_examples():
    q8 = C.generalized_quaternion(8)
    assert sorted(S.center(q8).ids().tolist()) == [0, 2]
    assert S.center(C.symmetric(4)).is_trivial
    assert S.center(C.extraspecial_p3(3, "p")).order == 3


def test_centralizer_of_transposition_in_s4():
    G = C.symmetric(4)
    t = G.id_of((1, 0, 2, 3))
    assert S.centralizer(G, closure(G, [t])).order == 4


def test_normalizer_of_c4_in_s4():
    G = C.symmetric(4)
    r = G.id_of((1, 2, 3, 0))
    N = S.normalizer(G, closure(G, [r]))
    assert N.order == 8


def test_center_of_subgroup():
    G = C.symmetric(4)
    r = G.id_of((1, 2, 3, 0))
    d8 = S.normalizer(G, closure(G, [r]))
    z = S.center(G, d8)
    assert z.order == 2


def _center_by_definition(G, H) -> list[int]:
    """Members of H that commute with every member of H, read from the table."""
    t = G.np_table()
    h = H.ids()
    block = t[np.ix_(h, h)]
    return h[(block == block.T).all(axis=1)].tolist()


def test_center_of_subgroup_matches_definition():
    """Every subgroup of a few small groups, table and permutation backed."""
    for G in (C.symmetric(4), C.dihedral(16), C.extraspecial_p3(3, "p"), from_corpus("d8")):
        for H in all_subgroups(G):
            assert S.center(G, H).ids().tolist() == _center_by_definition(G, H)


def test_centers_without_a_cayley_table():
    """center, centralizer and fundamental_subgroup beyond TABLE_CAP, where
    every left product goes through the pc kernel, against scalar products."""
    G = from_corpus("group2")
    assert G.np_table() is None
    rng = np.random.default_rng(17)

    def commutes(x: int, gens) -> bool:
        return all(G.mul(x, g) == G.mul(g, x) for g in gens)

    def check(gens, universe: np.ndarray, C) -> None:
        # C: the members of universe commuting with every generator
        assert all(commutes(x, gens) for x in C.ids().tolist())
        outside = universe[~np.isin(universe, C.ids())]
        size = min(200, outside.size)
        for x in rng.choice(outside, size=size, replace=False).tolist():
            assert not commutes(x, gens)

    for M in S.pgroup_maximal_subgroups(G):
        check(M.gens, M.ids(), S.center(G, M))
    everything = np.arange(G.order, dtype=np.int64)
    for g in rng.integers(1, G.order, 3).tolist():
        H = closure(G, [g])
        check(H.gens, everything, S.centralizer(G, H))
    series = S.lower_central_series(G)
    k2, k4 = series[1], series[3]
    k4_ids = set(k4.ids().tolist())
    fund = set(S.fundamental_subgroup(G).ids().tolist())
    for x in rng.integers(0, G.order, 300).tolist():
        want = all(G.commutator(k, x) in k4_ids for k in k2.gens)
        assert (x in fund) == want


# -- frattini, omega, agemo ---------------------------------------------------------


def test_frattini_subgroup():
    assert S.frattini_subgroup(C.dihedral(8)).order == 2
    assert S.frattini_subgroup(C.cyclic(12)).order == 2
    assert S.frattini_subgroup(C.extraspecial_p3(3, "p")).order == 3


def test_frattini_of_the_whole_group_as_a_subgroup():
    # G itself passed as S takes the lattice path when G is not a p-group
    for G, order in ((C.symmetric(3), 1), (C.cyclic(6), 1), (C.cyclic(12), 2)):
        phi = S.frattini_subgroup(G, full_subgroup(G))
        assert phi == S.frattini_subgroup(G)
        assert phi.order == order


def test_proper_non_p_subgroup_raises_not_pgroup():
    G = C.symmetric(4)
    s3 = next(H for H in all_subgroups(G) if H.order == 6)
    with pytest.raises(NotPGroup):
        S.frattini_subgroup(G, s3)
    with pytest.raises(NotPGroup):
        S.min_generators(G, s3)


def test_omega_and_agemo():
    d8 = C.dihedral(8)
    assert S.omega(d8, 1).order == 8
    assert S.agemo(d8, 1).order == 2
    m27 = C.extraspecial_p3(3, "p2")
    assert S.omega(m27, 1).order == 9
    assert S.agemo(m27, 1).order == 3


def test_omega_agemo_need_pgroup():
    with pytest.raises(NotPGroup):
        S.omega(C.cyclic(12), 1)
    with pytest.raises(NotPGroup):
        S.agemo(C.symmetric(4), 1)


# -- generator counts and abelian shape ----------------------------------------------


def test_min_generators():
    assert S.min_generators(C.cyclic(12)) == 1
    assert S.min_generators(C.dihedral(8)) == 2
    assert S.min_generators(C.abelian([2, 2, 2])) == 3
    assert S.min_generators(C.symmetric(4)) == 2
    assert S.min_generators(C.cyclic(1)) == 0


def test_min_generators_budget():
    # rank 3, so every generating pair fails and the budget runs out at k=2
    G = C.abelian([2, 2, 6])
    with pytest.raises(SearchBudgetExceeded):
        S.min_generators(G, budget=10)
    assert S.min_generators(G) == 3


def _unpruned_min_generators(G, budget: int = S.GEN_SEARCH_BUDGET) -> int:
    """The generator-rank search without the G/G' bound: every candidate
    tuple, in the same order and under the same budget, is closed in G."""
    if G.order == 1:
        return 0
    if S.is_pgroup(G) is not None:
        return S.min_generators(G, full_subgroup(G))
    orders = G.element_orders()
    if int(orders.max()) == G.order:
        return 1
    by_order = sorted(range(1, G.order), key=lambda x: (-int(orders[x]), x))
    spent = 0
    for k in (2, 3, 4):
        for combo in S._tuple_stream(by_order, k):
            spent += 1
            if spent > budget:
                raise SearchBudgetExceeded(
                    f"no generating {k}-tuple found within {budget} candidate tuples"
                )
            if closure(G, combo).order == G.order:
                return k
    raise SearchBudgetExceeded(f"generating sets up to size 4 exhausted for {G.name}")


def _outcome(search, G, **kw):
    try:
        return search(G, **kw)
    except SearchBudgetExceeded as e:
        return str(e)


def test_min_generators_matches_unpruned_search():
    """The G/G' bound is exact: the same int, or the budget running out at
    the same k, on the non-p corpus groups up to 360 and the lattice-nonp
    groups."""
    groups = [G for G in corpus_groups(360) if S.is_pgroup(G) is None]
    groups += lattice_nonp_groups().values()
    assert len(groups) >= 20
    for G in groups:
        want = _outcome(_unpruned_min_generators, G)
        assert _outcome(S.min_generators, G) == want, G.name
    # abelian groups, where G/G' is G; C2 x C2 x C6 runs out at k=2 in
    # both with a small budget
    for G in (C.abelian([2, 2, 6]), C.abelian([6, 6])):
        for budget in (10, S.GEN_SEARCH_BUDGET):
            want = _outcome(_unpruned_min_generators, G, budget=budget)
            assert _outcome(S.min_generators, G, budget=budget) == want


def test_min_generators_d8xs4_pins():
    # D8 x S4 has abelianization C2^3, so no pair generates it. The default
    # budget runs out among the triples (the pinned `d: null`); a larger one
    # finds a generating triple.
    G = lattice_nonp_groups()["d8xs4"]
    with pytest.raises(SearchBudgetExceeded, match="no generating 3-tuple"):
        S.min_generators(G)
    assert S.min_generators(G, budget=10**6) == 3


def test_abelian_type_invariant_factors():
    assert S.abelian_type(C.cyclic(12)) == [12]
    assert S.abelian_type(C.abelian([2, 4])) == [2, 4]
    assert S.abelian_type(C.abelian([2, 2, 2])) == [2, 2, 2]
    assert S.abelian_type(C.abelian([3, 9, 3])) == [3, 3, 9]
    # each factor divides the next
    t = S.abelian_type(C.abelian([2, 4, 8]))
    assert all(b % a == 0 for a, b in zip(t, t[1:]))
    # mixed primes, against the constructor's invariant factors
    for invs in ([2, 4, 12], [6, 6], [3, 9, 27], [2, 30], [4, 4, 8], [1]):
        assert S.abelian_type(C.abelian(invs)) == [d for d in invs if d > 1], invs
    # factors not yet in divisor-chain form
    assert S.abelian_type(C.abelian([4, 6])) == [2, 12]
    assert S.abelian_type(C.abelian([9, 2, 3, 4])) == [6, 36]


def test_abelian_type_rejects_nonabelian():
    with pytest.raises(NotAbelian):
        S.abelian_type(C.dihedral(8))


def test_exponent():
    assert S.exponent(C.symmetric(4)) == 12
    assert S.exponent(C.generalized_quaternion(8)) == 4
    assert S.exponent(C.extraspecial_p3(3, "p")) == 3
    assert S.exponent(C.extraspecial_p3(3, "p2")) == 9
    # proper subgroups of S4, by order: A4 has exponent 6, D8 has 4
    G = C.symmetric(4)
    by_order = {H.order: H for H in all_subgroups(G) if H.order in (8, 12)}
    assert S.exponent(G, by_order[12]) == 6
    assert S.exponent(G, by_order[8]) == 4


def test_is_cyclic_and_is_pgroup():
    assert S.is_cyclic(C.cyclic(12))
    assert not S.is_cyclic(C.abelian([2, 2]))
    assert S.is_pgroup(C.extraspecial_p3(3, "p")) == (3, 3)
    assert S.is_pgroup(C.symmetric(4)) is None


def test_quotient_exponent_and_cyclicity():
    G = C.dihedral(8)
    top = closure(G, G.generators)
    der = S.derived_subgroup(G)
    triv = closure(G, [])
    assert S.quotient_exponent(G, top, der) == 2
    assert not S.quotient_is_cyclic(G, top, der)
    assert S.quotient_is_cyclic(G, der, triv)


def test_quotient_exponent_matches_built_quotients():
    """Every lower central factor and G/Phi(G) of the corpus p-groups up to 256."""
    groups = corpus_pgroups(256)
    assert len(groups) >= 40
    for G in groups:
        series = S.lower_central_series(G)
        sections = list(zip(series, series[1:]))
        sections.append((full_subgroup(G), S.frattini_subgroup(G)))
        for A, B in sections:
            H, emb = subgroup_as_group(A)
            local = {v: i for i, v in enumerate(emb)}
            Q = QuotientGroup(H, [local[int(v)] for v in B.ids()])
            # the quotient's orders by multiplication rounds, no power map
            want = int(Q._orders_by_rounds().max())
            assert S.quotient_exponent(G, A, B) == want, (G.name, A.order, B.order)


# -- p-group specific ----------------------------------------------------------------


def test_pgroup_maximal_subgroups():
    d8 = C.dihedral(8)
    ms = S.pgroup_maximal_subgroups(d8)
    assert sorted(m.order for m in ms) == [4, 4, 4]
    he3 = C.extraspecial_p3(3, "p")
    assert sorted(m.order for m in S.pgroup_maximal_subgroups(he3)) == [9, 9, 9, 9]


def test_pgroup_maximal_subgroups_of_subgroups_match_lattice():
    """Every subgroup H of order <= 64 of the corpus p-groups up to 2000: the
    maximal subgroups in the parent's ids equal those of the relabeled H's
    own lattice, mapped back through the embedding."""
    groups = corpus_pgroups(2000)
    assert len(groups) >= 50
    checked = 0
    for G in groups:
        for H in all_subgroups(G):
            if H.order > 64:
                continue
            T, emb = subgroup_as_group(H)
            want = sorted(
                tuple(emb[int(v)] for v in M.ids())
                for M in maximal_subgroups(T, all_subgroups(T))
            )
            maximals = S.pgroup_maximal_subgroups(G, H)
            got = [tuple(M.ids().tolist()) for M in maximals]
            assert sorted(got) == want, (G.name, H.order)
            # the generators each one keeps from its construction generate it
            for M in maximals:
                assert closure(G, M.gens).ids().tolist() == M.ids().tolist()
            checked += 1
    assert checked > 1000


def test_pgroup_maximal_subgroups_needs_a_p_subgroup():
    G = C.symmetric(4)
    lat = all_subgroups(G)
    with pytest.raises(NotPGroup):
        S.pgroup_maximal_subgroups(G)
    with pytest.raises(NotPGroup):
        S.pgroup_maximal_subgroups(G, lat.of_order(6)[0])
    assert S.pgroup_maximal_subgroups(G, closure(G, [])) == []
    sylow = lat.of_order(8)[0]
    assert [M.order for M in S.pgroup_maximal_subgroups(G, sylow)] == [4, 4, 4]


def test_sylow_decomposition_examples():
    sp = S.sylow_decomposition(C.sl23(), 2)
    assert sp is not None
    assert sp.sylow.order == 8
    assert sp.complement is not None and sp.complement.order == 3
    assert sp.complement_abelian is True

    sp = S.sylow_decomposition(C.alternating(4), 2)
    assert sp.sylow.order == 4 and sp.complement.order == 3

    # no normal Sylow subgroup at either prime of S4
    assert S.sylow_decomposition(C.symmetric(4), 2) is None
    assert S.sylow_decomposition(C.symmetric(4), 3) is None


def test_fundamental_subgroup_of_maximal_class_witnesses():
    Ga = from_corpus("mc35a")
    G1 = S.fundamental_subgroup(Ga)
    assert G1.order == 81
    Ha, _ = subgroup_as_group(G1)
    assert Ha.is_abelian

    Gb = from_corpus("mc35b")
    G1b = S.fundamental_subgroup(Gb)
    assert G1b.order == 81
    Hb, _ = subgroup_as_group(G1b)
    assert S.derived_subgroup(Hb).order == 3


def test_fundamental_subgroup_needs_maximal_class():
    with pytest.raises(ParamOutOfRange):
        S.fundamental_subgroup(C.dihedral(8))
    with pytest.raises(ParamOutOfRange):
        S.fundamental_subgroup(C.abelian([3, 3]))


def test_is_regular_and_p_abelian():
    assert S.is_regular(C.extraspecial_p3(3, "p")) is True
    assert S.is_regular(C.extraspecial_p3(3, "p2")) is True
    assert S.is_regular(C.dihedral(8)) is False
    assert S.is_regular(C.semidihedral(16)) is False
    assert S.is_p_abelian(C.extraspecial_p3(3, "p")) is True
    assert S.is_p_abelian(C.generalized_quaternion(8)) is False


# -- sampled structural invariants ----------------------------------------------------

POOL = [C.dihedral(16), C.generalized_quaternion(16), C.extraspecial_p3(3, "p2")]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_center_elements_commute_with_everything(data):
    G = data.draw(st.sampled_from(POOL))
    z = data.draw(st.sampled_from(sorted(S.center(G).ids().tolist())))
    x = data.draw(st.integers(min_value=0, max_value=G.order - 1))
    assert G.mul(z, x) == G.mul(x, z)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_derived_subgroup_contains_all_commutators(data):
    G = data.draw(st.sampled_from(POOL))
    D = S.derived_subgroup(G)
    ids = st.integers(min_value=0, max_value=G.order - 1)
    x, y = data.draw(ids), data.draw(ids)
    assert D.contains(G.commutator(x, y))
