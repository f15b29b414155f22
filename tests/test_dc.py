"""Derived-set computation, chain verdicts, and structural claims."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcgroup.dc as dc_module
from conftest import (
    corpus_groups,
    corpus_ids,
    corpus_pgroups,
    lattice_nonp_groups,
    load_script,
    load_spec,
)
from dcgroup import constructors as C
from dcgroup.cli import _pair_entry, analyze_group, realize_spec
from dcgroup.core import QuotientGroup, prime_power
from dcgroup.dc import (
    CLAIMS,
    DcVerdict,
    GroupContext,
    _central_element_of_order,
    _derived_set,
    auto_pairs,
    census_claims,
    dc_2group_predicate,
    dc_sufficient_conditions,
    is_dc_fast,
    is_sublattice,
    pair_claims,
    pgroup_descent,
    witness_property_check,
)
from dcgroup.errors import NotPGroup, NotTwoGroup
from dcgroup.lattice import LATTICE_CAP, join, meet, subgroup_as_group
from dcgroup.pc import realize_pc_group
from dcgroup.structure import derived_subgroup

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def from_corpus(gid: str):
    return realize_spec(json.loads((CORPUS / f"{gid}.json").read_text()), name=gid)


def ds_of(G):
    return GroupContext(G).ds


def oracle_of(G):
    return GroupContext(G).oracle


def fast_of(G):
    return is_dc_fast(GroupContext(G))


def predicate_of(G):
    return dc_2group_predicate(GroupContext(G))


def conditions_of(G):
    return dc_sufficient_conditions(GroupContext(G))


# -- derived set ---------------------------------------------------------------------


def test_derived_set_of_sl23_is_a_chain():
    ds = ds_of(C.sl23())
    assert [m.order for m in ds.members] == [1, 2, 8]
    assert ds.is_chain
    assert ds.incomparable_witness is None


def test_derived_set_of_s4_is_not_a_chain():
    ds = ds_of(C.symmetric(4))
    assert len(ds.members) == 10
    assert not ds.is_chain
    a, b = ds.incomparable_witness
    assert a.order == 2 and b.order == 2
    assert not a.issubset(b) and not b.issubset(a)


def test_derived_set_members_are_derived_subgroups():
    G = C.symmetric(4)
    ds = ds_of(G)
    for member, witness in zip(ds.members, ds.witnesses):
        H, embed = subgroup_as_group(witness)
        local = derived_subgroup(H)
        assert sorted(embed[x] for x in local.ids().tolist()) == member.ids().tolist()


def test_derived_set_trivial_for_abelian():
    ds = ds_of(C.abelian([2, 4]))
    assert len(ds.members) == 1 and ds.members[0].is_trivial
    assert ds.is_chain


def test_derived_set_of_d8():
    ds = ds_of(C.dihedral(8))
    assert [m.order for m in ds.members] == [1, 2]
    assert ds.is_chain


def test_derived_set_members_unique():
    for G in (C.symmetric(4), C.dihedral(16), C.sl23()):
        ds = ds_of(G)
        keys = {bytes(m.ids().tolist()) for m in ds.members}
        assert len(keys) == len(ds.members)


# -- sublattice verdict --------------------------------------------------------------


def test_chain_is_trivially_a_sublattice():
    ctx = GroupContext(C.sl23())
    v = is_sublattice(ctx.ds, ctx.lattice)
    assert bool(v) and v.ok


def test_s4_derived_set_is_a_sublattice_without_being_a_chain():
    ctx = GroupContext(C.symmetric(4))
    assert not ctx.ds.is_chain
    assert is_sublattice(ctx.ds, ctx.lattice).ok


def test_class_derived_pairs_match_per_member_derived_subgroups():
    """`derived_pairs`, one `derived_subgroup` per class conjugated to its
    members, against `derived_subgroup` of every member: the same bitsets in
    the same order, on S4, D8 x C2, He3, SL(2,3), A5, the corpus pos32 and
    the lattice-nonp groups."""
    groups = [
        C.symmetric(4),
        C.direct_product(C.dihedral(8), C.cyclic(2)),
        C.extraspecial_p3(3, "p"),
        C.sl23(),
        C.alternating(5),
        realize_spec(load_spec("pos32"), name="pos32"),
        *lattice_nonp_groups().values(),
    ]
    for G in groups:
        ctx = GroupContext(G)
        got = [(H.bits, d.bits) for H, d in ctx.derived_pairs]
        want = [(H.bits, derived_subgroup(G, H).bits) for H in ctx.lattice]
        assert got == want, G.name


def _all_pairs_sublattice(ds) -> bool:
    """Every pair of incomparable DS members has its meet and join in DS."""
    keys = {m.bits for m in ds.members}
    for i, a in enumerate(ds.members):
        for b in ds.members[i + 1 :]:
            if a.issubset(b) or b.issubset(a):
                continue
            if meet(a, b).bits not in keys or join(a, b).bits not in keys:
                return False
    return True


def test_sublattice_over_representative_pairs_matches_all_pairs():
    """`is_sublattice`, which pairs only the J' of class representatives J
    with every member, against the all-pairs scan: the same bool on every
    corpus group up to LATTICE_CAP and the lattice-nonp groups. s4xs3's
    DS(G) is not a chain but is a sublattice. A DerivedSet built without
    representatives pairs every member, so it gets the same verdict."""
    groups = corpus_groups(LATTICE_CAP) + list(lattice_nonp_groups().values())
    verdicts = {}
    for G in groups:
        ctx = GroupContext(G)
        got = is_sublattice(ctx.ds, ctx.lattice).ok
        assert got == _all_pairs_sublattice(ctx.ds), G.name
        bare = _derived_set(G, ctx.derived_pairs)
        assert is_sublattice(bare, ctx.lattice).ok == got, G.name
        if not ctx.ds.is_chain:
            verdicts[G.name] = got
    assert verdicts["s4xs3"] is True
    assert set(verdicts.values()) == {True, False}


# -- oracle and fast verdicts -----------------------------------------------------------


def test_oracle_verdicts():
    assert oracle_of(C.generalized_quaternion(8)).is_dc
    assert oracle_of(C.dihedral(8)).is_dc
    assert oracle_of(C.alternating(4)).is_dc
    assert not oracle_of(C.symmetric(4)).is_dc
    assert oracle_of(C.sl23()).is_dc


def test_oracle_reports_method_and_witness():
    v = oracle_of(C.symmetric(4))
    assert v.method == "oracle"
    assert v.ds_size == 10
    assert v.witness is not None


def test_two_group_predicate_known_values():
    assert predicate_of(C.dihedral(8))
    assert predicate_of(C.generalized_quaternion(32))
    assert predicate_of(C.semidihedral(16))
    assert predicate_of(C.cyclic(16))
    assert predicate_of(from_corpus("pos32"))
    assert not predicate_of(from_corpus("neg32"))
    assert not predicate_of(C.direct_product(C.dihedral(8), C.dihedral(8)))


def test_two_group_predicate_rejects_odd_groups():
    with pytest.raises(NotTwoGroup):
        predicate_of(C.extraspecial_p3(3, "p"))
    with pytest.raises(NotTwoGroup):
        predicate_of(C.symmetric(4))


def test_sufficient_conditions_known_values():
    assert conditions_of(C.extraspecial_p3(3, "p")) == {
        "cyclic-derived",
        "abelian-maximal",
    }
    assert conditions_of(C.extraspecial_p3(3, "p2")) == {
        "cyclic-derived",
        "abelian-maximal",
    }
    assert conditions_of(from_corpus("c3wrc3")) == {"abelian-maximal"}
    assert conditions_of(from_corpus("mc35a")) == {"abelian-maximal"}
    assert conditions_of(from_corpus("mc35b")) == {"maximal-class-fundamental"}
    assert conditions_of(C.abelian([3, 3])) == set()


def test_sufficient_conditions_need_pgroup():
    with pytest.raises(NotPGroup):
        conditions_of(C.symmetric(4))


def test_fast_verdict_methods():
    assert fast_of(C.cyclic(12)).method == "abelian-shortcut"
    assert fast_of(C.dihedral(8)).method == "two-group-criterion"
    assert fast_of(from_corpus("neg32")).is_dc is False
    assert fast_of(C.extraspecial_p3(3, "p")).method == "sufficient-cyclic-derived"
    assert fast_of(from_corpus("c3wrc3")).method == "sufficient-abelian-maximal"
    assert fast_of(from_corpus("mc35b")).method == "sufficient-maximal-class"
    # no fast argument applies to a non-nilpotent group
    assert fast_of(C.symmetric(4)) is None


def test_fast_verdict_on_large_witnesses():
    b = C.witness_bundle("group2")
    v = fast_of(b.group)
    assert v is not None and v.is_dc and v.method == "properties-verified"


def test_witness_property_check_group2():
    b = C.witness_bundle("group2")
    checks = witness_property_check(GroupContext(b.group))
    assert checks == {
        "derived-nonabelian": True,
        "center-cyclic": True,
        "two-generated": True,
        "unique-small-derived-maximal": True,
        "other-maximal-centers-cyclic": True,
    }


def test_group2_analysis_builds_maximals_and_bundle_once(monkeypatch):
    calls = {"pgroup_maximal_subgroups": 0, "witness_property_check": 0}

    def counted(name):
        fn = getattr(dc_module, name)

        def run(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(dc_module, name, run)

    for name in calls:
        counted(name)
    G = from_corpus("group2")
    row = analyze_group(G, {"kind": "test"})
    assert calls == {"pgroup_maximal_subgroups": 1, "witness_property_check": 1}
    assert row["dc"] == {"is_dc": True, "method": "properties-verified"}
    bundle = [c for c in row["claims"] if c["claim"] == "large-witness-property-bundle"]
    assert bundle == [{"claim": "large-witness-property-bundle", "status": "pass", "detail": ""}]


def test_group2_analysis_builds_its_lower_central_series_once(monkeypatch):
    """`GroupContext.lcs`, `is_regular` (through `nilpotency_class`) and
    `fundamental_subgroup` all read G's series; it is built once."""
    import dcgroup.structure as structure

    builds = []
    build = structure._central_series

    def counted(G, S):
        builds.append(S.order)
        return build(G, S)

    monkeypatch.setattr(structure, "_central_series", counted)
    G = from_corpus("group2")
    row = analyze_group(G, {"kind": "test"})
    assert builds.count(G.order) == 1
    assert row["invariants"]["cl"] == 6
    assert structure.nilpotency_class(G) == 6 and builds.count(G.order) == 1


# -- the maximal-subgroup descent against the oracle ------------------------------


def _descent_matches_oracle(G) -> bool:
    """`pgroup_descent` against the lattice oracle on one p-group: the same
    `is_dc`, the same `ds_size` on a DC group, and otherwise a witness pair
    of incomparable subgroups. Returns the verdict."""
    got, want = pgroup_descent(G), GroupContext(G).oracle
    assert got.is_dc == want.is_dc, G.name
    if want.is_dc:
        assert got.ds_size == want.ds_size, G.name
    else:
        a, b = got.witness
        assert not a.issubset(b) and not b.issubset(a), G.name
    return want.is_dc


def _grid_groups() -> list:
    """The consistent points of the order-32 and order-243 rule grids."""
    search = load_script("search_presentations")
    out = []
    for rel_orders, grid in (((2,) * 5, search.grid_32), ((3,) * 5, search.grid_243)):
        for powers, comms in grid():
            pres = search.consistent(rel_orders, powers, comms)
            if pres is not None:
                out.append(realize_pc_group(pres))
    return out


def _proper_quotients(G) -> list:
    """G/N for each normal N with 1 < N < G."""
    return [
        QuotientGroup(G, [int(v) for v in c.rep.ids()])
        for c in GroupContext(G).lattice.classes
        if len(c) == 1 and c.rep.order not in (1, G.order)
    ]


def test_descent_matches_oracle_on_pgroups_and_their_quotients():
    """On the 161 non-abelian p-groups (the corpus p-groups up to
    LATTICE_CAP and the consistent grid points) and on every G/N of the DC
    ones among them and of the abelian corpus p-groups."""
    pgroups = corpus_pgroups(LATTICE_CAP) + _grid_groups()
    nonabelian = [G for G in pgroups if not G.is_abelian]
    assert len(nonabelian) == 161
    verdicts = [_descent_matches_oracle(G) for G in nonabelian]
    assert set(verdicts) == {True, False}
    dc = [G for G in pgroups if G.is_abelian]
    dc += [G for G, ok in zip(nonabelian, verdicts) if ok]
    quotients = [Q for G in dc for Q in _proper_quotients(G)]
    assert sum(not Q.is_abelian for Q in quotients) > 400
    # DC passes to quotients, so the descent must find every one DC
    assert all(_descent_matches_oracle(Q) for Q in quotients)


def _census_pair_products() -> list:
    """G x A and, where both sides have a central element of order p, the
    glued G * A, for each pair `auto_pairs` picks from the corpus."""
    specs = {gid: load_spec(gid) for gid in corpus_ids()}
    entries = [_pair_entry(gid, spec) for gid, spec in specs.items()]
    out = []
    for gid, aid in auto_pairs(entries):
        G = realize_spec(specs[gid], name=gid)
        A = realize_spec(specs[aid], name=aid)
        out.append(C.direct_product(G, A))
        p = prime_power(G.order)[0]
        za, zb = _central_element_of_order(G, p), _central_element_of_order(A, p)
        if A.is_abelian and za is not None and zb is not None:
            out.append(C.central_product(G, A, [(za, zb)]))
    return out


def test_descent_matches_oracle_on_census_pair_products():
    products = _census_pair_products()
    assert len(products) == 22
    verdicts = [_descent_matches_oracle(P) for P in products]
    assert verdicts.count(False) == 4


def _descent_wrong_above(monkeypatch, order: int) -> None:
    """Make the descent give the opposite verdict on groups above order."""
    real = dc_module.pgroup_descent

    def flipped(G):
        v = real(G)
        return v if G.order <= order else DcVerdict(not v.is_dc, v.method)

    monkeypatch.setattr(dc_module, "pgroup_descent", flipped)


def test_hereditary_quotients_claim_reads_the_descent(monkeypatch):
    # D16's one quotient that is not abelian is D16/Z = D8
    _descent_wrong_above(monkeypatch, 0)
    results = {r.claim: r for r in census_claims(GroupContext(C.dihedral(16)))}
    r = results["dc-hereditary-quotients"]
    assert (r.status, r.detail) == ("fail", "quotient by normal subgroup of order 2")


def test_direct_product_claim_reads_the_descent(monkeypatch):
    _descent_wrong_above(monkeypatch, 8)
    r = pair_claims(C.dihedral(8), C.cyclic(2))[0]
    assert (r.claim, r.status, r.detail) == (
        "direct-product-dc-iff", "fail", "product verdict False, factors say True"
    )


def test_central_product_claim_reads_the_descent(monkeypatch):
    _descent_wrong_above(monkeypatch, 8)
    r = pair_claims(C.dihedral(8), C.cyclic(4))[1]
    assert (r.claim, r.status, r.detail) == (
        "central-product-dc-iff", "fail", "glued verdict False, left factor True"
    )


# -- claims ------------------------------------------------------------------------


def test_claim_registry_slugs_are_unique():
    slugs = [slug for slug, _ in CLAIMS]
    assert len(slugs) == len(set(slugs))
    assert len(slugs) >= 30


def test_census_claims_zero_failures_on_reference_groups():
    for G in (C.sl23(), C.dihedral(16), C.extraspecial_p3(3, "p"), C.symmetric(4)):
        results = census_claims(GroupContext(G))
        bad = [r for r in results if r.status == "fail"]
        assert not bad, bad


def test_census_claims_fire_for_dc_pgroups():
    results = census_claims(GroupContext(C.dihedral(16)))
    assert sum(r.status == "pass" for r in results) >= 10


def test_census_claims_all_skip_for_s4():
    # not nilpotent and not in the class, so every hypothesis fails
    results = census_claims(GroupContext(C.symmetric(4)))
    assert all(r.status == "skipped" for r in results)
    assert all(r.detail for r in results)


def test_census_claims_statuses_are_deterministic():
    a = [(r.claim, r.status) for r in census_claims(GroupContext(C.dihedral(16), seed=5))]
    b = [(r.claim, r.status) for r in census_claims(GroupContext(C.dihedral(16), seed=5))]
    assert a == b


def test_pair_claims_direct_and_central():
    out = pair_claims(C.dihedral(8), C.cyclic(2))
    by_name = {r.claim: r.status for r in out}
    assert by_name["direct-product-dc-iff"] == "pass"
    assert by_name["central-product-dc-iff"] in ("pass", "skipped")


def test_pair_claims_nonabelian_right_factor():
    out = pair_claims(C.dihedral(8), C.generalized_quaternion(8))
    by_name = {r.claim: r.status for r in out}
    # D8 x Q8 is not in the class, which is exactly what the claim predicts
    assert by_name["direct-product-dc-iff"] == "pass"
    assert by_name["central-product-dc-iff"] == "skipped"


def test_auto_pairs_bounds_and_determinism():
    entries = [
        ("a", 16, False, 2),
        ("b", 2, True, 2),
        ("c", 64, False, 2),
        ("d", 3, True, 3),
        ("e", 129, False, None),
    ]
    picked = auto_pairs(entries)
    assert picked == auto_pairs(entries)
    assert len(picked) <= 12
    orders = {gid: o for gid, o, _, _ in entries}
    for left, right in picked:
        assert orders[left] * orders[right] <= 128
        assert orders[left] <= 64


# -- GroupContext -------------------------------------------------------------------


def test_group_context_caches_and_reports():
    ctx = GroupContext(C.sl23())
    assert ctx.pn is None
    assert not ctx.abelian
    assert ctx.oracle.is_dc
    assert ctx.dl == 3
    assert ctx.cl is None
    assert ctx.d == 2
    assert ctx.exponent == 12
    assert len(ctx.ds.members) == 3


def test_group_context_pgroup_fields():
    ctx = GroupContext(C.extraspecial_p3(3, "p"))
    assert ctx.pn == (3, 3)
    assert ctx.cl == 2 and ctx.dl == 2
    assert ctx.dprime_rank == 1
    assert ctx.regular is True
    assert ctx.minimal_nonabelian
    assert len(ctx.maximals) == 4
    assert ctx.has_abelian_maximal


def test_group_context_sample_pairs_exhaustive_below_cap():
    xs, ys = GroupContext(C.dihedral(8)).sample_pairs(10_000)
    assert len(xs) == len(ys) == 64
    assert sorted(set(zip(xs.tolist(), ys.tolist()))) == [
        (x, y) for x in range(8) for y in range(8)
    ]


def test_group_context_sample_pairs_deterministic_above_cap():
    G = C.direct_product(C.symmetric(4), C.cyclic(6))
    a = GroupContext(G, seed=3).sample_pairs(50)
    b = GroupContext(G, seed=3).sample_pairs(50)
    assert len(a[0]) == 50
    assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()


def test_group_context_sample_pairs_are_pinned():
    # the context's RNG is seeded with (seed, |G|) on the first draw
    G = C.direct_product(C.symmetric(4), C.cyclic(6))
    xs, ys = GroupContext(G, seed=3).sample_pairs(50)
    assert xs[:6].tolist() == [105, 19, 86, 115, 126, 54]
    assert ys[:6].tolist() == [117, 54, 23, 20, 134, 142]


# -- sampled whole-pipeline property -------------------------------------------------

SMALL_POOL = [
    C.dihedral(8),
    C.generalized_quaternion(8),
    C.cyclic(12),
    C.alternating(4),
    C.symmetric(4),
    C.extraspecial_p3(3, "p"),
]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_chain_flag_matches_pairwise_comparability(data):
    G = data.draw(st.sampled_from(SMALL_POOL))
    ds = ds_of(G)
    members = ds.members
    brute = all(
        a.issubset(b) or b.issubset(a) for i, a in enumerate(members) for b in members[i:]
    )
    assert ds.is_chain == brute


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_oracle_agrees_with_fast_path_when_fast_path_speaks(data):
    G = data.draw(st.sampled_from(SMALL_POOL))
    fast = fast_of(G)
    if fast is not None:
        assert fast.is_dc == oracle_of(G).is_dc
