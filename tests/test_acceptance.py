"""End-to-end verification gate.

One test per shipped guarantee; `pytest -v` prints one pass/fail line for
each. The heavyweight shared artifact is a corpus-wide claim census built
once per module.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path

import pytest

from dcgroup import constructors as C
from dcgroup.cli import _dumps, main, realize_spec, run_census
from dcgroup.core import perm_from_cycles
from dcgroup.dc import (
    GroupContext,
    dc_2group_predicate,
    is_sublattice,
    witness_property_check,
)
from dcgroup.lattice import all_subgroups, closure, meet, subgroups_brute
from dcgroup.pc import check_consistency
from dcgroup.structure import (
    center,
    derived_subgroup,
    is_cyclic,
    min_generators,
    normalizer,
    pgroup_maximal_subgroups,
    sylow_decomposition,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="module")
def census():
    """Corpus-wide claim census shared by the statistical criteria."""
    return run_census(CORPUS, jobs=4)


def claim_stats(census: dict, slug: str) -> tuple[int, int, int]:
    """(passes, fails, skips) of one claim across all census groups."""
    p = f = s = 0
    for g in census["groups"].values():
        for c in g["claims"]:
            if c["claim"] != slug:
                continue
            if c["status"] == "pass":
                p += 1
            elif c["status"] == "fail":
                f += 1
            else:
                s += 1
    return p, f, s


def assert_claim_holds(census: dict, slug: str, min_passes: int) -> None:
    p, f, s = claim_stats(census, slug)
    assert f == 0, f"{slug}: {f} failing groups"
    assert p >= min_passes, f"{slug}: only {p} passes (expected >= {min_passes})"


def realize(gid: str):
    return realize_spec(json.loads((CORPUS / f"{gid}.json").read_text()), name=gid)


# -- 1: the symmetric-degree-6 counterexample, end to end ---------------------------


def test_c01_s6_derived_family_breaks_chain_and_sublattice(subgroup_classes):
    t0 = time.monotonic()
    b = C.witness_bundle("s6_example")
    G = b.G

    h_der = derived_subgroup(G, b.H)
    assert h_der.order == 18

    flip = G.id_of(perm_from_cycles(6, [(0, 1), (3, 4)]))
    expected = closure(G, list(b.N.ids().tolist()) + [flip])
    assert h_der == expected

    k_der = derived_subgroup(G, b.K)
    assert k_der == b.K

    intersection = meet(h_der, k_der)
    assert intersection.order == 6
    assert normalizer(G, intersection).order == 12

    ctx = GroupContext(G)
    pairs = ctx.derived_pairs
    assert pairs is not None and len(ctx.lattice) == 1455
    assert subgroup_classes(G, ctx.lattice) == 56
    assert not any(d == intersection for _, d in pairs)

    ds = ctx.ds
    assert len(ds.members) == 215
    assert not ds.is_chain
    verdict = is_sublattice(ds, ctx.lattice)
    assert not verdict.ok
    # the intersection witnessed above is exactly a missing meet
    assert any(m == h_der for m in ds.members)
    assert any(m == k_der for m in ds.members)
    assert not any(m == intersection for m in ds.members)

    assert time.monotonic() - t0 < 600


# -- 2: the order-24 chain example ---------------------------------------------------


def test_c02_sl23_chain_and_sylow_split():
    G = C.sl23()
    ctx = GroupContext(G)
    v = ctx.oracle
    assert v.is_dc and v.method == "oracle"

    ds = ctx.ds
    assert ds.is_chain
    assert [m.order for m in ds.members] == [1, 2, 8]

    split = sylow_decomposition(G, 2)
    assert split is not None
    assert split.sylow.order == 8
    assert split.complement is not None and split.complement.order == 3
    assert split.complement_abelian is True


# -- 3: fast two-group test vs oracle ------------------------------------------------


def test_c03_two_group_predicate_matches_oracle(census):
    gids = [
        gid
        for gid, g in census["groups"].items()
        if g["p"] == 2 and g["order"] <= 64
    ]
    assert len(gids) >= 25
    mismatches = []
    for gid in sorted(gids):
        G = realize(gid)
        # separate contexts, so the criterion and the oracle share no cache
        if dc_2group_predicate(GroupContext(G)) != GroupContext(G).is_dc:
            mismatches.append(gid)
    assert mismatches == []


# -- 4: derived-subgroup rank bound at small primes -----------------------------------


def test_c04_derived_rank_bound_small_primes(census):
    assert_claim_holds(census, "dc-derived-rank-at-most-p", min_passes=25)
    assert_claim_holds(census, "dc-derived-rank-p-forces-elementary", min_passes=1)

    checked = 0
    for gid, g in census["groups"].items():
        if g["p"] not in (2, 3, 5):
            continue
        if g["dc"]["method"] != "oracle" or not g["dc"]["is_dc"]:
            continue
        dp = g["invariants"]["dprime_type"]
        assert dp != "nonabelian", gid
        factors = [] if dp == "1" else [int(x) for x in dp.split("x")]
        assert len(factors) <= g["p"], gid
        if len(factors) == g["p"]:
            assert factors == [g["p"]] * g["p"], gid
        checked += 1
    assert checked >= 25


# -- 5: series shape of groups in the class -------------------------------------------


def test_c05_series_and_rank_claims(census):
    assert_claim_holds(census, "dc-lower-central-factors-cyclic", min_passes=25)
    assert_claim_holds(census, "dc-derived-center-intersection-cyclic", min_passes=2)
    assert_claim_holds(census, "dc-derived-center-is-last-term", min_passes=10)
    assert_claim_holds(census, "dc-regular-derived-rank-bound", min_passes=4)
    assert_claim_holds(census, "dc-abelian-maximal-derived-rank-bound", min_passes=20)
    assert_claim_holds(census, "dc-derived-power-index-bound", min_passes=25)


# -- 6: closure under subgroups, quotients, and abelian direct factors ------------------


def test_c06_heredity_and_product_pairs(census):
    assert_claim_holds(census, "dc-hereditary-subgroups", min_passes=50)
    assert_claim_holds(census, "dc-hereditary-quotients", min_passes=50)

    pairs = census["pairs"]
    assert len(pairs) >= 10
    lefts = set()
    for key, claims in pairs.items():
        left, _ = key.split("|", 1)
        lefts.add(left)
        by_name = {c["claim"]: c["status"] for c in claims}
        assert by_name["direct-product-dc-iff"] == "pass", key
    for left in lefts:
        assert not realize(left).is_abelian, left


# -- 7: commutator-calculus lemma suite ------------------------------------------------


def test_c07_commutator_lemma_suite(census):
    assert_claim_holds(census, "minimal-nonabelian-derived-order", min_passes=12)
    assert_claim_holds(census, "twogen-abelian-maximal-center-intersection", min_passes=15)
    assert_claim_holds(census, "single-commutator-image", min_passes=40)
    assert_claim_holds(census, "metabelian-power-commutator-formula", min_passes=35)
    assert_claim_holds(census, "twogen-group-twogen-derived-abelian", min_passes=18)
    assert_claim_holds(census, "lower-central-factor-exponents-descend", min_passes=25)
    assert_claim_holds(census, "class-below-p-forces-regular", min_passes=18)
    assert_claim_holds(census, "regular-power-commutator-iff", min_passes=5)

    # the power-commutator identity runs exhaustively on small groups and on
    # 10^4 sampled pairs above the exhaustive cutoff
    modes = set()
    for g in census["groups"].values():
        for c in g["claims"]:
            if c["claim"] == "metabelian-power-commutator-formula" and c["status"] == "pass":
                modes.add(c["detail"].split(",")[0])
    assert "exhaustive pairs" in modes
    assert "10000 sampled pairs" in modes


# -- 8: the order-5^7 witness -----------------------------------------------------------


def test_c08_order_5e7_witness_properties():
    t0 = time.monotonic()
    b = C.witness_bundle("group2")
    G = b.group
    check_consistency(G.pres)
    assert G.order == 78125

    checks = witness_property_check(GroupContext(G))
    assert all(checks.values()), checks

    assert min_generators(G) == 2
    assert is_cyclic(G, center(G))
    der = derived_subgroup(G)
    assert center(G, der) != der  # non-abelian derived subgroup

    maximals = pgroup_maximal_subgroups(G)
    assert len(maximals) == 6
    small = [M for M in maximals if derived_subgroup(G, M).order == 5]
    assert len(small) == 1
    for M in maximals:
        if M == small[0]:
            continue
        assert is_cyclic(G, center(G, M))

    assert time.monotonic() - t0 < 300


# -- 9: the order-p^7 witness at p = 7 ----------------------------------------------------


def test_c09_order_7e7_witness_properties_and_relations():
    t0 = time.monotonic()
    b = C.witness_bundle("group1", p=7)
    G = b.group
    assert G.order == 823543

    gens = b.gens
    x, a = gens["x"], gens["a"]
    assert G.commutator(x, a) == gens["a1"]
    chain = ["a1", "a2", "a3", "a4", "a5"]
    for lower, upper in zip(chain, chain[1:]):
        assert G.commutator(gens[lower], a) == gens[upper]

    checks = witness_property_check(GroupContext(G))
    assert checks["derived-nonabelian"]
    assert checks["center-cyclic"]
    assert checks["two-generated"]

    assert time.monotonic() - t0 < 1200


# -- 10: solvable depth at small primes ----------------------------------------------------


def test_c10_small_prime_solvable_depth(census):
    assert_claim_holds(census, "dc-small-prime-metabelian", min_passes=30)

    checked = 0
    for gid, g in census["groups"].items():
        if g["p"] not in (2, 3):
            continue
        if g["dc"]["method"] != "oracle" or not g["dc"]["is_dc"]:
            continue
        assert g["invariants"]["dl"] <= 2, gid
        checked += 1
    assert checked >= 25

    g2 = census["groups"]["group2"]
    assert g2["invariants"]["dl"] == 3
    assert g2["invariants"]["dprime_type"] == "nonabelian"
    assert g2["dc"]["is_dc"] is True


# -- 11: determinism and the independent enumerator -----------------------------------------


DETERMINISM_SAMPLE = (
    "c2", "c12", "c3x3", "d8", "d16", "q8", "sd16", "m16", "he3", "m27",
    "pos32", "neg32", "s4", "sl23", "a4", "c4sdc4", "d8xc2", "q8modz",
)


def test_c11_census_determinism_and_brute_enumerator(census, tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    for gid in DETERMINISM_SAMPLE:
        shutil.copy(CORPUS / f"{gid}.json", sub / f"{gid}.json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["census", "--corpus", str(sub), "--jobs", "1", "--out", str(a)]) == 0
    assert main(["census", "--corpus", str(sub), "--jobs", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    small = sorted(
        gid for gid, g in census["groups"].items() if g["order"] <= 48
    )
    assert len(small) >= 30
    for gid in small:
        G = realize(gid)
        fast = {bytes(s.ids().tolist()) for s in all_subgroups(G)}
        brute = {bytes(s.ids().tolist()) for s in subgroups_brute(G)}
        assert fast == brute, gid


# sha256 of the full-corpus `dcgroup census` JSON report, as the command
# writes it; it moves only when a verdict, claim or report field does
CENSUS_SHA256 = "476a18247ab1d3e8c7ad4700d8aee4ecbf6b8ba31d666395e0a849f37f1e1033"


def test_c12_full_census_report_is_pinned(census):
    text = _dumps(census)
    assert text.endswith("\n")
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_SHA256
