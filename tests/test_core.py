"""Element backends: permutation groups, Cayley tables, quotients."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcgroup import constructors as C
from dcgroup.core import (
    PERM_DEGREE_CAP,
    PermGroup,
    QuotientGroup,
    TableGroup,
    closure_ids,
    is_perm,
    perm_from_cycles,
    perm_inv,
    perm_mul,
    perm_sign,
    prime_factors,
    prime_power,
    quotient_group,
)
from dcgroup.errors import DegreeMismatch, InvalidId, NotNormal

# Frozen Cayley table of S3 on ids 0..5 (0 = identity).
S3_TABLE = [
    0, 1, 2, 3, 4, 5,
    1, 2, 0, 4, 5, 3,
    2, 0, 1, 5, 3, 4,
    3, 5, 4, 0, 2, 1,
    4, 3, 5, 1, 0, 2,
    5, 4, 3, 2, 1, 0,
]


def s4() -> PermGroup:
    return PermGroup([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")


# -- permutation helpers ---------------------------------------------------------


def test_perm_mul_composes_left_to_right():
    a = (1, 0, 2)
    b = (0, 2, 1)
    # x -> a[x] -> b[a[x]]
    assert perm_mul(a, b) == (2, 0, 1)


def test_perm_inv_round_trip():
    p = (2, 0, 3, 1)
    assert perm_mul(p, perm_inv(p)) == (0, 1, 2, 3)
    assert perm_mul(perm_inv(p), p) == (0, 1, 2, 3)


def test_perm_from_cycles():
    assert perm_from_cycles(4, [(0, 1, 2)]) == (1, 2, 0, 3)
    assert perm_from_cycles(5, [(0, 1), (2, 3)]) == (1, 0, 3, 2, 4)
    assert perm_from_cycles(3, []) == (0, 1, 2)


def test_perm_sign():
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1
    assert perm_sign((0, 1, 2)) == 1


def test_is_perm_rejects_non_bijections():
    assert is_perm((0, 1, 2))
    assert not is_perm((0, 0, 2))
    assert not is_perm((0, 1, 3))


# -- PermGroup -------------------------------------------------------------------


def test_perm_group_s4_order_and_identity():
    G = s4()
    assert G.order == 24
    assert G.perm(0) == (0, 1, 2, 3)
    assert G.inv(0) == 0


def test_perm_group_a4():
    A = PermGroup([(1, 2, 0, 3), (0, 2, 3, 1)], name="A4")
    assert A.order == 12
    assert all(A.sign(x) == 1 for x in A.elements())


def test_perm_group_ids_stable_for_fixed_generators():
    G1, G2 = s4(), s4()
    assert [G1.perm(x) for x in G1.elements()] == [G2.perm(x) for x in G2.elements()]


def test_perm_group_id_of_round_trip():
    G = s4()
    for x in G.elements():
        assert G.id_of(G.perm(x)) == x


def test_perm_group_mixed_degrees_rejected():
    with pytest.raises(DegreeMismatch):
        PermGroup([(1, 0), (0, 2, 1)])


def test_perm_group_degree_cap():
    degree = PERM_DEGREE_CAP + 1
    cyc = tuple(range(1, degree)) + (0,)
    with pytest.raises(DegreeMismatch):
        PermGroup([cyc])


def test_element_orders_s4_histogram():
    G = s4()
    orders = G.element_orders()
    hist = {k: int((orders == k).sum()) for k in (1, 2, 3, 4)}
    assert hist == {1: 1, 2: 9, 3: 8, 4: 6}


def test_element_order_matches_power():
    G = s4()
    for x in G.elements():
        k = G.element_order(x)
        assert G.power(x, k) == 0
        assert all(G.power(x, j) != 0 for j in range(1, k))


# -- TableGroup ------------------------------------------------------------------


def test_table_group_s3():
    G = TableGroup(S3_TABLE, 6, name="S3")
    assert G.order == 6
    assert not G.is_abelian
    assert sorted(G.element_orders().tolist()) == [1, 2, 2, 2, 3, 3]


def test_table_group_size_mismatch():
    with pytest.raises(InvalidId):
        TableGroup([0, 1, 1, 0], 3)


def test_table_group_default_generators_reach_everything():
    G = TableGroup(S3_TABLE, 6)
    assert closure_ids(G, G.generators) == list(range(6))


def test_flat_table_round_trip():
    G = s4()
    t = G.flat_table()
    H = TableGroup(t, G.order)
    assert H.flat_table() == t


# -- QuotientGroup ---------------------------------------------------------------


def test_quotient_by_center_of_q8():
    Q = C.generalized_quaternion(8)
    V = quotient_group(Q, [0, 2])
    assert V.order == 4
    assert V.is_abelian
    assert sorted(V.element_orders().tolist()) == [1, 2, 2, 2]


def test_quotient_by_non_normal_rejected():
    G = s4()
    # a 2-element subgroup generated by a transposition is not normal in S4
    t = G.id_of((1, 0, 2, 3))
    with pytest.raises(NotNormal):
        QuotientGroup(G, [0, t])


def test_quotient_by_trivial_is_relabeled_isomorphism():
    G = TableGroup(S3_TABLE, 6)
    Q = quotient_group(G, [0])
    assert Q.order == G.order
    f = [Q.project(x) for x in G.elements()]
    assert sorted(f) == list(range(6))
    for x in G.elements():
        for y in G.elements():
            assert Q.mul(f[x], f[y]) == f[G.mul(x, y)]


def test_quotient_project_is_homomorphism():
    Q = C.generalized_quaternion(16)
    Z = [0, Q.power(Q.generators[0], 4)]
    H = QuotientGroup(Q, Z)
    assert H.order == 8
    for x in range(Q.order):
        for y in range(Q.order):
            assert H.mul(H.project(x), H.project(y)) == H.project(Q.mul(x, y))


# -- vectorized operations ---------------------------------------------------------


def test_mul_vec_matches_scalar():
    G = s4()
    xs = np.arange(G.order, dtype=np.int64)
    for y in (0, 3, 17):
        assert [G.mul(int(x), y) for x in xs] == G.mul_vec(xs, y).tolist()
        assert [G.mul(y, int(x)) for x in xs] == G.lmul_vec(y, xs).tolist()


def test_pow_vec_and_inv_vec_match_scalar():
    G = C.sl23()
    xs = np.arange(G.order, dtype=np.int64)
    for k in (0, 1, 2, 5):
        assert [G.power(int(x), k) for x in xs] == G.pow_vec(xs, k).tolist()
    assert [G.inv(int(x)) for x in xs] == G.inv_vec(xs).tolist()
    with pytest.raises(InvalidId):
        G.pow_vec(xs, -1)


def test_mul_pairwise_vec():
    G = s4()
    xs = np.array([1, 5, 9], dtype=np.int64)
    ys = np.array([2, 0, 9], dtype=np.int64)
    assert G.mul_pairwise_vec(xs, ys).tolist() == [
        G.mul(1, 2), G.mul(5, 0), G.mul(9, 9),
    ]


def test_invalid_ids_rejected():
    G = s4()
    with pytest.raises(InvalidId):
        G.mul(0, 24)
    with pytest.raises(InvalidId):
        G.inv(-1)


# -- closure_ids -------------------------------------------------------------------


def test_closure_ids_trivial_and_full():
    G = s4()
    assert closure_ids(G, []) == [0]
    assert closure_ids(G, G.generators) == list(range(24))


def test_closure_ids_proper_subgroup():
    G = s4()
    r = G.id_of((1, 2, 3, 0))
    assert len(closure_ids(G, [r])) == 4
    # order 5^7: no Cayley table, so the frontier closure runs
    G = C.witness_bundle("group2").group
    assert G.flat_table() is None
    for x in np.random.default_rng(3).integers(1, G.order, size=4).tolist():
        assert len(closure_ids(G, [x])) == G.element_order(x)


@pytest.mark.parametrize(
    "n, factors",
    [
        (1, {}),
        (7, {7: 1}),
        (2**7, {2: 7}),
        (72, {2: 3, 3: 2}),
        (5**7, {5: 7}),
        (360, {2: 3, 3: 2, 5: 1}),
    ],
)
def test_prime_factors_and_prime_power(n, factors):
    assert prime_factors(n) == factors
    assert list(prime_factors(n)) == sorted(factors)
    assert prime_power(n) == (next(iter(factors.items())) if len(factors) == 1 else None)


# -- group axioms as sampled properties -------------------------------------------

AXIOM_POOL = [
    C.dihedral(16),
    C.generalized_quaternion(8),
    C.sl23(),
    C.wreath_cyclic(2, 4),
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_group_axioms_hold(data):
    G = data.draw(st.sampled_from(AXIOM_POOL))
    ids = st.integers(min_value=0, max_value=G.order - 1)
    x, y, z = data.draw(ids), data.draw(ids), data.draw(ids)
    assert G.mul(G.mul(x, y), z) == G.mul(x, G.mul(y, z))
    assert G.mul(x, 0) == x and G.mul(0, x) == x
    assert G.mul(x, G.inv(x)) == 0 and G.mul(G.inv(x), x) == 0
    assert G.inv(G.mul(x, y)) == G.mul(G.inv(y), G.inv(x))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_conjugate_and_commutator_identities(data):
    G = data.draw(st.sampled_from(AXIOM_POOL))
    ids = st.integers(min_value=0, max_value=G.order - 1)
    x, y = data.draw(ids), data.draw(ids)
    # conjugate(x, y) = y^-1 x y and commutator(x, y) = x^-1 y^-1 x y
    assert G.conjugate(x, y) == G.mul(G.mul(G.inv(y), x), y)
    assert G.commutator(x, y) == G.mul(G.inv(x), G.conjugate(x, y))
    assert G.inv(G.commutator(x, y)) == G.commutator(y, x)
