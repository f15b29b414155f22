"""Element backends: permutation groups, Cayley tables, quotients."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_pgroups, load_spec, order_5_7_pres
from dcgroup import constructors as C
from dcgroup.cli import realize_spec
from dcgroup.core import (
    BLOCK,
    PERM_DEGREE_CAP,
    TABLE_CAP,
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
)
from dcgroup.errors import DegreeMismatch, InvalidId, NotNormal, NotPGroup
from dcgroup.pc import realize_pc_group
from dcgroup.structure import center, derived_subgroup

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
    # inverses are read off where each row holds the identity
    with pytest.raises(InvalidId, match="identity"):
        TableGroup([0, 1, 1, 1], 2)


@pytest.mark.parametrize(
    "table",
    [
        [1, 0, 0, 1],  # id 0 is not the identity
        [0, 0, 0, 1],  # row 0 repeats an id
        [0, 1, 2, 1, 0, 0, 2, 0, 1],  # identity row and column, row 1 repeats
        [0, 1, 2, 1, 0, 2, 2, 1, 0],  # rows permute the ids, column 2 repeats
    ],
)
def test_table_group_rejects_non_latin_tables(table):
    # such tables once sent element_orders into an endless loop
    with pytest.raises(InvalidId):
        TableGroup(table, round(len(table) ** 0.5))


def test_table_group_default_generators_reach_everything():
    G = TableGroup(S3_TABLE, 6)
    assert closure_ids(G, G.generators) == list(range(6))


def test_flat_table_round_trip():
    G = s4()
    t = G.flat_table()
    H = TableGroup(t, G.order)
    assert H.flat_table() == t


def _s4_mod_v4() -> QuotientGroup:
    G = s4()
    v4 = [x for x in range(G.order) if G.element_order(x) <= 2 and G.sign(x) == 1]
    return QuotientGroup(G, v4)


@pytest.mark.parametrize(
    "G",
    [
        s4(),
        # degree 16: a key in base 16 over all 16 images would reach 2^64
        PermGroup(
            [
                [1, 0] + list(range(2, 16)),
                [0, 1, 3, 2] + list(range(4, 16)),
                list(range(8, 16)) + list(range(8)),
            ]
        ),
        C.direct_product(C.symmetric(3), C.cyclic(4)),
        realize_spec(load_spec("pos32")),
        _s4_mod_v4(),
        realize_spec(load_spec("c3wrc3")),
        realize_spec(load_spec("d8cq8")),
    ],
    ids=["s4", "degree16", "s3xc4", "pc32", "s4/v4", "c3wrc3", "d8cq8"],
)
def test_bulk_table_matches_scalar_products(G):
    n = G.order
    want = [[G._mul(x, y) for y in range(n)] for x in range(n)]
    assert G.np_table().tolist() == want
    assert list(G.flat_table()) == [v for row in want for v in row]
    assert G.inv_vec(np.arange(n)).tolist() == [G._invert(x) for x in range(n)]


def test_quotient_kernel_above_table_cap_matches_scalar_products():
    """G/Z(G) for the corpus group2 has order 5^6, so it has no table and
    multiplies through the classes of its parent's products."""
    G = realize_spec(load_spec("group2"))
    Q = QuotientGroup(G, center(G).ids())
    assert Q.order == 5**6 > TABLE_CAP and Q.np_table() is None
    rng = np.random.default_rng(5)
    xs = rng.integers(0, Q.order, 400)
    ys = rng.integers(0, Q.order, 400)
    want = [Q._mul(int(x), int(y)) for x, y in zip(xs, ys)]
    assert Q.mul_pairwise_vec(xs, ys).tolist() == want
    y = int(ys[0])
    assert Q.mul_vec(xs, y).tolist() == [Q._mul(int(x), y) for x in xs]
    assert Q.lmul_vec(y, xs).tolist() == [Q._mul(y, int(x)) for x in xs]


# -- QuotientGroup ---------------------------------------------------------------


def test_quotient_by_center_of_q8():
    Q = C.generalized_quaternion(8)
    V = QuotientGroup(Q, [0, 2])
    assert V.order == 4
    assert V.is_abelian
    assert sorted(V.element_orders().tolist()) == [1, 2, 2, 2]


def _is_normal_scalar(G, ids) -> bool:
    """Reference test: N^g inside N for every generator g, one element at a time."""
    member = set(ids)
    return all(G.conjugate(s, g) in member for g in G.generators for s in ids)


def test_quotient_by_non_normal_rejected():
    G = s4()
    # a 2-element subgroup generated by a transposition is not normal in S4
    t = G.id_of((1, 0, 2, 3))
    with pytest.raises(NotNormal):
        QuotientGroup(G, [0, t])
    # a parent with its Cayley table built: id 3 of S3 is a transposition
    with pytest.raises(NotNormal, match="subgroup of order 2 is not normal"):
        QuotientGroup(TableGroup(S3_TABLE, 6), [0, 3])

    # parents above TABLE_CAP, which multiply through their backends
    S7 = C.symmetric(7)
    assert S7.order > TABLE_CAP and S7.np_table() is None
    t = S7.id_of((1, 0, 2, 3, 4, 5, 6))
    with pytest.raises(NotNormal, match="subgroup of order 2 is not normal"):
        QuotientGroup(S7, [0, t])

    P = C.witness_bundle("group2").group
    assert P.order > TABLE_CAP and P.np_table() is None
    N = closure_ids(P, [P.generators[0]])
    assert not _is_normal_scalar(P, N)
    with pytest.raises(NotNormal, match=f"subgroup of order {len(N)} is not normal"):
        QuotientGroup(P, N)


@pytest.mark.parametrize("which", ["s7", "group2"])
def test_quotient_of_tableless_parent_partitions_cosets(which):
    if which == "s7":
        G = C.symmetric(7)
        N = [x for x in range(G.order) if G.sign(x) == 1]
    else:
        G = C.witness_bundle("group2").group
        N = derived_subgroup(G).ids().tolist()
    assert G.np_table() is None and _is_normal_scalar(G, N)
    Q = QuotientGroup(G, N)
    assert Q.order * len(N) == G.order
    n_arr = np.array(N, dtype=np.int64)
    for c, rep in enumerate(Q.reps):
        assert np.array_equal(
            np.flatnonzero(Q._class_of == c), np.sort(G.mul_vec(n_arr, rep))
        )


def test_quotient_by_trivial_is_relabeled_isomorphism():
    G = TableGroup(S3_TABLE, 6)
    Q = QuotientGroup(G, [0])
    assert Q.order == G.order
    f = [Q.project(x) for x in G.elements()]
    assert sorted(f) == list(range(6))
    for x in G.elements():
        for y in G.elements():
            assert Q.mul(f[x], f[y]) == f[G.mul(x, y)]


def test_quotient_block_table_matches_scalar_products():
    """D8/Z(D8), S4/V4 and (S3 x C6)/G': the block-filled table against
    one scalar product through representatives per entry."""
    d8 = C.dihedral(8)
    z = [x for x in range(8) if all(d8.mul(x, y) == d8.mul(y, x) for y in range(8))]
    G = s4()
    v4 = [x for x in range(G.order) if G.element_order(x) <= 2 and G.sign(x) == 1]
    s3c6 = C.direct_product(C.symmetric(3), C.cyclic(6))
    quotients = [
        QuotientGroup(d8, z),
        QuotientGroup(G, v4),
        QuotientGroup(s3c6, derived_subgroup(s3c6).ids()),
    ]
    assert [Q.order for Q in quotients] == [4, 6, 12]
    for Q in quotients:
        n = Q.order
        want = [[Q._mul(x, y) for y in range(n)] for x in range(n)]
        assert Q.np_table().tolist() == want, Q.name


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


@pytest.mark.parametrize("degree", [7, 8])
def test_perm_kernels_without_a_table_match_scalar(degree):
    # S7 (order 5040) and S8 lie above TABLE_CAP, so the vector ops run the
    # PermGroup kernels; each must agree with the scalar _mul and _invert.
    G = C.symmetric(degree)
    assert G.np_table() is None
    rng = np.random.default_rng(degree)
    xs = rng.integers(0, G.order, 2000)
    ys = rng.integers(0, G.order, 2000)
    for y in (0, 1, int(ys[0]), G.order - 1):
        assert G.mul_vec(xs, y).tolist() == [G._mul(int(x), y) for x in xs]
        assert G.lmul_vec(y, xs).tolist() == [G._mul(y, int(x)) for x in xs]
    assert G.mul_pairwise_vec(xs, ys).tolist() == [
        G._mul(int(x), int(y)) for x, y in zip(xs, ys)
    ]
    assert G.inv_vec(xs).tolist() == [G._invert(int(x)) for x in xs]


def test_table_less_vector_ops_run_in_blocks():
    # S8's 40320 ids are two full BLOCKs and a part: the vector ops call the
    # PermGroup kernels one slice at a time and return int64 ids shaped like
    # their input, which may also be a scalar or a 2d array
    G = C.symmetric(8)
    assert G.np_table() is None and G.order > 2 * BLOCK
    ids = G.all_ids()
    rng = np.random.default_rng(8)
    y = int(rng.integers(1, G.order))
    ys = rng.integers(0, G.order, G.order)
    right, left = G.mul_vec(ids, y), G.lmul_vec(y, ids)
    pairwise, inv = G.mul_pairwise_vec(ids, ys), G.inv_vec(ids)
    for got in (right, left, pairwise, inv):
        assert got.dtype == np.int64 and got.shape == ids.shape
    for x in rng.integers(0, G.order, 200).tolist():
        assert right[x] == G._mul(x, y) and left[x] == G._mul(y, x)
        assert pairwise[x] == G._mul(x, int(ys[x])) and inv[x] == G._invert(x)
    assert G.inv_vec(y).shape == () and int(G.inv_vec(y)) == G._invert(y)
    square = ids[: 4 * BLOCK // 2].reshape(4, -1)
    assert np.array_equal(G.mul_vec(square, y), right[: square.size].reshape(4, -1))


def test_pow_vec_and_inv_vec_match_scalar():
    G = C.sl23()
    xs = np.arange(G.order, dtype=np.int64)
    for k in (0, 1, 2, 5):
        assert [G.power(int(x), k) for x in xs] == G.pow_vec(xs, k).tolist()
    assert [G.inv(int(x)) for x in xs] == G.inv_vec(xs).tolist()
    with pytest.raises(InvalidId):
        G.pow_vec(xs, -1)


def test_pow_vec_zero_and_one():
    for G in (C.sl23(), realize_pc_group(order_5_7_pres())):
        xs = np.array([3, 0, 7, 7], dtype=np.int64)
        assert G.pow_vec(xs, 0).tolist() == [0, 0, 0, 0]
        one = G.pow_vec(xs, 1)
        assert one.tolist() == xs.tolist()
        assert not np.shares_memory(one, xs)


def test_power_map_orders_match_multiplication_rounds():
    """Power-map orders and p-th powers against the round-by-round products."""
    big = realize_pc_group(order_5_7_pres())
    assert big.np_table() is None
    for G in corpus_pgroups(2000) + [big]:
        p, _ = prime_power(G.order)
        ids = np.arange(G.order, dtype=np.int64)
        assert np.array_equal(G.power_map(), G.pow_vec(ids, p)), G.name
        assert np.array_equal(G.element_orders(), G._orders_by_rounds()), G.name
        assert np.array_equal(G.p_power_vec(ids, 2), G.pow_vec(ids, p * p)), G.name
    with pytest.raises(NotPGroup):
        C.symmetric(4).power_map()


def test_power_map_orders_stay_near_their_own_bytes():
    """A p-group's element orders, with the power map built, peak at a
    bounded multiple of their own bytes, one int64 id vector: the gathers
    through the map run BLOCK ids at a time into the result. Over the whole
    group at once they peaked at 2.63x on the corpus group2 (order 5^7)."""
    G = realize_spec(load_spec("group2"), name="group2")
    G.power_map()
    tracemalloc.start()
    try:
        G.element_orders()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * G.order


def test_power_map_refuses_non_associative_table():
    # a Latin square with identity 0 (a loop, not a group) in which some
    # fifth power misses 0: the power-map orders must not loop forever
    loop = [
        0, 1, 2, 3, 4,
        1, 0, 3, 4, 2,
        2, 3, 4, 0, 1,
        3, 4, 1, 2, 0,
        4, 2, 0, 1, 3,
    ]
    with pytest.raises(InvalidId, match="x\\^"):
        TableGroup(loop, 5)


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
