"""Power-commutator presentations: collection, consistency, realization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_spec, order_5_7_pres
from dcgroup.cli import realize_spec
from dcgroup.errors import BadPresentation, InconsistentPresentation
from dcgroup.pc import (
    PC_GEN_CAP,
    PcPresentation,
    check_consistency,
    collect,
    realize_pc_group,
)


def d8_pres() -> PcPresentation:
    # a^2 = 1, b^2 = c, c^2 = 1, [b, a] = c
    return PcPresentation((2, 2, 2), powers={1: [(2, 1)]}, commutators={(1, 0): [(2, 1)]})


def q8_pres() -> PcPresentation:
    # a^2 = c, b^2 = c, [b, a] = c
    return PcPresentation(
        (2, 2, 2), powers={0: [(2, 1)], 1: [(2, 1)]}, commutators={(1, 0): [(2, 1)]}
    )


def he3_pres() -> PcPresentation:
    # exponent-3 extraspecial group of order 27
    return PcPresentation((3, 3, 3), commutators={(1, 0): [(2, 1)]})


# -- presentation validation -------------------------------------------------------


def test_rel_orders_must_be_prime():
    with pytest.raises(BadPresentation):
        PcPresentation((4, 2))
    with pytest.raises(BadPresentation):
        PcPresentation((2, 3))


def test_generator_count_bounds():
    with pytest.raises(BadPresentation):
        PcPresentation(())
    with pytest.raises(BadPresentation):
        PcPresentation((2,) * (PC_GEN_CAP + 1))


def test_commutator_keys_need_j_above_i():
    with pytest.raises(BadPresentation):
        PcPresentation((2, 2, 2), commutators={(0, 1): [(2, 1)]})
    with pytest.raises(BadPresentation):
        PcPresentation((2, 2, 2), commutators={(1, 1): [(2, 1)]})


def test_words_must_mention_deeper_generators_only():
    # [g1, g0] may not rewrite to g1 itself
    with pytest.raises(BadPresentation):
        PcPresentation((2, 2, 2), commutators={(1, 0): [(1, 1)]})
    # power word of g1 may not mention g0
    with pytest.raises(BadPresentation):
        PcPresentation((2, 2, 2), powers={1: [(0, 1)]})


def test_word_exponents_must_fit_relative_order():
    with pytest.raises(BadPresentation):
        PcPresentation((3, 3, 3), commutators={(1, 0): [(2, 3)]})
    with pytest.raises(BadPresentation):
        PcPresentation((3, 3, 3), commutators={(1, 0): [(2, 0)]})


# -- collection --------------------------------------------------------------------


def test_collect_empty_word_is_identity():
    assert collect(d8_pres(), []) == (0, 0, 0)


def test_collect_normal_form_is_fixed_point():
    pres = he3_pres()
    for digits in ((1, 0, 0), (0, 2, 1), (2, 2, 2)):
        word = [(i, e) for i, e in enumerate(digits) if e]
        assert collect(pres, word) == digits


def test_collect_swaps_out_of_order_letters():
    # b * a = a * b * [b, a] in the dihedral presentation
    assert collect(d8_pres(), [(1, 1), (0, 1)]) == (1, 1, 1)


def test_collect_applies_power_rules():
    assert collect(d8_pres(), [(1, 1), (1, 1)]) == (0, 0, 1)
    assert collect(q8_pres(), [(0, 1)] * 4) == (0, 0, 0)


def test_collect_high_exponents_reduce():
    pres = he3_pres()
    assert collect(pres, [(0, 3)]) == (0, 0, 0)
    assert collect(pres, [(1, 5)]) == (0, 2, 0)


# -- consistency -------------------------------------------------------------------


def test_consistency_accepts_reference_presentations():
    for pres in (d8_pres(), q8_pres(), he3_pres()):
        check_consistency(pres)


def test_inconsistent_presentation_rejected():
    # g0^2 = g1 forces [g1, g0] = 1, contradicting [g1, g0] = g2
    pres = PcPresentation((2, 2, 2), powers={0: [(1, 1)]}, commutators={(1, 0): [(2, 1)]})
    with pytest.raises(InconsistentPresentation):
        check_consistency(pres)
    with pytest.raises(InconsistentPresentation):
        realize_pc_group(pres)


# -- realization -------------------------------------------------------------------


def test_realize_q8():
    G = realize_pc_group(q8_pres())
    assert G.order == 8
    orders = sorted(G.element_orders().tolist())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_realize_d8():
    G = realize_pc_group(d8_pres())
    assert G.order == 8
    assert sorted(G.element_orders().tolist()) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_realize_he3():
    G = realize_pc_group(he3_pres())
    assert G.order == 27
    assert not G.is_abelian
    assert sorted(set(G.element_orders().tolist())) == [1, 3]


def test_generator_ids_match_digit_vectors():
    G = realize_pc_group(he3_pres())
    for j, g in enumerate(G.generators):
        digits = G.digits(g)
        assert digits[j] == 1 and sum(digits) == 1


def test_digits_round_trip():
    G = realize_pc_group(q8_pres())
    for x in G.elements():
        assert G.id_of_digits(G.digits(x)) == x


def test_realized_product_matches_symbolic_collection():
    pres = he3_pres()
    G = realize_pc_group(pres)
    rng = np.random.default_rng(7)
    for _ in range(200):
        word = [(int(g), int(e)) for g, e in zip(rng.integers(0, 3, 4), rng.integers(1, 3, 4))]
        x = 0
        for g, e in word:
            for _ in range(e):
                x = G.mul(x, G.generators[g])
        assert x == G.id_of_digits(collect(pres, word))


def test_mul_agrees_with_table_backend():
    pres = d8_pres()
    G = realize_pc_group(pres)
    t = G.flat_table()
    assert t is not None
    for x in G.elements():
        for y in G.elements():
            assert t[x * G.order + y] == G.mul(x, y)


def test_associativity_exhaustive_small():
    G = realize_pc_group(q8_pres())
    for x in G.elements():
        for y in G.elements():
            xy = G.mul(x, y)
            for z in G.elements():
                assert G.mul(xy, z) == G.mul(x, G.mul(y, z))


def test_associativity_sampled_beyond_table_cap():
    """10^5 random triples on an order-5^7 realization with no cached table."""
    G = realize_pc_group(order_5_7_pres())
    assert G.order == 5**7
    assert G.flat_table() is None
    rng = np.random.default_rng(2026)
    xs, ys, zs = (rng.integers(0, G.order, 100_000) for _ in range(3))
    left = G.mul_pairwise_vec(G.mul_pairwise_vec(xs, ys), zs)
    right = G.mul_pairwise_vec(xs, G.mul_pairwise_vec(ys, zs))
    assert np.array_equal(left, right)


@pytest.mark.parametrize("which", ["q8", "he3", "mc35a"])
def test_digit_kernels_match_table(which):
    """Below TABLE_CAP the vector ops read the table; the kernels must agree."""
    if which == "mc35a":
        G = realize_spec(load_spec("mc35a"))
    else:
        G = realize_pc_group(q8_pres() if which == "q8" else he3_pres())
    n = G.order
    table = G.np_table()
    assert table is not None
    ids = np.arange(n, dtype=np.int64)
    xs, ys = (a.ravel() for a in np.meshgrid(ids, ids, indexing="ij"))
    assert np.array_equal(G._mul_pairwise_vec(xs, ys), table[xs, ys])
    for y in range(n):
        assert np.array_equal(G._mul_vec(ids, y), table[:, y])
        assert np.array_equal(G._lmul_vec(y, ids), table[y])
    assert np.array_equal(table[ids, G._inv_vec(ids)], np.zeros(n, dtype=np.int64))
    assert np.array_equal(G._inv_vec(ids), G.inv_vec(ids))
    # the table itself against symbolic collection
    rng = np.random.default_rng(7)
    for x, y in rng.integers(0, n, size=(200, 2)).tolist():
        word = [(i, e) for i, e in enumerate(G.digits(x)) if e]
        word += [(i, e) for i, e in enumerate(G.digits(y)) if e]
        assert table[x, y] == G.id_of_digits(collect(G.pres, word))


def test_public_ops_use_kernels_beyond_table_cap():
    G = realize_pc_group(order_5_7_pres())
    assert G.np_table() is None
    rng = np.random.default_rng(11)
    xs, ys = (rng.integers(0, G.order, 2000) for _ in range(2))
    y = int(ys[0])
    assert np.array_equal(G.mul_vec(xs, y), G._mul_vec(xs, y))
    assert np.array_equal(G.lmul_vec(y, xs), G._lmul_vec(y, xs))
    assert np.array_equal(G.mul_pairwise_vec(xs, ys), G._mul_pairwise_vec(xs, ys))
    assert np.array_equal(G.inv_vec(xs), G._inv_vec(xs))
    assert [G.mul(x, y) for x in xs[:50].tolist()] == G.mul_vec(xs[:50], y).tolist()
    assert np.array_equal(G.mul_pairwise_vec(xs, G.inv_vec(xs)), np.zeros(2000))


def _branch_pairs(G, rng, per_branch: int = 4):
    """Id pairs (x, y) that take both branches of every digit step.

    For each digit i, y has no digits above i and a nonzero digit d at i, so
    the running product reaches that step as x, whose digit a at i is drawn
    with a + d < p for half of the pairs and a + d >= p for the other half.
    Deeper digits of both are random.
    """
    p, s, n = G.pres.prime, G.sizes, G.pres.ngens
    xs, ys = [], []
    for i in range(n):
        for wrap in (False, True):
            for _ in range(per_branch):
                d = int(rng.integers(1, p))
                a = int(rng.integers(p - d, p) if wrap else rng.integers(0, p - d))
                x = int(rng.integers(0, G.order))
                x += (a - x // s[i + 1] % p) * s[i + 1]
                xs.append(x)
                ys.append(d * s[i + 1] + int(rng.integers(0, s[i + 1])))
    return np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)


@pytest.mark.parametrize("which", ["order_5_7", "group1p7"])
def test_digit_step_kernels_match_collection(which):
    """Every product kernel beyond TABLE_CAP against symbolic collection."""
    if which == "group1p7":
        G = realize_spec(load_spec("group1p7"))
    else:
        G = realize_pc_group(order_5_7_pres())
    assert G.np_table() is None
    rng = np.random.default_rng(5)
    xs, ys = _branch_pairs(G, rng)
    xs = np.concatenate([xs, rng.integers(0, G.order, 20)])
    ys = np.concatenate([ys, rng.integers(0, G.order, 20)])

    def collected(x: int, y: int) -> int:
        word = [(i, e) for i, e in enumerate(G.digits(x)) if e]
        word += [(i, e) for i, e in enumerate(G.digits(y)) if e]
        return G.id_of_digits(collect(G.pres, word))

    want = np.array([collected(x, y) for x, y in zip(xs.tolist(), ys.tolist())])
    for got in (G._mul_pairwise_vec(xs, ys), G.mul_pairwise_vec(xs, ys)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    for k, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
        got = G.mul_vec(xs[k : k + 1], y)
        assert got.dtype == np.int64 and got[0] == want[k]
        got = G.mul(x, y)
        assert type(got) is int and got == want[k]
    for k in range(0, len(xs), 8):
        got = G.lmul_vec(int(xs[k]), ys[k : k + 1])
        assert got.dtype == np.int64 and got[0] == want[k]
    # left tables are int32; lmul_vec returns int64
    assert G.left_mul_table(int(xs[0])).dtype == np.int32


@pytest.mark.parametrize("which", ["d8", "he3", "mc35a", "neg32"])
def test_table_rows_are_left_tables(which):
    """The row-gather table build against one left table per element."""
    if which in ("mc35a", "neg32"):
        G = realize_spec(load_spec(which))
    else:
        G = realize_pc_group(d8_pres() if which == "d8" else he3_pres())
    rows = np.stack([G.left_mul_table(x) for x in range(G.order)])
    assert np.array_equal(G.np_table(), rows)


PRES_POOL = [d8_pres(), q8_pres(), he3_pres()]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_collect_is_idempotent(data):
    pres = data.draw(st.sampled_from(PRES_POOL))
    n, o = pres.ngens, pres.rel_orders
    letters = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=4),
            ),
            max_size=6,
        )
    )
    nf = collect(pres, letters)
    assert all(0 <= e < o[i] for i, e in enumerate(nf))
    assert collect(pres, [(i, e) for i, e in enumerate(nf) if e]) == nf
