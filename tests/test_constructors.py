"""Named families, products, and reference witness bundles."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import load_spec
from dcgroup import constructors as C
from dcgroup import structure as S
from dcgroup.cli import realize_spec
from dcgroup.core import closure_ids
from dcgroup.errors import (
    ActionNotHomomorphic,
    NotAutomorphism,
    NotCentral,
    NotIsomorphism,
    ParamOutOfRange,
    UnknownFamily,
)
from dcgroup.lattice import is_normal, meet

# Identical builder calls must produce identical multiplication tables.
TABLE_HASHES = {
    "d8": "a8b01b9b3c3cabb0",
    "q8": "dac4cfe4c72e8abf",
    "sd16": "c1a35a5095e1c711",
    "m16": "116ddc034bea9fd7",
    "he3": "7ce8ba16eef36914",
    "m27": "522a43a7e3d67d37",
    "sl23": "d4ed988c70f5b7e0",
    "s4": "dd77b23a5b4ba87a",
    "a4": "1c27043f41d5961b",
    "c12": "1a12f02fd836acfd",
    "c2wrc4": "a5afc41974463bc0",
    "d8xq8": "f6fc1b170d840432",
    "c2xc3xc4": "0368d231856ae886",
    "d12": "54ef2d2255de7de2",
    "q16": "1866d285bd773a47",
    "he5": "fbae522c88b45aaf",
    "m81": "c29710473e5b51d9",
}

HASH_BUILDERS = {
    "d8": lambda: C.dihedral(8),
    "q8": lambda: C.generalized_quaternion(8),
    "sd16": lambda: C.semidihedral(16),
    "m16": lambda: C.modular_max_cyclic(16),
    "he3": lambda: C.extraspecial_p3(3, "p"),
    "m27": lambda: C.extraspecial_p3(3, "p2"),
    "sl23": lambda: C.sl23(),
    "s4": lambda: C.symmetric(4),
    "a4": lambda: C.alternating(4),
    "c12": lambda: C.cyclic(12),
    "c2wrc4": lambda: C.wreath_cyclic(2, 4),
    "d8xq8": lambda: C.direct_product(C.dihedral(8), C.generalized_quaternion(8)),
    "c2xc3xc4": lambda: C.abelian([2, 3, 4]),
    "d12": lambda: C.dihedral(12),
    "q16": lambda: C.generalized_quaternion(16),
    "he5": lambda: C.extraspecial_p3(5, "p"),
    "m81": lambda: C.modular_max_cyclic(81),
}


def table_hash(G) -> str:
    t = G.flat_table()
    assert t is not None
    return hashlib.sha256(",".join(map(str, t)).encode()).hexdigest()[:16]


# -- named families ------------------------------------------------------------------


def test_family_orders():
    assert C.cyclic(12).order == 12
    assert C.abelian([2, 4]).order == 8
    assert C.dihedral(16).order == 16
    assert C.generalized_quaternion(32).order == 32
    assert C.semidihedral(32).order == 32
    assert C.modular_max_cyclic(64).order == 64
    assert C.extraspecial_p3(5, "p").order == 125
    assert C.symmetric(5).order == 120
    assert C.alternating(5).order == 60
    assert C.sl23().order == 24
    assert C.wreath_cyclic(2, 4).order == 64
    assert C.wreath_cyclic(3, 3).order == 81


def test_family_shapes():
    assert C.cyclic(12).is_abelian
    assert not C.dihedral(8).is_abelian
    assert S.nilpotency_class(C.semidihedral(16)) == 3
    assert S.exponent(C.extraspecial_p3(3, "p")) == 3
    assert S.exponent(C.extraspecial_p3(3, "p2")) == 9
    assert S.exponent(C.modular_max_cyclic(16)) == 8


def test_family_parameter_validation():
    with pytest.raises(ParamOutOfRange):
        C.dihedral(7)
    with pytest.raises(ParamOutOfRange):
        C.generalized_quaternion(12)
    with pytest.raises(ParamOutOfRange):
        C.semidihedral(8)
    with pytest.raises(ParamOutOfRange):
        C.modular_max_cyclic(8)
    with pytest.raises(ParamOutOfRange):
        C.extraspecial_p3(2, "p")
    with pytest.raises(ParamOutOfRange):
        C.extraspecial_p3(3, "p3")
    with pytest.raises(ParamOutOfRange):
        C.cyclic(0)


def test_build_family_dispatch():
    G = C.build_family("dihedral", {"order": 8})
    assert G.order == 8
    with pytest.raises(UnknownFamily):
        C.build_family("frobenius", {})
    with pytest.raises(ParamOutOfRange):
        C.build_family("dihedral", {})
    with pytest.raises(ParamOutOfRange):
        C.build_family("dihedral", {"order": 8, "twist": 1})


def test_builders_are_deterministic():
    for key, build in HASH_BUILDERS.items():
        assert table_hash(build()) == TABLE_HASHES[key], key
        assert table_hash(build()) == TABLE_HASHES[key], key


@pytest.mark.parametrize(
    "build",
    [
        lambda: C.cyclic(4096),
        lambda: C.abelian([64, 64]),
        lambda: C.dihedral(2048),
        lambda: C.extraspecial_p3(13, "p"),
    ],
    ids=["c4096", "c64xc64", "d2048", "he13"],
)
def test_family_table_memory_at_table_cap(build):
    """A family group near TABLE_CAP holds one Cayley table: building it,
    its flat table, its inverses and a closure peak at about the table's
    own bytes (tracemalloc sees numpy's buffers), and `flat_table` is a
    view of `np_table`."""
    tracemalloc.start()
    try:
        G = build()
        n = G.order
        G.flat_table()
        G.inv_vec(np.arange(n))
        closure_ids(G, [G.generators[-1]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * n
    assert np.shares_memory(np.asarray(G.flat_table()), G.np_table())


# -- direct products -----------------------------------------------------------------


def test_direct_product_order_and_commutativity():
    G = C.direct_product(C.dihedral(8), C.cyclic(2))
    assert G.order == 16 and not G.is_abelian
    H = C.direct_product(C.cyclic(2), C.cyclic(3))
    assert H.order == 6 and S.is_cyclic(H)


def test_direct_product_factors_commute():
    A, B = C.dihedral(8), C.generalized_quaternion(8)
    G = C.direct_product(A, B)
    # left factor ids are x * |B|, right factor ids are y
    for x in range(1, A.order):
        for y in range(1, B.order):
            assert G.mul(x * B.order, y) == G.mul(y, x * B.order)


def _componentwise(A, B, xs, ys):
    """Reference A x B kernel: factor by factor on pair ids a * |B| + b."""
    a1, b1 = np.divmod(xs, B.order)
    a2, b2 = np.divmod(ys, B.order)
    return A.mul_pairwise_vec(a1, a2) * B.order + B.mul_pairwise_vec(b1, b2)


def _componentwise_inv(A, B, xs):
    a, b = np.divmod(xs, B.order)
    return A.inv_vec(a) * B.order + B.inv_vec(b)


def _direct_product_layout(A, B):
    """direct_product(A, B) is a trivial-action SemidirectGroup with the
    pair ids, generators and name of the componentwise product."""
    G = C.direct_product(A, B)
    assert isinstance(G, C.SemidirectGroup)
    assert G.order == A.order * B.order
    assert G.generators == tuple(a * B.order for a in A.generators) + B.generators
    assert G.name == f"{A.name}x{B.name}"
    assert C.direct_product(A, B, name="AB").name == "AB"
    return G


def test_direct_product_table_is_componentwise():
    A, B = C.symmetric(3), C.cyclic(4)
    G = _direct_product_layout(A, B)
    ids = np.arange(G.order, dtype=np.int64)
    xs, ys = np.repeat(ids, G.order), np.tile(ids, G.order)
    want = _componentwise(A, B, xs, ys).reshape(G.order, G.order)
    assert np.array_equal(G.np_table(), want)
    assert np.array_equal(G.inv_vec(ids), _componentwise_inv(A, B, ids))


def test_direct_product_beyond_table_cap_is_componentwise():
    A, B = C.dihedral(8), C.cyclic(1024)
    G = _direct_product_layout(A, B)
    assert G.order == 8192 and G.np_table() is None
    rng = np.random.default_rng(25)
    xs, ys = (rng.integers(0, G.order, 3000) for _ in range(2))
    want = _componentwise(A, B, xs, ys)
    assert np.array_equal(G.mul_pairwise_vec(xs, ys), want)
    assert np.array_equal(G.inv_vec(xs), _componentwise_inv(A, B, xs))
    for y in ys[:5].tolist():
        full = np.full(len(xs), y)
        assert np.array_equal(G.mul_vec(xs, y), _componentwise(A, B, xs, full))
        assert np.array_equal(G.lmul_vec(y, xs), _componentwise(A, B, full, xs))
    pairs = zip(xs[:300].tolist(), ys[:300].tolist())
    assert [G.mul(x, y) for x, y in pairs] == want[:300].tolist()
    inverses = _componentwise_inv(A, B, xs[:300])
    assert [G.inv(x) for x in xs[:300].tolist()] == inverses.tolist()


def test_direct_product_with_a_pc_factor_is_componentwise():
    A, B = C.cyclic(2), realize_spec(load_spec("group2"))
    G = _direct_product_layout(A, B)
    rng = np.random.default_rng(26)
    xs, ys = (rng.integers(0, G.order, 2000) for _ in range(2))
    assert np.array_equal(G.mul_pairwise_vec(xs, ys), _componentwise(A, B, xs, ys))
    assert np.array_equal(G.inv_vec(xs), _componentwise_inv(A, B, xs))


# -- semidirect products ---------------------------------------------------------------


def test_semidirect_inversion_action_gives_dihedral():
    G = C.SemidirectGroup(C.cyclic(3), C.cyclic(2), [[0, 2, 1]])
    assert G.order == 6 and not G.is_abelian
    assert sorted(G.element_orders().tolist()) == [1, 2, 2, 2, 3, 3]


def test_semidirect_trivial_action_is_direct():
    G = C.SemidirectGroup(C.cyclic(3), C.cyclic(2), [[0, 1, 2]])
    assert G.order == 6 and G.is_abelian


def test_semidirect_action_must_be_automorphism():
    with pytest.raises(NotAutomorphism):
        C.SemidirectGroup(C.cyclic(3), C.cyclic(2), [[0, 0, 1]])
    # x -> x + 1 is a bijection but not an automorphism
    with pytest.raises(NotAutomorphism):
        C.SemidirectGroup(C.cyclic(5), C.cyclic(2), [[1, 2, 3, 4, 0]])


def test_semidirect_action_must_respect_top_relations():
    # x -> 2x has order 4 in Aut(C5); a C2 top cannot carry it
    with pytest.raises(ActionNotHomomorphic):
        C.SemidirectGroup(C.cyclic(5), C.cyclic(2), [[0, 2, 4, 1, 3]])
    # the same array under a C4 top is fine
    G = C.SemidirectGroup(C.cyclic(5), C.cyclic(4), [[0, 2, 4, 1, 3]])
    assert G.order == 20 and S.center(G).is_trivial


def test_semidirect_normal_factor_is_normal():
    G = C.SemidirectGroup(C.cyclic(7), C.cyclic(3), [[0, 2, 4, 6, 1, 3, 5]])
    assert G.order == 21
    from dcgroup.lattice import closure

    N = closure(G, [G.generators[0]])
    assert N.order == 7 and is_normal(G, N)


# -- central products -------------------------------------------------------------------


def test_central_product_q8_c4():
    G = C.central_product(C.generalized_quaternion(8), C.cyclic(4), [(2, 2)])
    assert G.order == 16
    assert S.center(G).order == 4


def test_central_product_d8_d8():
    D = C.dihedral(8)
    z = S.center(D).ids().tolist()
    zc = [x for x in z if x != 0][0]
    G = C.central_product(D, C.dihedral(8), [(zc, zc)])
    assert G.order == 32


def test_central_product_empty_identification_is_direct():
    G = C.central_product(C.cyclic(2), C.cyclic(3), [])
    assert G.order == 6


def test_central_product_validation():
    q8, c4 = C.generalized_quaternion(8), C.cyclic(4)
    with pytest.raises(NotCentral):
        C.central_product(q8, c4, [(1, 2)])
    with pytest.raises(NotIsomorphism):
        C.central_product(q8, c4, [(2, 1)])


# -- witness bundles ---------------------------------------------------------------------


def test_s6_bundle_shape():
    b = C.witness_bundle("s6_example")
    assert b.G.order == 720
    assert (b.N.order, b.L.order, b.H.order, b.K.order) == (9, 8, 72, 60)
    # H is the normalizer of N and splits as N x| L
    assert is_normal_inside(b.G, b.H, b.N)
    assert meet(b.N, b.L).is_trivial
    assert b.N.order * b.L.order == b.H.order
    assert b.L <= b.H and b.N <= b.H


def is_normal_inside(G, H, N) -> bool:
    hids = H.ids().tolist()
    nset = set(N.ids().tolist())
    return all(G.conjugate(x, h) in nset for h in hids for x in nset)


def test_group2_bundle():
    b = C.witness_bundle("group2")
    assert b.p == 5
    assert b.group.order == 5**7
    assert set(b.gens) == {"a1", "a2", "a3", "a4", "a5", "a1p", "a3p"}
    G = b.group
    # a1^5 and a3^5 are the named deeper generators, so a1 and a3 have order 25
    assert G.element_order(b.gens["a1"]) == 25
    assert G.element_order(b.gens["a3"]) == 25
    assert G.power(b.gens["a1"], 5) == b.gens["a1p"]
    assert G.power(b.gens["a3"], 5) == b.gens["a3p"]
    for name in ("a2", "a4", "a5", "a1p", "a3p"):
        assert G.element_order(b.gens[name]) == 5


def test_group1_bundle_needs_prime_at_least_7():
    with pytest.raises(ParamOutOfRange):
        C.witness_bundle("group1", p=5)
    with pytest.raises(ParamOutOfRange):
        C.witness_bundle("group1", p=9)
    with pytest.raises(ParamOutOfRange):
        C.witness_bundle("group1")


def test_unknown_bundle_rejected():
    with pytest.raises(ParamOutOfRange):
        C.witness_bundle("group3")
