"""Deterministic group builders: classical families, products, witnesses.

Every constructor fixes an element id layout up front (documented per
builder), so identical parameters reproduce identical Cayley behavior
bit for bit. The abelian, metacyclic and extraspecial families are
`FormulaGroup`s, given by their product formula on id vectors, from which
`FiniteGroup.np_table` fills their Cayley tables; the symmetric and
alternating families and SL(2,3) are permutation groups; the two large
reference p-groups are realized from power-commutator presentations. Every
product of two groups is a `SemidirectGroup` on pair ids: a direct product
is the one whose action is trivial, and a central product is a quotient of
a direct product.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from math import factorial, gcd

import numpy as np

from .core import (
    PERM_DEGREE_CAP,
    TABLE_CAP,
    FiniteGroup,
    PermGroup,
    QuotientGroup,
    closure_ids,
    perm_from_cycles,
    prime_power,
)
from .errors import (
    ActionNotHomomorphic,
    NotAutomorphism,
    NotCentral,
    NotIsomorphism,
    ParamOutOfRange,
    UnknownFamily,
)
from .lattice import Subgroup, closure
from .pc import PcGroup, PcPresentation, realize_pc_group
from .structure import normalizer

__all__ = [
    "cyclic",
    "abelian",
    "dihedral",
    "generalized_quaternion",
    "semidihedral",
    "modular_max_cyclic",
    "extraspecial_p3",
    "symmetric",
    "alternating",
    "sl23",
    "wreath_cyclic",
    "build_family",
    "FAMILY_PARAMS",
    "direct_product",
    "SemidirectGroup",
    "semidirect_product",
    "central_product",
    "S6Bundle",
    "PcBundle",
    "witness_bundle",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParamOutOfRange(msg)


# -- formula families ---------------------------------------------------------


class FormulaGroup(FiniteGroup):
    """A family group given by its product formula on id vectors.

    The formula is the group's `_mul_pairwise_vec`: `np_table` fills the
    Cayley table from it, and every other product reads that table.
    """

    def __init__(
        self,
        order: int,
        generators: Sequence[int],
        name: str,
        formula: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ):
        _require(order <= TABLE_CAP, f"order {order} exceeds {TABLE_CAP}")
        super().__init__(order, generators, name)
        self._mul_pairwise_vec = formula


def cyclic(order: int) -> FormulaGroup:
    """C_n with id i standing for the i-th power of the generator."""
    _require(1 <= order <= TABLE_CAP, f"cyclic order {order} outside 1..{TABLE_CAP}")
    n = order
    return FormulaGroup(n, [1 % n], f"C{n}", lambda xs, ys: (xs + ys) % n)


def abelian(invariants: Sequence[int]) -> FormulaGroup:
    """Direct sum of cyclic groups; ids are mixed-radix digit strings.

    Factors of size 1 are dropped. Digit i of an id (most significant first)
    is the exponent of the i-th factor's generator.
    """
    invs = [int(d) for d in invariants if int(d) != 1]
    for d in invs:
        _require(d >= 1, f"invariant {d} must be positive")
    place = [0] * len(invs)
    acc = 1
    for i in range(len(invs) - 1, -1, -1):
        place[i] = acc
        acc *= invs[i]
    _require(acc <= TABLE_CAP, f"abelian order {acc} exceeds {TABLE_CAP}")

    def formula(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        out = np.zeros_like(xs)
        for w, d in zip(place, invs):
            out += (xs // w + ys // w) % d * w
        return out

    name = "x".join(f"C{d}" for d in invs) or "C1"
    return FormulaGroup(acc, place or [0], name, formula)


# -- metacyclic groups (dihedral / quaternion / semidihedral / modular) --------


def _metacyclic(m: int, r: int, t: int, s: int, name: str) -> FormulaGroup:
    """<a, b | a^m, b^r = a^s, b a b^-1 = a^t> with id layout e*m + i for a^i b^e."""
    _require(pow(t, r, m) == 1, f"action power t^r = {pow(t, r, m)} != 1 mod {m}")
    _require(gcd(t, m) == 1, f"action multiplier {t} not invertible mod {m}")
    tpow = np.array([pow(t, e, m) for e in range(r)], dtype=np.int64)

    # (i1, e1) * (i2, e2) = (i1 + t^e1 * i2 + s [e1 + e2 >= r] mod m, e1 + e2 mod r)
    def formula(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        e1, i1 = np.divmod(xs, m)
        e2, i2 = np.divmod(ys, m)
        e = e1 + e2
        return e % r * m + (i1 + tpow[e1] * i2 + s * (e >= r)) % m

    gens = [1] if m > 1 else []
    if r > 1:
        gens.append(m)
    return FormulaGroup(m * r, gens or [0], name, formula)


def dihedral(order: int) -> FormulaGroup:
    """D_n of order n = 2m: rotations a^i at ids 0..m-1, reflections above."""
    _require(order >= 2 and order % 2 == 0, f"dihedral order {order} must be even")
    m = order // 2
    if m == 1:
        g = cyclic(2)
        g.name = "D2"
        return g
    if m == 2:
        g = abelian([2, 2])
        g.name = "D4"
        return g
    return _metacyclic(m, 2, m - 1, 0, name=f"D{order}")


def generalized_quaternion(order: int) -> FormulaGroup:
    """Q_{2^k}: <a, b | a^{2^{k-1}}, b^2 = a^{2^{k-2}}, b a b^-1 = a^-1>.

    Ids: a^i at 0..m-1 and a^i b at m..2m-1, where m = order/2.
    """
    pk = prime_power(order)
    _require(
        pk is not None and pk[0] == 2 and order >= 8,
        f"generalized quaternion order {order} must be a 2-power >= 8",
    )
    m = order // 2
    return _metacyclic(m, 2, m - 1, m // 2, name=f"Q{order}")


def semidihedral(order: int) -> FormulaGroup:
    """SD_{2^k}, k >= 4: maximal cyclic subgroup twisted by t = 2^{k-2} - 1."""
    pk = prime_power(order)
    _require(
        pk is not None and pk[0] == 2 and pk[1] >= 4,
        f"semidihedral order {order} must be a 2-power >= 16",
    )
    m = order // 2
    return _metacyclic(m, 2, m // 2 - 1, 0, name=f"SD{order}")


def modular_max_cyclic(order: int) -> FormulaGroup:
    """M_{p^k}, k >= 3: maximal cyclic subgroup twisted by t = p^{k-2} + 1."""
    pk = prime_power(order)
    _require(pk is not None and pk[1] >= 3, f"order {order} must be p^k, k >= 3")
    p, k = pk
    _require((p, k) != (2, 3), "order 8 has no modular group distinct from D8")
    m = order // p
    return _metacyclic(m, p, m // p + 1, 0, name=f"M{order}")


def extraspecial_p3(p: int, exponent: str) -> FormulaGroup:
    """The two extraspecial groups of order p^3 for odd p.

    exponent "p" gives the unitriangular 3x3 group over the p-element field,
    with id a*p^2 + b*p + c for the matrix rows (1 a c / 0 1 b / 0 0 1).
    exponent "p2" gives the modular group of order p^3.
    """
    _require(p >= 3 and prime_power(p) == (p, 1), f"p = {p} must be an odd prime")
    kind = exponent.replace("^", "")
    if kind == "p2":
        return modular_max_cyclic(p**3)
    _require(kind == "p", f"exponent {exponent!r} must be 'p' or 'p2'")

    # (a1, b1, c1) * (a2, b2, c2) = (a1 + a2, b1 + b2, c1 + c2 + a1 b2)
    def formula(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        ab1, c1 = np.divmod(xs, p)
        ab2, c2 = np.divmod(ys, p)
        a1, b1 = np.divmod(ab1, p)
        a2, b2 = np.divmod(ab2, p)
        return ((a1 + a2) % p * p + (b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p

    return FormulaGroup(p**3, [p * p, p], f"He{p}", formula)


# -- permutation families ----------------------------------------------------


def symmetric(degree: int) -> PermGroup:
    """S_n generated by (0 1) and the full n-cycle."""
    _require(1 <= degree <= PERM_DEGREE_CAP, f"degree {degree} outside range")
    n = degree
    if n == 1:
        return PermGroup([(0,)], name="S1")
    cyc = perm_from_cycles(n, [tuple(range(n))])
    swap = perm_from_cycles(n, [(0, 1)])
    gens = [swap, cyc] if n > 2 else [swap]
    G = PermGroup(gens, name=f"S{n}")
    assert G.order == factorial(n)
    return G


def alternating(degree: int) -> PermGroup:
    """A_n generated by (0 1 2) and a long cycle of odd length."""
    _require(1 <= degree <= PERM_DEGREE_CAP, f"degree {degree} outside range")
    n = degree
    if n <= 2:
        return PermGroup([tuple(range(n))], name=f"A{n}")
    if n == 3:
        return PermGroup([perm_from_cycles(3, [(0, 1, 2)])], name="A3")
    three = perm_from_cycles(n, [(0, 1, 2)])
    if n % 2:
        long = perm_from_cycles(n, [tuple(range(n))])
    else:
        long = perm_from_cycles(n, [tuple(range(1, n))])
    G = PermGroup([three, long], name=f"A{n}")
    assert G.order == factorial(n) // 2
    return G


_GF3_VECTORS = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]


def _gf3_matrix_perm(mat: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Permutation of the 8 nonzero GF(3)^2 column vectors under v -> M v."""
    index = {v: i for i, v in enumerate(_GF3_VECTORS)}
    out = []
    for x, y in _GF3_VECTORS:
        img = ((mat[0][0] * x + mat[0][1] * y) % 3, (mat[1][0] * x + mat[1][1] * y) % 3)
        out.append(index[img])
    return tuple(out)


def sl23() -> PermGroup:
    """SL(2,3) acting on the 8 nonzero vectors of GF(3)^2.

    Generators: S = (0 -1 / 1 0) of order 4 and T = (1 1 / 0 1) of order 3.
    """
    s = _gf3_matrix_perm([[0, 2], [1, 0]])
    t = _gf3_matrix_perm([[1, 1], [0, 1]])
    G = PermGroup([s, t], name="SL(2,3)")
    assert G.order == 24
    return G


# -- products ----------------------------------------------------------------


class SemidirectGroup(FiniteGroup):
    """N x| H on pair ids n * |H| + h.

    The action is given per top generator as a permutation array over N's
    ids; array i sends x to the conjugate of x by the i-th generator of H.
    Each array is checked to be an automorphism on the products g x of a
    generator g of N by every element x, which pins down the whole
    condition since the generators reach every element.
    The full action map phi is then filled by a frontier walk over H:
    phi[h g] = phi[h][arr] for each product of the frontier by a top
    generator g, set where it is unset and compared everywhere else. Any
    clash between two words for the same element means the arrays do not
    define a homomorphism H -> Aut(N). A direct product is the case where
    every array is the identity.
    """

    def __init__(
        self,
        normal: FiniteGroup,
        top: FiniteGroup,
        action: Sequence[Sequence[int]],
        name: str = "",
    ):
        if len(action) != len(top.generators):
            raise NotAutomorphism(
                f"need one action array per top generator "
                f"({len(top.generators)}), got {len(action)}"
            )
        nn = normal.order
        ids = np.arange(nn, dtype=np.int64)
        arrs: list[np.ndarray] = []
        for k, raw in enumerate(action):
            arr = np.asarray(raw, dtype=np.int64)
            if arr.shape != (nn,) or not np.array_equal(np.sort(arr), ids):
                raise NotAutomorphism(f"action array {k} is not a permutation of N")
            for g in normal.generators:
                lhs = arr[normal.lmul_vec(g, ids)]
                rhs = normal.lmul_vec(int(arr[g]), arr)
                if not np.array_equal(lhs, rhs):
                    raise NotAutomorphism(
                        f"action array {k} breaks multiplication at generator {g}"
                    )
            arrs.append(arr)

        phi = np.full((top.order, nn), -1, dtype=np.int64)
        phi[0] = ids
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            new = [frontier[:0]]
            for arr, g in zip(arrs, top.generators):
                hs = top.mul_vec(frontier, g)
                cand = phi[frontier[:, None], arr]
                fresh = phi[hs, 0] < 0
                phi[hs[fresh]] = cand[fresh]
                clash = np.flatnonzero((phi[hs] != cand).any(axis=1))
                if clash.size:
                    raise ActionNotHomomorphic(
                        f"action disagrees with a relation of H at element {hs[clash[0]]}"
                    )
                new.append(hs[fresh])
            frontier = np.concatenate(new)
        self.normal = normal
        self.top = top
        self.phi = phi
        gens = [n * top.order for n in normal.generators] + list(top.generators)
        super().__init__(
            nn * top.order, gens, name or f"{normal.name}:{top.name}"
        )

    def embed(self, n: int, h: int) -> int:
        return self.normal.check_id(n) * self.top.order + self.top.check_id(h)

    def _mul(self, x: int, y: int) -> int:
        nt = self.top.order
        n1, h1 = divmod(x, nt)
        n2, h2 = divmod(y, nt)
        n = self.normal._mul(n1, int(self.phi[h1, n2]))
        return n * nt + self.top._mul(h1, h2)

    def _invert(self, x: int) -> int:
        nt = self.top.order
        n, h = divmod(x, nt)
        hi = self.top._invert(h)
        return int(self.phi[hi, self.normal._invert(n)]) * nt + hi

    def _mul_pairwise_vec(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        nt = self.top.order
        n1, h1 = divmod(xs, nt)
        n2, h2 = divmod(ys, nt)
        n = self.normal.mul_pairwise_vec(n1, self.phi[h1, n2])
        return n * nt + self.top.mul_pairwise_vec(h1, h2)


def direct_product(left: FiniteGroup, right: FiniteGroup, name: str = "") -> SemidirectGroup:
    """A x B on pair ids a * |B| + b: B acting trivially on A."""
    trivial = np.arange(left.order, dtype=np.int64)
    return SemidirectGroup(
        left, right, [trivial] * len(right.generators), name or f"{left.name}x{right.name}"
    )


def semidirect_product(
    normal: FiniteGroup,
    top: FiniteGroup,
    action: Sequence[Sequence[int]],
    name: str = "",
) -> SemidirectGroup:
    return SemidirectGroup(normal, top, action, name=name)


def central_product(
    left: FiniteGroup,
    right: FiniteGroup,
    identify: Sequence[tuple[int, int]],
    name: str = "",
) -> FiniteGroup:
    """Glue A and B along identified central subgroups.

    identify lists generator pairs (za, zb); the result is (A x B) modulo
    the graph subgroup generated by all (za, zb^-1). Empty identification
    degenerates to the direct product. The pairs must generate central
    subgroups of matching size on both sides, else the identification map
    is not an isomorphism and the quotient would collapse more than stated.
    """
    if not identify:
        return direct_product(left, right, name=name)
    za_gens = [left.check_id(int(a)) for a, _ in identify]
    zb_gens = [right.check_id(int(b)) for _, b in identify]
    for G, zs, side in ((left, za_gens, "left"), (right, zb_gens, "right")):
        for z in zs:
            if any(G.mul(z, g) != G.mul(g, z) for g in G.generators):
                raise NotCentral(f"element {z} is not central in the {side} factor")
    prod = direct_product(left, right)
    graph = closure_ids(
        prod,
        [prod.embed(a, right.inv(b)) for a, b in zip(za_gens, zb_gens)],
    )
    za_size = len(closure_ids(left, za_gens))
    zb_size = len(closure_ids(right, zb_gens))
    if not (len(graph) == za_size == zb_size):
        raise NotIsomorphism(
            f"identified subgroups have sizes {za_size} and {zb_size}; "
            f"their graph has size {len(graph)}"
        )
    return QuotientGroup(prod, graph, name=name or f"{left.name}*{right.name}")


def wreath_cyclic(m: int, n: int) -> SemidirectGroup:
    """C_m wr C_n: base C_m^n with the top n-cycle shifting coordinates.

    Conjugation by the top generator moves the digit at coordinate i to
    coordinate i+1 mod n (base ids are mixed-radix digit strings).
    """
    _require(m >= 2 and n >= 2, f"wreath parameters ({m}, {n}) must be >= 2")
    base = abelian([m] * n)
    top = cyclic(n)
    ids = np.arange(base.order, dtype=np.int64)
    digits = np.empty((n, base.order), dtype=np.int64)
    acc = ids
    for i in range(n - 1, -1, -1):
        digits[i] = acc % m
        acc = acc // m
    rolled = np.roll(digits, 1, axis=0)
    arr = np.zeros(base.order, dtype=np.int64)
    for i in range(n):
        arr = arr * m + rolled[i]
    G = SemidirectGroup(base, top, [arr], name=f"C{m}wrC{n}")
    return G


# -- family registry ---------------------------------------------------------

_BUILDERS = {
    "cyclic": cyclic,
    "abelian": abelian,
    "dihedral": dihedral,
    "generalized_quaternion": generalized_quaternion,
    "semidihedral": semidihedral,
    "modular_max_cyclic": modular_max_cyclic,
    "extraspecial_p3": extraspecial_p3,
    "symmetric": symmetric,
    "alternating": alternating,
    "sl23": sl23,
    "wreath_cyclic": wreath_cyclic,
}

# Each family's spec parameters: its builder's argument names.
FAMILY_PARAMS: dict[str, tuple[str, ...]] = {
    name: tuple(inspect.signature(fn).parameters) for name, fn in _BUILDERS.items()
}


def build_family(name: str, params: Mapping | None = None) -> FiniteGroup:
    """Dispatch to a named family builder with validated parameters."""
    if name not in _BUILDERS:
        raise UnknownFamily(f"no family named {name!r}")
    params = dict(params or {})
    expected = set(FAMILY_PARAMS[name])
    got = set(params)
    if got != expected:
        missing = expected - got
        extra = got - expected
        parts = []
        if missing:
            parts.append(f"missing {sorted(missing)}")
        if extra:
            parts.append(f"unexpected {sorted(extra)}")
        raise ParamOutOfRange(f"family {name!r}: " + ", ".join(parts))
    return _BUILDERS[name](**params)


# -- reference witness bundles ------------------------------------------------


@dataclass
class S6Bundle:
    """S6 with the named subgroups of the chain counterexample."""

    G: PermGroup
    N: Subgroup
    L: Subgroup
    H: Subgroup
    K: Subgroup


@dataclass
class PcBundle:
    """A realized p-group of order p^7 with named generator handles."""

    group: PcGroup
    p: int
    gens: dict[str, int]


def _s6_bundle() -> S6Bundle:
    G = symmetric(6)

    def pid(cycles):
        return G.id_of(perm_from_cycles(6, cycles))

    N = closure(G, [pid([(0, 1, 2)]), pid([(3, 4, 5)])])
    L = closure(G, [pid([(0, 3, 1, 4), (2, 5)]), pid([(0, 1)])])
    H = normalizer(G, N)
    K = closure(G, [pid([(0, 1, 2)]), pid([(0, 1, 2, 3, 4)])])
    return S6Bundle(G=G, N=N, L=L, H=H, K=K)


def _order_5_7_bundle() -> PcBundle:
    p = 5
    pres = PcPresentation(
        rel_orders=(p,) * 7,
        powers={0: [(5, 1)], 2: [(6, 1)]},
        commutators={
            (1, 0): [(2, 1)],
            (2, 1): [(3, 1)],
            (3, 1): [(4, 1)],
            (4, 1): [(5, 1)],
            (3, 0): [(6, p - 1)],
            (3, 2): [(6, p - 1)],
            (4, 0): [(6, p - 1)],
            (5, 1): [(6, p - 1)],
        },
    )
    G = realize_pc_group(pres, name="G(5^7)")
    names = ("a1", "a2", "a3", "a4", "a5", "a1p", "a3p")
    return PcBundle(group=G, p=p, gens=dict(zip(names, G.generators)))


def _order_p7_bundle(p: int) -> PcBundle:
    pk = prime_power(p)
    _require(pk == (p, 1) and p >= 7, f"parameter p = {p} must be a prime >= 7")
    pres = PcPresentation(
        rel_orders=(p,) * 7,
        powers={},
        commutators={
            (1, 0): [(2, p - 1)],
            (2, 1): [(3, 1)],
            (3, 1): [(4, 1)],
            (4, 1): [(5, 1)],
            (5, 1): [(6, 1)],
            (3, 2): [(6, p - 1)],
            (2, 0): [(6, p - 1)],
            (3, 0): [(6, 1)],
            (4, 0): [(6, 1)],
        },
    )
    G = realize_pc_group(pres, name=f"G({p}^7)")
    names = ("x", "a", "a1", "a2", "a3", "a4", "a5")
    return PcBundle(group=G, p=p, gens=dict(zip(names, G.generators)))


def witness_bundle(which: str, p: int | None = None):
    """Reference constructions used throughout the test suite.

    s6_example -> S6Bundle; group1 -> PcBundle at a prime p >= 7;
    group2 -> PcBundle at the fixed prime 5.
    """
    if which == "s6_example":
        return _s6_bundle()
    if which == "group2":
        return _order_5_7_bundle()
    if which == "group1":
        _require(p is not None, "group1 needs a prime parameter p >= 7")
        return _order_p7_bundle(int(p))
    raise ParamOutOfRange(f"unknown witness bundle {which!r}")
