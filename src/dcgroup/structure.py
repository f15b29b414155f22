"""Structural invariants: series, centers, Frattini quotients, p-group data.

Everything here works on a parent group and its Subgroup views without ever
relabeling elements, so the same code path serves a 16-element table group and
an order 7^7 collected group. Functions that genuinely need the whole subgroup
lattice take it as an explicit argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .core import FiniteGroup, QuotientGroup, closure_ids, prime_power
from .errors import (
    NotAbelian,
    NotPGroup,
    OrderCapExceeded,
    ParamOutOfRange,
    ParentMismatch,
    SearchBudgetExceeded,
)
from .lattice import (
    Subgroup,
    SubgroupLattice,
    _generators_from_ids,
    _ids_to_bits,
    closure,
    full_subgroup,
    is_normal,
    normal_closure,
    subgroup_as_group,
    trivial_subgroup,
)

__all__ = [
    "REGULARITY_CAP",
    "GEN_SEARCH_BUDGET",
    "derived_subgroup",
    "derived_series",
    "derived_length",
    "lower_central_series",
    "nilpotency_class",
    "lcs_of_subgroup",
    "subgroup_exponent",
    "subgroup_min_generators",
    "subgroup_frattini",
    "center",
    "center_of_subgroup",
    "centralizer",
    "normalizer",
    "frattini_subgroup",
    "omega",
    "agemo",
    "min_generators",
    "abelian_type",
    "exponent",
    "is_pgroup",
    "is_cyclic",
    "quotient_exponent",
    "quotient_is_cyclic",
    "pgroup_maximal_subgroups",
    "frattini_quotient_coords",
    "SylowSplit",
    "sylow_decomposition",
    "fundamental_subgroup",
    "is_regular",
    "is_p_abelian",
    "PGroupProfile",
    "p_group_profile",
]

# Definitional (all-pairs) regularity and p-abelian tests run up to this order.
REGULARITY_CAP = 1024

# Generating-set search for non-p-groups tries at most this many closures.
GEN_SEARCH_BUDGET = 20000


def _span(G: FiniteGroup, candidates: np.ndarray, name_gens: bool = True) -> Subgroup:
    """Subgroup generated by a candidate id set, via greedy generator picking."""
    cand = np.unique(np.asarray(candidates, dtype=np.int64))
    cand = cand[cand != 0]
    if cand.size == 0:
        return trivial_subgroup(G)
    gens: list[int] = []
    sub = trivial_subgroup(G)
    while True:
        inside = np.isin(cand, sub.ids(), assume_unique=True)
        missing = cand[~inside]
        if missing.size == 0:
            return sub
        gens.append(int(missing[0]))
        sub = closure(G, gens, gens=tuple(gens))


def _subgroup_from_ids(G: FiniteGroup, ids: np.ndarray) -> Subgroup:
    ids = np.unique(np.asarray(ids, dtype=np.int64))
    gens = _generators_from_ids(G, ids)
    bits = None
    if G.order <= 1 << 16:
        bits = _ids_to_bits(int(v) for v in ids)
    return Subgroup(G, bits, gens, ids=ids)


def _as_subgroup(G: FiniteGroup, S: Subgroup | None) -> Subgroup:
    if S is None:
        return full_subgroup(G)
    if S.parent is not G:
        raise ParentMismatch("subgroup belongs to a different parent")
    return S


# ---------------------------------------------------------------------------
# commutator machinery


def derived_subgroup(G: FiniteGroup, S: Subgroup | None = None) -> Subgroup:
    """Derived subgroup of S (default: of G itself).

    Normal closure, within S, of the commutators of S's generators. Closing
    only generator pairs is enough because conjugates of those commutators
    generate the full commutator subgroup.
    """
    S = _as_subgroup(G, S)
    gens = S.gens if not S.is_full else G.generators
    seed = {
        G.commutator(a, b) for i, a in enumerate(gens) for b in gens[i + 1 :]
    } - {0}
    if not seed:
        return trivial_subgroup(G)
    return normal_closure(G, seed, under=gens)


def derived_series(G: FiniteGroup, S: Subgroup | None = None) -> list[Subgroup]:
    """Derived series of S, stopping when it stabilizes.

    Ends with the trivial subgroup exactly when S is solvable; a repeated
    final term signals a perfect tail.
    """
    cur = _as_subgroup(G, S)
    series = [cur]
    while cur.order > 1:
        nxt = derived_subgroup(G, cur)
        if nxt.order == cur.order:
            break
        series.append(nxt)
        cur = nxt
    return series


def derived_length(G: FiniteGroup, S: Subgroup | None = None) -> int | None:
    """Number of derived steps to reach 1; None if not solvable."""
    series = derived_series(G, S)
    if series[-1].order != 1:
        return None
    return len(series) - 1


def lower_central_series(G: FiniteGroup) -> list[Subgroup]:
    """K_1 = G, K_{i+1} = [K_i, G], stopping when it stabilizes."""
    cur = full_subgroup(G)
    series = [cur]
    while cur.order > 1:
        seed = {
            G.commutator(a, g) for a in cur.gens for g in G.generators
        } - {0}
        nxt = normal_closure(G, seed) if seed else trivial_subgroup(G)
        if nxt.order == cur.order:
            break
        series.append(nxt)
        cur = nxt
    return series


def nilpotency_class(G: FiniteGroup) -> int | None:
    """Length of the lower central series; None if G is not nilpotent."""
    series = lower_central_series(G)
    if series[-1].order != 1:
        return None
    return len(series) - 1


def lcs_of_subgroup(G: FiniteGroup, S: Subgroup) -> list[Subgroup]:
    """Lower central series of a subgroup, computed inside the parent."""
    S = _as_subgroup(G, S)
    cur = S
    series = [cur]
    while cur.order > 1:
        seed = {G.commutator(a, s) for a in cur.gens for s in S.gens} - {0}
        nxt = (
            normal_closure(G, seed, under=S.gens) if seed else trivial_subgroup(G)
        )
        if nxt.order == cur.order:
            break
        series.append(nxt)
        cur = nxt
    return series


def subgroup_exponent(G: FiniteGroup, S: Subgroup) -> int:
    """Exponent of a subgroup, from parent element orders."""
    S = _as_subgroup(G, S)
    orders = G.element_orders()[S.ids()]
    out = 1
    for v in np.unique(orders):
        out = lcm(out, int(v))
    return out


def subgroup_min_generators(G: FiniteGroup, S: Subgroup) -> int:
    """Minimal generating set size of a subgroup of prime-power order.

    Frattini quotient rank, with the Frattini subgroup of S computed inside
    the parent as <S', generator p-th powers>.
    """
    S = _as_subgroup(G, S)
    if S.order == 1:
        return 0
    pk = prime_power(S.order)
    if pk is None:
        raise NotPGroup(f"subgroup order {S.order} is not a prime power")
    p = pk[0]
    phi = subgroup_frattini(G, S)
    quot = S.order // phi.order
    d = 0
    while quot > 1:
        quot //= p
        d += 1
    return d


def subgroup_frattini(G: FiniteGroup, S: Subgroup) -> Subgroup:
    """Frattini subgroup of a prime-power-order subgroup, inside the parent."""
    S = _as_subgroup(G, S)
    if S.order == 1:
        return trivial_subgroup(G)
    p = 2
    m = S.order
    while m % p:
        p += 1
    dg = derived_subgroup(G, S)
    seed = set(dg.gens) | {G.power(g, p) for g in S.gens}
    seed -= {0}
    if not seed:
        return trivial_subgroup(G)
    return closure(G, sorted(seed))


def _commutator_with_all(G: FiniteGroup, k: int, xs: np.ndarray) -> np.ndarray:
    """[k, x] for every x in xs, vectorized."""
    kx = G.lmul_vec(k, xs)
    conj = G.mul_pairwise_vec(G.inv_vec(xs), kx)
    return G.lmul_vec(G.inv(k), conj)


def center_of_subgroup(G: FiniteGroup, S: Subgroup | None = None) -> Subgroup:
    """Elements of S commuting with every generator of S."""
    S = _as_subgroup(G, S)
    ids = S.ids()
    mask = np.ones(ids.size, dtype=bool)
    for g in S.gens:
        mask &= G.mul_vec(ids, g) == G.lmul_vec(g, ids)
    return _subgroup_from_ids(G, ids[mask])


def center(G: FiniteGroup) -> Subgroup:
    return center_of_subgroup(G, None)


def centralizer(G: FiniteGroup, S: Subgroup) -> Subgroup:
    """Elements of G commuting with every generator of S."""
    S = _as_subgroup(G, S)
    ids = np.arange(G.order, dtype=np.int64)
    mask = np.ones(G.order, dtype=bool)
    for g in S.gens:
        mask &= G.mul_vec(ids, g) == G.lmul_vec(g, ids)
    return _subgroup_from_ids(G, ids[mask])


def normalizer(G: FiniteGroup, S: Subgroup) -> Subgroup:
    """Elements g with S^g = S; needs the parent's Cayley table."""
    S = _as_subgroup(G, S)
    arr = G.np_table()
    if arr is None:
        raise OrderCapExceeded(f"normalizer needs a table, order {G.order} too big")
    n = G.order
    invs = G.inv_vec(np.arange(n, dtype=np.int64))
    member = np.zeros(n, dtype=bool)
    member[S.ids()] = True
    mask = np.ones(n, dtype=bool)
    allg = np.arange(n, dtype=np.int64)
    for s in S.gens:
        conj = arr[arr[invs, s], allg]
        mask &= member[conj]
    return _subgroup_from_ids(G, allg[mask])


# ---------------------------------------------------------------------------
# p-group basics


def is_pgroup(G: FiniteGroup) -> tuple[int, int] | None:
    """(p, n) with |G| = p^n, or None if the order is not a prime power."""
    return prime_power(G.order)


def _require_pgroup(G: FiniteGroup) -> tuple[int, int]:
    pn = is_pgroup(G)
    if pn is None:
        raise NotPGroup(f"{G.name} has order {G.order}, not a prime power")
    return pn


def exponent(G: FiniteGroup) -> int:
    orders = G.element_orders()
    pn = is_pgroup(G)
    if pn is not None or G.order == 1:
        return int(orders.max())
    out = 1
    for v in np.unique(orders):
        out = lcm(out, int(v))
    return out


def is_cyclic(G: FiniteGroup, S: Subgroup | None = None) -> bool:
    S = _as_subgroup(G, S)
    orders = G.element_orders()[S.ids()]
    return int(orders.max()) == S.order


def frattini_subgroup(
    G: FiniteGroup, lattice: SubgroupLattice | None = None
) -> Subgroup:
    """Frattini subgroup: intersection of the maximal subgroups.

    For p-groups this equals the closure of the derived subgroup together
    with generator p-th powers, which avoids any lattice work; other groups
    need the lattice.
    """
    pn = is_pgroup(G)
    if pn is not None:
        p = pn[0]
        dg = derived_subgroup(G)
        seed = set(dg.gens) | {G.power(g, p) for g in G.generators}
        seed -= {0}
        if not seed:
            return trivial_subgroup(G)
        return closure(G, sorted(seed))
    if G.order == 1:
        return trivial_subgroup(G)
    if lattice is None:
        from .lattice import all_subgroups

        lattice = all_subgroups(G)
    from .lattice import maximal_subgroups, meet

    out = full_subgroup(G)
    for m in maximal_subgroups(G, lattice):
        out = meet(out, m)
    return out


def omega(G: FiniteGroup, s: int = 1) -> Subgroup:
    """Omega_s: subgroup generated by elements of order dividing p^s."""
    p, _ = _require_pgroup(G)
    if s < 1:
        raise ParamOutOfRange(f"omega index {s} must be >= 1")
    orders = G.element_orders()
    ids = np.nonzero(orders <= p**s)[0]
    return _span(G, ids)


def agemo(G: FiniteGroup, s: int = 1) -> Subgroup:
    """Agemo_s: subgroup generated by p^s-th powers."""
    p, _ = _require_pgroup(G)
    if s < 1:
        raise ParamOutOfRange(f"agemo index {s} must be >= 1")
    xs = np.arange(G.order, dtype=np.int64)
    return _span(G, G.pow_vec(xs, p**s))


def min_generators(G: FiniteGroup, budget: int = GEN_SEARCH_BUDGET) -> int:
    """Minimal generating set size.

    For p-groups this is the Frattini quotient rank. Otherwise a bounded
    search over candidate tuples in element-order order; raises
    SearchBudgetExceeded when the budget runs out before an answer.
    """
    if G.order == 1:
        return 0
    pn = is_pgroup(G)
    if pn is not None:
        p, _ = pn
        phi = frattini_subgroup(G)
        quot = G.order // phi.order
        d = 0
        while quot > 1:
            quot //= p
            d += 1
        return d
    orders = G.element_orders()
    if int(orders.max()) == G.order:
        return 1
    by_order = sorted(range(1, G.order), key=lambda x: (-int(orders[x]), x))
    spent = 0
    for k in (2, 3, 4):
        for combo in _tuple_stream(by_order, k):
            spent += 1
            if spent > budget:
                raise SearchBudgetExceeded(
                    f"no generating {k}-tuple found within {budget} closures"
                )
            if closure(G, combo).order == G.order:
                return k
    raise SearchBudgetExceeded(f"generating sets up to size 4 exhausted for {G.name}")


def _tuple_stream(pool: list[int], k: int):
    """k-tuples of pool elements in lexicographic pool order."""
    if k == 2:
        for i, x in enumerate(pool):
            for y in pool[i + 1 :]:
                yield (x, y)
    else:
        for i, x in enumerate(pool):
            for rest in _tuple_stream(pool[i + 1 :], k - 1):
                yield (x, *rest)


def abelian_type(G: FiniteGroup, S: Subgroup | None = None) -> list[int]:
    """Invariant factors d_1 | d_2 | ... | d_k of an abelian (sub)group.

    Peels a maximal-order cyclic direct factor per step; the result is
    cross-checked against element order statistics before returning.
    """
    S = _as_subgroup(G, S)
    if S.order == 1:
        return []
    H, _ = subgroup_as_group(S) if not S.is_full else (G, None)
    if H.order > 4096:
        raise OrderCapExceeded(f"abelian type of order {H.order} needs a table")
    gens = H.generators
    if any(H.mul(a, b) != H.mul(b, a) for a in gens for b in gens):
        raise NotAbelian(f"{H.name} is not abelian")
    typ: list[int] = []
    cur: FiniteGroup = H
    while cur.order > 1:
        orders = cur.element_orders()
        m = int(orders.max())
        x = int(np.argmax(orders == m))
        typ.append(m)
        cur = QuotientGroup(cur, closure_ids(cur, [x]))
    typ.reverse()
    _check_abelian_type(H, typ)
    return typ


def _check_abelian_type(H: FiniteGroup, typ: list[int]) -> None:
    """Element-count cross-check: #{x : x^k = 1} must equal prod gcd(k, d_i)."""
    orders = H.element_orders()
    e = int(orders.max())
    divisors = [k for k in range(1, e + 1) if e % k == 0]
    for k in divisors:
        expected = 1
        for d in typ:
            expected *= gcd(k, d)
        got = int((k % orders == 0).sum())
        if got != expected:
            raise NotAbelian(
                f"type {typ} fails order statistics at k={k}: {got} != {expected}"
            )


def quotient_exponent(G: FiniteGroup, A: Subgroup, B: Subgroup) -> int:
    """Exponent of A/B for B normal in A, without building the quotient.

    p-groups only: repeatedly raises every element of A to the p-th power
    until all land in B.
    """
    p, _ = _require_pgroup(G)
    if not B.issubset(A):
        raise ParentMismatch("quotient needs B <= A")
    xs = A.ids().copy()
    b_ids = B.ids()
    t = 0
    while True:
        inside = np.isin(xs, b_ids)
        if inside.all():
            return p**t
        xs = G.pow_vec(xs, p)
        t += 1


def quotient_is_cyclic(G: FiniteGroup, A: Subgroup, B: Subgroup) -> bool:
    """Whether A/B is cyclic, for p-group sections."""
    return quotient_exponent(G, A, B) * B.order == A.order


# ---------------------------------------------------------------------------
# Frattini quotient as a vector space; maximal subgroups of p-groups


def frattini_quotient_coords(
    G: FiniteGroup, phi: Subgroup | None = None
) -> tuple[QuotientGroup, dict[int, tuple[int, ...]], list[int]]:
    """Coordinates on G/Phi(G) as a vector space over F_p.

    Returns the quotient, a map coset id -> exponent vector, and the coset
    ids of the chosen basis.
    """
    p, _ = _require_pgroup(G)
    if phi is None:
        phi = frattini_subgroup(G)
    quot = QuotientGroup(G, [int(v) for v in phi.ids()], name=f"{G.name}/Phi")
    coords: dict[int, tuple[int, ...]] = {0: ()}
    basis: list[int] = []
    for g in quot.generators:
        if g in coords:
            continue
        basis.append(g)
        old = list(coords.items())
        coords = {}
        cur = 0
        for e in range(p):
            for q, vec in old:
                coords[quot.mul(q, cur)] = vec + (e,)
            cur = quot.mul(cur, g)
    if len(coords) != quot.order:
        raise NotPGroup(f"Frattini quotient of {G.name} is not elementary abelian")
    return quot, coords, basis


def pgroup_maximal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Maximal subgroups of a p-group: hyperplane preimages mod Frattini."""
    p, _ = _require_pgroup(G)
    phi = frattini_subgroup(G)
    if phi.order == G.order:
        return []
    quot, coords, basis = frattini_quotient_coords(G, phi)
    d = len(basis)
    vec_of = np.zeros((quot.order, d), dtype=np.int64)
    for q, vec in coords.items():
        vec_of[q] = vec
    out: list[Subgroup] = []
    for functional in _projective_functionals(p, d):
        f = np.asarray(functional, dtype=np.int64)
        kernel = np.nonzero(vec_of @ f % p == 0)[0]
        member = np.zeros(quot.order, dtype=bool)
        member[kernel] = True
        ids = np.nonzero(member[quot._class_of])[0]
        out.append(_subgroup_from_ids(G, ids))
    out.sort(key=Subgroup.sort_key)
    return out


def _projective_functionals(p: int, d: int):
    """Nonzero functionals on F_p^d, one per hyperplane (first nonzero = 1)."""
    for lead in range(d):
        for rest in range(p ** (d - lead - 1)):
            f = [0] * lead + [1]
            r = rest
            for _ in range(d - lead - 1):
                f.append(r % p)
                r //= p
            yield tuple(f)


# ---------------------------------------------------------------------------
# Sylow structure for small non-p-groups


@dataclass(frozen=True)
class SylowSplit:
    """A normal Sylow p-subgroup and, when found, a complement to it."""

    p: int
    sylow: Subgroup
    complement: Subgroup | None
    complement_abelian: bool | None


def sylow_decomposition(
    G: FiniteGroup, p: int, lattice: SubgroupLattice | None = None
) -> SylowSplit | None:
    """Find a normal Sylow p-subgroup and a complement, if they exist.

    Returns None when no Sylow p-subgroup is normal. Among complements an
    abelian one is preferred; ties break by canonical subgroup order.
    """
    n = G.order
    pv = 1
    while n % p == 0:
        n //= p
        pv *= p
    if pv == 1:
        raise ParamOutOfRange(f"{p} does not divide |{G.name}| = {G.order}")
    if lattice is None:
        from .lattice import all_subgroups

        lattice = all_subgroups(G)
    sylow = None
    for s in lattice.of_order(pv):
        if is_normal(G, s):
            sylow = s
            break
    if sylow is None:
        return None
    best = None
    for c in lattice.of_order(n):
        inter = sylow.bits & c.bits if sylow.bits is not None else None
        if inter is not None:
            trivial_meet = inter == 1
        else:
            trivial_meet = np.intersect1d(sylow.ids(), c.ids()).size == 1
        if not trivial_meet:
            continue
        abelian = _subgroup_is_abelian(G, c)
        if abelian:
            return SylowSplit(p, sylow, c, True)
        if best is None:
            best = c
    if best is not None:
        return SylowSplit(p, sylow, best, False)
    return SylowSplit(p, sylow, None, None)


def _subgroup_is_abelian(G: FiniteGroup, S: Subgroup) -> bool:
    return all(
        G.mul(a, b) == G.mul(b, a) for i, a in enumerate(S.gens) for b in S.gens[i:]
    )


# ---------------------------------------------------------------------------
# regularity, p-abelian, maximal class


def is_regular(G: FiniteGroup, cap: int = REGULARITY_CAP) -> bool | None:
    """Hall regularity: (xy)^p in x^p y^p U1(<x,y>') for all x, y.

    Definitional all-pairs test up to the cap; above it, class < p still
    decides regularity, and otherwise None is returned.
    """
    p, _ = _require_pgroup(G)
    if G.order > cap:
        cl = nilpotency_class(G)
        if cl is not None and cl < p:
            return True
        if exponent(G) == p:
            return True
        return None
    span_cache: dict[object, np.ndarray] = {}
    cyc: dict[int, Subgroup] = {}

    def atom(x: int) -> Subgroup:
        if x not in cyc:
            cyc[x] = closure(G, [x])
        return cyc[x]

    pows = G.pow_vec(np.arange(G.order, dtype=np.int64), p)
    for x in range(G.order):
        xp = int(pows[x])
        for y in range(G.order):
            lhs = G.power(G.mul(x, y), p)
            base = G.mul(xp, int(pows[y]))
            if lhs == base:
                continue
            ax, ay = atom(x), atom(y)
            key = (ax.bits, ay.bits) if ax.bits is not None else (
                ax.ids().tobytes(),
                ay.ids().tobytes(),
            )
            if key not in span_cache:
                two = closure(G, [x, y])
                dg = derived_subgroup(G, two)
                u1 = _span(G, G.pow_vec(dg.ids(), p))
                span_cache[key] = u1.ids()
            target = G.mul(G.inv(base), lhs)
            if not bool(np.isin(target, span_cache[key]).item()):
                return False
    return True


def is_p_abelian(G: FiniteGroup, cap: int = REGULARITY_CAP) -> bool | None:
    """Whether (xy)^p = x^p y^p identically; None above the cap."""
    p, _ = _require_pgroup(G)
    if G.is_abelian or exponent(G) == p:
        return True
    if G.order > cap:
        return None
    xs = np.arange(G.order, dtype=np.int64)
    pows = G.pow_vec(xs, p)
    for x in range(G.order):
        lhs = G.pow_vec(G.lmul_vec(x, xs), p)
        rhs = G.lmul_vec(int(pows[x]), pows)
        if not (lhs == rhs).all():
            return False
    return True


def fundamental_subgroup(G: FiniteGroup) -> Subgroup:
    """For a maximal class p-group: centralizer of K_2/K_4 in G."""
    p, n = _require_pgroup(G)
    series = lower_central_series(G)
    cl = len(series) - 1 if series[-1].order == 1 else None
    if n < 4 or cl != n - 1:
        raise ParamOutOfRange(f"{G.name} is not of maximal class with n >= 4")
    k2, k4 = series[1], series[3]
    xs = np.arange(G.order, dtype=np.int64)
    mask = np.ones(G.order, dtype=bool)
    k4_ids = k4.ids()
    for k in k2.gens:
        comms = _commutator_with_all(G, k, xs)
        mask &= np.isin(comms, k4_ids)
    return _subgroup_from_ids(G, xs[mask])


# ---------------------------------------------------------------------------
# profile


@dataclass(frozen=True)
class PGroupProfile:
    """Headline invariants of a finite p-group."""

    p: int
    n: int
    order: int
    d: int
    cl: int
    dl: int
    exponent: int
    abelian: bool
    derived_order: int
    center_order: int
    center_cyclic: bool
    regular: bool | None
    p_abelian: bool | None
    minimal_nonabelian: bool
    maximal_class: bool


def p_group_profile(G: FiniteGroup) -> PGroupProfile:
    p, n = _require_pgroup(G)
    cl = nilpotency_class(G)
    dl = derived_length(G)
    if cl is None or dl is None:
        raise NotPGroup(f"{G.name} claims to be a p-group but is not nilpotent")
    dg = derived_subgroup(G)
    z = center(G)
    maximals = pgroup_maximal_subgroups(G)
    minimal_na = not G.is_abelian and all(
        _subgroup_is_abelian(G, m) for m in maximals
    )
    return PGroupProfile(
        p=p,
        n=n,
        order=G.order,
        d=min_generators(G),
        cl=cl,
        dl=dl,
        exponent=exponent(G),
        abelian=G.is_abelian,
        derived_order=dg.order,
        center_order=z.order,
        center_cyclic=is_cyclic(G, z),
        regular=is_regular(G),
        p_abelian=is_p_abelian(G),
        minimal_nonabelian=minimal_na,
        maximal_class=(n >= 3 and cl == n - 1),
    )
