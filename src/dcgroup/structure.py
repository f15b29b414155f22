"""Structural invariants: series, centers, Frattini quotients, p-group data.

Everything here works on a parent group and its Subgroup views without ever
relabeling elements, so the same code path serves a 16-element table group and
an order 7^7 collected group. A fact about a subgroup and the same fact about
G are one function, `f(G, S=None)`: it works on S inside G, and on G itself
when S is None. `sylow_decomposition`, which needs the whole subgroup
lattice, takes one already built as an optional argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import (
    BLOCK,
    FiniteGroup,
    QuotientGroup,
    _pick_generators,
    closure_ids,
    prime_factors,
    prime_power,
)
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
    _conjugates,
    _subgroup,
    all_subgroups,
    closure,
    full_subgroup,
    is_normal,
    maximal_subgroups,
    meet,
    normal_closure,
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
    "center",
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
    "SylowSplit",
    "sylow_decomposition",
    "fundamental_subgroup",
    "is_regular",
    "is_p_abelian",
]

# Definitional (all-pairs) regularity and p-abelian tests run up to this order.
REGULARITY_CAP = 1024

# Generating-set search for non-p-groups counts at most this many candidate tuples.
GEN_SEARCH_BUDGET = 20000


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


def _series(S: Subgroup, step) -> list[Subgroup]:
    """S, step(S), step(step(S)), ..., until the order stops falling.

    Ends with the trivial subgroup, or with a term that `step` fixes.
    """
    series = [S]
    while series[-1].order > 1:
        nxt = step(series[-1])
        if nxt.order == series[-1].order:
            break
        series.append(nxt)
    return series


def _steps_to_one(series: list[Subgroup]) -> int | None:
    """Steps a `_series` takes to reach 1; None if it stops above 1."""
    return len(series) - 1 if series[-1].order == 1 else None


def derived_series(G: FiniteGroup, S: Subgroup | None = None) -> list[Subgroup]:
    """Derived series of S, stopping when it stabilizes.

    Ends with the trivial subgroup exactly when S is solvable; a repeated
    final term signals a perfect tail.
    """
    return _series(_as_subgroup(G, S), lambda K: derived_subgroup(G, K))


def derived_length(G: FiniteGroup, S: Subgroup | None = None) -> int | None:
    """Number of derived steps to reach 1; None if not solvable."""
    return _steps_to_one(derived_series(G, S))


def lower_central_series(G: FiniteGroup, S: Subgroup | None = None) -> list[Subgroup]:
    """Lower central series of S (default: of G itself), inside the parent.

    K_1 = S, K_{i+1} = [K_i, S], stopping when it stabilizes. G's own
    series is built once and kept on G as (ids, gens) pairs: a Subgroup
    refers to G, and G holding one would leave G to the cycle collector
    instead of freeing it with its last reference.
    """
    if S is not None:
        return _central_series(G, _as_subgroup(G, S))
    if G._lcs is None:
        G._lcs = [(K.ids(), K.gens) for K in _central_series(G, full_subgroup(G))]
    return [_subgroup(G, ids, gens) for ids, gens in G._lcs]


def _central_series(G: FiniteGroup, S: Subgroup) -> list[Subgroup]:
    """The lower central series of S, built term by term."""

    def step(K: Subgroup) -> Subgroup:
        seed = {G.commutator(a, s) for a in K.gens for s in S.gens} - {0}
        return normal_closure(G, seed, under=S.gens) if seed else trivial_subgroup(G)

    return _series(S, step)


def nilpotency_class(G: FiniteGroup, S: Subgroup | None = None) -> int | None:
    """Length of the lower central series of S; None if S is not nilpotent."""
    return _steps_to_one(lower_central_series(G, S))


def _commutator_with_all(G: FiniteGroup, k: int, xs: np.ndarray) -> np.ndarray:
    """[x, k] = x^-1 k^-1 x k for every x in xs, by right products only."""
    xk = G.mul_pairwise_vec(G.mul_vec(G.inv_vec(xs), G.inv(k)), xs)
    return G.mul_vec(xk, k)


def _commuting(G: FiniteGroup, ids: np.ndarray, gens: tuple[int, ...]) -> Subgroup:
    """The sorted ids commuting with every g in gens.

    Tested BLOCK ids at a time, each g on the survivors of the ones before
    it, so the products stay small beside the ids; the survivors of the
    blocks, concatenated, are sorted as the ids are.
    """
    kept = []
    for lo in range(0, ids.size, BLOCK):
        xs = ids[lo : lo + BLOCK]
        for g in gens:
            xs = xs[G.mul_vec(xs, g) == G.lmul_vec(g, xs)]
        kept.append(xs)
    return _subgroup(G, np.concatenate(kept))


def center(G: FiniteGroup, S: Subgroup | None = None) -> Subgroup:
    """Center of S (default: of G): its elements commuting with every generator."""
    S = _as_subgroup(G, S)
    return _commuting(G, S.ids(), S.gens)


def centralizer(G: FiniteGroup, S: Subgroup) -> Subgroup:
    """Elements of G commuting with every generator of S."""
    S = _as_subgroup(G, S)
    return _commuting(G, G.all_ids(), S.gens)


def normalizer(G: FiniteGroup, S: Subgroup) -> Subgroup:
    """Elements g with S^g = S; needs the parent's Cayley table."""
    S = _as_subgroup(G, S)
    if G.np_table() is None:
        raise OrderCapExceeded(f"normalizer needs a table, order {G.order} too big")
    member = np.zeros(G.order, dtype=bool)
    member[S.ids()] = True
    stays = member[_conjugates(G, np.asarray(S.gens, dtype=np.int64))].all(axis=1)
    return _subgroup(G, np.flatnonzero(stays))


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


def exponent(G: FiniteGroup, S: Subgroup | None = None) -> int:
    """Exponent of S (default: of G): the lcm of parent element orders."""
    orders = G.element_orders()
    if S is not None:
        orders = orders[_as_subgroup(G, S).ids()]
    return int(np.lcm.reduce(orders))


def is_cyclic(G: FiniteGroup, S: Subgroup | None = None) -> bool:
    S = _as_subgroup(G, S)
    orders = G.element_orders()[S.ids()]
    return int(orders.max()) == S.order


def frattini_subgroup(G: FiniteGroup, S: Subgroup | None = None) -> Subgroup:
    """Frattini subgroup of S (default: of G): meet of its maximal subgroups.

    For a p-subgroup this is <S', generator p-th powers>, closed inside the
    parent without lattice work. Any other G needs its lattice; a proper
    subgroup that is not of prime-power order raises NotPGroup.
    """
    S = _as_subgroup(G, S)
    if S.order == 1:
        return trivial_subgroup(G)
    pk = prime_power(S.order)
    if pk is None:
        if not S.is_full:
            raise NotPGroup(f"subgroup order {S.order} is not a prime power")
        out = S
        for m in maximal_subgroups(G, all_subgroups(G)):
            out = meet(out, m)
        return out
    dg = derived_subgroup(G, S)
    seed = set(dg.gens) | {G.power(g, pk[0]) for g in S.gens}
    seed -= {0}
    if not seed:
        return trivial_subgroup(G)
    return closure(G, sorted(seed))


def omega(G: FiniteGroup, s: int = 1) -> Subgroup:
    """Omega_s: subgroup generated by elements of order dividing p^s."""
    p, _ = _require_pgroup(G)
    if s < 1:
        raise ParamOutOfRange(f"omega index {s} must be >= 1")
    orders = G.element_orders()
    ids = np.nonzero(orders <= p**s)[0]
    return closure(G, _pick_generators(G, ids))


def agemo(G: FiniteGroup, s: int = 1) -> Subgroup:
    """Agemo_s: subgroup generated by p^s-th powers."""
    p, _ = _require_pgroup(G)
    if s < 1:
        raise ParamOutOfRange(f"agemo index {s} must be >= 1")
    powers = G.p_power_vec(G.all_ids(), s)
    return closure(G, _pick_generators(G, powers))


def min_generators(
    G: FiniteGroup, S: Subgroup | None = None, budget: int = GEN_SEARCH_BUDGET
) -> int:
    """Minimal generating set size of S (default: of G).

    For a p-subgroup this is the rank of S/Phi(S). For any other G, a
    bounded search over candidate tuples in element-order order; raises
    SearchBudgetExceeded when an answer needs more than `budget` candidate
    tuples. Since d(G) >= d(G/G') = r, the rank of the abelianization,
    tuples of size below r are counted without being listed, and a tuple
    whose image does not generate G/G' is counted but not closed in G. A
    proper subgroup that is not of prime-power order raises NotPGroup.
    """
    S = _as_subgroup(G, S)
    if S.order == 1:
        return 0
    pk = prime_power(S.order)
    if pk is not None:
        phi = frattini_subgroup(G, S)
        return prime_factors(S.order // phi.order).get(pk[0], 0)
    if not S.is_full:
        raise NotPGroup(f"subgroup order {S.order} is not a prime power")
    orders = G.element_orders()
    if int(orders.max()) == G.order:
        return 1
    by_order = sorted(range(1, G.order), key=lambda x: (-int(orders[x]), x))
    # G/G' is G itself when G is abelian; then closing in G is the only test.
    Q = G if G.is_abelian else QuotientGroup(G, derived_subgroup(G).ids())
    rank = len(abelian_type(Q))
    image = {x: Q.project(x) for x in by_order} if Q is not G else None
    generates_q: dict[frozenset[int], bool] = {}
    spent = 0
    for k in (2, 3, 4):
        if k < rank:
            spent += comb(len(by_order), k)
        else:
            for combo in _tuple_stream(by_order, k):
                spent += 1
                if spent > budget:
                    break
                if image is not None:
                    key = frozenset(image[x] for x in combo)
                    if key not in generates_q:
                        generates_q[key] = len(closure_ids(Q, key)) == Q.order
                    if not generates_q[key]:
                        continue
                if closure(G, combo).order == G.order:
                    return k
        if spent > budget:
            raise SearchBudgetExceeded(
                f"no generating {k}-tuple found within {budget} candidate tuples"
            )
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

    Read off parent element orders: for each prime q, the elements with
    x^(q^j) = 1 number q^(sum_i min(j, e_i)), where the q^(e_i) are the
    q-parts of the factors. So the j-th difference of the exact logs counts
    the factors with e_i >= j.
    """
    S = _as_subgroup(G, S)
    if not _subgroup_is_abelian(G, S):
        raise NotAbelian(f"order-{S.order} subgroup of {G.name} is not abelian")
    orders = G.element_orders()[S.ids()]
    desc: list[int] = []  # the factors, largest first
    for q, n in prime_factors(S.order).items():
        logs = [0]
        while logs[-1] < n:
            killed = int(np.count_nonzero(q ** len(logs) % orders == 0))
            logs.append(prime_factors(killed).get(q, 0))
        for rank in np.diff(logs).tolist():
            desc += [1] * (rank - len(desc))
            for i in range(rank):
                desc[i] *= q
    return desc[::-1]


def quotient_exponent(G: FiniteGroup, A: Subgroup, B: Subgroup) -> int:
    """Exponent of A/B for B normal in A, without building the quotient.

    p-groups only: steps the elements of A outside B through the power
    map until all land in B. An element that lands in B is dropped, since
    its later p-th powers stay there.
    """
    p, _ = _require_pgroup(G)
    if not B.issubset(A):
        raise ParentMismatch("quotient needs B <= A")
    P = G.power_map()
    in_b = np.zeros(G.order, dtype=bool)
    in_b[B.ids()] = True
    xs = A.ids()
    xs = xs[~in_b[xs]]
    t = 0
    while xs.size:
        xs = P[xs]
        xs = xs[~in_b[xs]]
        t += 1
    return p**t


def quotient_is_cyclic(G: FiniteGroup, A: Subgroup, B: Subgroup) -> bool:
    """Whether A/B is cyclic, for p-group sections."""
    return quotient_exponent(G, A, B) * B.order == A.order


# ---------------------------------------------------------------------------
# maximal subgroups of p-groups


def pgroup_maximal_subgroups(G: FiniteGroup, S: Subgroup | None = None) -> list[Subgroup]:
    """Maximal subgroups of a p-subgroup S (default: of G), in the parent's ids.

    Each is the preimage of a hyperplane of S/Phi(S), and keeps the
    generators its construction gives (see `_hyperplane_preimages`), so
    none are picked from its members. They come in construction order,
    unsorted: sorting by `Subgroup.sort_key` would build each one's bitset.
    """
    S = _as_subgroup(G, S)
    return [_subgroup(G, ids, gens) for ids, gens in _hyperplane_preimages(G, S)]


def _hyperplane_preimages(
    G: FiniteGroup, S: Subgroup
) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Sorted member ids and generators of each hyperplane preimage of S/Phi(S).

    Numbers the cosets of Phi(S) in S: each generator of S outside the span
    built so far is the next basis element b_d and extends the span by p
    right cosets, so coset numbers read sum_i e_i p^i in the basis
    b_0..b_{d-1} of S/Phi(S). The preimage of the kernel of a functional f
    with its leading 1 at l is generated by Phi(S)'s generators, the b_i
    with i < l and the b_i b_l^(-f_i) with i > l.
    """
    if S.order == 1:
        return []
    pk = prime_power(S.order)
    if pk is None:
        raise NotPGroup(f"subgroup order {S.order} is not a prime power")
    p = pk[0]
    phi = frattini_subgroup(G, S)
    coset = np.full(G.order, -1, dtype=np.int32)
    span = phi.ids()
    coset[span] = 0
    basis: list[int] = []
    for g in S.gens if not S.is_full else G.generators:
        if coset[g] >= 0:
            continue
        nums, cur, cosets = coset[span], span, [span]
        last = span.size * p == S.order
        for e in range(1, p):
            cur = G.mul_vec(cur, g)
            coset[cur] = nums + e * p ** len(basis)
            if not last:
                cosets.append(cur)
        span = cosets[0] if last else np.concatenate(cosets)
        basis.append(g)
    d = len(basis)
    if phi.order * p**d != S.order:
        raise NotPGroup(f"generators of an order-{S.order} subgroup miss part of it")
    members = S.ids()
    nums = coset[members]
    digits = np.arange(p**d)[:, None] // p ** np.arange(d) % p
    out = []
    for f in _projective_functionals(p, d):
        lead = f.index(1)
        bl = basis[lead]
        gens = (
            *phi.gens,
            *basis[:lead],
            *(G.mul(basis[i], G.power(bl, -f[i] % p)) for i in range(lead + 1, d)),
        )
        out.append((members[(digits @ np.asarray(f) % p == 0)[nums]], gens))
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
    pv = p ** prime_factors(G.order).get(p, 0)
    n = G.order // pv
    if pv == 1:
        raise ParamOutOfRange(f"{p} is not a prime dividing |{G.name}| = {G.order}")
    if lattice is None:
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
        if sylow.bits & c.bits != 1:
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


def is_regular(G: FiniteGroup) -> bool | None:
    """Hall regularity: (xy)^p in x^p y^p U1(<x,y>') for all x, y.

    Definitional all-pairs test up to REGULARITY_CAP; above it, class < p
    or exponent p still decides regularity, and otherwise None is returned.
    """
    p, _ = _require_pgroup(G)
    if G.order > REGULARITY_CAP:
        cl = nilpotency_class(G)
        if cl is not None and cl < p:
            return True
        if exponent(G) == p:
            return True
        return None
    span_cache: dict[tuple[int, int], np.ndarray] = {}
    cyc: dict[int, Subgroup] = {}

    def atom(x: int) -> Subgroup:
        if x not in cyc:
            cyc[x] = closure(G, [x])
        return cyc[x]

    pows = G.power_map()
    for x in range(G.order):
        xp = int(pows[x])
        for y in range(G.order):
            lhs = int(pows[G.mul(x, y)])
            base = G.mul(xp, int(pows[y]))
            if lhs == base:
                continue
            key = (atom(x).bits, atom(y).bits)
            if key not in span_cache:
                two = closure(G, [x, y])
                dg = derived_subgroup(G, two)
                u1 = closure(G, _pick_generators(G, G.p_power_vec(dg.ids())))
                span_cache[key] = u1.ids()
            target = G.mul(G.inv(base), lhs)
            if not bool(np.isin(target, span_cache[key]).item()):
                return False
    return True


def is_p_abelian(G: FiniteGroup) -> bool | None:
    """Whether (xy)^p = x^p y^p identically; None above REGULARITY_CAP."""
    p, _ = _require_pgroup(G)
    if G.is_abelian or exponent(G) == p:
        return True
    if G.order > REGULARITY_CAP:
        return None
    xs = G.all_ids()
    pows = G.power_map()
    for x in range(G.order):
        lhs = pows[G.lmul_vec(x, xs)]
        rhs = G.lmul_vec(int(pows[x]), pows)
        if not (lhs == rhs).all():
            return False
    return True


def fundamental_subgroup(G: FiniteGroup) -> Subgroup:
    """For a maximal class p-group: centralizer of K_2/K_4 in G."""
    p, n = _require_pgroup(G)
    series = lower_central_series(G)
    if n < 4 or _steps_to_one(series) != n - 1:
        raise ParamOutOfRange(f"{G.name} is not of maximal class with n >= 4")
    k2, k4 = series[1], series[3]
    xs = G.all_ids()
    mask = np.ones(G.order, dtype=bool)
    k4_ids = k4.ids()
    for k in k2.gens:
        comms = _commutator_with_all(G, k, xs)
        mask &= np.isin(comms, k4_ids)
    return _subgroup(G, xs[mask])
