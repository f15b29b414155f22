"""Subgroups and subgroup lattice enumeration.

Every subgroup carries its sorted member ids, and the same member set as a
bitset (a Python int with bit x set for each member x), built from the ids
on first use unless its builder already has it. The bitset is the one key
for equality, hashing, the canonical order and subset tests, whatever the
parent's order.

``all_subgroups`` computes the full lattice by cyclic extension (Neubüser's
method): its atoms are the zuppos, the cyclic subgroups of prime-power
order, and it joins one representative per conjugacy class with one atom
per orbit of the representative's normalizer. It joins only where a new
subgroup can appear: an atom that normalizes the representative and
extends it by a prime index, or, inside the solvable residual, an atom
that does not normalize it. A new join keeps the generators it was built
from, and brings in its class as one conjugate per right coset of its
normalizer, which those generators give. The lattice keeps these classes
(`SubgroupClass`), so readers that conjugation cannot change read one
member per class.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .core import (
    TABLE_CAP,
    FiniteGroup,
    TableGroup,
    _closure,
    _grow,
    _pick_generators,
    prime_factors,
)
from .errors import (
    NotNormal,
    OrderCapExceeded,
    ParentMismatch,
)

__all__ = [
    "LATTICE_CAP",
    "Subgroup",
    "SubgroupClass",
    "SubgroupLattice",
    "closure",
    "all_subgroups",
    "meet",
    "join",
    "maximal_subgroups",
    "normal_closure",
    "is_normal",
    "subgroup_as_group",
    "subgroups_brute",
    "trivial_subgroup",
    "full_subgroup",
]

# Default order cap for full lattice enumeration.
LATTICE_CAP = 2000


class Subgroup:
    """A subgroup of a fixed parent group, identified by its member set.

    `bits` is the member set as a bitset. A builder that has it already
    passes it; otherwise it is built from the sorted ids on first use, so a
    subgroup that is never compared does not pay for it.
    """

    __slots__ = ("parent", "order", "gens", "_ids", "_bits")

    def __init__(
        self,
        parent: FiniteGroup,
        gens: Sequence[int],
        ids: Sequence[int] | np.ndarray,
        bits: int | None = None,
    ):
        self.parent = parent
        self.gens = tuple(gens)
        self._ids = np.asarray(ids, dtype=np.int64)
        self.order = int(self._ids.size)
        self._bits = bits

    # -- members ---------------------------------------------------------

    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def bits(self) -> int:
        if self._bits is None:
            member = np.zeros(self.parent.order, dtype=np.bool_)
            member[self._ids] = True
            self._bits = _mask_bits(member)
        return self._bits

    def contains(self, x: int) -> bool:
        return bool((self.bits >> self.parent.check_id(int(x))) & 1)

    def issubset(self, other: "Subgroup") -> bool:
        _same_parent(self, other)
        return other.is_full or self.bits & ~other.bits == 0

    def __le__(self, other: "Subgroup") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "Subgroup") -> bool:
        return self.order < other.order and self.issubset(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        _same_parent(self, other)
        return self.order == other.order and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((id(self.parent), self.bits))

    def sort_key(self) -> tuple[int, int]:
        """Order first, then the member set as a bitset."""
        return (self.order, self.bits)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def is_full(self) -> bool:
        return self.order == self.parent.order

    def __repr__(self) -> str:
        return f"<Subgroup order={self.order} of {self.parent.name!r}>"


def _same_parent(a: Subgroup, b: Subgroup):
    if a.parent is not b.parent:
        raise ParentMismatch(
            f"subgroups of {a.parent.name!r} and {b.parent.name!r} do not mix"
        )


def _mask_bits(member: np.ndarray) -> int:
    """The bitset of a boolean member mask over the parent's ids."""
    return int.from_bytes(np.packbits(member, bitorder="little").tobytes(), "little")


def _subgroup(
    G: FiniteGroup, ids: Sequence[int] | np.ndarray, gens: Sequence[int] | None = None
) -> Subgroup:
    """The subgroup with these sorted member ids.

    Callers that built the subgroup from known elements pass those as
    `gens` (closures, the full group, lattice members, a p-group's maximal
    subgroups); only without them does `core._pick_generators` pick a
    greedy set from the members.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if gens is None:
        gens = _pick_generators(G, ids)
    return Subgroup(G, gens, ids)


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return _subgroup(G, [0], ())


def full_subgroup(G: FiniteGroup) -> Subgroup:
    """G as a subgroup of itself, on G's shared read-only `all_ids()`.

    G keeps that array, not a Subgroup, for the reason the
    `structure.lower_central_series` docstring gives.
    """
    return _subgroup(G, G.all_ids(), G.generators)


# ---------------------------------------------------------------------------
# closure


def closure(G: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Subgroup generated by the seed ids, with the seed as its generators."""
    gens = sorted({G.check_id(int(s)) for s in seed} - {0})
    return _subgroup(G, np.flatnonzero(_closure(G, gens)[0]), gens)


# ---------------------------------------------------------------------------
# full lattice enumeration


class SubgroupClass:
    """One conjugacy class of subgroups: members[i] = J^conjugators[i].

    J = members[0] is the representative, with conjugator 0, the identity.
    The conjugators are one per right coset of N_G(J), so the class has
    |G : N_G(J)| members, and it has one exactly when J is normal.
    """

    __slots__ = ("members", "conjugators")

    def __init__(self, members: list[Subgroup], conjugators: tuple[int, ...]):
        self.members = members
        self.conjugators = conjugators

    @property
    def rep(self) -> Subgroup:
        return self.members[0]

    def __len__(self) -> int:
        return len(self.members)

    def conjugates_of(self, S: Subgroup) -> list[Subgroup]:
        """S^t for each conjugator t, S itself first.

        With S = f(J) for a map f that commutes with conjugation (J' say),
        entry i is f(members[i]). A trivial S, or the S of a class of one
        member, is returned as it is.
        """
        if S.is_trivial or len(self.members) == 1:
            return [S] * len(self.members)
        return [S, *_conjugate_subgroups(S, self.conjugators[1:])]


class SubgroupLattice:
    """All subgroups of a group, kept as their conjugacy classes.

    `classes` is the one record, in the order `all_subgroups` found them;
    `subgroups` is their members, canonically ordered by (order, bitset).
    """

    def __init__(self, parent: FiniteGroup, classes: list[SubgroupClass]):
        self.parent = parent
        self.classes = classes
        self.subgroups = sorted(
            [S for c in classes for S in c.members], key=Subgroup.sort_key
        )

    def __len__(self) -> int:
        return len(self.subgroups)

    def __iter__(self):
        return iter(self.subgroups)

    def __getitem__(self, i: int) -> Subgroup:
        return self.subgroups[i]

    @property
    def bottom(self) -> Subgroup:
        return self.subgroups[0]

    @property
    def top(self) -> Subgroup:
        return self.subgroups[-1]

    def of_order(self, k: int) -> list[Subgroup]:
        return [s for s in self.subgroups if s.order == k]


def all_subgroups(G: FiniteGroup, cap: int = LATTICE_CAP) -> SubgroupLattice:
    """Enumerate every subgroup of G, one conjugacy class at a time.

    The atoms are the zuppos. Their classes are the G-orbits of zuppos, and
    one atom per orbit starts the work list of class representatives. Each
    representative R is joined with one atom <z> from each orbit of N_G(R)
    on the atoms outside R, in exactly two cases:

    (a) z normalizes R and z^p lies in R, p the prime of <z>: the join
        R<z> has index p over R;
    (b) z does not normalize R, and R and <z> both lie in D, the last term
        of G's derived series (the solvable residual; 1 for a p-group).

    A join grows from R by whole right cosets of R (`core._grow`), whose
    coset representatives count its index over R. Atoms inside a join of
    prime index over R are skipped for R, since R is maximal in that join
    and their join with R is that one.

    A join J = R v <z> never seen before keeps the generators it was built
    from, R's and then z. Its normalizer N is read off them: g normalizes J
    exactly when their conjugates by g lie in J, one gather of n rows by as
    many columns as J has generators. Since J^s = J^t exactly when
    Ns = Nt, J's class is J^t for one t in each right coset of N, which
    `core._grow` from N by G's generators gives, each J^t with J's
    generators conjugated by t. The identity comes first, so J itself
    represents its class on the work list. Member sets are keyed by their
    bitsets, and a class's conjugates get theirs from one gather and one
    `np.packbits`.

    The lattice keeps each class as a `SubgroupClass`: its representative,
    its conjugators and its members. The trivial class comes first, then
    the atoms' classes, each the orbit of its least atom with the first
    g in the `moved` table that carries it to each member, then the joins'
    classes in the order they were found.

    This reaches every class. If K = R^g, then for an atom A,
    (K v A)^(g^-1) = R v A^(g^-1), and for n in N_G(R), R v A^n = (R v A)^n;
    both cases are properties of the pair (R, A) that conjugation keeps, D
    being normal. So it is enough that every subgroup H > 1 that is not an
    atom is K v A for a proper subgroup K > 1 of H and a zuppo A of H outside
    K, with (K, A) in case (a) or (b); by induction on |H| every class is
    then reached.

    - If H is not perfect, it has a normal subgroup K of prime index p. Take
      the p-part z of any element of H outside K. Then z lies outside K,
      A = <z> is a zuppo, z normalizes K, z^p lies in K and H = K<z>: case
      (a). (K = 1 only if H = <z> is an atom.)
    - If H is perfect, then H <= D. Take K maximal in H and a zuppo A of H
      outside K, so H = K v A. A cannot normalize K, since then K would be
      normal in H with H/K cyclic: case (b).

    An atom's generator is its least one, and every other member carries
    the generators of the join its class came from, conjugated.
    """
    if G.order > cap:
        raise OrderCapExceeded(f"|{G.name}| = {G.order} exceeds lattice cap {cap}")
    n = G.order
    table = G.flat_table()
    if table is None:
        raise OrderCapExceeded(
            f"|{G.name}| = {n} exceeds the Cayley table cap {TABLE_CAP}"
        )
    order_list = G.element_orders().tolist()

    # zuppos, each with its least generator z and z^p; atom_at[x] = <x>.
    # Smaller atoms come first, as their joins are the likelier prime-index
    # covers below.
    prime_of = {
        m: next(iter(f)) for m in set(order_list) if len(f := prime_factors(m)) == 1
    }
    atom_at = [-1] * n
    atoms: list[Subgroup] = []
    atom_masks: list[bytearray] = []
    atom_pows: list[int] = []
    for x in sorted(range(1, n), key=order_list.__getitem__):
        p = prime_of.get(order_list[x])
        if p is None or atom_at[x] >= 0:
            continue
        mask = bytearray(n)
        mask[0] = 1
        elems, bits, y, power = [0], 1, x, 0
        for k in range(1, order_list[x]):
            mask[y] = 1
            elems.append(y)
            bits |= 1 << y
            if k % p:
                atom_at[y] = len(atoms)
            elif k == p:
                power = y
            y = table[y * n + x]
        atoms.append(Subgroup(G, (x,), sorted(elems), bits))
        atom_masks.append(mask)
        atom_pows.append(power)
    atom_gens = [A.gens[0] for A in atoms]
    atom_bits = [A.bits for A in atoms]
    atom_gen_ids = np.asarray(atom_gens, dtype=np.int64)
    atom_pow_ids = np.asarray(atom_pows, dtype=np.int64)
    atom_ids = np.arange(len(atoms))
    # moved[g, a] = the atom a^g; an orbit's least atom represents it
    moved = np.asarray(atom_at, dtype=np.int64)[_conjugates(G, atom_gen_ids)]
    orbit_rep = moved.min(axis=0)
    g_reps = orbit_rep == atom_ids
    atom_normal = (moved == atom_ids).all(axis=0).tolist()
    orbits: dict[int, list[int]] = {}
    if not all(atom_normal):
        # carries[b] is the first g that takes b's orbit representative to b
        carries = (moved[:, orbit_rep] == atom_ids).argmax(axis=0).tolist()
        for b, a in enumerate(orbit_rep.tolist()):
            orbits.setdefault(a, []).append(b)
    primes = set(prime_factors(n))
    residual = 1  # D as a bitset
    if len(primes) > 1:
        from .structure import derived_series  # structure imports this module

        residual = derived_series(G)[-1].bits
    atom_in_residual = np.array(
        [b & ~residual == 0 for b in atom_bits], dtype=np.bool_
    )

    classes = [SubgroupClass([trivial_subgroup(G)], (0,))]
    seen = {1, *atom_bits}
    # work items (R, R's member mask, whether R is normal, the atoms to join)
    work: list[tuple[Subgroup, np.ndarray, bool, list[int]]] = []

    def enqueue(R: Subgroup, member: np.ndarray, stays: np.ndarray | None) -> None:
        """Put R on the work list with the atoms it is joined with.

        stays[g] tells whether g normalizes R; None means R is normal.
        """
        if stays is None:
            orbit_reps, normalizes = g_reps, True
        else:
            orbit_reps = moved[stays].min(axis=0) == atom_ids
            normalizes = stays[atom_gen_ids]
        # case (a) for the atoms that normalize R, case (b) for the others
        in_residual = R.bits & ~residual == 0
        cases = np.where(
            normalizes, member[atom_pow_ids], in_residual & atom_in_residual
        )
        todo = orbit_reps & cases & ~member[atom_gen_ids]
        work.append((R, member, stays is None, np.flatnonzero(todo).tolist()))

    for a in np.flatnonzero(g_reps).tolist():  # g normalizes <z> when it fixes it
        if atom_normal[a]:
            stays, c = None, SubgroupClass([atoms[a]], (0,))
        else:
            stays, orbit = moved[:, a] == a, orbits[a]
            c = SubgroupClass(
                [atoms[b] for b in orbit], tuple(carries[b] for b in orbit)
            )
        classes.append(c)
        enqueue(atoms[a], np.frombuffer(atom_masks[a], dtype=np.bool_), stays)

    def add_class(J: Subgroup, member: np.ndarray, normal: bool) -> None:
        """Record the class of J, a new join with its member mask, and put J
        on the work list.

        A subgroup already known to be normal skips the conjugation gather.
        """
        gen_ids = np.asarray(J.gens)
        stays = None
        if not normal:
            stays = member[_conjugates(G, gen_ids)].all(axis=1)
            if stays.all():
                stays = None
        if stays is None:
            c = SubgroupClass([J], (0,))
        else:
            ts = _grow(G, stays, np.flatnonzero(stays), G.generators)[1]
            c = SubgroupClass([J, *_conjugate_subgroups(J, ts[1:])], tuple(ts))
        classes.append(c)
        seen.update(K.bits for K in c.members)
        if J.order < n:
            enqueue(J, member, stays)

    joined: set[int] = set()
    while work:
        R, r_member, r_normal, todo = work.pop()
        r_ids, r_bits = R.ids(), R.bits
        # atoms inside a join of prime index over R: their join is that one
        covered = np.zeros(len(atoms), dtype=np.bool_)
        for a in todo:
            union = r_bits | atom_bits[a]
            if covered[a] or union in joined:
                continue
            joined.add(union)
            gens = R.gens + (atom_gens[a],)
            j_member, reps = _grow(G, r_member, r_ids, gens)
            if len(reps) in primes:
                covered |= j_member[atom_gen_ids]
            bits = _mask_bits(j_member)
            if bits not in seen:
                J = Subgroup(G, gens, np.flatnonzero(j_member), bits)
                # a join of two normal subgroups is normal
                add_class(J, j_member, r_normal and atom_normal[a])

    return SubgroupLattice(G, classes)


def _conjugate_subgroups(S: Subgroup, by: Sequence[int]) -> list[Subgroup]:
    """S^t for each t in `by`, with S's generators conjugated by t: one
    conjugation gather for every member set and one `np.packbits` for
    every bitset."""
    G, k, m = S.parent, len(by), S.order
    by = np.asarray(by, dtype=np.int64)
    gens = np.array(S.gens, dtype=np.int64)
    moved = _conjugates(G, np.append(S.ids(), gens), by)
    rows = np.sort(moved[:, :m], axis=1)
    member = np.zeros((k, G.order), dtype=np.bool_)
    member[np.arange(k)[:, None], rows] = True
    packed = np.packbits(member, axis=1, bitorder="little")
    w, packed = packed.shape[1], packed.tobytes()
    return [
        Subgroup(G, g, row, int.from_bytes(packed[i * w : i * w + w], "little"))
        for i, (row, g) in enumerate(zip(rows, moved[:, m:].tolist()))
    ]


def _conjugates(
    G: FiniteGroup, ids: np.ndarray, by: np.ndarray | None = None
) -> np.ndarray:
    """Row i holds the ids conjugated by by[i] (default: by every id of G),
    read from G's Cayley table."""
    arr = G.np_table()
    if by is None:
        by = G.all_ids()
    return arr[arr[G.inv_vec(by)[:, None], ids], by[:, None]]


# ---------------------------------------------------------------------------
# lattice operations


def meet(a: Subgroup, b: Subgroup) -> Subgroup:
    """Intersection; always a subgroup."""
    _same_parent(a, b)
    return _subgroup(a.parent, np.intersect1d(a.ids(), b.ids(), assume_unique=True))


def join(a: Subgroup, b: Subgroup) -> Subgroup:
    """Smallest subgroup containing both; computed as a closure."""
    _same_parent(a, b)
    seed = list(a.gens or a.ids()[1:]) + list(b.gens or b.ids()[1:])
    return closure(a.parent, seed)


def maximal_subgroups(
    G: FiniteGroup, lattice: SubgroupLattice | None = None
) -> list[Subgroup]:
    """Proper subgroups not contained in any other proper subgroup.

    The classes of proper subgroups are scanned by decreasing order. Every
    proper subgroup lies in a maximal one of larger order unless it is
    maximal itself, so a subgroup is maximal exactly when none of the
    maximal subgroups found before it contains it. Conjugates are maximal
    together, so only each class's representative is tested. Returned in
    lattice order.
    """
    if lattice is None:
        lattice = all_subgroups(G)
    found: list[Subgroup] = []
    for c in sorted(lattice.classes, key=lambda c: -c.rep.order):
        s = c.rep
        if not s.is_full and not any(s.bits & ~t.bits == 0 for t in found):
            found.extend(c.members)
    return sorted(found, key=Subgroup.sort_key)


def normal_closure(
    G: FiniteGroup,
    seed: Iterable[int],
    under: Sequence[int] | None = None,
) -> Subgroup:
    """Smallest subgroup containing the seed and closed under conjugation.

    Conjugators default to the generators of G, giving the normal closure in
    G; passing the generators of a subgroup H <= G containing the seed gives
    the normal closure in H instead. Each round grows the last round's
    closure by the conjugates, outside it, of the generators that round
    added; the conjugates of older generators are inside it already.
    """
    gens = sorted({G.check_id(int(s)) for s in seed} - {0})
    conj = list(G.generators if under is None else under)
    member = np.zeros(G.order, dtype=np.bool_)
    member[0] = True
    ids, new = np.zeros(1, dtype=np.int64), gens
    while new:
        member = _grow(G, member, ids, gens)[0]
        ids = np.flatnonzero(member)
        conjugates = {G.conjugate(s, g) for g in conj for s in new}
        new = [c for c in conjugates if not member[c]]
        gens = sorted(gens + new)
    return _subgroup(G, ids, gens)


def is_normal(G: FiniteGroup, S: Subgroup) -> bool:
    if S.parent is not G:
        raise ParentMismatch("subgroup of a different parent")
    return all(
        S.contains(G.conjugate(s, g)) for g in G.generators for s in S.gens
    )


def subgroup_as_group(S: Subgroup) -> tuple[TableGroup, list[int]]:
    """Relabel a subgroup as a standalone group.

    Returns the table group plus the embedding list: local id -> parent id.
    Local id 0 is the identity because parent id 0 sorts first. The table
    is one pairwise product over all k^2 pairs of members, each product
    relabelled by its place among the sorted ids.
    """
    G = S.parent
    ids = S.ids()
    k = ids.size
    if k > TABLE_CAP:
        raise OrderCapExceeded(f"subgroup of order {k} too large to relabel")
    pairs = np.repeat(ids, k), np.tile(ids, k)
    table = np.searchsorted(ids, G.mul_pairwise_vec(*pairs))
    gens = np.searchsorted(ids, S.gens).tolist() if S.gens else None
    H = TableGroup(table, k, generators=gens, name=f"{G.name}|sub{k}")
    return H, ids.tolist()


def subgroups_brute(G: FiniteGroup, cap: int = 48) -> list[Subgroup]:
    """Independent subgroup enumerator used to validate ``all_subgroups``.

    Backtracking over elements in increasing order, closing each extension by
    repeated pairwise-product sweeps (no orbit closure, no atom joins).
    """
    if G.order > cap:
        raise OrderCapExceeded(f"brute enumeration capped at order {cap}")
    n = G.order
    table = G.flat_table()

    def naive_close(ids: frozenset[int]) -> frozenset[int]:
        cur = set(ids) | {0}
        while True:
            new = set()
            for x in cur:
                row = x * n
                for y in cur:
                    t = table[row + y]
                    if t not in cur:
                        new.add(t)
            if not new:
                return frozenset(cur)
            cur |= new

    found: set[frozenset[int]] = {frozenset([0])}
    visited: set[tuple[frozenset[int], int]] = set()
    stack: list[tuple[frozenset[int], int]] = [(frozenset([0]), 0)]
    while stack:
        S, last = stack.pop()
        for x in range(last, n):
            if x in S:
                continue
            T = naive_close(S | {x})
            found.add(T)
            key = (T, x + 1)
            if key not in visited:
                visited.add(key)
                stack.append((T, x + 1))

    out = []
    for mem in found:
        ids = sorted(mem)
        out.append(Subgroup(G, tuple(v for v in ids if v), ids))
    return sorted(out, key=Subgroup.sort_key)
