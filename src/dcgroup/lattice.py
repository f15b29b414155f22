"""Subgroups and subgroup lattice enumeration.

Every subgroup carries its sorted member ids. Subgroups of parents of at
most BITSET_CAP = 2^16 elements, and only those, also carry them as a bitset
(a Python int), which makes dedup, subset tests and meets cheap integer ops;
subgroups of larger parents support the subset of operations that never
materialize the full lattice.

``all_subgroups`` computes the full lattice by cyclic extension (Neubüser's
method): its atoms are the zuppos, the cyclic subgroups of prime-power
order, and it joins one representative per conjugacy class with one atom
per orbit of the representative's normalizer, bringing in each new class
whole by conjugation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .core import (
    FiniteGroup,
    TableGroup,
    _grow,
    _pick_generators,
    closure_ids,
    prime_factors,
)
from .errors import (
    NotNormal,
    OrderCapExceeded,
    ParentMismatch,
)

__all__ = [
    "BITSET_CAP",
    "LATTICE_CAP",
    "Subgroup",
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

# Parents above this order store subgroups as sorted id arrays, not bitsets.
BITSET_CAP = 1 << 16

# Default order cap for full lattice enumeration.
LATTICE_CAP = 2000


class Subgroup:
    """A subgroup of a fixed parent group, identified by its member set."""

    __slots__ = ("parent", "bits", "order", "gens", "_ids")

    def __init__(
        self,
        parent: FiniteGroup,
        bits: int | None,
        gens: Sequence[int],
        ids: Sequence[int] | np.ndarray,
    ):
        self.parent = parent
        self.bits = bits
        self.gens = tuple(gens)
        self._ids = np.asarray(ids, dtype=np.int64)
        self.order = int(self._ids.size)

    # -- members ---------------------------------------------------------

    def ids(self) -> np.ndarray:
        return self._ids

    def contains(self, x: int) -> bool:
        if self.bits is not None:
            return bool((self.bits >> x) & 1)
        i = int(np.searchsorted(self.ids(), x))
        return i < self.order and int(self.ids()[i]) == x

    def issubset(self, other: "Subgroup") -> bool:
        _same_parent(self, other)
        if self.bits is not None and other.bits is not None:
            return self.bits & ~other.bits == 0
        return bool(np.isin(self.ids(), other.ids(), assume_unique=True).all())

    def __le__(self, other: "Subgroup") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "Subgroup") -> bool:
        return self.order < other.order and self.issubset(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        _same_parent(self, other)
        if self.bits is not None and other.bits is not None:
            return self.bits == other.bits
        return self.order == other.order and bool(
            (self.ids() == other.ids()).all()
        )

    def __hash__(self) -> int:
        if self.bits is not None:
            return hash((id(self.parent), self.bits))
        return hash((id(self.parent), self.ids().tobytes()))

    def sort_key(self):
        """Order first, then the member set: as a bitset when there is one,
        else as the sorted ids, whose big-endian bytes compare as the ids do."""
        if self.bits is not None:
            return (self.order, self.bits)
        return (self.order, self.ids().astype(">i8").tobytes())

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


def _bits_to_ids(bits: int) -> list[int]:
    out = []
    x = bits
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _ids_to_bits(ids: Iterable[int]) -> int:
    b = 0
    for v in ids:
        b |= 1 << int(v)
    return b


def _subgroup(
    G: FiniteGroup, ids: Sequence[int] | np.ndarray, gens: Sequence[int] | None = None
) -> Subgroup:
    """The subgroup with these sorted member ids.

    It carries a bitset exactly when G.order <= BITSET_CAP. Callers that
    built the subgroup from known elements pass those as `gens` (closures,
    the full group, a p-group's maximal subgroups); only without them does
    `core._pick_generators` pick a greedy set from the members.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if gens is None:
        gens = _pick_generators(G, ids)
    bits = None
    if G.order <= BITSET_CAP:
        member = np.zeros(G.order, dtype=np.uint8)
        member[ids] = 1
        packed = np.packbits(member, bitorder="little")
        bits = int.from_bytes(packed.tobytes(), "little")
    return Subgroup(G, bits, gens, ids=ids)


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return _subgroup(G, [0], ())


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return _subgroup(G, np.arange(G.order), G.generators)


# ---------------------------------------------------------------------------
# closure


def closure(G: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Subgroup generated by the seed ids, with the seed as its generators."""
    gens = sorted({int(s) for s in seed} - {0})
    return _subgroup(G, closure_ids(G, gens), gens)


# ---------------------------------------------------------------------------
# full lattice enumeration


class SubgroupLattice:
    """All subgroups of a group, canonically ordered by (order, bitset)."""

    def __init__(self, parent: FiniteGroup, subgroups: list[Subgroup]):
        self.parent = parent
        self.subgroups = sorted(subgroups, key=Subgroup.sort_key)

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
    representative R is joined with one atom from each orbit of N_G(R) on
    the atoms outside R. A join never seen before brings in its whole class
    by conjugation and joins the work list with its normalizer, read off the
    same conjugation gather. A join grows from R by whole right cosets of
    R (`core._grow`), whose coset representatives count its index over R.
    Atoms inside a join of prime index over R are skipped for R, since R is
    maximal in that join and their join with R is that one.

    This reaches every class. A subgroup H > 1 is the join of its zuppos, so
    H = K v A for a proper subgroup K of H and a zuppo A of H outside K. If
    K = R^g, then H^(g^-1) = R v A^(g^-1), and for n in N_G(R),
    R v A^n = (R v A)^n: joining R with its orbit representative of A^(g^-1)
    gives a conjugate of H. By induction on |H| every class is reached.

    Every member's generators are those `core._pick_generators` gives for
    its ids; for an atom that is its least generator.
    """
    if G.order > cap:
        raise OrderCapExceeded(f"|{G.name}| = {G.order} exceeds lattice cap {cap}")
    n = G.order
    table = G.flat_table()
    arr = G.np_table()
    every = np.arange(n)
    inv = G.inv_vec(every)
    order_list = G.element_orders().tolist()

    def conjugates(ids: np.ndarray) -> np.ndarray:
        """Row g holds the ids conjugated by g."""
        return arr[arr[inv[:, None], ids], every[:, None]]

    # zuppos, each with its least generator; atom_at[x] = <x>. Smaller atoms
    # come first, as their joins are the likelier prime-index covers below.
    prime_of = {
        m: next(iter(f)) for m in set(order_list) if len(f := prime_factors(m)) == 1
    }
    atom_at = [-1] * n
    atoms: list[Subgroup] = []
    atom_masks: list[bytearray] = []
    for x in sorted(range(1, n), key=order_list.__getitem__):
        p = prime_of.get(order_list[x])
        if p is None or atom_at[x] >= 0:
            continue
        mask = bytearray(n)
        mask[0] = 1
        elems, bits, y = [0], 1, x
        for k in range(1, order_list[x]):
            mask[y] = 1
            elems.append(y)
            bits |= 1 << y
            if k % p:
                atom_at[y] = len(atoms)
            y = table[y * n + x]
        atoms.append(Subgroup(G, bits, (x,), sorted(elems)))
        atom_masks.append(mask)
    atom_gens = [A.gens[0] for A in atoms]
    atom_gen_ids = np.asarray(atom_gens, dtype=np.int64)
    atom_ids = np.arange(len(atoms))
    # moved[g, a] = the atom a^g; an orbit's least atom represents it
    moved = np.asarray(atom_at, dtype=np.int64)[conjugates(atom_gen_ids)]
    g_reps = moved.min(axis=0) == atom_ids
    atom_normal = (moved == atom_ids).all(axis=0).tolist()
    primes = set(prime_factors(n))

    subs = [trivial_subgroup(G), *atoms]
    seen = {bytes(m) for m in atom_masks}  # member masks of the subgroups in subs
    seen.add(bytes(every == 0))
    # work items (R, R's member mask, N_G(R)); an atom's normalizer fixes it
    work = [
        (
            A,
            np.frombuffer(atom_masks[a], dtype=np.bool_),
            np.flatnonzero(moved[:, a] == a),
        )
        for a, A in enumerate(atoms)
        if g_reps[a]
    ]

    def add_class(ids: np.ndarray, member: np.ndarray, normal: bool) -> None:
        """Record the class of the subgroup with these ids as one work item.

        A subgroup already known to be normal skips the conjugation gather.
        """
        if normal:
            normalizer = every
        else:
            rows = conjugates(ids)
            normalizer = np.flatnonzero(member[rows].all(axis=1))
        if normalizer.size == n:
            reps, masks = [ids], [member.tobytes()]
        else:
            rows.sort(axis=1)
            width = rows.shape[1] * rows.itemsize
            blob = rows.tobytes()
            first = {}
            for g in range(n):
                first.setdefault(blob[g * width : (g + 1) * width], g)
            reps = rows[list(first.values())]
            mask = np.zeros((len(reps), n), dtype=np.bool_)
            mask[np.arange(len(reps))[:, None], reps] = True
            masks = [m.tobytes() for m in mask]
        for row in reps:
            subs.append(_subgroup(G, row, _pick_generators(G, row)))
        seen.update(masks)
        if ids.size < n:
            work.append((subs[-len(masks)], member, normalizer))

    joined: set[int] = set()
    while work:
        R, r_member, normalizer = work.pop()
        r_ids = R.ids()
        r_normal = normalizer.size == n
        if r_normal:
            orbit_reps = g_reps
        else:
            orbit_reps = moved[normalizer].min(axis=0) == atom_ids
        fresh = orbit_reps & ~r_member[atom_gen_ids]
        # atoms inside a join of prime index over R: their join is that one
        covered = np.zeros(len(atoms), dtype=np.bool_)
        for a in np.flatnonzero(fresh).tolist():
            union = R.bits | atoms[a].bits
            if covered[a] or union in joined:
                continue
            joined.add(union)
            j_member, reps = _grow(G, r_member, r_ids, R.gens + (atom_gens[a],))
            if len(reps) in primes:
                covered |= j_member[atom_gen_ids]
            if j_member.tobytes() not in seen:
                # a join of two normal subgroups is normal
                normal = r_normal and atom_normal[a]
                add_class(np.flatnonzero(j_member), j_member, normal)

    return SubgroupLattice(G, subs)


# ---------------------------------------------------------------------------
# lattice operations


def meet(a: Subgroup, b: Subgroup) -> Subgroup:
    """Intersection; always a subgroup."""
    _same_parent(a, b)
    if a.bits is not None and b.bits is not None:
        return _subgroup(a.parent, _bits_to_ids(a.bits & b.bits))
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

    The proper subgroups are scanned by decreasing order. Every proper
    subgroup lies in a maximal one of larger order unless it is maximal
    itself, so a subgroup is maximal exactly when none of the maximal
    subgroups found before it contains it. Returned in lattice order.
    """
    if lattice is None:
        lattice = all_subgroups(G)
    found: list[Subgroup] = []
    for s in reversed(lattice):
        if not s.is_full and not any(s.bits & ~t.bits == 0 for t in found):
            found.append(s)
    return found[::-1]


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
    Local id 0 is the identity because parent id 0 sorts first.
    """
    G = S.parent
    ids = [int(v) for v in S.ids()]
    k = len(ids)
    if k > 4096:
        raise OrderCapExceeded(f"subgroup of order {k} too large to relabel")
    local = {v: i for i, v in enumerate(ids)}
    table = [local[G.mul(x, y)] for x in ids for y in ids]
    gens = [local[g] for g in S.gens] if S.gens else None
    H = TableGroup(table, k, generators=gens, name=f"{G.name}|sub{k}")
    return H, ids


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
        bits = _ids_to_bits(mem)
        ids = sorted(mem)
        out.append(Subgroup(G, bits, tuple(v for v in ids if v), ids=ids))
    return sorted(out, key=Subgroup.sort_key)
