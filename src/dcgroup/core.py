"""Finite groups with dense integer element ids.

Every group in this package exposes the same minimal interface: elements are
the integers ``0..order-1``, id ``0`` is the identity, ``mul``/``inv`` realize
the group operation, and ``generators`` is a distinguished generating tuple.
Concrete backends store permutations, Cayley tables, or coset representatives;
downstream code only ever sees ids.

Conventions used throughout the package:

* commutator  ``[x, y] = x^-1 y^-1 x y``
* conjugate   ``x^y = y^-1 x y``
* iterated brackets are left-normed: ``[x, y, z] = [[x, y], z]``
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DegreeMismatch,
    InvalidId,
    NotNormal,
    NotPGroup,
    UniverseOverflow,
)

__all__ = [
    "TABLE_CAP",
    "PERM_DEGREE_CAP",
    "CLOSURE_UNIVERSE_CAP",
    "FiniteGroup",
    "TableGroup",
    "PermGroup",
    "QuotientGroup",
    "closure_ids",
    "prime_power",
    "perm_from_cycles",
    "perm_mul",
    "perm_inv",
    "perm_sign",
    "is_perm",
]

# Cayley tables are materialized only for groups up to this order; larger
# groups multiply through their backend representation.
TABLE_CAP = 4096

# Bulk products (Cayley table rows, the power map, coset blocks, the vector
# ops of a group without a table) are taken about this many at a time, so a
# kernel's temporaries stay small beside the array they fill.
BLOCK = 1 << 14

# Permutation groups act on at most this many points.
PERM_DEGREE_CAP = 16

# Hard cap on the number of elements any closure may enumerate.
CLOSURE_UNIVERSE_CAP = 10**6

# Dtype of cached maps over all ids (the power map, the pc digit tables):
# int32, half the size of an id vector. Every realizable order is far below
# 2^31, since a realization holds arrays of its order's length.
ID32 = np.int32


def prime_factors(n: int) -> dict[int, int]:
    """{p: k} with p^k exactly dividing n, over the primes p | n, ascending."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k and k >= 1, or None."""
    factors = prime_factors(n)
    return next(iter(factors.items())) if len(factors) == 1 else None


# ---------------------------------------------------------------------------
# permutations as tuples of images, acting on 0..degree-1


def is_perm(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(len(p)))


def perm_mul(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Product pq = apply p first, then q."""
    if len(p) != len(q):
        raise DegreeMismatch(f"degree {len(p)} vs {len(q)}")
    return tuple(q[p[i]] for i in range(len(p)))


def perm_inv(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[pi] = i
    return tuple(out)


def perm_sign(p: Sequence[int]) -> int:
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def perm_from_cycles(degree: int, cycles: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Build a permutation of 0..degree-1 from disjoint cycles of points."""
    images = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
            if not (0 <= a < degree):
                raise DegreeMismatch(f"point {a} outside degree {degree}")
            images[a] = b
    if not is_perm(images):
        raise DegreeMismatch(f"cycles {list(cycles)} are not disjoint")
    return tuple(images)


# ---------------------------------------------------------------------------


class FiniteGroup:
    """Abstract finite group over dense ids 0..order-1 with identity 0."""

    def __init__(self, order: int, generators: Sequence[int], name: str = ""):
        self.order = int(order)
        self.generators = tuple(int(g) for g in generators)
        self.name = name or type(self).__name__
        self._np: np.ndarray | None = None
        self._flat: memoryview | None = None
        self._inv_ids: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._power_map: np.ndarray | None = None
        self._abelian: bool | None = None
        self._all_ids: np.ndarray | None = None
        # the lower central series as (ids, gens) pairs, kept by `structure`
        self._lcs: list[tuple[np.ndarray, tuple[int, ...]]] | None = None

    # -- backend interface ---------------------------------------------

    # The scalar kernels read the Cayley table; a backend that can multiply
    # without one overrides them.

    def _mul(self, x: int, y: int) -> int:
        return self.flat_table()[x * self.order + y]

    def _invert(self, x: int) -> int:
        return int(self.inv_vec(x))

    def _keep_table(self, table: np.ndarray) -> None:
        """Keep the Cayley table, its flat view and its inverse array, the
        column where each row holds the identity id 0 (its smallest entry)."""
        self._np = table
        self._flat = table.reshape(-1).data
        self._inv_ids = table.argmin(axis=1)

    # Vector kernels, called by the vector ops below only when the group has
    # no Cayley table, BLOCK ids at a time (`_blockwise`), and
    # `_mul_pairwise_vec` by `np_table` to build one. A
    # backend with a bulk product overrides `_mul_pairwise_vec`, and the
    # right and left products by one element follow from it.

    def _mul_vec(self, xs: np.ndarray, y: int) -> np.ndarray:
        return self._mul_pairwise_vec(xs, np.full(len(xs), y, dtype=np.int64))

    def _lmul_vec(self, y: int, xs: np.ndarray) -> np.ndarray:
        return self._mul_pairwise_vec(np.full(len(xs), y, dtype=np.int64), xs)

    def _mul_pairwise_vec(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.array(
            [self._mul(int(x), int(y)) for x, y in zip(xs, ys)], dtype=np.int64
        )

    def _inv_vec(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self._invert(int(x)) for x in xs], dtype=np.int64)

    # -- public ops ------------------------------------------------------

    def check_id(self, x: int) -> int:
        if not 0 <= x < self.order:
            raise InvalidId(f"id {x} outside [0, {self.order}) in {self.name}")
        return x

    def mul(self, x: int, y: int) -> int:
        if not (0 <= x < self.order and 0 <= y < self.order):
            raise InvalidId(f"ids ({x}, {y}) outside [0, {self.order}) in {self.name}")
        t = self._flat
        if t is not None:
            return t[x * self.order + y]
        return self._mul(x, y)

    def inv(self, x: int) -> int:
        self.check_id(x)
        inv_ids = self._inv_ids
        if inv_ids is not None:
            return inv_ids.item(x)
        return self._invert(x)

    def power(self, x: int, k: int) -> int:
        """x**k by binary exponentiation; k may be negative."""
        self.check_id(x)
        if k < 0:
            x = self.inv(x)
            k = -k
        acc = 0
        base = x
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def element_order(self, x: int) -> int:
        self.check_id(x)
        n = 1
        y = x
        while y != 0:
            y = self.mul(y, x)
            n += 1
        return n

    def conjugate(self, x: int, y: int) -> int:
        """x^y = y^-1 x y."""
        return self.mul(self.inv(y), self.mul(x, y))

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y."""
        return self.mul(self.inv(self.mul(y, x)), self.mul(x, y))

    def elements(self) -> range:
        return range(self.order)

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            gens = self.generators
            self._abelian = all(
                self.mul(a, b) == self.mul(b, a) for a in gens for b in gens
            )
        return self._abelian

    # -- bulk helpers ------------------------------------------------------

    def flat_table(self) -> memoryview | None:
        """Row-major Cayley table as a flat memoryview of `np_table`, cached;
        None above TABLE_CAP.

        It shares the table's memory, and indexing it gives Python ints.
        """
        self.np_table()
        return self._flat

    def np_table(self) -> np.ndarray | None:
        """Cayley table as a cached 2d array; None above TABLE_CAP.

        Filled from the backend's `_mul_pairwise_vec`, a block of rows of
        about BLOCK products at a time.
        """
        if self._np is None and self.order <= TABLE_CAP:
            n = self.order
            ids = np.arange(n, dtype=np.int64)
            table = np.empty((n, n), dtype=np.int64)
            step = max(1, BLOCK // n)
            for lo in range(0, n, step):
                xs = ids[lo : lo + step]
                prods = self._mul_pairwise_vec(np.repeat(xs, n), np.tile(ids, len(xs)))
                table[lo : lo + step] = prods.reshape(len(xs), n)
            self._keep_table(table)
        return self._np

    def mul_vec(self, xs: np.ndarray, y: int) -> np.ndarray:
        """Right-multiply an id vector by a fixed element.

        This op, `lmul_vec`, `mul_pairwise_vec` and `inv_vec` read the
        Cayley table when the group has one (`np_table`, built on first use
        up to TABLE_CAP) and call the backend's vector kernel otherwise,
        BLOCK ids at a time.
        """
        self.check_id(y)
        arr = self.np_table()
        if arr is not None:
            return arr[xs, y]
        return _blockwise(lambda b: self._mul_vec(b, y), xs)

    def lmul_vec(self, y: int, xs: np.ndarray) -> np.ndarray:
        """Left-multiply an id vector by a fixed element."""
        self.check_id(y)
        arr = self.np_table()
        if arr is not None:
            return arr[y, xs]
        return _blockwise(lambda b: self._lmul_vec(y, b), xs)

    def mul_pairwise_vec(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Elementwise products xs[i]*ys[i]."""
        arr = self.np_table()
        if arr is not None:
            return arr[xs, ys]
        return _blockwise(self._mul_pairwise_vec, xs, ys)

    def pow_vec(self, xs: np.ndarray, k: int) -> np.ndarray:
        """Elementwise k-th powers, k >= 0, as a new array.

        Binary exponentiation that starts from the lowest set bit of k, so
        no product is by the identity: k = 7 takes 4 products.
        """
        if k < 0:
            raise InvalidId("pow_vec exponent must be nonnegative")
        base = np.array(xs, dtype=np.int64)
        if k == 0:
            return np.zeros(len(base), dtype=np.int64)
        while not k & 1:
            base = self.mul_pairwise_vec(base, base)
            k >>= 1
        acc = base
        k >>= 1
        while k:
            base = self.mul_pairwise_vec(base, base)
            if k & 1:
                acc = self.mul_pairwise_vec(acc, base)
            k >>= 1
        return acc

    def inv_vec(self, xs: np.ndarray) -> np.ndarray:
        """Elementwise inverses, read off the inverse array kept with the
        Cayley table when the group has one."""
        if self.np_table() is not None:
            return self._inv_ids[xs]
        return _blockwise(self._inv_vec, xs)

    def all_ids(self) -> np.ndarray:
        """The ids 0..order-1 as one cached, read-only int64 array.

        Shared by every caller (`lattice.full_subgroup` among them), so a
        write through it raises instead of changing what the others read.
        """
        if self._all_ids is None:
            self._all_ids = np.arange(self.order, dtype=np.int64)
            self._all_ids.flags.writeable = False
        return self._all_ids

    def power_map(self) -> np.ndarray:
        """P with P[x] = x^p for a group of order p^n, cached.

        Filled BLOCK ids at a time and stored as `ID32`. Raises NotPGroup
        for other orders.
        """
        if self._power_map is None:
            pn = prime_power(self.order)
            if pn is None:
                raise NotPGroup(f"{self.name} has order {self.order}, not a prime power")
            n = self.order
            P = np.empty(n, dtype=ID32)
            for lo in range(0, n, BLOCK):
                P[lo : lo + BLOCK] = self.pow_vec(np.arange(lo, min(lo + BLOCK, n)), pn[0])
            self._power_map = P
        return self._power_map

    def p_power_vec(self, xs: np.ndarray, s: int = 1) -> np.ndarray:
        """Elementwise p^s-th powers in a p-group: s gathers through P."""
        P = self.power_map()
        out = np.asarray(xs, dtype=np.int64)
        for _ in range(s):
            out = P[out]
        return out.astype(np.int64)

    def element_orders(self) -> np.ndarray:
        """Orders of all elements, cached.

        In a p-group, order(1) = 1 and order(x) = p * order(x^p), so the
        orders come from gathers through the power map, BLOCK ids at a time
        into the result, so that no temporary is as long as the group; other
        groups multiply round by round.
        """
        if self._orders is None:
            pn = prime_power(self.order)
            if pn is None:
                self._orders = self._orders_by_rounds()
            else:
                p, e = pn
                P = self.power_map()
                out = np.ones(self.order, dtype=np.int64)
                for lo in range(0, self.order, BLOCK):
                    cur = np.arange(lo, min(lo + BLOCK, self.order))
                    block = out[lo : lo + BLOCK]
                    # an element order divides p^n, so n gathers reach 1
                    # unless the operation is not associative (a Cayley
                    # table input)
                    for _ in range(e):
                        alive = cur != 0
                        np.multiply(block, p, out=block, where=alive)
                        cur = P[cur]
                    if cur.any():
                        raise InvalidId(f"x^(p^{e}) != 1 for some x in {self.name}")
                self._orders = out
        return self._orders

    def _orders_by_rounds(self) -> np.ndarray:
        """Element orders by multiplying each element by itself until 1."""
        n = self.order
        out = np.ones(n, dtype=np.int64)
        cur = np.arange(n, dtype=np.int64)
        ids = np.arange(n, dtype=np.int64)
        alive = cur != 0
        k = 1
        while alive.any():
            cur[alive] = self.mul_pairwise_vec(cur[alive], ids[alive])
            k += 1
            just_closed = alive & (cur == 0)
            out[just_closed] = k
            alive = alive & (cur != 0)
        return out

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} order={self.order}>"


class TableGroup(FiniteGroup):
    """Group given by an explicit Cayley table, as rows or row-major flat.

    The table must have id 0 as its identity and every row and column a
    permutation of the ids; then each element's powers return to 0, which
    the element orders rely on. Associativity is not checked.
    """

    def __init__(
        self,
        table: Sequence,
        order: int,
        generators: Sequence[int] | None = None,
        name: str = "",
    ):
        arr = np.asarray(table, dtype=np.int64)
        if arr.size != order * order:
            raise InvalidId(f"table of {arr.size} entries != {order}^2")
        super().__init__(order, generators or (), name)
        arr = arr.reshape(order, order)
        if not (arr == 0).any(axis=1).all():
            raise InvalidId("every row of a Cayley table must hold the identity id 0")
        ids = np.arange(order)
        if not (np.array_equal(arr[0], ids) and np.array_equal(arr[:, 0], ids)):
            raise InvalidId("row 0 and column 0 of a Cayley table must read 0..n-1")
        rows_ok = (np.sort(arr, axis=1) == ids).all()
        if not (rows_ok and (np.sort(arr, axis=0).T == ids).all()):
            raise InvalidId("every row and column of a Cayley table must permute the ids")
        self._keep_table(arr)
        if generators is None:
            self.generators = _pick_generators(self, range(order))


class PermGroup(FiniteGroup):
    """Permutation group closed from generator permutations.

    Elements are enumerated once by Dimino's incremental coset method, so ids
    are stable for a fixed generator list. The identity receives id 0.
    """

    def __init__(
        self,
        gen_perms: Sequence[Sequence[int]],
        name: str = "",
    ):
        if not gen_perms:
            raise DegreeMismatch("need at least one generator permutation")
        degree = len(gen_perms[0])
        if degree > PERM_DEGREE_CAP:
            raise DegreeMismatch(f"degree {degree} exceeds cap {PERM_DEGREE_CAP}")
        perms = []
        for p in gen_perms:
            if len(p) != degree:
                raise DegreeMismatch(f"degree {len(p)} vs {degree}")
            if not is_perm(p):
                raise DegreeMismatch(f"{tuple(p)} is not a permutation")
            perms.append(tuple(int(i) for i in p))

        elements = _dimino(perms, degree)
        index = {p: i for i, p in enumerate(elements)}
        super().__init__(
            len(elements), [index[p] for p in perms], name or f"perm<{degree}>"
        )
        self.degree = degree
        self.perms = elements
        self._index = index
        self._keys: tuple[np.ndarray, list[int], np.ndarray, np.ndarray] | None = None

    def _mul(self, x: int, y: int) -> int:
        return self._index[perm_mul(self.perms[x], self.perms[y])]

    def _invert(self, x: int) -> int:
        return self._index[perm_inv(self.perms[x])]

    def _key_index(self) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray]:
        """The permutation array and its sorted key, built once.

        Returns (P, weights, sorted_keys, by_key): P[x] is permutation x as
        an int64 row, and a permutation's key is the weighted sum of its
        first degree-1 images, which determine it and keep the key below
        16^15 < 2^63; by_key lists the ids in key order.
        """
        if self._keys is None:
            n, d = self.order, self.degree
            perms = np.array(self.perms, dtype=np.int64).reshape(n, d)
            weights = (d ** np.arange(d - 1, dtype=np.int64)).tolist()
            keys = perms[:, :-1] @ np.array(weights, dtype=np.int64)
            by_key = np.argsort(keys)
            self._keys = (perms, weights, keys[by_key], by_key)
        return self._keys

    def _ids_of(self, shape: tuple[int, ...], images) -> np.ndarray:
        """Ids of the permutations whose i-th image is images[i], i < degree-1.

        `images` yields id arrays of the given shape, one per point; those
        past the first degree-1 are not read.
        """
        _, weights, sorted_keys, by_key = self._key_index()
        keys = np.zeros(shape, dtype=np.int64)
        for w, col in zip(weights, images):
            keys += w * col
        return by_key[np.searchsorted(sorted_keys, keys)]

    # The product x*y sends point i to P[y][P[x][i]].

    def _mul_vec(self, xs: np.ndarray, y: int) -> np.ndarray:
        P = self._key_index()[0]
        return self._ids_of(xs.shape, (P[y][P[xs, i]] for i in range(self.degree)))

    def _lmul_vec(self, y: int, xs: np.ndarray) -> np.ndarray:
        P = self._key_index()[0]
        return self._ids_of(xs.shape, (P[xs, i] for i in P[y].tolist()))

    def _mul_pairwise_vec(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        P = self._key_index()[0]
        return self._ids_of(xs.shape, (P[ys, P[xs, i]] for i in range(self.degree)))

    def _inv_vec(self, xs: np.ndarray) -> np.ndarray:
        inverses = np.argsort(self._key_index()[0][xs], axis=-1)
        return self._ids_of(xs.shape, np.moveaxis(inverses, -1, 0))

    def perm(self, x: int) -> tuple[int, ...]:
        return self.perms[self.check_id(x)]

    def id_of(self, p: Sequence[int]) -> int:
        key = tuple(p)
        if key not in self._index:
            raise InvalidId(f"permutation {key} not in {self.name}")
        return self._index[key]

    def sign(self, x: int) -> int:
        return perm_sign(self.perms[x])


def _blockwise(kernel, *arrays) -> np.ndarray:
    """kernel(*arrays) as int64 ids of the first array's shape, computed
    over slices of at most BLOCK ids, one slice at a time, into one result;
    the kernel's temporaries then stay BLOCK long, whatever the length."""
    flat = [np.asarray(a).reshape(-1) for a in arrays]
    out = np.empty(flat[0].size, dtype=np.int64)
    for lo in range(0, out.size, BLOCK):
        out[lo : lo + BLOCK] = kernel(*(a[lo : lo + BLOCK].astype(np.int64) for a in flat))
    return out.reshape(np.shape(arrays[0]))


def _dimino(gen_perms: list[tuple[int, ...]], degree: int) -> list[tuple[int, ...]]:
    """Dimino's algorithm: close generators incrementally, a coset at a time."""
    identity = tuple(range(degree))
    elements = [identity]
    index = {identity}

    def grow_coset(rep: tuple[int, ...], subgroup: list[tuple[int, ...]]):
        for s in subgroup:
            t = perm_mul(s, rep)
            if t not in index:
                if len(elements) >= CLOSURE_UNIVERSE_CAP:
                    raise UniverseOverflow(
                        f"closure exceeded {CLOSURE_UNIVERSE_CAP} elements"
                    )
                index.add(t)
                elements.append(t)

    for i, g in enumerate(gen_perms):
        if g in index:
            continue
        prev = list(elements)  # subgroup generated so far
        grow_coset(g, prev)
        reps = [g]
        while reps:
            rep = reps.pop(0)
            for h in gen_perms[: i + 1]:
                t = perm_mul(rep, h)
                if t not in index:
                    grow_coset(t, prev)
                    reps.append(t)
    return elements


class QuotientGroup(FiniteGroup):
    """Quotient G/N over coset ids, with the projection map exposed.

    Cosets are numbered in the order `_grow` finds them from the identity
    coset, so the trivial coset N gets id 0. Products are computed through
    representatives.
    """

    def __init__(self, parent: FiniteGroup, normal_ids: Sequence[int], name: str = ""):
        n_ids = sorted(parent.check_id(int(v)) for v in normal_ids)
        if not n_ids or n_ids[0] != 0:
            raise NotNormal("normal subgroup must contain the identity")
        member = np.zeros(parent.order, dtype=bool)
        member[n_ids] = True
        n_arr = np.array(n_ids, dtype=np.int64)
        # N^g = g^-1 (N g) for each generator g, a vector at a time
        for g in parent.generators:
            conj = parent.lmul_vec(parent.inv(g), parent.mul_vec(n_arr, g))
            if not member[conj].all():
                raise NotNormal(
                    f"subgroup of order {len(n_ids)} is not normal in {parent.name}"
                )

        # the cosets N t, numbered in the order `_grow` finds them
        reps = np.asarray(_grow(parent, member, n_arr, parent.generators)[1])
        class_of = np.empty(parent.order, dtype=np.int64)
        for lo, cosets in _right_cosets(parent, n_arr, reps):
            class_of[cosets] = np.arange(lo, lo + len(cosets))[:, None]

        super().__init__(
            len(reps),
            sorted({int(class_of[g]) for g in parent.generators} - {0}) or [0],
            name or f"{parent.name}/N{len(n_ids)}",
        )
        self.parent = parent
        self.reps = reps
        self._class_of = class_of

    def _mul_pairwise_vec(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The classes of the parent's pairwise products of representatives."""
        prods = self.parent.mul_pairwise_vec(self.reps[xs], self.reps[ys])
        return self._class_of[prods]

    def project(self, x: int) -> int:
        """Natural projection G -> G/N on element ids."""
        self.parent.check_id(x)
        return int(self._class_of[x])

    def _mul(self, x: int, y: int) -> int:
        rx, ry = int(self.reps[x]), int(self.reps[y])
        return int(self._class_of[self.parent.mul(rx, ry)])

    def _invert(self, x: int) -> int:
        return int(self._class_of[self.parent.inv(int(self.reps[x]))])


def _right_cosets(
    G: FiniteGroup, base_ids: np.ndarray, reps: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """The right cosets B t of the reps t, about BLOCK ids at a time.

    Yields (lo, block) with block[i] the coset B reps[lo + i].
    """
    m = base_ids.size
    step = max(1, BLOCK // m)
    for lo in range(0, reps.size, step):
        ts = reps[lo : lo + step]
        prods = G.mul_pairwise_vec(np.tile(base_ids, ts.size), np.repeat(ts, m))
        yield lo, prods.reshape(ts.size, m)


def _grow(
    G: FiniteGroup, member: np.ndarray, base_ids: np.ndarray, gens: Sequence[int]
) -> tuple[np.ndarray, Sequence[int]]:
    """Member mask of J = <B, gens> and representatives of its cosets of B.

    B is a subgroup given by its member mask and its ids, and gens must
    generate a subgroup containing B (say, by including generators of B).
    J is grown as a union of right cosets B t: each representative t is
    multiplied by every generator, and a product u outside the union adds
    its whole coset B u and is its representative. The union is then
    closed under right multiplication by gens, so it is J, and the
    representatives, the identity first, number |J:B|. The input mask is
    left unchanged.

    With a Cayley table the representatives are walked one at a time over
    `flat_table`; without one, a frontier at a time. Right multiplication by
    one g permutes the right cosets of B, so each product of the frontier
    by g outside the union starts a new coset of its own. With B = 1 both
    walks are the orbit of the identity.
    """
    whole = base_ids.size > 1
    table = G.flat_table()
    if table is not None:
        n, arr = G.order, G.np_table()
        marks = bytearray(member)
        mask = np.frombuffer(marks, dtype=np.bool_)
        reps = [0]
        for t in reps:  # reps grows while it is walked
            row = t * n
            for g in gens:
                u = table[row + g]
                if not marks[u]:
                    if whole:
                        mask[arr[:, u][base_ids]] = True
                    else:
                        marks[u] = 1
                    reps.append(u)
        return mask, reps
    mask = np.array(member, dtype=np.bool_)
    frontier = np.zeros(1, dtype=np.int64)
    found = [frontier]
    while frontier.size:
        new = [frontier[:0]]
        for g in gens:
            t = G.mul_vec(frontier, g)
            fresh = t[~mask[t]]
            mask[fresh] = True
            if whole:
                for _, cosets in _right_cosets(G, base_ids, fresh):
                    mask[cosets] = True
            new.append(fresh)
        frontier = np.concatenate(new)
        found.append(frontier)
    return mask, np.concatenate(found)


def _closure(G: FiniteGroup, gens: Sequence[int]) -> tuple[np.ndarray, Sequence[int]]:
    """Member mask of <gens> and its members in the order found: `_grow`
    from the trivial subgroup. Each member after the identity is an earlier
    one times a generator."""
    one = np.zeros(G.order, dtype=np.bool_)
    one[0] = True
    return _grow(G, one, np.zeros(1, dtype=np.int64), gens)


def closure_ids(G: FiniteGroup, seed: Iterable[int]) -> list[int]:
    """Subgroup generated by seed ids, as a sorted id list.

    The orbit of the identity under right multiplication by the seed
    (`_grow` from B = 1); inverses are not needed because the group is
    finite.
    """
    gens = sorted({G.check_id(int(s)) for s in seed} - {0})
    return np.flatnonzero(_closure(G, gens)[0]).tolist()


def _pick_generators(G: FiniteGroup, candidates) -> tuple[int, ...]:
    """Greedy generating set, sorted, for the subgroup the candidates generate.

    Candidates are taken highest element order first, ties to the smaller
    id; each one outside the closure of those picked so far is picked. Each
    pick at least doubles that closure, so a subgroup of order m gets at
    most log2 m generators.
    """
    cand = np.asarray(candidates, dtype=np.int64)
    pool = cand[np.lexsort((cand, -G.element_orders()[cand]))]
    pool = pool[pool != 0]
    gens: list[int] = []
    while pool.size:
        gens.append(int(pool[0]))
        pool = pool[~_closure(G, gens)[0][pool]]
    return tuple(sorted(gens))
