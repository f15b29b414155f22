"""Power-commutator presentations and their realized groups.

A presentation lists generators g_0 < g_1 < ... < g_{n-1} with prime relative
orders o_i, power words g_i^{o_i} = w_i, and commutator words [g_j, g_i] = w_ji
for j > i. Words on the right-hand side may only mention generators strictly
deeper than the ones on the left (index > i for power rules, index > j for
commutator rules), which makes collection from the left terminate and forces
the realized group to be a finite p-group of order prod(o_i).

Elements are encoded as mixed-radix integers: the normal form
g_0^{e_0} g_1^{e_1} ... g_{n-1}^{e_{n-1}} has id  sum e_i * s_{i+1}  where
s_i = o_i * o_{i+1} * ... * o_{n-1}. Multiplication is realized through one
step table per generator, built once by a conjugation sweep, so a product
costs a handful of array lookups instead of a symbolic collection.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import ID32, FiniteGroup, prime_power
from .errors import (
    BadPresentation,
    CollectionLimitExceeded,
    InconsistentPresentation,
    UniverseOverflow,
)

__all__ = [
    "PC_GEN_CAP",
    "COLLECT_LIMIT",
    "Word",
    "PcPresentation",
    "collect",
    "check_consistency",
    "PcGroup",
    "realize_pc_group",
]

# Presentations may use at most this many generators.
PC_GEN_CAP = 12

# Hard bound on rewriting steps in a single collection.
COLLECT_LIMIT = 10**7

Word = tuple[tuple[int, int], ...]


def _normalize_word(word: Iterable[Sequence[int]], what: str) -> Word:
    out = []
    for letter in word:
        if len(letter) != 2:
            raise BadPresentation(f"{what}: letter {letter!r} is not (gen, exp)")
        g, e = int(letter[0]), int(letter[1])
        out.append((g, e))
    return tuple(out)


class PcPresentation:
    """Validated power-commutator presentation of a finite p-group.

    rel_orders   relative order o_i of each generator, all powers of one prime
    powers       {i: word} giving g_i^{o_i}; omitted means g_i^{o_i} = 1
    commutators  {(j, i): word} giving [g_j, g_i] for j > i; omitted means
                 the two generators commute

    Words are tuples of (generator, exponent) letters with strictly increasing
    generators and exponents in [1, o_gen). Right-hand sides must only mention
    generators deeper than j (commutators) or i (powers); violations raise
    BadPresentation.
    """

    def __init__(
        self,
        rel_orders: Sequence[int],
        powers: Mapping[int, Iterable[Sequence[int]]] | None = None,
        commutators: Mapping[tuple[int, int], Iterable[Sequence[int]]] | None = None,
    ):
        orders = tuple(int(o) for o in rel_orders)
        n = len(orders)
        if not 1 <= n <= PC_GEN_CAP:
            raise BadPresentation(f"need 1..{PC_GEN_CAP} generators, got {n}")
        for o in orders:
            if prime_power(o) != (o, 1):
                raise BadPresentation(f"relative order {o} is not prime")
        if len(set(orders)) > 1:
            raise BadPresentation(f"mixed relative orders {sorted(set(orders))}")
        self.rel_orders = orders
        self.ngens = n
        self.prime = orders[0]

        pws: dict[int, Word] = {}
        for i, word in (powers or {}).items():
            i = int(i)
            if not 0 <= i < n:
                raise BadPresentation(f"power rule for unknown generator {i}")
            w = _normalize_word(word, f"power word of g{i}")
            self._check_word(w, min_gen=i + 1, what=f"power word of g{i}")
            if w:
                pws[i] = w
        self.powers = pws

        cms: dict[tuple[int, int], Word] = {}
        for key, word in (commutators or {}).items():
            j, i = int(key[0]), int(key[1])
            if not (0 <= i < j < n):
                raise BadPresentation(f"commutator key ({j}, {i}) needs j > i >= 0")
            w = _normalize_word(word, f"commutator word [g{j}, g{i}]")
            self._check_word(w, min_gen=j + 1, what=f"commutator word [g{j}, g{i}]")
            if w:
                cms[(j, i)] = w
        self.commutators = cms

    def _check_word(self, word: Word, min_gen: int, what: str) -> None:
        prev = -1
        for g, e in word:
            if not min_gen <= g < self.ngens:
                raise BadPresentation(
                    f"{what}: generator g{g} must have index >= {min_gen}"
                )
            if g <= prev:
                raise BadPresentation(f"{what}: generators must strictly increase")
            if not 1 <= e < self.rel_orders[g]:
                raise BadPresentation(
                    f"{what}: exponent {e} of g{g} outside [1, {self.rel_orders[g]})"
                )
            prev = g

    @property
    def order(self) -> int:
        out = 1
        for o in self.rel_orders:
            out *= o
        return out

    def __repr__(self) -> str:
        return (
            f"<PcPresentation n={self.ngens} p={self.prime} "
            f"order={self.order} powers={len(self.powers)} "
            f"commutators={len(self.commutators)}>"
        )


def collect(pres: PcPresentation, word: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Collect a word from the left into normal-form exponents.

    Repeatedly fixes the leftmost violation: an exponent outside [0, o_g) is
    reduced through the power rule, equal neighbours merge, and an out-of-order
    pair g^e h^f (g > h) rewrites to h (g w)^e h^(f-1) with w = [g, h], once
    h^f is itself reduced. Exponents may be negative. Purely symbolic; used
    as the independent reference for the table-based realization.
    """
    o = pres.rel_orders
    pws = pres.powers
    cms = pres.commutators
    letters: list[list[int]] = [[int(g), int(e)] for g, e in word if int(e) != 0]
    steps = 0
    k = 0
    while k < len(letters):
        steps += 1
        if steps > COLLECT_LIMIT:
            raise CollectionLimitExceeded(f"collection exceeded {COLLECT_LIMIT} steps")
        g, e = letters[k]
        if e == 0:
            del letters[k]
            k = max(0, k - 1)
            continue
        og = o[g]
        if not 0 <= e < og:
            q, r = divmod(e, og)
            repl: list[list[int]] = [[g, r]] if r else []
            u = pws.get(g, ())
            if q > 0:
                for _ in range(q):
                    repl.extend([gg, ee] for gg, ee in u)
            else:
                for _ in range(-q):
                    repl.extend([gg, -ee] for gg, ee in reversed(u))
            letters[k : k + 1] = repl
            k = max(0, k - 1)
            continue
        if k + 1 < len(letters):
            h, f = letters[k + 1]
            if f == 0:
                del letters[k + 1]
                continue
            if h == g:
                letters[k][1] = e + f
                del letters[k + 1]
                continue
            if h < g:
                if not 0 <= f < o[h]:
                    k += 1  # reduce h^f first: each swap leaves h^(f-1)
                    continue
                w = cms.get((g, h), ())
                repl = [[h, 1]]
                for _ in range(e):
                    repl.append([g, 1])
                    repl.extend([gg, ee] for gg, ee in w)
                if f != 1:
                    repl.append([h, f - 1])
                letters[k : k + 2] = repl
                k = max(0, k - 1)
                continue
        k += 1
    out = [0] * pres.ngens
    for g, e in letters:
        out[g] = e
    return tuple(out)


def _nf_mul(pres: PcPresentation, a: tuple[int, ...], b: tuple[int, ...]):
    word = [(i, e) for i, e in enumerate(a) if e] + [(i, e) for i, e in enumerate(b) if e]
    return collect(pres, word)


def check_consistency(pres: PcPresentation) -> None:
    """Verify the overlap conditions that make normal forms well defined.

    Checks, via symbolic collection, that both bracketings of
    g_k (g_j g_i), g_j^{o_j} g_i, g_j g_i^{o_i}, and g_i^{o_i + 1} collect to
    the same normal form for all k > j > i. When every overlap closes, the
    realized group has exactly prod(o_i) elements; otherwise the presentation
    defines a proper quotient and InconsistentPresentation is raised with the
    first failing overlap as witness.
    """
    n = pres.ngens

    def gen(i: int) -> tuple[int, ...]:
        out = [0] * n
        out[i] = 1
        return tuple(out)

    def gen_pow(i: int, e: int) -> tuple[int, ...]:
        return collect(pres, [(i, e)])

    for j in range(n):
        for i in range(j):
            for k in range(j + 1, n):
                lhs = _nf_mul(pres, gen(k), _nf_mul(pres, gen(j), gen(i)))
                rhs = _nf_mul(pres, _nf_mul(pres, gen(k), gen(j)), gen(i))
                if lhs != rhs:
                    raise InconsistentPresentation(
                        f"overlap g{k}(g{j} g{i}) = {lhs} vs (g{k} g{j})g{i} = {rhs}"
                    )
            oj, oi = pres.rel_orders[j], pres.rel_orders[i]
            lhs = _nf_mul(pres, gen_pow(j, oj), gen(i))
            rhs = _nf_mul(pres, gen_pow(j, oj - 1), _nf_mul(pres, gen(j), gen(i)))
            if lhs != rhs:
                raise InconsistentPresentation(
                    f"overlap g{j}^{oj} g{i}: {lhs} vs {rhs}"
                )
            lhs = _nf_mul(pres, gen(j), gen_pow(i, oi))
            rhs = _nf_mul(pres, _nf_mul(pres, gen(j), gen(i)), gen_pow(i, oi - 1))
            if lhs != rhs:
                raise InconsistentPresentation(
                    f"overlap g{j} g{i}^{oi}: {lhs} vs {rhs}"
                )
    for i in range(n):
        oi = pres.rel_orders[i]
        lhs = _nf_mul(pres, gen(i), gen_pow(i, oi))
        rhs = _nf_mul(pres, gen_pow(i, oi), gen(i))
        if lhs != rhs:
            raise InconsistentPresentation(f"overlap g{i}^{oi + 1}: {lhs} vs {rhs}")


class PcGroup(FiniteGroup):
    """Realization of a consistent power-commutator presentation.

    Tables live on the tail subgroups U_j = <g_j, ..., g_{n-1}>, whose ids
    are 0..s_j-1, and are int32 (`core.ID32`). Per generator g_j they hold
    the conjugation phi_j(z) = g_j^-1 z g_j of U_{j+1} and the left
    multiplication L_j(z) = u_j z of U_{j+1} by u_j = g_j^p. For
    r = g_j^a r'' with r'' in U_{j+1},

        r * g_j^d = g_j^(a+d) phi_j^d(r''),

    and g_j^(a+d) = g_j^(a+d-p) u_j when a + d >= p. In ids, with
    t = s_{j+1}, the U_j part a*t + r'' of x becomes (a+d)*t + phi_j^d(r'')
    or (a+d-p)*t + L_j phi_j^d(r''). So the step table of g_j stacks 2p
    blocks over U_{j+1}: block d holds d*t + phi_j^d, block p + d holds
    (d-p)*t + L_j phi_j^d, and x * g_j^d adds one entry to x - r''. A
    product x * y takes one gather per digit of y; block d = 1 is x * g_j.
    A left product y x is read as (x^-1 y^-1)^-1, through the inverse table
    (int32 too, filled once) and one right product, so it builds no table
    of size |G| per y.

    Tables are built deepest generator first; phi_j is filled by dynamic
    programming over ids ordered by their deepest nonzero digit, from the
    tables of the deeper generators. The inverse table is filled by top
    digit instead: x = g_m^e r with r in U_{m+1} has x^-1 = r^-1 g_m^-e, so
    each block e of U_m is one vector product of the U_{m+1} block by
    g_m^-e. The p-th power map is constant on the cosets of the deepest
    tail U_k that is central of exponent p, which are blocks of s_k
    consecutive ids (`_power_block`).

    Like every backend, a group of order up to TABLE_CAP multiplies through
    its Cayley table, filled from the pairwise digit-step kernel; the
    digit-step vector kernels serve larger ones, which the vector ops call
    BLOCK ids at a time, so their temporaries stay small beside an id
    vector of length |G|.
    """

    def __init__(self, pres: PcPresentation, name: str = ""):
        self.pres = pres
        n = pres.ngens
        o = pres.rel_orders
        sizes = [1] * (n + 1)
        for i in range(n - 1, -1, -1):
            sizes[i] = o[i] * sizes[i + 1]
        self.sizes = tuple(sizes)
        order = sizes[0]
        if 2 * order > np.iinfo(ID32).max:
            # the step tables index 2 * s_j entries with int32
            raise UniverseOverflow(f"order {order} is too large for int32 tables")
        super().__init__(
            order, [sizes[j + 1] for j in range(n)], name or f"pc<{order}>"
        )
        self._steps: list[np.ndarray | None] = [None] * n
        self._inv_arr: np.ndarray | None = None
        for j in range(n - 1, -1, -1):
            self._build_tables(j)

    # -- table construction ----------------------------------------------

    def _word_element(self, word: Word) -> int:
        """Id of a normal-form word over generators with built tables."""
        x = 0
        for g, e in word:
            x = int(self._step(g, x, e))
        return x

    def _step(self, i: int, xs, d):
        """xs * g_i^d, for 0 <= d < p; xs, d scalars or arrays of one shape.

        With a the g_i digit of x, pw = p when g_i^(a+d) wraps past u_i,
        else 0, and block d + pw of the step table reads the U_{i+1} part.
        """
        p, szt = self.pres.prime, self.sizes[i + 1]
        # Remainders as x - (x // m) * m, since numpy's floor division by a
        # scalar is several times faster than its `%` on int32; the step
        # table index a is built in place, so fewer temporaries the size of
        # xs are alive at once.
        a = xs // szt
        low = xs - a * szt
        a -= a // p * p  # the digit of g_i in x
        a += d
        a //= p  # 1 when a + d wraps past p, so pw = a * p
        a *= p
        a += d
        a *= szt
        a += low
        # a Python int reads a Python int, so a scalar product steps in ints
        step = self._steps[i].item(a) if isinstance(a, int) else self._steps[i][a]
        return xs - low + step

    def _mul_into_tail(self, xs: np.ndarray, c: int, top: int) -> np.ndarray:
        """Vector right-product xs * c where all ids live in U_top."""
        s = self.sizes
        for i in range(top, self.pres.ngens):
            d = (c // s[i + 1]) % self.pres.prime
            if d:
                xs = self._step(i, xs, d)
        return xs

    def _build_tables(self, j: int) -> None:
        p = self.pres.prime
        szt = self.sizes[j + 1]
        comms = self.pres.commutators

        def by_conjugate(m: int):
            # g_j^-1 g_m g_j = g_m [g_m, g_j], a right factor inside U_{j+1}
            gamma = self._word_element(((m, 1), *comms.get((m, j), ())))
            return lambda v: self._mul_into_tail(v, gamma, j + 1)

        phi = self._digit_fill(j + 1, 0, by_conjugate)
        uj = self._word_element(self.pres.powers.get(j, ()))
        if uj:
            u_left = self._digit_fill(j + 1, uj, lambda m: partial(self._step, m, d=1))
        else:
            u_left = np.arange(szt, dtype=ID32)
        steps = np.empty((2, p, szt), dtype=ID32)
        steps[0, 0] = np.arange(szt)
        for d in range(1, p):
            steps[0, d] = phi[steps[0, d - 1]]
        steps[1] = u_left[steps[0]]
        shift = np.arange(p) * szt
        steps[0] += shift[:, None]
        steps[1] += (shift - p * szt)[:, None]
        self._steps[j] = steps.ravel()

    def _digit_fill(self, top: int, start: int, step) -> np.ndarray:
        """Array f over the ids of U_top, f[0] = start, f[y * g_m] = step(m)(f[y]).

        Deepest-digit recursion: an id z whose deepest nonzero digit is that
        of g_m is y * g_m, for y the id one lower in that digit. Filling
        generator by generator, each digit value in turn, finds f[y] set.
        step(m) is called once per generator and returns a map on a block
        of ids.
        """
        s = self.sizes
        o = self.pres.rel_orders
        out = np.zeros(s[top], dtype=ID32)
        out[0] = start
        for m in range(top, self.pres.ngens):
            apply = step(m)
            base = np.arange(s[top] // s[m], dtype=np.int64) * s[m]
            for e in range(1, o[m]):
                z = base + e * s[m + 1]
                out[z] = apply(out[z - s[m + 1]])
        return out

    # -- group interface ----------------------------------------------------

    def _mul(self, x: int, y: int) -> int:
        return int(self._mul_into_tail(x, y, 0))

    def _invert(self, x: int) -> int:
        return int(self._inverse_table()[x])

    def _inverse_table(self) -> np.ndarray:
        """Array I with I[x] = x^-1, as int32, filled by top digit.

        An id of U_m is x = g_m^e r with r in U_{m+1}, and x^-1 = r^-1 g_m^-e,
        so for m = n-1 down to 0 block e of U_m is I[:s_{m+1}] times g_m^-e.
        g_m^-1 is g_m^(p-1) u_m^-1, for u_m = g_m^p in U_{m+1}, whose part of
        I is already filled; the fill calls no `inv` or negative `power`, which
        would read this table.
        """
        if self._inv_arr is None:
            p, s = self.pres.prime, self.sizes
            out = np.zeros(self.order, dtype=ID32)
            for m in range(self.pres.ngens - 1, -1, -1):
                t = s[m + 1]
                um = self._word_element(self.pres.powers.get(m, ()))
                gm_inv = (p - 1) * t + int(out[um])
                c = 0
                for e in range(1, p):
                    c = self._mul(c, gm_inv)  # g_m^-e
                    out[e * t : (e + 1) * t] = self._mul_into_tail(out[:t], c, m)
            self._inv_arr = out
        return self._inv_arr

    def _power_block(self) -> int:
        """s_k for the smallest k with U_k central of exponent p.

        U_k qualifies when no generator j >= k has a power rule or a
        commutator rule (j, i): its generators then have order p and commute
        with every generator. g_{n-1} always qualifies, as its rules could
        only mention deeper generators.
        """
        rules = set(self.pres.powers) | {j for j, _ in self.pres.commutators}
        return self.sizes[max(rules, default=-1) + 1]

    def left_mul_table(self, c: int) -> np.ndarray:
        """Array L with L[x] = c * x: L[y * g_m] = L[y] * g_m, as int32."""
        return self._digit_fill(0, c, lambda m: partial(self._step, m, d=1))

    # -- vector kernels, for groups beyond TABLE_CAP and table blocks ------
    # They step in int32 and return int64 ids.

    def _mul_vec(self, xs: np.ndarray, y: int) -> np.ndarray:
        return self._mul_into_tail(xs.astype(ID32), y, 0).astype(np.int64)

    def _lmul_vec(self, y: int, xs: np.ndarray) -> np.ndarray:
        inv = self._inverse_table()
        return self._inv_vec(self._mul_vec(inv[xs], int(inv[y])))

    def _mul_pairwise_vec(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        out, ys = xs.astype(ID32), ys.astype(ID32)
        for i in range(self.pres.ngens):
            d = ys // self.sizes[i + 1]  # the digit of g_i, as ys < s_i
            ys -= d * self.sizes[i + 1]
            out = self._step(i, out, d)
        return out.astype(np.int64)

    def _inv_vec(self, xs: np.ndarray) -> np.ndarray:
        return self._inverse_table()[xs].astype(np.int64)

    def digits(self, x: int) -> tuple[int, ...]:
        """Normal-form exponent vector of an id."""
        self.check_id(x)
        out = []
        for i in range(self.pres.ngens):
            out.append((x // self.sizes[i + 1]) % self.pres.rel_orders[i])
        return tuple(out)

    def id_of_digits(self, exps: Sequence[int]) -> int:
        if len(exps) != self.pres.ngens:
            raise BadPresentation(
                f"expected {self.pres.ngens} exponents, got {len(exps)}"
            )
        x = 0
        for i, e in enumerate(exps):
            if not 0 <= e < self.pres.rel_orders[i]:
                raise BadPresentation(f"exponent {e} out of range for g{i}")
            x += e * self.sizes[i + 1]
        return x


def realize_pc_group(pres: PcPresentation, name: str = "") -> PcGroup:
    """Check consistency, then build the step-table realization."""
    check_consistency(pres)
    return PcGroup(pres, name=name)
