"""Derived-subgroup landscape analysis.

DS(G) is the set of derived subgroups of all subgroups of G. A group is
called DC here when DS(G) is a chain under inclusion. `GroupContext`
caches one group's invariants and is the one place that builds DS(G) and
its verdict; the lattice-free verdict (`is_dc_fast` and the tests it is
made of) reads the same context. The module also holds the registry of
structural claims about DC groups that the census runs over a corpus (see
`dcgroup.cli.run_census`). The census treats a failed claim as a
build-breaking event: every claim encodes a fact that must hold for the
implementation and corpus to be consistent.

Verdict methods, from strongest to weakest evidence:
  oracle                     full DS(G) enumerated and checked
  abelian-shortcut           DS(G) = {1} by commutativity
  two-group-criterion        the 2-group characterization (an iff, so it
                             may assert both True and False)
  sufficient-cyclic-derived  a proven sufficient condition fired
  sufficient-abelian-maximal
  sufficient-maximal-class
  properties-verified        order-p^7 reference shape: the properties the
                             source argument relies on were all confirmed,
                             but no oracle ran
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, wraps
from math import comb

import numpy as np

from .core import FiniteGroup, QuotientGroup, _pick_generators, prime_factors, prime_power
from .errors import (
    DcgroupError,
    NotPGroup,
    NotTwoGroup,
    OrderCapExceeded,
    ParentMismatch,
    SearchBudgetExceeded,
)
from .lattice import (
    LATTICE_CAP,
    Subgroup,
    SubgroupClass,
    SubgroupLattice,
    all_subgroups,
    closure,
    join,
    maximal_subgroups,
    meet,
    trivial_subgroup,
)
from .structure import (
    REGULARITY_CAP,
    _commutator_with_all,
    _require_pgroup,
    _subgroup_is_abelian,
    abelian_type,
    center,
    derived_length,
    derived_subgroup,
    exponent,
    fundamental_subgroup,
    is_cyclic,
    is_p_abelian,
    is_pgroup,
    is_regular,
    lower_central_series,
    min_generators,
    nilpotency_class,
    pgroup_maximal_subgroups,
    quotient_is_cyclic,
    quotient_exponent,
    sylow_decomposition,
)

__all__ = [
    "COMMUTATOR_IMAGE_CAP",
    "EXHAUSTIVE_PAIR_CAP",
    "SAMPLED_PAIRS",
    "DerivedSet",
    "SublatticeVerdict",
    "is_sublattice",
    "DcVerdict",
    "is_dc_fast",
    "dc_2group_predicate",
    "dc_sufficient_conditions",
    "witness_property_check",
    "ClaimResult",
    "GroupContext",
    "CLAIMS",
    "census_claims",
    "pair_claims",
    "auto_pairs",
    "corpus_notes",
]

# Largest group on which the commutator-image search runs.
COMMUTATOR_IMAGE_CAP = 4096
# Largest group checked exhaustively over all (x, y) pairs.
EXHAUSTIVE_PAIR_CAP = 128
# Random pair sample size above the exhaustive cap.
SAMPLED_PAIRS = 10_000
# `auto_pairs` bounds: |G| of the left factor, |G||A| of the product, and
# the number of pairs.
PAIR_LEFT_CAP = 64
PAIR_PRODUCT_CAP = 128
PAIR_LIMIT = 12

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"
ERROR = "error"


# -- DS(G) --------------------------------------------------------------------


@dataclass
class DerivedSet:
    """Deduplicated {H' : H <= G} with one witness H per member.

    `rep_members` are the members `is_sublattice` pairs with every member.
    Built from a lattice's class representatives J they are the distinct
    J': every member is (J^t)' = (J')^t for some J and t, so every member
    is conjugate to one of them. Built without representatives they are
    all the members.
    """

    parent: FiniteGroup
    members: list[Subgroup]
    witnesses: list[Subgroup]
    incomparable_witness: tuple[Subgroup, Subgroup] | None
    rep_members: list[Subgroup]

    @property
    def is_chain(self) -> bool:
        """True iff the members are pairwise comparable."""
        return self.incomparable_witness is None


def _derived_set(
    G: FiniteGroup,
    pairs: Iterable[tuple[Subgroup, Subgroup]],
    rep_derived: Iterable[Subgroup] | None = None,
) -> DerivedSet:
    """DS from (H, H') pairs and the J' of the class representatives J:
    deduplicate, sort, and test for a chain. Without `rep_derived` every
    member counts as a representative, so `is_sublattice` checks all pairs.

    Members come out sorted by (order, membership); the first incomparable
    pair is found eagerly. Sorting by order makes the chain test local:
    distinct same-order members are incomparable, and for ascending orders
    comparability is exactly inclusion in the next member.
    """
    seen: dict = {}
    for H, d in pairs:
        seen.setdefault(d.bits, (d, H))
    ordered = sorted(seen.values(), key=lambda t: t[0].sort_key())
    members = [d for d, _ in ordered]
    witnesses = [h for _, h in ordered]
    if rep_derived is None:
        rep_members = members
    else:
        reps = {d.bits for d in rep_derived}
        rep_members = [d for d in members if d.bits in reps]
    bad = next(
        ((a, b) for a, b in zip(members, members[1:]) if not a.issubset(b)), None
    )
    return DerivedSet(G, members, witnesses, bad, rep_members)


@dataclass
class SublatticeVerdict:
    """Closure of DS(G) under lattice meet and join, with failure data."""

    ok: bool
    pair: tuple[Subgroup, Subgroup] | None = None
    missing: Subgroup | None = None
    op: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_sublattice(ds: DerivedSet, lattice: SubgroupLattice) -> SublatticeVerdict:
    """Decide whether DS(G) is closed under meet and join.

    A chain is closed trivially (meet and join of comparable members are the
    members themselves). Otherwise only the pairs (a, b) with a in
    `ds.rep_members` are checked: every member is conjugate to some a, DS(G)
    is closed under conjugation and conjugation carries meets and joins
    along, so every pair of members is conjugate to a pair checked, and
    its meet and join lie in DS(G) exactly when theirs do. The first
    missing meet or join is reported.
    """
    if lattice.parent is not ds.parent:
        raise ParentMismatch("lattice belongs to a different group")
    if ds.is_chain:
        return SublatticeVerdict(True)
    keys = {m.bits for m in ds.members}
    done: set[int] = set()
    for a in ds.rep_members:
        done.add(a.bits)
        for b in ds.members:
            if b.bits in done or a.issubset(b) or b.issubset(a):
                continue
            if (a.bits & b.bits) not in keys:
                return SublatticeVerdict(False, (a, b), meet(a, b), "meet")
            j = join(a, b)
            if j.bits not in keys:
                return SublatticeVerdict(False, (a, b), j, "join")
    return SublatticeVerdict(True)


# -- verdicts ------------------------------------------------------------------


@dataclass
class DcVerdict:
    """Is DS(G) a chain, and how was that decided."""

    is_dc: bool
    method: str
    witness: tuple[Subgroup, Subgroup] | None = None
    ds_size: int | None = None


def dc_2group_predicate(ctx: GroupContext) -> bool:
    """Lattice-free DC test for 2-groups.

    True iff G' is cyclic, or G' is the rank-2 elementary abelian group and
    the nilpotency class is exactly 3. This characterization is exact, so
    False verdicts are as trustworthy as True ones.
    """
    G = ctx.G
    if G.order == 1:
        return True
    if ctx.pn is None or ctx.pn[0] != 2:
        raise NotTwoGroup(f"order {G.order} is not a 2-power")
    dp = ctx.derived
    if is_cyclic(G, dp):
        return True
    if dp.order != 4 or not ctx.dprime_abelian:
        return False
    return abelian_type(G, dp) == [2, 2] and ctx.cl == 3


CONDITION_CYCLIC = "cyclic-derived"
CONDITION_ABELIAN_MAXIMAL = "abelian-maximal"
CONDITION_MAXCLASS = "maximal-class-fundamental"

_CONDITION_METHOD = {
    CONDITION_CYCLIC: "sufficient-cyclic-derived",
    CONDITION_ABELIAN_MAXIMAL: "sufficient-abelian-maximal",
    CONDITION_MAXCLASS: "sufficient-maximal-class",
}


def dc_sufficient_conditions(ctx: GroupContext) -> set[str]:
    """Evaluate the three proven sufficient conditions on a p-group.

    cyclic-derived            G' is cyclic
    abelian-maximal           non-abelian, 2-generated, with an abelian
                              maximal subgroup
    maximal-class-fundamental maximal class of order p^n with n >= p+2,
                              p odd, and the fundamental subgroup C_G(K2/K4)
                              having derived subgroup of order exactly p

    Conditions target non-abelian groups; abelian input returns the empty
    set (the abelian shortcut is a separate, unconditional fact).
    """
    G = ctx.G
    p, n = _require_pgroup(G)
    if ctx.abelian:
        return set()
    out: set[str] = set()
    if is_cyclic(G, ctx.derived):
        out.add(CONDITION_CYCLIC)
    if ctx.d == 2 and ctx.has_abelian_maximal:
        out.add(CONDITION_ABELIAN_MAXIMAL)
    if p > 2 and n >= p + 2 and ctx.cl == n - 1:
        if derived_subgroup(G, ctx.fundamental).order == p:
            out.add(CONDITION_MAXCLASS)
    return out


def witness_property_check(ctx: GroupContext) -> dict[str, bool]:
    """Property bundle for the order-p^7 reference groups.

    Checks the facts the DC argument for those groups rests on: G' is
    non-abelian, the center is cyclic, G needs exactly two generators,
    exactly one maximal subgroup M0 has |M0'| = p, and every other maximal
    subgroup has cyclic center. `GroupContext.witness_properties` caches it.
    """
    G = ctx.G
    p, _ = _require_pgroup(G)
    out = {
        "derived-nonabelian": not ctx.dprime_abelian,
        "center-cyclic": is_cyclic(G, ctx.center),
        "two-generated": ctx.d == 2,
    }
    maximals = ctx.maximals
    small = [M for M in maximals if derived_subgroup(G, M).order == p]
    out["unique-small-derived-maximal"] = len(small) == 1
    if len(small) == 1:
        m0 = small[0]
        out["other-maximal-centers-cyclic"] = all(
            is_cyclic(G, center(G, M))
            for M in maximals
            if M is not m0
        )
    else:
        out["other-maximal-centers-cyclic"] = False
    return out


def is_dc_fast(ctx: GroupContext) -> DcVerdict | None:
    """Best lattice-free verdict, or None when nothing applies.

    Tries, in order: the abelian shortcut, the exact 2-group criterion,
    the reference-shape property bundle (order p^7, p >= 5 only), and the
    three sufficient conditions. The bundle outranks the conditions at the
    one shape it targets so the report names the argument that certifies
    those groups.
    """
    if ctx.abelian:
        return ctx.oracle
    if ctx.pn is None:
        return None
    p, n = ctx.pn
    if p == 2:
        return DcVerdict(dc_2group_predicate(ctx), "two-group-criterion")
    if p >= 5 and n == 7 and all(ctx.witness_properties.values()):
        return DcVerdict(True, "properties-verified")
    conds = dc_sufficient_conditions(ctx)
    for name in (CONDITION_CYCLIC, CONDITION_ABELIAN_MAXIMAL, CONDITION_MAXCLASS):
        if name in conds:
            return DcVerdict(True, _CONDITION_METHOD[name])
    return None


# -- census machinery ----------------------------------------------------------


@dataclass
class ClaimResult:
    claim: str
    status: str
    detail: str = ""


def _verdict(ok: bool, witness: str = "") -> tuple[str, str]:
    """(status, detail) of a checked fact; the witness shows on failure."""
    return (PASS, "") if ok else (FAIL, witness)


class GroupContext:
    """Cached invariants for one census subject.

    Each invariant is a `cached_property`, computed on first use and at
    most once, except `lcs`, which reads the series `structure` keeps on
    G; claims and the lattice-free verdict share them. The lattice
    is attempted once and remembered as None when enumeration exceeds the
    cap, so DS(G), the oracle and the claims that need them skip uniformly.
    """

    def __init__(self, G: FiniteGroup, lattice_cap: int = LATTICE_CAP, seed: int = 2026):
        self.G = G
        self.cap = lattice_cap
        self.seed = seed

    @cached_property
    def pn(self) -> tuple[int, int] | None:
        return is_pgroup(self.G)

    @property
    def abelian(self) -> bool:
        return self.G.is_abelian

    @cached_property
    def lattice(self) -> SubgroupLattice | None:
        try:
            return all_subgroups(self.G, self.cap)
        except OrderCapExceeded:
            return None

    @cached_property
    def class_pairs(self) -> list[tuple[SubgroupClass, list[Subgroup]]] | None:
        """Each lattice class with H' for each of its members.

        `derived_subgroup` runs once per class, on its representative J;
        since (J^t)' = (J')^t, the class's conjugators carry J' to the other
        members.
        """
        if self.lattice is None:
            return None
        return [
            (c, c.conjugates_of(derived_subgroup(self.G, c.rep)))
            for c in self.lattice.classes
        ]

    @property
    def rep_pairs(self) -> list[tuple[Subgroup, Subgroup]]:
        """(J, J') for the representative J of each lattice class."""
        return [(c.rep, ds[0]) for c, ds in self.class_pairs]

    @cached_property
    def derived_pairs(self) -> list[tuple[Subgroup, Subgroup]] | None:
        """(H, H') for every subgroup H, in lattice order."""
        if self.class_pairs is None:
            return None
        derived = {
            id(H): d for c, ds in self.class_pairs for H, d in zip(c.members, ds)
        }
        return [(H, derived[id(H)]) for H in self.lattice.subgroups]

    # A plain property over the cached `_ds`: perfbench/spans.py times DS(G)
    # by wrapping this property's fget.
    @property
    def ds(self) -> DerivedSet | None:
        return self._ds

    @cached_property
    def _ds(self) -> DerivedSet | None:
        if self.derived_pairs is None:
            return None
        return _derived_set(
            self.G, self.derived_pairs, (d for _, d in self.rep_pairs)
        )

    @cached_property
    def oracle(self) -> DcVerdict | None:
        """The verdict from DS(G), or None when the lattice is beyond the cap.

        An abelian group needs no lattice at any order: every derived
        subgroup is trivial, so DS(G) = {1}.
        """
        if self.abelian:
            return DcVerdict(True, "abelian-shortcut", ds_size=1)
        ds = self.ds
        if ds is None:
            return None
        return DcVerdict(
            ds.is_chain,
            "oracle",
            witness=ds.incomparable_witness,
            ds_size=len(ds.members),
        )

    @property
    def is_dc(self) -> bool | None:
        v = self.oracle
        return None if v is None else v.is_dc

    @cached_property
    def verdict(self) -> DcVerdict | None:
        """The oracle's verdict, else the lattice-free one, else None."""
        return self.oracle or is_dc_fast(self)

    @cached_property
    def derived(self) -> Subgroup:
        return derived_subgroup(self.G)

    @cached_property
    def dprime_abelian(self) -> bool:
        return _subgroup_is_abelian(self.G, self.derived)

    @cached_property
    def dprime_rank(self) -> int | None:
        """d(G'); None when G' is a proper subgroup that is not a p-group,
        or when the generator search for a perfect G runs out of budget."""
        try:
            return min_generators(self.G, self.derived)
        except (NotPGroup, SearchBudgetExceeded):
            return None

    @property
    def lcs(self) -> list[Subgroup]:
        return lower_central_series(self.G)

    @property
    def cl(self) -> int | None:
        return nilpotency_class(self.G)

    @cached_property
    def dl(self) -> int | None:
        return derived_length(self.G)

    @cached_property
    def center(self) -> Subgroup:
        return center(self.G)

    @cached_property
    def d(self) -> int | None:
        """Minimal generator count; None when the search budget runs out."""
        try:
            return min_generators(self.G)
        except SearchBudgetExceeded:
            return None

    @cached_property
    def exponent(self) -> int:
        return exponent(self.G)

    @cached_property
    def maximals(self) -> list[Subgroup] | None:
        if self.pn is not None:
            return pgroup_maximal_subgroups(self.G)
        if self.lattice is not None:
            return maximal_subgroups(self.G, self.lattice)
        return None

    @cached_property
    def fundamental(self) -> Subgroup:
        """C_G(K2/K4) of a maximal-class p-group of order at least p^4."""
        return fundamental_subgroup(self.G)

    @cached_property
    def witness_properties(self) -> dict[str, bool]:
        return witness_property_check(self)

    @cached_property
    def has_abelian_maximal(self) -> bool | None:
        ms = self.maximals
        if ms is None:
            return None
        return any(_subgroup_is_abelian(self.G, M) for M in ms)

    @cached_property
    def regular(self) -> bool | None:
        return is_regular(self.G)

    @cached_property
    def minimal_nonabelian(self) -> bool | None:
        if self.abelian:
            return False
        ms = self.maximals
        if ms is None:
            return None
        return all(_subgroup_is_abelian(self.G, M) for M in ms)

    @cached_property
    def _rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.G.order])

    def sample_pairs(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """All (x, y) pairs when small, a deterministic sample otherwise."""
        n = self.G.order
        if n <= EXHAUSTIVE_PAIR_CAP:
            ids = np.arange(n, dtype=np.int64)
            return np.repeat(ids, n), np.tile(ids, n)
        xs = self._rng.integers(0, n, count, dtype=np.int64)
        ys = self._rng.integers(0, n, count, dtype=np.int64)
        return xs, ys


def _comm_pairwise(G: FiniteGroup, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Elementwise [x, y] = x^-1 y^-1 x y."""
    a = G.mul_pairwise_vec(G.inv_vec(xs), G.inv_vec(ys))
    return G.mul_pairwise_vec(G.mul_pairwise_vec(a, xs), ys)


# -- individual claims ---------------------------------------------------------
# Each claim states a fact. `_claim` registers it in CLAIMS under its slug
# with its hypotheses in the order they are checked; the body runs only
# where all of them hold and returns (status, detail). Failure details
# carry concrete witnesses.

CLAIMS: list = []

Hypothesis = tuple[Callable[["GroupContext"], object], str]


def _guarded(slug: str, check: Callable[[], tuple[str, str]]) -> ClaimResult:
    """The claim's result from check(), which returns (status, detail).

    A check that raises anything but a DcgroupError is recorded as status
    `error` with detail "<ExceptionType>: <message>", so one buggy claim
    does not abort the run.
    """
    try:
        return ClaimResult(slug, *check())
    except DcgroupError:
        raise
    except Exception as e:
        return ClaimResult(slug, ERROR, f"{type(e).__name__}: {e}")


def _claim(slug: str, *hypotheses: Hypothesis):
    """Register a claim: skipped with the reason of the first hypothesis
    that does not hold, otherwise the body's (status, detail). A raising
    hypothesis or body is recorded as `_guarded` says.
    """

    def register(body):
        @wraps(body)
        def run(ctx: GroupContext) -> ClaimResult:
            def check():
                for holds, reason in hypotheses:
                    if not holds(ctx):
                        return SKIP, reason
                return body(ctx)

            return _guarded(slug, check)

        CLAIMS.append((slug, run))
        return run

    return register


_HAS_LATTICE: Hypothesis = (lambda c: c.lattice is not None, "lattice beyond cap")
_HAS_ORACLE: Hypothesis = (lambda c: c.is_dc is not None, "oracle beyond cap")
_IS_DC: Hypothesis = (lambda c: c.is_dc, "not a DC group")
_P_GROUP: Hypothesis = (lambda c: c.pn is not None, "not a p-group")
_THREE_GROUP: Hypothesis = (
    lambda c: c.pn is not None and c.pn[0] == 3, "not a 3-group"
)
_NONABELIAN_P: Hypothesis = (
    lambda c: c.pn is not None and not c.abelian, "needs a non-abelian p-group"
)
_VERIFIED_REGULAR: Hypothesis = (lambda c: c.regular is True, "not verified regular")


@_claim(
    "chain-implies-sublattice",
    _HAS_LATTICE,
    (lambda c: c.ds.is_chain, "DS is not a chain"),
)
def _claim_chain_implies_sublattice(ctx: GroupContext):
    v = is_sublattice(ctx.ds, ctx.lattice)
    if v.ok:
        return PASS, ""
    return FAIL, f"missing {v.op} of orders ({v.pair[0].order}, {v.pair[1].order})"


@_claim("dc-implies-solvable", _HAS_ORACLE, _IS_DC)
def _claim_dc_solvable(ctx: GroupContext):
    return _verdict(ctx.dl is not None, "derived series does not reach 1")


@_claim(
    "dc-sylow-split",
    _HAS_ORACLE,
    _IS_DC,
    (
        lambda c: c.pn is None and c.G.order != 1,
        "prime-power order is a trivial split",
    ),
    _HAS_LATTICE,
)
def _claim_dc_sylow_split(ctx: GroupContext):
    primes = list(prime_factors(ctx.G.order))
    for q in primes:
        split = sylow_decomposition(ctx.G, q, ctx.lattice)
        if split is not None and split.complement is not None and split.complement_abelian:
            return PASS, f"normal Sylow {q} with abelian complement"
    return FAIL, f"no prime in {primes} yields a split"


@_claim("dc-hereditary-subgroups", _HAS_ORACLE, _IS_DC, _HAS_LATTICE)
def _claim_dc_hereditary_subgroups(ctx: GroupContext):
    """DS(H^g) = DS(H)^g is a chain exactly when DS(H) is, so one H per
    class, its representative, is checked."""
    pairs = ctx.derived_pairs
    for H, _ in ctx.rep_pairs:
        # DS(H) = {S' : S <= H}; every S <= H is already in the lattice
        outside = ~H.bits
        sub = [(S, d) for S, d in pairs if not S.bits & outside]
        bad = _derived_set(ctx.G, sub).incomparable_witness
        if bad is not None:
            return FAIL, (
                f"subgroup of order {H.order} has incomparable derived "
                f"subgroups of orders {bad[0].order} and {bad[1].order}"
            )
    return PASS, ""


@_claim("dc-hereditary-quotients", _HAS_ORACLE, _IS_DC, _HAS_LATTICE)
def _claim_dc_hereditary_quotients(ctx: GroupContext):
    """The normal subgroups are the classes of one member."""
    normal = [c.rep for c in ctx.lattice.classes if len(c) == 1]
    for N in sorted(normal, key=Subgroup.sort_key):
        if N.order in (1, ctx.G.order):
            continue
        Q = QuotientGroup(ctx.G, [int(v) for v in N.ids()])
        if not GroupContext(Q, ctx.cap).is_dc:
            return FAIL, f"quotient by normal subgroup of order {N.order}"
    return PASS, ""


@_claim(
    "dc-small-prime-metabelian",
    (lambda c: c.pn is not None and c.pn[0] <= 3, "not a 2- or 3-group"),
    _HAS_ORACLE,
    _IS_DC,
)
def _claim_dc_small_p_metabelian(ctx: GroupContext):
    dl = ctx.dl
    return _verdict(dl is not None and dl <= 2, f"derived length {dl}")


@_claim("dc-lower-central-factors-cyclic", _NONABELIAN_P, _HAS_ORACLE, _IS_DC)
def _claim_dc_lcs_factors_cyclic(ctx: GroupContext):
    series = ctx.lcs
    for i in range(1, len(series) - 1):
        if not quotient_is_cyclic(ctx.G, series[i], series[i + 1]):
            return FAIL, f"factor at depth {i + 1} is not cyclic"
    return PASS, ""


@_claim(
    "dc-central-terms-inside-large-derived",
    _NONABELIAN_P,
    _HAS_ORACLE,
    _IS_DC,
    _HAS_LATTICE,
)
def _claim_dc_lcs_inside_derived(ctx: GroupContext):
    """The lower central terms K are normal, so K <= H' exactly when
    K <= (H^g)' = (H')^g: one H per class, its representative, is checked."""
    terms = [K for K in ctx.lcs[1:] if K.order > 1]
    for H, Hp in ctx.rep_pairs:
        for K in terms:
            if K.order <= Hp.order and not K.issubset(Hp):
                return FAIL, (
                    f"term of order {K.order} not inside derived subgroup of "
                    f"order {Hp.order} (subgroup order {H.order})"
                )
    return PASS, ""


@_claim("dc-derived-center-intersection-cyclic", _NONABELIAN_P, _HAS_ORACLE, _IS_DC)
def _claim_dc_gprime_center_cyclic(ctx: GroupContext):
    if ctx.dprime_rank != 2:
        return SKIP, f"derived subgroup rank is {ctx.dprime_rank}, not 2"
    I = meet(ctx.derived, ctx.center)
    return _verdict(is_cyclic(ctx.G, I), f"intersection of order {I.order}")


@_claim(
    "dc-derived-center-is-last-term",
    _NONABELIAN_P,
    _HAS_ORACLE,
    _IS_DC,
    (
        lambda c: exponent(c.G, c.derived) == c.pn[0],
        "derived subgroup exponent exceeds p",
    ),
)
def _claim_dc_gprime_center_last_term(ctx: GroupContext):
    p = ctx.pn[0]
    I = meet(ctx.derived, ctx.center)
    K_last = ctx.lcs[ctx.cl - 1] if ctx.cl else trivial_subgroup(ctx.G)
    ok = I.order == p and I == K_last
    return _verdict(ok, f"intersection order {I.order}, last term order {K_last.order}")


@_claim(
    "dc-regular-derived-rank-bound",
    (
        lambda c: c.pn is not None and not c.abelian and c.pn[0] != 2,
        "needs a non-abelian odd p-group",
    ),
    _HAS_ORACLE,
    _IS_DC,
    _VERIFIED_REGULAR,
)
def _claim_dc_regular_rank_bound(ctx: GroupContext):
    p = ctx.pn[0]
    return _verdict(ctx.dprime_rank <= p - 2, f"rank {ctx.dprime_rank} exceeds {p - 2}")


@_claim(
    "dc-abelian-maximal-derived-rank-bound",
    _NONABELIAN_P,
    _HAS_ORACLE,
    _IS_DC,
    (lambda c: c.has_abelian_maximal is True, "no abelian maximal subgroup"),
)
def _claim_dc_abelian_maximal_rank_bound(ctx: GroupContext):
    p = ctx.pn[0]
    return _verdict(ctx.dprime_rank <= p - 1, f"rank {ctx.dprime_rank} exceeds {p - 1}")


@_claim("dc-derived-rank-at-most-p", _NONABELIAN_P, _HAS_ORACLE, _IS_DC)
def _claim_dc_derived_rank_bound(ctx: GroupContext):
    p = ctx.pn[0]
    return _verdict(ctx.dprime_rank <= p, f"rank {ctx.dprime_rank} exceeds {p}")


@_claim("dc-derived-rank-p-forces-elementary", _NONABELIAN_P, _HAS_ORACLE, _IS_DC)
def _claim_dc_derived_rank_p_elementary(ctx: GroupContext):
    p = ctx.pn[0]
    if ctx.dprime_rank != p:
        return SKIP, f"derived rank {ctx.dprime_rank} != {p}"
    if not ctx.dprime_abelian:
        return FAIL, "derived subgroup is non-abelian"
    at = abelian_type(ctx.G, ctx.derived)
    return _verdict(at == [p] * p, f"abelian type {at}")


@_claim("dc-derived-power-index-bound", _NONABELIAN_P, _HAS_ORACLE, _IS_DC)
def _claim_dc_derived_power_index_bound(ctx: GroupContext):
    p = ctx.pn[0]
    G = ctx.G
    powered = G.p_power_vec(ctx.derived.ids())
    span = closure(G, _pick_generators(G, powered))
    index = ctx.derived.order // span.order
    return _verdict(index <= p**p, f"index {index} exceeds p^p = {p**p}")


@_claim(
    "two-group-criterion-matches-oracle",
    (lambda c: c.pn is not None and c.pn[0] == 2, "not a 2-group"),
    _HAS_ORACLE,
)
def _claim_two_group_characterization(ctx: GroupContext):
    pred = dc_2group_predicate(ctx)
    return _verdict(
        pred == ctx.is_dc, f"criterion says {pred}, oracle says {ctx.is_dc}"
    )


@_claim("sufficient-conditions-sound", _NONABELIAN_P, _HAS_ORACLE)
def _claim_sufficiency_sound(ctx: GroupContext):
    conds = dc_sufficient_conditions(ctx)
    if not conds:
        return SKIP, "no sufficient condition fires"
    return _verdict(
        ctx.is_dc, f"conditions {sorted(conds)} fired but the oracle says False"
    )


@_claim(
    "maximal-class-3groups-are-dc",
    _THREE_GROUP,
    (
        lambda c: c.pn[1] >= 5 and c.cl == c.pn[1] - 1,
        "not maximal class of order >= 3^5",
    ),
    _HAS_ORACLE,
)
def _claim_maxclass_3group_dc(ctx: GroupContext):
    return _verdict(ctx.is_dc, "oracle says False")


@_claim(
    "minimal-nonabelian-derived-order",
    (
        lambda c: c.minimal_nonabelian is not None,
        "maximal subgroups unavailable beyond cap",
    ),
    (lambda c: c.minimal_nonabelian, "not minimal non-abelian"),
)
def _claim_minimal_nonabelian_derived(ctx: GroupContext):
    dp = ctx.derived
    if ctx.pn is not None:
        return _verdict(dp.order == ctx.pn[0], f"derived order {dp.order}")
    return _verdict(
        prime_power(dp.order) is not None,
        f"derived order {dp.order} is not a prime power",
    )


@_claim("single-commutator-image", _P_GROUP)
def _claim_commutator_image(ctx: GroupContext):
    G = ctx.G
    if G.order > COMMUTATOR_IMAGE_CAP:
        return SKIP, f"order {G.order} beyond search cap {COMMUTATOR_IMAGE_CAP}"
    dp = ctx.derived
    if dp.order == 1:
        return PASS, "abelian; image of the identity"
    rank = ctx.dprime_rank
    if rank > 2:
        return SKIP, f"derived subgroup needs {rank} generators"
    want = dp.ids()
    ids = G.all_ids()
    for x in range(G.order):
        img = np.unique(_commutator_with_all(G, x, ids))
        if img.size == want.size and bool((img == want).all()):
            return PASS, f"element {x}"
    return FAIL, "no single element covers the derived subgroup"


@_claim(
    "metabelian-power-commutator-formula",
    (lambda c: not c.abelian and c.dl == 2, "needs derived length exactly 2"),
)
def _claim_metabelian_power_formula(ctx: GroupContext):
    G = ctx.G
    xs, ys = ctx.sample_pairs(SAMPLED_PAIRS)
    ns = [2, 3]
    if ctx.pn is not None and ctx.pn[0] not in ns:
        ns.append(ctx.pn[0])
    for n in ns:
        lhs = _comm_pairwise(G, G.pow_vec(xs, n), ys)
        acc = np.zeros(len(xs), dtype=np.int64)
        c = _comm_pairwise(G, xs, ys)
        for i in range(1, n + 1):
            acc = G.mul_pairwise_vec(acc, G.pow_vec(c, comb(n, i)))
            if i < n:
                c = _comm_pairwise(G, c, xs)
        bad = np.nonzero(lhs != acc)[0]
        if bad.size:
            k = int(bad[0])
            return FAIL, (
                f"n={n}, x={int(xs[k])}, y={int(ys[k])}: "
                f"{int(lhs[k])} != {int(acc[k])}"
            )
    mode = "exhaustive" if G.order <= EXHAUSTIVE_PAIR_CAP else f"{len(xs)} sampled"
    return PASS, f"{mode} pairs, n in {ns}"


@_claim(
    "twogen-metabelian-p-abelian-iff",
    _NONABELIAN_P,
    (lambda c: c.d == 2 and c.dl == 2, "needs a 2-generated metabelian group"),
)
def _claim_twogen_metabelian_p_abelian_iff(ctx: GroupContext):
    pa = is_p_abelian(ctx.G)
    if pa is None:
        return SKIP, f"order beyond the {REGULARITY_CAP} definitional cap"
    p = ctx.pn[0]
    rhs = exponent(ctx.G, ctx.derived) <= p and (ctx.cl or 0) < p
    return _verdict(pa == rhs, f"p-abelian={pa} but exp/class side={rhs}")


@_claim(
    "twogen-group-twogen-derived-abelian",
    _NONABELIAN_P,
    (
        lambda c: c.d <= 2 and (c.dprime_rank or 0) <= 2,
        "group or derived subgroup needs >2 generators",
    ),
)
def _claim_twogen_derived_twogen_abelian(ctx: GroupContext):
    return _verdict(ctx.dprime_abelian, "derived subgroup is non-abelian")


@_claim("lower-central-factor-exponents-descend", _NONABELIAN_P)
def _claim_lcs_exponent_monotone(ctx: GroupContext):
    series = ctx.lcs
    exps = [
        quotient_exponent(ctx.G, series[i], series[i + 1])
        for i in range(len(series) - 1)
    ]
    for i in range(1, len(exps)):
        if exps[i] > exps[i - 1]:
            return FAIL, f"factor exponents {exps}"
    return PASS, f"factor exponents {exps}"


@_claim(
    "class-below-p-forces-regular",
    _P_GROUP,
    (lambda c: (c.cl or 0) < c.pn[0], "class is at least p"),
    (
        lambda c: c.G.order <= REGULARITY_CAP,
        "order beyond the definitional regularity cap",
    ),
)
def _claim_class_lt_p_regular(ctx: GroupContext):
    return _verdict(ctx.regular is True, "definitional test failed")


@_claim("regular-power-commutator-iff", _NONABELIAN_P, _VERIFIED_REGULAR)
def _claim_regular_power_bracket(ctx: GroupContext):
    G = ctx.G
    xs, ys = ctx.sample_pairs(2000)
    base = _comm_pairwise(G, xs, ys)
    for k, n in ((0, 1), (1, 0), (1, 1), (2, 0)):
        lhs = _comm_pairwise(G, G.p_power_vec(xs, k), G.p_power_vec(ys, n)) == 0
        rhs = G.p_power_vec(base, k + n) == 0
        bad = np.nonzero(lhs != rhs)[0]
        if bad.size:
            i = int(bad[0])
            return FAIL, f"k={k}, n={n}, x={int(xs[i])}, y={int(ys[i])}"
    return PASS, ""


@_claim(
    "series-match-when-derived-factors",
    (
        lambda c: c.cl is not None and not c.abelian,
        "needs a non-abelian nilpotent group",
    ),
    _HAS_LATTICE,
)
def _claim_lcs_match_when_derived_factors(ctx: GroupContext):
    """K3 and the lower central terms of G are normal, so both the
    hypothesis H'K3 = G' and each comparison of a term of H with G's hold
    for H^g exactly when they hold for H: one H per class, its
    representative, is checked."""
    series = ctx.lcs
    K3 = series[2] if len(series) > 2 else trivial_subgroup(ctx.G)
    target = ctx.derived
    for H, Hp in ctx.rep_pairs:
        merged = join(Hp, K3) if K3.order > 1 else Hp
        if merged != target:
            continue
        sub_series = lower_central_series(ctx.G, H)
        for i in range(1, max(len(series), len(sub_series))):
            KG = series[i] if i < len(series) else trivial_subgroup(ctx.G)
            KH = sub_series[i] if i < len(sub_series) else trivial_subgroup(ctx.G)
            if KG != KH:
                return FAIL, (
                    f"subgroup of order {H.order}: term {i + 1} differs "
                    f"({KG.order} vs {KH.order})"
                )
    return PASS, ""


@_claim(
    "twogen-abelian-maximal-center-intersection",
    _NONABELIAN_P,
    (
        lambda c: c.d == 2 and c.has_abelian_maximal is True,
        "needs d=2 and an abelian maximal subgroup",
    ),
)
def _claim_twogen_abelian_maximal_center(ctx: GroupContext):
    p = ctx.pn[0]
    I = meet(ctx.derived, ctx.center)
    K_last = ctx.lcs[ctx.cl - 1]
    ok = I == K_last and I.order == p
    return _verdict(ok, f"intersection order {I.order}, last term order {K_last.order}")


@_claim(
    "maximal-class-3group-fundamental-subgroup",
    _THREE_GROUP,
    (
        lambda c: c.pn[1] >= 4 and c.cl == c.pn[1] - 1,
        "not maximal class of order >= 3^4",
    ),
)
def _claim_maxclass_3group_fundamental(ctx: GroupContext):
    G1 = ctx.fundamental
    if _subgroup_is_abelian(ctx.G, G1):
        return PASS, "fundamental subgroup abelian"
    return _verdict(
        all(_subgroup_is_abelian(ctx.G, M) for M in pgroup_maximal_subgroups(ctx.G, G1)),
        "fundamental subgroup neither abelian nor minimal non-abelian",
    )


@_claim(
    "maximal-class-other-maximals-maximal-class",
    (lambda c: c.pn is not None and c.pn[0] != 2, "needs an odd p-group"),
)
def _claim_maxclass_nonfundamental_maximals(ctx: GroupContext):
    p, n = ctx.pn
    if n < p + 2 or ctx.cl != n - 1:
        return SKIP, f"needs maximal class with n >= p+2 = {p + 2}"
    G1 = ctx.fundamental
    for M in ctx.maximals:
        if M == G1:
            continue
        cl_m = nilpotency_class(ctx.G, M)
        if cl_m != n - 2:
            return FAIL, (
                f"maximal subgroup besides the fundamental one has class {cl_m}, "
                f"wanted {n - 2}"
            )
    return PASS, ""


@_claim(
    "large-witness-property-bundle",
    (
        lambda c: c.pn is not None and c.pn[0] >= 5 and c.pn[1] == 7,
        "order is not p^7 with p >= 5",
    ),
    # the bundle describes the paper's examples, whose G' is not abelian
    (lambda c: not c.dprime_abelian, "derived subgroup is abelian"),
)
def _claim_p7_witness_properties(ctx: GroupContext):
    props = ctx.witness_properties
    bad = sorted(k for k, v in props.items() if not v)
    return _verdict(not bad, f"failed properties: {bad}")


def census_claims(ctx: GroupContext) -> list[ClaimResult]:
    """Run every registered claim against one group's context."""
    return [fn(ctx) for _, fn in CLAIMS]


# -- product-pair claims -------------------------------------------------------


def auto_pairs(
    entries: Sequence[tuple[str, int, bool, int | None]],
) -> list[tuple[str, str]]:
    """Deterministic (G, A) id pairs for the product claims.

    Entries are (id, order, abelian, p) rows; G ranges over non-abelian
    p-groups of order at most PAIR_LEFT_CAP, A over p-groups for the same
    prime with |G||A| <= PAIR_PRODUCT_CAP. Pairs come out ordered by id and
    truncated to PAIR_LIMIT. The product bound stays small because
    the claims run the subgroup-lattice oracle on G x A, whose cost grows
    with the subgroup count, not the order.
    """
    info = {gid: (order, ab, p) for gid, order, ab, p in entries}
    lefts = sorted(
        gid
        for gid, order, ab, p in entries
        if not ab and p is not None and order <= PAIR_LEFT_CAP
    )
    rights = sorted(gid for gid, _, _, p in entries if p is not None)
    out: list[tuple[str, str]] = []
    for gid in lefts:
        for aid in rights:
            og, _, pg = info[gid]
            oa, _, pa = info[aid]
            if pg != pa or og * oa > PAIR_PRODUCT_CAP:
                continue
            out.append((gid, aid))
            if len(out) >= PAIR_LIMIT:
                return out
    return out


def pair_claims(
    G: FiniteGroup, A: FiniteGroup, lattice_cap: int = LATTICE_CAP
) -> list[ClaimResult]:
    """Product claims for one (G, A) pair of same-prime p-groups.

    Direct: G x A is DC iff G is DC and A is abelian.
    Central (abelian A sharing a prime-order central element): the glued
    product is DC iff G is.
    Each claim is recorded as `_guarded` says, so a raising one is an
    `error` for that claim alone.
    """
    from .constructors import central_product, direct_product

    left = GroupContext(G, lattice_cap)

    def direct():
        if left.is_dc is None:
            return SKIP, "left factor lattice beyond cap"
        want = left.is_dc and A.is_abelian
        got = GroupContext(direct_product(G, A), lattice_cap).is_dc
        if got is None:
            return SKIP, "product lattice beyond cap"
        return _verdict(got == want, f"product verdict {got}, factors say {want}")

    def central():
        if left.is_dc is None:
            return SKIP, "left factor lattice beyond cap"
        if not A.is_abelian:
            return SKIP, "right factor is not abelian"
        p = left.pn[0]
        za = _central_element_of_order(G, p)
        zb = _central_element_of_order(A, p)
        if za is None or zb is None:
            return SKIP, f"no central element of order {p} on both sides"
        got = GroupContext(central_product(G, A, [(za, zb)]), lattice_cap).is_dc
        if got is None:
            return SKIP, "product lattice beyond cap"
        return _verdict(got == left.is_dc, f"glued verdict {got}, left factor {left.is_dc}")

    return [
        _guarded("direct-product-dc-iff", direct),
        _guarded("central-product-dc-iff", central),
    ]


def _central_element_of_order(G: FiniteGroup, p: int) -> int | None:
    z = center(G)
    orders = G.element_orders()[z.ids()]
    hits = z.ids()[orders == p]
    return int(hits.min()) if hits.size else None


# -- corpus census --------------------------------------------------------------


def corpus_notes(
    rows: Sequence[tuple[str, int | None, int | None, int | None]]
) -> dict[str, str]:
    """Corpus-level observations the census must record explicitly.

    Rows are (id, p, n, cl) with p and n from the prime-power order and cl
    the nilpotency class; non-p-groups pass None entries.
    """
    tall_maxclass = [
        gid
        for gid, p, n, cl in rows
        if p == 3 and n is not None and n >= 5 and cl == n - 1
    ]
    return {
        "maximal-class-3group-order-3^5+": (
            "present: " + ", ".join(sorted(tall_maxclass))
            if tall_maxclass
            else "no corpus member"
        )
    }
