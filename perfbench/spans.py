"""Spans around the public calls into each dcgroup module.

`Tracer.install()` wraps, at run time and from outside the package:

  - every function named in a module's `__all__`, at every `dcgroup` module
    binding that refers to it, so calls through `from .x import f` are caught;
  - the `QuotientGroup` constructor and the `element_orders`, `flat_table`,
    `mul_pairwise_vec` and `left_mul_table` methods of every class that
    defines them;
  - the `GroupContext.ds` property, each entry of `dc.CLAIMS`, and
    `cli._census_one`, which is one census group.

`Tracer.install()` refuses, and leaves nothing patched, when a span a
metric is read from (`REQUIRED`) found nothing to wrap: a renamed, moved
or unexported function would otherwise read as 0, a 100% gain.
`Tracer.remove()` puts every original back. Spans stay in memory, in
arrays the garbage collector does not scan (a list per span made traced
calls up to 25% slower as spans piled up), and are summarized by
`layer_metrics`. A span's name is the metric it feeds; its module is the
one whose code runs, which gets the span's self time. So `pc.PcGroup`'s
`flat_table` feeds `core.flat_table.s`, the cost of that interface method
over every group type, and its self time goes to `pc.self_s`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import weakref
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "constructors", "pc", "core", "lattice", "structure", "dc")

# Group methods traced, with the module whose metrics they feed.
METHODS = {"element_orders": "core", "flat_table": "core",
           "mul_pairwise_vec": "core", "left_mul_table": "pc"}

# Spans reported as inclusive time (<span>.s) and as call counts (<span>.calls).
INCLUSIVE = (
    "lattice.all_subgroups", "structure.pgroup_maximal_subgroups",
    "structure.min_generators", "structure.quotient_exponent",
    "structure.is_regular", "core.QuotientGroup", "core.element_orders",
    "core.flat_table", "pc.realize_pc_group", "pc.check_consistency",
    "dc.ds", "dc.is_sublattice", "dc.is_dc_fast", "dc.pair_claims",
    "cli.parse_group_spec", "cli.realize_spec",
)
CALLS = (
    "lattice.all_subgroups", "lattice.closure", "lattice.normal_closure",
    "structure.pgroup_maximal_subgroups", "structure.derived_subgroup",
    "core.QuotientGroup", "core.element_orders", "pc.left_mul_table",
    "pc.collect", "dc.witness_property_check",
)

# Spans read by run.py's census metrics.
CENSUS_SPANS = ("cli._census_one", "cli.run_analyze", "cli.run_census")

REQUIRED = frozenset((*INCLUSIVE, *CALLS, *CENSUS_SPANS,
                      *(f"{layer}.{meth}" for meth, layer in METHODS.items())))


def _package():
    return {name: sys.modules[f"dcgroup.{name}"] for name in MODULES}


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self):
        # Span i is labels[label[i]] = (name, module), with its parent span
        # index (-1 for none) and its start and end times.
        self.labels: list[tuple[str, str]] = []
        self._label_ids: dict[tuple[str, str], int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()
        self._ds_seen: weakref.WeakSet = weakref.WeakSet()

    # -- recording ----------------------------------------------------------------

    def add(self, name: str, module: str, parent: int, start: float,
            end: float = 0.0) -> int:
        """Record one span; returns its index."""
        key = (name, module)
        if key not in self._label_ids:
            self._label_ids[key] = len(self.labels)
            self.labels.append(key)
        self.label.append(self._label_ids[key])
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def spans(self):
        """(name, module, parent, start, end) of every span."""
        for k, parent, t0, t1 in zip(self.label, self.parent, self.start, self.end):
            yield (*self.labels[k], parent, t0, t1)

    def _wrap(self, span: str, fn, after=None, module: str | None = None):
        add, end, stack = self.add, self.end, self._stack
        module = module or span.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = add(span, module, stack[-1] if stack else -1, perf_counter())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped_by_tracer__ = fn
        return wrapper

    def _patch(self, owner, attr: str, new, span: str) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)
        self.installed.add(span)

    # -- hooks that count work ----------------------------------------------------

    def _count_lattice(self, args, lat) -> None:
        self.counters["lattice.subgroups"] += len(lat.subgroups)

    def _count_pairwise(self, args, result) -> None:
        self.counters["core.mul_pairwise_vec.elements"] += len(result)

    def _count_ds(self, args, ds) -> None:
        ctx = args[0]
        if ds is not None and ctx not in self._ds_seen:
            self._ds_seen.add(ctx)
            self.counters["dc.ds_size"] += len(ds.members)

    # -- install / remove ---------------------------------------------------------

    def install(self) -> None:
        """Install every wrapper; on any failure, remove them all and raise."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
            missing = sorted(REQUIRED - self.installed)
            if missing:
                raise RuntimeError(f"nothing to wrap for spans {missing}")
            if not self._claims:
                raise RuntimeError("dc.CLAIMS is empty")
        except BaseException:
            self.remove()
            raise

    def _install(self) -> None:
        mods = _package()
        bindings = [sys.modules["dcgroup"], *mods.values()]
        after = {"lattice.all_subgroups": self._count_lattice}

        for name, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = mod.__dict__.get(attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                span = f"{name}.{attr}"
                wrapped = self._wrap(span, fn, after.get(span))
                for holder in bindings:
                    if holder.__dict__.get(attr) is fn:
                        self._patch(holder, attr, wrapped, span)

        cli, core, dc = mods["cli"], mods["core"], mods["dc"]
        self._patch(cli, "_census_one",
                    self._wrap("cli._census_one", cli._census_one),
                    "cli._census_one")
        self._patch(core.QuotientGroup, "__init__",
                    self._wrap("core.QuotientGroup", core.QuotientGroup.__init__),
                    "core.QuotientGroup")
        for name, mod in mods.items():
            for cls in vars(mod).values():
                if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                    continue
                for meth, layer in METHODS.items():
                    if meth in cls.__dict__:
                        hook = (self._count_pairwise
                                if meth == "mul_pairwise_vec" else None)
                        span = f"{layer}.{meth}"
                        self._patch(cls, meth,
                                    self._wrap(span, cls.__dict__[meth], hook, name),
                                    span)
        ds = dc.GroupContext.__dict__["ds"]
        self._patch(dc.GroupContext, "ds",
                    property(self._wrap("dc.ds", ds.fget, self._count_ds)), "dc.ds")
        self._claims = list(dc.CLAIMS)
        dc.CLAIMS[:] = [(slug, self._wrap(f"dc.claim.{slug}", fn))
                        for slug, fn in self._claims]

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.installed.clear()
        if hasattr(self, "_claims"):
            sys.modules["dcgroup.dc"].CLAIMS[:] = self._claims
            del self._claims

    # -- summary --------------------------------------------------------------------

    def layer_metrics(self, claim_slugs) -> dict[str, float]:
        """Per-layer metrics from the recorded spans.

        A module's self time is each of its spans' duration minus the
        durations of its direct child spans. Inclusive time counts only the
        outermost span of a name, so recursion is not counted twice.
        """
        parents, labels = self.parent, self.label
        child_time = [0.0] * len(parents)
        for _, _, parent, t0, t1 in self.spans():
            if parent >= 0:
                child_time[parent] += t1 - t0

        self_s: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, module, parent, t0, t1) in enumerate(self.spans()):
            self_s[module] += (t1 - t0) - child_time[i]
            calls[name] += 1
            p = parent
            while p >= 0 and self.labels[labels[p]][0] != name:
                p = parents[p]
            if p < 0:
                incl[name] += t1 - t0

        out: dict[str, float] = {}
        for mod in MODULES:
            out[f"{mod}.self_s"] = self_s[mod]
        for name in INCLUSIVE:
            out[f"{name}.s"] = incl[name]
        for name in CALLS:
            out[f"{name}.calls"] = calls[name]
        for key in ("lattice.subgroups", "core.mul_pairwise_vec.elements",
                    "dc.ds_size"):
            out[key] = self.counters[key]
        for slug in claim_slugs:
            out[f"dc.claim.{slug}.s"] = incl[f"dc.claim.{slug}"]
        return out

    def durations(self, span: str) -> list[float]:
        return [t1 - t0 for name, _, _, t0, t1 in self.spans() if name == span]

    def ends(self, span: str) -> list[float]:
        return [t1 for name, _, _, _, t1 in self.spans() if name == span]


def patched_bindings() -> list[str]:
    """Every dcgroup binding that still holds a tracer wrapper."""
    found = []
    mods = [sys.modules["dcgroup"], *_package().values()]
    for mod in mods:
        for attr, val in vars(mod).items():
            if hasattr(val, "__wrapped_by_tracer__"):
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                for meth, member in vars(val).items():
                    fn = member.fget if isinstance(member, property) else member
                    if hasattr(fn, "__wrapped_by_tracer__"):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
        if mod.__name__ == "dcgroup.dc":
            for slug, fn in mod.CLAIMS:
                if hasattr(fn, "__wrapped_by_tracer__"):
                    found.append(f"dcgroup.dc.CLAIMS[{slug}]")
    return found
