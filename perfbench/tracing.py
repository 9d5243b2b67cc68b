"""The traced run: spans and counters around the calls into each layer.

`Tracer.install()` wraps the listed functions of each `windex` module, on
that module and on every other `windex.*` module that imported them by name,
and the listed methods on their classes.  Spans (name, start, end, parent,
task) stay in memory; `uninstall()` puts every original back.  The hot
`OrbitalPresentation` methods and `WeakIndexingSystem.member` get counters
only, because a span per call would cost more than the call.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# module -> {function name: span name}
FUNCTION_SPANS = {
    "windex.presentation": {
        "chain_group": "presentation.build",
        "finite_group": "presentation.build",
        "cyclic_group": "presentation.build",
        "trivial_point": "presentation.build",
        "one_object_groupoid": "presentation.build",
        "build_presentation": "presentation.build",
    },
    "windex.systems": {
        "saturate": "systems.saturate",
        "join": "systems.join",
        "leq": "systems.leq",
        "meet": "systems.meet",
        "sparse_extract": "systems.sparse_extract",
        "validate_wic": "systems.validate_wic",
        "multiplicative_hull": "systems.multiplicative_hull",
    },
    "windex.enumeration": {
        "enumerate_systems": "enumeration.enumerate_systems",
        "_level_ok": "enumeration.level_ok",
        "_label_library": "enumeration.label_library",
        "system_label": "enumeration.system_label",
        "enumerate_systems_fiberwise": "enumeration.enumerate_systems_fiberwise",
        "system_poset": "enumeration.system_poset",
    },
    "windex.fibrations": {
        "minimal_unital": "fibrations.minimal_unital",
        "cocartesian_transport": "fibrations.cocartesian_transport",
        "fold_right": "fibrations.fold_right",
        "enumerate_transfer_systems": "fibrations.enumerate_transfer_systems",
        "transfer_of": "fibrations.transfer_of",
    },
    "windex.sieves": {
        "fiber_systems": "sieves.fiber_systems",
        "enumerate_sieves": "sieves.enumerate_sieves",
        "sieve_of": "sieves.sieve_of",
    },
    "windex.serialize": {
        "dumps": "serialize.dumps",
        "load": "serialize.load",
    },
    "windex.reps": {"arity_support": "reps.arity_support"},
    "windex.gsets": {"indexed_product": "gsets.indexed_product"},
}

# module -> {function name: counter name}
FUNCTION_COUNTS = {"windex.reps": {"embeds": "reps.embeds.calls"}}

# (module, class) -> {method name: span name}
METHOD_SPANS = {
    ("windex.poset", "Poset"): {
        "__init__": "poset.init",
        "covers": "poset.covers",
        "isomorphic": "poset.isomorphic",
    },
    ("windex.systems", "WeakIndexingSystem"): {
        "from_sparse": "systems.from_sparse",
    },
}

# (module, class) -> {method name: counter name}
METHOD_COUNTS = {
    ("windex.systems", "WeakIndexingSystem"): {"member": "systems.member.calls"},
    ("windex.presentation", "OrbitalPresentation"): {
        "points": "presentation.points.calls",
        "restrict": "presentation.restrict.calls",
        "induct_vset": "presentation.induct_vset.calls",
    },
}

LAYER_MODULES = sorted({m for m in FUNCTION_SPANS} | {m for m in FUNCTION_COUNTS}
                       | {m for m, _ in METHOD_SPANS} | {m for m, _ in METHOD_COUNTS})


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, task)
        self.counts = Counter()
        self.task = None
        self._stack = []
        self._restore = []       # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.task)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- installing -------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(name) for name in LAYER_MODULES}
        windex_modules = [m for name, m in sorted(sys.modules.items())
                          if m is not None
                          and (name == "windex" or name.startswith("windex."))]
        for mod_name, table in FUNCTION_SPANS.items():
            for attr, span in table.items():
                fn = getattr(modules[mod_name], attr)
                self._replace_everywhere(
                    windex_modules, fn, self._span(span, fn, _AFTER.get(span)))
        for mod_name, table in FUNCTION_COUNTS.items():
            for attr, counter in table.items():
                fn = getattr(modules[mod_name], attr)
                self._replace_everywhere(windex_modules, fn, self._counter(counter, fn))
        for (mod_name, cls_name), table in METHOD_SPANS.items():
            cls = getattr(modules[mod_name], cls_name)
            for attr, span in table.items():
                def make(fn, span=span):
                    if span == "poset.init":
                        fn = _counting_leq(self, fn)
                    return self._span(span, fn, _AFTER.get(span))
                self._wrap_method(cls, attr, make)
        for (mod_name, cls_name), table in METHOD_COUNTS.items():
            cls = getattr(modules[mod_name], cls_name)
            for attr, counter in table.items():
                self._wrap_method(cls, attr, lambda fn, c=counter: self._counter(c, fn))

    def _replace_everywhere(self, modules, fn, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _wrap_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        self._restore.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def dump(self):
        """The recorded spans and counters, as plain JSON data."""
        return {"spans": [list(s) for s in self.spans],
                "counts": dict(self.counts)}


def _counting_leq(tracer, init):
    """Poset.__init__ with its order callable counted, one per evaluation."""

    @functools.wraps(init)
    def wrapped(self, elements, leq, *args, **kwargs):
        counts = tracer.counts

        def counted(a, b):
            counts["poset.leq_evals"] += 1
            return leq(a, b)

        return init(self, elements, counted, *args, **kwargs)

    return wrapped


def _after_saturate(tracer, args, kwargs, result):
    if result is None:
        tracer.counts["systems.saturate.escaped"] += 1
    else:
        tracer.counts["systems.saturate.members"] += sum(len(m) for m in result.values())


def _after_level_ok(tracer, args, kwargs, result):
    if result:
        tracer.counts["enumeration.level_ok.passed"] += 1


def _after_enumerate(tracer, args, kwargs, result):
    tracer.counts["enumeration.enumerate_systems.out"] += len(result)


def _after_transfer_systems(tracer, args, kwargs, result):
    tracer.counts["fibrations.enumerate_transfer_systems.out"] += len(result)


def _after_dumps(tracer, args, kwargs, result):
    tracer.counts["serialize.bytes"] += len(result.encode())


_AFTER = {
    "systems.saturate": _after_saturate,
    "enumeration.level_ok": _after_level_ok,
    "enumeration.enumerate_systems": _after_enumerate,
    "fibrations.enumerate_transfer_systems": _after_transfer_systems,
    "serialize.dumps": _after_dumps,
}


# -- from spans to layer metrics ---------------------------------------------

# The per-layer metrics read off the spans and counters.
SELF_S = (
    "presentation.build", "systems.saturate", "systems.join", "systems.leq",
    "systems.meet", "systems.from_sparse", "systems.sparse_extract",
    "systems.validate_wic", "systems.multiplicative_hull",
    "enumeration.enumerate_systems", "enumeration.level_ok",
    "enumeration.system_label", "enumeration.enumerate_systems_fiberwise",
    "enumeration.system_poset", "fibrations.enumerate_transfer_systems",
    "fibrations.transfer_of", "sieves.fiber_systems", "sieves.enumerate_sieves",
    "sieves.sieve_of", "poset.init", "poset.covers", "poset.isomorphic",
    "serialize.dumps", "serialize.load", "reps.arity_support",
    "gsets.indexed_product",
)
CALLS = (
    "systems.saturate", "systems.join", "systems.leq", "enumeration.level_ok",
    "enumeration.label_library", "fibrations.minimal_unital",
    "sieves.fiber_systems", "gsets.indexed_product",
)
TOTAL_S = (
    "enumeration.label_library", "fibrations.minimal_unital",
    "fibrations.cocartesian_transport", "fibrations.fold_right",
)
COUNTERS = (
    "presentation.points.calls", "presentation.restrict.calls",
    "presentation.induct_vset.calls", "systems.member.calls",
    "systems.saturate.escaped", "systems.saturate.members",
    "fibrations.enumerate_transfer_systems.out", "poset.leq_evals",
    "serialize.bytes", "reps.embeds.calls",
)
RATIOS = ("enumeration.level_ok.pass_ratio", "enumeration.certify_yield")


def layer_metric_names():
    return ([f"{n}.self_s" for n in SELF_S] + [f"{n}.calls" for n in CALLS]
            + [f"{n}.total_s" for n in TOTAL_S] + list(COUNTERS) + list(RATIOS)
            + ["cli.startup_s"])


def select(spans, keep):
    """The spans for which `keep(span)` holds, with parent indices remapped
    (a parent that is dropped becomes -1)."""
    new_index = {}
    out = []
    for i, sp in enumerate(spans):
        if sp is not None and keep(sp):
            new_index[i] = len(out)
            out.append(sp)
    return [(n, a, b, new_index.get(p, -1), t) for n, a, b, p, t in out]


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    `spans` are (name, start, end, parent index, task) tuples; children are
    the spans whose parent index points at the span.  Overlapping children
    are merged first, and each child is clipped to its parent's interval.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def aggregate(spans):
    """Per span name: calls, summed self time, and total time (duration of
    the calls not nested inside another call of the same name)."""
    selfs = self_times(spans)
    agg = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for i, s in enumerate(spans):
        name = s[0]
        a = agg[name]
        a["calls"] += 1
        a["self_s"] += selfs[i]
        p = s[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            a["total_s"] += s[2] - s[1]
    return dict(agg)


def count_under(spans, name, ancestor):
    """How many spans called `name` have an ancestor called `ancestor`."""
    n = 0
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0:
            if spans[p][0] == ancestor:
                n += 1
                break
            p = spans[p][3]
    return n
