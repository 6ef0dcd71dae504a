"""Per-layer tracing of the figulat package, installed from outside it.

`install()` wraps the public functions of the five layers (`cli`,
`verifier`, `facets`, `lattice`, `combinatorics`) and rebinds each wrapper
in every figulat module that holds the original, because `cli`, `verifier`
and `lattice` import names with `from ... import`. The package itself is
not modified. `Tracer.snapshot()` returns the raw counters as JSON-ready
data and `layer_metrics()` turns summed snapshots into the named metrics.

Rules the wrappers keep:

- A timed call is a span of its own layer. A layer's self time is the
  time of its spans minus the time of the spans directly inside them.
- Generators (`enumerate_points`, `cube_points`,
  `enumerate_chain_expressions`) are timed item by item, and the time is
  charged to the layer that owns the generator, not to its consumer.
- Hot per-item calls (`facet_contains`, `canonicalize`) are counted, not
  timed, so that tracing does not swamp the work it measures.
- `stirling2_recurrence` is never wrapped: it recurses, and extra frames
  would move the depth at which it raises `RecursionError`. Its
  `cache_info()` is read instead. Every timed wrapper raises the
  recursion limit by the frames it adds while it is on the stack, so the
  tracer does not move that threshold either.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "verifier", "facets", "lattice", "combinatorics")
GENERATORS = frozenset({"enumerate_points", "cube_points", "enumerate_chain_expressions"})
COUNT_ONLY = frozenset({"facet_contains", "canonicalize"})
NEVER_WRAPPED = frozenset({"stirling2_recurrence"})
# Frames a timed wrapper adds below the wrapped call: the wrapper and `_timed`.
WRAPPER_FRAMES = 2


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.seconds = Counter()      # "<layer>.<function>" -> inclusive seconds
        self.calls = Counter()        # "<layer>.<function>" -> calls
        self.self_s = Counter()       # layer -> self seconds
        self.items = Counter()        # generator name -> items yielded
        self.membership_hits = 0
        # Shape -> [calls, items] for the counts the paper fixes:
        # faces per (p, l), points per face by (blocks, n), points per
        # cube scan by (p, n).
        self.faces_by_pl = defaultdict(lambda: [0, 0])
        self.points_by_kn = defaultdict(lambda: [0, 0])
        self.cube_by_pn = defaultdict(lambda: [0, 0])
        self._child = [0.0]           # child-span time of each open span
        self._caches = {}

    def _timed(self, layer, name, fn, args, kwargs):
        self._child.append(0.0)
        sys.setrecursionlimit(sys.getrecursionlimit() + WRAPPER_FRAMES)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            sys.setrecursionlimit(sys.getrecursionlimit() - WRAPPER_FRAMES)
            child = self._child.pop()
            self._child[-1] += elapsed
            self.seconds[name] += elapsed
            self.calls[name] += 1
            self.self_s[layer] += elapsed - child

    def _charged(self, layer, name, gen, key, tally):
        """Re-yield `gen`, timing each item as a span of `layer`."""
        count = 0
        try:
            while True:
                self._child.append(0.0)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    child = self._child.pop()
                    self._child[-1] += elapsed
                    self.seconds[name] += elapsed
                    self.self_s[layer] += elapsed - child
                count += 1
                yield item
        finally:
            self.items[name] += count
            if tally is not None:
                tally[key][0] += 1
                tally[key][1] += count

    def wrap(self, layer, fn):
        name = f"{layer}.{fn.__name__}"
        if fn.__name__ in COUNT_ONLY:
            calls = self.calls
            if fn.__name__ == "facet_contains":
                @functools.wraps(fn)
                def counted(*args, **kwargs):
                    calls[name] += 1
                    hit = fn(*args, **kwargs)
                    self.membership_hits += hit
                    return hit
            else:
                @functools.wraps(fn)
                def counted(*args, **kwargs):
                    calls[name] += 1
                    return fn(*args, **kwargs)
            return counted
        if fn.__name__ in GENERATORS:
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                gen = self._timed(layer, name, fn, args, kwargs)
                key, tally = self._generator_key(fn.__name__, args, kwargs)
                return self._charged(layer, name, gen, key, tally)
            return generator

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            result = self._timed(layer, name, fn, args, kwargs)
            if fn.__name__ == "enumerate_facets":
                p, l = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "l")
                shape = self.faces_by_pl[f"{p},{l}"]
                shape[0] += 1
                shape[1] += len(result)
            return result
        if hasattr(fn, "cache_info"):
            self._caches[name] = fn
        return timed

    def _generator_key(self, fn_name, args, kwargs):
        if fn_name == "enumerate_points":
            facet, n = _arg(args, kwargs, 0, "facet"), _arg(args, kwargs, 1, "n")
            return f"{facet.num_blocks},{n}", self.points_by_kn
        if fn_name == "cube_points":
            p, n = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "n")
            return f"{p},{n}", self.cube_by_pn
        return None, None

    def snapshot(self) -> dict:
        combinatorics = sys.modules["figulat.combinatorics"]
        caches = {name: _cache_counts(fn) for name, fn in self._caches.items()}
        caches["combinatorics.stirling2_recurrence"] = _cache_counts(
            combinatorics.stirling2_recurrence)
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "items": dict(self.items),
            "membership_hits": self.membership_hits,
            "caches": caches,
            "faces_by_pl": dict(self.faces_by_pl),
            "points_by_kn": dict(self.points_by_kn),
            "cube_by_pn": dict(self.cube_by_pn),
        }


def _cache_counts(fn) -> dict:
    info = fn.cache_info()
    return {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}


def public_functions(module):
    """Functions (plain or lru-cached) that `module` defines and exports."""
    for attr, value in vars(module).items():
        if attr.startswith("_") or attr in NEVER_WRAPPED:
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) or hasattr(value, "cache_info"):
            yield value


def install() -> Tracer:
    """Wrap every public function of the five layers and rebind the
    wrappers wherever the originals are bound."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"figulat.{layer}") for layer in LAYERS}
    replacements = {}
    for layer, module in modules.items():
        for fn in public_functions(module):
            replacements[id(fn)] = (fn, tracer.wrap(layer, fn))
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "figulat" or name.startswith("figulat.")):
            continue
        for attr, value in list(vars(module).items()):
            found = replacements.get(id(value))
            if found is not None and found[0] is value:
                setattr(module, attr, found[1])
    return tracer


def merge(snapshots) -> dict:
    """Sum the snapshots of several traced processes."""
    total = {key: Counter() for key in ("seconds", "calls", "self_s", "items")}
    caches = defaultdict(Counter)
    hits = faces = 0
    for snap in snapshots:
        for key in total:
            total[key].update(snap[key])
        for name, info in snap["caches"].items():
            caches[name].update(info)
        hits += snap["membership_hits"]
        faces += sum(count for _, count in snap["faces_by_pl"].values())
    return {**total, "caches": caches, "membership_hits": hits, "faces": faces}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(merged: dict, cells: int, overhead_s: float) -> dict:
    """The per-layer metrics, by name, as (value, unit). `cells` is the
    number of verify cells the traced processes completed and
    `overhead_s` their wall time minus that of the same runs untraced."""
    s, calls, self_s, items = (merged[k] for k in ("seconds", "calls", "self_s", "items"))
    stirling = merged["caches"].get("combinatorics.stirling2_recurrence", Counter())
    by_codim = merged["caches"].get("facets.all_facets_by_codimension", Counter())
    faces = merged["faces"]
    expressions = items["facets.enumerate_chain_expressions"]
    points = items["lattice.enumerate_points"]
    tests = calls["lattice.facet_contains"]
    return {
        "cli.main_s": (s["cli.main"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "verifier.cells": (cells, "count"),
        "verifier.self_s": (self_s["verifier"], "s"),
        "facets.enumerate_facets.s": (s["facets.enumerate_facets"], "s"),
        "facets.enumerate_facets.calls": (calls["facets.enumerate_facets"], "count"),
        "facets.faces": (faces, "count"),
        "facets.chain_expressions": (expressions, "count"),
        "facets.canonicalize.calls": (calls["facets.canonicalize"], "count"),
        "facets.face_yield": (_ratio(faces, expressions), "ratio"),
        "facets.faces_per_s": (_ratio(faces, s["facets.enumerate_facets"]), "faces/s"),
        "facets.all_facets_by_codimension.s": (s["facets.all_facets_by_codimension"], "s"),
        "facets.all_facets_by_codimension.hits": (by_codim["hits"], "count"),
        "facets.all_facets_by_codimension.misses": (by_codim["misses"], "count"),
        "lattice.enumerate_points.s": (s["lattice.enumerate_points"], "s"),
        "lattice.points": (points, "count"),
        "lattice.points_per_s": (_ratio(points, s["lattice.enumerate_points"]), "points/s"),
        "lattice.point_multiplicity.s": (s["lattice.point_multiplicity"], "s"),
        "lattice.point_multiplicity.calls": (calls["lattice.point_multiplicity"], "count"),
        "lattice.cube_points.points": (items["lattice.cube_points"], "count"),
        "lattice.facet_contains.calls": (tests, "count"),
        "lattice.membership_hit_ratio": (_ratio(merged["membership_hits"], tests), "ratio"),
        "lattice.membership_tests_per_s": (
            _ratio(tests, s["lattice.point_multiplicity"]), "tests/s"),
        "combinatorics.rhs_identity.s": (s["combinatorics.rhs_identity"], "s"),
        "combinatorics.facet_count.s": (s["combinatorics.facet_count"], "s"),
        "combinatorics.facet_count.calls": (calls["combinatorics.facet_count"], "count"),
        "combinatorics.figurate.calls": (calls["combinatorics.figurate"], "count"),
        "combinatorics.stirling2.hits": (stirling["hits"], "count"),
        "combinatorics.stirling2.misses": (stirling["misses"], "count"),
        "combinatorics.stirling2.entries": (stirling["currsize"], "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }
