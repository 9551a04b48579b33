"""In-memory spans around the public functions of every `mldeg` module.

`install()` wraps each public module-level function of the seven layers
and re-binds the wrapper at every place the original is bound, because the
modules import each other's names (`mldeg.invariants.restrict` is
`mldeg.matroids.restrict`); wrapping only the defining module would miss
those calls.  `Matroid.rank` and `Matroid.closure` are counted, not spanned:
they run too often for a span each.

A span is (id, name, start, end, parent id, request id, self seconds).
Self time is the span's duration minus its children's spans and minus the
tracer's own bookkeeping done in it (cache keys, result statistics), so the
self times of one request never add up to more than its wall time.  Spans
stay in memory until `dump()` writes them at the end of the process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("ratpoly", "linalg", "matroids", "invariants", "mldegree", "solver", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.request = None
        self._stack: list[list] = []   # [span id, accumulated excluded seconds]
        self._next_id = 0
        self._tutte_keys: set = set()
        self._lattices: dict[int, object] = {}

    def span(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            excluded = 0.0
            if before is not None:
                t = perf_counter()
                before(*args)
                excluded = perf_counter() - t
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.request,
                                   end - start - frame[1]))
                if self._stack:
                    self._stack[-1][1] += end - start + excluded
            if after is not None:
                t = perf_counter()
                after(result)
                if self._stack:
                    self._stack[-1][1] += perf_counter() - t
            return result

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run(self, request, fn, *args):
        """Call fn with every span it opens tagged with the request id."""
        self.request = request
        try:
            return fn(*args)
        finally:
            self.request = None

    # -- result statistics ----------------------------------------------------

    def _tutte_key(self, M, *_) -> None:
        self._tutte_keys.add(M.cache_key())
        self.counters["invariants.tutte.misses"] = len(self._tutte_keys)

    def _flats_found(self, lattice) -> None:
        if id(lattice) not in self._lattices:
            self._lattices[id(lattice)] = lattice   # held, so ids are never reused
            self.counters["matroids.flats.found"] += len(lattice.flats)

    def _basis_stats(self, gb) -> None:
        self.counters["solver.buchberger.basis_size"] += len(gb.generators)
        bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                    for g in gb.generators for c in g.terms.values()), default=0)
        key = "solver.buchberger.max_coeff_bits"
        self.counters[key] = max(self.counters[key], bits)

    def _standard_monomials(self, count) -> None:
        self.counters["solver.count_torus_solutions.standard_monomials"] += count

    def _resamples(self, report) -> None:
        self.counters["solver.oracle_score_count.resamples"] += report.resamples

    # -- output -----------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, handle)


def install(tracer: Tracer) -> None:
    """Wrap every public function of the mldeg layers wherever it is bound."""
    modules = [importlib.import_module("mldeg")]
    modules += [importlib.import_module(f"mldeg.{layer}") for layer in LAYERS]
    hooks = {
        "invariants.tutte": (tracer._tutte_key, None),
        "matroids.flats": (None, tracer._flats_found),
        "solver.buchberger": (None, tracer._basis_stats),
        "solver.count_torus_solutions": (None, tracer._standard_monomials),
        "solver.oracle_score_count": (None, tracer._resamples),
    }
    wrapped = {}
    for layer, module in zip(LAYERS, modules[1:]):
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                qual = f"{layer}.{name}"
                before, after = hooks.get(qual, (None, None))
                wrapped[obj] = tracer.span(qual, obj, before, after)
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, name, wrapped[obj])
    matroid = sys.modules["mldeg.matroids"].Matroid
    matroid.rank = tracer.count("matroids.rank.queries", matroid.rank)
    matroid.closure = tracer.count("matroids.closure.calls", matroid.closure)
