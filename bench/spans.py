"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` wraps every public plain function of every `kgraph`
module, in every module namespace that binds it: `periodicity` and the
others take `factor`, `segment`, `join` and the rest by `from .x import y`,
so patching only the defining module would record nothing.  A few methods
are wrapped on their class (`CLASS_METHODS`).  `Tracer.remove` puts every
original back.

Each call becomes a span (name, parent span, request id, start, end) held
in flat arrays; a layer's self time is its duration minus the time its
child spans cover.  Generator functions are left alone, because a span
around one would close before the generator does any work.
"""

import inspect
import sys
import time
from array import array

import numpy as np

# (module, class, method) wrapped on the class itself.
CLASS_METHODS = (
    ("kgraph.skeleton", "Skeleton", "validate"),
    ("kgraph.factorization", "KGraph", "paths_from"),
    ("kgraph.periodicity", "AperiodicityWitness", "__init__"),
    ("kgraph.periodicity", "PeriodicityTuple", "__init__"),
)

TRIPLE = "periodicity.local_periodicity_at"
PATHS_FROM = "factorization.KGraph.paths_from"


def _short(module_name):
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    """Holds the spans of one traced pass and the patches that record them."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._patches = []
        self.request = -1
        self.reset()

    def reset(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []
        self.triples = set()
        self.paths_from_misses = 0

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn):
        nid = self._intern(name)
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            names = tracer.span_name
            idx = len(names)
            stack = tracer._stack
            names.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_request.append(tracer.request)
            tracer.span_end.append(0)
            stack.append(idx)
            tracer.span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap_triple(self, name, fn):
        """local_periodicity_at(g, v, m, n): also records the distinct triples."""
        inner = self._wrap(name, fn)
        tracer = self

        def traced(g, v, m, n, *args, **kwargs):
            tracer.triples.add((tracer.request, id(g), v, tuple(m), tuple(n)))
            return inner(g, v, m, n, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_paths_from(self, name, fn):
        """KGraph.paths_from: a call that grows the graph's cache was a miss."""
        inner = self._wrap(name, fn)
        tracer = self

        def traced(graph, *args, **kwargs):
            cache = getattr(graph, "_paths_from", ())
            before = len(cache)
            try:
                return inner(graph, *args, **kwargs)
            finally:
                if len(cache) != before:
                    tracer.paths_from_misses += 1

        traced.__wrapped__ = fn
        return traced

    def _wrapper_for(self, name, fn):
        if name == TRIPLE:
            return self._wrap_triple(name, fn)
        if name == PATHS_FROM:
            return self._wrap_paths_from(name, fn)
        return self._wrap(name, fn)

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap every public function of the package wherever it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "kgraph" or name.startswith("kgraph."))
        }
        wrappers = {}
        for mod_name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod_name
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[obj] = self._wrapper_for(f"{_short(mod_name)}.{obj.__qualname__}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for mod_name, cls_name, meth in CLASS_METHODS:
            cls = getattr(modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrapper_for(f"{_short(mod_name)}.{cls_name}.{meth}", original))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def arrays(self):
        """The recorded spans as numpy arrays (durations in seconds)."""
        name = np.array(self.span_name, dtype=np.int32)
        parent = np.array(self.span_parent, dtype=np.int32)
        start = np.array(self.span_start, dtype=np.int64)
        end = np.array(self.span_end, dtype=np.int64)
        dur = (end - start).astype(np.float64) / 1e9
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, parent, dur, dur - covered

    def summary(self):
        """({span name: (calls, inclusive s, self s)}, name, parent, duration arrays)."""
        name, parent, dur, self_time = self.arrays()
        out = {}
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        incl = np.bincount(name, weights=dur, minlength=n_names)
        own = np.bincount(name, weights=self_time, minlength=n_names)
        for nid, label in enumerate(self.names):
            out[label] = (int(calls[nid]), float(incl[nid]), float(own[nid]))
        return out, name, parent, dur

    def time_under(self, child_names, parent_name, name, parent, dur):
        """Inclusive time of spans named in child_names whose parent is parent_name."""
        pid = self._ids.get(parent_name)
        cids = [self._ids[c] for c in child_names if c in self._ids]
        if pid is None or not cids or len(name) == 0:
            return 0.0
        has_parent = parent >= 0
        parent_name_of = np.full(len(name), -1, dtype=np.int64)
        parent_name_of[has_parent] = name[parent[has_parent]]
        mask = (parent_name_of == pid) & np.isin(name, cids)
        return float(dur[mask].sum())

    def save(self, path):
        """Write the spans of the current pass as a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            request=np.array(self.span_request, dtype=np.int32),
            start_ns=np.array(self.span_start, dtype=np.int64),
            end_ns=np.array(self.span_end, dtype=np.int64),
        )
