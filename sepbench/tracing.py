"""Spans around the public functions of sepcodes, recorded from outside.

A traced run wraps each function below at every module that binds it:
sepcodes modules import functions by name (``from .hypergraphs import
covering_number``) and the CLI keeps its theorem checks in a dict, so
patching only the defining module would miss most calls.  Each call
records a span (name, start, end, parent); spans stay in memory and are
written out when the run ends.  Nothing inside sepcodes changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

# layer name -> functions of that sepcodes module to wrap
TRACED = {
    "hypergraphs": ("covering_number_at_most", "covering_number", "reduce_to_clutter"),
    "separation": ("delta_families", "separation_hypergraph", "code_hypergraph"),
    "theorems": ("all_numbers", "check_*"),
    "graphs": ("complement", "detect_twins", "parse_graph"),
    "cli": ("main",),
    "reductions": ("build_reduction", "solve_test_cover", "verify_reduction_iff"),
}

PER_LAYER = (
    ("hypergraphs.covering_number_at_most", ("calls", "self_s")),
    ("hypergraphs.covering_number", ("calls", "self_s", "distinct_ratio")),
    ("hypergraphs.reduce_to_clutter", ("calls", "self_s")),
    ("separation.delta_families", ("calls", "self_s")),
    ("separation.separation_hypergraph", ("self_s",)),
    ("separation.code_hypergraph", ("self_s",)),
    ("theorems.all_numbers", ("calls",)),
    ("theorems.checks", ("self_s",)),
    ("graphs.complement", ("calls", "self_s")),
    ("graphs.detect_twins", ("self_s",)),
    ("graphs.parse_graph", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
    ("reductions.build_reduction", ("self_s",)),
    ("reductions.solve_test_cover", ("self_s",)),
    ("reductions.verify_reduction_iff", ("self_s",)),
)

UNITS = {"calls": "count", "self_s": "s", "distinct_ratio": "ratio"}

OP = "op"  # root span of one benchmark operation
DISTINCT = "hypergraphs.covering_number"
CHECKS = "theorems.checks"  # sums the spans of every theorems.check_*


class Tracer:
    """Span store: parallel arrays indexed by span id, plus the stack of
    open spans.  Single-threaded, like the benchmark."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.keys: dict[int, int] = {}  # span id -> hypergraph key, for DISTINCT
        self._undo = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, key=None):
        """fn wrapped so that each call records a span named `name`; `key`
        maps the call's arguments to a value kept with the span."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            if key is not None:
                self.keys[idx] = key(*args, **kwargs)
            self.stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.stack.pop()

        return traced

    def install(self):
        """Wrap every TRACED function wherever a sepcodes module binds it:
        module attributes and values of module-level dicts."""
        homes = {layer: importlib.import_module("sepcodes." + layer) for layer in TRACED}
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "sepcodes" or name.startswith("sepcodes."))]
        for layer, patterns in TRACED.items():
            home = homes[layer]
            for attr, fn in list(vars(home).items()):
                if not callable(fn) or not any(
                        attr == p or (p.endswith("*") and attr.startswith(p[:-1])) for p in patterns):
                    continue
                name = "%s.%s" % (layer, attr)
                key = _hypergraph_key if name == DISTINCT else None
                self._replace(modules, fn, self.span(name, fn, key))

    def _replace(self, modules, old, new):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)
                    self._undo.append((setattr, mod, attr, old))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is old:
                            value[k] = new
                            self._undo.append((dict.__setitem__, value, k, old))

    def uninstall(self):
        for put, where, attr, old in reversed(self._undo):
            put(where, attr, old)
        self._undo.clear()

    def write(self, path):
        """All spans as tab-separated lines: id, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\n" % (
                    i, self.names[self.name[i]], self.start[i], self.end[i], self.parent[i]))

    def metrics(self) -> dict:
        """calls, self_s and distinct_ratio per PER_LAYER entry.

        Self time is a span's duration minus its direct children's; spans
        nest and never overlap in one thread, so that is the part of the
        interval no child covers.  distinct_ratio counts, per benchmark op,
        the distinct hypergraphs passed to covering_number, over its calls.
        """
        calls = defaultdict(int)
        self_s = defaultdict(float)
        n = len(self.start)
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += dur
            p = self.parent[i]
            if p >= 0:
                self_s[self.names[self.name[p]]] -= dur
        distinct = set()
        for i, key in self.keys.items():
            root = i
            while self.parent[root] >= 0:
                root = self.parent[root]
            distinct.add((root, key))
        out = {}
        for layer, fields in PER_LAYER:
            names = [nm for nm in calls if nm.startswith("theorems.check_")] \
                if layer == CHECKS else [layer]
            values = {
                "calls": sum(calls[nm] for nm in names),
                "self_s": sum(self_s[nm] for nm in names),
                "distinct_ratio": len(distinct) / calls[layer] if calls[layer] else 0.0,
            }
            for f in fields:
                out["%s.%s" % (layer, f)] = {"value": values[f], "unit": UNITS[f]}
        return out


def _hypergraph_key(h, *args, **kwargs) -> int:
    return hash((h.n, frozenset(h.edges)))
