"""Outside-in layer tracing: wrap longsol's public functions, keep spans.

The tracer replaces, in every loaded ``longsol`` module namespace, each
reference to a layer function with a wrapper that records a span (name,
start, end, parent span, query id), and wraps ``__post_init__`` of the
value classes to count objects built.  Nothing in ``src/`` changes; the
originals are put back on exit.  Calls a module makes to its own private
helpers are not wrapped, so their cost is part of the caller's self time.

A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# layer -> public functions whose calls open a span
LAYER_FUNCTIONS = {
    "cli": ("main", "build_parser"),
    "parsing": ("parse_ordinal", "parse_long_point", "parse_tower_point",
                "parse_stage_point", "parse_thread", "parse_descriptor",
                "parse_rational", "parse_arc", "_parse_int", "_split_top"),
    "ordinal": ("compare", "add", "mul", "omega_pow"),
    "longline": ("is_ng", "partition_class", "distinct_orbit_proof", "same_orbit_recipe"),
    "tower": ("point_type", "same_orbit", "strip_top", "within_copy_hat",
              "base_automorphism_token", "compare_base"),
    "stages": ("verify_commutes", "synthesize_recipe", "apply_recipe",
               "extend_thread", "fiber"),
    "arcs": ("circular_chain_check", "indecomposability_witness",
             "preimage_components", "uncovered_point", "arcs_intersect",
             "format_position"),
    "cohomology": ("supernatural_of", "mccord_equivalent", "member",
                   "dl_of_rational", "dl_add", "dl_value", "dl_element",
                   "h1_action"),
}

# (module, class) -> counter bumped by each constructed instance
BUILT_COUNTERS = {
    ("ordinal", "CnfOrdinal"): "ordinal.objects_built",
    ("stages", "StagePoint"): "stages.stage_points_built",
    ("stages", "Thread"): "stages.threads_built",
}


class Tracer:
    """Span store plus the patches that feed it; use as a context manager."""

    def __init__(self):
        self.names = []
        self.name_of = {}
        self.name_id = array("i")
        self.qid = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.query_id = 0
        self.counts = {key: 0 for key in BUILT_COUNTERS.values()}
        self._undo = []

    # -- patching -------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        if name not in self.name_of:
            self.name_of[name] = len(self.names)
            self.names.append(name)
        nid = self.name_of[name]
        name_id, qid, parent, start, end = (
            self.name_id, self.qid, self.parent, self.start, self.end)
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            qid.append(tracer.query_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def post_init(obj):
            counts[key] += 1
            fn(obj)

        return post_init

    def __enter__(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "longsol" or name.startswith("longsol.")}
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            home = mods["longsol." + layer]
            for fname in names:
                fn = getattr(home, fname)
                wrappers[id(fn)] = (fn, self._span_wrapper(layer + "." + fname.lstrip("_"), fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for (layer, cls_name), key in BUILT_COUNTERS.items():
            cls = getattr(mods["longsol." + layer], cls_name)
            original = cls.__dict__["__post_init__"]
            self._undo.append((cls, "__post_init__", original))
            cls.__post_init__ = self._count_wrapper(key, original)
        return self

    def __exit__(self, *exc):
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)
        return False

    # -- results ----------------------------------------------------------------

    def absorb(self, other):
        """Append spans recorded elsewhere (a traced child process)."""
        base = len(self.start)
        for i in range(len(other["start"])):
            name = other["names"][other["name_id"][i]]
            if name not in self.name_of:
                self.name_of[name] = len(self.names)
                self.names.append(name)
            self.name_id.append(self.name_of[name])
            self.qid.append(other["qid"][i])
            p = other["parent"][i]
            self.parent.append(p + base if p >= 0 else -1)
            self.start.append(other["start"][i])
            self.end.append(other["end"][i])
        for key, value in other["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value

    def export(self):
        return {
            "names": self.names,
            "name_id": list(self.name_id),
            "qid": list(self.qid),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
            "counts": self.counts,
        }

    def summary(self):
        """Per-name (calls, inclusive ns, self ns)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls, incl, own = out.get(name, (0, 0, 0))
            out[name] = (calls + 1, incl + dur[i], own + dur[i] - child[i])
        return out

    def write(self, path):
        """Spans as gzip CSV: query, span, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt") as fh:
            fh.write("query,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write("%d,%d,%d,%s,%d,%d\n" % (
                    self.qid[i], i, self.parent[i], self.names[self.name_id[i]],
                    self.start[i], self.end[i]))
