"""Per-layer trace of one pipeline round, taken from outside the program.

Each traced function is replaced by a wrapper in every ``dirhopset``
module that holds it, since ``hopset``, ``parallel`` and ``verify``
import by name.  Statistics are kept in memory per pipeline stage and
per function: calls, inclusive time (outermost call only, so recursion
is not counted twice), self time (inclusive time minus the time of
traced callees) and work counts derived from arguments and results.
Hot methods are only counted, never timed.

A name that no longer exists is reported as missing and the rest of the
trace goes on, so refactors that delete functions do not break the run.
"""
from __future__ import annotations

import importlib
import os
import sys
import time

# (module, attribute path, work counters); work counters map a name to
# f(args, kwargs, result) -> int.
TIMED = [
    ("generate", "generate", {}),
    ("graph", "load_graph", {}),
    ("graph", "save_graph", {}),
    ("graph", "Graph.__init__", {}),
    ("graph", "induce", {"vertices": lambda a, k, r: len(r)}),
    ("graph", "merge_min", {}),
    ("graph", "augment", {}),
    ("search", "bounded_search", {
        "reached": lambda a, k, r: len(r.reached),
        "scanned": lambda a, k, r: _scanned(a, k, r)}),
    ("search", "select_radius_with_searches", {}),
    ("hopset", "assign_levels", {}),
    ("hopset", "hs_recurse", {}),
    ("hopset", "_emit_shortcuts", {}),
    ("hopset", "hopset_weighted", {}),
    ("hopset", "hopset_unweighted", {}),
    ("parallel", "phopset", {}),
    ("parallel", "quantize", {"edges": lambda a, k, r: r.graph.m}),
    ("verify", "hop_limited_distances", {}),
    ("verify", "oracle_distances", {}),
    ("verify", "check_hopset", {}),
    ("experiment", "write_hopset", {
        "bytes": lambda a, k, r: os.path.getsize(a[0])}),
    ("experiment", "read_hopset", {}),
]
COUNTED = [("graph", "EdgeSet.add"), ("graph", "Graph.edge_weight")]


def _scanned(args, kwargs, result) -> int:
    """Out-degree sum, in the search direction, over the reached set."""
    g = args[0]
    direction = args[3] if len(args) > 3 else kwargs.get("direction",
                                                          "forward")
    adj = g.fwd if direction == "forward" else g.rev
    return sum(len(adj[v]) for v in result.reached)


class Tracer:
    def __init__(self):
        self.stages = {}          # stage -> key -> stats dict
        self.current = {}
        self.children = []        # time spent in traced callees, per frame
        self.missing = []

    def stage(self, name: str) -> None:
        self.current = self.stages.setdefault(name, {})

    def _stats(self, key: str) -> dict:
        st = self.current.get(key)
        if st is None:
            st = self.current[key] = {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0}
        return st

    def timed(self, key: str, fn, work: dict):
        depth = [0]
        clock = time.perf_counter
        children = self.children

        def wrapper(*args, **kwargs):
            st = self._stats(key)
            st["calls"] += 1
            depth[0] += 1
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] -= 1
                st["self_s"] += dt - children.pop()
                if children:
                    children[-1] += dt
                if depth[0] == 0:
                    st["total_s"] += dt
            for name, f in work.items():
                st[name] = st.get(name, 0) + f(args, kwargs, result)
            return result
        return wrapper

    def counted(self, key: str, fn):
        def wrapper(*args, **kwargs):
            st = self._stats(key)
            st["calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every traced name in every loaded dirhopset module."""
        for modname in {m for m, _, _ in TIMED}:
            try:
                importlib.import_module(f"dirhopset.{modname}")
            except ImportError:
                pass  # its names are reported missing below
        mods = {name[len("dirhopset."):]: mod
                for name, mod in list(sys.modules.items())
                if name.startswith("dirhopset.")}
        plan = [(m, a, w, True) for m, a, w in TIMED] + \
               [(m, a, None, False) for m, a in COUNTED]
        for modname, attr, work, timed in plan:
            key = f"{modname}.{attr}"
            owner = mods.get(modname)
            names = attr.split(".")
            for part in names[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, names[-1], None) if owner else None
            if original is None:
                self.missing.append(key)
                continue
            wrapped = (self.timed(key, original, work) if timed
                       else self.counted(key, original))
            if len(names) > 1:
                setattr(owner, names[-1], wrapped)
                continue
            for mod in list(mods.values()) + [sys.modules["dirhopset"]]:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)


# per-layer metric -> (stage it is taken from, traced key, field)
METRICS = {
    "generate.time_s": ("setup", "generate.generate", "total_s"),
    "graph.load_s": ("setup", "graph.load_graph", "total_s"),
    "graph.save_s": ("setup", "graph.save_graph", "total_s"),
    "graph.construct_calls": ("build", "graph.Graph.__init__", "calls"),
    "graph.construct_s": ("build", "graph.Graph.__init__", "self_s"),
    "graph.induce_calls": ("build", "graph.induce", "calls"),
    "graph.induce_vertices": ("build", "graph.induce", "vertices"),
    "graph.induce_s": ("build", "graph.induce", "total_s"),
    "graph.merge_min_s": ("build", "graph.merge_min", "total_s"),
    "graph.edgeset_adds": ("build", "graph.EdgeSet.add", "calls"),
    "graph.edge_lookups": ("build", "graph.Graph.edge_weight", "calls"),
    "graph.augment_s": ("verify", "graph.augment", "total_s"),
    "search.bounded_calls": ("build", "search.bounded_search", "calls"),
    "search.bounded_s": ("build", "search.bounded_search", "total_s"),
    "search.vertices_reached": ("build", "search.bounded_search", "reached"),
    "search.edges_scanned": ("build", "search.bounded_search", "scanned"),
    "search.radius_calls": ("build", "search.select_radius_with_searches",
                            "calls"),
    "search.radius_s": ("build", "search.select_radius_with_searches",
                        "total_s"),
    "hopset.levels_s": ("build", "hopset.assign_levels", "total_s"),
    "hopset.frames": ("build", "hopset.hs_recurse", "calls"),
    "hopset.recurse_s": ("build", "hopset.hs_recurse", "total_s"),
    "hopset.recurse_self_s": ("build", "hopset.hs_recurse", "self_s"),
    "hopset.emit_calls": ("build", "hopset._emit_shortcuts", "calls"),
    "hopset.emit_s": ("build", "hopset._emit_shortcuts", "total_s"),
    "parallel.quantize_calls": ("build", "parallel.quantize", "calls"),
    "parallel.quantize_s": ("build", "parallel.quantize", "total_s"),
    "parallel.quantized_edges": ("build", "parallel.quantize", "edges"),
    "verify.hoplimited_calls": ("verify", "verify.hop_limited_distances",
                                "calls"),
    "verify.hoplimited_s": ("verify", "verify.hop_limited_distances",
                            "total_s"),
    "verify.oracle_calls": ("verify", "verify.oracle_distances", "calls"),
    "verify.oracle_s": ("verify", "verify.oracle_distances", "total_s"),
    "verify.check_self_s": ("verify", "verify.check_hopset", "self_s"),
    "experiment.write_hopset_s": ("io", "experiment.write_hopset",
                                  "total_s"),
    "experiment.read_hopset_s": ("io", "experiment.read_hopset", "total_s"),
    "experiment.hopset_bytes": ("io", "experiment.write_hopset", "bytes"),
}
DRIVERS = ("hopset.hopset_weighted", "hopset.hopset_unweighted",
           "parallel.phopset")
# Deterministic for a given seed: two traced runs must agree on these.
COUNTS = ("search.bounded_calls", "search.radius_calls",
          "search.vertices_reached", "search.edges_scanned",
          "graph.edgeset_adds", "graph.construct_calls",
          "graph.induce_calls", "graph.induce_vertices", "hopset.frames",
          "hopset.emit_calls", "parallel.quantize_calls",
          "parallel.quantized_edges", "experiment.hopset_bytes")


def layer_metrics(stages: dict, missing: list, hopset_edges: int) -> dict:
    """Per-layer metric values; None for a metric whose function is gone.

    A function that exists but was never called reads 0.
    """
    out = {}
    for name, (stage, key, field) in METRICS.items():
        if key in missing:
            out[name] = None
        else:
            out[name] = stages.get(stage, {}).get(key, {}).get(field, 0)
    build = stages.get("build", {})
    driver = sum(build.get(k, {}).get("total_s", 0.0) for k in DRIVERS)
    parts = (out["hopset.recurse_s"], out["hopset.levels_s"],
             out["parallel.quantize_s"])
    out["hopset.driver_s"] = (None if None in parts
                              else driver - sum(parts))
    adds = out["graph.edgeset_adds"]
    out["hopset.emit_yield"] = (hopset_edges / adds if adds else None)
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name in ("hopset.emit_yield", "trace.overhead"):
        return "ratio"
    if name == "beta_measured":
        return "hops"
    return "count"
