"""The benchmark's tracer names functions of the package by string.

A name that no longer resolves, or a build that never calls
``EdgeSet.add``, makes a traced benchmark run report a null per-layer
value.  These tests read ``perfbench/tracing.py`` without installing
its tracer.
"""
import importlib
import importlib.util
import pathlib
import random

import pytest

from dirhopset.graph import EdgeSet, Graph
from dirhopset.hopset import hopset_unweighted, hopset_weighted
from dirhopset.parallel import phopset
from dirhopset.params import derive_params

from oracles import random_edges

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def resolve(modname, attr):
    owner = importlib.import_module(f"dirhopset.{modname}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_name_resolves():
    tracing = load_tracing()
    names = [(m, a) for m, a, _ in tracing.TIMED] + list(tracing.COUNTED)
    assert [f"{m}.{a}" for m, a in names if resolve(m, a) is None] == []
    traced = {f"{m}.{a}" for m, a in names}
    assert {key for _, key, _ in tracing.METRICS.values()} <= traced


def test_graph_has_the_adjacency_the_tracer_reads():
    g = Graph(3, [(0, 1, 1.0), (2, 1, 2.0)])
    assert g.fwd[0] == [(1, 1.0)] and g.rev[1] == [(0, 1.0), (2, 2.0)]


@pytest.mark.parametrize("driver", ["weighted", "unweighted", "parallel"])
def test_every_driver_adds_through_edgeset(monkeypatch, driver):
    adds = []
    add = EdgeSet.add

    def counted(self, u, v, w):
        adds.append((u, v))
        add(self, u, v, w)

    monkeypatch.setattr(EdgeSet, "add", counted)
    edges = [(u, v, 1.0) for u, v, _ in
             random_edges(20, 60, 1, random.Random(4))]
    g = Graph(20, edges)
    params = derive_params(20, 0.5, 2, 1, "practical")
    if driver == "parallel":
        h = phopset(g, params, 0.2, 0, beta=4.0, sweeps=1)
    else:
        build = hopset_weighted if driver == "weighted" else \
            hopset_unweighted
        h = build(g, params, 0)
    assert len(h) > 0 and len(adds) >= len(h)
