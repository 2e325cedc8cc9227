"""The benchmark's tracer names functions of the package by string.

A name that no longer resolves, or a build that never calls a function
a per-layer metric divides by (``hopset.emit_yield`` divides by the
``EdgeSet.add`` calls), makes a traced benchmark run report a null
per-layer value.  These tests read ``perfbench/tracing.py`` without
installing its tracer in this process.
"""
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from dirhopset.graph import Graph

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


@pytest.mark.parametrize("workload", ["exact-gnm", "phopset-layered"])
def test_traced_round_has_every_layer_metric(tmp_path, workload):
    # one small traced round, as the benchmark runs it
    cmd = [sys.executable, str(TRACING.parent / "worker.py"), "--workload",
           workload, "--seed", "1", "--launched", repr(time.monotonic()),
           "--out", str(tmp_path / "out"), "--small", "--trace", "1"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["missing"] == []
    metrics = load_tracing().layer_metrics(
        result["trace"], result["missing"],
        result["pipelines"][0]["read_size"])
    assert [name for name, value in metrics.items() if value is None] == []
