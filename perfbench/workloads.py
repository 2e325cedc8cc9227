"""The benchmark's workloads: one graph family, size and driver each.

A run generates its inputs 0, 1, 2, ... from the seed (worker.input_seed)
and runs the pipeline once on each.

Every workload runs dirhopset's pipeline in the order of
``experiment.run_experiment``: generate, save and load the graph; build
the hopset; write and read it back; verify the read-back hopset with
``check_hopset`` at the program's default ``verify_beta`` (n - 1).
Why each workload exists is in README.md.
"""
from __future__ import annotations

import math

WORKLOADS = {
    # Weighted exact driver on a sparse random digraph: H grows to near
    # transitive closure, build time is bounded_search and shortcut
    # emission (EdgeSet.add, edge_weight); parallel.* is never called.
    "exact-gnm": dict(
        family="random-gnm", n=192, m=3 * 192, max_weight=8,
        driver="weighted", epsilon=0.0, overrides={}, sources=16),
    # Rounding-based phopset on a layered DAG with the default c, so the
    # recursion runs: per-sweep Graph rebuilds, quantize and induce copies
    # dominate; the hopset file is small.
    "phopset-layered": dict(
        family="layered-dag", n=288, m=2 * 288, max_weight=4,
        driver="parallel", epsilon=0.5, overrides={"L": 1}, sources=16,
        delta=0.05, beta=16.0, sweeps=5, scale_range=(5, 6)),
}

# Sizes for ``run.py --selftest``: the same pipelines and checks, small.
SMALL = {"exact-gnm": dict(n=96, m=3 * 96),
         "phopset-layered": dict(n=128, m=2 * 128)}


def spec(name: str, small: bool = False) -> dict:
    out = dict(WORKLOADS[name])
    if small:
        out.update(SMALL[name])
    return out


def stretch_bound(w: dict) -> float:
    """Largest allowed d_{G+H}/d_G for a workload's hopset.

    Exact drivers: 1 + epsilon.  phopset: the compounded bound of
    acceptance criterion 7, (1 + delta)^sweeps * (1 + eps_inner)^sweeps
    with eps_inner = epsilon / (8 log2 n).
    """
    if w["driver"] != "parallel":
        return 1.0 + w["epsilon"]
    eps_inner = w["epsilon"] / (8.0 * math.log2(w["n"]))
    return ((1.0 + w["delta"]) * (1.0 + eps_inner)) ** w["sweeps"]
