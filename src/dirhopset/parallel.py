"""Rounded, iterated hopset construction for the parallel contract.

Each distance scale quantizes the current working graph (original edges
plus previously injected hopset edges) to integer multiples of a unit,
runs bounded searches in quantized units, scales the returned edges back,
and extends the hopset, one ``EdgeSet``, by them; the hopset is
min-merged and injected into the working graph between sweeps.  The
working graph is quantized with one vectorised ceil, and the graphs the
searches need are built from (u, v, w) arrays with
``Graph.from_arrays``.  Searches within a frame are mutually independent
(read-only graph, keyed RNG), so a concurrent executor must produce
bit-identical output to this serial order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .graph import EdgeSet, Graph, concat_arrays
from .hopset import (Instrumentation, ShortcutSink, check_scales,
                     normalize_weights, top_scale, _run_scale)
from .params import MODE_PAPER, Params


@dataclass(frozen=True)
class RoundingScheme:
    scale_index: int
    delta: float
    beta: float

    @property
    def unit(self) -> float:
        return self.delta * (2.0 ** (self.scale_index - 1)) / self.beta


@dataclass
class QuantizedGraph:
    unit: float
    graph: Graph                      # integer weights, dropped edges absent


def quantize(g: Graph, i: int, scheme: RoundingScheme) -> QuantizedGraph:
    """Round weights up to integer units; drop edges with w >= 2^(i+1).

    Zero-weight edges become one unit.
    """
    unit = scheme.unit
    if unit <= 0:
        raise ValueError("rounding unit must be > 0")
    u, v, w = g.edge_arrays()
    keep = w < 2.0 ** (i + 1)
    w = w[keep]
    q = np.where(w == 0, 1.0, np.ceil(w / unit))
    qg = Graph.from_arrays(g.n, u[keep], v[keep], q)
    return QuantizedGraph(unit=unit, graph=qg)


def derive_parallel_params(n: int, epsilon: float, k: int = 2,
                           lam: int = 8) -> Tuple[float, float, int, float]:
    """(delta, epsilon_inner, L, beta) from the literal formulas."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    log_n = math.log2(n)
    delta = epsilon / (8.0 * log_n)
    epsilon_inner = epsilon / (8.0 * log_n)
    L = math.ceil(17.0 - math.log(epsilon, k))
    return delta, epsilon_inner, L, _paper_beta(n, k, lam)


def _paper_beta(n: int, k: int, lam: int) -> float:
    """The literal hop bound 6 lam^(log_k n) sqrt(n) / log2(n)."""
    return 6.0 * (lam ** math.log(n, k)) * math.sqrt(n) / math.log2(n)


def default_beta(params: Params) -> float:
    return _paper_beta(params.n, params.k, params.lam)


def check_rounding(delta: float, beta: Optional[float],
                   sweeps: Optional[int] = None) -> None:
    """ValueError unless delta and beta (None: the default) are finite
    and > 0, the shortcut radius 8(1 + delta)beta/delta, which also
    bounds every quantized weight, is finite, and sweeps (None: the
    default) is >= 1."""
    if sweeps is not None and sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    if beta is None:
        return
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    if not 8.0 * (1.0 + delta) * beta / delta < math.inf:
        raise ValueError(f"beta / delta is too large: {beta} / {delta}")


def phopset(g: Graph, params: Params, delta: float, seed: int = 0, *,
            beta: Optional[float] = None, sweeps: Optional[int] = None,
            scale_range: Optional[Tuple[int, int]] = None,
            instr: Optional[Instrumentation] = None) -> EdgeSet:
    """Rounded iterated hopset construction.

    Returns the accumulated hopset H in the units of ``g``; weights are
    quantized-and-scaled overestimates of true distances.  Weights below
    the lightest positive weight of ``g`` are floored to 0: an estimate
    that light bounds a path with no positive edge, so the pair's
    distance is 0.  A pair no lighter than the edge of ``g`` it
    parallels is left out.  A given ``scale_range`` (inclusive
    distance-scale exponents) is in the units of ``normalize_weights(g)``,
    the graph ``gs`` the build runs on.  ValueError as in
    ``normalize_weights``, ``check_rounding`` and ``check_scales``.
    """
    gs, s = normalize_weights(g)
    n = g.n
    if beta is None:
        beta = default_beta(params)
    check_rounding(delta, beta, sweeps)
    if sweeps is None:
        sweeps = math.ceil(params.lam * params.log_n ** 2) \
            if params.mode == MODE_PAPER else params.repetitions
    top = top_scale(n * n * max(gs.max_weight, 1.0))
    lo, hi = check_scales(scale_range or (-2, top))

    floor = gs.min_positive_weight
    hopset = EdgeSet()
    shortcut_radius = 8.0 * (1.0 + delta) * beta / delta
    recurse_base = 4.0 * (1.0 + delta) * beta / (delta * (params.k ** params.c))

    for sweep in range(sweeps):
        # the working graph: g's edges min-merged with the hopset so far
        cur = Graph.from_arrays(n, *concat_arrays(gs.edge_arrays(),
                                                  hopset.arrays()))
        for i in range(lo, hi + 1):
            scheme = RoundingScheme(scale_index=i, delta=delta, beta=beta)
            qg = quantize(cur, i, scheme)
            if qg.graph.m == 0:
                continue
            sink = ShortcutSink(qg.graph)
            _run_scale(sink, params, seed, (sweep, i), shortcut_radius,
                       recurse_base, instr, prefix="p")
            u, v, wq = sink.arrays()
            w = wq * scheme.unit
            hopset.extend(u, v, np.where(w < floor, 0.0, w))
    u, v, w = hopset.arrays()
    w = w / s  # in the input's units
    keep = g.lighter(u, v, w)
    return EdgeSet.from_arrays(u[keep], v[keep], w[keep])
