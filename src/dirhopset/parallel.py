"""Rounded, iterated hopset construction for the parallel contract.

Each distance scale quantizes the current working graph (original edges
plus previously injected hopset edges) to integer multiples of a unit,
runs bounded searches in quantized units, scales the returned edges back,
and extends the hopset, one ``EdgeSet``, by them.  Between sweeps the
hopset is min-merged into the working graph (``augment``); each scale
quantizes that graph with one vectorised ceil.  Searches within a frame
are mutually independent (read-only graph, keyed RNG), so a concurrent
executor must produce bit-identical output to this serial order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .graph import EdgeSet, Graph, augment
from .hopset import (Instrumentation, ShortcutSink, check_scales,
                     top_scale, unit_exponent, _run_on_root)
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
    """The literal hop bound 6 lam^(log_k n) sqrt(n) / log2(n);
    ValueError if lam^(log_k n) overflows a float."""
    try:
        return 6.0 * (lam ** math.log(n, k)) * math.sqrt(n) / math.log2(n)
    except OverflowError:
        raise ValueError(f"the default beta overflows a float: lambda^"
                         f"(log_k n) for n = {n}, k = {k}") from None


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
    parallels is left out.  ``scale_range``: inclusive distance-scale
    exponents; scale i keeps the edges lighter than 2^(i+1) 2^e, 2^e
    the weight unit.  ValueError as in ``unit_exponent``,
    ``check_rounding`` and ``check_scales``.
    """
    e = unit_exponent(g)
    n = g.n
    if beta is None:
        beta = default_beta(params)
    check_rounding(delta, beta, sweeps)
    if sweeps is None:
        sweeps = math.ceil(params.lam * params.log_n ** 2) \
            if params.mode == MODE_PAPER else params.repetitions
    top = top_scale(n * n * max(g.max_weight * 2.0 ** -e, 1.0))
    lo, hi = check_scales(scale_range or (-2, top))

    floor = g.min_positive_weight
    hopset = EdgeSet()
    shortcut_radius = 8.0 * (1.0 + delta) * beta / delta
    recurse_base = 4.0 * (1.0 + delta) * beta / (delta * (params.k ** params.c))

    for sweep in range(sweeps):
        cur = augment(g, hopset)  # the working graph
        for i in range(lo, hi + 1):
            scheme = RoundingScheme(i + e, delta, beta)
            qg = quantize(cur, i + e, scheme)
            if qg.graph.m == 0:
                continue
            u, v, wq = _run_on_root(ShortcutSink(qg.graph), params, seed, [
                ((sweep, i), shortcut_radius, recurse_base)], instr, "p")
            w = wq * scheme.unit
            hopset.extend(u, v, np.where(w < floor, 0.0, w))
    u, v, w = hopset.arrays()
    keep = g.lighter(u, v, w)
    return EdgeSet.from_arrays(u[keep], v[keep], w[keep])
