"""Distance-bounded searches and fringe-minimizing radius selection.

One binary-heap Dijkstra engine serves both unweighted and weighted
graphs; backward searches walk the stored reverse adjacency.

``SearchMemo`` keeps, per (source, direction), the largest search run on
one graph and answers smaller radii by filtering it.  Its lifetime is
one driver call (or one quantized graph of ``phopset``); the graph must
not change meanwhile.  ``SearchResult.reached`` dicts may be shared
between a memo and its callers, so they are read-only.
"""
from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .graph import Graph
from .params import Params

FORWARD = "forward"
BACKWARD = "backward"


@dataclass
class SearchResult:
    """Exact distances within ``bound``; ``reached`` is read-only.

    ``complete`` means the bound cut off no relaxation that mattered:
    ``reached`` equals the unbounded search's result.
    """
    source: int
    bound: float
    direction: str
    reached: Dict[int, float]
    complete: bool = False


@dataclass
class RadiusChoice:
    sigma: int
    rho: int
    fringe_size: int


def bounded_search(g: Graph, source: int, d: float,
                   direction: str = FORWARD) -> SearchResult:
    """Dijkstra from ``source`` truncated at distance ``d``.

    Never expands a vertex whose tentative distance exceeds d; reached
    distances are exact shortest-path distances within g.
    """
    if not (0 <= source < g.n):
        raise ValueError(f"invalid source {source}")
    if d < 0:
        raise ValueError("bound must be >= 0")
    adj = g.fwd if direction == FORWARD else g.rev
    dist: Dict[int, float] = {source: 0.0}
    heap = [(0.0, source)]
    cut: List[int] = []  # targets of relaxations beyond the bound
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, w in adj[u]:
            nd = du + w
            if nd > d:
                cut.append(v)
            elif nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return SearchResult(source=source, bound=d, direction=direction,
                        reached=dist, complete=all(v in dist for v in cut))


class SearchMemo:
    """Bounded searches on one graph, searched again only when wider.

    Maps (source, direction) to the widest search so far.  A request of
    radius d is answered from it when d is within its bound, by keeping
    the entries <= d, or at any d when it was complete.  Float Dijkstra
    distances within a bound do not depend on the bound, so an answer
    equals a fresh ``bounded_search`` exactly.  Only misses search.
    """

    __slots__ = ("graph", "_entries")

    def __init__(self, g: Graph):
        self.graph = g
        # (source, direction) -> (result, largest distance in it)
        self._entries: Dict[Tuple[int, str],
                            Tuple[SearchResult, float]] = {}

    def search(self, source: int, d: float,
               direction: str = FORWARD) -> SearchResult:
        key = (source, direction)
        entry = self._entries.get(key)
        if entry is None or (d > entry[0].bound and not entry[0].complete):
            res = bounded_search(self.graph, source, d, direction)
            self._entries[key] = (res, max(res.reached.values()))
            return res
        res, maxd = entry
        if d == res.bound:
            return res
        if d >= maxd:
            return SearchResult(source, d, direction, res.reached,
                                res.complete)
        return SearchResult(source, d, direction,
                            {v: x for v, x in res.reached.items() if x <= d})


def related_set(g: Graph, source: int, d: float
                ) -> Tuple[SearchResult, SearchResult]:
    """Forward and backward bounded searches; union of reach sets is R_d."""
    return (bounded_search(g, source, d, FORWARD),
            bounded_search(g, source, d, BACKWARD))


def _fringe_count(sorted_dmins, rho: int, base: float) -> int:
    # vertices with (rho-1)*base < dmin <= (rho+1)*base
    hi = bisect_right(sorted_dmins, (rho + 1) * base)
    lo = bisect_right(sorted_dmins, (rho - 1) * base)
    return hi - lo


def select_radius_with_searches(
        g: Graph, pivot: int, base_distance: float, params: Params,
        rng: random.Random, memo: Optional[SearchMemo] = None
) -> Tuple[RadiusChoice, SearchResult, SearchResult]:
    """Pick the fringe-minimizing integer scalar in a random subinterval.

    Returns the choice plus the forward/backward searches out to
    (max candidate + 1) * base_distance so callers can reuse them for
    labels and fringe sets without re-searching.  Searches go through
    ``memo`` when one is given; it must be a memo of ``g``.
    """
    if base_distance <= 0:
        raise ValueError("base distance must be > 0")
    sigma = rng.randint(1, params.interval_count)
    lo = params.rho_min + 1 + params.interval_width * (sigma - 1)
    hi = lo + params.interval_width
    candidates = range(math.ceil(lo), math.ceil(hi))
    max_rho = candidates[-1]
    bound = (max_rho + 1) * base_distance
    if memo is None:
        fwd = bounded_search(g, pivot, bound, FORWARD)
        bwd = bounded_search(g, pivot, bound, BACKWARD)
    else:
        fwd = memo.search(pivot, bound, FORWARD)
        bwd = memo.search(pivot, bound, BACKWARD)
    dmin: Dict[int, float] = dict(fwd.reached)
    for v, dv in bwd.reached.items():
        if dv < dmin.get(v, math.inf):
            dmin[v] = dv
    sorted_dmins = sorted(dmin.values())
    best_rho = candidates[0]
    best_size = _fringe_count(sorted_dmins, best_rho, base_distance)
    for rho in candidates[1:]:
        size = _fringe_count(sorted_dmins, rho, base_distance)
        if size < best_size:
            best_rho, best_size = rho, size
    return (RadiusChoice(sigma=sigma, rho=best_rho, fringe_size=best_size),
            fwd, bwd)


def select_radius(g: Graph, pivot: int, base_distance: float, params: Params,
                  rng: random.Random) -> RadiusChoice:
    choice, _, _ = select_radius_with_searches(
        g, pivot, base_distance, params, rng)
    return choice
