"""Distance-bounded searches and fringe-minimizing radius selection.

``bounded_search`` is binary-heap Dijkstra from one source over the
adjacency lists; backward searches walk the reverse adjacency.
``batched_search`` runs the same searches from many sources at once, at
one bound or one per source, relaxing the graph's CSR arrays for a
matrix of rows per round, and gives the same floats; it serves every
search on a driver's root graph and the verifier's exact distances.

``SearchMemo`` keeps, per (source, direction), the largest search run on
one graph and answers smaller radii by filtering it.  It lives for one
driver call, quantized graph of ``phopset`` or frame, while the graph
cannot change.  It keeps a batched search's rows as sparse arrays; a
``SearchResult`` builds its ``reached`` dict only when read.  Results
may be shared between a memo and its callers: read-only.

``pivot_searches`` draws a pivot's candidate radii and searches to them;
``choose_radii`` picks many pivots' fringe-minimizing radii at once.
"""
from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .graph import Graph
from .params import Params

FORWARD = "forward"
BACKWARD = "backward"
CHUNK = 64  # sources per batched search; bounds its S x n matrix
THIN = 64  # a batched round that would relax fewer edges is thin
THIN_ROUNDS = 8  # after more thin rounds in a row, Dijkstra finishes
Rows = Tuple[np.ndarray, np.ndarray]  # (vertices, distances)
Bounds = Union[float, Sequence[float]]  # one bound, or one per source


class SearchResult:
    """Exact distances within ``bound``, as the dict ``reached`` or as
    ``rows()``, each built from the other on first use; read-only.

    ``complete`` means the bound cut off no relaxation that mattered:
    ``reached`` equals the unbounded search's result.
    """

    __slots__ = ("source", "bound", "direction", "complete", "_reached",
                 "_rows")

    def __init__(self, source: int, bound: float, direction: str,
                 reached: Optional[Dict[int, float]] = None,
                 complete: bool = False, rows: Optional[Rows] = None):
        self.source, self.bound, self.direction = source, bound, direction
        self.complete, self._reached, self._rows = complete, reached, rows

    @property
    def reached(self) -> Dict[int, float]:
        if self._reached is None:
            v, x = self._rows
            self._reached = dict(zip(v.tolist(), x.tolist()))
        return self._reached

    def rows(self) -> Rows:
        """(vertices, distances) arrays of ``reached``, in its order."""
        if self._rows is None:
            r = self._reached
            self._rows = (np.fromiter(r, np.int64, len(r)),
                          np.fromiter(r.values(), np.float64, len(r)))
        return self._rows


@dataclass
class RadiusChoice:
    sigma: int
    rho: int
    fringe_size: int


def _settle(adj, dist: Dict[int, float], heap: List[Tuple[float, int]],
            d: float) -> List[int]:
    """Dijkstra from the entries on ``heap`` (each equal to its ``dist``
    entry), lowering ``dist`` in place within the bound ``d``.

    Returns the targets of the relaxations the bound cut off.
    """
    cut: List[int] = []
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        du, u = heappop(heap)
        if du > dist[u]:
            continue
        for v, w in adj[u]:
            nd = du + w
            if nd > d:
                cut.append(v)
            elif nd < dist.get(v, math.inf):
                dist[v] = nd
                heappush(heap, (nd, v))
    return cut


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
    dist: Dict[int, float] = {source: 0.0}
    cut = _settle(g.fwd if direction == FORWARD else g.rev, dist,
                  [(0.0, source)], d)
    return SearchResult(source=source, bound=d, direction=direction,
                        reached=dist, complete=all(v in dist for v in cut))


def batched_search(g: Graph, sources: Sequence[int], d: Bounds,
                   direction: str = FORWARD
                   ) -> Iterator[Tuple[List[int], np.ndarray, np.ndarray]]:
    """``bounded_search`` from many sources, CHUNK at a time, at the one
    bound ``d`` or, when ``d`` is a sequence, at d[i] from sources[i].

    Yields (block, dist, complete) per chunk of ``sources``: row i of
    the new S x n matrix ``dist`` holds block[i]'s distances (inf where
    not reached) and ``complete[i]`` its ``complete`` flag.

    Each round relaxes the edges out of the entries the previous round
    lowered, keeps the candidates within their row's bound that beat
    their entry, and lowers each entry to its least candidate.  After
    more than THIN_ROUNDS rounds in a row that would each relax fewer
    than THIN edges (a long thin tail, as on a path), each row with
    entries still to expand is finished by Dijkstra from them, at that
    row's bound, since a round costs about as much as THIN heap steps.
    Both converge to the same fixpoint, and because fl(a + w) is
    monotone in a for w >= 0 it equals Dijkstra's distances float for
    float.  A row is complete when every relaxation cut off by the bound
    reached a vertex reached anyway.
    """
    n = g.n
    for s in sources:
        if not (0 <= s < n):
            raise ValueError(f"invalid source {s}")
    per_source = np.ndim(d) > 0
    if (np.asarray(d) < 0).any():
        raise ValueError("bound must be >= 0")
    indptr, heads, wts = g.csr(reverse=direction != FORWARD)
    degree = np.diff(indptr)
    for lo in range(0, len(sources), CHUNK):
        block = list(sources[lo:lo + CHUNK])
        bound = np.asarray(d, float)[lo:lo + CHUNK] if per_source else d
        dist = np.full((len(block), n), np.inf)
        flat = dist.reshape(-1)
        # the frontier: flat indices row * n + vertex, ascending
        front = np.arange(len(block)) * n + np.array(block, dtype=np.int64)
        flat[front] = 0.0
        cut = []
        mark = np.zeros(len(flat), dtype=bool)
        thin = 0  # rounds in a row that relaxed fewer than THIN edges
        while len(front):
            cols = front % n
            count = degree[cols]
            ends = np.cumsum(count)
            total = int(ends[-1])
            thin = thin + 1 if total < THIN else 0
            if thin > THIN_ROUNDS or not total:
                front = front[count > 0]
                break
            edge = np.repeat(indptr[cols] - (ends - count), count)
            edge += np.arange(total)
            cand = np.repeat(flat[front], count) + wts[edge]
            key = np.repeat(front - cols, count) + heads[edge]
            inside = cand <= (np.repeat(bound[front // n], count)
                              if per_source else d)
            cut.append(key[~inside])
            better = inside & (cand < flat[key])
            key = key[better]
            np.minimum.at(flat, key, cand[better])
            mark[key] = True
            front = np.flatnonzero(mark)
            mark[front] = False
        if len(front):
            adj = g.fwd if direction == FORWARD else g.rev
            rows = front // n
            for i in np.unique(rows).tolist():
                row = dist[i]
                reached = np.flatnonzero(row < np.inf)
                state = dict(zip(reached.tolist(), row[reached].tolist()))
                pending = (front[rows == i] - i * n).tolist()
                heap = sorted(zip(row[pending].tolist(), pending))
                missed = _settle(adj, state, heap,
                                 float(bound[i]) if per_source else d)
                row[list(state)] = list(state.values())
                cut.append(i * n + np.array(missed, dtype=np.int64))
        complete = np.ones(len(block), dtype=bool)
        if cut:
            missed = np.concatenate(cut)
            complete[missed[flat[missed] == np.inf] // n] = False
        yield block, dist, complete


class SearchMemo:
    """Bounded searches on one graph, searched again only when wider.

    Maps (source, direction) to the widest search so far.  A request of
    radius d is answered from it when d is within its bound, by keeping
    the entries <= d, or at any d when it was complete.  Float Dijkstra
    distances within a bound do not depend on the bound, so an answer
    equals a fresh ``bounded_search`` exactly.  Only misses search.
    Entries from ``fetch``, which a driver calls once per direction
    before its first scale, hold their batched row as sparse arrays,
    and answers filtered from them are arrays too.
    """

    __slots__ = ("graph", "_entries")

    def __init__(self, g: Graph):
        self.graph = g
        # (source, direction) -> (result, largest distance in it)
        self._entries: Dict[Tuple[int, str],
                            Tuple[SearchResult, float]] = {}

    def _answers(self, source: int, d: float, direction: str) -> bool:
        entry = self._entries.get((source, direction))
        return entry is not None and (d <= entry[0].bound
                                      or entry[0].complete)

    def search(self, source: int, d: float,
               direction: str = FORWARD) -> SearchResult:
        if not self._answers(source, d, direction):
            res = bounded_search(self.graph, source, d, direction)
            self._entries[(source, direction)] = (res,
                                                  max(res.reached.values()))
            return res
        res, maxd = self._entries[(source, direction)]
        if d == res.bound:
            return res
        if d >= maxd:
            return SearchResult(source, d, direction, res._reached,
                                res.complete, res._rows)
        v, x = res.rows()
        keep = x <= d
        return SearchResult(source, d, direction, rows=(v[keep], x[keep]))

    def fetch(self, sources: Sequence[int], bounds: Sequence[float],
              direction: str = FORWARD) -> None:
        """Batch-search the misses, each at its largest bound in ``bounds``."""
        misses: Dict[int, float] = {}
        for s, b in zip(sources, bounds):
            if not self._answers(s, b, direction):
                misses[s] = max(b, misses.get(s, b))
        chunks = batched_search(self.graph, list(misses),
                                list(misses.values()), direction) \
            if misses else ()
        for block, dist, complete in chunks:
            for s, row, done in zip(block, dist, complete.tolist()):
                v = np.flatnonzero(row < np.inf)
                x = row[v]
                self._entries[(s, direction)] = (SearchResult(
                    s, misses[s], direction, complete=done, rows=(v, x)),
                    float(x.max()))

    def search_all(self, sources: Sequence[int], d: Bounds,
                   direction: str = FORWARD) -> List[SearchResult]:
        """``search`` from each of ``sources`` at its bound in ``d``."""
        bounds = list(d) if np.ndim(d) else [d] * len(sources)
        self.fetch(sources, bounds, direction)
        return [self.search(s, b, direction) for s, b in zip(sources, bounds)]


def pivot_searches(memo: SearchMemo, pivot: int, base: float,
                   params: Params, rng: random.Random
                   ) -> Tuple[int, int, int, SearchResult, SearchResult]:
    """sigma, drawn from ``rng``, the least and the count of its candidate
    radii, the integers in [lo, lo + interval_width) for lo = rho_min + 1
    + width (sigma - 1), and ``pivot``'s forward and backward searches
    through ``memo`` out to (largest candidate + 1) * base."""
    sigma = rng.randint(1, params.interval_count)
    lo = params.rho_min + 1 + params.interval_width * (sigma - 1)
    first, end = math.ceil(lo), math.ceil(lo + params.interval_width)
    return (sigma, first, end - first, memo.search(pivot, end * base, FORWARD),
            memo.search(pivot, end * base, BACKWARD))


def choose_radii(first: np.ndarray, count: np.ndarray, base: float,
                 fwd: Sequence[SearchResult], bwd: Sequence[SearchResult]
                 ) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
    """Per pivot j, the first of its candidates rho in [first[j],
    first[j] + count[j]) with the fewest vertices whose dmin, the lesser
    of their two distances, has (rho - 1) * base < dmin <= (rho + 1) *
    base, and that fringe size.  fwd[j] and bwd[j] are its searches, out
    to (first[j] + count[j]) * base at least.  Also returns the (pivot,
    vertex, forward distance, backward distance, dmin) rows, sorted by
    pivot and vertex, inf where unreached.
    """
    rows = [res.rows() for res in (*fwd, *bwd)]
    j = np.repeat(np.tile(np.arange(len(fwd)), 2), [len(v) for v, _ in rows])
    v = np.concatenate([v for v, _ in rows] or [np.zeros(0, np.int64)])
    x = np.concatenate([x for _, x in rows] or [np.zeros(0)])
    ahead = sum(len(v) for v, _ in rows[:len(fwd)])  # the forward rows
    span = int(v.max(initial=0)) + 1
    key, at = np.unique(j * span + v, return_inverse=True)
    fd, bd = np.full(len(key), np.inf), np.full(len(key), np.inf)
    fd[at[:ahead]], bd[at[ahead:]] = x[:ahead], x[ahead:]
    j, v, x = key // span, key % span, np.minimum(fd, bd)
    i = np.ceil(x / base)  # the least i with x <= i * base in floats
    while (low := (i - 1) * base >= x).any():
        i -= low
    while (high := i * base < x).any():
        i += high
    # column c counts the dmins in ((i - 1) * base, i * base] for
    # i = first + c - 1; column 0, those in no candidate's fringe
    width = int(count.max(initial=1)) + 2
    col = i.astype(np.int64) - first[j] + 1
    col[(col < 1) | (col > count[j] + 1)] = 0
    per = np.bincount(j * width + col, minlength=len(first) * width)
    per = per.reshape(len(first), width)
    size = per[:, 1:-1] + per[:, 2:]  # column t: candidate first + t
    size[np.arange(width - 2) >= count[:, None]] = len(x) + 1
    t = size.argmin(axis=1)
    return first + t, size[np.arange(len(first)), t], (j, v, fd, bd, x)


def select_radius_with_searches(
        g: Graph, pivot: int, base_distance: float, params: Params,
        rng: random.Random, memo: Optional[SearchMemo] = None
) -> Tuple[RadiusChoice, SearchResult, SearchResult, Dict[int, float]]:
    """Pick the fringe-minimizing integer scalar in a random subinterval:
    ``choose_radii`` for one pivot.

    Returns the choice plus the forward/backward searches out to
    (max candidate + 1) * base_distance and, per vertex either reaches,
    the lesser of its two distances.  Searches go through ``memo`` when
    one is given; it must be a memo of ``g``.
    """
    if base_distance <= 0:
        raise ValueError("base distance must be > 0")
    sigma, first, count, fwd, bwd = pivot_searches(
        memo or SearchMemo(g), pivot, base_distance, params, rng)
    rho, size, (_, v, _, _, x) = choose_radii(
        np.array([first]), np.array([count]), base_distance, [fwd], [bwd])
    return (RadiusChoice(sigma=sigma, rho=int(rho[0]),
                         fringe_size=int(size[0])),
            fwd, bwd, dict(zip(v.tolist(), x.tolist())))


def select_radius(g: Graph, pivot: int, base_distance: float, params: Params,
                  rng: random.Random) -> RadiusChoice:
    choice, _, _, _ = select_radius_with_searches(
        g, pivot, base_distance, params, rng)
    return choice
