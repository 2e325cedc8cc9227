"""Directed weighted graph, induced subgraphs, and min-merge edge sets.

The graph is stored as forward and reverse adjacency lists over dense
0-based vertex ids.  Graphs are immutable after construction; EdgeSet is
the single mutable accumulator used to collect hopset edges.
"""
from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

Edge = Tuple[int, int, float]


class GraphFormatError(ValueError):
    """Raised when an edge-list file fails to parse."""


class Graph:
    """Immutable directed graph with nonnegative real edge weights."""

    __slots__ = ("n", "fwd", "rev", "max_weight", "min_positive_weight",
                 "scale", "_edge_map")

    def __init__(self, n: int, edges: Iterable[Edge] = (), *,
                 scale: float = 1.0):
        self.n = n
        self.scale = scale
        fwd: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        rev: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        # collapse parallel edges to minimum weight
        best: Dict[Tuple[int, int], float] = {}
        inf = math.inf
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if not 0 <= w < inf:
                raise ValueError(
                    f"weight on edge ({u},{v}) must be finite and "
                    f">= 0: {w}")
            key = (u, v)
            if key not in best or w < best[key]:
                best[key] = w
        for (u, v), w in sorted(best.items()):
            fwd[u].append((v, w))
            rev[v].append((u, w))
        self.fwd, self.rev = fwd, rev
        self.max_weight = 0.0
        self.min_positive_weight = math.inf
        for nbrs in self.fwd:
            for _, w in nbrs:
                if w > self.max_weight:
                    self.max_weight = w
                if 0 < w < self.min_positive_weight:
                    self.min_positive_weight = w
        self._edge_map: Optional[Dict[Tuple[int, int], float]] = None

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.fwd)

    def iter_edges(self) -> Iterator[Edge]:
        for u, nbrs in enumerate(self.fwd):
            for v, w in nbrs:
                yield (u, v, w)

    def edge_weight(self, u: int, v: int) -> Optional[float]:
        if self._edge_map is None:
            self._edge_map = {(a, b): w for a, b, w in self.iter_edges()}
        return self._edge_map.get((u, v))


def transpose_view(g: Graph) -> Graph:
    """O(1) view with forward and reverse adjacency swapped."""
    t = Graph.__new__(Graph)
    t.n = g.n
    t.scale = g.scale
    t.fwd = g.rev
    t.rev = g.fwd
    t.max_weight = g.max_weight
    t.min_positive_weight = g.min_positive_weight
    t._edge_map = None
    return t


class EdgeSet:
    """Weighted edge collection with min-weight-merge union semantics."""

    __slots__ = ("entries",)

    def __init__(self, entries: Optional[Dict[Tuple[int, int], float]] = None):
        self.entries: Dict[Tuple[int, int], float] = dict(entries or {})

    def add(self, u: int, v: int, w: float) -> None:
        key = (u, v)
        cur = self.entries.get(key)
        if cur is None or w < cur:
            self.entries[key] = w

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Edge]:
        for (u, v), w in self.entries.items():
            yield (u, v, w)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EdgeSet) and self.entries == other.entries

    def copy(self) -> "EdgeSet":
        return EdgeSet(self.entries)

    def sorted_edges(self) -> List[Edge]:
        return [(u, v, w) for (u, v), w in sorted(self.entries.items())]


def merge_min(a: EdgeSet, b: EdgeSet) -> EdgeSet:
    """Union of two edge sets keeping the minimum weight per ordered pair."""
    out = a.copy()
    for (u, v), w in b.entries.items():
        out.add(u, v, w)
    return out


def augment(g: Graph, h: EdgeSet) -> Graph:
    """Graph over E union H under min-merge; g itself is unmodified."""
    for (u, v) in h.entries:
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise ValueError(f"hopset endpoint ({u},{v}) out of range")
    merged: Dict[Tuple[int, int], float] = dict(h.entries)
    for u, v, w in g.iter_edges():
        key = (u, v)
        cur = merged.get(key)
        if cur is None or w < cur:
            merged[key] = w
    return Graph(g.n, ((u, v, w) for (u, v), w in merged.items()),
                 scale=g.scale)


class InducedSubgraph:
    """Materialized subgraph on a vertex subset with local<->global id maps.

    Local ids follow ascending global id order.  The subgraph on all
    vertices shares the parent graph instead of copying it.
    """

    __slots__ = ("parent", "global_ids", "local_of", "graph")

    def __init__(self, parent: Graph, subset: Iterable[int]):
        ids = sorted(set(subset))
        if ids and (ids[0] < 0 or ids[-1] >= parent.n):
            raise ValueError("vertex id out of range for induced subgraph")
        self.parent = parent
        self.global_ids: List[int] = ids
        self.local_of: Dict[int, int] = {g_id: i for i, g_id in enumerate(ids)}
        if len(ids) == parent.n:
            self.graph = parent
            return
        members = self.local_of
        edges = []
        for g_u in ids:
            lu = members[g_u]
            for g_v, w in parent.fwd[g_u]:
                lv = members.get(g_v)
                if lv is not None:
                    edges.append((lu, lv, w))
        self.graph = Graph(len(ids), edges, scale=parent.scale)

    def __len__(self) -> int:
        return len(self.global_ids)

    @property
    def is_full(self) -> bool:
        return len(self.global_ids) == self.parent.n

    def to_global(self, local: int) -> int:
        return self.global_ids[local]

    def to_local(self, global_id: int) -> int:
        return self.local_of[global_id]


def induce(g: Graph, subset: Iterable[int]) -> InducedSubgraph:
    return InducedSubgraph(g, subset)


def load_graph(path: str) -> Graph:
    """Parse an edge-list file.

    Format: first non-comment line "n m", then m lines "u v [w]" with w
    defaulting to 1.  Lines starting with '#' are comments.  If the lightest
    positive weight is below 1, all weights are scaled by its reciprocal and
    the factor recorded on the graph.
    """
    header: Optional[Tuple[int, int]] = None
    edges: List[Edge] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if header is None:
                if len(parts) != 2:
                    raise GraphFormatError(
                        f"{path}:{lineno}: expected header 'n m'")
                try:
                    header = (int(parts[0]), int(parts[1]))
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{path}:{lineno}: bad header: {exc}") from exc
                continue
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'u v [w]'")
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: bad edge: {exc}") from exc
            if not 0 <= w < math.inf:
                raise GraphFormatError(
                    f"{path}:{lineno}: weight must be finite and >= 0: {w}")
            n = header[0]
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(
                    f"{path}:{lineno}: vertex id out of range [0,{n})")
            edges.append((u, v, w))
    if header is None:
        raise GraphFormatError(f"{path}: empty file")
    n, m = header
    if len(edges) != m:
        raise GraphFormatError(
            f"{path}: header declares {m} edges, found {len(edges)}")
    min_pos = min((w for _, _, w in edges if w > 0), default=math.inf)
    scale = 1.0
    if 0 < min_pos < 1.0:
        scale = 1.0 / min_pos
        edges = [(u, v, w * scale) for u, v, w in edges]
    return Graph(n, edges, scale=scale)


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v, w in sorted(g.iter_edges()):
            fh.write(f"{u} {v} {w!r}\n")
