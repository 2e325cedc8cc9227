"""Directed weighted graph, induced subgraphs, min-merge edge sets, and
the one copy of each mechanism on edge lists.

The graph is stored as (u, v, w) numpy arrays sorted by (u, v), and as
forward and reverse adjacency lists over dense 0-based vertex ids.
``Graph(n, edges)`` and ``Graph.from_arrays`` validate (``check_edges``)
and min-merge with numpy and build each list on first use.  An induced
subgraph keeps its parent's ids: its adjacency is dicts keyed by member,
filtered from the parent's lists.  Weights stay in the input's units:
the drivers normalise them.  Graphs are immutable after construction;
EdgeSet is the single mutable accumulator used to collect hopset edges.
``to_csr`` groups edges for ``Graph.csr`` and the verifier's G + H;
``Graph.lighter`` joins pairs against a graph's edges; ``read_edges``
and ``write_edges`` are the graph and hopset file codec.
"""
from __future__ import annotations

import math
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, TextIO, Tuple)

import numpy as np

Edge = Tuple[int, int, float]
EdgeArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


class GraphFormatError(ValueError):
    """Raised when an edge-list file fails to parse."""


def concat_arrays(*parts: EdgeArrays) -> EdgeArrays:
    """The (u, v, w) columns of ``parts``, one after another."""
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def merge_min_arrays(n: int, u: np.ndarray, v: np.ndarray,
                     w: np.ndarray) -> EdgeArrays:
    """The edges on ``n`` vertices sorted by (u, v), each pair once at
    its minimum weight.

    Of equally light parallel edges the first is kept, as in ``Graph``.
    """
    key = u * n + v
    if (key[1:] > key[:-1]).all():
        return u, v, w  # already sorted, no parallel edges
    order = np.lexsort((w, key))  # stable
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    order = order[first]
    return u[order], v[order], w[order]


def _ids(x) -> np.ndarray:
    """``x`` as int64, or as objects if an id overflows (out of range)."""
    try:
        return np.array(x, dtype=np.int64)
    except OverflowError:
        return np.array(x, dtype=object)


def check_edges(n: int, u: Sequence[int], v: Sequence[int],
                w: Sequence[float]) -> EdgeArrays:
    """The (u, v, w) columns as new arrays; ValueError for the first edge
    with an endpoint outside [0, n) or a weight not finite and >= 0."""
    u, v, w = _ids(u), _ids(v), np.array(w, dtype=np.float64)
    bad = ((u < 0) | (u >= n) | (v < 0) | (v >= n)
           | ~((w >= 0) & (w < math.inf)))
    if bad.any():
        i = int(np.argmax(bad))
        a, b = int(u[i]), int(v[i])
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a},{b}) out of range for n={n}")
        raise ValueError(f"weight on edge ({a},{b}) must be finite "
                         f"and >= 0: {float(w[i])}")
    return u, v, w


def to_csr(n: int, a: np.ndarray, b: np.ndarray,
           w: np.ndarray) -> EdgeArrays:
    """(indptr, b, w) stably regrouped by a in [0, n): the edges out of x
    lead to b[indptr[x]:indptr[x + 1]].  Parallel edges stay."""
    order = np.argsort(a, kind="stable")
    return np.searchsorted(a[order], np.arange(n + 1)), b[order], w[order]


def _adjacency(indptr: np.ndarray, b: np.ndarray,
               w: np.ndarray) -> List[List[Tuple[int, float]]]:
    """Per vertex x, the (b, w) pairs in [indptr[x], indptr[x + 1])."""
    pairs = list(zip(b.tolist(), w.tolist()))
    bounds = indptr.tolist()
    return [pairs[s:e] for s, e in zip(bounds, bounds[1:])]


class Graph:
    """Immutable directed graph with nonnegative real edge weights, in
    the units of its input.

    ``fwd[u]`` holds (v, w) by ascending v and ``rev[v]`` holds (u, w) by
    ascending u; parallel edges are collapsed to the minimum weight.
    """

    __slots__ = ("n", "_fwd", "_rev", "max_weight", "min_positive_weight",
                 "_arrays", "_csr")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        self._merge(n, *(tuple(zip(*edges)) or ((), (), ())))

    @classmethod
    def from_arrays(cls, n: int, u: Sequence[int], v: Sequence[int],
                    w: Sequence[float]) -> "Graph":
        """``Graph(n, zip(u, v, w))``, from the edges' columns."""
        g = cls.__new__(cls)
        g._merge(n, u, v, w)
        return g

    def _merge(self, n: int, u: Sequence[int], v: Sequence[int],
               w: Sequence[float]) -> None:
        self.n = n
        self._fwd = self._rev = None
        self._arrays = u, v, w = merge_min_arrays(n, *check_edges(n, u, v, w))
        self._csr = [None, None]
        pos = w[w > 0]
        self.max_weight = float(pos.max()) if len(pos) else 0.0
        self.min_positive_weight = float(pos.min()) if len(pos) else math.inf

    @property
    def fwd(self) -> List[List[Tuple[int, float]]]:
        if self._fwd is None:
            self._fwd = _adjacency(*self.csr())
        return self._fwd

    @property
    def rev(self) -> List[List[Tuple[int, float]]]:
        if self._rev is None:
            self._rev = _adjacency(*self.csr(reverse=True))
        return self._rev

    def edge_arrays(self) -> EdgeArrays:
        """(u, v, w) arrays of the edges, sorted by (u, v).

        The arrays are the graph's own: callers must not write to them.
        """
        return self._arrays

    def csr(self, reverse: bool = False) -> EdgeArrays:
        """``to_csr`` of the edges by tail (by head if ``reverse``), heads
        ascending in each group; made once per direction, read-only."""
        csr = self._csr[reverse]
        if csr is None:
            a, b, w = self.edge_arrays()
            csr = self._csr[reverse] = to_csr(
                self.n, *((b, a, w) if reverse else (a, b, w)))
        return csr

    def lighter(self, u: np.ndarray, v: np.ndarray,
                w: np.ndarray) -> np.ndarray:
        """Mask of the pairs (u[i], v[i]) that have no edge in the graph
        or whose w[i] is below that edge's weight."""
        a, b, x = self.edge_arrays()
        if not len(a):
            return np.ones(len(w), dtype=bool)
        ekey, key = a * self.n + b, u * self.n + v
        at = np.searchsorted(ekey, key).clip(max=len(ekey) - 1)
        return (ekey[at] != key) | (w < x[at])

    @property
    def m(self) -> int:
        return len(self.edge_arrays()[0])

    def iter_edges(self) -> Iterator[Edge]:
        u, v, w = self.edge_arrays()
        return zip(u.tolist(), v.tolist(), w.tolist())

    def edge_weight(self, u: int, v: int) -> Optional[float]:
        """The weight of edge (u, v), or None if there is none."""
        return dict(self.fwd[u]).get(v) if 0 <= u < self.n else None


class EdgeSet:
    """Weighted edge collection with min-weight-merge union semantics."""

    __slots__ = ("entries",)

    def __init__(self, entries: Optional[Dict[Tuple[int, int], float]] = None):
        self.entries: Dict[Tuple[int, int], float] = dict(entries or {})

    @classmethod
    def from_arrays(cls, u: np.ndarray, v: np.ndarray,
                    w: np.ndarray) -> "EdgeSet":
        """The edge set of distinct (u, v) pairs with weights w."""
        return cls(dict(zip(zip(u.tolist(), v.tolist()), w.tolist())))

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

    def arrays(self) -> EdgeArrays:
        """(u, v, w) numpy arrays of the entries, in iteration order."""
        uv = _ids(list(self.entries)).reshape(-1, 2)
        w = np.fromiter(self.entries.values(), dtype=np.float64,
                        count=len(self.entries))
        return uv[:, 0], uv[:, 1], w


def merge_min(a: EdgeSet, b: EdgeSet) -> EdgeSet:
    """Union of two edge sets keeping the minimum weight per ordered pair."""
    out = EdgeSet(a.entries)
    for (u, v), w in b.entries.items():
        out.add(u, v, w)
    return out


def augment(g: Graph, h: EdgeSet) -> Graph:
    """Graph over E union H under min-merge; g itself is unmodified."""
    return Graph.from_arrays(g.n, *concat_arrays(g.edge_arrays(),
                                                 h.arrays()))


class InducedSubgraph:
    """The subgraph of ``parent`` induced by the vertices ``global_ids``
    (ascending), in the parent's ids, which are in [0, n).

    ``fwd[x]`` and ``rev[x]`` hold, for each member x, the parent's
    (y, w) pairs whose y is a member, in the parent's order.  The
    subgraph on all vertices shares the parent and keeps no lists.
    """

    __slots__ = ("parent", "global_ids", "n", "fwd", "rev",
                 "min_positive_weight")

    def __init__(self, parent: Graph, subset: Iterable[int]):
        ids = sorted(set(subset))
        if ids and (ids[0] < 0 or ids[-1] >= parent.n):
            raise ValueError("vertex id out of range for induced subgraph")
        self.parent, self.global_ids, self.n = parent, ids, parent.n
        if len(ids) == parent.n:
            self.fwd = self.rev = None
            self.min_positive_weight = parent.min_positive_weight
            return
        pfwd = parent.fwd
        fwd, rev = self.fwd, self.rev = {}, {x: [] for x in ids}
        for x in ids:
            fwd[x] = nbrs = []
            for y, w in pfwd[x]:
                if y in rev:  # a member
                    nbrs.append((y, w))
                    rev[y].append((x, w))
        self.min_positive_weight = min(
            (w for nbrs in fwd.values() for _, w in nbrs if w > 0),
            default=math.inf)

    def __len__(self) -> int:
        return len(self.global_ids)

    @property
    def is_full(self) -> bool:
        return len(self.global_ids) == self.parent.n


def induce(g: Graph, subset: Iterable[int]) -> InducedSubgraph:
    return InducedSubgraph(g, subset)


def read_edges(path: str, add: Callable[[int, int, float], object],
               header: bool = False) -> Tuple[Optional[int], Optional[int]]:
    """Parse an edge-list file, calling add(u, v, w) per edge in file
    order; returns (n, m) from a graph file's header, else (None, None).

    Blank lines and lines starting with '#' are skipped.  A graph file
    (``header``) starts with "n m", n fitting in 64 bits; each further
    line is "u v [w]", w defaulting to 1 and each id in [0, n).  Each
    line of a hopset file is "u v w".  w must be finite and >= 0.
    GraphFormatError names the line that breaks these rules, or the
    graph file without a header.
    """
    n = m = None
    usage = "expected 'u v [w]'" if header else "expected 'u v w'"
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if header and n is None:
                if len(parts) != 2:
                    raise GraphFormatError(
                        f"{path}:{lineno}: expected header 'n m'")
                try:
                    n, m = int(parts[0]), int(parts[1])
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{path}:{lineno}: bad header: {exc}") from exc
                if not -2 ** 63 <= n < 2 ** 63:  # then ids fit too
                    raise GraphFormatError(
                        f"{path}:{lineno}: n does not fit in 64 bits")
                continue
            if len(parts) != 3 and not (header and len(parts) == 2):
                raise GraphFormatError(f"{path}:{lineno}: {usage}")
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: bad edge: {exc}") from exc
            if not 0 <= w < math.inf:
                raise GraphFormatError(
                    f"{path}:{lineno}: weight must be finite and >= 0: {w}")
            if header and not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(
                    f"{path}:{lineno}: vertex id out of range [0,{n})")
            add(u, v, w)
    if header and n is None:
        raise GraphFormatError(f"{path}: empty file")
    return n, m


def write_edges(fh: TextIO, edges: Iterable[Edge],
                header: Optional[Tuple[int, int]] = None) -> None:
    """Write the line "n m" of a graph file's ``header`` (n, m), then a
    line "u v w" per edge, w by repr."""
    if header:
        fh.write(f"{header[0]} {header[1]}\n")
    for u, v, w in edges:
        fh.write(f"{u} {v} {w!r}\n")


def load_graph(path: str) -> Graph:
    """The graph in a graph file (see ``read_edges``), in its units."""
    edges: List[Edge] = []
    n, m = read_edges(path, lambda *edge: edges.append(edge), header=True)
    if len(edges) != m:
        raise GraphFormatError(
            f"{path}: header declares {m} edges, found {len(edges)}")
    return Graph(n, edges)


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_edges(fh, g.iter_edges(), (g.n, g.m))
