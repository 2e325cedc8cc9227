"""Directed weighted graph, induced subgraphs, min-merge edge sets, and
the one copy of each mechanism on edge lists.

The graph is stored as (u, v, w) numpy arrays sorted by (u, v), and as
forward and reverse adjacency lists over dense 0-based vertex ids.
``Graph(n, edges)`` and ``Graph.from_arrays`` validate (``check_edges``)
and min-merge with numpy and build each list on first use.  An induced
subgraph (a recursion frame) keeps its parent's ids and is made only by
``cut_frames``, which cuts a level's frames from the parent's CSR in
one pass; a frame's adjacency is dicts keyed by member.
Weights stay in the input's units, which the drivers build in.
Graphs are immutable after construction; EdgeSet, the same sorted
arrays, is the single mutable accumulator of hopset edges.
``merge_min_arrays`` is the one min-merge; ``to_csr`` groups edges for
``Graph.csr`` and the verifier's G + H; ``Graph.lighter`` joins pairs
against a graph's edges; ``read_edges`` and ``write_edges`` are the
graph and hopset file codec.  ``read_edges`` parses with numpy's C
parser and, where numpy refuses the text or a row breaks a rule, with
the line loop that is its reference and that names the faulty line.
"""
from __future__ import annotations

import io
import math
import operator
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

import numpy as np

Edge = Tuple[int, int, float]
EdgeArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


class GraphFormatError(ValueError):
    """Raised when an edge-list file fails to parse."""


def concat_arrays(*parts: EdgeArrays) -> EdgeArrays:
    """The (u, v, w) columns of ``parts``, one after another."""
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def merge_min_arrays(u: np.ndarray, v: np.ndarray,
                     w: np.ndarray) -> EdgeArrays:
    """The edges sorted by (u, v), each pair once at its minimum weight.

    Of equally light parallel edges the first is kept, as in ``Graph``;
    NaN only if all are.  Not sorting by w too halves the time.
    """
    if ((u[1:] > u[:-1]) | (u[1:] == u[:-1]) & (v[1:] > v[:-1])).all():
        return u, v, w  # already sorted, no parallel edges
    order = np.lexsort((v, u))  # stable
    u, v, w = u[order], v[order], w[order]
    head = np.flatnonzero(np.r_[True, (u[1:] != u[:-1]) | (v[1:] != v[:-1])])
    low = np.repeat(np.fmin.reduceat(w, head), np.diff(head, append=len(w)))
    at = np.where((w == low) | np.isnan(low), np.arange(len(w)), len(w))
    keep = np.minimum.reduceat(at, head)  # the first row at its minimum
    return u[keep], v[keep], w[keep]


def _columns(u: Sequence[int], v: Sequence[int], w: Sequence[float],
             array=np.array) -> EdgeArrays:
    """The columns as arrays made by ``array`` (new ones by default); ids
    that overflow int64 as objects."""
    try:
        u, v = array(u, dtype=np.int64), array(v, dtype=np.int64)
    except OverflowError:
        u, v = array(u, dtype=object), array(v, dtype=object)
    return u, v, array(w, dtype=np.float64)


def check_edges(n: int, u: Sequence[int], v: Sequence[int],
                w: Sequence[float]) -> EdgeArrays:
    """The (u, v, w) columns as new arrays; ValueError unless n is an
    integer >= 0, and for the first edge with an endpoint outside [0, n)
    or a weight not finite and >= 0."""
    try:
        if operator.index(n) < 0:
            raise ValueError(f"n must be >= 0, got {n}")
    except TypeError:
        raise ValueError(f"n must be an integer, got {n!r}") from None
    u, v, w = _columns(u, v, w)
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
        self._arrays = u, v, w = merge_min_arrays(*check_edges(n, u, v, w))
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
    """Weighted edges under min-merge: (u, v, w) arrays sorted by (u, v),
    each pair once at its minimum weight (the first of equal weights).
    ``add`` and ``extend`` buffer edges, in order, for the next read to
    merge in; ids are checked only against a graph (``check_edges``)."""

    __slots__ = ("_arrays", "_buffer")

    def __init__(self, edges: Iterable[Edge] = ()):
        self._arrays: EdgeArrays = merge_min_arrays(
            *_columns(*(tuple(zip(*edges)) or ((), (), ()))))
        self._buffer: List = []  # column chunks and lists of added edges

    @classmethod
    def from_arrays(cls, u: Sequence[int], v: Sequence[int],
                    w: Sequence[float]) -> "EdgeSet":
        """``EdgeSet(zip(u, v, w))``, from the edges' columns."""
        out = cls()
        out._arrays = merge_min_arrays(*_columns(u, v, w))
        return out

    def add(self, u: int, v: int, w: float) -> None:
        buf = self._buffer
        if not buf or type(buf[-1]) is not list:
            buf.append([])
        buf[-1].append((u, v, w))

    def extend(self, u: Sequence[int], v: Sequence[int],
               w: Sequence[float]) -> None:
        """Add the edges of the columns u, v and w.  Arrays of the
        right dtypes are not copied: the set reads them at its next
        merge, so callers must not write to them."""
        self._buffer.append(_columns(u, v, w, np.asarray))

    def arrays(self) -> EdgeArrays:
        """The (u, v, w) arrays, sorted by (u, v); the set's own, so
        callers must not write to them."""
        if self._buffer:
            parts, self._buffer = self._buffer, []
            self._arrays = merge_min_arrays(*concat_arrays(self._arrays, *(
                _columns(*zip(*p)) if type(p) is list else p for p in parts)))
        return self._arrays

    def __len__(self) -> int:
        return len(self.arrays()[2])

    def __iter__(self) -> Iterator[Edge]:
        u, v, w = self.arrays()
        return zip(u.tolist(), v.tolist(), w.tolist())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EdgeSet) and all(
            map(np.array_equal, self.arrays(), other.arrays()))


def merge_min(a: EdgeSet, b: EdgeSet) -> EdgeSet:
    """Union of two edge sets keeping the minimum weight per ordered pair."""
    return EdgeSet.from_arrays(*concat_arrays(a.arrays(), b.arrays()))


def augment(g: Graph, h: EdgeSet) -> Graph:
    """Graph over E union H under min-merge; g itself is unmodified."""
    return Graph.from_arrays(g.n, *concat_arrays(g.edge_arrays(),
                                                 h.arrays()))


class InducedSubgraph:
    """The subgraph of ``parent`` induced by the vertices ``global_ids``
    (ascending, distinct, in [0, n)), in the parent's ids.  Frames are
    made only by ``cut_frames``, and by ``induce`` through it.

    ``fwd[x]`` and ``rev[x]`` hold, for each member x, the (y, w) pairs
    of the cut's ``edges`` (the parent's edges between members, in
    (u, v) order); ``low`` is their lightest positive weight.  The
    subgraph on all vertices shares the parent and keeps no lists.
    """

    __slots__ = ("parent", "global_ids", "n", "fwd", "rev",
                 "min_positive_weight")

    def __init__(self, parent: Graph, ids: List[int],
                 edges: Iterable[Edge], low: float):
        self.parent, self.global_ids, self.n = parent, ids, parent.n
        self.min_positive_weight = low
        self.fwd = self.rev = None
        if len(ids) < parent.n:
            fwd, rev = self.fwd, self.rev = {x: [] for x in ids}, \
                {x: [] for x in ids}
            for x, y, w in edges:
                fwd[x].append((y, w))
                rev[y].append((x, w))

    def __len__(self) -> int:
        return len(self.global_ids)

    @property
    def is_full(self) -> bool:
        return len(self.global_ids) == self.parent.n


def cut_frames(g: Graph, parts: Sequence[List[int]],
               d: float) -> List[Optional[InducedSubgraph]]:
    """The frame of g on each of ``parts`` (ascending distinct ids in
    [0, n)) that has a positive edge of weight at most ``d``, else None.
    Every part is cut from g's CSR in one pass: a member's row is
    gathered, and a head kept when its key part * n + head is one of the
    part's keys, which ascend.  Each frame gets its edges in (u, v)
    order and their lightest positive weight (inf if none)."""
    sizes = [len(p) for p in parts]
    members = np.fromiter(chain.from_iterable(parts), np.int64, sum(sizes))
    part = np.repeat(np.arange(len(parts)), sizes)
    keys = part * g.n + members
    indptr, heads, wts = g.csr()
    count = np.diff(indptr)[members]
    edge = np.repeat(indptr[members] - np.cumsum(count) + count, count)
    edge += np.arange(len(edge))  # each member's row, in turn
    tails, part = np.repeat(members, count), np.repeat(part, count)
    key = part * g.n + heads[edge]
    keep = keys[np.searchsorted(keys, key).clip(max=len(keys) - 1)] == key
    edge, part, w = edge[keep], part[keep], wts[edge[keep]]
    low = np.full(len(parts), np.inf)
    np.minimum.at(low, part, np.where(w > 0, w, np.inf))
    bounds = np.searchsorted(part, np.arange(len(parts) + 1)).tolist()
    u, v, w = tails[keep].tolist(), heads[edge].tolist(), w.tolist()
    return [InducedSubgraph(g, p, zip(u[a:b], v[a:b], w[a:b]), x)
            if x <= d else None
            for p, a, b, x in zip(parts, bounds, bounds[1:], low.tolist())]


def induce(g: Graph, subset: Iterable[int]) -> InducedSubgraph:
    """The frame of g on the distinct ids of ``subset``; ValueError for
    an id outside [0, n)."""
    ids = sorted(set(subset))
    if ids and (ids[0] < 0 or ids[-1] >= g.n):
        raise ValueError("vertex id out of range for induced subgraph")
    if len(ids) == g.n:
        return InducedSubgraph(g, ids, (), g.min_positive_weight)
    return cut_frames(g, [ids], math.inf)[0]


_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def read_edges(path: str, header: bool = False
               ) -> Tuple[Optional[int], Optional[int], EdgeArrays]:
    """Parse an edge-list file: (n, m) from a graph file's header, else
    (None, None), and the columns (u, v, w) of the edges in file order.

    Blank lines and lines starting with '#' are skipped.  A graph file
    (``header``) starts with "n m", 0 <= n < 2^63; each further
    line is "u v [w]", w defaulting to 1 and each id in [0, n).  Each
    line of a hopset file is "u v w".  w must be finite and >= 0.
    GraphFormatError names the line that breaks these rules, or the
    graph file without a header.

    The text is read once.  numpy's C parser (``_parse_rows``) reads
    the lines after the header, and numpy checks the rows.  Where numpy
    refuses the text (a '#' line after the header, a 2-column line, an
    id beyond int64, a token ``int`` or ``float`` reads and numpy does
    not) or a row breaks a rule, the line loop ``_parse_lines`` reads
    the same text.  That loop is the reference: the rows numpy accepts
    are the ones it reads, bit for bit, and each GraphFormatError the
    caller sees is its own.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return _parse_rows(path, text, header)
    except ValueError:  # numpy refused the text, or a row breaks a rule
        return _parse_lines(path, text, header)


def _records(lines: Iterable[str]) -> Iterator[Tuple[int, List[str]]]:
    """(line number, fields) of each line that is not blank or a '#'
    comment."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split()


def _parse_header(path: str, lineno: int,
                  parts: List[str]) -> Tuple[int, int]:
    """(n, m) from the fields of a graph file's header line."""
    if len(parts) != 2:
        raise GraphFormatError(f"{path}:{lineno}: expected header 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphFormatError(
            f"{path}:{lineno}: bad header: {exc}") from exc
    if not -2 ** 63 <= n < 2 ** 63:  # then ids fit too
        raise GraphFormatError(f"{path}:{lineno}: n does not fit in 64 bits")
    if n < 0:
        raise GraphFormatError(f"{path}:{lineno}: n must be >= 0")
    return n, m


def _parse_rows(path: str, text: str, header: bool
                ) -> Tuple[Optional[int], Optional[int], EdgeArrays]:
    """``_parse_lines`` by ``np.loadtxt``; ValueError unless each line
    after the header is blank or "u v w" with int64 ids, in [0, n) in a
    graph file, and w finite and >= 0."""
    n = m = None
    lines = io.StringIO(text)
    if header:
        for lineno, parts in _records(lines):
            n, m = _parse_header(path, lineno, parts)
            break
        else:
            raise ValueError("no header")
    body = text[lines.tell():] if header else text
    rows = (np.loadtxt(lines, _ROW, comments=None, ndmin=1)
            if body and not body.isspace() else np.empty(0, _ROW))
    u, v, w = rows["u"], rows["v"], rows["w"]
    bad = ~((w >= 0) & (w < math.inf))
    if header:
        bad |= (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        raise ValueError("a row breaks a rule")
    return n, m, (u, v, w)


def _parse_lines(path: str, text: str, header: bool
                 ) -> Tuple[Optional[int], Optional[int], EdgeArrays]:
    """``read_edges``' result for the file ``path`` of text ``text``, a
    line at a time with ``int`` and ``float``."""
    n = m = None
    us, vs, ws = [], [], []
    usage = "expected 'u v [w]'" if header else "expected 'u v w'"
    for lineno, parts in _records(io.StringIO(text)):
        if header and n is None:
            n, m = _parse_header(path, lineno, parts)
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
        us.append(u)
        vs.append(v)
        ws.append(w)
    if header and n is None:
        raise GraphFormatError(f"{path}: empty file")
    return n, m, _columns(us, vs, ws)


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
    n, m, (u, v, w) = read_edges(path, header=True)
    if len(u) != m:
        raise GraphFormatError(
            f"{path}: header declares {m} edges, found {len(u)}")
    return Graph.from_arrays(n, u, v, w)


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_edges(fh, g.iter_edges(), (g.n, g.m))
