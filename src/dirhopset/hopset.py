"""Sequential hopset construction: level assignment, the recursive
partition-and-shortcut routine, and the unweighted/weighted drivers.

Vertices whose level equals the current recursion depth act as pivots and
partition the frame via forward/backward label stamps; vertices whose
level is within L of the depth act as shortcutters and emit weighted
shortcut edges.  Fringe vertices around each pivot's search boundary are
replicated into a dedicated child frame.  A frame is a vertex subset of
the driver call's root graph and keeps the root's ids throughout.

Every search on a driver call's root graph is batched, through the
``SearchMemo`` of one ``ShortcutSink`` that lives for the call; its
results are shared, so read-only.  A frame searches from its
shortcutters first, so that its pivots' searches are memo hits.  A full
frame's shortcuts go to the sink as one (u, v, w) array chunk per
shortcutter.  Other frames search within themselves and record what
they reach; the sink re-prices all the records at once on the root
graph.  A driver min-merges every shortcut once.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import rng as rngmod
from .graph import (EdgeArrays, EdgeSet, Graph, InducedSubgraph,
                    concat_arrays, induce, merge_min_arrays)
from .params import Params
from .search import (BACKWARD, FORWARD, SearchMemo, SearchResult,
                     select_radius_with_searches)


def assign_levels(n: int, params: Params, rng: random.Random) -> List[int]:
    """Per-vertex first-success scan of levels 0..max_level.

    Level i is taken with probability min(1, lam*k^(i+1)*log(n)/n); the
    probability clamps to 1 at max_level so every vertex gets a level.
    """
    log_n = params.log_n
    probs = [min(1.0, params.lam * (params.k ** (i + 1)) * log_n / n)
             for i in range(params.max_level)] + [1.0]
    return [next(i for i, p in enumerate(probs) if rng.random() < p)
            for _ in range(n)]


@dataclass
class RecursionFrame:
    sub: InducedSubgraph
    base: float          # the driver-level distance D
    level: int
    kind: str            # root | core | fringe


@dataclass
class PivotTrace:
    pivot: int
    sigma: int
    rho: int
    fringe_size: int
    fringe: List[int]
    descendants: List[int]
    ancestors: List[int]


@dataclass
class FrameTrace:
    level: int
    kind: str
    d_r: float
    vertices: List[int]
    pivots: List[PivotTrace] = field(default_factory=list)
    x_vertices: List[int] = field(default_factory=list)
    groups: List[List[int]] = field(default_factory=list)
    shortcutters: List[int] = field(default_factory=list)


class Instrumentation:
    """Per-level counters plus optional full frame traces."""

    def __init__(self, record_frames: bool = False):
        self.record_frames = record_frames
        self.per_level: Dict[int, Dict] = {}
        self.frames: List[FrameTrace] = []

    def _level(self, r: int) -> Dict:
        if r not in self.per_level:
            self.per_level[r] = {"pivot_count": 0, "subproblem_count": 0,
                                 "max_related_set": 0, "fringe_sizes": []}
        return self.per_level[r]

    def to_dict(self) -> dict:
        return {str(r): v for r, v in sorted(self.per_level.items())}


SigmaRng = Callable[[int], random.Random]


class ShortcutSink:
    """The shortcut accumulator of one driver call on one root graph.

    Full frames append (u, v, w) arrays to ``chunks``.  Other frames
    append (source, reached vertices, maxd, covered) records to
    ``pending[direction]``, which ``arrays()`` re-prices into the
    ``EdgeSet`` ``out``.  Also holds the root graph's search memo and,
    for each (source, direction), the radius up to which that source's
    full-frame shortcuts are already emitted (inf once a complete search
    was emitted).  Every shortcut is an exact root distance, so
    re-emitting a covered pair could not change the hopset and is
    skipped, and no heavier than the root edge it parallels, so it is
    kept only if lighter (``Graph.lighter``).  ``full`` is the frame of
    the whole root graph.
    """

    __slots__ = ("root", "full", "out", "chunks", "pending", "memo",
                 "covered")

    def __init__(self, root: Graph):
        self.root = root
        self.full = induce(root, range(root.n))
        self.out = EdgeSet()
        self.chunks: List[EdgeArrays] = []
        self.pending: Dict[str, List[Tuple]] = {}
        self.memo = SearchMemo(root)
        self.covered: Dict[Tuple[int, str], float] = {}

    def arrays(self) -> EdgeArrays:
        """The shortcuts so far that are lighter than the root edge they
        parallel, sorted by (u, v), each pair once at its minimum weight.
        ``pending`` is re-priced first, per direction: one batched root
        search per source at the largest maxd recorded for it, then an
        add for each such pair that is not a self pair or within its
        record's ``covered``."""
        n = self.root.n
        for direction in (FORWARD, BACKWARD):
            recs = sorted(self.pending.pop(direction, []),
                          key=lambda r: (r[0], r[2]))
            bound = {r[0]: r[2] for r in recs}  # ascending, at largest maxd
            count = [len(r[1]) for r in recs]
            us = np.repeat(np.array([r[0] for r in recs], np.int64), count)
            vs = np.fromiter(chain.from_iterable(r[1] for r in recs),
                             np.int64, len(us))
            d = np.empty(len(us))
            cut = np.searchsorted(us, [*bound, n]).tolist()
            row = np.full(n, np.inf)
            for i, res in enumerate(self.memo.search_all(
                    list(bound), list(bound.values()), direction)):
                v, x = res.rows()
                row[v] = x
                d[cut[i]:cut[i + 1]] = row[vs[cut[i]:cut[i + 1]]]
                row[v] = np.inf
            u, v = (us, vs) if direction == FORWARD else (vs, us)
            keep = ((us != vs) & (d > np.repeat([r[3] for r in recs], count))
                    & self.root.lighter(u, v, d))
            for a, b, x in zip(u[keep].tolist(), v[keep].tolist(),
                               d[keep].tolist()):
                self.out.add(a, b, x)
        u, v, w = concat_arrays(self.out.arrays(), *self.chunks)
        keep = self.root.lighter(u, v, w)
        return merge_min_arrays(n, u[keep], v[keep], w[keep])


def _emit_shortcuts(sink: ShortcutSink, sub: InducedSubgraph,
                    src: int, res: SearchResult, direction: str) -> None:
    """Emit a shortcutter's shortcuts at exact root distances, less self
    pairs and covered pairs, for ``sink.arrays()`` to keep those lighter
    than their root edge.  A full frame's root search row becomes one
    array chunk; another frame's reach set is recorded for ``arrays()``
    to re-price, less the vertices within the covered radius, whose root
    distance is too."""
    key = (src, direction)
    covered = sink.covered.get(key, -math.inf)
    if not sub.is_full:
        reached, maxd = res.reached, max(res.reached.values())
        if len(reached) > 1 and maxd > covered:
            sink.pending.setdefault(direction, []).append((src, [
                v for v, x in reached.items() if x > covered], maxd, covered))
        return
    sink.covered[key] = (math.inf if res.complete
                         else max(covered, res.bound))
    vs, ds = res.rows()
    keep = (ds > covered) & (vs != src)
    vs, ds = vs[keep], ds[keep]
    us = np.full(len(vs), src, dtype=np.int64)
    sink.chunks.append((us, vs, ds) if direction == FORWARD
                       else (vs, us, ds))


def _run_shortcutters(sink: ShortcutSink, sub: InducedSubgraph,
                      memo: SearchMemo, shortcutters: Sequence[int],
                      radius: float) -> None:
    """Search ``radius`` both ways from each shortcutter through ``memo``,
    a memo of the frame's graph (batched in a full frame), and emit; a
    direction the sink already covers out to ``radius`` is skipped."""
    for direction in (FORWARD, BACKWARD):
        todo = [s for s in shortcutters
                if sink.covered.get((s, direction), -math.inf) < radius]
        found = (memo.search_all(todo, radius, direction) if sub.is_full
                 else [memo.search(s, radius, direction) for s in todo])
        for s, res in zip(todo, found):
            _emit_shortcuts(sink, sub, s, res, direction)


def hs_recurse(frame: RecursionFrame, levels: Sequence[int],
               params: Params, sigma_rng: SigmaRng, sink: ShortcutSink,
               instr: Optional[Instrumentation] = None) -> None:
    """Process one frame and recurse into its fringe and core children.

    Shortcuts go to ``sink``, a sink of the frame's root graph.  The
    frame searches from its shortcutters, then from its pivots, through
    the sink's root memo if it is full, else through a memo of its own.
    """
    sub = frame.sub
    r = frame.level
    d_r = frame.base / ((params.lam ** r) * (params.k ** (r / 2.0)))
    if d_r <= 0 or d_r < sub.min_positive_weight:
        return  # searches could only creep along zero-weight edges

    trace: Optional[FrameTrace] = None
    if instr is not None:
        lvl = instr._level(r)
        lvl["subproblem_count"] += 1
        if instr.record_frames:
            trace = FrameTrace(level=r, kind=frame.kind, d_r=d_r,
                               vertices=list(sub.global_ids))
            instr.frames.append(trace)

    memo = sink.memo if sub.is_full else SearchMemo(sub)
    ids = sub.global_ids
    shortcutters = [v for v in ids if levels[v] <= r + params.L]
    _run_shortcutters(sink, sub, memo, shortcutters, params.rho_max * d_r)
    pivots = [v for v in ids if levels[v] == r]
    # per vertex, its (pivot, direction) labels; X: labelled both ways
    labels: Dict[int, Set[Tuple[int, str]]] = {v: set() for v in ids}
    x_flag: Set[int] = set()
    fringe_sets: List[Set[int]] = []

    for p in pivots:
        choice, fwd, bwd, dmin = select_radius_with_searches(
            memo.graph, p, d_r, params, sigma_rng(p), memo)
        rho = choice.rho
        radius = rho * d_r
        des = {v for v, d in fwd.reached.items() if d <= radius}
        anc = {v for v, d in bwd.reached.items() if d <= radius}
        for v in des:
            labels[v].add((p, "D"))
        for v in anc:
            labels[v].add((p, "A"))
        x_flag.update(des & anc)
        fringe = {v for v, d in dmin.items()
                  if (rho - 1) * d_r < d <= (rho + 1) * d_r}
        if fringe:
            fringe_sets.append(fringe)
        if instr is not None:
            lvl = instr._level(r)
            lvl["pivot_count"] += 1
            lvl["max_related_set"] = max(lvl["max_related_set"], len(dmin))
            lvl["fringe_sizes"].append(choice.fringe_size)
        if trace is not None:
            trace.pivots.append(PivotTrace(
                pivot=p, sigma=choice.sigma, rho=rho,
                fringe_size=choice.fringe_size, fringe=sorted(fringe),
                descendants=sorted(des), ancestors=sorted(anc)))

    if trace is not None:
        trace.shortcutters = shortcutters
        trace.x_vertices = sorted(x_flag)

    # partition the X-free remainder by exact label set
    groups: Dict[Tuple, List[int]] = {}
    for v in ids:
        if v not in x_flag:
            groups.setdefault(tuple(sorted(labels[v])), []).append(v)
    ordered_groups = [groups[k] for k in sorted(groups)]
    if trace is not None:
        trace.groups = ordered_groups

    if r >= params.max_level:
        return
    for part, kind in ([(f, "fringe") for f in fringe_sets]
                       + [(grp, "core") for grp in ordered_groups]):
        child = induce(sub.parent, part)
        hs_recurse(RecursionFrame(child, frame.base, r + 1, kind),
                   levels, params, sigma_rng, sink, instr)


def _run_scale(sink: ShortcutSink, params: Params, seed: int, keys: Tuple,
               radius: float, base: float, instr: Optional[Instrumentation],
               prefix: str = "") -> None:
    """One distance scale of a driver on the sink's root graph.

    Draws levels from the stream (seed, prefix + "level", *keys), runs
    the driver loop's shortcutters out to ``radius``, then the root
    frame from distance ``base`` when it is > 0, with the streams
    (seed, prefix + "sigma", *keys, pivot).  The driver loop is skipped
    when the root frame subsumes it: that frame runs (base >= the
    lightest positive weight, which is > 0) and searches the same
    shortcutters at least as far (rho_max * base >= radius).
    """
    root = sink.root
    levels = assign_levels(
        root.n, params, rngmod.stream(seed, prefix + "level", *keys))
    if radius > params.rho_max * base or base < root.min_positive_weight:
        _run_shortcutters(sink, sink.full, sink.memo, [
            v for v in range(root.n) if levels[v] <= params.L], radius)
    if base > 0:
        hs_recurse(RecursionFrame(sink.full, base, 0, "root"), levels,
                   params, lambda gid: rngmod.stream(
                       seed, prefix + "sigma", *keys, gid), sink, instr)


def default_scale_range(n: int, weighted: bool,
                        max_weight: float = 1.0) -> Tuple[int, int]:
    """Inclusive (lo, hi) distance-scale exponents for the drivers."""
    log_n = math.log2(n)
    if weighted:
        return (-1, math.ceil(math.log2(n * max(max_weight, 1.0))))
    return (math.ceil(log_n / 2.0), math.ceil(log_n))


def normalize_weights(g: Graph) -> Tuple[Graph, float]:
    """(g with every weight times s, s): s = 1 / g.min_positive_weight
    when that weight is below 1, else s = 1 and the graph is g itself.

    The drivers assume a lightest positive weight of at least 1: they
    build on the scaled graph and divide their output by s.  ValueError
    when the heaviest weight times s overflows a float."""
    if not g.min_positive_weight < 1.0:
        return g, 1.0
    s = 1.0 / g.min_positive_weight
    if not g.max_weight * s < math.inf:
        raise ValueError(f"weight range overflows a float: heaviest / "
                         f"lightest positive weight = {g.max_weight!r} / "
                         f"{g.min_positive_weight!r}")
    u, v, w = g.edge_arrays()
    return Graph.from_arrays(g.n, u, v, w * s), s


def _run_scales(g: Graph, params: Params, seed: int, weighted: bool,
                scale_range: Optional[Tuple[int, int]],
                instr: Optional[Instrumentation]) -> EdgeSet:
    g, s = normalize_weights(g)
    lo, hi = scale_range or default_scale_range(g.n, weighted, g.max_weight)
    sink = ShortcutSink(g)
    for rep in range(params.repetitions):
        for j in range(lo, hi + 1):
            _run_scale(sink, params, seed, (rep, j), 2.0 ** (j + 1),
                       (2.0 ** j) * (params.k ** (-params.c)), instr)
    u, v, w = sink.arrays()
    return EdgeSet.from_arrays(u, v, w / s)  # in the input's units


def hopset_unweighted(g: Graph, params: Params, seed: int = 0, *,
                      scale_range: Optional[Tuple[int, int]] = None,
                      instr: Optional[Instrumentation] = None) -> EdgeSet:
    """Hopset for a unit-weight directed graph."""
    if (g.edge_arrays()[2] != 1.0).any():
        raise ValueError("unweighted driver requires all weights == 1")
    return _run_scales(g, params, seed, False, scale_range, instr)


def hopset_weighted(g: Graph, params: Params, seed: int = 0, *,
                    scale_range: Optional[Tuple[int, int]] = None,
                    instr: Optional[Instrumentation] = None) -> EdgeSet:
    """Hopset for a nonnegative-weight directed graph, in g's units.

    A given ``scale_range`` (inclusive distance-scale exponents) is in
    the units of ``normalize_weights(g)``, which the build runs on.
    """
    return _run_scales(g, params, seed, True, scale_range, instr)
