"""Sequential hopset construction: level assignment, the recursive
partition-and-shortcut routine, and the unweighted/weighted drivers.

Vertices whose level equals the current recursion depth act as pivots and
partition the frame via forward/backward label stamps; vertices whose
level is within L of the depth act as shortcutters and emit weighted
shortcut edges.  Fringe vertices around each pivot's search boundary are
replicated into a dedicated child frame.  A frame is a vertex subset of
the driver call's root graph and keeps the root's ids throughout.  The
recursion runs a level at a time, and partitions all frames of a level
in one numpy pass; a child frame that would return at once is never
built.

Every search on a driver call's root graph is batched, through the
``SearchMemo`` of one ``ShortcutSink`` that lives for the call; its
results are shared, so read-only.  A driver call searches each root
source once per direction, at its widest radius, before its first scale,
and a frame from its shortcutters first, so pivots' searches are memo
hits.  Every shortcut goes into the sink's ``EdgeSet``, which min-merges
it once: a full frame's as one (u, v, w) array chunk per shortcutter.
Other frames search within themselves and record what they reach; the
sink re-prices all the records at once on the root graph.
"""
from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import rng as rngmod
from .graph import (EdgeArrays, EdgeSet, Graph, InducedSubgraph,
                    cut_frames, induce)
from .params import Params
from .search import (BACKWARD, FORWARD, SearchMemo, SearchResult,
                     choose_radii, draw_interval)


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

    Full frames extend the ``EdgeSet`` ``out`` by (u, v, w) arrays.
    Other frames append (source, reached vertices, maxd, covered)
    records to ``pending[direction]``, which ``arrays()`` re-prices and
    adds to ``out``.  Also holds the root graph's search memo and, for
    each (source, direction), the radius up to which that source's
    full-frame shortcuts are already emitted (inf once a complete search
    was emitted).  Every shortcut is an exact root distance, so
    re-emitting a covered pair could not change the hopset and is
    skipped, and no heavier than the root edge it parallels, so it is
    kept only if lighter (``Graph.lighter``).  ``full`` is the frame of
    the whole root graph.
    """

    __slots__ = ("root", "full", "out", "pending", "memo", "covered")

    def __init__(self, root: Graph):
        self.root = root
        self.full = induce(root, range(root.n))
        self.out = EdgeSet()
        self.pending: Dict[str, List[Tuple]] = {}
        self.memo = SearchMemo(root)
        self.covered: Dict[Tuple[int, str], float] = {}

    def arrays(self) -> EdgeArrays:
        """The shortcuts so far that are lighter than the root edge they
        parallel, sorted by (u, v), each pair once at its minimum weight.
        ``pending`` is re-priced first, per direction: one batched root
        search per source at the largest maxd recorded for it, then an
        add for each lighter such pair that is not a self pair or within
        its record's ``covered``.  All of ``out`` is masked after its
        min-merge: its duplicates are equal root distances."""
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
        u, v, w = self.out.arrays()
        keep = self.root.lighter(u, v, w)
        return u[keep], v[keep], w[keep]


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
    sink.out.extend(*((us, vs, ds) if direction == FORWARD else (vs, us, ds)))


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


def _frame_distance(base: float, r: int, params: Params) -> float:
    """d_r, the distance unit of a level-r frame from distance ``base``;
    0 where lam^r k^(r/2) passes the floats.  A driver's ``base`` is
    below 2^1023 of its graph's weight unit 2^e (``check_scales``), so
    d_r is then below 2^e, at most the graph's least positive weight."""
    try:
        return base / ((params.lam ** r) * (params.k ** (r / 2.0)))
    except OverflowError:
        return 0.0


def hs_recurse(frame: RecursionFrame, levels: Sequence[int],
               params: Params, sigma_rng: SigmaRng, sink: ShortcutSink,
               instr: Optional[Instrumentation] = None) -> None:
    """Process one frame and its subtree of fringe and core children, a
    level at a time, each level's frames in preorder (the order of a
    depth-first recursion): each runs its shortcutters and searches
    (``_run_frame``), then ``_partition_level`` partitions them all.
    Shortcuts go to ``sink``, a sink of the frame's root graph.  A
    level's children are cut from the root graph in one pass
    (``cut_frames``); a child with no positive edge within its d_r would
    return at once and is never built.  ``instr.frames`` gets the
    subtree's traces in preorder.
    """
    base, r = frame.base, frame.level
    d_r = _frame_distance(base, r, params)
    if d_r <= 0 or d_r < frame.sub.min_positive_weight:
        return  # searches could only creep along zero-weight edges
    first = len(instr.frames) if instr is not None else 0
    level, paths = [((), frame)], []  # a frame's path: its child indices
    while level:
        children = _partition_level([f for _, f in level], [
            _run_frame(f, d_r, levels, params, sigma_rng, sink, instr)
            for _, f in level], d_r, r >= params.max_level, instr)
        parts = [(path + (i,), kind, part)  # each child, in preorder
                 for (path, _), kids in zip(level, children)
                 for i, (part, kind) in enumerate(kids)]
        paths += [path for path, _ in level]
        r += 1
        d_r = _frame_distance(base, r, params)
        subs = cut_frames(frame.sub.parent, [p for _, _, p in parts], d_r)
        level = [(path, RecursionFrame(sub, base, r, kind))
                 for (path, kind, _), sub in zip(parts, subs)
                 if sub is not None]
    if instr is not None and instr.record_frames:  # paths are distinct
        instr.frames[first:] = [t for _, t in sorted(zip(
            paths, instr.frames[first:]))]


def _run_frame(frame: RecursionFrame, d_r: float, levels: Sequence[int],
               params: Params, sigma_rng: SigmaRng, sink: ShortcutSink,
               instr: Optional[Instrumentation]) -> List[Tuple]:
    """Start a frame's trace, run its shortcutters, and return each of
    its pivots' (pivot, sigma, least candidate, candidate count, forward
    and backward searches to (largest candidate + 1) * d_r), ascending;
    through the sink's root memo if the frame is full, else its own."""
    sub, r = frame.sub, frame.level
    ids = sub.global_ids
    memo = sink.memo if sub.is_full else SearchMemo(sub)
    shortcutters = [v for v in ids if levels[v] <= r + params.L]
    if instr is not None and instr.record_frames:
        instr.frames.append(FrameTrace(
            level=r, kind=frame.kind, d_r=d_r, vertices=list(ids),
            shortcutters=shortcutters))
    _run_shortcutters(sink, sub, memo, shortcutters, params.rho_max * d_r)
    draws = []
    for p in ids:
        if levels[p] == r:
            sigma, candidates = draw_interval(params, sigma_rng(p))
            bound = (candidates[-1] + 1) * d_r
            draws.append((p, sigma, candidates[0], len(candidates),
                          memo.search(p, bound, FORWARD),
                          memo.search(p, bound, BACKWARD)))
    return draws


def _split(values: np.ndarray, key: np.ndarray, count: int) -> List[List]:
    """``values`` as ``count`` lists, list i the values whose ``key``, an
    ascending array, is i."""
    cut = np.searchsorted(key, np.arange(count + 1)).tolist()
    values = values.tolist()
    return [values[a:b] for a, b in zip(cut, cut[1:])]


def _partition_level(frames: Sequence[RecursionFrame],
                     draws: Sequence[List[Tuple]], d_r: float, last: bool,
                     instr: Optional[Instrumentation]) -> List[List[Tuple]]:
    """Partition the frames of a level of unit ``d_r`` in one numpy pass
    over their ``_run_frame`` draws.  ``choose_radii`` picks each pivot
    p's rho; p labels its frame's vertices within rho * d_r forward (p,
    "D") and backward (p, "A"), coded 2p + 1 and 2p to keep that order.
    X holds those labelled both ways by one pivot; the rest of a frame
    groups by label set, in sorted label tuple order.  Labels are kept
    per position in the level, so per frame.  Fills ``instr`` and the
    frames' traces, the last ones.  Returns each frame's children
    (vertices, kind): nonempty fringe sets, then core groups, each
    ascending; none at the ``last`` level."""
    n, r = frames[0].sub.parent.n, frames[0].level
    pivot, sigma, first, count, fwd, bwd = list(zip(
        *(d for ds in draws for d in ds))) or [()] * 6
    rho, size, (j, v, fd, bd, dmin) = choose_radii(
        np.array(first, np.int64), np.array(count, np.int64), d_r, fwd, bwd)
    with np.errstate(over="ignore"):  # inf, as in Python's floats
        lo, radius, hi = ((rho + t) * d_r for t in (-1, 0, 1))
    des, anc = fd <= radius[j], bd <= radius[j]
    sizes = [len(f.sub.global_ids) for f in frames]
    ids = np.fromiter(chain.from_iterable(f.sub.global_ids for f in frames),
                      np.int64, sum(sizes))
    frame_of = np.repeat(np.arange(len(frames)), sizes)
    owner = np.repeat(np.arange(len(frames)), [len(ds) for ds in draws])
    pos = np.searchsorted(frame_of * n + ids, owner[j] * n + v)
    x_flag = np.zeros(len(ids), bool)
    x_flag[pos[des & anc]] = True
    # the X-free labelled positions' label tuples; a position's rows
    # ascend by pivot, so by code
    lab = np.flatnonzero((des | anc) & ~x_flag[pos])
    at = np.argsort(pos[lab], kind="stable")
    code = (2 * np.array(pivot, np.int64)[j[lab]] + des[lab])[at].tolist()
    lab = pos[lab][at]
    cut = np.flatnonzero(np.diff(lab, prepend=-1)).tolist() + [len(lab)]
    sets = [tuple(code[a:b]) for a, b in zip(cut, cut[1:])]
    names = {s: i for i, s in enumerate(sorted(set(sets)), 1)}  # () is 0
    rank = np.zeros(len(ids), np.int64)
    rank[lab[cut[:-1]]] = [names[s] for s in sets]
    free = np.flatnonzero(~x_flag)
    key, group = np.unique(frame_of[free] * (len(names) + 1) + rank[free],
                           return_inverse=True)
    at = np.argsort(group, kind="stable")
    groups = _split(ids[free][at], group[at], len(key))
    fringe = (lo[j] < dmin) & (dmin <= hi[j])
    fringes = _split(v[fringe], j[fringe], len(pivot))
    group_cut, pivot_cut = (np.searchsorted(a, np.arange(len(frames) + 1))
                            .tolist() for a in (key // (len(names) + 1),
                                                owner))
    if instr is not None:
        lvl = instr._level(r)
        lvl["subproblem_count"] += len(frames)
        lvl["pivot_count"] += len(pivot)
        lvl["max_related_set"] = max(lvl["max_related_set"], int(
            np.bincount(j).max(initial=0)))
        lvl["fringe_sizes"] += size.tolist()
    if instr is not None and instr.record_frames:
        des, anc = (_split(v[m], j[m], len(pivot)) for m in (des, anc))
        xs = _split(ids[x_flag], frame_of[x_flag], len(frames))
        for f, trace in enumerate(instr.frames[-len(frames):]):
            trace.pivots = [PivotTrace(
                pivot[i], sigma[i], int(rho[i]), int(size[i]), fringes[i],
                des[i], anc[i]) for i in range(*pivot_cut[f:f + 2])]
            trace.x_vertices = xs[f]
            trace.groups = groups[group_cut[f]:group_cut[f + 1]]
    return [[] if last else [(fs, "fringe") for fs in fringes[a:b] if fs]
            + [(grp, "core") for grp in groups[c:d]]
            for a, b, c, d in zip(pivot_cut, pivot_cut[1:],
                                  group_cut, group_cut[1:])]


def _run_on_root(sink: ShortcutSink, params: Params, seed: int,
                 scales: Sequence[Tuple[Tuple, float, float]],
                 instr: Optional[Instrumentation],
                 prefix: str = "") -> EdgeArrays:
    """``sink.arrays()`` after a driver's distance scales, each (keys,
    radius, base), on the sink's root graph, with the streams (seed,
    prefix + "level", *keys) and (seed, prefix + "sigma", *keys, pivot).
    Draws every scale's levels, then fetches each root source once per
    direction at the widest radius its root searches ask: ``radius`` in
    a driver loop, rho_max * base as a root frame shortcutter and
    ceil(rho_max) * base >= (max_rho + 1) * base as a root pivot.  Then
    runs each scale's driver loop, unless its root frame subsumes it
    (the frame runs, base >= lightest positive weight > 0, and rho_max *
    base >= radius), then that frame.
    """
    root, L, seed = sink.root, params.L, rngmod.plain(seed)
    low, runs, reach = root.min_positive_weight, [], np.zeros(root.n)
    for keys, radius, base in scales:
        levels = assign_levels(root.n, params, rngmod.stream(
            seed, prefix + "level", *keys))
        loop, frame = radius > params.rho_max * base or base < low, base >= low
        runs.append((levels, loop, frame))
        lv, d0 = np.array(levels), base if frame else 0.0
        for who, r in ((lv <= L, max(radius * loop, params.rho_max * d0)),
                       (lv == 0, math.ceil(params.rho_max) * d0)):
            reach[who] = np.maximum(reach[who], r)
    sources = np.flatnonzero(reach)  # those a root search starts from
    for direction in (FORWARD, BACKWARD):
        sink.memo.fetch(sources.tolist(), reach[sources].tolist(), direction)
    for (keys, radius, base), (levels, loop, frame) in zip(scales, runs):
        if loop:
            _run_shortcutters(sink, sink.full, sink.memo, [
                v for v in range(root.n) if levels[v] <= L], radius)
        if frame:
            hs_recurse(RecursionFrame(sink.full, base, 0, "root"), levels,
                       params, lambda gid: rngmod.stream(
                           seed, prefix + "sigma", *keys, gid), sink, instr)
    return sink.arrays()


def top_scale(paths: float) -> int:
    """ceil(log2(paths)) for a bound ``paths`` on the path lengths of a
    driver's graph; ValueError as in ``check_scales``."""
    if not paths < math.inf:
        raise ValueError(f"weight range overflows a float: path lengths "
                         f"up to {paths!r}")
    return math.ceil(math.log2(paths))


def check_scales(scales: Tuple[int, int]) -> Tuple[int, int]:
    """A driver's (lo, hi) scale exponents.  The drivers refuse, with
    ValueError "weight range overflows a float", a graph whose path
    lengths (``top_scale``) or top search distance 2^(hi + 1) would."""
    if scales[1] + 1 >= sys.float_info.max_exp:
        raise ValueError(f"weight range overflows a float: distance "
                         f"scale 2^{scales[1] + 1}")
    return scales


def default_scale_range(n: int, weighted: bool,
                        max_weight: float = 1.0) -> Tuple[int, int]:
    """Inclusive (lo, hi) distance-scale exponents for the drivers, the
    heaviest weight in weight units; ValueError as in ``top_scale``."""
    log_n = math.log2(n)
    if weighted:
        return (-1, top_scale(n * max(max_weight, 1.0)))
    return (math.ceil(log_n / 2.0), math.ceil(log_n))


def unit_exponent(g: Graph) -> int:
    """e of the weight unit 2^e that the drivers' scales count in: 2^e is
    the largest power of two at most g's lightest positive weight, or 1
    if that weight is >= 1 or there is none.  ValueError "weight range
    overflows a float" below 2^-1021, where the lowest scales would leave
    the normal floats."""
    low = g.min_positive_weight
    if low >= 1.0:
        return 0
    e = math.frexp(low)[1] - 1
    if e < sys.float_info.min_exp:
        raise ValueError(f"weight range overflows a float: lightest "
                         f"positive weight {low!r} below 2^-1021")
    return e


def _run_scales(g: Graph, params: Params, seed: int, weighted: bool,
                scale_range: Optional[Tuple[int, int]],
                instr: Optional[Instrumentation]) -> EdgeSet:
    e = unit_exponent(g)
    default = default_scale_range(g.n, weighted, g.max_weight * 2.0 ** -e)
    lo, hi = check_scales(scale_range or default)
    scales = [((rep, j), 2.0 ** (j + e + 1),
               (2.0 ** (j + e)) * (params.k ** (-params.c)))
              for rep in range(params.repetitions) for j in range(lo, hi + 1)]
    return EdgeSet.from_arrays(*_run_on_root(ShortcutSink(g), params, seed,
                                             scales, instr))


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

    ``scale_range``: inclusive distance-scale exponents; scale j searches
    to 2^(j+1) 2^e, 2^e the weight unit.  ValueError as in
    ``unit_exponent`` and ``check_scales``.
    """
    return _run_scales(g, params, seed, True, scale_range, instr)
