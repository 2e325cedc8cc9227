import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dirhopset import hopset as hopsetmod
from dirhopset import parallel as parallelmod
from dirhopset import rng as rngmod
from dirhopset import search as searchmod
from dirhopset.generate import generate
from dirhopset.graph import EdgeSet, Graph, induce
from dirhopset.hopset import (Instrumentation, RecursionFrame, ShortcutSink,
                              assign_levels, default_scale_range,
                              hopset_unweighted, hopset_weighted, hs_recurse,
                              unit_exponent)
from dirhopset.parallel import phopset
from dirhopset.params import derive_params
from dirhopset.verify import check_hopset, measure_hopbound

from oracles import dijkstra, edge_dict, random_edges
from trace_checks import verify_frames


def practical(n, **kw):
    return derive_params(n, 0.5, k=2, lam=1, mode="practical", **kw)


class TestAssignLevels:
    def test_all_assigned(self):
        params = practical(100)
        levels = assign_levels(100, params, random.Random(0))
        assert type(levels) is list and len(levels) == 100
        assert all(0 <= levels[v] <= params.max_level for v in range(100))

    def test_clamp_to_zero(self):
        # lam*k*log(n)/n >= 1 forces every vertex to level 0
        params = derive_params(4, 0.5, k=2, lam=8, mode="practical")
        levels = assign_levels(4, params, random.Random(1))
        assert [levels[v] for v in range(4)] == [0, 0, 0, 0]

    def test_level_zero_fraction(self):
        n = 65536
        params = practical(n)
        levels = assign_levels(n, params, random.Random(5))
        p0 = params.lam * params.k * params.log_n / n
        count = sum(1 for v in range(n) if levels[v] == 0)
        sigma = math.sqrt(n * p0 * (1 - p0))
        assert abs(count - n * p0) <= 3 * sigma

    def test_deterministic_per_stream(self):
        params = practical(500)
        a = assign_levels(500, params, rngmod.stream(7, "level", 0, 3))
        b = assign_levels(500, params, rngmod.stream(7, "level", 0, 3))
        c = assign_levels(500, params, rngmod.stream(7, "level", 1, 3))
        assert a == b
        assert a != c


def run_frame(g, levels, params, base=8.0, seed=0, record=False):
    sink = ShortcutSink(g)
    instr = Instrumentation(record_frames=record)
    sub = induce(g, range(g.n))

    def sigma_rng(gid):
        return rngmod.stream(seed, "sigma", gid)

    hs_recurse(RecursionFrame(sub, base, 0, "root"),
               levels, params, sigma_rng, sink, instr)
    return EdgeSet.from_arrays(*sink.arrays()), instr


class TestHsRecurse:
    def test_empty_subgraph(self):
        out, instr = run_frame(Graph(0, []), [], practical(4))
        assert len(out) == 0
        assert instr.per_level == {}

    def test_edgeless_subgraph_skipped(self):
        # base distance is below any positive edge weight, so nothing to do
        out, instr = run_frame(Graph(1, []), [0], practical(4), record=True)
        assert len(out) == 0
        assert instr.frames == []

    def test_dag_trace_matches_oracle(self):
        edges = [(0, 1, 1.0), (1, 2, 2.0), (0, 3, 1.0), (3, 4, 1.0),
                 (4, 5, 3.0), (2, 5, 1.0), (1, 4, 1.0)]
        g = Graph(6, edges)
        params = practical(6)
        levels = [0, 3, 3, 3, 3, 3]
        out, instr = run_frame(g, levels, params, base=1.0, record=True)
        assert instr.frames, "expected at least the root frame"
        verify_frames(g, instr.frames, params)
        dist = [dijkstra(6, edges, s) for s in range(6)]
        for u, v, w in out:
            assert w == dist[u][v]

    @staticmethod
    def random_traces():
        """(edges, g, shortcuts, instr) of a traced root frame on each of
        five random graphs, then on five sparser ones whose recursion goes
        below level 1."""
        rng = random.Random(55)
        for trial, (n, m, w) in enumerate([(24, 60, 3)] * 5
                                          + [(40, 80, 8)] * 5):
            edges = random_edges(n, m, w, rng)
            g = Graph(n, edges)
            params = practical(n)
            levels = assign_levels(n, params, random.Random(trial))
            out, instr = run_frame(g, levels, params, base=4.0,
                                   seed=trial, record=True)
            yield edges, g, out, instr

    def test_random_traces(self):
        for edges, g, out, instr in self.random_traces():
            verify_frames(g, instr.frames, practical(g.n))
            dist = {}
            for u, v, w in out:
                if u not in dist:
                    dist[u] = dijkstra(g.n, edges, u)
                assert w == dist[u][v]

    def test_random_traces_in_preorder(self):
        # the level loop must give the traces and the per-level counters
        # in the order of a depth-first recursion
        nested = 0
        for _, _, _, instr in self.random_traces():
            frames = instr.frames
            assert frames[0].kind == "root"
            for i, ft in enumerate(frames[1:], 1):
                parent = next(p for p in reversed(frames[:i])
                              if p.level == ft.level - 1)
                assert ft.vertices in [pt.fringe for pt in parent.pivots] \
                    + parent.groups
                nested += ft.level >= 2
            for r, lvl in instr.per_level.items():
                assert lvl["fringe_sizes"] == [
                    pt.fringe_size for ft in frames if ft.level == r
                    for pt in ft.pivots]
        assert nested  # frames below level 1 tell preorder from level order

    def test_child_levels_increment(self):
        rng = random.Random(2)
        g = Graph(30, random_edges(30, 80, 2, rng))
        params = practical(30)
        levels = assign_levels(30, params, random.Random(9))
        _, instr = run_frame(g, levels, params, base=6.0, record=True)
        by_kind = {}
        for ft in instr.frames:
            by_kind.setdefault(ft.kind, []).append(ft.level)
            assert ft.level <= params.max_level
        assert by_kind.get("root") == [0]
        for lv in by_kind.get("core", []) + by_kind.get("fringe", []):
            assert lv >= 1


@st.composite
def trace_graphs(draw):
    """(n, edges) on up to 24 vertices with zero weights, parallel edges
    and self-loops."""
    n = draw(st.integers(2, 24))
    vertex = st.integers(0, n - 1)
    weight = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
    return n, draw(st.lists(st.tuples(vertex, vertex, weight),
                            max_size=3 * n))


def traced_build(driver, g, params, seed):
    """The ``Instrumentation`` of a traced build, and the (root graph,
    first trace) of each of its driver calls: ``phopset``'s frames are
    frames of its quantized graphs."""
    instr = Instrumentation(record_frames=True)
    roots = []
    run_on_root = hopsetmod._run_on_root

    def spy(sink, *args):
        roots.append((sink.root, len(instr.frames)))
        return run_on_root(sink, *args)

    with mock.patch.object(hopsetmod, "_run_on_root", spy), \
            mock.patch.object(parallelmod, "_run_on_root", spy):
        if driver == "parallel":
            phopset(g, params, 0.2, seed, beta=4.0, sweeps=2, instr=instr)
        else:
            hopset_weighted(g, params, seed, instr=instr)
    return instr, roots


CYCLE12 = [(i, (i + 1) % 12, 1.0) for i in range(12)] + [
    (0, 6, 1.0), (0, 6, 2.0), (3, 9, 0.0)]


class TestLevelPartition:
    """The level-at-a-time partition against the oracle."""

    @settings(max_examples=30, deadline=None)
    @given(case=trace_graphs(), k=st.sampled_from([2, 8]),
           width=st.sampled_from([2, 2.5]), c=st.sampled_from([0, 1]),
           L=st.sampled_from([1, 2]), seed=st.integers(0, 3))
    # a root frame with no level-0 pivot: one core group of every
    # vertex, a full-size child frame at level 1 (weighted at seed 7423,
    # parallel at seed 6690)
    @example(case=(12, CYCLE12), k=2, width=2, c=0, L=1, seed=7423)
    @example(case=(12, CYCLE12), k=2, width=2, c=0, L=1, seed=6690)
    # frames at max_level (2 at n = 48, k = 8) partition, with no children
    @example(case=(48, [(i, i + 1, 1.0) for i in range(47)]), k=8,
             width=2, c=0, L=1, seed=0)
    @pytest.mark.parametrize("driver", ["weighted", "parallel"])
    def test_traces_verify(self, driver, case, k, width, c, L, seed):
        n, edges = case
        g = Graph(n, edges)
        params = derive_params(n, 0.5, k=k, lam=1, mode="practical", c=c,
                               L=L, interval_width=width)
        instr, roots = traced_build(driver, g, params, seed)
        cut = [first for _, first in roots] + [len(instr.frames)]
        for (root, _), a, b in zip(roots, cut, cut[1:]):
            verify_frames(root, instr.frames[a:b], params)
        for r, lvl in instr.per_level.items():
            assert lvl["fringe_sizes"] == [
                pt.fringe_size for ft in instr.frames if ft.level == r
                for pt in ft.pivots]

    @pytest.mark.parametrize("driver", ["weighted", "parallel"])
    def test_one_partition_per_level(self, monkeypatch, driver):
        # each level's frames are partitioned in one call, and no frame
        # picks its pivots' radii one pivot at a time
        levels, single = [], []
        partition = hopsetmod._partition_level
        select = searchmod.select_radius_with_searches

        def partitioning(frames, *args):
            levels.append({f.level for f in frames})
            return partition(frames, *args)

        def selecting(*args, **kwargs):
            single.append(args[1])
            return select(*args, **kwargs)

        monkeypatch.setattr(hopsetmod, "_partition_level", partitioning)
        monkeypatch.setattr(searchmod, "select_radius_with_searches",
                            selecting)
        monkeypatch.setattr(hopsetmod, "select_radius_with_searches",
                            selecting, raising=False)
        rng = random.Random(17)
        g = Graph(80, random_edges(80, 240, 8, rng))
        instr, _ = traced_build(driver, g, practical(80), 1)
        want = []  # per root frame, the levels of its subtree, ascending
        for ft in instr.frames:
            if ft.kind == "root":
                want.append(set())
            want[-1].add(ft.level)
        assert single == []
        assert len(want) > 1 and max(map(max, want)) >= 2
        assert levels == [{r} for subtree in want for r in sorted(subtree)]


class TestDrivers:
    def test_no_edges_empty_hopset(self):
        h = hopset_unweighted(Graph(5, []), practical(5), 0)
        assert len(h) == 0

    def test_path_full_shortcutting(self):
        g = Graph(9, [(i, i + 1, 1.0) for i in range(8)])
        params = practical(9, L=4)  # every vertex is a shortcutter
        h = hopset_unweighted(g, params, 0)
        assert edge_dict(h).get((0, 8)) == 8.0

    def test_rejects_non_unit_weights(self):
        with pytest.raises(ValueError):
            hopset_unweighted(Graph(2, [(0, 1, 2.0)]), practical(2), 0)

    def test_unweighted_emits_exact_distances(self):
        rng = random.Random(12)
        edges = [(u, v, 1.0) for u, v, _ in random_edges(60, 150, 1, rng)
                 if u < v]  # DAG
        g = Graph(60, edges)
        h = hopset_unweighted(g, practical(60, L=1), 3)
        assert len(h) > 0
        cache = {}
        for u, v, w in h:
            if u not in cache:
                cache[u] = dijkstra(60, edges, u)
            assert w == cache[u][v]

    def test_weighted_emits_exact_distances(self):
        rng = random.Random(21)
        edges = random_edges(50, 180, 10, rng)
        g = Graph(50, edges)
        h = hopset_weighted(g, practical(50, L=1), 4)
        assert len(h) > 0
        cache = {}
        for u, v, w in h:
            if u not in cache:
                cache[u] = dijkstra(50, edges, u)
            assert w == cache[u][v]

    def test_lambda_powers_beyond_floats(self):
        # scales near 1e305 run level-1 frames, and then lam^2 passes the
        # floats: the next level has no frame, not an OverflowError
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1e305), (2, 3, 1.0)])
        params = derive_params(4, 0.5, k=2, lam=10 ** 301 - 1,
                               mode="practical")
        for h in (hopset_weighted(g, params, 0),
                  phopset(g, params, 0.05, 0, beta=4.0)):
            assert check_hopset(g, h, 3, 0.0).ok

    def test_zero_weight_cycle(self):
        g = Graph(3, [(0, 1, 0.0), (1, 2, 0.0), (2, 0, 0.0)])
        h = hopset_weighted(g, practical(3), 0)
        # original edges are suppressed; the missing closures appear at w=0
        assert edge_dict(h) == {(0, 2): 0.0, (1, 0): 0.0, (2, 1): 0.0}

    def test_existing_edges_not_duplicated(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        h = hopset_unweighted(g, practical(4, L=2), 0)
        for u, v, w in h:
            assert g.edge_weight(u, v) != w

    def test_deterministic(self):
        rng = random.Random(8)
        g = Graph(40, [(u, v, 1.0) for u, v, _ in random_edges(40, 100, 1,
                                                               rng)])
        a = hopset_unweighted(g, practical(40), 99)
        b = hopset_unweighted(g, practical(40), 99)
        assert a == b

    def test_light_weights_normalised(self):
        # the hopset of g·s divided by s, s = 4 = 2^-e: scales count in
        # the weight unit 2^e = 1/4, the largest power of two <= 0.3,
        # so a build on g is g·s's scaled by 1/s, exactly
        rng = random.Random(6)
        edges = [(u, v, rng.choice([0.3, 0.7, 1.1, 2.9]))
                 for u, v, _ in random_edges(30, 90, 1, rng)]
        s = 4.0
        scaled = Graph(30, [(u, v, w * s) for u, v, w in edges])
        traces = [Instrumentation(record_frames=True) for _ in range(2)]
        want = hopset_weighted(scaled, practical(30), 2, instr=traces[0])
        got = hopset_weighted(Graph(30, edges), practical(30), 2,
                              instr=traces[1])
        assert len(want) > 0 and len(traces[0].frames) > 0
        assert edge_dict(got) == {k: w / s for k, w in edge_dict(want).items()}
        assert [t.d_r for t in traces[1].frames] == [
            t.d_r / s for t in traces[0].frames]

    @pytest.mark.parametrize("w, e", [
        (0.3, -2), (0.25, -2), (0.2499, -3), (1.0, 0), (7.0, 0), (None, 0),
        (2.0 ** -1021, -1021), (math.nextafter(2.0 ** -1021, 0), None)])
    def test_unit_exponent(self, w, e):
        g = Graph(2, [] if w is None else [(0, 1, w), (1, 0, 0.0)])
        if e is None:
            with pytest.raises(ValueError, match="weight range overflows"):
                unit_exponent(g)
        else:
            assert unit_exponent(g) == e

    def test_builds_no_graph(self, monkeypatch):
        # on a lightest weight of 0.3 the build runs on g itself: it
        # makes no scaled copy, nor any other Graph
        rng = random.Random(6)
        g = Graph(30, [(u, v, rng.choice([0.3, 0.7, 1.1, 2.9]))
                       for u, v, _ in random_edges(30, 90, 1, rng)])
        made = []

        def counted(make):
            def wrapper(*args):
                made.append(make.__name__)
                return make(*args)
            return wrapper

        monkeypatch.setattr(Graph, "__init__", counted(Graph.__init__))
        monkeypatch.setattr(Graph, "from_arrays", classmethod(
            counted(Graph.from_arrays.__func__)))
        assert len(hopset_weighted(g, practical(30), 2)) > 0
        assert made == []

    @pytest.mark.parametrize("build", [
        lambda g: hopset_weighted(g, practical(3)),
        lambda g: phopset(g, practical(3), 0.2, beta=4.0)])
    def test_weight_range_overflow_named(self, build):
        # 1 / 5e-324 is inf: the scaled weights cannot be represented
        g = Graph(3, [(0, 1, 5e-324), (1, 2, 1.0)])
        with pytest.raises(ValueError, match="weight range overflows"):
            build(g)

    @pytest.mark.parametrize("run", [
        lambda g: hopset_weighted(g, practical(3)),
        lambda g: hopset_weighted(g, practical(3), scale_range=(0, 2)),
        lambda g: phopset(g, practical(3), 0.2, beta=4.0),
        lambda g: phopset(g, practical(3), 0.2, beta=4.0,
                          scale_range=(0, 2)),
        lambda g: check_hopset(g, EdgeSet(), 2, 0.0),
        lambda g: measure_hopbound(g, EdgeSet(), 0.0, [(0, 2)])],
        ids=["weighted", "weighted-range", "parallel", "parallel-range",
             "check", "hopbound"])
    def test_path_length_overflow_named(self, run):
        # 1e308 + 1e308 is inf: the path 0 -> 1 -> 2 has no float length
        g = Graph(3, [(0, 1, 1e308), (1, 2, 1e308)])
        with pytest.raises(ValueError, match="weight range overflows"):
            run(g)

    def test_scale_overflow_named(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        for hi in (1023, 5000):  # the top scale searches to 2^(hi + 1)
            with pytest.raises(ValueError, match="weight range overflows"):
                hopset_weighted(g, practical(3), scale_range=(0, hi))
        assert len(hopset_weighted(g, practical(3),
                                   scale_range=(1021, 1022))) == 1

    @pytest.mark.parametrize("build", [
        lambda g: hopset_weighted(g, practical(g.n), 1),
        lambda g: phopset(g, practical(g.n), 0.1, 1, beta=6.0, sweeps=2)],
        ids=["weighted", "parallel"])
    def test_no_heap_search_on_a_root_graph(self, monkeypatch, build):
        # every root-graph search is batched: only frames heap-search
        calls = {"root": 0, "frame": 0}
        bounded_search = searchmod.bounded_search

        def counting(g, source, d, direction="forward"):
            calls["root" if isinstance(g, Graph) else "frame"] += 1
            return bounded_search(g, source, d, direction)

        monkeypatch.setattr(searchmod, "bounded_search", counting)
        rng = random.Random(17)
        h = build(Graph(80, random_edges(80, 240, 8, rng)))
        assert len(h) > 0
        assert calls["root"] == 0 and calls["frame"] > 0

    @pytest.mark.parametrize("build", [
        lambda g, p, seed, instr: hopset_weighted(g, p, seed, instr=instr),
        lambda g, p, seed, instr: hopset_unweighted(g, p, seed, instr=instr),
        lambda g, p, seed, instr: phopset(g, p, 0.1, seed, beta=6.0,
                                          sweeps=2, instr=instr)],
        ids=["weighted", "unweighted", "parallel"])
    def test_numpy_seed_as_int(self, build):
        # the streams are keyed by repr, where np.int64(1) is not 1; the
        # frame traces show the level and sigma draws
        g = generate("random-gnm", 40, 120, 1, 3)
        got = []
        for seed in (1, np.int64(1), np.int32(1), np.uint16(1)):
            instr = Instrumentation(record_frames=True)
            got.append((build(g, practical(40), seed, instr), instr.frames))
        assert len(got[0][0]) > 0 and len(got[0][1]) > 0
        assert all(x == got[0] for x in got[1:])

    @pytest.mark.parametrize("case", [
        (family, "weighted", overrides, {}) for overrides in (
            {}, {"rho_min": 3.5}, {"repetitions": 2}, {"c": 3})
        for family in ("random-gnm", "grid", "path")] + [
        # the top scale's rows are incomplete: its pivots ask the most
        ("path", "weighted", {"rho_min": 3.5}, {"scale_range": (0, 2)}),
        ("grid", "unweighted", {}, {})], ids=lambda c: "-".join(
            [c[0], c[1]] + [f"{k}={v}".replace(" ", "")
                            for k, v in {**c[2], **c[3]}.items()]))
    def test_root_sources_searched_once(self, monkeypatch, case):
        # a driver call searches each root source once per direction, at
        # its widest radius, before its first scale: later root searches
        # are memo hits, but for the re-pricing in ShortcutSink.arrays
        family, driver, overrides, kw = case
        g = generate(family, 64, 192 if family == "random-gnm" else None,
                     8 if driver == "weighted" else 1, 5)
        batched, bounded, in_arrays = [], [], []
        batched_search = searchmod.batched_search
        bounded_search = searchmod.bounded_search
        arrays = ShortcutSink.arrays

        def batching(graph, sources, d, direction="forward"):
            if graph is g and not in_arrays:
                batched.append((direction, list(sources)))
            return batched_search(graph, sources, d, direction)

        def searching(graph, source, d, direction="forward"):
            if graph is g:
                bounded.append(source)
            return bounded_search(graph, source, d, direction)

        def repricing(sink):
            in_arrays.append(True)
            try:
                return arrays(sink)
            finally:
                in_arrays.pop()

        monkeypatch.setattr(searchmod, "batched_search", batching)
        monkeypatch.setattr(searchmod, "bounded_search", searching)
        monkeypatch.setattr(ShortcutSink, "arrays", repricing)
        run = hopset_weighted if driver == "weighted" else hopset_unweighted
        assert len(run(g, practical(64, **overrides), 1, **kw)) > 0
        assert [d for d, _ in batched] == ["forward", "backward"]
        assert all(len(set(s)) == len(s) <= g.n for _, s in batched)
        assert bounded == []

    def test_driver_pass_emits_at_c20(self):
        # at c=20 every frame stops at once, so each shortcut comes from
        # the driver loop's pass, which the root frame no longer subsumes
        g = Graph(12, [(i, i + 1, 1.0) for i in range(11)])
        instr = Instrumentation()
        h = hopset_weighted(g, practical(12, c=20, L=4), 0, instr=instr)
        assert instr.per_level == {}
        assert edge_dict(h) == {(i, j): float(j - i) for i in range(12)
                             for j in range(i + 2, 12)}

    def test_scale_range_defaults(self):
        assert default_scale_range(1024, weighted=False) == (5, 10)
        assert default_scale_range(1024, weighted=True, max_weight=16.0) \
            == (-1, 14)


@st.composite
def small_multigraphs(draw):
    """(n, edges) with zero and fractional weights, parallel edges and
    self-loops."""
    n = draw(st.integers(2, 8))
    vertex = st.integers(0, n - 1)
    weight = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 1.0,
                                        1.5, 2.0, 3.0]),
                       st.floats(0.01, 20.0))
    return n, draw(st.lists(st.tuples(vertex, vertex, weight), max_size=24))


class TestValidHopsets:
    """Every driver's hopset on small graphs, against the oracle.

    A pair's shortest-path distance is a float sum whose value depends
    on the order of its terms: the drivers sum from u when they search
    forward from u and from v when they search backward from v, so the
    oracle gives both.  ``phopset``'s pairs are overestimates, so the
    check is that each is lighter than the edge of g it parallels, if
    any: a scale's quantized graph leaves out the edges too heavy for
    it, and a shortcut found there can equal or exceed such an edge, as
    on ``[(0, 1, .25), (1, 4, .25), (0, 4, .5)]``.
    """

    @settings(max_examples=60, deadline=None)
    @given(case=small_multigraphs(), c=st.sampled_from([0, 1]),
           L=st.sampled_from([1, 2]), seed=st.integers(0, 3))
    # phopset once emitted (0, 4) at 0.5 here, and (1, 0) at 2.5 below
    @example(case=(5, [(0, 1, .25), (0, 4, .5), (1, 4, .25)]), c=0, L=1,
             seed=0)
    @example(case=(3, [(1, 0, 2.), (2, 0, 2.), (1, 2, 1.5), (2, 0, 1.)]),
             c=0, L=1, seed=1)
    # a build on the weights times 1 / 0.3 once gave (2, 1) an ulp below
    # its distance, 1.5 + 0.3
    @example(case=(3, [(0, 1, 1.5), (2, 0, 0.3)]), c=0, L=1, seed=0)
    @pytest.mark.parametrize("driver", ["weighted", "unweighted",
                                        "parallel"])
    def test_valid_without_self_or_root_duplicates(self, driver, case, c, L,
                                                   seed):
        n, edges = case
        if driver == "unweighted":
            edges = [(u, v, 1.0) for u, v, _ in edges]
        g = Graph(n, edges)
        params = practical(n, c=c, L=L)
        if driver == "parallel":
            h = phopset(g, params, 0.2, seed, beta=4.0, sweeps=2)
        else:
            build = hopset_weighted if driver == "weighted" else \
                hopset_unweighted
            h = build(g, params, seed)
        fwd = [dijkstra(n, edges, x) for x in range(n)]
        bwd = [dijkstra(n, edges, x, reverse=True) for x in range(n)]
        for u, v, w in h:
            assert u != v
            edge = g.edge_weight(u, v)
            if driver == "parallel":
                assert min(fwd[u][v], bwd[v][u]) <= w < math.inf
                assert edge is None or w < edge
            else:
                assert w in (fwd[u][v], bwd[v][u])
                assert w != edge
