import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dirhopset import search as searchmod
from dirhopset.graph import Graph
from dirhopset.params import derive_params
from dirhopset.search import (BACKWARD, CHUNK, FORWARD, SearchMemo,
                              SearchResult, batched_search, bounded_search,
                              select_radius, select_radius_with_searches)

from oracles import dijkstra, floyd_warshall, random_edges


def path_graph(n):
    return Graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


class TestBoundedSearch:
    def test_path_forward(self):
        res = bounded_search(path_graph(4), 0, 2.0, FORWARD)
        assert res.reached == {0: 0.0, 1: 1.0, 2: 2.0}

    def test_zero_bound(self):
        res = bounded_search(path_graph(4), 1, 0.0, FORWARD)
        assert res.reached == {1: 0.0}

    def test_backward(self):
        res = bounded_search(path_graph(4), 3, 1.0, BACKWARD)
        assert res.reached == {3: 0.0, 2: 1.0}

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            bounded_search(path_graph(3), 9, 1.0)

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            bounded_search(path_graph(3), 0, -1.0)

    def test_matches_truncated_dijkstra(self):
        rng = random.Random(5)
        edges = random_edges(50, 200, 7, rng)
        g = Graph(50, edges)
        for s in (0, 13, 31):
            full = dijkstra(50, edges, s)
            for d in (0.0, 3.0, 8.0, 20.0):
                got = bounded_search(g, s, d, FORWARD).reached
                want = {v: dv for v, dv in enumerate(full) if dv <= d}
                assert got == want

    def test_monotone_in_bound(self):
        rng = random.Random(9)
        g = Graph(30, random_edges(30, 100, 5, rng))
        prev = bounded_search(g, 4, 2.0).reached
        for d in (4.0, 9.0, 15.0):
            cur = bounded_search(g, 4, d).reached
            for v, dv in prev.items():
                assert cur[v] == dv
            prev = cur

    def test_unbounded_equals_full_dijkstra(self):
        rng = random.Random(17)
        edges = random_edges(40, 150, 6, rng)
        g = Graph(40, edges)
        full = dijkstra(40, edges, 2)
        got = bounded_search(g, 2, math.inf).reached
        assert got == {v: d for v, d in enumerate(full) if d < math.inf}

    def test_backward_equals_forward_on_transpose(self):
        rng = random.Random(23)
        edges = random_edges(30, 120, 4, rng)
        g = Graph(30, edges)
        t = Graph(30, [(v, u, w) for u, v, w in edges])
        for s in (0, 7, 29):
            bwd = bounded_search(g, s, 6.0, BACKWARD).reached
            fwd = bounded_search(t, s, 6.0, FORWARD).reached
            assert bwd == fwd


def related_set(g, source, d):
    """Forward and backward searches; the union of their reach sets is
    the related set R_d of ``source``."""
    return (bounded_search(g, source, d, FORWARD),
            bounded_search(g, source, d, BACKWARD))


class TestRelatedSet:
    def test_isolated_vertex(self):
        fwd, bwd = related_set(Graph(3, []), 1, 10.0)
        assert fwd.reached == {1: 0.0}
        assert bwd.reached == {1: 0.0}

    def test_two_cycle(self):
        g = Graph(2, [(0, 1, 1.0), (1, 0, 1.0)])
        fwd, bwd = related_set(g, 0, 1.0)
        assert set(fwd.reached) == {0, 1}
        assert set(bwd.reached) == {0, 1}

    def test_against_floyd_warshall(self):
        rng = random.Random(31)
        edges = random_edges(40, 160, 3, rng)
        g = Graph(40, edges)
        dist = floyd_warshall(40, edges)
        for s in (0, 19):
            for d in (2.0, 6.0):
                fwd, bwd = related_set(g, s, d)
                related = set(fwd.reached) | set(bwd.reached)
                want = {v for v in range(40)
                        if dist[s][v] <= d or dist[v][s] <= d}
                assert related == want


def practical(n, **kw):
    return derive_params(n, 0.5, k=2, lam=1, mode="practical", **kw)


class TestSelectRadius:
    def test_no_neighbors(self):
        params = practical(8)
        choice = select_radius(Graph(8, []), 0, 1.0, params,
                               random.Random(1))
        lo = params.rho_min + 1 + params.interval_width * (choice.sigma - 1)
        assert choice.fringe_size == 0
        assert choice.rho == math.ceil(lo)

    def test_rho_within_subinterval(self):
        params = practical(16)
        rng = random.Random(2)
        g = Graph(16, [(i, i + 1, 1.0) for i in range(15)])
        for _ in range(20):
            c = select_radius(g, 3, 0.7, params, rng)
            lo = params.rho_min + 1 + params.interval_width * (c.sigma - 1)
            assert lo <= c.rho < lo + params.interval_width

    def test_matches_exhaustive(self):
        rng = random.Random(77)
        params = derive_params(
            30, 0.5, k=2, lam=1, mode="practical",
            rho_min=2.0, interval_count=3, interval_width=4)
        for trial in range(40):
            edges = random_edges(30, 70, 3, rng)
            g = Graph(30, edges)
            pivot = rng.randrange(30)
            d = rng.choice([0.5, 1.0, 1.5, 2.0])
            seed_rng = random.Random(trial)
            choice = select_radius(g, pivot, d, params, seed_rng)
            # brute force over the same subinterval
            fdist = dijkstra(30, edges, pivot)
            bdist = dijkstra(30, edges, pivot, reverse=True)
            dmin = [min(a, b) for a, b in zip(fdist, bdist)]
            lo = params.rho_min + 1 + params.interval_width * (choice.sigma - 1)
            best = None
            for rho in range(math.ceil(lo),
                             math.ceil(lo + params.interval_width)):
                size = sum(1 for x in dmin
                           if (rho - 1) * d < x <= (rho + 1) * d)
                if best is None or size < best[1]:
                    best = (rho, size)
            assert (choice.rho, choice.fringe_size) == best

    def test_search_reuse_consistent(self):
        rng = random.Random(4)
        g = Graph(20, random_edges(20, 60, 2, rng))
        params = practical(20)
        choice, fwd, bwd, dmin = select_radius_with_searches(
            g, 5, 1.0, params, random.Random(8))
        bound = fwd.bound
        assert bound == bwd.bound
        assert bound >= (choice.rho + 1) * 1.0
        assert fwd.reached == bounded_search(g, 5, bound, FORWARD).reached
        assert bwd.reached == bounded_search(g, 5, bound, BACKWARD).reached
        assert dmin == {v: min(fwd.reached.get(v, math.inf),
                               bwd.reached.get(v, math.inf))
                        for v in {**fwd.reached, **bwd.reached}}

    def test_zero_base_rejected(self):
        with pytest.raises(ValueError):
            select_radius(Graph(2, []), 0, 0.0, practical(8),
                          random.Random(0))


weights = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.7, 2.25, 3.0])
radii = st.one_of(st.sampled_from([0.0, 0.3, 0.6, 1.0, 2.5, math.inf]),
                  st.floats(0.0, 8.0))


def graphs(draw, max_n=8, max_m=20):
    """Small graphs with zero and fractional weights, parallel edges and
    self-loops."""
    n = draw(st.integers(1, max_n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1), weights),
                          max_size=max_m))
    return Graph(n, edges)


def same_result(got, want):
    """Equal keys, floats equal by repr, equal ``complete``."""
    assert sorted(got.reached) == sorted(want.reached)
    assert all(repr(got.reached[v]) == repr(want.reached[v])
               for v in want.reached)
    assert got.complete == want.complete


def rows_equal_bounded_search(g, sources, d, direction):
    """Each row of ``batched_search`` equals ``bounded_search`` at that
    row's bound: ``d``, or d[i] for sources[i] when ``d`` is a list."""
    bounds = d if isinstance(d, list) else [d] * len(sources)
    done = []
    for block, dist, complete in batched_search(g, sources, d, direction):
        assert dist.shape == (len(block), g.n)
        for s, row, flag in zip(block, dist.tolist(), complete):
            b = bounds[len(done)]
            got = {v: x for v, x in enumerate(row) if x != math.inf}
            same_result(SearchResult(s, b, direction, got, bool(flag)),
                        bounded_search(g, s, b, direction))
            done.append(s)
    assert done == list(sources)


def thin_tail_graph():
    """A 200-vertex path with a few chords out of its first 40 vertices:
    rows that run down it relax few edges per round."""
    rng = random.Random(3)
    edges = [(i, i + 1, rng.choice([0.5, 1.0, 2.0])) for i in range(199)]
    edges += [(rng.randrange(40), rng.randrange(200), 3.0)
              for _ in range(30)]
    return Graph(200, edges)


class TestBatchedSearch:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rows_equal_bounded_search(self, data):
        g = graphs(data.draw, max_n=10, max_m=30)
        # a few sources repeated to up to two and a bit chunks
        base = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1,
                                  max_size=6))
        count = data.draw(st.integers(1, 2 * CHUNK + 5))
        sources = (base * count)[:count]
        rows_equal_bounded_search(
            g, sources, data.draw(radii),
            data.draw(st.sampled_from([FORWARD, BACKWARD])))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rows_equal_bounded_search_at_per_source_bounds(self, data):
        g = graphs(data.draw, max_n=10, max_m=30)
        # sources and bounds repeat with different periods, so a
        # repeated source is searched at different bounds
        base = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1,
                                  max_size=6))
        radius = data.draw(st.lists(radii, min_size=1, max_size=7))
        count = data.draw(st.integers(1, 2 * CHUNK + 5))
        rows_equal_bounded_search(
            g, (base * count)[:count], (radius * count)[:count],
            data.draw(st.sampled_from([FORWARD, BACKWARD])))

    @pytest.mark.parametrize("d", [0.0, 5.5, 60.0, math.inf])
    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    def test_thin_tails_finished_by_dijkstra(self, d, direction):
        rows_equal_bounded_search(thin_tail_graph(), range(0, 200, 3), d,
                                  direction)

    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    def test_thin_tails_finished_at_the_rows_bounds(self, monkeypatch,
                                                    direction):
        finished = []
        settle = searchmod._settle

        def counting(adj, dist, heap, d):
            finished.append(d)
            return settle(adj, dist, heap, d)

        monkeypatch.setattr(searchmod, "_settle", counting)
        sources = list(range(0, 200, 3))
        bounds = [[0.0, 5.5, 60.0, math.inf][i % 4]
                  for i in range(len(sources))]
        rows_equal_bounded_search(thin_tail_graph(), sources, bounds,
                                  direction)
        # the Dijkstra finish ran, on the rows that reach far
        assert {60.0, math.inf} & set(finished)
        assert set(finished) <= {0.0, 5.5, 60.0, math.inf}

    def test_chunks(self):
        g = path_graph(5)
        blocks = [block for block, _, _ in
                  batched_search(g, list(range(5)) * 30, 2.0)]
        assert [len(b) for b in blocks] == [CHUNK, CHUNK, 150 - 2 * CHUNK]
        assert list(batched_search(g, [], 1.0)) == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            list(batched_search(path_graph(3), [0, 3], 1.0))
        with pytest.raises(ValueError):
            list(batched_search(path_graph(3), [0], -1.0))
        with pytest.raises(ValueError):
            list(batched_search(path_graph(3), [0, 1], [1.0, -1.0]))


@st.composite
def memo_cases(draw):
    g = graphs(draw)
    # one source at one radius: SearchMemo.search; otherwise
    # SearchMemo.search_all, at one radius or at one per source
    requests = []
    for _ in range(draw(st.integers(1, 12))):
        sources = draw(st.lists(st.integers(0, g.n - 1), min_size=1,
                                max_size=4))
        d = draw(st.one_of(radii, st.lists(radii, min_size=len(sources),
                                           max_size=len(sources))))
        requests.append((sources, draw(st.sampled_from([FORWARD,
                                                        BACKWARD])), d))
    return g, requests


class TestSearchMemo:
    @settings(max_examples=300, deadline=None)
    @given(memo_cases())
    def test_answers_equal_fresh_searches(self, case):
        g, requests = case
        memo = SearchMemo(g)
        for sources, direction, d in requests:
            bounds = d if isinstance(d, list) else [d] * len(sources)
            if len(sources) == 1 and not isinstance(d, list):
                answers = [memo.search(sources[0], d, direction)]
            else:
                answers = memo.search_all(sources, d, direction)
            assert len(answers) == len(sources)
            for s, b, got in zip(sources, bounds, answers):
                fresh = bounded_search(g, s, b, direction)
                full = bounded_search(g, s, math.inf, direction).reached
                same_result(got, fresh)
                assert (got.source, got.bound, got.direction) == \
                    (s, b, direction)
                assert got.complete == (got.reached == full)
                assert fresh.complete == (fresh.reached == full)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_array_rows_answer_like_bounded_search(self, data):
        g = graphs(data.draw, max_n=10, max_m=30)
        sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1,
                                     max_size=5))
        d = data.draw(radii)
        memo = SearchMemo(g)
        rows = {}
        for direction in (FORWARD, BACKWARD):  # fills from batched rows
            for s, res in zip(sources, memo.search_all(sources, d,
                                                       direction)):
                rows[s, direction] = res
        # answers drawn from the rows must not search again
        with pytest.MonkeyPatch.context() as mp:
            for name in ("bounded_search", "batched_search"):
                mp.setattr(searchmod, name, None)
            for (s, direction), row in rows.items():
                dists = sorted(row.reached.values())
                smaller = [x for x in dists if x <= d] + \
                    [data.draw(st.floats(0.0, min(d, 10.0)))]
                larger = [d * 2 + 1, math.inf] if row.complete else []
                for r in [d] + smaller + larger:
                    got = memo.search(s, r, direction)
                    same_result(got, bounded_search(g, s, r, direction))
                    v, x = got.rows()
                    assert dict(zip(v.tolist(), x.tolist())) == got.reached
                    assert (got.source, got.bound, got.direction) == \
                        (s, r, direction)

    def test_searches_only_on_miss(self, monkeypatch):
        calls = []

        def counting(g, source, d, direction=FORWARD):
            calls.append((source, d, direction))
            return bounded_search(g, source, d, direction)

        monkeypatch.setattr(searchmod, "bounded_search", counting)
        g = path_graph(6)
        memo = SearchMemo(g)
        assert memo.search(0, 3.0).reached == {0: 0.0, 1: 1.0, 2: 2.0,
                                               3: 3.0}
        assert memo.search(0, 1.5).reached == {0: 0.0, 1: 1.0}
        assert memo.search(0, 3.0, BACKWARD).reached == {0: 0.0}
        assert len(calls) == 2
        memo.search(0, 4.0)  # beyond an incomplete search: a miss
        assert len(calls) == 3
        complete = memo.search(0, math.inf)
        assert complete.complete and len(calls) == 4
        assert memo.search(0, 100.0).complete  # served by the complete one
        assert memo.search(3, 2.0, BACKWARD).complete is False
        assert len(calls) == 5

    def test_search_all_batches_only_misses(self, monkeypatch):
        batches = []

        def counting(g, sources, d, direction=FORWARD):
            batches.append(list(sources))
            return batched_search(g, sources, d, direction)

        monkeypatch.setattr(searchmod, "batched_search", counting)
        g = path_graph(6)
        memo = SearchMemo(g)
        memo.search(0, math.inf)
        memo.search(1, 4.0)
        got = memo.search_all([0, 1, 2, 3], 2.0)
        assert batches == [[2, 3]]  # 0 and 1 are answered by the memo
        assert [r.reached for r in got] == [
            {0: 0.0, 1: 1.0, 2: 2.0}, {1: 0.0, 2: 1.0, 3: 2.0},
            {2: 0.0, 3: 1.0, 4: 2.0}, {3: 0.0, 4: 1.0, 5: 2.0}]
        memo.search_all([2, 3], 1.0)
        memo.search(3, 2.0)
        assert batches == [[2, 3]]  # answered by the batch-filled entries
        memo.search_all([2, 3], 3.0)  # 3's search was complete
        assert batches == [[2, 3], [2]]

    def test_search_all_per_source_batches_only_misses(self, monkeypatch):
        batches = []

        def counting(g, sources, d, direction=FORWARD):
            batches.append((list(sources), list(d)))
            return batched_search(g, sources, d, direction)

        monkeypatch.setattr(searchmod, "batched_search", counting)
        g = path_graph(6)
        memo = SearchMemo(g)
        memo.search(0, math.inf)  # complete
        memo.search(1, 2.0)  # cut off at 3
        got = memo.search_all([0, 1, 2, 1, 2, 3],
                              [9.0, 1.5, 1.0, 4.5, 2.0, 0.0])
        # 0 and 1 at 1.5 are answered by the memo; each miss is searched
        # once, at its largest bound
        assert batches == [([2, 1, 3], [2.0, 4.5, 0.0])]
        assert [r.bound for r in got] == [9.0, 1.5, 1.0, 4.5, 2.0, 0.0]
        assert [r.reached for r in got] == [
            {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 5.0},
            {1: 0.0, 2: 1.0}, {2: 0.0, 3: 1.0},
            {1: 0.0, 2: 1.0, 3: 2.0, 4: 3.0, 5: 4.0},
            {2: 0.0, 3: 1.0, 4: 2.0}, {3: 0.0}]
        memo.search_all([2, 3, 1], [1.5, 0.0, 9.0])  # 1 is complete now
        assert len(batches) == 1
        memo.search_all([3, 2], [1.0, 0.5])
        assert batches[1:] == [([3], [1.0])]
