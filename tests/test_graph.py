import math
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dirhopset.graph import (EdgeSet, Graph, GraphFormatError, augment,
                             induce, load_graph, merge_min, save_graph)
from dirhopset.search import BACKWARD, bounded_search

from oracles import all_pairs, dijkstra, graph_reference, random_edges

weights = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5, 1.0, 1.5, 3.0]),
    st.floats(0.0, 1e6))


@st.composite
def multigraphs(draw, bad=False):
    """(n, edges): parallel edges, self-loops, zero and fractional
    weights; with ``bad``, also endpoints outside [0, n) and weights
    that are negative or not finite."""
    n = draw(st.integers(0, 7))
    vertex = st.integers(-2, n + 1) if bad else st.integers(0, n - 1)
    weight = (st.one_of(weights, st.sampled_from(
        [-1.0, -math.inf, math.inf, math.nan])) if bad else weights)
    if n == 0 and not bad:
        return n, []
    return n, draw(st.lists(st.tuples(vertex, vertex, weight), max_size=24))


@st.composite
def subgraphs(draw):
    """(n, edges, ids): a multigraph and a sorted vertex subset."""
    n, edges = draw(multigraphs())
    ids = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    return n, edges, sorted(ids)


def columns(edges):
    return tuple(zip(*edges)) if edges else ((), (), ())


def write(tmp_path, text, name="g.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadGraph:
    def test_basic(self, tmp_path):
        g = load_graph(write(tmp_path, "3 2\n0 1 1.0\n1 2 2.0\n"))
        assert g.n == 3 and g.m == 2
        assert g.edge_weight(1, 2) == 2.0

    def test_default_weight_and_comments(self, tmp_path):
        g = load_graph(write(tmp_path, "# hdr\n2 1\n# edge\n0 1\n"))
        assert g.edge_weight(0, 1) == 1.0

    def test_normalization(self, tmp_path):
        # weights stay in the file's units; the drivers normalise them
        g = load_graph(write(tmp_path, "3 2\n0 1 0.5\n1 2 2.0\n"))
        assert not hasattr(g, "scale")
        assert g.edge_weight(0, 1) == 0.5
        assert g.edge_weight(1, 2) == 2.0
        assert (g.min_positive_weight, g.max_weight) == (0.5, 2.0)

    def test_negative_weight(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_graph(write(tmp_path, "2 1\n0 1 -3\n"))

    @pytest.mark.parametrize("w", ["nan", "inf", "-inf"])
    def test_non_finite_weight(self, tmp_path, w):
        with pytest.raises(GraphFormatError):
            load_graph(write(tmp_path, f"2 1\n0 1 {w}\n"))

    def test_bad_header(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_graph(write(tmp_path, "2\n"))

    def test_edge_count_mismatch(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_graph(write(tmp_path, "2 2\n0 1 1\n"))

    def test_out_of_range_vertex(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_graph(write(tmp_path, "2 1\n0 5 1\n"))

    def test_save_roundtrip(self, tmp_path):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 3.5), (2, 3, 1.0)])
        path = str(tmp_path / "out.txt")
        save_graph(g, path)
        g2 = load_graph(path)
        assert sorted(g.iter_edges()) == sorted(g2.iter_edges())


class TestGraph:
    def test_parallel_edges_collapse(self):
        g = Graph(2, [(0, 1, 5.0), (0, 1, 2.0)])
        assert g.m == 1
        assert g.edge_weight(0, 1) == 2.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 3, 1.0)])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 1, -1.0)])

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, w):
        with pytest.raises(ValueError):
            Graph(2, [(0, 1, w)])

    def test_weight_stats(self):
        g = Graph(3, [(0, 1, 0.0), (1, 2, 4.0), (0, 2, 2.0)])
        assert g.max_weight == 4.0
        assert g.min_positive_weight == 2.0


def same_graph(got, n, edges):
    """``got`` equals ``graph_reference(n, edges)``, floats by repr
    (which tells 0.0 from -0.0 and int from float)."""
    fwd, rev, max_weight, min_positive_weight = graph_reference(n, edges)
    assert repr(got.fwd) == repr(fwd)
    assert repr(got.rev) == repr(rev)
    assert got.m == sum(map(len, fwd))
    assert repr(got.max_weight) == repr(max_weight)
    assert repr(got.min_positive_weight) == repr(min_positive_weight)
    flat = [(u, v, w) for u, nbrs in enumerate(fwd) for v, w in nbrs]
    a, b, w = got.edge_arrays()
    assert (a.dtype, b.dtype, w.dtype) == (np.int64, np.int64, np.float64)
    assert repr(list(zip(a.tolist(), b.tolist(), w.tolist()))) == repr(flat)
    weight = {(u, v): w for u, v, w in flat}
    for u in range(n):
        for v in range(n):
            assert repr(got.edge_weight(u, v)) == repr(weight.get((u, v)))


class TestFromArrays:
    """Graph(n, edges) and Graph.from_arrays against the Python-loop
    reference constructor."""

    @given(multigraphs())
    def test_equals_loop_constructor(self, case):
        n, edges = case
        same_graph(Graph(n, edges), n, edges)
        same_graph(Graph.from_arrays(n, *columns(edges)), n, edges)

    @given(multigraphs(bad=True))
    @example((3, [(2 ** 70, 0, 1.0)]))
    @example((3, [(0, 1, 1.0), (1, -2 ** 70, math.nan)]))
    def test_raises_like_loop_constructor(self, case):
        n, edges = case
        errors = []
        for build in (lambda: graph_reference(n, edges),
                      lambda: Graph(n, edges),
                      lambda: Graph.from_arrays(n, *columns(edges))):
            try:
                build()
                errors.append(None)
            except ValueError as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1] == errors[2]


class TestLighter:
    """Graph.lighter against a dict lookup of each pair's edge weight."""

    @given(multigraphs(), st.data())
    def test_equals_dict_lookup(self, case, data):
        n, edges = case
        weight = {}
        for u, v, w in edges:
            weight[(u, v)] = min(w, weight.get((u, v), math.inf))
        vertex = st.integers(0, max(n - 1, 0))
        pairs = data.draw(st.lists(st.tuples(vertex, vertex, weights),
                                   max_size=12)) if n else []
        pairs += [(x, x, 0.5) for x in range(n)]  # self pairs
        if weight:  # below, at and above an edge, each possibly twice
            for (u, v), w in data.draw(st.lists(
                    st.sampled_from(sorted(weight.items())), max_size=8)):
                pairs.append((u, v, w + data.draw(
                    st.sampled_from([-0.25, 0.0, 0.25]))))
        u, v, w = columns(pairs)
        got = Graph(n, edges).lighter(np.array(u, dtype=np.int64),
                                      np.array(v, dtype=np.int64),
                                      np.array(w, dtype=np.float64))
        assert got.tolist() == [x < weight.get((a, b), math.inf)
                                for a, b, x in pairs]


def transpose(g):
    """The graph with every edge of ``g`` reversed."""
    return Graph(g.n, [(v, u, w) for u, v, w in g.iter_edges()])


class TestTranspose:
    """``rev`` is the forward adjacency of the transposed graph."""

    def test_edge_flipped(self):
        g = Graph(2, [(0, 1, 1.0)])
        t = transpose(g)
        assert t.edge_weight(1, 0) == 1.0
        assert t.edge_weight(0, 1) is None
        assert t.fwd == g.rev and t.rev == g.fwd

    def test_involution(self):
        g = Graph(4, [(0, 1, 1.0), (2, 3, 2.0), (3, 0, 1.0)])
        tt = transpose(transpose(g))
        assert tt.fwd == g.fwd and tt.rev == g.rev

    def test_distances_reverse(self):
        rng = random.Random(7)
        edges = random_edges(30, 90, 5, rng)
        g = Graph(30, edges)
        t = transpose(g)
        rev_edges = [(v, u, w) for u, v, w in edges]
        for s in range(30):
            want = dijkstra(30, rev_edges, s)
            assert dijkstra(30, list(t.iter_edges()), s) == want
            assert bounded_search(g, s, math.inf, BACKWARD).reached == \
                {v: d for v, d in enumerate(want) if d < math.inf}


class TestInduce:
    """A frame keeps its parent's ids; only a partial frame has lists."""

    def test_path_gap(self):
        sub = induce(Graph(3, [(0, 1, 1.0), (1, 2, 1.0)]), {0, 2})
        assert sub.fwd == {0: [], 2: []} and sub.rev == {0: [], 2: []}
        assert sub.global_ids == [0, 2] and len(sub) == 2
        assert not sub.is_full and sub.n == 3

    def test_full_subset_identity(self):
        g = Graph(4, [(0, 1, 1.0), (2, 3, 2.0)])
        sub = induce(g, range(4))
        assert sub.is_full
        assert sub.parent is g and sub.fwd is None  # shared, not copied
        assert sub.min_positive_weight == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induce(Graph(3, []), [0, 7])

    def test_empty_subset(self):
        sub = induce(Graph(3, [(0, 1, 1.0)]), [])
        assert len(sub) == 0 and sub.fwd == {} and sub.rev == {}
        assert sub.min_positive_weight == math.inf

    @given(subgraphs())
    @example((3, [(0, 1, 0.0), (1, 0, 2.0), (1, 2, 1.0)], [0, 1]))
    @example((3, [(0, 1, 0.5), (0, 1, -0.0), (1, 0, 0.25)], [0, 1]))
    def test_against_filter_oracle(self, case):
        # each member's lists are the parent's filtered to members, by
        # repr; the weight stats are the members' edges' own
        n, edges, ids = case
        g = Graph(n, edges)
        frame = induce(g, ids)
        if frame.is_full:  # searches run on g itself
            frame = g
        members = set(ids)
        fwd, rev, _, min_positive_weight = graph_reference(
            n, [(u, v, w) for u, v, w in edges
                if u in members and v in members])
        for x in ids:
            for got, parent, want in ((frame.fwd, g.fwd, fwd),
                                      (frame.rev, g.rev, rev)):
                assert repr(got[x]) == repr(
                    [(y, w) for y, w in parent[x] if y in members])
                assert repr(got[x]) == repr(want[x])
        assert repr(frame.min_positive_weight) == repr(min_positive_weight)


edge_sets = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.floats(0, 100, allow_nan=False),
    max_size=12,
).map(EdgeSet)


class TestMergeMin:
    def test_keeps_minimum(self):
        a = EdgeSet({(0, 1): 3.0})
        b = EdgeSet({(0, 1): 2.0})
        assert merge_min(a, b).entries == {(0, 1): 2.0}

    @given(edge_sets)
    def test_identity(self, x):
        assert merge_min(x, EdgeSet()) == x
        assert merge_min(EdgeSet(), x) == x

    @given(edge_sets)
    def test_idempotent(self, x):
        assert merge_min(x, x) == x

    @given(edge_sets, edge_sets)
    def test_commutative(self, a, b):
        assert merge_min(a, b) == merge_min(b, a)

    @given(edge_sets, edge_sets, edge_sets)
    def test_associative(self, a, b, c):
        assert merge_min(merge_min(a, b), c) == merge_min(a, merge_min(b, c))

    @given(edge_sets, edge_sets)
    def test_matches_naive(self, a, b):
        want = dict(a.entries)
        for k, w in b.entries.items():
            want[k] = min(w, want.get(k, math.inf))
        assert merge_min(a, b).entries == want


class TestAugment:
    def test_shortcut_used(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        aug = augment(g, EdgeSet({(0, 2): 2.0}))
        assert aug.edge_weight(0, 2) == 2.0
        assert dijkstra(3, list(aug.iter_edges()), 0)[2] == 2.0

    def test_empty_hopset_identity(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        aug = augment(g, EdgeSet())
        assert sorted(aug.iter_edges()) == sorted(g.iter_edges())

    def test_original_unmodified(self):
        g = Graph(2, [(0, 1, 5.0)])
        augment(g, EdgeSet({(0, 1): 1.0}))
        assert g.edge_weight(0, 1) == 5.0

    def test_out_of_range_endpoint(self):
        for u in (9, 2 ** 70, -2 ** 70):
            with pytest.raises(ValueError, match="out of range"):
                augment(Graph(2, []), EdgeSet({(0, u): 1.0}))

    def test_valid_hopset_preserves_distances(self):
        # any hopset whose weights dominate true distances cannot change
        # any shortest path
        rng = random.Random(3)
        edges = random_edges(25, 80, 6, rng)
        g = Graph(25, edges)
        dist = all_pairs(25, edges)
        h = EdgeSet()
        for _ in range(40):
            u, v = rng.randrange(25), rng.randrange(25)
            if u != v and dist[u][v] < math.inf:
                h.add(u, v, dist[u][v] + rng.choice([0.0, 1.0, 3.0]))
        aug_dist = all_pairs(25, list(augment(g, h).iter_edges()))
        assert aug_dist == dist
