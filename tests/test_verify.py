import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dirhopset.graph import EdgeSet, Graph
from dirhopset.verify import (VerificationReport, _hop_limited,
                              _with_hopset, check_hopset,
                              hop_limited_distances, measure_hopbound,
                              oracle_distances)

from oracles import dijkstra, hop_dp, random_edges

INF = math.inf


def path_graph(n):
    return Graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


class TestHopLimited:
    def test_one_hop_short(self):
        assert hop_limited_distances(path_graph(3), 0, 1).dist == \
            [0.0, 1.0, INF]

    def test_two_hops(self):
        assert hop_limited_distances(path_graph(3), 0, 2).dist == \
            [0.0, 1.0, 2.0]

    def test_zero_hops(self):
        assert hop_limited_distances(path_graph(3), 1, 0).dist == \
            [INF, 0.0, INF]

    def test_empty_graph(self):
        assert hop_limited_distances(Graph(3, []), 0, 5).dist == \
            [0.0, INF, INF]

    def test_complete_digraph(self):
        n = 6
        g = Graph(n, [(u, v, 1.0) for u in range(n) for v in range(n)
                      if u != v])
        d = hop_limited_distances(g, 2, 1).dist
        assert d == [1.0, 1.0, 0.0, 1.0, 1.0, 1.0]

    def test_matches_dp_oracle(self):
        rng = random.Random(6)
        edges = random_edges(30, 90, 5, rng)
        g = Graph(30, edges)
        for beta in (1, 2, 3, 7):
            for s in (0, 15):
                assert hop_limited_distances(g, s, beta).dist == \
                    hop_dp(30, edges, s, beta)

    def test_full_beta_equals_dijkstra(self):
        rng = random.Random(10)
        edges = random_edges(50, 150, 6, rng)
        g = Graph(50, edges)
        for s in (0, 25, 49):
            assert hop_limited_distances(g, s, 49).dist == \
                dijkstra(50, edges, s)

    def test_monotone_in_beta(self):
        rng = random.Random(14)
        g = Graph(25, random_edges(25, 80, 4, rng))
        prev = hop_limited_distances(g, 3, 1).dist
        beta = 2
        while beta <= 32:
            cur = hop_limited_distances(g, 3, beta).dist
            assert all(c <= p for c, p in zip(cur, prev))
            prev, beta = cur, beta * 2

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            hop_limited_distances(path_graph(3), 0, -1)


class TestOracleDistances:
    def test_empty(self):
        assert oracle_distances(Graph(3, []), [0]) == {0: [0.0, INF, INF]}

    def test_agrees_with_reference(self):
        rng = random.Random(8)
        edges = random_edges(40, 120, 5, rng)
        g = Graph(40, edges)
        got = oracle_distances(g, range(40))
        for s in range(40):
            assert got[s] == dijkstra(40, edges, s)


class TestCheckHopset:
    def test_empty_hopset_valid(self):
        g = path_graph(8)
        rep = check_hopset(g, EdgeSet(), beta=7, epsilon=0.0)
        assert rep.ok
        assert rep.max_ratio == 1.0
        assert rep.pairs_checked > 0

    def test_undercut_edge_flagged(self):
        g = path_graph(5)
        rep = check_hopset(g, EdgeSet({(0, 4): 3.0}), beta=4, epsilon=0.0)
        assert not rep.ok
        assert any(v.get("edge") == [0, 4] for v in rep.validity_violations)

    def test_edge_between_unreachable_pair(self):
        g = path_graph(4)
        rep = check_hopset(g, EdgeSet({(3, 0): 1.0}), beta=3, epsilon=0.0)
        assert any(v.get("edge") == [3, 0] for v in rep.validity_violations)

    def test_tolerance_is_relative(self):
        # an absolute 1e-9 would pass both shortcuts as exact
        g = Graph(3, [(0, 1, 1e-12), (1, 2, 1e-12)])
        rep = check_hopset(g, EdgeSet({(0, 2): 0.0}), beta=2, epsilon=0.0)
        assert rep.validity_violations[0] == {
            "edge": [0, 2], "weight": 0.0, "distance": 2e-12}
        assert {"pair": [0, 2], "beta_dist": 0.0, "distance": 2e-12,
                "reason": "beta-hop distance below truth"} \
            in rep.validity_violations
        g = Graph(3, [(0, 1, 0.0), (1, 2, 0.0)])
        rep = check_hopset(g, EdgeSet({(0, 2): 1e-12}), beta=1, epsilon=0.0,
                           collect_pairs=True)
        assert not rep.validity_violations
        assert {"pair": [0, 2], "beta_dist": 1e-12, "distance": 0.0} \
            in rep.ratio_violations
        assert (0, 2, 0.0, 1e-12, INF) in rep.pair_rows

    def test_small_beta_ratio_violation(self):
        g = path_graph(8)
        rep = check_hopset(g, EdgeSet(), beta=2, epsilon=0.0)
        assert rep.ratio_violations  # far pairs unreachable within 2 hops

    def test_exact_hopset_ratio_one(self):
        g = path_graph(10)
        h = EdgeSet({(u, v): float(v - u)
                     for u in range(10) for v in range(u + 2, 10)})
        rep = check_hopset(g, h, beta=2, epsilon=0.0, pair_sample="all-pairs")
        assert not rep.validity_violations
        assert rep.max_ratio == 1.0

    def test_edge_violations_in_tail_then_hopset_order(self):
        # more hopset tails than one batched-search chunk holds
        rng = random.Random(12)
        n = 150
        edges = random_edges(n, 250, 5, rng)
        h = EdgeSet()
        for _ in range(400):
            h.add(rng.randrange(n), rng.randrange(n),
                  rng.choice([0.5, 2.0, 6.0, 12.0]))
        truth = {u: dijkstra(n, edges, u) for u, _, _ in h}
        expected = []
        for u in sorted(truth):
            for a, b, w in h:
                d = truth[u][b]
                if a != u:
                    continue
                if d == INF:
                    expected.append(
                        {"edge": [a, b], "weight": w, "distance": None,
                         "reason": "edge between unreachable pair"})
                elif w < d - 1e-9 * max(1.0, d):
                    expected.append({"edge": [a, b], "weight": w,
                                     "distance": d})
        rep = check_hopset(Graph(n, edges), h, beta=n - 1, epsilon=0.0,
                           pair_sample="sampled:2")
        got = [v for v in rep.validity_violations if "edge" in v]
        assert len(truth) > 64 and len(expected) > 100
        assert got == expected

    def test_sampled_sources(self):
        g = path_graph(20)
        rep = check_hopset(g, EdgeSet(), beta=19, epsilon=0.0,
                           pair_sample="sampled:4")
        assert rep.ok
        assert rep.pairs_checked <= 4 * 20

    @pytest.mark.parametrize("entries", [
        {(0, 9): 1.0}, {(9, 0): 1.0}, {(-1, 2): 1.0}, {(1, -3): 1.0},
        {(0, 2): math.nan}, {(0, 2): INF}, {(0, 1): INF}, {(0, 2): -1.0},
        {(2 ** 70, 0): 1.0}, {(0, -2 ** 70): 1.0}])
    def test_bad_hopset_rejected(self, entries):
        with pytest.raises(ValueError):
            check_hopset(path_graph(4), EdgeSet(entries), beta=3,
                         epsilon=0.0)
        with pytest.raises(ValueError):
            measure_hopbound(path_graph(4), EdgeSet(entries), 0.0, [(0, 3)])

    @pytest.mark.parametrize("kw, fragment", [
        ({"epsilon": math.nan}, "epsilon must be finite"),
        ({"epsilon": INF}, "epsilon must be finite"),
        ({"ratio_bound": math.nan}, "ratio bound must be finite"),
        ({"ratio_bound": INF}, "ratio bound must be finite"),
        ({"beta": 0}, "beta must be >= 1")])
    def test_bad_claim_rejected(self, kw, fragment):
        # a NaN bound would pass every ratio
        args = {"beta": 3, "epsilon": 0.0, **kw}
        with pytest.raises(ValueError, match=fragment):
            check_hopset(path_graph(4), EdgeSet({(0, 3): 9.0}), **args)

    def test_json_roundtrip_stable(self):
        g = path_graph(6)
        a = check_hopset(g, EdgeSet(), beta=5, epsilon=0.0).to_json()
        b = check_hopset(g, EdgeSet(), beta=5, epsilon=0.0).to_json()
        assert a == b


class TestMeasureHopbound:
    def test_single_edge(self):
        g = Graph(2, [(0, 1, 1.0)])
        assert measure_hopbound(g, EdgeSet(), 0.0, [(0, 1)]) == 1

    def test_midpoint_star(self):
        n = 16
        g = path_graph(n)
        h = EdgeSet()
        for u in range(8):
            h.add(u, 8, float(8 - u))
        for v in range(9, n):
            h.add(8, v, float(v - 8))
        assert measure_hopbound(g, h, 0.0, [(0, n - 1)]) == 2

    def test_no_hopset_path(self):
        g = path_graph(9)
        assert measure_hopbound(g, EdgeSet(), 0.0, [(0, 8)]) == 8

    def test_unreachable_pairs_ignored(self):
        g = path_graph(4)
        assert measure_hopbound(g, EdgeSet(), 0.0, [(3, 0), (0, 1)]) == 1

    def test_epsilon_slack_lowers_beta(self):
        g = path_graph(9)
        h = EdgeSet({(0, 8): 9.0})  # 12.5% overestimate
        assert measure_hopbound(g, h, 0.0, [(0, 8)]) == 8
        assert measure_hopbound(g, h, 0.2, [(0, 8)]) == 1


@st.composite
def graph_and_hopset(draw):
    """Small graph and hopset with zero and fractional weights; the hopset
    may repeat g's edges with other weights."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    weight = st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.7, 1.0, 1.5, 3.0])
    edges = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=16))
    h = EdgeSet()
    for u, v, w in draw(st.lists(st.tuples(vertex, vertex, weight),
                                 max_size=10)):
        h.add(u, v, w)
    for u, v, w in draw(st.lists(st.sampled_from(edges), max_size=4)
                        if edges else st.just([])):
        h.add(u, v, w + draw(weight))
    return n, edges, h


class TestKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(graph_and_hopset(), st.data())
    def test_batched_rows_equal_dp(self, case, data):
        n, edges, h = case
        beta = data.draw(st.integers(0, n))
        sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=9))
        aug = edges + list(h)
        rcsr = _with_hopset(Graph(n, edges), h)[1]
        rows = _hop_limited(rcsr, sources, beta).tolist()
        for s, row in zip(sources, rows):
            assert row == hop_dp(n, aug, s, beta)

    @settings(max_examples=150, deadline=None)
    @given(graph_and_hopset(), st.sampled_from([-0.2, 0.0, 0.1, 0.5]),
           st.data())
    def test_measure_hopbound_equals_brute_force(self, case, epsilon, data):
        n, edges, h = case
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)),
                                   max_size=12))
        g = Graph(n, edges)
        aug = edges + list(h)
        truth = {u: dijkstra(n, list(g.iter_edges()), u) for u, _ in pairs}

        def satisfied(beta):
            return all(hop_dp(n, aug, u, beta)[v]
                       <= (1.0 + epsilon) * truth[u][v] + 1e-9
                       for u, v in pairs if truth[u][v] < INF)

        expected = next((b for b in range(1, n + 1) if satisfied(b)), None)
        if expected is None:
            with pytest.raises(ValueError):
                measure_hopbound(g, h, epsilon, pairs)
        else:
            assert measure_hopbound(g, h, epsilon, pairs) == expected


def test_build_seconds_kept_out_of_json():
    report = VerificationReport(hopset_size=1)
    before = report.to_json()
    report.build_seconds = 2.5
    assert report.to_json() == before
    assert "build_seconds" not in json.loads(before)
