import math
import random

import pytest
from hypothesis import given, strategies as st

from dirhopset.graph import Graph, augment
from dirhopset.parallel import (RoundingScheme, phopset, quantize)
from dirhopset.params import derive_params

from oracles import (all_pairs, dijkstra, edge_dict, hop_dp,
                     quantize_reference, quantized_weights, random_edges)


def practical(n, **kw):
    return derive_params(n, 0.5, k=2, lam=1, mode="practical", **kw)


@st.composite
def multigraphs(draw):
    """(n, edges) with parallel edges, self-loops, zero and fractional
    weights."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    weight = st.one_of(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, 2.0]),
                       st.floats(0.0, 300.0))
    return n, draw(st.lists(st.tuples(vertex, vertex, weight), max_size=30))


class TestQuantize:
    def test_zero_weight_becomes_one_unit(self):
        scheme = RoundingScheme(scale_index=1, delta=1.0, beta=2.0)
        qg = quantize(Graph(2, [(0, 1, 0.0)]), 1, scheme)
        assert quantized_weights(qg)[(0, 1)] == 1

    def test_heavy_edge_dropped(self):
        scheme = RoundingScheme(scale_index=1, delta=1.0, beta=2.0)
        qg = quantize(Graph(2, [(0, 1, 5.0)]), 1, scheme)  # 5 >= 2^2
        assert (0, 1) not in quantized_weights(qg)
        assert qg.graph.m == 0

    def test_ceiling(self):
        scheme = RoundingScheme(scale_index=1, delta=1.0, beta=2.0)
        assert scheme.unit == 0.5
        qg = quantize(Graph(2, [(0, 1, 1.2)]), 1, scheme)
        assert quantized_weights(qg)[(0, 1)] == 3

    def test_rounding_bounds_random(self):
        rng = random.Random(42)
        for _ in range(200):
            i = rng.randint(-2, 12)
            scheme = RoundingScheme(scale_index=i, delta=0.1, beta=8.0)
            w = rng.uniform(0.0, 2.0 ** (i + 2))
            qg = quantize(Graph(2, [(0, 1, w)]), i, scheme)
            if w >= 2.0 ** (i + 1):
                assert (0, 1) not in quantized_weights(qg)
            elif w == 0.0:
                assert quantized_weights(qg)[(0, 1)] == 1
            else:
                back = quantized_weights(qg)[(0, 1)] * scheme.unit
                assert w <= back < w + scheme.unit * (1 + 1e-12)

    @given(multigraphs(), st.integers(-3, 8),
           st.sampled_from([(1.0, 2.0), (0.1, 8.0), (0.05, 16.0),
                            (0.3, 1.0)]))
    def test_matches_per_edge_ceil(self, case, i, rounding):
        n, edges = case
        scheme = RoundingScheme(scale_index=i, delta=rounding[0],
                                beta=rounding[1])
        qg = quantize(Graph(n, edges), i, scheme)
        want = quantize_reference(edges, i, scheme.unit)
        assert quantized_weights(qg) == want
        assert list(qg.graph.iter_edges()) == \
            [(u, v, float(q)) for (u, v), q in sorted(want.items())]

    def test_bad_unit(self):
        scheme = RoundingScheme(scale_index=0, delta=0.0, beta=1.0)
        with pytest.raises(ValueError):
            quantize(Graph(1, []), 0, scheme)


class TestPhopset:
    def test_single_edge(self):
        g = Graph(2, [(0, 1, 1.0)])
        h = phopset(g, practical(2), delta=0.2, seed=0, beta=4.0, sweeps=2)
        for u, v, w in h:
            assert (u, v) == (0, 1)
        aug = augment(g, h)
        assert dijkstra(2, list(aug.iter_edges()), 0) == [0.0, 1.0]

    def test_overestimate_only(self):
        rng = random.Random(13)
        edges = random_edges(30, 90, 8, rng)
        g = Graph(30, edges)
        h = phopset(g, practical(30, L=1), delta=0.1, seed=2, beta=6.0,
                    sweeps=2)
        assert len(h) > 0
        dist = all_pairs(30, edges)
        for u, v, w in h:
            d = dist[u][v]
            assert d < math.inf
            if w == 0.0:
                assert d == 0.0
            else:
                assert w >= d - 1e-9 * max(1.0, d)

    def test_distance_preservation(self):
        rng = random.Random(19)
        edges = random_edges(25, 70, 4, rng)
        g = Graph(25, edges)
        h = phopset(g, practical(25), delta=0.1, seed=5, beta=5.0, sweeps=2)
        before = all_pairs(25, edges)
        after = all_pairs(25, list(augment(g, h).iter_edges()))
        for u in range(25):
            for v in range(25):
                if math.isinf(before[u][v]):
                    assert math.isinf(after[u][v])
                    continue
                assert after[u][v] <= before[u][v] + 1e-9
                # shortcuts may only overestimate, so exact distances hold
                assert after[u][v] >= before[u][v] - 1e-9 * max(
                    1.0, before[u][v])

    def test_hop_reduction_on_path(self):
        n = 64
        g = Graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
        h = phopset(g, practical(n, L=1), delta=0.1, seed=1, beta=8.0,
                    sweeps=4)
        aug_edges = list(augment(g, h).iter_edges())
        beta_dist = hop_dp(n, aug_edges, 0, 8)[n - 1]
        assert beta_dist < math.inf
        assert beta_dist <= 1.5 * (n - 1)

    def test_fractional_weights_not_floored(self):
        # shortcuts lighter than 1 but not than the lightest positive
        # edge join pairs at positive distance and must keep their weight
        g = Graph(3, [(0, 1, 0.3), (1, 2, 0.3)])
        h = phopset(g, practical(3), delta=0.2, seed=0, beta=4.0, sweeps=2)
        assert edge_dict(h)[(0, 2)] >= 0.6 - 1e-9

    def test_zero_distance_pairs_floored(self):
        g = Graph(3, [(0, 1, 0.0), (1, 2, 0.0), (2, 0, 0.5)])
        h = phopset(g, practical(3), delta=0.2, seed=0, beta=4.0, sweeps=2)
        assert edge_dict(h).get((0, 2)) == 0.0

    def test_light_weights_normalised(self):
        # the hopset of g·s divided by s, s = 1 / the lightest weight
        rng = random.Random(6)
        edges = [(u, v, rng.choice([0.3, 0.7, 1.1, 2.9]))
                 for u, v, _ in random_edges(20, 60, 1, rng)]
        s = 1.0 / 0.3
        scaled = Graph(20, [(u, v, w * s) for u, v, w in edges])
        args = dict(delta=0.2, seed=1, beta=4.0, sweeps=2)
        want = phopset(scaled, practical(20), **args)
        got = phopset(Graph(20, edges), practical(20), **args)
        assert len(want) > 0
        assert edge_dict(got) == {k: w / s for k, w in edge_dict(want).items()}

    def test_deterministic(self):
        rng = random.Random(3)
        g = Graph(20, random_edges(20, 50, 3, rng))
        a = phopset(g, practical(20), delta=0.2, seed=11, beta=4.0, sweeps=2)
        b = phopset(g, practical(20), delta=0.2, seed=11, beta=4.0, sweeps=2)
        assert a == b

    @pytest.mark.parametrize("sweeps", [0, -1])
    def test_rejects_bad_sweeps(self, sweeps):
        g = Graph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="sweeps must be >= 1"):
            phopset(g, practical(2), delta=0.5, seed=0, sweeps=sweeps)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            phopset(Graph(2, []), practical(2), delta=0.0, seed=0)

    @pytest.mark.parametrize("delta,beta", [(-1.0, 4.0), (math.inf, 4.0),
                                            (0.1, 0.0), (0.1, -3.0),
                                            (0.1, math.nan),
                                            (0.1, math.inf),
                                            (1e-300, 1e10)])
    def test_rejects_bad_rounding(self, delta, beta):
        g = Graph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="finite and > 0|too large"):
            phopset(g, practical(2), delta=delta, seed=0, beta=beta)
