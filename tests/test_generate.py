import numpy as np
import pytest

from dirhopset.generate import FAMILIES, generate


class TestGenerate:
    def test_path(self):
        g = generate("path", 5, W=1)
        assert sorted(g.iter_edges()) == [(0, 1, 1.0), (1, 2, 1.0),
                                          (2, 3, 1.0), (3, 4, 1.0)]

    def test_cycle(self):
        g = generate("cycle", 3)
        assert sorted(g.iter_edges()) == [(0, 1, 1.0), (1, 2, 1.0),
                                          (2, 0, 1.0)]

    def test_binary_tree(self):
        g = generate("binary-tree", 7)
        assert g.m == 6

    def test_gnm_deterministic(self):
        a = generate("random-gnm", 50, m=200, seed=7)
        b = generate("random-gnm", 50, m=200, seed=7)
        assert sorted(a.iter_edges()) == sorted(b.iter_edges())
        c = generate("random-gnm", 50, m=200, seed=8)
        assert sorted(a.iter_edges()) != sorted(c.iter_edges())

    def test_gnm_edge_count(self):
        g = generate("random-gnm", 20, m=100, seed=1)
        assert g.m == 100

    def test_gnm_infeasible(self):
        with pytest.raises(ValueError):
            generate("random-gnm", 4, m=50)

    @pytest.mark.parametrize("family", ["random-gnm", "layered-dag"])
    def test_negative_m(self, family):
        with pytest.raises(ValueError, match="m must be >= 0"):
            generate(family, 9, m=-1)

    def test_weights_in_range(self):
        g = generate("random-gnm", 30, m=120, W=9, seed=3)
        for _, _, w in g.iter_edges():
            assert 1.0 <= w <= 9.0
            assert w == int(w)

    def test_layered_dag_is_acyclic(self):
        g = generate("layered-dag", 40, m=100, seed=5)
        # every edge goes to a later layer, so ids strictly increase
        for u, v, _ in g.iter_edges():
            assert u < v

    def test_grid(self):
        g = generate("grid", 9)
        assert g.n == 9 and g.m > 0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate("torus", 10)

    def test_all_families_run(self):
        for fam in FAMILIES:
            g = generate(fam, 16, m=40, W=3, seed=2)
            assert g.n == 16

    @pytest.mark.parametrize("family", ["random-gnm", "layered-dag"])
    def test_numpy_integers_as_ints(self, family):
        # the stream is keyed by repr, where np.int64(16) is not 16
        want = sorted(generate(family, 16, 32, 8, 1).iter_edges())
        for n, m, W, seed in [(np.int64(16), 32, 8, 1),
                              (16, np.int32(32), 8, 1),
                              (16, 32, np.int64(8), 1),
                              (16, 32, 8, np.int64(1)),
                              (np.int64(16), np.int64(32), np.uint8(8),
                               np.int16(1))]:
            assert sorted(generate(family, n, m, W, seed).iter_edges()) \
                == want
