import math
import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dirhopset.experiment import read_hopset, write_hopset
from dirhopset.graph import (EdgeSet, Graph, GraphFormatError, _parse_lines,
                             augment, check_edges, cut_frames, induce,
                             load_graph, merge_min, merge_min_arrays,
                             read_edges, save_graph)
from dirhopset.search import BACKWARD, bounded_search

from oracles import (all_pairs, dijkstra, edge_dict, graph_reference,
                     random_edges)

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


# tokens of edge-list lines: ids and weights that numpy's parser reads
# as int and float do (some out of range in a file of n = 7), then ones
# that it refuses
ROW_IDS = ["0", "1", "5", "+1", "-0", "00", "-1", "7"]
BAD_IDS = ["1_0", "٣", "２", "1.0", "0x1", str(2 ** 63),
           str(2 ** 63 - 1), str(-2 ** 63), str(-2 ** 63 - 1)]
ROW_WEIGHTS = ["1.0", "0.5", "0", "-0.0", "2", "+.5e-3", "1e-400",
               "0.1000000000000000055511151231257827021181583404541015625",
               "1e400", "nan", "-nan", "inf", "-inf", "Infinity", "-1"]
BAD_WEIGHTS = ["1_0.5", "١.٥", "1e", "0x1p3"]
SEPARATORS = [" ", "\t", "  ", "\x1c", "\xa0", "　", "\x0b", "\x00"]
ODD_CHARS = "0123456789+-._eE#\t \x00\x1c\xa0　٣２nafi"


@st.composite
def edge_lines(draw, rows):
    """One line of an edge-list file, without its line ending; if
    ``rows``, a blank line or "u v w" that numpy's parser reads."""
    kind = draw(st.sampled_from(
        ["edge"] * 6 + ["blank"] if rows else
        ["edge", "edge", "short", "long", "comment", "midline", "blank",
         "odd"]))
    if kind == "comment":
        return draw(st.sampled_from(["#", "# c", "  # indented", "#0 1 2"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t", "\xa0", "\x0c"]))
    if kind == "odd":
        return draw(st.text(st.sampled_from(ODD_CHARS), max_size=8))
    ids, weights = ROW_IDS, ROW_WEIGHTS
    if not rows:
        ids, weights = ids + BAD_IDS, weights + BAD_WEIGHTS
    ident = st.one_of(st.integers(0, 6).map(str), st.sampled_from(ids))
    weight = st.one_of(
        st.sampled_from(weights),
        st.builds(lambda x, p: f"{x:.{p}g}", st.floats(0, 1e6),
                  st.integers(1, 40)),
        st.floats(0, 1e6).map(repr))
    fields = [draw(ident), draw(ident)]
    if kind != "short":
        fields.append(draw(weight))
    if kind == "long":
        fields.append(draw(weight))
    sep = draw(st.sampled_from(SEPARATORS[:-1] if rows else SEPARATORS))
    line = draw(st.sampled_from(["", " "])) + sep.join(fields)
    if kind == "midline":
        line += " # " + draw(st.sampled_from(["c", "1", "0 1 2"]))
    return line


@st.composite
def edge_files(draw):
    """(header, text): a graph file (with a header line, good or bad)
    or a hopset file, its lines ended by LF, CRLF or CR; in about half
    the files numpy's parser reads every line (``edge_lines``), under a
    header "7 3" in a graph file."""
    header, rows = draw(st.booleans()), draw(st.booleans())
    lines = draw(st.lists(edge_lines(rows), max_size=8))
    if header and (rows or draw(st.booleans())):
        head = "7 3" if rows else draw(st.one_of(
            st.builds("{} {}".format, st.integers(0, 7), st.integers(0, 8)),
            st.sampled_from(["x 1", "5", "-1 0", "4 3 1",
                             f"{2 ** 63} 0", "٤ 1"])))
        lines.insert(draw(st.integers(0, min(2, len(lines)))), head)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    tail = end if draw(st.booleans()) else ""
    return header, end.join(lines) + tail if lines else ""


def read_outcome(read, *args):
    """What ``read(*args)`` gives: (n, m, ids, id dtype, weight bits), or
    the exception's type and message."""
    try:
        n, m, (u, v, w) = read(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return (n, m, u.tolist(), v.tolist(), u.dtype, v.dtype,
            np.asarray(w, np.float64).view(np.uint64).tolist())


class TestReadEdges:
    """``read_edges`` parses with numpy and falls back to the line loop
    ``_parse_lines``, the reference: both must read every text alike."""

    @pytest.mark.filterwarnings("error::UserWarning")
    @settings(deadline=None, max_examples=300)  # writes temp files
    @given(edge_files())
    @example((False, "0 1 2.0 # c\n"))  # comments="#" would accept it
    @example((True, "3 1\n0 1 2.0 # c\n"))
    @example((False, ""))
    @example((True, "# only a comment\n"))
    @example((True, "2 0\n\n  \n"))
    @example((False, "0 1 1.5\r\n2 3 -0.0\r\n"))
    @example((False, f"{2 ** 63} 0 1.0\n-4 -5 0.5\n"))
    @example((True, "3 1\n-1 0 1.0\n"))
    @example((True, "3 1\n0 3 1.0\n"))
    @example((False, "0 1 inf\n"))
    def test_numpy_path_equals_line_loop(self, case):
        header, text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "e.txt")
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
            with open(path, "r", encoding="utf-8") as fh:
                decoded = fh.read()
            got = read_outcome(read_edges, path, header)
            want = read_outcome(_parse_lines, path, decoded, header)
        assert got == want


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
        n, edges, ids = case
        g = Graph(n, edges)
        same_frame(g, n, edges, ids, induce(g, ids))


def same_frame(g, n, edges, ids, frame):
    """Each member's lists in ``frame`` are g's filtered to members, by
    repr, and so are the reference lists of the members' edges; the
    weight stats are the members' edges' own."""
    if frame.is_full:  # searches run on g itself
        frame = g
    members = set(ids)
    fwd, rev, _, min_positive_weight = graph_reference(
        n, [(u, v, w) for u, v, w in edges if u in members and v in members])
    for x in ids:
        for got, parent, want in ((frame.fwd, g.fwd, fwd),
                                  (frame.rev, g.rev, rev)):
            assert repr(got[x]) == repr(
                [(y, w) for y, w in parent[x] if y in members])
            assert repr(got[x]) == repr(want[x])
    assert repr(frame.min_positive_weight) == repr(min_positive_weight)


@st.composite
def cuts(draw):
    """(n, edges, parts, d): a multigraph, a list of sorted vertex
    subsets that may overlap, and a bound, sometimes an edge's weight."""
    n, edges = draw(multigraphs())
    part = st.sets(st.integers(0, max(n - 1, 0)), max_size=n).map(sorted)
    bound = st.one_of(weights, st.sampled_from([w for _, _, w in edges])) \
        if edges else weights
    return n, edges, draw(st.lists(part, max_size=6)), draw(bound)


class TestCutFrames:
    """``cut_frames`` against the filter oracle, part by part."""

    @given(cuts())
    # a singleton part whose only edge is a positive self-loop within d
    @example((2, [(0, 0, 0.5), (0, 1, 0.25)], [[0]], 0.5))
    @example((3, [(0, 1, 0.0), (1, 2, 1.0), (2, 0, 3.0)],
              [[0, 1], [1, 2], [0, 1, 2], [], [0, 2]], 1.0))
    def test_against_filter_oracle(self, case):
        n, edges, parts, d = case
        g = Graph(n, edges)
        frames = cut_frames(g, parts, d)
        assert len(frames) == len(parts)
        for ids, frame in zip(parts, frames):
            members = set(ids)
            alive = any(0 < w <= d for u, v, w in g.iter_edges()
                        if u in members and v in members)
            assert (frame is not None) == alive
            if frame is not None:
                assert frame.global_ids == ids and frame.parent is g
                same_frame(g, n, edges, ids, frame)


edge_lists = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                st.floats(0, 100, allow_nan=False)),
                      max_size=12)
edge_sets = edge_lists.map(EdgeSet)


class TestMergeMin:
    def test_keeps_minimum(self):
        a = EdgeSet([(0, 1, 3.0)])
        b = EdgeSet([(0, 1, 2.0)])
        assert edge_dict(merge_min(a, b)) == {(0, 1): 2.0}

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
        want = edge_dict(a)
        for k, w in edge_dict(b).items():
            want[k] = min(w, want.get(k, math.inf))
        assert edge_dict(merge_min(a, b)) == want


def first_lightest(edges):
    """Sorted (u, v, w) of the first of the lightest weights per pair."""
    best = {}
    for u, v, w in edges:
        if (u, v) not in best or w < best[(u, v)]:
            best[(u, v)] = w
    return [(u, v, w) for (u, v), w in sorted(best.items())]


# unsorted edges with repeated pairs, and weights that are equal but
# for their bits (0.0 and -0.0); ids are not checked by an edge set
raw_edges = st.lists(st.tuples(
    st.integers(-1, 4), st.integers(-1, 4),
    st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5]),
              st.floats(0, 100))), max_size=10)
edge_set_ops = st.lists(st.tuples(st.sampled_from(
    ["add", "extend", "from_arrays", "merge_min", "read"]), raw_edges),
    max_size=6)


def lexsort_merge(u, v, w):
    """``merge_min_arrays`` by a stable sort on w too: the first of the
    lightest rows per pair, NaN sorted last."""
    order = np.lexsort((w, v, u))
    u, v = u[order], v[order]
    first = np.ones(len(u), dtype=bool)
    first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    return u[first], v[first], w[order[first]]


class TestMergeMinArrays:
    @given(st.lists(st.tuples(
        st.one_of(st.integers(-1, 3), st.just(2 ** 70)), st.integers(-1, 3),
        st.sampled_from([0.0, -0.0, 0.5, 1.0, math.inf, math.nan, -1.0])),
        max_size=16))
    def test_equals_lexsort_reference(self, edges):
        # ids beyond 64 bits come as objects, as from an EdgeSet
        ids = object if any(u == 2 ** 70 for u, _, _ in edges) else np.int64
        u, v, w = columns(edges)
        u, v, w = np.array(u, ids), np.array(v, ids), np.array(w, float)
        got, want = merge_min_arrays(u, v, w), lexsort_merge(u, v, w)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()
        assert got[2].tobytes() == want[2].tobytes()  # weight bits


class TestEdgeSet:
    @given(raw_edges, edge_set_ops)
    @example([(0, 1, 0.0)], [("extend", [(0, 1, -0.0)]),
                             ("add", [(0, 1, -0.0), (0, 0, 1.0)])])
    def test_interleaving_equals_dict_oracle(self, first, ops):
        h, edges = EdgeSet(first), list(first)
        for op, batch in ops:
            if op == "add":
                for edge in batch:
                    h.add(*edge)
            elif op == "extend":
                h.extend(*columns(batch))
            elif op == "from_arrays":
                h = EdgeSet.from_arrays(*(
                    col.tolist() + list(more)
                    for col, more in zip(h.arrays(), columns(batch))))
            elif op == "merge_min":
                h = merge_min(h, EdgeSet.from_arrays(*columns(batch)))
            else:
                assert len(h) == len(first_lightest(edges))
            if op != "read":
                edges += batch
        want = first_lightest(edges)
        assert repr(list(h)) == repr(want)  # repr tells -0.0 from 0.0
        u, v, w = h.arrays()
        assert (u.dtype, v.dtype, w.dtype) == (np.int64, np.int64,
                                               np.float64)
        pairs = list(zip(u.tolist(), v.tolist()))
        assert pairs == sorted(set(pairs))

    def test_ids_beyond_64_bits_stay_objects(self):
        h = EdgeSet([(2 ** 70, 0, 1.0), (0, 1, 2.0)])
        h.add(0, 1, 1.0)
        assert list(h) == [(0, 1, 1.0), (2 ** 70, 0, 1.0)]
        assert h.arrays()[0].dtype == object
        with pytest.raises(ValueError, match="out of range"):
            check_edges(4, *h.arrays())

    @settings(deadline=None)  # writes and reads temp files
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                              st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                                        st.floats(0, 1e6))), max_size=10))
    def test_file_round_trip(self, edges):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "h.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(f"{u} {v} {w!r}\n" for u, v, w in edges)
            h = read_hopset(path)
            want = first_lightest(edges)
            assert repr(list(h)) == repr(want)
            write_hopset(path, h, {})
            text = "".join(f"{u} {v} {w!r}\n" for u, v, w in want)
            assert open(path, encoding="utf-8").read() == text
            write_hopset(path, read_hopset(path), {})
            assert open(path, encoding="utf-8").read() == text


class TestAugment:
    def test_shortcut_used(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        aug = augment(g, EdgeSet([(0, 2, 2.0)]))
        assert aug.edge_weight(0, 2) == 2.0
        assert dijkstra(3, list(aug.iter_edges()), 0)[2] == 2.0

    def test_empty_hopset_identity(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        aug = augment(g, EdgeSet())
        assert sorted(aug.iter_edges()) == sorted(g.iter_edges())

    def test_original_unmodified(self):
        g = Graph(2, [(0, 1, 5.0)])
        augment(g, EdgeSet([(0, 1, 1.0)]))
        assert g.edge_weight(0, 1) == 5.0

    def test_out_of_range_endpoint(self):
        for u in (9, 2 ** 70, -2 ** 70):
            with pytest.raises(ValueError, match="out of range"):
                augment(Graph(2, []), EdgeSet([(0, u, 1.0)]))

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
