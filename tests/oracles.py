"""Independent reference implementations used as test oracles.

Everything here is written from scratch against the textbook definitions,
not the package code, so agreement is meaningful.
"""
import heapq
import math
import random

import numpy as np

INF = math.inf


def dijkstra(n, edges, source, reverse=False):
    """Plain binary-heap Dijkstra; returns a dense distance list."""
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        if reverse:
            u, v = v, u
        adj[u].append((v, w))
    dist = [INF] * n
    dist[source] = 0.0
    pq = [(0.0, source)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return dist


def floyd_warshall(n, edges):
    dist = [[INF] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for u, v, w in edges:
        if w < dist[u][v]:
            dist[u][v] = w
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                nd = dik + dk[j]
                if nd < di[j]:
                    di[j] = nd
    return dist


def hop_dp(n, edges, source, beta):
    """Synchronous relaxation DP: exact min weight over <= beta hops."""
    dist = [INF] * n
    dist[source] = 0.0
    for _ in range(beta):
        nxt = list(dist)
        for u, v, w in edges:
            if dist[u] + w < nxt[v]:
                nxt[v] = dist[u] + w
        dist = nxt
    return dist


def graph_reference(n, edges):
    """(fwd, rev, max_weight, min_positive_weight) of the graph on ``n``
    vertices with ``edges``, built with a Python loop.

    fwd[u] holds (v, w) by ascending v and rev[v] holds (u, w) by
    ascending u.  Parallel edges collapse to the first of the lightest.
    ValueError, with the package's message, for the first edge with an
    endpoint outside [0, n) or a weight that is not finite and >= 0.
    """
    best = {}
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if not 0 <= w < INF:
            raise ValueError(
                f"weight on edge ({u},{v}) must be finite and >= 0: {w}")
        if (u, v) not in best or w < best[(u, v)]:
            best[(u, v)] = w
    fwd = [[] for _ in range(n)]
    rev = [[] for _ in range(n)]
    for (u, v), w in sorted(best.items()):
        fwd[u].append((v, w))
        rev[v].append((u, w))
    positive = [w for w in best.values() if w > 0]
    return fwd, rev, max(positive, default=0.0), min(positive, default=INF)


def quantize_reference(edges, i, unit):
    """{(u, v): units} of the min-merged edges lighter than 2^(i+1), each
    weight rounded up to whole units with math.ceil; zero becomes 1."""
    best = {}
    for u, v, w in edges:
        if (u, v) not in best or w < best[(u, v)]:
            best[(u, v)] = w
    return {key: 1 if w == 0 else math.ceil(w / unit)
            for key, w in best.items() if w < 2.0 ** (i + 1)}


def minplus_matrix(n, edges, dtype=np.float64):
    """Adjacency matrix with 0 diagonal (min over parallel edges)."""
    a = np.full((n, n), np.inf, dtype=dtype)
    np.fill_diagonal(a, 0.0)
    for u, v, w in edges:
        if w < a[u, v]:
            a[u, v] = w
    return a


def minplus_product(a, b):
    n = a.shape[0]
    out = np.empty_like(a)
    for i in range(n):
        out[i] = np.min(a[i][:, None] + b, axis=0)
    return out


def hop_limited_matrix(n, edges, beta, dtype=np.float64):
    """All-pairs min weight over <= beta hops via min-plus powering."""
    a = minplus_matrix(n, edges, dtype=dtype)
    result = np.full((n, n), np.inf, dtype=dtype)
    np.fill_diagonal(result, 0.0)
    base = a
    k = beta
    while k:
        if k & 1:
            result = minplus_product(result, base)
        k >>= 1
        if k:
            base = minplus_product(base, base)
    return result


def all_pairs(n, edges):
    """Exact all-pairs distances (Dijkstra per source)."""
    return [dijkstra(n, edges, s) for s in range(n)]


def all_pairs_fast(n, edges):
    """All-pairs distances via scipy; requires strictly positive weights
    (zero-weight entries would vanish from the sparse matrix)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    if not edges:
        out = np.full((n, n), np.inf)
        np.fill_diagonal(out, 0.0)
        return out
    rows = np.array([e[0] for e in edges])
    cols = np.array([e[1] for e in edges])
    data = np.array([e[2] for e in edges])
    assert (data > 0).all(), "fast oracle needs positive weights"
    mat = coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    return sp_dijkstra(mat, directed=True)


def edge_dict(edges):
    """{(u, v): w} of the triples ``edges``, such as an edge set's or
    ``Graph.iter_edges()``; a later triple of a pair wins."""
    return {(u, v): w for u, v, w in edges}


def quantized_weights(qg):
    """{(u, v): units} of a quantized graph's kept edges, as ints."""
    return {(u, v): int(q) for u, v, q in qg.graph.iter_edges()}


def random_edges(n, m, max_w, rng: random.Random):
    """m distinct directed edges with integer weights in [1, max_w]."""
    seen = set()
    edges = []
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        w = 1.0 if max_w <= 1 else float(rng.randint(1, max_w))
        edges.append((u, v, w))
    return edges
