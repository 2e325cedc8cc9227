"""Output checks computed apart from dirhopset.

Exact distances come from scipy's Dijkstra on the generated edge list;
the hop-limited distances over G + H come from this module's own
synchronous relaxation.  Nothing here calls into dirhopset, so a fault in
the program cannot hide itself by also being in its checker.
"""
from __future__ import annotations

import random

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from workloads import stretch_bound

TOL = 1e-9
BLOCK = 8  # sources relaxed together; bounds the S x |E| scratch matrix


def read_edge_file(path: str, header: bool) -> np.ndarray:
    """(k, 3) float array of the 'u v w' lines, skipping an 'n m' header."""
    with open(path, "r", encoding="utf-8") as fh:
        if header:
            fh.readline()
        values = np.array(fh.read().split(), dtype=np.float64)
    return values.reshape(-1, 3)


def exact_distances(n: int, edges: np.ndarray, sources) -> np.ndarray:
    """Rows of exact distances from ``sources``; parallel edges min-merged.

    The CSR is built from (data, indices, indptr) so that zero weights
    survive as edges.
    """
    u = edges[:, 0].astype(np.int64)
    v = edges[:, 1].astype(np.int64)
    w = edges[:, 2]
    order = np.lexsort((w, v, u))
    u, v, w = u[order], v[order], w[order]
    first = np.ones(len(u), dtype=bool)
    first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    u, v, w = u[first], v[first], w[first]
    indptr = np.searchsorted(u, np.arange(n + 1))
    mat = csr_matrix((w, v, indptr), shape=(n, n))
    return dijkstra(mat, directed=True, indices=np.asarray(sources))


def sample_sources(n: int, count: int, seed: int) -> list:
    return sorted(random.Random(f"perfbench-sources-{seed}").sample(
        range(n), min(count, n)))


def hop_relaxation(n: int, edges: np.ndarray, sources, exact: np.ndarray,
                   bound: float, problems: list):
    """Hop counts at which reachable (source, v) pairs, v != source, first
    come within ``bound`` times their exact distance in G + H.

    Runs synchronous Bellman-Ford rounds to a fixpoint and records in
    ``problems`` any round in which an estimate drops below the exact
    distance or reaches an unreachable vertex.  Returns (beta, mean hops):
    the largest of those hop counts and their mean over the pairs, or
    (None, None) if a problem was found.
    """
    order = np.argsort(edges[:, 1], kind="stable")
    src = edges[order, 0].astype(np.int64)
    dst = edges[order, 1].astype(np.int64)
    wt = edges[order, 2]
    heads, starts = np.unique(dst, return_index=True)
    beta, hop_sum, pairs = 0, 0, 0
    for lo in range(0, len(sources), BLOCK):
        block = list(sources[lo:lo + BLOCK])
        rows = np.arange(len(block))
        truth = exact[lo:lo + BLOCK]
        reach = np.isfinite(truth)
        d = np.where(reach, truth, 0.0)
        floor = d - TOL * np.maximum(1.0, d)
        ceil = bound * d + TOL * np.maximum(1.0, d)
        pending = reach.copy()
        pending[rows, block] = False
        pairs += int(pending.sum())
        dist = np.full((len(block), n), np.inf)
        dist[rows, block] = 0.0
        for rnd in range(1, n + 1):
            best = np.minimum.reduceat(dist[:, src] + wt, starts, axis=1)
            new = dist.copy()
            new[:, heads] = np.minimum(dist[:, heads], best)
            if (new < floor).any():
                problems.append(f"relaxation round {rnd} from sources "
                                f"{block} goes below the exact distance")
                return None, None
            if np.isfinite(new[~reach]).any():
                problems.append(f"relaxation round {rnd} from sources "
                                f"{block} reaches an unreachable vertex")
                return None, None
            met = pending & (new <= ceil)
            if met.any():
                hop_sum += rnd * int(met.sum())
                beta = max(beta, rnd)
                pending &= ~met
            if np.array_equal(new, dist):
                break
            dist = new
        if pending.any():
            problems.append(f"sources {block} never within stretch {bound}")
            return None, None
    if not pairs:
        problems.append("no reachable pairs among the sampled sources")
        return None, None
    return beta, hop_sum / pairs


def check_round(w: dict, seed: int, graph_edges: np.ndarray,
                graph_path: str, hopset_path: str, built_size: int,
                read_size: int, report: dict) -> tuple:
    """All checks of one pipeline round.

    Returns (problems, beta, mean hops); see ``hop_relaxation``.
    """
    n = w["n"]
    problems = []
    saved = read_edge_file(graph_path, header=True)
    if not np.array_equal(saved[np.lexsort(saved.T[::-1])],
                          graph_edges[np.lexsort(graph_edges.T[::-1])]):
        problems.append("saved graph file differs from the generated edges")

    hop = read_edge_file(hopset_path, header=False)
    if not len(hop) == built_size == read_size == report["hopset_size"]:
        problems.append(f"hopset sizes disagree: file {len(hop)}, built "
                        f"{built_size}, read {read_size}, report "
                        f"{report['hopset_size']}")
    hu, hv = hop[:, 0].astype(np.int64), hop[:, 1].astype(np.int64)
    if len(hop) and (min(hu.min(), hv.min()) < 0
                     or max(hu.max(), hv.max()) >= n):
        problems.append("hopset vertex out of range")
        return problems, None, None

    heads = np.unique(hu)
    d = exact_distances(n, graph_edges, heads)[np.searchsorted(heads, hu), hv]
    slack = TOL * np.maximum(1.0, np.where(np.isfinite(d), d, 1.0))
    if not np.isfinite(d).all():
        problems.append(f"{int((~np.isfinite(d)).sum())} shortcuts join "
                        "unreachable pairs")
    elif (hop[:, 2] < d - slack).any():
        problems.append(f"{int((hop[:, 2] < d - slack).sum())} shortcuts "
                        "are lighter than the exact distance")
    elif w["driver"] != "parallel" and (np.abs(hop[:, 2] - d) > slack).any():
        problems.append(f"{int((np.abs(hop[:, 2] - d) > slack).sum())} "
                        "exact-driver shortcuts differ from the distance")

    sources = sample_sources(n, w["sources"], seed)
    beta, hops = hop_relaxation(n, np.vstack([graph_edges, hop]), sources,
                                exact_distances(n, graph_edges, sources),
                                stretch_bound(w), problems)

    if not report["ok"]:
        problems.append("check_hopset reports not ok")
    expected = min(w["sources"], n) * n
    if report["pairs_checked"] + report["infinite_pairs"] != expected:
        problems.append(f"pairs_checked + infinite_pairs = "
                        f"{report['pairs_checked'] + report['infinite_pairs']}"
                        f", expected {expected}")
    return problems, beta, hops

