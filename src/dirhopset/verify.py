"""Hopset consumption and verification.

Hop-limited distances come from exactly beta rounds of synchronous
edge relaxation (two alternating vectors, so "<= beta hops" is exact);
the exact oracle is per-source Dijkstra.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .graph import EdgeSet, Graph, augment
from .search import FORWARD, bounded_search

INF = math.inf


@dataclass
class HopLimitedDistances:
    source: int
    beta: int
    dist: List[float]


def _edge_arrays(g: Graph):
    src, dst, w = [], [], []
    for u, v, wt in g.iter_edges():
        src.append(u)
        dst.append(v)
        w.append(wt)
    return (np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            np.asarray(w, dtype=np.float64))


def hop_limited_distances(g: Graph, source: int,
                          beta: int) -> HopLimitedDistances:
    """Minimum path weight using at most ``beta`` edges, per target."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if not (0 <= source < g.n):
        raise ValueError(f"invalid source {source}")
    dist = np.full(g.n, np.inf)
    dist[source] = 0.0
    src, dst, w = _edge_arrays(g)
    if len(src) == 0:
        return HopLimitedDistances(source, beta, dist.tolist())
    for _ in range(beta):
        cand = dist[src] + w
        nxt = dist.copy()
        np.minimum.at(nxt, dst, cand)
        if np.array_equal(nxt, dist):
            break
        dist = nxt
    return HopLimitedDistances(source, beta, dist.tolist())


def oracle_distances(g: Graph, sources: Iterable[int]
                     ) -> Dict[int, List[float]]:
    """Exact Dijkstra distances per source."""
    out: Dict[int, List[float]] = {}
    for s in sources:
        res = bounded_search(g, s, INF, FORWARD)
        dist = [INF] * g.n
        for v, d in res.reached.items():
            dist[v] = d
        out[s] = dist
    return out


@dataclass
class VerificationReport:
    pairs_checked: int = 0
    validity_violations: List[dict] = field(default_factory=list)
    ratio_violations: List[dict] = field(default_factory=list)
    reachability_violations: List[dict] = field(default_factory=list)
    max_ratio: float = 1.0
    beta_used: int = 0
    infinite_pairs: int = 0
    hopset_size: int = 0
    per_level_counters: Dict[str, dict] = field(default_factory=dict)
    pair_rows: List[Tuple[int, int, float, float, float]] = \
        field(default_factory=list, repr=False)
    # wall time of the build that produced the hopset; kept out of
    # to_json() so reports stay byte-identical across runs
    build_seconds: float = field(default=0.0, repr=False)

    @property
    def ok(self) -> bool:
        return not (self.validity_violations or self.ratio_violations
                    or self.reachability_violations)

    def to_json(self) -> str:
        payload = {
            "pairs_checked": self.pairs_checked,
            "validity_violations": self.validity_violations,
            "ratio_violations": self.ratio_violations,
            "reachability_violations": self.reachability_violations,
            "max_ratio": self.max_ratio,
            "beta_used": self.beta_used,
            "infinite_pairs": self.infinite_pairs,
            "hopset_size": self.hopset_size,
            "per_level_counters": self.per_level_counters,
            "ok": self.ok,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def sample_sources(n: int, pair_sample, seed: int = 0) -> List[int]:
    """Sources for ``pair_sample``: "all-pairs", "sampled:<s>" (s >= 1)
    or None (all-pairs up to n = 256, else sampled:8)."""
    if pair_sample == "all-pairs" or (pair_sample is None and n <= 256):
        return list(range(n))
    if pair_sample is None:
        pair_sample = "sampled:8"
    if isinstance(pair_sample, str) and pair_sample.startswith("sampled:"):
        s = int(pair_sample.split(":", 1)[1])
        if s < 1:
            raise ValueError(f"need at least one sampled source, got {s}")
        rng = random.Random(seed)
        return sorted(rng.sample(range(n), min(s, n)))
    raise ValueError(f"unknown pair sampling strategy {pair_sample!r}")


def check_hopset(g: Graph, h: EdgeSet, beta: int, epsilon: float,
                 pair_sample=None, seed: int = 0,
                 ratio_bound: Optional[float] = None,
                 collect_pairs: bool = False) -> VerificationReport:
    """Validity plus sampled (beta, epsilon) contract check.

    Validity: every hopset edge weight must be >= the exact distance.
    For each sampled pair: oracle <= beta-hop distance in the augmented
    graph; ratios against (1 + epsilon) (or ``ratio_bound``) recorded.
    """
    if beta < 1:
        raise ValueError("beta must be >= 1")
    report = VerificationReport(beta_used=beta, hopset_size=len(h))
    bound = ratio_bound if ratio_bound is not None else 1.0 + epsilon
    tol = 1e-9

    by_source: Dict[int, List[Tuple[int, float]]] = {}
    for (u, v), w in h.entries.items():
        by_source.setdefault(u, []).append((v, w))
    for u, targets in sorted(by_source.items()):
        dist = oracle_distances(g, [u])[u]
        for v, w in targets:
            d = dist[v]
            if d == INF:
                report.validity_violations.append(
                    {"edge": [u, v], "weight": w, "distance": None,
                     "reason": "edge between unreachable pair"})
            elif w < d - tol * max(1.0, d):
                report.validity_violations.append(
                    {"edge": [u, v], "weight": w, "distance": d})

    aug = augment(g, h)
    sources = sample_sources(g.n, pair_sample, seed)
    for s in sources:
        true_d = oracle_distances(g, [s])[s]
        hop_d = hop_limited_distances(aug, s, beta).dist
        for v in range(g.n):
            td, hd = true_d[v], hop_d[v]
            if td == INF:
                report.infinite_pairs += 1
                if hd < INF:
                    report.reachability_violations.append(
                        {"pair": [s, v], "beta_dist": hd})
                continue
            report.pairs_checked += 1
            if collect_pairs:
                ratio_val = hd / td if td > 0 else (1.0 if hd <= tol else INF)
                report.pair_rows.append((s, v, td, hd, ratio_val))
            if hd < td - tol * max(1.0, td):
                report.validity_violations.append(
                    {"pair": [s, v], "beta_dist": hd, "distance": td,
                     "reason": "beta-hop distance below truth"})
                continue
            if td == 0:
                if hd > tol:
                    report.ratio_violations.append(
                        {"pair": [s, v], "beta_dist": hd, "distance": 0.0})
                continue
            ratio = hd / td
            if ratio > report.max_ratio:
                report.max_ratio = ratio
            if ratio > bound + tol:
                report.ratio_violations.append(
                    {"pair": [s, v], "beta_dist": hd, "distance": td,
                     "ratio": ratio})
    return report


def measure_hopbound(g: Graph, h: EdgeSet, epsilon: float,
                     pairs: Sequence[Tuple[int, int]]) -> int:
    """Smallest beta satisfying the (1 + epsilon) bound on all pairs.

    Doubling then binary search on beta, using hop-limited relaxation in
    the augmented graph.  Pairs unreachable in g are ignored.
    """
    aug = augment(g, h)
    sources = sorted({u for u, _ in pairs})
    true_d = oracle_distances(g, sources)
    targets: Dict[int, List[int]] = {}
    for u, v in pairs:
        targets.setdefault(u, []).append(v)
    tol = 1e-9

    def satisfied(beta: int) -> bool:
        for u, vs in targets.items():
            hop_d = hop_limited_distances(aug, u, beta).dist
            for v in vs:
                td = true_d[u][v]
                if td == INF:
                    continue
                if hop_d[v] > (1.0 + epsilon) * td + tol:
                    return False
        return True

    hi = 1
    while not satisfied(hi):
        hi *= 2
        if hi > max(2, 2 * g.n):
            raise ValueError("no beta satisfies the bound; hopset invalid?")
    lo = hi // 2 if hi > 1 else 0
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return hi
