"""Hopset consumption and verification.

Hop-limited distances come from synchronous edge relaxation over the
reverse CSR of G (and H), built once per call: each round takes, for
every row of sources at once, the minimum over each vertex's incoming
edges, so after round r a row holds exactly the "<= r hops" distances.
Exact distances come from ``search.batched_search``, a chunk of sources
at a time in ascending order.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .graph import (EdgeArrays, EdgeSet, Graph, check_edges, concat_arrays,
                    to_csr)
from .search import batched_search

INF = math.inf
BLOCK = 8  # sources relaxed together; bounds the rows x |E| scratch matrix


@dataclass
class HopLimitedDistances:
    source: int
    beta: int
    dist: List[float]


def _with_hopset(g: Graph, h: EdgeSet) -> Tuple[EdgeArrays, EdgeArrays]:
    """``check_edges`` of h's arrays and the reverse CSR of g's then h's edges.

    Parallel edges are kept: a round keeps the lighter candidate, and
    fl(d + min(a, b)) = min(fl(d + a), fl(d + b)), so no min-merge is
    needed.  ValueError ("weight range overflows a float") when g's path
    lengths may: (n - 1) times its heaviest weight must be finite, or a
    reachable pair could read as unreachable.
    """
    if not (g.n - 1) * g.max_weight < INF:
        raise ValueError(f"weight range overflows a float: (n - 1) * "
                         f"heaviest weight = {g.n - 1} * {g.max_weight!r}")
    hu, hv, hw = check_edges(g.n, *h.arrays())
    a, b, w = concat_arrays(g.edge_arrays(), (hu, hv, hw))
    return (hu, hv, hw), to_csr(g.n, b, a, w)


def _relax_rounds(rcsr: EdgeArrays, sources: Sequence[int],
                  beta: int) -> Iterator[Tuple[int, np.ndarray]]:
    """Distances from ``sources``, one row each, after rounds 0, 1, ...
    of relaxing the edges of the reverse CSR arrays ``rcsr``.

    Yields (round, dist) after round 0 and after every round up to
    ``beta`` that changes some row; a round that changes none is a
    fixpoint and ends the iteration.  ``dist`` is updated in place, so
    read it before advancing.
    """
    indptr, tails, w = rcsr
    heads = np.flatnonzero(np.diff(indptr))
    starts = indptr[heads]
    dist = np.full((len(sources), len(indptr) - 1), np.inf)
    dist[np.arange(len(sources)), sources] = 0.0
    yield 0, dist
    for rnd in range(1, beta + 1):
        cand = dist[:, tails]
        cand += w
        best = np.minimum.reduceat(cand, starts, axis=1)
        cur = dist[:, heads]
        if not (best < cur).any():
            return
        dist[:, heads] = np.minimum(cur, best)
        yield rnd, dist


def _hop_limited(rcsr: EdgeArrays, sources: Sequence[int],
                 beta: int) -> np.ndarray:
    """Rows of "<= beta hops" distances from ``sources``."""
    for _, dist in _relax_rounds(rcsr, sources, beta):
        pass
    return dist


def hop_limited_distances(g: Graph, source: int,
                          beta: int) -> HopLimitedDistances:
    """Minimum path weight using at most ``beta`` edges, per target."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if not (0 <= source < g.n):
        raise ValueError(f"invalid source {source}")
    dist = _hop_limited(g.csr(reverse=True), [source], beta)
    return HopLimitedDistances(source, beta, dist[0].tolist())


def oracle_distances(g: Graph, sources: Iterable[int]
                     ) -> Dict[int, List[float]]:
    """Exact Dijkstra distances per source."""
    out: Dict[int, List[float]] = {}
    for block, dist, _ in batched_search(g, list(sources), INF):
        out.update(zip(block, dist.tolist()))
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


def check_claim(beta: int, epsilon: float, ratio_bound=None) -> None:
    """ValueError unless beta >= 1 and epsilon and ``ratio_bound``
    (when given) are finite: a NaN bound would pass every ratio."""
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    for name, x in (("epsilon", epsilon), ("ratio bound", ratio_bound)):
        if x is not None and not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")


def check_hopset(g: Graph, h: EdgeSet, beta: int, epsilon: float,
                 pair_sample=None, seed: int = 0,
                 ratio_bound: Optional[float] = None,
                 collect_pairs: bool = False) -> VerificationReport:
    """Validity plus sampled (beta, epsilon) contract check.

    Validity, in the units of ``g``: every hopset edge weight, and each
    sampled pair's beta-hop distance in G + H, is >= (1 - 1e-9) times the
    exact distance.  Ratios against (1 + epsilon) (or ``ratio_bound``)
    are recorded; a pair at distance 0 needs beta-hop distance 0.  Raises
    ValueError for arguments ``check_claim`` rejects, a hopset endpoint
    outside [0, n), a hopset weight that is not finite and >= 0, or a
    graph whose path lengths may overflow a float (``_with_hopset``).
    """
    check_claim(beta, epsilon, ratio_bound)
    (hu, hv, hw), rcsr = _with_hopset(g, h)
    report = VerificationReport(beta_used=beta, hopset_size=len(h))
    bound = ratio_bound if ratio_bound is not None else 1.0 + epsilon
    tol = 1e-9

    def classify(block: List[Tuple[int, List[float]]]) -> None:
        """Record the pairs (s, v) of a block of (s, Dijkstra row)."""
        hop_rows = _hop_limited(rcsr, [s for s, _ in block], beta).tolist()
        for (s, true_d), hop_d in zip(block, hop_rows):
            for v, (td, hd) in enumerate(zip(true_d, hop_d)):
                if td == INF:
                    report.infinite_pairs += 1
                    if hd < INF:
                        report.reachability_violations.append(
                            {"pair": [s, v], "beta_dist": hd})
                    continue
                report.pairs_checked += 1
                if collect_pairs:
                    ratio_val = (hd / td if td > 0
                                 else (1.0 if hd == 0 else INF))
                    report.pair_rows.append((s, v, td, hd, ratio_val))
                if hd < td - tol * td:
                    report.validity_violations.append(
                        {"pair": [s, v], "beta_dist": hd, "distance": td,
                         "reason": "beta-hop distance below truth"})
                    continue
                if td == 0:
                    if hd > 0:
                        report.ratio_violations.append(
                            {"pair": [s, v], "beta_dist": hd,
                             "distance": 0.0})
                    continue
                ratio = hd / td
                if ratio > report.max_ratio:
                    report.max_ratio = ratio
                if ratio > bound + tol:
                    report.ratio_violations.append(
                        {"pair": [s, v], "beta_dist": hd, "distance": td,
                         "ratio": ratio})

    # Exact rows for every hopset or sampled source, in ascending
    # chunks: hopset edges are checked against them in (u, v) order,
    # sampled sources classified BLOCK at a time.
    sampled = set(sample_sources(g.n, pair_sample, seed))
    sources = sorted(sampled.union(hu.tolist()))
    edge_violations: List[dict] = []
    block: List[Tuple[int, List[float]]] = []
    for chunk, dist, _ in batched_search(g, sources, INF):
        rows = slice(*np.searchsorted(hu, [chunk[0], chunk[-1] + 1]))
        d = dist[np.searchsorted(chunk, hu[rows]), hv[rows]]
        unreachable = d == INF
        d_fin = np.where(unreachable, 0.0, d)
        bad = unreachable | (hw[rows] < d_fin - tol * d_fin)
        for u, v, w, dv in zip(hu[rows][bad].tolist(), hv[rows][bad].tolist(),
                               hw[rows][bad].tolist(), d[bad].tolist()):
            edge_violations.append({"edge": [u, v], "weight": w,
                                    "distance": dv})
            if dv == INF:
                edge_violations[-1].update(
                    distance=None, reason="edge between unreachable pair")
        for u, row in zip(chunk, dist):
            if u in sampled:
                block.append((u, row.tolist()))
                if len(block) == BLOCK:
                    classify(block)
                    block = []
    if block:
        classify(block)
    # hopset edges first, then sampled pairs
    report.validity_violations[:0] = edge_violations
    return report


def measure_hopbound(g: Graph, h: EdgeSet, epsilon: float,
                     pairs: Sequence[Tuple[int, int]]) -> int:
    """Smallest beta >= 1 satisfying the (1 + epsilon) bound on all pairs.

    One relaxation to the fixpoint per block of sources: beta is the
    largest, over the pairs, of the first round whose estimate is within
    the bound, since hop-limited distances never grow with beta.  Pairs
    unreachable in g are ignored.  ValueError for a pair outside
    [0, n), an epsilon not finite and >= 0, a bad hopset (as in
    ``check_hopset``) or a pair missing the bound at the fixpoint.
    """
    if not 0 <= epsilon < INF:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    targets: Dict[int, List[int]] = {}
    for u, v in pairs:
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise ValueError(f"pair ({u},{v}) out of range for n={g.n}")
        targets.setdefault(u, []).append(v)
    rcsr = _with_hopset(g, h)[1]
    sources = sorted(targets)
    true_d = oracle_distances(g, sources)
    tol = 1e-9
    beta = 1
    for lo in range(0, len(sources), BLOCK):
        block = sources[lo:lo + BLOCK]
        rows, cols, limits = [], [], []
        for i, u in enumerate(block):
            for v in targets[u]:
                td = true_d[u][v]
                if td != INF:
                    rows.append(i)
                    cols.append(v)
                    limits.append((1.0 + epsilon) * td + tol)
        pending = np.ones(len(rows), dtype=bool)
        limit = np.array(limits, dtype=np.float64)
        for rnd, dist in _relax_rounds(rcsr, block, g.n):
            pending &= dist[rows, cols] > limit
            if not pending.any():
                beta = max(beta, rnd)
                break
        else:
            raise ValueError("no beta satisfies the bound; hopset invalid?")
    return beta
