"""Deterministic benchmark graph generators."""
from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

from .graph import Graph
from .rng import plain

FAMILIES = ("path", "cycle", "layered-dag", "random-gnm", "grid",
            "binary-tree")


def generate(family: str, n: int, m: Optional[int] = None, W: int = 1,
             seed: int = 0) -> Graph:
    """Deterministic graph per (family, n, m, W, seed).

    Weights are uniform integers in [1, W], or exactly 1 when W <= 1.
    """
    n, m, W, seed = (plain(x) for x in (n, m, W, seed))
    if n < 1:
        raise ValueError("n must be >= 1")
    if m is not None and m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    rng = random.Random((seed, family, n, m, W).__repr__())

    def weight() -> float:
        return 1.0 if W <= 1 else float(rng.randint(1, W))

    edges: List[Tuple[int, int, float]] = []
    if family == "path":
        edges = [(i, i + 1, weight()) for i in range(n - 1)]
    elif family == "cycle":
        if n < 2:
            raise ValueError("cycle needs n >= 2")
        edges = [(i, (i + 1) % n, weight()) for i in range(n)]
    elif family == "binary-tree":
        for i in range(n):
            for child in (2 * i + 1, 2 * i + 2):
                if child < n:
                    edges.append((i, child, weight()))
    elif family == "grid":
        rows = max(1, math.isqrt(n))
        cols = math.ceil(n / rows)
        for v in range(n):
            r, c = divmod(v, cols)
            if c + 1 < cols and v + 1 < n:
                edges.append((v, v + 1, weight()))
            if (r + 1) * cols + c < n:
                edges.append((v, (r + 1) * cols + c, weight()))
    elif family == "layered-dag":
        if m is None:
            m = 2 * n
        layers = max(2, math.isqrt(n))
        layer_of = [min(layers - 1, v * layers // n) for v in range(n)]
        by_layer: List[List[int]] = [[] for _ in range(layers)]
        for v, l in enumerate(layer_of):
            by_layer[l].append(v)
        # backbone keeps consecutive layers connected
        for l in range(layers - 1):
            if by_layer[l] and by_layer[l + 1]:
                edges.append((by_layer[l][0], by_layer[l + 1][0], weight()))
        seen = {(u, v) for u, v, _ in edges}
        attempts = 0
        while len(edges) < m and attempts < 50 * m:
            attempts += 1
            l = rng.randrange(layers - 1)
            if not by_layer[l] or not by_layer[l + 1]:
                continue
            u = rng.choice(by_layer[l])
            v = rng.choice(by_layer[l + 1])
            if (u, v) in seen:
                continue
            seen.add((u, v))
            edges.append((u, v, weight()))
    elif family == "random-gnm":
        if m is None:
            m = 2 * n
        if n < 2:
            raise ValueError("random-gnm needs n >= 2")
        if m > n * (n - 1):
            raise ValueError(f"random-gnm infeasible: m={m} > n(n-1)")
        seen = set()
        while len(edges) < m:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v or (u, v) in seen:
                continue
            seen.add((u, v))
            edges.append((u, v, weight()))
    else:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    return Graph(n, edges)
