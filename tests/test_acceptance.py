"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each test prints a single pass/fail line (bypassing pytest capture so the
lines always show up in the run log) and then asserts.
"""
import math
import random
import sys

import numpy as np
import pytest

from dirhopset.generate import generate
from dirhopset.graph import Graph, augment
from dirhopset.hopset import (Instrumentation, hopset_unweighted,
                              hopset_weighted)
from dirhopset.parallel import RoundingScheme, derive_parallel_params, \
    phopset, quantize
from dirhopset.params import derive_params
from dirhopset.experiment import ExperimentConfig, run_experiment
from dirhopset.search import select_radius
from dirhopset.verify import hop_limited_distances, measure_hopbound

from oracles import (all_pairs_fast, dijkstra, hop_limited_matrix,
                     quantized_weights)
from trace_checks import verify_frames

INF = math.inf

_CAPMAN = None


@pytest.fixture(autouse=True)
def _capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"acceptance {num:2d} {name}: {status}{suffix}\n"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)


def practical(n, epsilon=0.0, **kw):
    return derive_params(n, epsilon, k=2, lam=1, mode="practical", **kw)


# ---------------------------------------------------------------- corpus

def build_corpus():
    """50 seeded graphs (n <= 200, mixed families) plus their hopsets."""
    rng = random.Random("acceptance-corpus")
    families = ["path", "cycle", "layered-dag", "random-gnm", "grid",
                "binary-tree"]
    items = []
    for i in range(50):
        family = families[i % len(families)]
        n = rng.choice([24, 32, 48, 64, 96, 128, 200])
        weighted = i % 2 == 1
        W = rng.choice([4, 10]) if weighted else 1
        m = 3 * n if family in ("random-gnm", "layered-dag") else None
        g = generate(family, n, m=m, W=W, seed=i)
        params = practical(n, L=1)
        if weighted:
            h = hopset_weighted(g, params, seed=i)
        else:
            h = hopset_unweighted(g, params, seed=i)
        entry = {"g": g, "h": h, "i": i, "family": family,
                 "parallel": None}
        if i % 5 == 0:
            entry["parallel"] = phopset(g, params, delta=0.1, seed=i,
                                        beta=6.0, sweeps=2)
        items.append(entry)
    return items


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


def test_criterion_1_validity(corpus):
    checked = 0
    bad = []
    for item in corpus:
        g = item["g"]
        dist = all_pairs_fast(g.n, list(g.iter_edges()))
        for u, v, w in item["h"]:
            checked += 1
            d = dist[u][v]
            if not (w == d or abs(w - d) <= 1e-9 * max(1.0, abs(d))):
                bad.append((item["i"], u, v, w, d))
        if item["parallel"] is not None:
            for u, v, w in item["parallel"]:
                checked += 1
                d = dist[u][v]
                if d == INF or w < d - 1e-9 * max(1.0, d):
                    bad.append((item["i"], u, v, w, d))
    ok = not bad
    report(1, "validity suite", ok,
           f"{len(corpus)} graphs, {checked} edges checked")
    assert ok, f"invalid edges: {bad[:5]}"


def test_criterion_2_distance_preservation(corpus):
    bad = []
    for item in corpus:
        g = item["g"]
        edges = list(g.iter_edges())
        before = all_pairs_fast(g.n, edges)
        hopsets = [item["h"]]
        if item["parallel"] is not None:
            hopsets.append(item["parallel"])
        for h in hopsets:
            if not len(h):
                continue
            after = all_pairs_fast(
                g.n, list(augment(g, h).iter_edges()))
            if not np.array_equal(before, after):
                bad.append(item["i"])
                break
    ok = not bad
    report(2, "distance preservation", ok, f"{len(corpus)} graphs")
    assert ok, f"distances changed on graphs {bad}"


def test_criterion_3_hop_limited_oracle():
    rng = random.Random("acceptance-c3")
    bad = []
    for trial in range(20):
        n = rng.choice([20, 40, 70, 100])
        g = generate("random-gnm", n, m=3 * n, W=rng.choice([1, 6]),
                     seed=trial)
        edges = list(g.iter_edges())
        for s in range(n):
            full = hop_limited_distances(g, s, n - 1).dist
            want = dijkstra(n, edges, s)
            if full != want:
                bad.append((trial, s, "beta=n-1 mismatch"))
        s = rng.randrange(n)
        prev = hop_limited_distances(g, s, 1).dist
        beta = 2
        while beta < 2 * n:
            cur = hop_limited_distances(g, s, beta).dist
            if any(c > p for c, p in zip(cur, prev)):
                bad.append((trial, s, f"not monotone at beta={beta}"))
            prev, beta = cur, beta * 2
    ok = not bad
    report(3, "hop-limited oracle equivalence", ok, "20 graphs")
    assert ok, bad[:5]


def test_criterion_4_partition_semantics():
    specs = [("path", 60, 1), ("cycle", 50, 1), ("grid", 64, 1),
             ("layered-dag", 80, 4), ("random-gnm", 80, 6),
             ("binary-tree", 63, 1)]
    frames = 0
    pivots = 0
    for idx, (family, n, W) in enumerate(specs):
        m = 3 * n if family in ("random-gnm", "layered-dag") else None
        g = generate(family, n, m=m, W=W, seed=idx)
        params = practical(n, L=1)
        instr = Instrumentation(record_frames=True)
        if W == 1:
            hopset_unweighted(g, params, seed=idx, instr=instr)
        else:
            hopset_weighted(g, params, seed=idx, instr=instr)
        verify_frames(g, instr.frames, params)
        frames += len(instr.frames)
        pivots += sum(len(ft.pivots) for ft in instr.frames)
    assert frames > 0 and pivots > 0
    report(4, "partition semantics", True,
           f"{frames} frames, {pivots} pivots re-verified")


def test_criterion_5_radius_selection():
    rng = random.Random("acceptance-c5")
    params = derive_params(30, 0.5, k=2, lam=1, mode="practical",
                           rho_min=2.0, interval_count=3, interval_width=4)
    assert params.interval_width <= 8
    bad = []
    for trial in range(200):
        n = rng.choice([20, 30])
        g = generate("random-gnm", n, m=3 * n, W=rng.choice([1, 3]),
                     seed=trial)
        edges = list(g.iter_edges())
        pivot = rng.randrange(n)
        d = rng.choice([0.5, 1.0, 1.5, 2.5])
        choice = select_radius(g, pivot, d, params, random.Random(trial))
        fdist = dijkstra(n, edges, pivot)
        bdist = dijkstra(n, edges, pivot, reverse=True)
        dmin = [min(a, b) for a, b in zip(fdist, bdist)]
        lo = params.rho_min + 1 + params.interval_width * (choice.sigma - 1)
        best = None
        for rho in range(math.ceil(lo),
                         math.ceil(lo + params.interval_width)):
            size = sum(1 for x in dmin if (rho - 1) * d < x <= (rho + 1) * d)
            if best is None or size < best[1]:
                best = (rho, size)
        if (choice.rho, choice.fringe_size) != best:
            bad.append((trial, choice, best))
    ok = not bad
    report(5, "radius selection optimality", ok, "200 triples")
    assert ok, bad[:5]


def test_criterion_6_rounding_bounds():
    rng = random.Random("acceptance-c6")
    beta = 8.0
    delta = 0.1
    bad = []
    for _ in range(1000):
        i = rng.randint(-2, 12)
        scheme = RoundingScheme(scale_index=i, delta=delta, beta=beta)
        roll = rng.random()
        if roll < 0.1:
            w = 0.0
        elif roll < 0.25:
            w = 2.0 ** (i + 1) + rng.uniform(0.0, 2.0 ** i)
        else:
            w = rng.uniform(1e-6, 2.0 ** (i + 1) * 0.999)
        qg = quantize(Graph(2, [(0, 1, w)]), i, scheme)
        if w >= 2.0 ** (i + 1):
            if (0, 1) in quantized_weights(qg):
                bad.append(("kept heavy", i, w))
        elif w == 0.0:
            if quantized_weights(qg).get((0, 1)) != 1:
                bad.append(("zero rule", i, w))
        else:
            back = quantized_weights(qg)[(0, 1)] * scheme.unit
            if not (w - 1e-12 <= back < w + scheme.unit * (1 + 1e-9)):
                bad.append(("ceiling", i, w, back))
    # path-level bound: quantized weight <= (1+delta)*true + zero slack
    for trial in range(100):
        i = rng.randint(0, 10)
        scheme = RoundingScheme(scale_index=i, delta=delta, beta=beta)
        hops = rng.randint(1, int(2 * beta))
        zeros = rng.randint(0, hops // 3)
        nonzero = hops - zeros
        if nonzero == 0:
            nonzero, zeros = 1, hops - 1
        total = rng.uniform(2.0 ** i, 2.0 ** (i + 1) * 0.999)
        parts = [rng.random() for _ in range(nonzero)]
        s = sum(parts)
        weights = [p * total / s for p in parts] + [0.0] * zeros
        rng.shuffle(weights)
        edges = [(j, j + 1, w) for j, w in enumerate(weights)]
        qg = quantize(Graph(hops + 1, edges), i, scheme)
        qw = sum(quantized_weights(qg).values()) * scheme.unit
        limit = (1 + delta) * total + zeros * scheme.unit + 1e-9
        if not (total - 1e-9 <= qw <= limit):
            bad.append(("path bound", trial, total, qw, limit))
    ok = not bad
    report(6, "rounding bounds", ok, "1000 edges + 100 paths")
    assert ok, bad[:5]


def c7_one_seed(family, seed):
    n = 512
    beta = 16.0
    delta = 0.05
    sweeps = math.ceil(math.log2(n / (2 * beta))) + 1  # 5
    epsilon = 0.5
    _, eps_inner, _, _ = derive_parallel_params(n, epsilon)
    bound = ((1 + delta) ** sweeps) * ((1 + eps_inner) ** sweeps)
    if family == "path":
        g = generate("path", n, W=1, seed=seed)
        scale_range = (6, 6)
    else:
        g = generate("layered-dag", n, m=2 * n, W=4, seed=seed)
        scale_range = (5, 6)
    params = practical(n, epsilon=epsilon, L=1, c=20.0)
    h = phopset(g, params, delta=delta, seed=seed, beta=beta,
                sweeps=sweeps, scale_range=scale_range)
    aug_edges = list(augment(g, h).iter_edges())
    hop_d = hop_limited_matrix(n, aug_edges, int(beta), dtype=np.float32)
    true_d = all_pairs_fast(n, list(g.iter_edges())).astype(np.float32)
    finite = np.isfinite(true_d)
    lo_ok = hop_d[finite] >= true_d[finite] * (1 - 1e-5) - 1e-4
    denom = np.where(true_d[finite] > 0, true_d[finite], 1.0)
    hi_ok = hop_d[finite] <= denom * bound + 1e-3
    return bool(lo_ok.all() and hi_ok.all())


def test_criterion_7_parallel_approximation():
    results = []
    for seed in range(10):
        results.append(c7_one_seed("path", seed))
    for seed in range(10):
        results.append(c7_one_seed("layered-dag", seed))
    passed = sum(results)
    ok = passed >= 19  # >= 95% of 20 seeds
    report(7, "parallel-variant approximation", ok,
           f"{passed}/20 seeds within compounded bound")
    assert ok, f"only {passed}/20 seeds met the bound"


def test_criterion_8_hopbound_trend():
    sizes = [2 ** 8, 2 ** 10, 2 ** 12]
    medians = []
    for n in sizes:
        params = practical(n, L=0, c=20.0)
        j = math.ceil(math.log2(n))
        betas = []
        for seed in range(10):
            g = generate("path", n, W=1, seed=seed)
            h = hopset_unweighted(g, params, seed=seed,
                                  scale_range=(j, j))
            pairs = [(0, n - 1), (0, n // 2), (n // 4, 3 * n // 4)]
            betas.append(measure_hopbound(g, h, 0.0, pairs))
        medians.append(sorted(betas)[len(betas) // 2])
    fractions = [b / n for b, n in zip(medians, sizes)]
    ok = all(a > b for a, b in zip(fractions, fractions[1:]))
    detail = ", ".join(f"n={n}: beta={b} ({b / n:.5f}n)"
                       for n, b in zip(sizes, medians))
    report(8, "hopbound trend", ok, detail)
    assert ok, fractions


def test_criterion_9_size_accounting(corpus):
    recorded = {item["i"]: len(item["h"]) for item in corpus}
    assert all(size >= 0 for size in recorded.values())
    sizes = []
    ns = [2 ** 7, 2 ** 8, 2 ** 9, 2 ** 10, 2 ** 11]
    for n in ns:
        params = practical(n, L=1, c=20.0)
        g = generate("path", n, W=1, seed=0)
        j = math.ceil(math.log2(n))
        h = hopset_unweighted(g, params, seed=1, scale_range=(j, j))
        sizes.append(len(h))
    slope = np.polyfit(np.log(ns), np.log(sizes), 1)[0]
    ok = slope <= 1.3
    report(9, "size accounting", ok,
           f"slope {slope:.3f}, sizes {sizes}")
    assert ok, f"log-size slope {slope} exceeds 1.3"


def test_criterion_10_determinism(tmp_path):
    configs = [
        ExperimentConfig(family="random-gnm", n=48, m=150, epsilon=0.0,
                         mode="practical", lam=1, seed=21),
        ExperimentConfig(family="path", n=40, epsilon=0.5,
                         mode="practical", lam=1, seed=5,
                         algorithm="parallel", delta=0.1, beta=4.0,
                         sweeps=2, ratio_bound=4.0),
    ]
    identical = True
    for idx, base in enumerate(configs):
        blobs = []
        for run in range(2):
            d = tmp_path / f"cfg{idx}-run{run}"
            d.mkdir()
            cfg = ExperimentConfig(**{**base.to_dict(),
                                      "out": str(d / "h.txt"),
                                      "report_path": str(d / "r.json"),
                                      "csv_path": str(d / "pairs.csv")})
            run_experiment(cfg)
            blobs.append(tuple(
                (d / name).read_bytes()
                for name in ("h.txt", "h.txt.json", "r.json", "pairs.csv")))
        if blobs[0] != blobs[1]:
            identical = False
    report(10, "determinism", identical, "2 configs, byte-compared reruns")
    assert identical