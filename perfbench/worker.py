"""One worker round of one workload, in a fresh process.

Started by run.py.  A round runs the pipeline on input 0 of the seed
(set-up: generate, save, load; then build, write and read back,
verify), then on inputs 1, 2, ... as long as another pipeline would
end by the ``--until`` deadline (a ``time.monotonic()`` value), and at
least ``--reps`` times.  A reference loop runs right before and after
every timed stage (see ``reference``).

Every pipeline leaves its files in ``--out``: ``graph-<i>.txt``
(save_graph), ``edges-<i>.txt`` (the generated edges, written by this
file, not by the program) and ``hopset-<i>.txt`` (write_hopset).
run.py checks them after the round has ended, so that the checks'
imports and arrays stay out of this process's peak RSS.  The last
stdout line is one JSON object with the raw stage samples, their
reference times, what run.py needs to check each pipeline, peak RSS and,
when traced, the per-layer trace.

    python3 perfbench/worker.py --workload exact-gnm --seed 1 \
        --launched <time.monotonic() at launch> --out perfbench/out/x
"""
import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPORT_KEYS = ("ok", "hopset_size", "pairs_checked", "infinite_pairs")


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop, right now.

    The host's cores switch between a fast state and states up to twice
    as slow, for seconds to minutes at a time.  Dividing a stage's time
    by the reference time around it removes most of that; see
    README.md, "Steadiness".  The loop allocates nothing, so it does not
    move peak RSS.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(500_000):
        s += i * i
    return time.perf_counter() - t0


def input_seed(seed: int, i: int) -> int:
    """Seed of the run's i-th input: the graph, the program's seed and
    the benchmark's sampled sources."""
    return seed * 1000 + i


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--reps", type=int, default=1)
    ap.add_argument("--until", type=float, default=0.0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import dirhopset
    tracer = None
    if args.trace:  # before the names below are bound, so they are traced
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.stage("setup")
    from dirhopset import (check_hopset, derive_params, hopset_unweighted,
                           hopset_weighted, load_graph, phopset, save_graph)
    from dirhopset.experiment import read_hopset, write_hopset
    from dirhopset.generate import generate
    from workloads import spec, stretch_bound

    w = spec(args.workload, args.small)
    os.makedirs(args.out, exist_ok=True)

    def setup(i: int):
        """Generate input i, save it and load it back."""
        generated = generate(w["family"], w["n"], w["m"], w["max_weight"],
                             input_seed(args.seed, i))
        save_graph(generated, os.path.join(args.out, f"graph-{i}.txt"))
        return generated, load_graph(os.path.join(args.out,
                                                  f"graph-{i}.txt"))

    # 1. generate, save, load back: the set-up, timed from the launch
    generated, g = setup(0)
    setup_s = time.monotonic() - args.launched
    out = {"setup_s": setup_s, "setup_ref": reference(), "pipelines": [],
           "program": os.path.abspath(dirhopset.__file__)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    params = derive_params(g.n, w["epsilon"], 2, 1, "practical",
                           **w["overrides"])
    longest = 0.0
    while (len(out["pipelines"]) < args.reps
           or time.monotonic() + longest < args.until):
        t_start = time.monotonic()
        i = len(out["pipelines"])
        seed = input_seed(args.seed, i)
        if i:
            h = h_read = report = None  # freed before the next input
            generated, g = setup(i)
        with open(os.path.join(args.out, f"edges-{i}.txt"), "w",
                  encoding="utf-8") as fh:
            fh.writelines(f"{u} {v} {wt!r}\n"
                          for u, v, wt in generated.iter_edges())
        hopset_path = os.path.join(args.out, f"hopset-{i}.txt")
        refs = [reference()]

        # 2. build
        if tracer:
            tracer.stage("build")
        t0 = time.perf_counter()
        if w["driver"] == "weighted":
            h = hopset_weighted(g, params, seed)
        elif w["driver"] == "unweighted":
            h = hopset_unweighted(g, params, seed)
        else:
            h = phopset(g, params, w["delta"], seed, beta=w["beta"],
                        sweeps=w["sweeps"], scale_range=w["scale_range"])
        t1 = time.perf_counter()
        refs.append(reference())

        # 3. write and read back, with the sidecar run_experiment writes
        if tracer:
            tracer.stage("io")
        sidecar = {"n": g.n, "params": params.to_dict(), "seed": seed,
                   "scale_range": None, "edge_count": len(h),
                   "algorithm": w["driver"]}
        if w["driver"] == "parallel":
            sidecar.update({"delta": w["delta"], "beta": w["beta"],
                            "sweeps": w["sweeps"],
                            "scale_range": list(w["scale_range"])})
        t2 = time.perf_counter()
        write_hopset(hopset_path, h, sidecar)
        h_read = read_hopset(hopset_path)
        t3 = time.perf_counter()
        refs.append(reference())

        # 4. verify what was read back, at run_experiment's default beta
        if tracer:
            tracer.stage("verify")
        t4 = time.perf_counter()
        report = check_hopset(
            g, h_read, max(1, g.n - 1), w["epsilon"],
            pair_sample=f"sampled:{w['sources']}", seed=seed,
            ratio_bound=(stretch_bound(w) if w["driver"] == "parallel"
                         else None))
        t5 = time.perf_counter()
        refs.append(reference())

        summary = json.loads(report.to_json())
        out["pipelines"].append({
            "input": i, "seed": seed, "build_s": t1 - t0,
            "io_s": t3 - t2, "verify_s": t5 - t4, "refs": refs,
            "built_size": len(h), "read_size": len(h_read),
            "report": {k: summary[k] for k in REPORT_KEYS}})
        longest = max(longest, time.monotonic() - t_start)

    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    if tracer:
        out["trace"] = tracer.stages
        out["missing"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
