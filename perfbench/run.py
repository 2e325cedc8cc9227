"""dirhopset benchmark: timed pipelines with independent output checks.

    python3 perfbench/run.py --workload exact-gnm --seed 1 --seconds 60 \
        --trace 0
    python3 perfbench/run.py --selftest

A round is one fresh worker process (worker.py) that runs the workload's
pipeline on the seed's inputs 0, 1, 2, ... (see worker.py).  Every stage
sample is divided by the mean of the reference loop's times on either
side of it and multiplied by REFERENCE_S (README.md, "Steadiness").

With ``--trace 0`` a run is SETUPS set-up-only launches and one round
that fills the rest of ``--seconds``; the last stdout line reports the
median of each end-to-end metric over the run's samples.  With
``--trace 1`` rounds of one pipeline on input 0 alternate untraced and
traced until the next would overrun ``--seconds``; it reports the
per-layer metrics of the traced rounds and the tracing overhead.

After each round, checks.py checks every pipeline's files and report.  A
pipeline, or set-up-only launch, that crashes or fails a check is a
failed operation.  Results are appended to perfbench/out/results.jsonl
and traces written to perfbench/out/trace-<workload>-<seed>.json.
"""
import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, spec  # noqa: E402

END_TO_END = {"setup_s": "s", "build_s": "s", "io_s": "s", "verify_s": "s",
              "peak_rss_mb": "MiB", "hopset_edges": "count",
              "hops_mean": "hops"}
STAGES = ("build_s", "io_s", "verify_s")  # in pipeline order
RUN_LIMIT_S = 170.0  # a run, first round included, ends well within 180 s
SETUPS = 9           # set-up-only launches per untraced run
TAIL_S = 3.0         # a round's exit and output checks, after its last
                     # pipeline
# worker.reference()'s time on a core of the reference machine
# (README.md) in its fast state: normalised times are seconds at that
# speed.
REFERENCE_S = 0.035


def launch(workload: str, seed: int, trace: bool, small: bool,
           timeout: float, setup_only: bool = False, reps: int = 1,
           until: float = 0.0):
    """Run one worker round and check its pipelines.

    Returns the worker's result, each pipeline with its ``problems``
    (and ``beta_measured``, ``hops_mean``) added, or None if the worker
    failed.
    """
    from checks import check_round, read_edge_file

    run_dir = os.path.join(OUT, f"{workload}-{seed}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--out", run_dir,
           "--trace", str(int(trace)), "--reps", str(reps),
           "--until", repr(until)]
    if small:
        cmd.append("--small")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--launched", repr(launched)], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} round timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"perfbench: {workload} worker exited {proc.returncode}",
              file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = os.path.join(ROOT, "src", "dirhopset", "__init__.py")
    result["problems"] = []
    if result["program"] != expected:
        result["problems"].append(f"imported {result['program']}, "
                                  f"not {expected}")
    w = spec(workload, small)
    for p in result["pipelines"]:
        i = p["input"]
        problems, p["beta_measured"], p["hops_mean"] = check_round(
            w, p["seed"],
            read_edge_file(os.path.join(run_dir, f"edges-{i}.txt"), False),
            os.path.join(run_dir, f"graph-{i}.txt"),
            os.path.join(run_dir, f"hopset-{i}.txt"),
            p["built_size"], p["read_size"], p["report"])
        p["problems"] = result["problems"] + problems
        if i and not p["problems"]:  # keep input 0 and failed inputs only
            for name in (f"edges-{i}.txt", f"graph-{i}.txt",
                         f"hopset-{i}.txt", f"hopset-{i}.txt.json"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(run_dir, name))
    for p in [result] + result["pipelines"]:
        for problem in p["problems"]:
            print(f"perfbench: {workload} seed {seed}: {problem}",
                  file=sys.stderr)
    return result


def run_rounds(workload: str, seed: int, seconds: float, trace: bool,
               small: bool = False):
    """The rounds of one run, as (traced, result) pairs, and the results
    of its set-up-only launches.

    Untraced rounds run at least two pipelines, on inputs 0 and 1.
    """
    start = time.monotonic()
    limit = min(seconds, RUN_LIMIT_S)
    if not trace:
        setups = [launch(workload, seed, False, small, 60.0,
                         setup_only=True) for _ in range(SETUPS)]
        res = launch(workload, seed, False, small,
                     timeout=RUN_LIMIT_S - (time.monotonic() - start),
                     reps=2, until=start + limit - TAIL_S)
        return [(False, res)], setups
    rounds, longest = [], 0.0
    while True:
        traced = len(rounds) % 2 == 1
        t0 = time.monotonic()
        res = launch(workload, seed, traced, small,
                     timeout=max(5.0, RUN_LIMIT_S - (t0 - start)),
                     reps=1 if traced else 2)
        rounds.append((traced, res))
        if res is None:
            break
        longest = max(longest, time.monotonic() - t0)
        if len(rounds) >= 2 and time.monotonic() - start + longest > limit:
            break
    return rounds, []


def ok(p) -> bool:
    return p is not None and not p["problems"]


def normalised(res) -> dict:
    """A round's normalised samples of each stage, its set-up first."""
    out = {"setup_s": [res["setup_s"] / res["setup_ref"] * REFERENCE_S]}
    for name in STAGES:
        out[name] = []
    for p in res["pipelines"]:
        if ok(p):
            for j, name in enumerate(STAGES):
                ref = (p["refs"][j] + p["refs"][j + 1]) / 2
                out[name].append(p[name] / ref * REFERENCE_S)
    return out


def pooled(results) -> dict:
    """Each stage's normalised samples over a list of rounds."""
    out = {name: [] for name in ("setup_s",) + STAGES}
    for res in results:
        for name, vals in normalised(res).items():
            out[name] += vals
    return out


def summarize(workload: str, seed: int, rounds: list, trace: bool,
              setups: list = ()):
    """The result line, or None if no untraced pipeline (and, when
    tracing, no traced pipeline) passed.  Also returns the trace
    document.

    ``setups`` are the results of set-up-only launches.
    """
    from tracing import COUNTS, layer_metrics, unit_of

    def pipelines(res) -> list:  # a round that did not report ran one
        return res["pipelines"] if res is not None else [None]

    ops = ([p for _, r in rounds for p in pipelines(r)]
           + [r for r in setups])
    attempted, failed = len(ops), sum(1 for p in ops if not ok(p))
    plain = [r for t, r in rounds if not t and r is not None
             and any(ok(p) for p in r["pipelines"])]
    traced = [r for t, r in rounds if t and r is not None
              and ok(r["pipelines"][0])]
    if not plain or (trace and not traced):
        return None, None
    passed = [p for r in plain for p in r["pipelines"] if ok(p)]
    doc = None
    if not trace:
        samples = pooled(plain + [r for r in setups if ok(r)])
        metrics = {name: {"value": statistics.median(vals),
                          "unit": END_TO_END[name]}
                   for name, vals in samples.items()}
        metrics["peak_rss_mb"] = {
            "value": statistics.median(r["peak_rss_mb"] for r in plain),
            "unit": "MiB"}
        metrics["hopset_edges"] = {
            "value": statistics.median(p["read_size"] for p in passed),
            "unit": "count"}
        metrics["hops_mean"] = {
            "value": statistics.median(p["hops_mean"] for p in passed),
            "unit": "hops"}
    else:
        layers = []
        for r in traced:
            p = r["pipelines"][0]
            lm = layer_metrics(r["trace"], r["missing"], p["read_size"])
            lm["beta_measured"] = p["beta_measured"]
            layers.append(lm)
        for name in COUNTS:
            if len({str(lm[name]) for lm in layers}) > 1:
                traced[0]["pipelines"][0]["problems"].append(
                    f"trace count {name} differs between identical rounds")
                failed += 1
        pipeline = [sum(statistics.median(pooled(rs)[s]) for s in STAGES)
                    for rs in (traced, plain)]
        overhead = pipeline[0] / pipeline[1] - 1
        for lm in layers:
            lm["trace.overhead"] = overhead
        metrics = {}
        for name in layers[0]:
            vals = [lm[name] for lm in layers]
            metrics[name] = {"value": (None if None in vals
                                       else statistics.median_low(vals)),
                             "unit": unit_of(name)}
        missing = sorted({k for r in traced for k in r["missing"]})
        if missing:
            print(f"perfbench: traced names missing: {missing}",
                  file=sys.stderr)
        doc = {"workload": workload, "seed": seed, "missing": missing,
               "metrics": metrics, "rounds": [r["trace"] for r in traced]}
    correct = all(not p["problems"] for p in ops if p is not None)
    return ({"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}, doc)


def save(workload: str, seed: int, setups: list, rounds: list,
         summary: dict, doc) -> None:
    """Append the run, every raw sample included, to results.jsonl."""
    record = {"workload": workload, "seed": seed, "setups": setups,
              "rounds": [r and {k: v for k, v in r.items() if k != "trace"}
                         for _, r in rounds], **summary}
    with open(os.path.join(OUT, "results.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if doc is not None:
        with open(os.path.join(OUT, f"trace-{workload}-{seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


def selftest() -> int:
    """Every workload at small size, untraced and twice traced; then the
    checks must catch a shortcut made lighter than its distance."""
    import numpy as np
    from checks import check_round, read_edge_file

    bad = 0
    for name in WORKLOADS:
        seed = 3
        rounds = run_rounds(name, seed, 0.0, trace=True, small=True)[0]
        rounds += run_rounds(name, seed, 0.0, trace=True, small=True)[0][1:]
        summary, _ = summarize(name, seed, rounds, trace=True)
        if (summary is None or not summary["correct"] or summary["failed"]
                or any(m["value"] is None
                       for m in summary["metrics"].values())):
            print(f"selftest {name}: FAIL {summary}")
            bad += 1
            continue
        w = spec(name, small=True)
        run_dir = os.path.join(OUT, f"{name}-{seed}")
        hop = read_edge_file(os.path.join(run_dir, "hopset-0.txt"), False)
        hop[0, 2] = hop[0, 2] * 0.5 - 1.0
        corrupt = os.path.join(run_dir, "hopset-corrupt.txt")
        np.savetxt(corrupt, hop, fmt="%d %d %.17g")
        report = {"ok": True, "hopset_size": len(hop), "infinite_pairs": 0,
                  "pairs_checked": min(w["sources"], w["n"]) * w["n"]}
        problems, _, _ = check_round(
            w, rounds[0][1]["pipelines"][0]["seed"],
            read_edge_file(os.path.join(run_dir, "edges-0.txt"), False),
            os.path.join(run_dir, "graph-0.txt"), corrupt, len(hop),
            len(hop), report)
        caught = any("lighter" in p for p in problems)
        print(f"selftest {name}: {'ok' if caught else 'FAIL'} "
              f"({summary['attempted']} pipelines, corrupted hopset "
              f"{'caught' if caught else 'not caught'})")
        bad += not caught
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "dirhopset",
                                       "__init__.py")):
        print(f"perfbench: no dirhopset sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    rounds, setups = run_rounds(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    summary, doc = summarize(args.workload, args.seed, rounds,
                             bool(args.trace), setups)
    if summary is None:
        print("perfbench: no pipeline passed", file=sys.stderr)
        return 1
    save(args.workload, args.seed, setups, rounds, summary, doc)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
