"""Medians, quartiles and spreads of untraced runs in results.jsonl.

    python3 perfbench/summarize.py --seeds 101-110

For each workload and end-to-end metric it prints the median over runs,
the first and third quartiles (``statistics.quantiles(values, n=4)``)
and the spread (q3 - q1) / median, as a markdown table.  The latest run
of each (workload, seed) counts.
"""
import argparse
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", required=True, help="inclusive range lo-hi")
    ap.add_argument("--results", default=os.path.join(HERE, "out",
                                                      "results.jsonl"))
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    runs = {}
    with open(args.results, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if lo <= rec["seed"] <= hi and "build_s" in rec["metrics"]:
                runs[(rec["workload"], rec["seed"])] = rec
    by_workload = {}
    for (workload, _), rec in sorted(runs.items()):
        by_workload.setdefault(workload, []).append(rec)
    for workload, recs in by_workload.items():
        attempted = sum(r["attempted"] for r in recs)
        failed = sum(r["failed"] for r in recs)
        print(f"\n{workload}: {len(recs)} runs, {attempted} operations, "
              f"{failed} failed\n")
        print("| metric | median | q1 – q3 | spread |")
        print("|---|---|---|---|")
        for name in recs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in recs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"| `{name}` | {med:.4g} | {q1:.4g} – {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} |")


if __name__ == "__main__":
    main()
