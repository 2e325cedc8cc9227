"""Command-line surface: gen, build, verify, bench, trace."""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .experiment import (ExperimentConfig, ExperimentError, run_experiment)
from .generate import FAMILIES, generate
from .graph import save_graph, write_edges
from .params import MODE_PAPER, MODE_PRACTICAL, OVERRIDES


def _load_config_file(path: str) -> dict:
    """JSON config, or simple key=value lines (values parsed as JSON when
    possible).  ExperimentError if the file cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ExperimentError(f"config: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(text)
        except ValueError as exc:  # also an integer of over 4300 digits
            raise ExperimentError(f"config: {path}: {exc}") from exc
    data = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            data[key] = json.loads(value)
        except ValueError:
            data[key] = value
    return data


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON or key=value config file")
    p.add_argument("--graph", dest="graph_path", help="edge-list input file")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--max-weight", type=int, dest="max_weight")
    p.add_argument("--seed", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--lambda", type=int, dest="lam")
    p.add_argument("--mode", choices=[MODE_PAPER, MODE_PRACTICAL])
    p.add_argument("--algorithm",
                   choices=["unweighted", "weighted", "parallel"])
    p.add_argument("--repetitions", type=int)
    p.add_argument("--shortcut-levels", type=int, dest="L",
                   help="practical-mode L (shortcutter level margin)")
    p.add_argument("--scale-range", dest="scale_range",
                   help="inclusive 'lo:hi' distance-scale exponents, in "
                        "units of the largest 2^e <= min(1, lightest weight)")
    p.add_argument("--delta", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--sweeps", type=int)
    p.add_argument("--out")
    p.add_argument("--report", dest="report_path")
    p.add_argument("--csv", dest="csv_path")
    p.add_argument("--verify", dest="verify",
                   help="'all-pairs' or 'sampled:<s>'")
    p.add_argument("--verify-beta", type=int, dest="verify_beta")
    p.add_argument("--ratio-bound", type=float, dest="ratio_bound")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's settings, then each given flag: a flag sets the
    config field, or the ``overrides`` key, named by its dest."""
    data = _load_config_file(args.config) if args.config else {}
    fields = ExperimentConfig.__dataclass_fields__
    flags = {k: v for k, v in vars(args).items() if v is not None}
    data.update((k, v) for k, v in flags.items() if k in fields)
    sr = flags.get("scale_range")
    if sr is not None:
        lo, _, hi = sr.partition(":")
        try:
            data["scale_range"] = (int(lo), int(hi))
        except ValueError:
            raise ExperimentError(
                f"config: --scale-range must be 'lo:hi', got {sr!r}"
            ) from None
    given = {k: v for k, v in flags.items() if k in OVERRIDES}
    if given and isinstance(data.get("overrides", {}), dict):
        data["overrides"] = {**data.get("overrides", {}), **given}
    return ExperimentConfig.from_dict(data)


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        g = generate(args.family, args.n, args.m, args.max_weight or 1,
                     args.seed or 0)
    except ValueError as exc:
        raise ExperimentError(f"graph: {exc}") from exc
    if args.out:
        save_graph(g, args.out)
    else:
        write_edges(sys.stdout, g.iter_edges(), (g.n, g.m))
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if cfg.algorithm is None:
        cfg.algorithm = "unweighted"
    report, code = run_experiment(cfg)
    print(f"hopset edges: {report.hopset_size}  "
          f"max ratio: {report.max_ratio:.6f}  "
          f"violations: {len(report.validity_violations)}")
    return code


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    cfg.algorithm = None
    report, code = run_experiment(cfg)
    print(f"pairs checked: {report.pairs_checked}  "
          f"max ratio: {report.max_ratio:.6f}  "
          f"validity violations: {len(report.validity_violations)}  "
          f"ratio violations: {len(report.ratio_violations)}")
    return code


def cmd_bench(args: argparse.Namespace) -> int:
    """Per size: the build's wall time, and the rest of the pipeline
    (load or generate, write, verify) as verify time."""
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise ExperimentError(f"config: bad --sizes {args.sizes!r}") from None
    rows = []
    for n in sizes:
        cfg = _config_from_args(args)
        cfg.n = n
        t0 = time.perf_counter()
        report, _ = run_experiment(cfg)
        verify_s = time.perf_counter() - t0 - report.build_seconds
        rows.append((n, report.hopset_size, report.max_ratio,
                     report.build_seconds, verify_s))
        print(f"n={n} size={report.hopset_size} "
              f"max_ratio={report.max_ratio:.6f} "
              f"build_seconds={report.build_seconds:.2f} "
              f"verify_seconds={verify_s:.2f}")
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write("n,hopset_size,max_ratio,build_seconds,"
                     "verify_seconds\n")
            for n, size, ratio, build_s, verify_s in rows:
                fh.write(f"{n},{size},{ratio!r},{build_s:.4f},"
                         f"{verify_s:.4f}\n")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if cfg.algorithm is None:
        cfg.algorithm = "unweighted"
    report, code = run_experiment(cfg)
    print(json.dumps(report.per_level_counters, sort_keys=True, indent=2))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirhopset",
        description="Construct and verify hopsets for directed graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark graph")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--max-weight", type=int, dest="max_weight")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="construct a hopset and verify it")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="verify an existing hopset file")
    _add_common(p)
    p.add_argument("--hopset", dest="hopset_path", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run the pipeline over several sizes")
    _add_common(p)
    p.add_argument("--sizes", required=True,
                   help="comma-separated n values")
    p.add_argument("--out-csv", dest="out_csv")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("trace", help="build with per-level instrumentation")
    _add_common(p)
    p.set_defaults(func=cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExperimentError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
