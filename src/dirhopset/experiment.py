"""End-to-end construct/verify pipelines and result persistence.

Everything is deterministic given the config: the single master seed fans
out to keyed streams, output files are sorted, and JSON is dumped with
sorted keys, so repeated runs are byte-identical.
"""
from __future__ import annotations

import contextlib
import csv
import json
import sys
import time
import typing
from dataclasses import dataclass, field, asdict
from typing import Optional, Tuple

from .generate import generate
from .graph import (EdgeSet, Graph, check_edges, load_graph, read_edges,
                    write_edges)
from .hopset import Instrumentation, hopset_unweighted, hopset_weighted
from .parallel import check_rounding, default_beta, phopset
from .params import MODE_PRACTICAL, OVERRIDES, Params, derive_params
from .verify import (VerificationReport, check_claim, check_hopset,
                     sample_sources)


class ExperimentError(RuntimeError):
    """Structured pipeline failure; message says which stage failed."""


@contextlib.contextmanager
def writing():
    """Raise an OSError of the block, a file that cannot be written, as
    ExperimentError "output: ..."."""
    try:
        yield
    except OSError as exc:
        raise ExperimentError(f"output: {exc}") from exc


@dataclass
class ExperimentConfig:
    # graph source: either a file or a generator spec
    graph_path: Optional[str] = None
    family: str = "random-gnm"
    n: int = 64
    m: Optional[int] = None
    max_weight: int = 1
    seed: int = 0
    # params
    mode: str = MODE_PRACTICAL
    epsilon: float = 0.0
    k: int = 2
    lam: int = 1
    overrides: dict = field(default_factory=dict)
    # algorithm: unweighted | weighted | parallel | None (verify-only)
    algorithm: Optional[str] = "unweighted"
    delta: float = 0.05
    beta: Optional[float] = None
    sweeps: Optional[int] = None
    scale_range: Optional[Tuple[int, int]] = None
    # verification
    verify: Optional[str] = "all-pairs"
    verify_beta: Optional[int] = None
    ratio_bound: Optional[float] = None
    hopset_path: Optional[str] = None   # input for verify-only mode
    # outputs
    out: Optional[str] = None
    report_path: Optional[str] = None
    csv_path: Optional[str] = None

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """ExperimentError for an unknown key or a value of the wrong
        type, also in ``overrides`` (an int passes for a float, a bool
        for neither; its keys must be in ``params.OVERRIDES``), or an
        integer too large for a float (``_check_value``)."""
        hints = typing.get_type_hints(cls)
        unknown = set(data) - set(hints)
        if unknown:
            raise ExperimentError(f"config: unknown keys {sorted(unknown)}")
        for key, value in data.items():
            _check_value(key, value, hints[key])
        overrides = data.get("overrides", {})
        unknown = set(overrides) - set(OVERRIDES)
        if unknown:
            raise ExperimentError(
                f"config: unknown overrides {sorted(unknown)}")
        param_hints = typing.get_type_hints(Params)
        for key, value in overrides.items():
            _check_value(f"overrides.{key}", value, param_hints[key])
        cfg = cls(**data)
        if cfg.scale_range is not None:
            cfg.scale_range = tuple(cfg.scale_range)  # type: ignore[assignment]
        return cfg

    def to_dict(self) -> dict:
        d = asdict(self)
        if d.get("scale_range") is not None:
            d["scale_range"] = list(d["scale_range"])
        return d


def _check_value(name: str, value, hint) -> None:
    """ExperimentError unless ``value`` has the type ``hint`` and each
    integer in it converts to a float: every number in a run meets float
    arithmetic."""
    if not _has_type(value, hint):
        raise ExperimentError(
            f"config: {name} must be {_type_name(hint)}, got {value!r}")
    for x in value if isinstance(value, (list, tuple)) else (value,):
        if isinstance(x, int) and not abs(x) <= sys.float_info.max:
            raise ExperimentError(
                f"config: {name} must be at most {sys.float_info.max!r} "
                f"in magnitude, got an integer of {x.bit_length()} bits")


def _has_type(value, hint) -> bool:
    args = typing.get_args(hint)
    if type(None) in args:  # Optional[X]
        if value is None:
            return True
        hint = args[0]
    if typing.get_origin(hint) is tuple:  # scale_range: (lo, hi)
        return (isinstance(value, (list, tuple)) and len(value) == 2
                and all(_has_type(x, int) for x in value))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _type_name(hint) -> str:
    args = typing.get_args(hint)
    if type(None) in args:
        return f"{_type_name(args[0])} or null"
    if typing.get_origin(hint) is tuple:
        return "a [lo, hi] pair of integers"
    return {int: "an integer", float: "a number", str: "a string",
            bool: "true or false", dict: "an object"}[hint]


def write_hopset(path: str, h: EdgeSet, sidecar: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_edges(fh, h)
    with open(path + ".json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(sidecar, sort_keys=True, indent=2))
        fh.write("\n")


def read_hopset(path: str) -> EdgeSet:
    """The edges of a hopset file (see ``read_edges``), min-merged in
    the read: a pair listed twice keeps its lighter weight."""
    return EdgeSet.from_arrays(*read_edges(path)[2])


def _build(cfg: ExperimentConfig, g: Graph, params: Params,
           instr: Optional[Instrumentation]) -> EdgeSet:
    if cfg.algorithm == "unweighted":
        return hopset_unweighted(g, params, cfg.seed,
                                 scale_range=cfg.scale_range, instr=instr)
    if cfg.algorithm == "weighted":
        return hopset_weighted(g, params, cfg.seed,
                               scale_range=cfg.scale_range, instr=instr)
    if cfg.algorithm == "parallel":
        return phopset(g, params, cfg.delta, cfg.seed, beta=cfg.beta,
                       sweeps=cfg.sweeps, scale_range=cfg.scale_range,
                       instr=instr)
    raise ExperimentError(f"build: unknown algorithm {cfg.algorithm!r}")


def run_experiment(cfg: ExperimentConfig
                   ) -> Tuple[VerificationReport, int]:
    """Generate/load, construct, verify, persist.  Returns (report, code).

    Hopsets, reports and pair rows are in the graph's units.  Exit code
    0 iff the verification found zero validity violations and the ratio
    bound was met.
    """
    try:
        g = (load_graph(cfg.graph_path) if cfg.graph_path else generate(
            cfg.family, cfg.n, cfg.m, cfg.max_weight, cfg.seed))
    except (OSError, ValueError) as exc:
        raise ExperimentError(f"graph: {exc}") from exc

    beta = max(1, g.n - 1) if cfg.verify_beta is None else cfg.verify_beta
    if cfg.verify:
        try:
            sample_sources(g.n, cfg.verify)
            check_claim(beta, cfg.epsilon, cfg.ratio_bound)
        except ValueError as exc:
            raise ExperimentError(f"verify: {exc}") from exc

    instr = Instrumentation()
    if cfg.algorithm:  # only a build reads the params
        try:
            params = derive_params(g.n, cfg.epsilon, cfg.k, cfg.lam,
                                   cfg.mode, **cfg.overrides)
            if cfg.algorithm == "parallel":
                check_rounding(cfg.delta, default_beta(params)
                               if cfg.beta is None else cfg.beta, cfg.sweeps)
        except ValueError as exc:
            raise ExperimentError(f"params: {exc}") from exc
        t0 = time.perf_counter()
        try:
            h = _build(cfg, g, params, instr)
        except ValueError as exc:  # the graph does not suit the driver
            raise ExperimentError(f"build: {exc}") from exc
    elif cfg.hopset_path:
        t0 = time.perf_counter()
        try:
            h = read_hopset(cfg.hopset_path)
            check_edges(g.n, *h.arrays())  # ids in range for g
        except (OSError, ValueError) as exc:  # also GraphFormatError
            raise ExperimentError(f"hopset: {exc}") from exc
    else:
        raise ExperimentError("config: need an algorithm or a hopset file")
    build_seconds = time.perf_counter() - t0

    if cfg.out and cfg.algorithm:
        sidecar = {
            "n": g.n, "params": params.to_dict(), "seed": cfg.seed,
            "scale_range": list(cfg.scale_range) if cfg.scale_range else None,
            "edge_count": len(h), "algorithm": cfg.algorithm,
        }
        if cfg.algorithm == "parallel":
            sidecar.update({"delta": cfg.delta, "beta": cfg.beta,
                            "sweeps": cfg.sweeps})
        with writing():
            write_hopset(cfg.out, h, sidecar)

    if cfg.verify:
        try:
            report = check_hopset(g, h, beta, cfg.epsilon,
                                  pair_sample=cfg.verify, seed=cfg.seed,
                                  ratio_bound=cfg.ratio_bound,
                                  collect_pairs=bool(cfg.csv_path))
        except ValueError as exc:  # the graph's paths overflow a float
            raise ExperimentError(f"verify: {exc}") from exc
    else:
        report = VerificationReport(hopset_size=len(h))
    report.per_level_counters = instr.to_dict()

    if cfg.report_path:
        with writing(), open(cfg.report_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    if cfg.csv_path:
        with writing(), open(cfg.csv_path, "w", encoding="utf-8",
                             newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["source", "target", "true_dist", "beta_dist",
                             "ratio"])
            for row in report.pair_rows:
                writer.writerow([row[0], row[1], repr(row[2]), repr(row[3]),
                                 repr(row[4])])
    report.build_seconds = build_seconds
    return report, (0 if report.ok else 1)
