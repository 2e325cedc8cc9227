"""Hopset construction and verification for directed graphs."""

from .graph import (EdgeSet, Graph, GraphFormatError, InducedSubgraph,
                    augment, induce, load_graph, merge_min, save_graph)
from .hopset import (Instrumentation, RecursionFrame, assign_levels,
                     default_scale_range, hopset_unweighted, hopset_weighted,
                     hs_recurse)
from .parallel import (QuantizedGraph, RoundingScheme, default_beta,
                       derive_parallel_params, phopset, quantize)
from .params import MODE_PAPER, MODE_PRACTICAL, Params, derive_params
from .search import (BACKWARD, FORWARD, RadiusChoice, SearchResult,
                     bounded_search, select_radius)
from .verify import (HopLimitedDistances, VerificationReport, check_hopset,
                     hop_limited_distances, measure_hopbound,
                     oracle_distances)

__all__ = [
    "EdgeSet", "Graph", "GraphFormatError", "InducedSubgraph",
    "augment", "induce", "load_graph", "merge_min", "save_graph",
    "Instrumentation", "RecursionFrame", "assign_levels",
    "default_scale_range", "hopset_unweighted", "hopset_weighted",
    "hs_recurse",
    "QuantizedGraph", "RoundingScheme", "default_beta",
    "derive_parallel_params", "phopset", "quantize",
    "MODE_PAPER", "MODE_PRACTICAL", "Params", "derive_params",
    "BACKWARD", "FORWARD", "RadiusChoice", "SearchResult",
    "bounded_search", "select_radius",
    "HopLimitedDistances", "VerificationReport", "check_hopset",
    "hop_limited_distances", "measure_hopbound", "oracle_distances",
]

__version__ = "0.1.0"
