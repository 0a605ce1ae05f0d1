"""Reverse spatio-textual k-nearest-neighbor queries over a hierarchical index."""

from .core import (
    DatasetTooSmall,
    NormStats,
    QueryObject,
    STObject,
    SimParams,
    TermVector,
    compute_norm_stats,
    euclidean_dist,
    extended_jaccard,
    sim_st,
)
from .engine import (
    CompletenessViolation,
    EngineAudit,
    Mode,
    TraceEvent,
    format_trace_table,
    rstknn_query,
    trace_to_jsonl,
)
from .iur_tree import (
    EmptyDataset,
    Entry,
    IurTree,
    build_tree,
    max_sim_st,
    min_sim_st,
    node_entry,
    object_entry,
    tree_from_layout,
)
from .oracle import kth_nn_sim, rknn_bruteforce

__version__ = "0.1.0"

__all__ = [
    "DatasetTooSmall",
    "NormStats",
    "QueryObject",
    "STObject",
    "SimParams",
    "TermVector",
    "compute_norm_stats",
    "euclidean_dist",
    "extended_jaccard",
    "sim_st",
    "CompletenessViolation",
    "EngineAudit",
    "Mode",
    "TraceEvent",
    "format_trace_table",
    "rstknn_query",
    "trace_to_jsonl",
    "EmptyDataset",
    "Entry",
    "IurTree",
    "build_tree",
    "max_sim_st",
    "min_sim_st",
    "node_entry",
    "object_entry",
    "tree_from_layout",
    "kth_nn_sim",
    "rknn_bruteforce",
]
