"""Multi-relational attribute propagation for knowledge graphs.

Imputes missing numeric node attributes by fitting pairwise linear models
per (attribute pair, oriented relation), weighting them by inverse error
variance, and iterating a damped, clamped message-passing update to its
fixed point.
"""
from .attributes import AttributeTable, Status
from .codec import Table
from .errors import (
    ConfigError,
    DataError,
    MrapError,
    ParseError,
)
from .evaluation import (
    EvalReport,
    EvalRow,
    ablation_suite,
    baseline_global,
    baseline_local,
    evaluate,
    format_report_table,
    write_report_csv,
)
from .graph import Direction, KnowledgeGraph, Vocabulary, build_graph
from .ingest import (
    DatasetBundle,
    Split,
    SplitSpec,
    apply_split_manifest,
    intern_attributes,
    intern_triples,
    load_dataset,
    parse_attributes,
    parse_triples,
    read_split_manifest,
    split_attributes,
    subsample_observed,
    write_split_manifest,
)
from .propagation import (
    ImputationReport,
    PropagationConfig,
    run,
    write_imputations,
    write_trace,
)
from .regression import (
    AdmissionConfig,
    ModelRegistry,
    build_registry,
    count_paths,
    read_model_dump,
    training_pairs,
    write_model_dump,
)

__version__ = "0.1.0"
