"""Staged-tree probability models over ordered categorical variables.

Learn stagings from data by greedy score search, expand DAGs into their
staged trees, classify every DAG edge by the kind of dependence the staging
encodes (total, context, partial, context/partial, local), and extract
per-variable dependence subtrees.
"""
from .conversion import (
    EdgeEvidence,
    classify_edge_oracle,
    d_separated,
    dag_to_staged_tree,
    dependence_subtree,
    staged_tree_to_aldag,
)
from .core import (
    Aldag,
    Dag,
    Dataset,
    DependenceLabel,
    InvalidArgumentError,
    LABEL_ORDER,
    SampleSpace,
    StagedTree,
    UnfittedModelError,
    UnsupportedSizeError,
    canonical_symbols,
    lex_index,
    lex_unindex,
    staging_refines,
)
from .io import (
    DataError,
    ModelDocument,
    load_dag,
    load_space,
    load_titanic,
    read_csv,
    save_dag,
    save_space,
    write_dot,
)
from .learning import (
    SearchConfig,
    SearchTrace,
    TraceStep,
    bhc,
    csbhc,
    default_start,
    enumerate_orders,
    hc,
    learn_dag,
    refine_dag,
)
from .scoring import FitConfig, ScoreReport, degrees_of_freedom, fit, joint_probability, score

__version__ = "0.1.0"

__all__ = [
    "Aldag",
    "Dag",
    "DataError",
    "Dataset",
    "DependenceLabel",
    "EdgeEvidence",
    "FitConfig",
    "InvalidArgumentError",
    "LABEL_ORDER",
    "ModelDocument",
    "SampleSpace",
    "ScoreReport",
    "SearchConfig",
    "SearchTrace",
    "StagedTree",
    "TraceStep",
    "UnfittedModelError",
    "UnsupportedSizeError",
    "bhc",
    "canonical_symbols",
    "classify_edge_oracle",
    "csbhc",
    "d_separated",
    "dag_to_staged_tree",
    "default_start",
    "degrees_of_freedom",
    "dependence_subtree",
    "enumerate_orders",
    "fit",
    "hc",
    "joint_probability",
    "learn_dag",
    "lex_index",
    "lex_unindex",
    "load_dag",
    "load_space",
    "load_titanic",
    "read_csv",
    "refine_dag",
    "save_dag",
    "save_space",
    "score",
    "staged_tree_to_aldag",
    "staging_refines",
    "write_dot",
]
