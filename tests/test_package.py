"""The package's public surface: each name declared once, by one module."""
from __future__ import annotations

import collections

import stagetrees as st
from stagetrees import conversion, core, io, learning, scoring

MODULES = (conversion, core, io, learning, scoring)

PUBLIC = {
    "Aldag", "Dag", "DataError", "Dataset", "DependenceLabel", "EdgeEvidence", "FitConfig",
    "InvalidArgumentError", "LABEL_ORDER", "ModelDocument", "NA_TOKENS", "SampleSpace",
    "ScoreReport", "SearchConfig", "SearchTrace", "StagedTree", "TraceStep",
    "UnfittedModelError", "UnsupportedSizeError", "bhc", "canonical_symbols",
    "classify_edge_oracle", "csbhc", "d_separated", "dag_to_staged_tree", "default_start",
    "degrees_of_freedom", "dependence_subtree", "enumerate_orders", "fit", "hc",
    "joint_probability", "learn_dag", "lex_index", "lex_unindex", "load_dag", "load_space",
    "load_titanic", "read_csv", "refine_dag", "save_dag", "save_space", "score",
    "staged_tree_to_aldag", "staging_refines", "write_dot",
}


def test_public_names_are_the_modules_lists_each_declared_once():
    owners = collections.Counter(name for m in MODULES for name in m.__all__)
    assert [name for name, n in owners.items() if n > 1] == []
    assert sorted(st.__all__) == sorted(owners)
    assert set(st.__all__) == PUBLIC
    for module in MODULES:
        for name in module.__all__:
            assert getattr(st, name) is getattr(module, name), name

