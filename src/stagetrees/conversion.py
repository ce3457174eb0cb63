"""Conversions between DAGs, staged trees and labeled DAGs.

`dag_to_staged_tree` expands a DAG into the staged tree encoding the same
model.  `staged_tree_to_aldag` inverts that: it finds the minimal DAG whose
model contains the tree's and labels every surviving edge with the kind of
dependence the staging leaves in place (total, context, partial,
context/partial or local).  `classify_edge_oracle` derives the same label by
brute-force enumeration of conditioning contexts and serves as the
independent cross-check of the fast classification.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from .core import (
    Aldag,
    Dag,
    DependenceLabel,
    InvalidArgumentError,
    SampleSpace,
    StagedTree,
    StageVector,
    canonical_symbols,
    lex_index,
    reshape_mat,
    vec_transpose,
)

__all__ = [
    "EdgeEvidence",
    "ClassificationEvidence",
    "dag_to_staged_tree",
    "staged_tree_to_aldag",
    "classify_edge_oracle",
    "d_separated",
    "dependence_subtree",
]

Context = tuple[tuple[int, int], ...]  # ((variable, level), ...) sorted by variable


@dataclass(frozen=True)
class EdgeEvidence:
    """What the stage matrix showed for one retained edge (j, i).

    column_counts / row_counts are the distinct-symbol counts per context
    column and per level row of the matrix examined for variable j;
    total_distinct is the number of distinct symbols overall.
    context_witnesses lists the contexts whose column was constant;
    partial_witnesses lists (context, level subset) pairs where a strict
    subset of at least two of j's levels shared a symbol.
    """

    edge: tuple[int, int]
    column_counts: tuple[int, ...]
    row_counts: tuple[int, ...]
    total_distinct: int
    context_witnesses: tuple[Context, ...]
    partial_witnesses: tuple[tuple[Context, tuple[int, ...]], ...]


@dataclass(frozen=True)
class ClassificationEvidence:
    """Per-edge classification evidence from one tree-to-ALDAG conversion."""

    edges: Mapping[tuple[int, int], EdgeEvidence]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", dict(self.edges))

    def for_edge(self, j: int, i: int) -> EdgeEvidence:
        try:
            return self.edges[(j, i)]
        except KeyError:
            raise InvalidArgumentError(f"no evidence for edge ({j}, {i})") from None


def dag_to_staged_tree(dag: Dag, space: SampleSpace) -> StagedTree:
    """Staged tree with the same model as the DAG.

    Depth-i vertices get equal stages exactly when their configurations
    agree on the parents of variable i (see `_parent_stage_ids`).
    """
    if dag.p != space.p:
        raise InvalidArgumentError("DAG and sample space disagree on p")
    sizes = space.level_counts
    return StagedTree(space, tuple(
        StageVector(d, tuple(_parent_stage_ids(sizes[:d], dag.parents(d)).tolist()))
        for d in range(1, space.p)))


def _parent_stage_ids(sizes: Sequence[int], parents) -> np.ndarray:
    """Stage id of every depth-len(sizes) vertex: the lex index of its parent coordinates.

    Starting from a single id, each preceding variable either splits every
    id (parent) or copies it (non-parent), preserving lexicographic order,
    so the ids are also in first-occurrence order.
    """
    ids = np.zeros(1, dtype=np.int64)
    for j, k in enumerate(sizes):
        if j in parents:
            ids = np.add.outer(ids * k, np.arange(k)).ravel()
        else:
            ids = np.repeat(ids, k)
    return ids


def _column_context(axes: Sequence[int], sizes: Sequence[int], k: int) -> Context:
    # context of column k: assignment over `axes` in their order, last fastest
    values = [0] * len(axes)
    for pos in range(len(axes) - 1, -1, -1):
        k, values[pos] = divmod(k, sizes[axes[pos]])
    return tuple(sorted(zip(axes, values)))


def _context_columns(sizes: Sequence[int], symbols: Sequence[Hashable]):
    """Walk a depth-len(sizes) stage vector tail by tail, j = len(sizes)-1 .. 0.

    Yields (j, context axes, rows): the vector is kept arranged so that
    variable j is its fastest coordinate, so reshape_mat with m = |X_j| rows
    puts one conditioning context (an assignment of the context axes, last
    fastest) in each column.  Between tails the vector becomes vec of the
    transpose, or only the first row when every column is constant (the
    stages ignore x_j and the coordinate is dropped).
    """
    a = tuple(symbols)
    axes = list(range(len(sizes)))
    for j in reversed(axes):
        rows = reshape_mat(a, sizes[j])
        context = axes[:-1]
        yield j, context, rows
        if all(row == rows[0] for row in rows):
            a, axes = rows[0], context
        else:
            a, axes = vec_transpose(rows), [j] + context


def _classify_level(space: SampleSpace, depth: int, symbols: Sequence[Hashable]):
    """One pass of the matrix classification over the depth-`depth` stage vector.

    Returns ({tail j: label}, {tail j: EdgeEvidence}) from the reshapes of
    `_context_columns`; a tail whose context columns are all constant is no
    parent and gets no edge.
    """
    sizes = space.level_counts
    total = len(set(symbols))
    labels: dict[int, DependenceLabel] = {}
    evidence: dict[int, EdgeEvidence] = {}
    for j, ctx_axes, rows in _context_columns(sizes[:depth], symbols):
        m = sizes[j]
        columns = list(zip(*rows))
        col_counts = [len(set(col)) for col in columns]
        if max(col_counts) == 1:
            continue
        row_counts = [len(set(row)) for row in rows]
        context_witnesses = []
        partial_witnesses = []
        for k, col in enumerate(columns):
            if col_counts[k] == 1:
                context_witnesses.append(_column_context(ctx_axes, sizes, k))
            else:
                groups: dict[Hashable, list[int]] = {}
                for level, sym in enumerate(col):
                    groups.setdefault(sym, []).append(level)
                shared = [tuple(g) for g in groups.values() if 2 <= len(g) < m]
                if shared:
                    ctx = _column_context(ctx_axes, sizes, k)
                    partial_witnesses.extend((ctx, g) for g in shared)
        if min(col_counts) == m:
            label = (DependenceLabel.LOCAL if sum(row_counts) != total
                     else DependenceLabel.TOTAL)
        elif min(col_counts) == 1:
            # a non-constant column with a repeated symbol witnesses a
            # partial pattern on top of the context one
            label = (DependenceLabel.CONTEXT_PARTIAL
                     if any(1 < c < m for c in col_counts)
                     else DependenceLabel.CONTEXT)
        else:
            label = DependenceLabel.PARTIAL
        labels[j] = label
        evidence[j] = EdgeEvidence(
            edge=(j, depth),
            column_counts=tuple(col_counts),
            row_counts=tuple(row_counts),
            total_distinct=total,
            context_witnesses=tuple(context_witnesses),
            partial_witnesses=tuple(partial_witnesses),
        )
    return labels, evidence


def staged_tree_to_aldag(tree: StagedTree) -> tuple[Aldag, ClassificationEvidence]:
    """Minimal DAG containing the tree's model, with dependence labels."""
    labels: dict[tuple[int, int], DependenceLabel] = {}
    evidence: dict[tuple[int, int], EdgeEvidence] = {}
    for depth in range(1, tree.p):
        level_labels, level_evidence = _classify_level(
            tree.space, depth, tree.symbols_at(depth))
        for j, label in level_labels.items():
            labels[(j, depth)] = label
            evidence[(j, depth)] = level_evidence[j]
    dag = Dag(tree.p, frozenset(labels))
    return Aldag(dag, labels), ClassificationEvidence(evidence)


def classify_edge_oracle(tree: StagedTree, j: int, i: int) -> DependenceLabel:
    """Dependence class of edge (j, i) by direct context enumeration.

    Enumerates every assignment of the other predecessors of variable i and
    inspects the stage symbols as x_j varies: a constant column is a
    context-specific independence, a repeated-but-not-constant column a
    partial one, and with neither present a symbol shared across different
    x_j values is a local one.  Independent of the matrix-reshape route and
    used to cross-check it.
    """
    if not 0 <= j < i < tree.p:
        raise InvalidArgumentError(f"({j}, {i}) is not an ordered variable pair")
    sizes = tree.space.level_counts
    symbols = canonical_symbols(tree.symbols_at(i))
    m = sizes[j]
    others = [ax for ax in range(i) if ax != j]
    has_context = False
    has_partial = False
    depends = False
    config = [0] * i
    for ctx in itertools.product(*(range(sizes[ax]) for ax in others)):
        for ax, v in zip(others, ctx):
            config[ax] = v
        column = []
        for xj in range(m):
            config[j] = xj
            column.append(symbols[lex_index(tree.space, config)])
        distinct = len(set(column))
        if distinct == 1:
            has_context = True
        else:
            depends = True
            if distinct < m:
                has_partial = True
    if not depends:
        raise InvalidArgumentError(f"variable {i} does not depend on {j} in this staging")
    if has_context and has_partial:
        return DependenceLabel.CONTEXT_PARTIAL
    if has_context:
        return DependenceLabel.CONTEXT
    if has_partial:
        return DependenceLabel.PARTIAL
    levels_by_symbol: dict[Hashable, set[int]] = {}
    for pos, sym in enumerate(symbols):
        xj = pos
        for ax in range(i - 1, j, -1):
            xj //= sizes[ax]
        xj %= sizes[j]
        levels_by_symbol.setdefault(sym, set()).add(xj)
    if any(len(levels) > 1 for levels in levels_by_symbol.values()):
        return DependenceLabel.LOCAL
    return DependenceLabel.TOTAL


def d_separated(dag: Dag, a, b, c=()) -> bool:
    """Whether every path between the sets `a` and `b` is blocked given `c`.

    Standard reduction: restrict to the ancestors of the query sets, marry
    co-parents, drop directions, delete the conditioning set, and test
    connectivity.
    """
    setA, setB, setC = set(a), set(b), set(c)
    for s in (setA, setB, setC):
        for v in s:
            if not 0 <= v < dag.p:
                raise InvalidArgumentError(f"vertex {v} out of range")
    if setA & setB or setA & setC or setB & setC:
        raise InvalidArgumentError("query sets must be disjoint")
    if not setA or not setB:
        return True
    parents = {i: set() for i in range(dag.p)}
    for j, i in dag.edges:
        parents[i].add(j)
    ancestral = set()
    stack = list(setA | setB | setC)
    while stack:
        v = stack.pop()
        if v in ancestral:
            continue
        ancestral.add(v)
        stack.extend(parents[v])
    adjacency = {v: set() for v in ancestral}
    for i in ancestral:
        ps = parents[i] & ancestral
        for j in ps:
            adjacency[i].add(j)
            adjacency[j].add(i)
        for j, k in itertools.combinations(sorted(ps), 2):
            adjacency[j].add(k)
            adjacency[k].add(j)
    reachable = set()
    stack = [v for v in setA if v not in setC]
    while stack:
        v = stack.pop()
        if v in reachable:
            continue
        reachable.add(v)
        if v in setB:
            return False
        stack.extend(w for w in adjacency[v] if w not in setC and w not in reachable)
    return True


def dependence_subtree(tree: StagedTree, aldag: Aldag, target: int) -> StagedTree:
    """Staged tree over the ALDAG parents of `target` plus the target itself.

    Parents keep their relative order; the target comes last.  Each parent
    configuration inherits the stage of any full configuration extending it,
    which is well defined exactly when the target's staging ignores the
    non-parents; anything else is rejected.  Levels above the target carry
    no independence information and are left saturated.  Fitted
    distributions for the target, if present, are carried over; the other
    levels stay unfitted.
    """
    if aldag.dag.p != tree.p:
        raise InvalidArgumentError("tree and ALDAG disagree on p")
    if not 0 <= target < tree.p:
        raise InvalidArgumentError(f"target {target} out of range")
    parents = aldag.dag.parents(target)
    space = tree.space
    sizes = space.level_counts
    symbols = tree.symbols_at(target)

    stage_of: dict[tuple[int, ...], Hashable] = {}
    config_iter = itertools.product(*(range(sizes[ax]) for ax in range(target)))
    for pos, config in enumerate(config_iter):
        key = tuple(config[ax] for ax in parents)
        if stage_of.setdefault(key, symbols[pos]) != symbols[pos]:
            raise InvalidArgumentError(
                f"staging of variable {target} depends on a variable outside "
                f"its ALDAG parents {parents}")

    sub_space = SampleSpace(tuple(space.variables[ax] for ax in parents)
                            + (space.variables[target],))
    q = len(parents)
    last = tuple(stage_of[key] for key in
                 itertools.product(*(range(sizes[ax]) for ax in parents)))
    vectors = [StageVector(d, tuple(range(sub_space.prefix_cells(d))))
               for d in range(1, q)]
    if q:
        vectors.append(StageVector(q, last))
    fitted = None
    if tree.fitted is not None and tree.fitted[target] is not None:
        # keyed by the source symbols; the root (q = 0) is symbol 0
        source = tree.fitted[target]
        entry = {sym: source[sym] for sym in last} if q else {0: source[last[0]]}
        fitted = (None,) * q + (entry,)
    return StagedTree(sub_space, tuple(vectors), fitted)
