"""Conversions between DAGs, staged trees and labeled DAGs.

`dag_to_staged_tree` expands a DAG into the staged tree of the same model.
`staged_tree_to_aldag` inverts it: the minimal DAG whose model contains the
tree's, each edge labeled with the dependence the staging leaves (total,
context, partial, context/partial or local) and filed with its witnesses in
an `EdgeEvidence`.  `classify_edge_oracle` derives one edge's label by
enumerating contexts; it is slow, and is kept as the reference that the
benchmark's output checks (perfbench/checks.py) call.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Aldag,
    Dag,
    DependenceLabel,
    InvalidArgumentError,
    SampleSpace,
    StagedTree,
    lex_index,
)

__all__ = [
    "EdgeEvidence",
    "dag_to_staged_tree",
    "staged_tree_to_aldag",
    "classify_edge_oracle",
    "d_separated",
    "dependence_subtree",
]

Context = tuple[tuple[int, int], ...]  # ((variable, level), ...) sorted by variable


@dataclass(frozen=True)
class EdgeEvidence:
    """The label of one retained edge (j, i) and what the stage matrix showed.

    The record is filed under its edge.  column_counts / row_counts are the
    distinct-symbol counts per context column and per level row of the
    matrix examined for variable j; total_distinct is the number of
    distinct symbols overall.
    context_witnesses lists the contexts whose column was constant;
    partial_witnesses lists (context, level subset) pairs where a strict
    subset of at least two of j's levels shared a symbol.
    """

    label: DependenceLabel
    column_counts: tuple[int, ...]
    row_counts: tuple[int, ...]
    total_distinct: int
    context_witnesses: tuple[Context, ...]
    partial_witnesses: tuple[tuple[Context, tuple[int, ...]], ...]


def dag_to_staged_tree(dag: Dag, space: SampleSpace) -> StagedTree:
    """Staged tree with the same model as the DAG.

    Depth-i vertices get equal stages exactly when their configurations
    agree on the parents of variable i (see `_parent_stage_ids`).
    """
    if dag.p != space.p:
        raise InvalidArgumentError("DAG and sample space disagree on p")
    sizes = space.level_counts
    return StagedTree(space, tuple(_parent_stage_ids(sizes[:d], dag.parents(d)).tolist()
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


def _context_columns(sizes: Sequence[int], symbols):
    """Walk a depth-len(sizes) stage vector tail by tail, j = len(sizes)-1 .. 0.

    mat and vec on an int array: yields (j, context axes, rows), where the
    vector is kept arranged so that variable j is its fastest coordinate and
    rows = mat^{m,n}(a) = a.reshape(-1, m).T, m = |X_j|, holds one
    conditioning context (an assignment of the context axes, last fastest)
    in each column.  Between tails the vector becomes vec of the transpose,
    rows.ravel(), or only the first row when every column is constant (the
    stages ignore x_j and the coordinate is dropped).
    """
    a = np.asarray(symbols)
    axes = list(range(len(sizes)))
    for j in reversed(axes):
        rows = a.reshape(-1, sizes[j]).T
        context = axes[:-1]
        yield j, context, rows
        if (rows == rows[0]).all():
            a, axes = rows[0], context
        else:
            a, axes = rows.ravel(), [j] + context


def _distinct_per_column(a: np.ndarray) -> np.ndarray:
    # distinct entries of each column, counted by sorting
    s = np.sort(a, axis=0)
    return 1 + (s[1:] != s[:-1]).sum(axis=0)


def _classify_level(space: SampleSpace, depth: int, symbols: Sequence[int]):
    """One pass of the matrix classification over the depth-`depth` stage vector.

    Returns {tail j: EdgeEvidence} from the reshapes of `_context_columns`.
    Each column holds the stages of one context as x_j varies.  A tail whose
    columns are all constant is no parent and gets no edge.  Otherwise a
    constant column makes the edge context, a column that repeats a symbol
    without being constant makes it partial, and both make it
    context/partial.  With neither, a symbol shared across levels of x_j
    makes it local, and otherwise the label is total.
    """
    sizes = space.level_counts
    total = len(set(symbols))
    evidence: dict[int, EdgeEvidence] = {}
    for j, ctx_axes, rows in _context_columns(sizes[:depth], symbols):
        m = sizes[j]
        col_counts = _distinct_per_column(rows)
        if col_counts.max() == 1:
            continue
        row_counts = _distinct_per_column(rows.T)
        context_witnesses = [_column_context(ctx_axes, sizes, k)
                             for k in np.flatnonzero(col_counts == 1).tolist()]
        partial = (col_counts > 1) & (col_counts < m)
        partial_witnesses = []
        for k in np.flatnonzero(partial).tolist():
            groups: dict[int, list[int]] = {}
            for level, sym in enumerate(rows[:, k].tolist()):
                groups.setdefault(sym, []).append(level)
            ctx = _column_context(ctx_axes, sizes, k)
            partial_witnesses.extend((ctx, tuple(g)) for g in groups.values() if len(g) >= 2)
        if col_counts.min() == m:
            label = (DependenceLabel.LOCAL if row_counts.sum() != total
                     else DependenceLabel.TOTAL)
        elif col_counts.min() == 1:
            # a non-constant column with a repeated symbol witnesses a
            # partial pattern on top of the context one
            label = (DependenceLabel.CONTEXT_PARTIAL if partial.any()
                     else DependenceLabel.CONTEXT)
        else:
            label = DependenceLabel.PARTIAL
        evidence[j] = EdgeEvidence(
            label=label,
            column_counts=tuple(col_counts.tolist()),
            row_counts=tuple(row_counts.tolist()),
            total_distinct=total,
            context_witnesses=tuple(context_witnesses),
            partial_witnesses=tuple(partial_witnesses),
        )
    return evidence


def staged_tree_to_aldag(
        tree: StagedTree) -> tuple[Aldag, dict[tuple[int, int], EdgeEvidence]]:
    """Minimal DAG containing the tree's model, with dependence labels.

    Also returns the evidence of every retained edge, its label included,
    keyed by the edge (j, i).
    """
    evidence = {(j, depth): ev for depth in range(1, tree.p)
                for j, ev in _classify_level(tree.space, depth, tree.symbols_at(depth)).items()}
    return Aldag(tree.p, {edge: ev.label for edge, ev in evidence.items()}), evidence


def classify_edge_oracle(tree: StagedTree, j: int, i: int) -> DependenceLabel:
    """Dependence class of edge (j, i) by direct context enumeration.

    Enumerates every assignment of the other predecessors of variable i and
    reads the stages as x_j varies, vertex by vertex through `lex_index`, by
    the rules of `_classify_level`.  Independent of the matrix-reshape route
    and used to cross-check it.
    """
    if not 0 <= j < i < tree.p:
        raise InvalidArgumentError(f"({j}, {i}) is not an ordered variable pair")
    sizes = tree.space.level_counts
    symbols = tree.symbols_at(i)
    m = sizes[j]
    others = [ax for ax in range(i) if ax != j]
    has_context = has_partial = depends = False
    levels_by_symbol: defaultdict[int, set[int]] = defaultdict(set)
    config = [0] * i
    for ctx in itertools.product(*(range(sizes[ax]) for ax in others)):
        for ax, v in zip(others, ctx):
            config[ax] = v
        column = []
        for xj in range(m):
            config[j] = xj
            column.append(symbols[lex_index(tree.space, config)])
            levels_by_symbol[column[-1]].add(xj)
        distinct = len(set(column))
        has_context |= distinct == 1
        depends |= distinct > 1
        has_partial |= 1 < distinct < m
    if not depends:
        raise InvalidArgumentError(f"variable {i} does not depend on {j} in this staging")
    if has_context and has_partial:
        return DependenceLabel.CONTEXT_PARTIAL
    if has_context:
        return DependenceLabel.CONTEXT
    if has_partial:
        return DependenceLabel.PARTIAL
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
    # filled from the edges: a vertex set of size p could far outgrow them
    parents: defaultdict[int, set[int]] = defaultdict(set)
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
    # the target's stages on the grid of its predecessors, and their values
    # where every non-parent is at level 0
    grid = np.asarray(tree.symbols_at(target)).reshape(space.level_counts[:target])
    at_zero = grid[tuple(slice(None) if ax in parents else slice(0, 1)
                         for ax in range(target))]
    if not (grid == at_zero).all():
        raise InvalidArgumentError(
            f"staging of variable {target} depends on a variable outside "
            f"its ALDAG parents {parents}")

    sub_space = SampleSpace(tuple(space.variables[ax] for ax in parents)
                            + (space.variables[target],))
    q = len(parents)
    last = tuple(at_zero.ravel().tolist())
    vectors = [tuple(range(sub_space.prefix_cells(d))) for d in range(1, q)]
    if q:
        vectors.append(last)
    fitted = None
    if tree.fitted is not None and tree.fitted[target] is not None:
        # keyed by the source symbols; the root (q = 0) is symbol 0
        source = tree.fitted[target]
        entry = {sym: source[sym] for sym in last} if q else {0: source[last[0]]}
        fitted = (None,) * q + (entry,)
    return StagedTree(sub_space, tuple(vectors), fitted)
