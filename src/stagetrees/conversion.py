"""Conversions between DAGs, staged trees and labeled DAGs.

`dag_to_staged_tree` expands a DAG into the staged tree of the same model.
`staged_tree_to_aldag` inverts it: the minimal DAG whose model contains the
tree's, each edge labeled with the dependence the staging leaves (total,
context, partial, context/partial or local) and filed with the stage
matrix it was read from in an `EdgeEvidence`.  `classify_edge_oracle` derives
one edge's label by enumerating contexts; it is slow, and is kept as the
reference that the benchmark's output checks (perfbench/checks.py) call.
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
    _index,
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
    """The label of one retained edge (j, i) and the stage matrix it was read from.

    The record is filed under its edge.  stages is the m x C matrix that
    `_context_columns` examined for tail j: a row per level of x_j, a column
    per context, an assignment of context_axes (of sizes context_sizes, last
    fastest).  The rest is read from it on request: the distinct-symbol
    counts per column, per row and overall; the contexts whose column is
    constant; and the (context, level subset) pairs where a strict subset of
    at least two of j's levels shares a symbol.
    """

    label: DependenceLabel
    context_axes: tuple[int, ...]
    context_sizes: tuple[int, ...]
    stages: tuple[tuple[int, ...], ...]

    @property
    def column_counts(self) -> tuple[int, ...]:
        return tuple(_distinct_per_column(np.array(self.stages)).tolist())

    @property
    def row_counts(self) -> tuple[int, ...]:
        return tuple(_distinct_per_column(np.array(self.stages).T).tolist())

    @property
    def total_distinct(self) -> int:
        return len(set(itertools.chain.from_iterable(self.stages)))

    @property
    def context_witnesses(self) -> tuple[Context, ...]:
        return self._contexts(np.flatnonzero(np.array(self.column_counts) == 1))

    @property
    def partial_witnesses(self) -> tuple[tuple[Context, tuple[int, ...]], ...]:
        stages = np.array(self.stages)
        counts = _distinct_per_column(stages)
        columns = np.flatnonzero((counts > 1) & (counts < len(stages)))
        witnesses = []
        for ctx, column in zip(self._contexts(columns), stages[:, columns].T.tolist()):
            groups = (tuple(u for u, s in enumerate(column) if s == sym)
                      for sym in dict.fromkeys(column))
            witnesses.extend((ctx, g) for g in groups if len(g) >= 2)
        return tuple(witnesses)

    def _contexts(self, columns: np.ndarray) -> tuple[Context, ...]:
        # the one decoder of column indices; an empty context has one column,
        # and unravel_index needs the shape (1,) for it, not ()
        values = np.unravel_index(columns, self.context_sizes or (1,))
        return tuple(tuple(sorted(zip(self.context_axes, v)))
                     for v in zip(*(a.tolist() for a in values)))


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
        if col_counts.min() == m:
            label = (DependenceLabel.LOCAL if _distinct_per_column(rows.T).sum() != total
                     else DependenceLabel.TOTAL)
        elif col_counts.min() == 1:
            # a repeat in a non-constant column adds a partial pattern
            label = (DependenceLabel.CONTEXT_PARTIAL if (col_counts[col_counts > 1] < m).any()
                     else DependenceLabel.CONTEXT)
        else:
            label = DependenceLabel.PARTIAL
        evidence[j] = EdgeEvidence(label, tuple(ctx_axes), tuple(sizes[a] for a in ctx_axes),
                                   tuple(map(tuple, rows.tolist())))
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
    i = _index(i, tree.p, "head")
    j = _index(j, i, "tail")
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
    setA, setB, setC = ({_index(v, dag.p, "vertex") for v in s} for s in (a, b, c))
    if setA & setB or setA & setC or setB & setC:
        raise InvalidArgumentError("query sets must be disjoint")
    if not setA or not setB:
        return True
    # filled from the edges: a vertex set of size p could far outgrow them
    parents: defaultdict[int, set[int]] = defaultdict(set)
    for j, i in dag.edges:
        parents[i].add(j)
    ancestral = _reach(setA | setB | setC, lambda v: parents[v])
    adjacency = {v: set() for v in ancestral}
    for i in ancestral:
        # moralize: link every two of i and its parents (ancestral too)
        for j, k in itertools.combinations(parents[i] | {i}, 2):
            adjacency[j].add(k)
            adjacency[k].add(j)
    return not _reach(setA, lambda v: adjacency[v] - setC) & setB


def _reach(start, step) -> set:
    # every vertex reached from `start` by following step(vertex)
    seen, stack = set(), list(start)
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(step(v))
    return seen


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
    target = _index(target, tree.p, "target")
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
