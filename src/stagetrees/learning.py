"""Greedy score-guided search over stagings and DAGs.

`bhc`, `hc`, `csbhc` and `learn_dag` share one steepest-descent engine and
differ only in the moves they score, level by level, as one array of score
deltas (`learn_dag` toggles one parent of the level's variable).  The pick
rule: among the candidates whose delta lies within TIE_TOLERANCE = 1e-9 of
the smallest, the one with the smallest affected ids wins, and it is applied
if its delta is below -1e-9.  Deltas that are equal in exact arithmetic
(say, joins of stages with proportional counts) differ by float noise far
below the tolerance, so they tie.  Each level runs to its local fixpoint;
scores decompose over levels, so that is a fixpoint of the model.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .conversion import (_context_columns, _parent_stage_ids, dag_to_staged_tree,
                         staged_tree_to_aldag)
from .core import (
    MAX_CELLS,
    Dag,
    Dataset,
    InvalidArgumentError,
    SampleSpace,
    StagedTree,
    UnsupportedSizeError,
)
from .scoring import FitConfig, _loglik, _stage_counts, score

__all__ = [
    "UnsupportedSizeError",
    "SearchConfig",
    "TraceStep",
    "SearchTrace",
    "bhc",
    "hc",
    "csbhc",
    "refine_dag",
    "learn_dag",
    "enumerate_orders",
]

IMPROVEMENT_EPS = 1e-9
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SearchConfig:
    """Knobs shared by every search.

    score : "bic" or "aic".
    max_iter : cap on accepted moves per level (None = until fixpoint).
    scope : depths to search (subset of 1..p-1); other levels pass through
        untouched.
    """

    score: str = "bic"
    max_iter: int | None = None
    scope: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.score not in ("bic", "aic"):
            raise InvalidArgumentError(f"unknown score {self.score!r}")
        if self.max_iter is not None and self.max_iter < 1:
            raise InvalidArgumentError("max_iter must be positive")
        if self.scope is not None:
            object.__setattr__(self, "scope", tuple(sorted(set(self.scope))))


@dataclass(frozen=True)
class TraceStep:
    level: int
    kind: str  # "join", "split", "column-join", "add-parent" or "drop-parent"
    stages: tuple
    score_before: float
    score_after: float


@dataclass(frozen=True)
class SearchTrace:
    """Accepted moves in order; scores strictly improve step to step."""

    steps: tuple[TraceStep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def final_score(self) -> float | None:
        return self.steps[-1].score_after if self.steps else None


def _initial_score(tree: StagedTree, data: Dataset, cfg: SearchConfig) -> float:
    report = score(tree, data, FitConfig())
    return report.bic if cfg.score == "bic" else report.aic


def _levels_to_search(p: int, cfg: SearchConfig):
    levels = range(1, p)
    if cfg.scope is None:
        return list(levels)
    bad = [d for d in cfg.scope if d not in levels]
    if bad:
        raise InvalidArgumentError(f"scope depths {bad} outside 1..{p - 1}")
    return list(cfg.scope)


# candidate count vectors scored per block; bounds the memory of one search step
_BLOCK_ELEMENTS = 1 << 18


def _pick(deltas: np.ndarray) -> int | None:
    """Flat index of the move the tie rule picks, or None if it does not improve.

    Candidate arrays are laid out in the order of the tie rule, so the first
    delta within TIE_TOLERANCE of the smallest belongs to the tied candidate
    with the smallest ids; it is taken if it is below -IMPROVEMENT_EPS.
    """
    if not deltas.size:
        return None
    best = int(np.argmax(deltas <= deltas.min() + TIE_TOLERANCE))
    return best if deltas.flat[best] < -IMPROVEMENT_EPS else None


def _check_candidates(rows: int, cols: int) -> None:
    if rows * cols > MAX_CELLS:
        raise UnsupportedSizeError(
            f"a {rows} x {cols} candidate matrix exceeds the {MAX_CELLS} entries supported")


def _merged_loglik(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Matrix of _loglik(left[i] + right[j]), scored in row blocks."""
    _check_candidates(len(left), len(right))
    out = np.empty((len(left), len(right)))
    step = max(1, _BLOCK_ELEMENTS // right.size)
    for a in range(0, len(left), step):
        out[a:a + step] = _loglik(left[a:a + step, None] + right[None])
    return out


def _pair_joins(table, sizes, penalty, assign, ids, counts, loglik):
    """bhc candidates: join stages s1 < s2, the upper triangle of an S x S matrix."""
    # in place, so the S x S matrix is the only full-size array
    deltas = _merged_loglik(counts, counts)
    deltas -= loglik[:, None]
    deltas -= loglik
    deltas *= -2.0
    deltas -= penalty
    deltas[np.tril_indices(len(ids))] = np.inf

    def move(best):
        s1, s2 = (int(ids[i]) for i in divmod(best, len(ids)))
        return "join", (s1, s2), assign == s2, s1
    return deltas, move


def _vertex_moves(table, sizes, penalty, assign, ids, counts, loglik):
    """hc candidates: move one vertex to another stage or to a fresh singleton.

    Row v holds vertex v's moves to every stage in id order, then to the
    fresh stage, whose id exceeds every existing one; the fresh stage is
    scored as an empty stage with zero log-likelihood.
    """
    src = np.searchsorted(ids, assign)
    singleton = np.bincount(src, minlength=len(ids))[src] == 1
    deltas = _merged_loglik(table, np.vstack([counts, np.zeros(counts.shape[1])]))
    deltas += _loglik(counts[src] - table)[:, None]
    deltas -= loglik[src, None]
    deltas -= np.append(loglik, 0.0)
    deltas *= -2.0
    deltas[:, :-1] -= np.where(singleton, penalty, 0.0)[:, None]
    deltas[:, -1] += penalty
    deltas[np.arange(len(assign)), src] = np.inf
    deltas[singleton, -1] = np.inf

    def move(best):
        vertex, col = divmod(best, len(ids) + 1)
        split = col == len(ids)
        dest = int(ids[-1]) + 1 if split else int(ids[col])
        return "split" if split else "join", (int(assign[vertex]), dest), vertex, dest
    return deltas, move


def _column_merge_groups(sizes_prefix, symbols) -> np.ndarray:
    """Stage sets appearing together in one context column of some reshape.

    One row per distinct set of two or more stages, ascending and padded
    with -1; rows in the order of the sets as sorted tuples.
    """
    reshapes = [rows.T for _, _, rows in _context_columns(sizes_prefix, symbols)]
    groups = np.full((sum(map(len, reshapes)), max(sizes_prefix)), -1)
    top = 0
    for columns in reshapes:
        s = np.sort(columns, axis=1)
        # repeats move behind the distinct stages, then become the pad
        behind = np.iinfo(s.dtype).max
        s[:, 1:][s[:, 1:] == s[:, :-1]] = behind
        s.sort(axis=1)
        s[s == behind] = -1
        groups[top:top + len(s), :s.shape[1]] = s
        top += len(s)
    groups = groups[groups[:, 1] >= 0]
    groups = groups[np.lexsort(groups.T[::-1])]
    keep = np.ones(len(groups), dtype=bool)
    keep[1:] = (groups[1:] != groups[:-1]).any(axis=1)
    return groups[keep]


def _column_joins(table, sizes, penalty, assign, ids, counts, loglik):
    """csbhc candidates: merge the stages of one context column, groups in sorted order."""
    # stage indices into ids; the -1 pad indexes an appended empty stage
    rows = _column_merge_groups(sizes, np.searchsorted(ids, assign))
    counts = np.vstack([counts, np.zeros(counts.shape[1])])
    loglik = np.append(loglik, 0.0)
    parts = loglik[rows[:, 0]]
    for col in rows.T[1:]:
        parts += loglik[col]  # left to right, as sum() adds a group's terms
    gain = _loglik(counts[rows].sum(axis=1)) - parts
    joined = (rows >= 0).sum(axis=1) - 1
    deltas = -2.0 * gain - joined * penalty

    def move(best):
        group = tuple(ids[rows[best][rows[best] >= 0]].tolist())
        return "column-join", group, np.isin(assign, group[1:]), group[0]
    return deltas, move


def _dag_parents(assign, sizes):
    """Parents of a DAG-staged level: each j whose vertex x_j = 1 (others 0) leaves stage 0."""
    return {j for j in range(len(sizes)) if assign[math.prod(sizes[j + 1:])] != 0}


def _parent_toggles(table, sizes, penalty, assign, ids, counts, loglik, sink=None):
    """learn_dag candidates: the level's DAG staging with parent j toggled, j in id order.

    The sink is never a parent; a move relabels the whole level.
    """
    parents = _dag_parents(assign, sizes)
    deltas = np.full(len(sizes), np.inf)
    for j in range(len(sizes)):
        if j != sink:
            toggled = _parent_stage_ids(sizes, parents ^ {j})
            stages = int(toggled[-1]) + 1
            gain = _loglik(_stage_counts(table, toggled, stages)).sum() - loglik.sum()
            deltas[j] = -2.0 * gain + (stages - len(ids)) * penalty

    def move(best):
        kind = "drop-parent" if best in parents else "add-parent"
        return kind, (best,), slice(None), _parent_stage_ids(sizes, parents ^ {best})
    return deltas, move


def _run_search(candidates, start: StagedTree, data: Dataset, cfg: SearchConfig):
    """Greedy per-level search; `candidates` scores one level's moves as an array.

    It is called with the level table, the level counts of the preceding
    variables, the score cost of one more stage, the stage id of every vertex,
    the sorted stage ids with their S x K count matrix and log-likelihoods; it
    returns the deltas, laid out in tie order, and a function that turns the
    picked index into (kind, stages, vertices to relabel, their new id or ids).
    """
    if start.space != data.space:
        raise InvalidArgumentError("start tree and dataset use different sample spaces")
    if data.n < 1:
        raise InvalidArgumentError("cannot search on an empty dataset")
    unit = math.log(data.n) if cfg.score == "bic" else 2.0  # score = -2 logL + df * unit
    current = _initial_score(start, data, cfg)
    steps: list[TraceStep] = []
    sizes = start.space.level_counts
    vectors = list(start.stage_vectors)
    for depth in _levels_to_search(start.p, cfg):
        table = data.level_table(depth)
        penalty = (sizes[depth] - 1) * unit
        assign = np.array(start.symbols_at(depth))
        accepted = 0
        while cfg.max_iter is None or accepted < cfg.max_iter:
            ids, stage_of = np.unique(assign, return_inverse=True)
            counts = _stage_counts(table, stage_of, len(ids))
            deltas, move = candidates(table, sizes[:depth], penalty, assign, ids, counts,
                                      _loglik(counts))
            best = _pick(deltas)
            if best is None:
                break
            kind, stages, rows, dest = move(best)
            assign[rows] = dest
            delta = float(deltas.flat[best])
            steps.append(TraceStep(depth, kind, stages, current, current + delta))
            current += delta
            accepted += 1
        vectors[depth - 1] = assign.tolist()
    return StagedTree(start.space, tuple(vectors)), SearchTrace(tuple(steps))


def bhc(start: StagedTree, data: Dataset, cfg: SearchConfig = SearchConfig()):
    """Backward hill-climb: repeatedly join the best pair of stages per level.

    Join-only, so the result is always a coarsening of the start
    (staging_refines(start, result) holds).  A level whose S x S candidate
    matrix would exceed MAX_CELLS entries raises UnsupportedSizeError before
    any level is searched.
    """
    # joins never add a stage, so each level's first matrix is its largest
    for depth in _levels_to_search(start.p, cfg):
        _check_candidates(start.stage_count(depth), start.stage_count(depth))
    return _run_search(_pair_joins, start, data, cfg)


def hc(start: StagedTree, data: Dataset, cfg: SearchConfig = SearchConfig()):
    """Hill-climb by moving single vertices between stages.

    The neighborhood of one move reassigns a depth-d vertex to any other
    existing stage at that depth or to a fresh singleton stage.
    """
    return _run_search(_vertex_moves, start, data, cfg)


def csbhc(start: StagedTree, data: Dataset, cfg: SearchConfig = SearchConfig()):
    """Context-specific backward hill-climb.

    Candidate moves merge all stages appearing in one context column of the
    reshaped stage vector (every reshape of the level is scanned); the best
    strictly improving candidate of each pass is applied.  Merging a full
    column makes that column constant, so the result never exhibits a local
    dependence pattern when started from the saturated staging.
    """
    return _run_search(_column_joins, start, data, cfg)


def default_start(algo: str, space: SampleSpace) -> StagedTree:
    """The conventional starting tree: fully merged for hc, saturated otherwise."""
    if algo == "hc":
        return StagedTree.one_stage(space)
    if algo in ("bhc", "csbhc"):
        return StagedTree.saturated(space)
    raise InvalidArgumentError(f"unknown search algorithm {algo!r}")


_SEARCHES = {"bhc": bhc, "hc": hc, "csbhc": csbhc}


def refine_dag(dag: Dag, data: Dataset, algo: str = "bhc",
               cfg: SearchConfig = SearchConfig()):
    """Refine a DAG into a staged tree and convert back to a labeled DAG.

    Expands the DAG into its staged tree, coarsens it with the chosen
    join-only search, and classifies the result.  The returned ALDAG's edge
    set is always a subset of the input DAG's.
    """
    if algo not in ("bhc", "csbhc"):
        raise InvalidArgumentError("refinement uses the join-only searches bhc or csbhc")
    tree, _ = _SEARCHES[algo](dag_to_staged_tree(dag, data.space), data, cfg)
    aldag, _ = staged_tree_to_aldag(tree)
    return tree, aldag


def learn_dag(data: Dataset, cfg: SearchConfig = SearchConfig(),
              sink: int | None = None) -> Dag:
    """Greedy score search over DAGs that respect the variable order.

    A DAG's level-i staging partitions the vertices by the configuration of
    X_i's parents, so this runs the shared engine from the empty DAG with
    moves that add or drop one parent j < i; ties go to the smallest j among
    deltas within TIE_TOLERANCE.  `cfg.max_iter` caps the toggles per child
    and `cfg.scope` selects the children.  A `sink` variable, if given, is
    blocked from having outgoing edges.
    """
    p = data.space.p
    if sink is not None and not 0 <= sink < p:
        raise InvalidArgumentError(f"sink {sink} out of range")
    tree, _ = _run_search(partial(_parent_toggles, sink=sink),
                          StagedTree.one_stage(data.space), data, cfg)
    sizes = data.space.level_counts
    return Dag(p, frozenset((j, i) for i in range(1, p)
                            for j in _dag_parents(tree.symbols_at(i), sizes[:i])))


def enumerate_orders(data: Dataset, fixed_last: int | str | None = None,
                     algo: str = "bhc", cfg: SearchConfig = SearchConfig()):
    """Exhaustive search over variable orders; returns (best order, its tree).

    Every permutation (honoring `fixed_last`) is searched from the
    algorithm's default start.  The pick rule is the one of the searches:
    among the orders whose final score lies within TIE_TOLERANCE of the
    best, the lexicographically smallest wins.  Guarded to p <= 8.
    """
    p = data.space.p
    if p > 8:
        raise UnsupportedSizeError(
            f"p = {p} exceeds the exhaustive order enumeration guard (p <= 8)")
    if algo not in _SEARCHES:
        raise InvalidArgumentError(f"unknown search algorithm {algo!r}")
    last = None
    if fixed_last is not None:
        last = data.space.index_of(fixed_last) if isinstance(fixed_last, str) else int(fixed_last)
        if not 0 <= last < p:
            raise InvalidArgumentError(f"fixed_last {fixed_last!r} out of range")
    free = [i for i in range(p) if i != last]
    # (score, order, tree) of the orders within TIE_TOLERANCE of the best so
    # far, in lexicographic order; an order dropped here is not within the
    # tolerance of the overall best either
    near: list = []
    for perm in itertools.permutations(free):
        order = perm + (last,) if last is not None else perm
        reordered = data.reorder(order)
        tree, trace = _SEARCHES[algo](default_start(algo, reordered.space), reordered, cfg)
        final = trace.final_score
        if final is None:
            final = _initial_score(tree, reordered, cfg)
        near.append((final, order, tree))
        low = min(f for f, _, _ in near)
        near = [c for c in near if c[0] <= low + TIE_TOLERANCE]
    _, order, tree = near[0]
    return tuple(data.space.names[i] for i in order), tree
