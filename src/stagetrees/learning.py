"""Greedy score-guided search over stagings and DAGs.

`bhc`, `hc`, `csbhc` and `learn_dag` share one steepest-descent engine and
differ only in the moves they score, level by level, as one array of score
deltas (`learn_dag` toggles one parent of the level's variable).  Each
pass counts the level's stages into a matrix whose row s is stage id s and
which ends one row past the largest id: a retired id is a zero row that the
`live` mask leaves out, and the last row is the level's one empty stage.
`bhc` scores its S x S matrix of pair joins over the live ids once per
level and, after each join, rescores only the joined stage's row and
column; the other moves are rescored in full each step.  The pick
rule: among the candidates whose delta lies within TIE_TOLERANCE = 1e-9 of
the smallest, the one with the smallest affected ids wins, and it is applied
if its delta is below -1e-9.  Deltas that are equal in exact arithmetic
(say, joins of stages with proportional counts) differ by float noise far
below the tolerance, so they tie.  Each level runs to its local fixpoint;
scores decompose over levels, so that is a fixpoint of the model.

`enumerate_orders` uses the same decomposition across orders: it runs
`_search_level` once per (predecessor set, variable), on the variable's
`Dataset.table` with the predecessors in index order, and a dynamic program
combines the level terms those searches return.  A whole search of one
order lays a level out in that order's prefix instead, and the tie rule and
the greedy path can depend on the layout.  So the DP finds the order that
full enumeration of whole searches finds whenever a level search's result
does not depend on the vertex layout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

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
    _index,
    _integer,
    _real,
)
from .scoring import FitConfig, _loglik, _stage_counts, score

__all__ = [
    "SearchConfig",
    "TraceStep",
    "SearchTrace",
    "bhc",
    "hc",
    "csbhc",
    "default_start",
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

    `max_iter` and the depths in `scope` are Python or numpy integers,
    stored as int; a bool, float or str, or a scope that holds no depths
    (say, a bare int), is refused with InvalidArgumentError.
    """

    score: str = "bic"
    max_iter: int | None = None
    scope: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.score not in ("bic", "aic"):
            raise InvalidArgumentError(f"unknown score {self.score!r}")
        if self.max_iter is not None:
            object.__setattr__(self, "max_iter", _integer(self.max_iter, "max_iter"))
            if self.max_iter < 1:
                raise InvalidArgumentError("max_iter must be positive")
        if self.scope is not None:
            if not np.iterable(self.scope):
                raise InvalidArgumentError(f"scope must hold integer depths, got {self.scope!r}")
            object.__setattr__(self, "scope", tuple(sorted({_integer(d, "a scope depth")
                                                            for d in self.scope})))


# the kinds of move a search trace records
MOVE_KINDS = ("join", "split", "column-join", "add-parent", "drop-parent")


@dataclass(frozen=True)
class TraceStep:
    """One accepted move; the integers and reals are checked and stored as int and float."""

    level: int
    kind: str  # one of MOVE_KINDS
    stages: tuple[int, ...]
    score_before: float
    score_after: float

    def __post_init__(self) -> None:
        if self.kind not in MOVE_KINDS:
            raise InvalidArgumentError(f"unknown move kind {self.kind!r}")
        object.__setattr__(self, "level", _integer(self.level, "a trace level"))
        object.__setattr__(self, "stages", tuple(_integer(s, "a stage id") for s in self.stages))
        object.__setattr__(self, "score_before", _real(self.score_before, "score_before"))
        object.__setattr__(self, "score_after", _real(self.score_after, "score_after"))


@dataclass(frozen=True)
class SearchTrace:
    """Accepted moves in order; scores strictly improve step to step."""

    steps: tuple[TraceStep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def final_score(self) -> float | None:
        return self.steps[-1].score_after if self.steps else None


def _levels_to_search(p: int, cfg: SearchConfig):
    if cfg.scope is None:
        return list(range(1, p))
    return [_index(d, p, "scope depth", 1) for d in cfg.scope]


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


def _pair_joins(table, sizes, penalty, assign, live, counts, loglik, last):
    """bhc candidates: join stages s1 < s2, the upper triangle of an S x S matrix.

    The matrix is scored in full on a level's first pass only.  After the
    join (s1, s2), the last matrix loses s2's row and column and only s1's
    row and column are rescored: every other entry is the same float
    expression of the same counts as in a full rescan, so it keeps its value.
    """
    ids = np.flatnonzero(live)  # the matrix covers the live ids only
    counts, loglik = counts[ids], loglik[ids]
    if last is None:
        # in place, so the S x S matrix is the only full-size array
        deltas = _merged_loglik(counts, counts)
        deltas -= loglik[:, None]
        deltas -= loglik
        deltas *= -2.0
        deltas -= penalty
        deltas[np.tril_indices(len(ids))] = np.inf
    else:
        previous, (s1, s2) = last
        # s2 has left ids, and searchsorted finds the position it held
        a, b = np.searchsorted(ids, (s1, s2))
        deltas = np.empty((len(ids), len(ids)))
        deltas[:b, :b], deltas[:b, b:] = previous[:b, :b], previous[:b, b + 1:]
        deltas[b:, :b], deltas[b:, b:] = previous[b + 1:, :b], previous[b + 1:, b + 1:]
        # the full build's expression, operation for operation, so the values match bit for bit
        merged = _loglik(counts[a] + counts)
        deltas[a, a + 1:] = ((merged[a + 1:] - loglik[a]) - loglik[a + 1:]) * -2.0 - penalty
        deltas[:a, a] = ((merged[:a] - loglik[:a]) - loglik[a]) * -2.0 - penalty

    def move(best):
        s1, s2 = (int(ids[i]) for i in divmod(best, len(ids)))
        return "join", (s1, s2), assign == s2, s1
    return deltas, move


def _vertex_moves(table, sizes, penalty, assign, live, counts, loglik, last):
    """hc candidates: move one vertex to another stage or to a fresh singleton.

    Column s of row v holds vertex v's move to stage id s; the last column
    is the level's empty stage, the fresh one, and the columns of retired
    ids are masked.
    """
    singleton = np.bincount(assign)[assign] == 1
    deltas = _merged_loglik(table, counts)
    deltas += _loglik(counts[assign] - table)[:, None]
    deltas -= loglik[assign, None]
    deltas -= loglik
    deltas *= -2.0
    deltas[:, :-1] -= np.where(singleton, penalty, 0.0)[:, None]
    deltas[:, -1] += penalty
    deltas[np.arange(len(assign)), assign] = np.inf
    deltas[singleton, -1] = np.inf
    deltas[:, :-1][:, ~live[:-1]] = np.inf

    def move(best):
        vertex, dest = divmod(best, len(live))
        return "join" if live[dest] else "split", (int(assign[vertex]), dest), vertex, dest
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


def _column_joins(table, sizes, penalty, assign, live, counts, loglik, last):
    """csbhc candidates: merge the stages of one context column, groups in sorted order."""
    # the -1 pad indexes the level's empty stage, its last row
    rows = _column_merge_groups(sizes, assign)
    parts = loglik[rows[:, 0]]
    for col in rows.T[1:]:
        parts += loglik[col]  # left to right, as sum() adds a group's terms
    gain = _loglik(counts[rows].sum(axis=1)) - parts
    joined = (rows >= 0).sum(axis=1) - 1
    deltas = -2.0 * gain - joined * penalty

    def move(best):
        group = tuple(rows[best][rows[best] >= 0].tolist())
        return "column-join", group, np.isin(assign, group[1:]), group[0]
    return deltas, move


def _dag_parents(assign, sizes):
    """Parents of a DAG-staged level: each j whose vertex x_j = 1 (others 0) leaves stage 0."""
    return {j for j in range(len(sizes)) if assign[math.prod(sizes[j + 1:])] != 0}


def _parent_toggles(table, sizes, penalty, assign, live, counts, loglik, last, sink=None):
    """learn_dag candidates: the level's DAG staging with parent j toggled, j in id order.

    The sink is never a parent; a move relabels the whole level.
    """
    parents = _dag_parents(assign, sizes)
    base, now = loglik[live].sum(), np.count_nonzero(live)
    deltas = np.full(len(sizes), np.inf)
    for j in range(len(sizes)):
        if j != sink:
            toggled = _parent_stage_ids(sizes, parents ^ {j})
            stages = int(toggled[-1]) + 1
            gain = _loglik(_stage_counts(table, toggled, stages)).sum() - base
            deltas[j] = -2.0 * gain + (stages - now) * penalty

    def move(best):
        kind = "drop-parent" if best in parents else "add-parent"
        return kind, (best,), slice(None), _parent_stage_ids(sizes, parents ^ {best})
    return deltas, move


def _search_level(candidates, table, sizes, penalty, assign, max_iter):
    """Greedy search of one level; returns the final assignment, the moves and the term.

    A stage's id is its row in the level's count matrix, which runs to one
    past the largest id: `live` marks the ids in use, a retired id is a zero
    row, and the last row is the level's one empty stage (hc's fresh stage,
    csbhc's -1 pad).  `candidates` is called with the level table, the level
    counts of the preceding variables, the score cost of one more stage,
    the stage id of every vertex, `live`, the counts and their rows'
    log-likelihoods, and the last pass's (deltas, stages of the move taken),
    None on the first; it returns the deltas, laid out in tie order, and a
    function that turns the picked index into (kind, stages, vertices to
    relabel, their new id or ids).  Only `_pair_joins` reads the last pass.
    `assign` is updated in place; each move is returned as (kind, stages,
    score delta), at most `max_iter` of them (0 scores the start).  The term
    is the level's share of the score, -2 logL + stages * penalty.
    """
    moves, last = [], None
    while True:
        live = np.bincount(assign, minlength=assign.max() + 2) > 0
        counts = _stage_counts(table, assign, len(live))
        loglik = _loglik(counts)
        if max_iter is not None and len(moves) >= max_iter:
            break
        deltas, move = candidates(table, sizes, penalty, assign, live, counts, loglik, last)
        best = _pick(deltas)
        if best is None:
            break
        kind, stages, rows, dest = move(best)
        assign[rows] = dest
        moves.append((kind, stages, float(deltas.flat[best])))
        last = deltas, stages
    return assign, moves, -2.0 * float(loglik[live].sum()) + np.count_nonzero(live) * penalty


def _stage_cost(data: Dataset, cfg: SearchConfig) -> float:
    """Score cost of one free parameter: score = -2 logL + df * cost."""
    if data.n < 1:
        raise InvalidArgumentError("cannot search on an empty dataset")
    return math.log(data.n) if cfg.score == "bic" else 2.0


def _run_search(candidates, start: StagedTree, data: Dataset, cfg: SearchConfig):
    """Greedy per-level search from `start`; `candidates` scores one level's moves.

    Each level in scope runs `_search_level` to its fixpoint or `max_iter`;
    the trace records every accepted move with the running score.
    """
    unit = _stage_cost(data, cfg)
    report = score(start, data, FitConfig())  # refuses a start on another sample space
    current = report.bic if cfg.score == "bic" else report.aic
    steps: list[TraceStep] = []
    sizes = start.space.level_counts
    vectors = list(start.stage_vectors)
    for depth in _levels_to_search(start.p, cfg):
        assign, moves, _ = _search_level(candidates, data.table(range(depth), depth),
                                         sizes[:depth], (sizes[depth] - 1) * unit,
                                         np.array(start.symbols_at(depth)), cfg.max_iter)
        for kind, stages, delta in moves:
            steps.append(TraceStep(depth, kind, stages, current, current + delta))
            current += delta
        vectors[depth - 1] = assign.tolist()
    return StagedTree(start.space, tuple(vectors)), SearchTrace(tuple(steps))


def bhc(start: StagedTree, data: Dataset, cfg: SearchConfig = SearchConfig()):
    """Backward hill-climb: repeatedly join the best pair of stages per level.

    Join-only, so the result is always a coarsening of the start
    (staging_refines(start, result) holds).  Each level scores its S x S
    matrix of pair joins once; after a join only the pairs of the joined
    stage are rescored, O(S * K) work for K levels, and the result equals
    that of a full rescan after every join.  A level whose S x S candidate
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


def _start_ids(algo: str, rows: int) -> np.ndarray:
    """Stage ids of a level's conventional start: one stage for hc, saturated otherwise."""
    return np.zeros(rows, dtype=np.int64) if algo == "hc" else np.arange(rows)


def default_start(algo: str, space: SampleSpace) -> StagedTree:
    """The conventional starting tree: fully merged for hc, saturated otherwise."""
    if algo not in _SEARCHES:
        raise InvalidArgumentError(f"unknown search algorithm {algo!r}")
    return StagedTree(space, tuple(_start_ids(algo, space.prefix_cells(d)).tolist()
                                   for d in range(1, space.p)))


# in the order the CLI lists them; refinement may only coarsen, so it takes the join-only ones
_SEARCHES = {"hc": hc, "bhc": bhc, "csbhc": csbhc}
_JOIN_SEARCHES = ("bhc", "csbhc")
_MOVES = {"bhc": _pair_joins, "hc": _vertex_moves, "csbhc": _column_joins}


def refine_dag(dag: Dag, data: Dataset, algo: str = "bhc",
               cfg: SearchConfig = SearchConfig()):
    """Refine a DAG into a staged tree and convert back to a labeled DAG.

    Expands the DAG into its staged tree, coarsens it with the chosen
    join-only search, and classifies the result.  The returned ALDAG's edge
    set is always a subset of the input DAG's.
    """
    if algo not in _JOIN_SEARCHES:
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
    blocked from having outgoing edges; it is a Python or numpy integer.
    """
    p = data.space.p
    if sink is not None:
        sink = _index(sink, p, "sink")
    tree, _ = _run_search(partial(_parent_toggles, sink=sink),
                          StagedTree.one_stage(data.space), data, cfg)
    sizes = data.space.level_counts
    return Dag(p, frozenset((j, i) for i in range(1, p)
                            for j in _dag_parents(tree.symbols_at(i), sizes[:i])))


def enumerate_orders(data: Dataset, fixed_last: int | str | None = None,
                     algo: str = "bhc", cfg: SearchConfig = SearchConfig()):
    """Best variable order by dynamic programming over predecessor sets.

    Returns (best order as names, its tree).  The score of an order is the
    sum of one term per variable v, and the term depends only on the set S
    of variables before v.  It is the term `_search_level` returns for
    `data.table(S, v)`, S in index order, from the algorithm's default start
    (one stage for hc, saturated otherwise); the root term is v's marginal.
    `cfg.scope` selects the depths |S| searched (other depths score their
    start), and `cfg.max_iter` caps each level search.

    The DP is a memoized recursion over sets S of free variables (all but
    `fixed_last`): the best total after S is the least, over the next v, of
    v's level term after S plus the best total after S + {v}; after every
    free variable it is 0 or the fixed last variable's term.  Among the
    orders whose total lies within max(TIE_TOLERANCE, 1e-12 * |best|) of
    the best, the lexicographically smallest (by variable index) wins.
    The returned tree is the algorithm's search on the data in the winning
    order, the tree `learn --order` gives.

    The DP finds the order that searching every order whole finds only when
    a level search does not depend on its vertices' layout (see the module
    docstring).  For `csbhc` this often fails: exact ties go by stage ids,
    which follow the layout, and its merges do not commute, so the order
    returned can score worse than the best whole-search order.

    UnsupportedSizeError is raised before any search when the level tables
    hold more than MAX_CELLS rows in total, or when bhc's largest S x S
    candidate matrix exceeds MAX_CELLS entries.
    """
    p = data.space.p
    if algo not in _SEARCHES:
        raise InvalidArgumentError(f"unknown search algorithm {algo!r}")
    last = None
    if fixed_last is not None:
        last = (data.space.index_of(fixed_last) if isinstance(fixed_last, str)
                else _index(fixed_last, p, "fixed_last"))
    searched = set(_levels_to_search(p, cfg))
    unit = _stage_cost(data, cfg)
    sizes = data.space.level_counts
    free = [i for i in range(p) if i != last]
    # the level of v after S has one row per configuration of S, and the
    # sets S before v sum to prod(1 + levels) over the other free variables
    rows = sum(math.prod(1 + sizes[i] for i in free if i != v) for v in free)
    rows += math.prod(sizes[i] for i in free) if last is not None else 0
    if rows > MAX_CELLS:
        raise UnsupportedSizeError(
            f"the order search's level tables hold {rows} rows, over the {MAX_CELLS} supported")
    if algo == "bhc":
        # from the saturated start, a level of depth d has at most as many
        # stages as the d largest level counts allow
        largest = sorted((sizes[i] for i in free), reverse=True)
        side = max((math.prod(largest[:d]) for d in searched), default=1)
        _check_candidates(side, side)

    top = sum(1 << v for v in free)

    @cache
    def term(pre: int, v: int) -> float:
        # v's level term after the predecessor set `pre`
        preds = [i for i in range(p) if pre >> i & 1]
        table = data.table(preds, v)
        return _search_level(_MOVES[algo], table, tuple(sizes[i] for i in preds),
                             (sizes[v] - 1) * unit, _start_ids(algo, len(table)),
                             cfg.max_iter if len(preds) in searched else 0)[2]

    def successors(pre: int) -> list[int]:
        return [v for v in free if not pre >> v & 1]

    @cache
    def rest(pre: int) -> float:
        # the best total of the terms after `pre`, a set of free variables
        if pre == top:
            return 0.0 if last is None else term(top, last)
        return min(term(pre, v) + rest(pre | 1 << v) for v in successors(pre))

    bound = rest(0) + max(TIE_TOLERANCE, 1e-12 * abs(rest(0)))
    order, pre, done = [], 0, 0.0
    while pre != top:
        # the smallest next variable with a completion within the bound; should
        # rounding leave none within it, the one with the best completion
        v = min(successors(pre),
                key=lambda u: (max(done + term(pre, u) + rest(pre | 1 << u), bound), u))
        order.append(v)
        done += term(pre, v)
        pre |= 1 << v
    if last is not None:
        order.append(last)
    reordered = data.reorder(order)
    tree, _ = _SEARCHES[algo](default_start(algo, reordered.space), reordered, cfg)
    return tuple(data.space.names[i] for i in order), tree
