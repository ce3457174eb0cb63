"""Independent reference implementations used only by the tests.

Each function here recomputes a quantity the package produces by a
different algorithm, from first principles and with different data
structures, so agreement is meaningful.  The exceptions are the
`*_level_by_rescan` level loops, which share the package's float
expressions on purpose: they check that the search engine's id-indexed
counts and cached deltas change no bit of the result.
"""
from __future__ import annotations

import csv
import itertools
import math

import numpy as np

from stagetrees.core import MAX_COUNT, Dataset, InvalidArgumentError, SampleSpace
from stagetrees.io import NA_TOKENS, DataError, _column_names


def edge_label_brute_force(tree, j: int, i: int) -> str | None:
    """Dependence class of edge (j, i) by explicit context enumeration.

    For every assignment of the predecessors of variable i other than j,
    partition the levels of variable j by stage equality.  A context whose
    partition is a single block shows full independence there; a block of
    size at least two (but not all levels) shows a partial pattern.  With
    neither pattern anywhere, the edge is local when some stage recurs at
    two different levels of variable j, else total.  Returns None when the
    stage vector never depends on variable j at all (no edge).
    """
    space = tree.space
    sizes = space.level_counts
    symbols = tree.symbols_at(i)
    others = [q for q in range(i) if q != j]

    def symbol_at(assignment: dict) -> object:
        idx = 0
        for q in range(i):
            idx = idx * sizes[q] + assignment[q]
        return symbols[idx]

    full_context, partial_context = False, False
    merged_everywhere = True
    level_sets: dict[object, set[int]] = {}
    for values in itertools.product(*(range(sizes[q]) for q in others)):
        assignment = dict(zip(others, values))
        blocks: dict[object, list[int]] = {}
        for xj in range(sizes[j]):
            assignment[j] = xj
            sym = symbol_at(assignment)
            blocks.setdefault(sym, []).append(xj)
            level_sets.setdefault(sym, set()).add(xj)
        if len(blocks) == 1:
            full_context = True
        else:
            merged_everywhere = False
        if any(1 < len(b) < sizes[j] for b in blocks.values()):
            partial_context = True
    if merged_everywhere:
        return None
    if full_context and partial_context:
        return "context/partial"
    if full_context:
        return "context"
    if partial_context:
        return "partial"
    if any(len(levels) > 1 for levels in level_sets.values()):
        return "local"
    return "total"


def dag_edges_brute_force(tree) -> set[tuple[int, int]]:
    """Edges of the minimal DAG: (j, i) present iff the label is not None."""
    return {(j, i)
            for i in range(1, tree.p)
            for j in range(i)
            if edge_label_brute_force(tree, j, i) is not None}


def bic_by_hand(tree, data) -> float:
    """BIC from scratch: group configurations by stage with plain dicts."""
    space = data.space
    n = 0
    cell = {}
    for idx, config in enumerate(space.configurations()):
        c = int(data.counts[idx])
        cell[config] = c
        n += c
    log_lik = 0.0
    df = 0
    for depth in range(space.p):
        groups: dict[object, dict[int, int]] = {}
        for config, c in cell.items():
            prefix = config[:depth]
            pos = 0
            for q, v in enumerate(prefix):
                pos = pos * space.level_counts[q] + v
            sym = tree.symbols_at(depth)[pos]
            groups.setdefault(sym, {})
            tally = groups[sym]
            tally[config[depth]] = tally.get(config[depth], 0) + c
        df += len(groups) * (space.level_counts[depth] - 1)
        for tally in groups.values():
            total = sum(tally.values())
            if total == 0:
                continue
            for c in tally.values():
                if c > 0:
                    log_lik += c * math.log(c / total)
    return -2.0 * log_lik + df * math.log(n)


def bhc_by_pairs(data, tolerance: float = 1e-9, improvement: float = 1e-9):
    """Backward hill-climb from the saturated tree, one pair at a time.

    At each level, every pair of stages (s1 < s2) is scored from plain count
    lists; the first pair in (s1, s2) order whose BIC delta lies within
    `tolerance` of the smallest is joined (s2's vertices take s1's id) while
    that delta is below -`improvement`.  Returns the moves, each as
    (level, (s1, s2)), and each level's stage ids in first-occurrence order.
    """
    space = data.space
    sizes = space.level_counts
    n = sum(int(c) for c in data.counts)
    configs = list(space.configurations())

    def loglik(counts) -> float:
        total = sum(counts)
        return sum(c * math.log(c / total) for c in counts if c > 0)

    moves, vectors = [], []
    for depth in range(1, space.p):
        vertices = math.prod(sizes[:depth])
        table = [[0] * sizes[depth] for _ in range(vertices)]
        for idx, config in enumerate(configs):
            pos = 0
            for q in range(depth):
                pos = pos * sizes[q] + config[q]
            table[pos][config[depth]] += int(data.counts[idx])
        stage = list(range(vertices))
        penalty = (sizes[depth] - 1) * math.log(n)
        while True:
            counts = {}
            for v, s in enumerate(stage):
                counts[s] = [a + b for a, b in zip(counts.get(s, [0] * sizes[depth]), table[v])]
            pairs = []
            for s1, s2 in itertools.combinations(sorted(counts), 2):
                joined = [a + b for a, b in zip(counts[s1], counts[s2])]
                gain = loglik(joined) - loglik(counts[s1]) - loglik(counts[s2])
                pairs.append((-2.0 * gain - penalty, s1, s2))
            if not pairs:
                break
            low = min(delta for delta, _, _ in pairs)
            delta, s1, s2 = next(pair for pair in pairs if pair[0] <= low + tolerance)
            if not delta < -improvement:
                break
            moves.append((depth, (s1, s2)))
            stage = [s1 if s == s2 else s for s in stage]
        first: dict[int, int] = {}
        vectors.append(tuple(first.setdefault(s, len(first)) for s in stage))
    return moves, vectors


def _level_by_rescan(table, penalty: float, assign, max_iter, candidates):
    """The level loop the search engine ran before stage ids indexed the counts.

    Each pass recounts the stages in sorted id order (`np.unique`) and
    scores every move afresh with the package's own float expressions;
    `candidates(ids, stage_of, counts, loglik)` returns the deltas and a
    function that turns the picked index into (kind, stages, vertices to
    relabel, their new id).  `assign` is updated in place; returns it, the
    moves as (kind, stages, delta) and the level's term -2 logL + stages *
    penalty, as `learning._search_level` does, so the two must agree bit
    for bit, not approximately.
    """
    from stagetrees.learning import _pick
    from stagetrees.scoring import _loglik, _stage_counts
    moves = []
    while True:
        ids, stage_of = np.unique(assign, return_inverse=True)
        counts = _stage_counts(table, stage_of, len(ids))
        loglik = _loglik(counts)
        if max_iter is not None and len(moves) >= max_iter:
            break
        deltas, move = candidates(ids, stage_of, counts, loglik)
        best = _pick(deltas)
        if best is None:
            break
        kind, stages, rows, dest = move(best)
        assign[rows] = dest
        moves.append((kind, stages, float(deltas.flat[best])))
    return assign, moves, -2.0 * float(loglik.sum()) + len(ids) * penalty


def bhc_level_by_rescan(table, penalty: float, assign, max_iter=None):
    """One bhc level that rescores every pair of stages after each join.

    A cached search, which keeps its delta matrix between joins, must agree
    with it bit for bit.
    """
    from stagetrees.learning import _merged_loglik

    def candidates(ids, stage_of, counts, loglik):
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
    return _level_by_rescan(table, penalty, assign, max_iter, candidates)


def hc_level_by_rescan(table, penalty: float, assign, max_iter=None):
    """One hc level that rescores every vertex move over the sorted stage ids.

    Row v holds vertex v's moves to every stage in id order, then to a fresh
    stage with id one past the largest, scored as an appended empty stage.
    """
    from stagetrees.learning import _merged_loglik
    from stagetrees.scoring import _loglik

    def candidates(ids, src, counts, loglik):
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
    return _level_by_rescan(table, penalty, assign, max_iter, candidates)


def csbhc_level_by_rescan(table, sizes, penalty: float, assign, max_iter=None):
    """One csbhc level that rescores every context-column merge group.

    The groups come from `column_merge_groups_by_full_walk`, as positions
    in the sorted stage ids padded with one past the last, an appended
    empty stage.
    """
    from stagetrees.scoring import _loglik

    def candidates(ids, stage_of, counts, loglik):
        groups = column_merge_groups_by_full_walk(sizes, assign.tolist())
        rows = np.full((len(groups), max(sizes)), len(ids))
        for g, group in enumerate(groups):
            rows[g, :len(group)] = np.searchsorted(ids, group)
        counts = np.vstack([counts, np.zeros(counts.shape[1])])
        loglik = np.append(loglik, 0.0)
        parts = loglik[rows[:, 0]]
        for col in rows.T[1:]:
            parts += loglik[col]
        gain = _loglik(counts[rows].sum(axis=1)) - parts
        joined = (rows < len(ids)).sum(axis=1) - 1
        deltas = -2.0 * gain - joined * penalty

        def move(best):
            group = groups[best]
            return "column-join", group, np.isin(assign, group[1:]), group[0]
        return deltas, move
    return _level_by_rescan(table, penalty, assign, max_iter, candidates)


def table_by_tally(sizes, counts, preds, v) -> list[list[int]]:
    """Counts of variable `v` given the ordered `preds`, by a loop over every cell.

    Cell x sits at position x_0 * (sizes[1] * ...) + ... + x_{p-1} of `counts`;
    its count goes to row x[preds[0]] * (sizes[preds[1]] * ...) + ... and
    column x[v], both positions computed digit by digit.
    """
    rows = 1
    for i in preds:
        rows *= sizes[i]
    out = [[0] * sizes[v] for _ in range(rows)]
    for x in itertools.product(*(range(k) for k in sizes)):
        cell = 0
        for i, k in enumerate(sizes):
            cell = cell * k + x[i]
        row = 0
        for i in preds:
            row = row * sizes[i] + x[i]
        out[row][x[v]] += int(counts[cell])
    return out


def learn_dag_by_global_toggles(data, score: str = "bic", sink=None,
                                tolerance: float = 1e-9, improvement: float = 1e-9):
    """Order-respecting DAG search by global steepest descent over edge toggles.

    Every family is scored on its own, from the count tensor marginalized
    onto the child and its parents.  At each step all toggles of an edge
    (j, i), j < i and j not the sink, are scored; the first in (i, j) order
    whose delta lies within `tolerance` of the smallest is applied while
    that delta is below -`improvement`.  Returns the set of edges.
    """
    sizes = data.space.level_counts
    p = len(sizes)
    n = sum(int(c) for c in data.counts)
    unit = math.log(n) if score == "bic" else 2.0
    tensor = data.tensor()

    def family(child: int, parents) -> float:
        drop = tuple(ax for ax in range(p) if ax != child and ax not in parents)
        table = (tensor.sum(axis=drop) if drop else tensor).reshape(-1, sizes[child])
        log_lik = 0.0
        for row in table.tolist():
            total = sum(row)
            log_lik += sum(c * math.log(c / total) for c in row if c > 0)
        df = math.prod(sizes[j] for j in parents) * (sizes[child] - 1)
        return -2.0 * log_lik + df * unit

    parents = {i: set() for i in range(p)}
    current = {i: family(i, ()) for i in range(p)}
    while True:
        toggles = [(family(i, parents[i] ^ {j}) - current[i], i, j)
                   for i in range(p) for j in range(i) if j != sink]
        if not toggles:
            break
        low = min(delta for delta, _, _ in toggles)
        delta, i, j = next(t for t in toggles if t[0] <= low + tolerance)
        if not delta < -improvement:
            break
        parents[i] ^= {j}
        current[i] = family(i, parents[i])
    return {(j, i) for i in range(p) for j in parents[i]}


def d_separated_by_paths(dag, a, b, c) -> bool:
    """d-separation by enumerating every simple path and testing blocking."""
    a, b, c = set(a), set(b), set(c)
    if not a or not b:
        return True
    children: dict[int, set[int]] = {v: set() for v in range(dag.p)}
    neighbors: dict[int, set[int]] = {v: set() for v in range(dag.p)}
    for j, i in dag.edges:
        children[j].add(i)
        neighbors[j].add(i)
        neighbors[i].add(j)

    def descendants(v: int) -> set[int]:
        out, todo = {v}, [v]
        while todo:
            u = todo.pop()
            for w in children[u]:
                if w not in out:
                    out.add(w)
                    todo.append(w)
        return out

    def blocked(path: list[int]) -> bool:
        for k in range(1, len(path) - 1):
            prev, node, nxt = path[k - 1], path[k], path[k + 1]
            collider = node in children[prev] and node in children[nxt]
            if collider:
                if not (descendants(node) & c):
                    return True
            elif node in c:
                return True
        return False

    def paths(start: int, goal: int):
        stack = [[start]]
        while stack:
            path = stack.pop()
            if path[-1] == goal:
                yield path
                continue
            for w in sorted(neighbors[path[-1]]):
                if w not in path:
                    stack.append(path + [w])

    for s in sorted(a):
        for t in sorted(b):
            for path in paths(s, t):
                if not blocked(path):
                    return False
    return True


def column_merge_groups_by_full_walk(sizes, symbols) -> list[tuple]:
    """csbhc merge groups by reshaping at every tail, constant tails included.

    The walk rotates each tail j = len(sizes)-1 .. 0 to the fastest
    coordinate and reads every column of the (|X_j|, n/|X_j|) matrix; it
    never drops a coordinate, so a tail whose columns are all constant
    repeats the columns of every later reshape.  Returns the sorted distinct
    stage sets of size two or more.
    """
    groups = set()
    a = list(symbols)
    for m in reversed(list(sizes)):
        rows = [a[u::m] for u in range(m)]  # row u holds a[k*m + u], k = 0, 1, ...
        for column in zip(*rows):
            if len(set(column)) > 1:
                groups.add(tuple(sorted(set(column))))
        a = [sym for row in rows for sym in row]
    return sorted(groups)


def _context_of_column(axes, sizes, k) -> tuple:
    # assignment of `axes` (in their order, last fastest) numbered k, sorted by variable
    values = [0] * len(axes)
    for pos in range(len(axes) - 1, -1, -1):
        k, values[pos] = divmod(k, sizes[axes[pos]])
    return tuple(sorted(zip(axes, values)))


def classify_level_by_tuples(sizes, depth: int, symbols) -> dict:
    """Edge labels and evidence of one level by the tuple reshape walk.

    For tails j = depth-1 .. 0 the stage vector, kept with variable j
    fastest, is cut into an (m, n) matrix of Python tuples with one context
    per column; a tail whose columns are all constant is dropped (and has no
    edge), otherwise the rows are stacked for the next tail.  Returns
    {j: (label, column_counts, row_counts, total_distinct,
    context_witnesses, partial_witnesses)} for every edge (j, depth).
    """
    total = len(set(symbols))
    out = {}
    a = list(symbols)
    axes = list(range(depth))
    for j in reversed(range(depth)):
        m = sizes[j]
        rows = [tuple(a[u::m]) for u in range(m)]  # row u holds a[k*m + u]
        context = axes[:-1]
        columns = list(zip(*rows))
        col_counts = [len(set(col)) for col in columns]
        if max(col_counts) == 1:
            a, axes = list(rows[0]), context
            continue
        a, axes = [sym for row in rows for sym in row], [j] + context
        row_counts = [len(set(row)) for row in rows]
        context_witnesses, partial_witnesses = [], []
        for k, col in enumerate(columns):
            if col_counts[k] == 1:
                context_witnesses.append(_context_of_column(context, sizes, k))
                continue
            groups: dict = {}
            for level, sym in enumerate(col):
                groups.setdefault(sym, []).append(level)
            for g in groups.values():
                if 2 <= len(g) < m:
                    partial_witnesses.append((_context_of_column(context, sizes, k), tuple(g)))
        if min(col_counts) == m:
            label = "local" if sum(row_counts) != total else "total"
        elif min(col_counts) == 1:
            label = "context/partial" if any(1 < c < m for c in col_counts) else "context"
        else:
            label = "partial"
        out[j] = (label, tuple(col_counts), tuple(row_counts), total,
                  tuple(context_witnesses), tuple(partial_witnesses))
    return out


def dependence_subtree_by_configurations(tree, parents, target: int):
    """Dependence subtree of `target` over `parents` by walking every configuration.

    Each configuration of the target's predecessors hands its stage to the
    key of its parent values; a key meeting two stages means the staging
    depends on a non-parent, and ValueError is raised.  The subtree is
    saturated above the target, whose stages are read key by key in
    lexicographic order; the target's fitted distributions, if any, are
    carried over.
    """
    from stagetrees.core import SampleSpace, StagedTree

    space = tree.space
    sizes = space.level_counts
    symbols = tree.symbols_at(target)
    stage_of: dict = {}
    configs = itertools.product(*(range(sizes[ax]) for ax in range(target)))
    for pos, config in enumerate(configs):
        key = tuple(config[ax] for ax in parents)
        if stage_of.setdefault(key, symbols[pos]) != symbols[pos]:
            raise ValueError(f"staging of variable {target} depends on a non-parent")
    sub_space = SampleSpace(tuple(space.variables[ax] for ax in parents)
                            + (space.variables[target],))
    q = len(parents)
    last = tuple(stage_of[key] for key in
                 itertools.product(*(range(sizes[ax]) for ax in parents)))
    vectors = [tuple(range(math.prod(sizes[ax] for ax in parents[:d]))) for d in range(1, q)]
    if q:
        vectors.append(last)
    fitted = None
    if tree.fitted is not None and tree.fitted[target] is not None:
        source = tree.fitted[target]
        entry = {sym: source[sym] for sym in last} if q else {0: source[last[0]]}
        fitted = (None,) * q + (entry,)
    return StagedTree(sub_space, tuple(vectors), fitted)


def _order_pick(results):
    """(total, order, ...) of the lexicographically smallest order near the best.

    `results` lists every order in lexicographic order; near means within
    max(1e-9, 1e-12 * |best|) of the smallest total.
    """
    best = min(r[0] for r in results)
    return next(r for r in results if r[0] <= best + max(1e-9, 1e-12 * abs(best)))


def enumerate_orders_by_permutations(data, fixed_last=None, algo="bhc", cfg=None):
    """Best variable order by one whole search per permutation.

    Every permutation of the variables (`fixed_last`, a name, stays last) is
    searched from the algorithm's default start on the reordered data and
    scored by the trace's final score, or the start's score when no move is
    taken.  Returns (order as names, its tree) under the order tie rule.
    """
    import stagetrees as st
    cfg = cfg or st.SearchConfig()
    search = {"bhc": st.bhc, "hc": st.hc, "csbhc": st.csbhc}[algo]
    last = () if fixed_last is None else (data.space.index_of(fixed_last),)
    results = []
    for perm in itertools.permutations(i for i in range(data.space.p) if (i,) != last):
        order = perm + last
        reordered = data.reorder(order)
        tree, trace = search(st.default_start(algo, reordered.space), reordered, cfg)
        final = trace.final_score
        if final is None:
            report = st.score(tree, reordered)
            final = report.bic if cfg.score == "bic" else report.aic
        results.append((final, order, tree))
    _, order, tree = _order_pick(results)
    return tuple(data.space.names[i] for i in order), tree


def index_order_objective_by_permutations(data, fixed_last=None, algo="bhc", cfg=None):
    """Best order under the sum of index-order level terms, over every permutation.

    The term of variable v after the set S comes from a whole search on the
    counts marginalized onto S (in index order) followed by v, with only
    v's depth in scope (and only if `cfg.scope` holds it): -2 logL + stages
    * (levels - 1) * unit of that last level, tallied with plain dicts.
    Returns (order as names, its total) under the order tie rule.
    """
    import stagetrees as st
    cfg = cfg or st.SearchConfig()
    search = {"bhc": st.bhc, "hc": st.hc, "csbhc": st.csbhc}[algo]
    space = data.space
    n = sum(int(c) for c in data.counts)
    unit = math.log(n) if cfg.score == "bic" else 2.0
    tensor = data.tensor()
    terms = {}

    def term(preds: tuple, v: int) -> float:
        keep = preds + (v,)
        ranked = sorted(keep)
        drop = tuple(ax for ax in range(space.p) if ax not in keep)
        counts = (tensor.sum(axis=drop) if drop else tensor).transpose(
            [ranked.index(i) for i in keep])
        sub = st.Dataset(st.SampleSpace(tuple(space.variables[i] for i in keep)),
                         counts.reshape(-1))
        depth = len(preds)
        searched = depth >= 1 and (cfg.scope is None or depth in cfg.scope)
        sub_cfg = st.SearchConfig(cfg.score, cfg.max_iter, (depth,) if searched else ())
        tree, _ = search(st.default_start(algo, sub.space), sub, sub_cfg)
        groups: dict[int, dict[int, int]] = {}
        for idx, config in enumerate(sub.space.configurations()):
            prefix = 0
            for q in range(depth):
                prefix = prefix * sub.space.level_counts[q] + config[q]
            tally = groups.setdefault(tree.symbols_at(depth)[prefix], {})
            tally[config[depth]] = tally.get(config[depth], 0) + int(sub.counts[idx])
        log_lik = 0.0
        for tally in groups.values():
            total = sum(tally.values())
            log_lik += sum(c * math.log(c / total) for c in tally.values() if c > 0)
        return -2.0 * log_lik + len(groups) * (space.level_counts[v] - 1) * unit

    last = () if fixed_last is None else (space.index_of(fixed_last),)
    results = []
    for perm in itertools.permutations(i for i in range(space.p) if (i,) != last):
        order = perm + last
        total = 0.0
        for k, v in enumerate(order):
            key = (tuple(sorted(order[:k])), v)
            if key not in terms:
                terms[key] = term(*key)
            total += terms[key]
        results.append((total, order))
    total, order = _order_pick(results)
    return tuple(space.names[i] for i in order), total


# ---------------------------------------------------------------------------
# CSV ingest, one line at a time

def _parse_count_of_line(text: str, line: int) -> int:
    shown = text if len(text) <= 24 else text[:20] + "..."
    # ASCII digits only: `int` would also take a sign, `_` and other scripts' digits
    if not (text.isascii() and text.isdigit()):
        raise DataError("bad-count", f"line {line}: count {shown!r} is not made of the digits 0-9")
    # refused by length before `int`, whose digit limit would call it malformed
    if len(digits := text.lstrip("0")) > len(str(MAX_COUNT)):
        raise DataError("bad-count", f"line {line}: count {shown!r} has {len(digits)} "
                        f"digits, more than the {MAX_COUNT} supported")
    return int(digits or "0")


def read_csv_by_rows(path, header: bool = True, order=None, na_policy: str = "drop-row",
                     levels=None, count_column: str | None = None) -> Dataset:
    """`stagetrees.read_csv` as it read rows one line at a time.

    Every non-empty row is checked, stripped, parsed and tallied where it
    stands, so each error names the line being read; the package instead
    checks each distinct raw row once and must give the same `Dataset` and
    the same `DataError`s.
    """
    if na_policy not in ("drop-row", "error"):
        raise InvalidArgumentError(f"unknown na_policy {na_policy!r}")
    # configuration -> total count; insertion order is first appearance, and
    # count-0 rows keep their key so they still declare their levels
    tally: dict[tuple[str, ...], int] = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            first, names = _column_names(reader, header, path)
            column = {name: i for i, name in enumerate(names)}
            if count_column is not None and count_column not in column:
                raise DataError("unknown-variable", f"count column {count_column!r} not in {names}")
            if order is None:
                selected = [n for n in names if n != count_column]
            else:
                selected = list(order)
                if len(set(selected)) != len(selected):
                    raise DataError("unknown-variable", f"repeated names in order {selected}")
                for name in selected:
                    if name not in column:
                        raise DataError("unknown-variable", f"column {name!r} not in {names}")
                if count_column is not None and count_column in selected:
                    raise DataError("unknown-variable",
                                    f"count column {count_column!r} cannot also be a variable")
            if not selected:
                raise DataError("empty", "no variable columns selected")
            picks = [column[name] for name in selected]
            for row in reader if header else itertools.chain([first], reader):
                if not row:
                    continue
                if len(row) != len(names):
                    raise DataError("ragged", f"line {reader.line_num}: expected {len(names)} "
                                    f"fields, got {len(row)}")
                values = tuple(row[i].strip() for i in picks)
                count = 1 if count_column is None else _parse_count_of_line(
                    row[column[count_column]].strip(), reader.line_num)
                if not NA_TOKENS.isdisjoint(values):
                    if na_policy == "error":
                        raise DataError("missing", f"line {reader.line_num}: missing value")
                    continue
                tally[values] = tally.get(values, 0) + count
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise DataError("unreadable", f"cannot read {path}: {err}") from None
    total = sum(tally.values())
    if not total:
        raise DataError("empty", f"{path}: no complete observations")
    if total > MAX_COUNT:
        raise DataError("bad-count", f"{path}: the counts total {total}, more than the "
                        f"{MAX_COUNT} supported")

    levels = dict(levels or {})
    for name in levels:
        if name not in column:
            raise DataError("unknown-variable", f"levels given for unknown column {name!r}")
    variable_levels: list[tuple[str, ...]] = []
    for pos, name in enumerate(selected):
        observed = tuple(dict.fromkeys(values[pos] for values in tally))
        if name in levels:
            pinned = tuple(str(v) for v in levels[name])
            extra = sorted(set(observed) - set(pinned))
            if extra:
                raise DataError("unknown-level",
                                f"column {name!r}: values {extra} not among declared levels {list(pinned)}")
            observed = pinned
        if len(observed) < 2:
            raise DataError("degenerate", f"column {name!r} has fewer than two levels")
        variable_levels.append(observed)

    space = SampleSpace(tuple(zip(selected, variable_levels)))
    index = [{lvl: i for i, lvl in enumerate(lv)} for lv in variable_levels]
    return Dataset.from_config_counts(
        space, ((tuple(index[i][v] for i, v in enumerate(values)), count)
                for values, count in tally.items()))
