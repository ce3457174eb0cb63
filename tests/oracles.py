"""Independent reference implementations used only by the tests.

Each function here recomputes a quantity the package produces by a
different algorithm, from first principles and with different data
structures, so agreement is meaningful.
"""
from __future__ import annotations

import itertools
import math


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
