"""Output checks for benchmark jobs, independent of the code paths they check.

Each check returns a list of problems; an empty list means the job passed.
Reference values come from the generator's own counts and from brute-force
routines (`joint_probability`, `classify_edge_oracle`), never from the
search or scoring code that produced the document.
"""
from __future__ import annotations

import json
import math

import numpy as np

from stagetrees import InvalidArgumentError, ModelDocument, classify_edge_oracle, joint_probability

# the trace accumulates one float delta per move, so its end may drift from
# a fresh tally by rounding; a wrong score is off by far more
REL_TOL = 1e-8


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


def _cell_map(space, sample):
    """For each variable of `space`, its generator column and a level lookup."""
    column = {name: i for i, name in enumerate(sample.network.names)}
    cols = [column[name] for name in space.names]
    lookup = [{int(name): idx for idx, name in enumerate(space.levels_of(d))}
              for d in range(space.p)]
    return cols, lookup


def brute_force_bic(tree, sample) -> float:
    """-2 * sum count * ln joint_probability + df * ln n over every observed cell."""
    cols, lookup = _cell_map(tree.space, sample)
    cells = np.nonzero(sample.counts)[0]
    configs = np.array(np.unravel_index(cells, sample.network.levels)).T
    log_lik = 0.0
    for config, c in zip(configs.tolist(), sample.counts[cells].tolist()):
        x = tuple(lookup[d][config[col]] for d, col in enumerate(cols))
        log_lik += c * math.log(joint_probability(tree, x))
    df = sum(len(set(tree.symbols_at(d))) * (k - 1)
             for d, k in enumerate(tree.space.level_counts))
    return -2.0 * log_lik + df * math.log(int(sample.counts.sum()))


def reference_bic(sample) -> float:
    """BIC of the generating network's DAG on the sample's counts.

    A quality reference for the learned models: it depends on the data,
    not on any search.
    """
    levels = sample.network.levels
    tensor = sample.counts.reshape(levels).astype(np.float64)
    n = tensor.sum()
    log_lik, df = 0.0, 0
    for i, pa in enumerate(sample.network.parents):
        drop = tuple(ax for ax in range(len(levels)) if ax != i and ax not in pa)
        family = tensor.sum(axis=drop).reshape(-1, levels[i])
        totals = np.broadcast_to(family.sum(axis=1, keepdims=True), family.shape)
        seen = family > 0
        log_lik += float((family[seen] * np.log(family[seen] / totals[seen])).sum())
        df += family.shape[0] * (levels[i] - 1)
    return -2.0 * log_lik + df * math.log(n)


def check_counts(dataset, sample) -> list[str]:
    """The ingested Dataset holds exactly np.bincount of the generated rows."""
    cols, lookup = _cell_map(dataset.space, sample)
    index = np.zeros(sample.rows.shape[0], dtype=np.int64)
    for d, col in enumerate(cols):
        seen = np.unique(sample.rows[:, col]).tolist()
        if any(v not in lookup[d] for v in seen):
            return [f"ingested levels of {dataset.space.names[d]} miss generated values {seen}"]
        # a level the sample never drew is unknown to the reader and maps nowhere
        lut = np.array([lookup[d].get(v, 0) for v in range(sample.network.levels[col])])
        index = index * dataset.space.level_counts[d] + lut[sample.rows[:, col]]
    expected = np.bincount(index, minlength=dataset.space.n_cells)
    if not np.array_equal(dataset.counts, expected):
        return ["ingested counts differ from a bincount of the generated rows"]
    return []


def check_model(doc_path, stdout: str, sample) -> list[str]:
    """Check one learn/refine job from its document and its stdout line."""
    try:
        doc = ModelDocument.load(doc_path)
    except (ValueError, OSError) as err:
        return [f"document does not reload: {err}"]
    try:
        printed = json.loads(stdout)
        bic = float(printed["score"]["bic"])
    except (ValueError, KeyError, TypeError) as err:
        return [f"stdout is not the expected JSON: {err}"]
    problems = []
    expected = brute_force_bic(doc.tree, sample)
    if doc.score is None or not (_close(bic, expected) and _close(doc.score.bic, expected)):
        problems.append(f"reported BIC {bic!r} differs from the brute-force tally {expected!r}")
    if doc.trace is not None and doc.trace.steps:
        steps = doc.trace.steps
        scores = [steps[0].score_before] + [s.score_after for s in steps]
        if any(b >= a for a, b in zip(scores, scores[1:])):
            problems.append("trace scores do not strictly descend")
        if not _close(scores[-1], bic):
            problems.append(f"trace ends at {scores[-1]!r}, not at the reported BIC {bic!r}")
    if doc.aldag is None:
        problems.append("document carries no labeled DAG")
        return problems
    tree = doc.tree
    for i in range(1, tree.p):
        for j in range(i):
            try:
                want = classify_edge_oracle(tree, j, i)
            except InvalidArgumentError:
                want = None
            got = doc.aldag.labels.get((j, i))
            if got != want:
                problems.append(f"edge ({j}, {i}) labeled {got}, oracle says {want}")
    if "dag_edges" in printed:
        dag = {tuple(e) for e in printed["dag_edges"]}
        extra = sorted(set(doc.aldag.labels) - dag)
        if extra:
            problems.append(f"labeled edges {extra} are not edges of the refined DAG")
    return problems
