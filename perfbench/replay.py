"""Traced replay of the `learn` and `refine` subcommands.

A replay makes the same public calls, in the same order, as the CLI
subcommand it mirrors, and times each call as a span.  Its document must be
byte-identical to the CLI's; the runner checks that, so the spans describe
the program the untraced run measured.  `refine_dag` is replayed as its three
steps (DAG to tree, search, tree to ALDAG) so that each layer shows.
"""
from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

from stagetrees import (
    ModelDocument,
    SearchConfig,
    dag_to_staged_tree,
    default_start,
    enumerate_orders,
    fit,
    learn_dag,
    read_csv,
    score,
    staged_tree_to_aldag,
)
from stagetrees.cli import _census_json, _score_json, build_parser
from stagetrees.learning import _SEARCHES


class Tracer:
    """Spans of one run, kept in memory until the run writes them out."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job: int):
        record = {"id": len(self.spans), "name": name, "job": job,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def call(self, name: str, job: int, fn, *args, **kwargs):
        with self.span(name, job):
            return fn(*args, **kwargs)


def replay(argv, tracer: Tracer, job: int):
    """Run one `learn` or `refine` argv as traced public calls.

    Returns (stdout text, facts) where facts holds the counts the per-layer
    metrics need.  The benchmark never passes --seed, --order or --dag, so
    the replay does not model them.
    """
    facts: dict = {}
    t = tracer
    with t.span("cli.job", job):
        args = build_parser().parse_args(list(argv))
        data = t.call("io.read_csv", job, read_csv, args.data, header=not args.no_header,
                      count_column=args.count_column)
        facts["dataset"] = data
        cfg = SearchConfig()
        if args.command == "learn":
            trace = None
            if args.enumerate_orders:
                order, tree = t.call("learning.enumerate_orders", job, enumerate_orders, data,
                                     fixed_last=args.fix_last, algo=args.algo, cfg=cfg)
                data = t.call("core.reorder", job, data.reorder, order)
                free = data.space.p - (args.fix_last is not None)
                facts["orders"] = math.factorial(free)
            else:
                start = t.call("core.default_start", job, default_start, args.algo, data.space)
                tree, trace = t.call("learning.search", job, _SEARCHES[args.algo],
                                     start, data, cfg)
                facts["moves"] = len(trace.steps)
            report = t.call("scoring.score", job, score, tree, data)
            aldag, _ = t.call("conversion.aldag", job, staged_tree_to_aldag, tree)
            doc = ModelDocument(t.call("scoring.fit", job, fit, tree, data), aldag, report, trace)
            t.call("io.save", job, doc.save, args.out)
            out = {"order": list(data.space.names), "score": _score_json(report),
                   "aldag_census": _census_json(aldag)}
        elif args.command == "refine":
            dag = t.call("learning.learn_dag", job, learn_dag, data, cfg)
            facts["dag_edges"] = len(dag.edges)
            start = t.call("conversion.dag_to_tree", job, dag_to_staged_tree, dag, data.space)
            tree, search_trace = t.call("learning.search", job, _SEARCHES[args.algo],
                                        start, data, cfg)
            facts["moves"] = len(search_trace.steps)
            aldag, _ = t.call("conversion.aldag", job, staged_tree_to_aldag, tree)
            report = t.call("scoring.score", job, score, tree, data)
            doc = ModelDocument(t.call("scoring.fit", job, fit, tree, data), aldag, report, None)
            t.call("io.save", job, doc.save, args.out)
            out = {"dag_edges": [list(e) for e in dag.sorted_edges],
                   "score": _score_json(report), "aldag_census": _census_json(aldag)}
        else:
            raise ValueError(f"no replay for subcommand {args.command!r}")
        facts["stages_final"] = sum(tree.stage_count(d) for d in range(tree.p))
        facts["edges_labeled"] = len(aldag.labels)
    return json.dumps(out) + "\n", facts
