"""Command-line interface.

Exit codes: 0 success, 2 usage error, 3 data error, 4 model error.
Errors are printed to stderr as one JSON object with "error" and "code"
fields; results and artifacts go to stdout and the requested output paths.
"""
from __future__ import annotations

import argparse
import json
import sys

from .conversion import d_separated, dag_to_staged_tree, dependence_subtree, staged_tree_to_aldag
from .core import Dataset, InvalidArgumentError, LABEL_ORDER, _index
from .io import (DataError, ModelDocument, _csv_columns, _score_json, load_dag, load_space,
                 read_csv, write_dot)
from .learning import (SearchConfig, default_start, enumerate_orders, learn_dag, refine_dag,
                       _JOIN_SEARCHES, _SEARCHES)
from .scoring import fit, score

__all__ = ["main"]


def _emit(obj) -> None:
    print(json.dumps(obj))


def _read_data(args, **kwargs) -> Dataset:
    return read_csv(args.data, header=not args.no_header,
                    count_column=args.count_column, **kwargs)


def _data_flags(sub) -> None:
    sub.add_argument("--data", required=True, help="CSV file of observations")
    sub.add_argument("--count-column", default=None,
                     help="column holding a multiplicity per row")
    sub.add_argument("--no-header", action="store_true",
                     help="CSV has no header row; columns become v0, v1, ...")


def _census_json(aldag) -> dict:
    return {lab.value: c for lab, c in zip(LABEL_ORDER, aldag.census())}


def _resolve_vertex(token: str, p: int, names) -> int:
    if names is not None and token in names:
        return names.index(token)
    try:
        i = int(token)
    except ValueError:
        raise InvalidArgumentError(f"unknown variable {token!r}") from None
    return _index(i, p, "vertex")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_learn(args) -> int:
    data = _read_data(args, order=args.order)
    cfg = SearchConfig()
    if args.enumerate_orders:
        if args.fix_last is not None and args.fix_last not in data.space.names:
            raise DataError("unknown-variable",
                            f"--fix-last {args.fix_last!r} not in {list(data.space.names)}")
        order, tree = enumerate_orders(data, fixed_last=args.fix_last, algo=args.algo, cfg=cfg)
        data = data.reorder(order)
        trace = None
    else:
        if args.fix_last is not None:
            raise InvalidArgumentError("--fix-last requires --enumerate-orders")
        tree, trace = _SEARCHES[args.algo](default_start(args.algo, data.space), data, cfg)
    report = score(tree, data)
    aldag, _ = staged_tree_to_aldag(tree)
    doc = ModelDocument(fit(tree, data), aldag, report, trace)
    doc.save(args.out)
    _emit({"order": list(data.space.names), "score": _score_json(report),
           "aldag_census": _census_json(aldag)})
    return 0


def _cmd_refine(args) -> int:
    cfg = SearchConfig()
    if args.dag is None:
        data = _read_data(args)
        dag = learn_dag(data, cfg)
    else:
        dag, names = load_dag(args.dag)
        data = _read_data(args, order=names)
    tree, aldag = refine_dag(dag, data, args.algo, cfg)
    report = score(tree, data)
    doc = ModelDocument(fit(tree, data), aldag, report, None)
    doc.save(args.out)
    _emit({"dag_edges": [list(e) for e in dag.sorted_edges],
           "score": _score_json(report), "aldag_census": _census_json(aldag)})
    return 0


def _cmd_aldag(args) -> int:
    doc = ModelDocument.load(args.model)
    aldag, _ = staged_tree_to_aldag(doc.tree)
    ModelDocument(doc.tree, aldag, doc.score, doc.trace).save(args.out)
    if args.dot:
        write_dot(aldag, args.dot, names=doc.tree.space.names)
    _emit({"edges": [[j, i, aldag.labels[(j, i)].value]
                     for j, i in aldag.dag.sorted_edges],
           "census": _census_json(aldag)})
    return 0


def _cmd_dsep(args) -> int:
    dag, names = load_dag(args.dag)
    a = frozenset(_resolve_vertex(t, dag.p, names) for t in args.a)
    b = frozenset(_resolve_vertex(t, dag.p, names) for t in args.b)
    c = frozenset(_resolve_vertex(t, dag.p, names) for t in (args.c or []))
    print("true" if d_separated(dag, a, b, c) else "false")
    return 0


def _cmd_subtree(args) -> int:
    doc = ModelDocument.load(args.model)
    if args.aldag is not None:
        other = ModelDocument.load(args.aldag)
        if other.aldag is None:
            raise InvalidArgumentError(f"{args.aldag} carries no labeled DAG")
        aldag = other.aldag
    else:
        aldag, _ = staged_tree_to_aldag(doc.tree)
    target = _resolve_vertex(args.target, doc.tree.p, doc.tree.space.names)
    sub = dependence_subtree(doc.tree, aldag, target)
    ModelDocument(sub).save(args.out)
    if args.dot:
        write_dot(sub, args.dot)
    _emit({"variables": list(sub.space.names)})
    return 0


def _cmd_score(args) -> int:
    doc = ModelDocument.load(args.model)
    space = doc.tree.space
    # a file with none of the model's variables holds another sample space
    if set(space.names).isdisjoint(_csv_columns(args.data, header=not args.no_header)):
        raise InvalidArgumentError("tree and dataset use different sample spaces")
    data = _read_data(args, order=space.names, levels=dict(space.variables))
    report = score(doc.tree, data)
    _emit(_score_json(report))
    return 0


def _cmd_convert(args) -> int:
    dag, names = load_dag(args.dag)
    space = load_space(args.space)
    if names is not None and tuple(names) != space.names:
        raise InvalidArgumentError("DAG and space disagree on variable names")
    tree = dag_to_staged_tree(dag, space)
    ModelDocument(tree).save(args.out)
    _emit({"stages_per_level": [tree.stage_count(d) for d in range(1, tree.p)]})
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagetrees",
        description="Staged-tree models: learning, DAG refinement, dependence labeling.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("learn", help="learn a staged tree from data")
    _data_flags(p)
    p.add_argument("--algo", choices=tuple(_SEARCHES), default="bhc")
    p.add_argument("--order", nargs="+", default=None, help="variable order to use")
    p.add_argument("--fix-last", default=None,
                   help="with --enumerate-orders, pin this variable last")
    p.add_argument("--enumerate-orders", action="store_true",
                   help="search for the best variable order (with --algo csbhc, "
                        "the order found can score worse than the best)")
    p.add_argument("--out", required=True, help="model document to write")
    p.set_defaults(func=_cmd_learn)

    p = subs.add_parser("refine", help="refine a DAG into a labeled DAG via its staged tree")
    _data_flags(p)
    p.add_argument("--dag", default=None,
                   help="DAG document; learned from the data when omitted")
    p.add_argument("--algo", choices=_JOIN_SEARCHES, default="bhc")
    p.add_argument("--out", required=True, help="model document to write")
    p.set_defaults(func=_cmd_refine)

    p = subs.add_parser("aldag", help="classify the dependence of every edge")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dot", default=None, help="also write a DOT rendering")
    p.set_defaults(func=_cmd_aldag)

    p = subs.add_parser("dsep", help="test d-separation in a DAG")
    p.add_argument("--dag", required=True)
    p.add_argument("--a", nargs="+", required=True)
    p.add_argument("--b", nargs="+", required=True)
    p.add_argument("--c", nargs="*", default=[])
    p.set_defaults(func=_cmd_dsep)

    p = subs.add_parser("subtree", help="extract the dependence subtree of one variable")
    p.add_argument("--model", required=True)
    p.add_argument("--aldag", default=None,
                   help="model document carrying the labeled DAG; computed when omitted")
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dot", default=None)
    p.set_defaults(func=_cmd_subtree)

    p = subs.add_parser("score", help="score a model against data")
    p.add_argument("--model", required=True)
    _data_flags(p)
    p.set_defaults(func=_cmd_score)

    p = subs.add_parser("convert", help="expand a DAG into its staged tree")
    p.add_argument("--dag", required=True)
    p.add_argument("--space", required=True, help="sample space document")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except DataError as err:
        print(json.dumps({"error": str(err), "code": err.code, "kind": "data"}),
              file=sys.stderr)
        return 3
    except OSError as err:
        print(json.dumps({"error": str(err), "code": "unwritable", "kind": "data"}),
              file=sys.stderr)
        return 3
    except (ValueError, RuntimeError) as err:
        print(json.dumps({"error": str(err), "code": type(err).__name__, "kind": "model"}),
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
