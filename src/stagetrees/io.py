"""File formats: CSV ingestion, JSON model documents, DOT rendering.

The JSON writers emit a canonical byte form (fixed key order, no
whitespace, floats at 17 significant digits) so that save -> load -> save
reproduces the file exactly.
"""
from __future__ import annotations

import csv
import importlib.resources
import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass

from .core import (
    Aldag,
    Dag,
    Dataset,
    DependenceLabel,
    InvalidArgumentError,
    SampleSpace,
    StagedTree,
)
from .learning import SearchTrace, TraceStep
from .scoring import ScoreReport

__all__ = [
    "DataError",
    "NA_TOKENS",
    "read_csv",
    "ModelDocument",
    "load_dag",
    "save_dag",
    "load_space",
    "save_space",
    "write_dot",
    "load_titanic",
]

NA_TOKENS = frozenset({"", "NA", "NaN", "nan", "?"})

FORMAT_VERSION = 1

LABEL_COLORS = {
    DependenceLabel.TOTAL: "black",
    DependenceLabel.CONTEXT: "red",
    DependenceLabel.PARTIAL: "blue",
    DependenceLabel.CONTEXT_PARTIAL: "violet",
    DependenceLabel.LOCAL: "green",
}

# light fills for stage coloring in tree drawings, reused cyclically
STAGE_PALETTE = (
    "#a6cee3", "#fdbf6f", "#b2df8a", "#fb9a99", "#cab2d6",
    "#ffff99", "#1f78b4", "#ff7f00", "#33a02c", "#e31a1c",
)


class DataError(Exception):
    """A problem with input data; `code` is a stable machine-readable tag."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# CSV

def _parse_count(text: str, line: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise DataError("bad-count", f"line {line}: count {text!r} is not an integer") from None
    if value < 0:
        raise DataError("bad-count", f"line {line}: negative count {value}")
    return value


def _column_names(reader, header: bool, path) -> tuple[list[str], list[str]]:
    """The first non-empty row and the column names it gives."""
    first = next((row for row in reader if row), None)
    if first is None:
        raise DataError("empty", f"{path} contains no rows")
    names = [c.strip() for c in first] if header else [f"v{i}" for i in range(len(first))]
    if len(set(names)) != len(names):
        raise DataError("unknown-variable", f"duplicate column names in {path}")
    return first, names


def _csv_columns(path, header: bool = True) -> list[str]:
    """Column names of a CSV file, read from its first row alone."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return _column_names(csv.reader(fh), header, path)[1]
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise DataError("unreadable", f"cannot read {path}: {err}") from None


def read_csv(path, header: bool = True, order=None, na_policy: str = "drop-row",
             levels=None, count_column: str | None = None) -> Dataset:
    """Read categorical observations (or weighted configurations) into counts.

    One pass tallies distinct configurations, so memory grows with their
    number, not with the rows; errors name physical lines of the file.

    Parameters
    ----------
    path : file path.
    header : first row holds column names; otherwise columns are named
        v0, v1, ...
    order : optional sequence of distinct column names selecting the
        variables and their order; defaults to all non-count columns in file
        order.
    na_policy : "drop-row" silently removes rows containing a missing token
        (one of NA_TOKENS); "error" raises instead.
    levels : optional mapping of column name to its ordered level names;
        unlisted columns get their observed values in first-appearance
        order.
    count_column : optional column holding a nonnegative integer
        multiplicity per row; such a column is never treated as a variable.
    """
    if na_policy not in ("drop-row", "error"):
        raise InvalidArgumentError(f"unknown na_policy {na_policy!r}")
    # configuration -> total count; insertion order is first appearance, and
    # count-0 rows keep their key so they still declare their levels
    tally: dict[tuple[str, ...], int] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
                count = 1 if count_column is None else _parse_count(
                    row[column[count_column]].strip(), reader.line_num)
                if not NA_TOKENS.isdisjoint(values):
                    if na_policy == "error":
                        raise DataError("missing", f"line {reader.line_num}: missing value")
                    continue
                tally[values] = tally.get(values, 0) + count
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise DataError("unreadable", f"cannot read {path}: {err}") from None
    if not sum(tally.values()):
        raise DataError("empty", f"{path}: no complete observations")

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


# ---------------------------------------------------------------------------
# canonical JSON

def _float_token(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise InvalidArgumentError("cannot serialize non-finite numbers")
    return "%.17g" % x


def _dump(obj) -> str:
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float_token(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dump(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _dump(v) for k, v in obj.items()) + "}"
    raise InvalidArgumentError(f"cannot serialize {type(obj).__name__}")


def _atomic_write(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _finite(token: str) -> float:
    """A JSON number token as a float; NaN, Infinity and overflowing tokens are refused."""
    value = float(token)
    if not math.isfinite(value):
        raise InvalidArgumentError(f"non-finite number {token} in document")
    return value


def _int(value) -> int:
    """A field that must be a JSON integer: bools, floats and strings are refused."""
    if type(value) is not int:
        raise InvalidArgumentError(f"expected an integer, got {value!r}")
    return value


def _real(value) -> float:
    """A field that must be a JSON number: bools and strings are refused."""
    if type(value) not in (int, float):
        raise InvalidArgumentError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidArgumentError(f"number {value} out of range") from None


def _array(value) -> list:
    """A field that must be a JSON array."""
    if type(value) is not list:
        raise InvalidArgumentError(f"expected an array, got {value!r}")
    return value


def _parse_document(text: str) -> dict:
    """Decode a JSON document of finite numbers and check its format version."""
    try:
        doc = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as err:
        raise InvalidArgumentError(f"not valid JSON: {err}") from None
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise InvalidArgumentError("unsupported or missing format_version")
    return doc


def _read_document(path, what: str) -> dict:
    """Read a versioned JSON document; every failure is an InvalidArgumentError."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise InvalidArgumentError(f"cannot read {what} {path}: {err}") from None
    return _parse_document(text)


def _space_json(space: SampleSpace) -> list:
    return [{"name": name, "levels": list(lv)} for name, lv in space.variables]


def _space_from_json(payload) -> SampleSpace:
    try:
        return SampleSpace(tuple((v["name"], tuple(_array(v["levels"]))) for v in payload))
    except (TypeError, KeyError) as err:
        raise InvalidArgumentError(f"malformed variables section: {err}") from None


def _score_json(report: ScoreReport) -> dict:
    """The score record of model documents and of the CLI's stdout."""
    return {"log_likelihood": float(report.log_likelihood), "df": int(report.df),
            "bic": float(report.bic), "aic": float(report.aic), "n": int(report.n)}


# ---------------------------------------------------------------------------
# model documents

@dataclass(frozen=True)
class ModelDocument:
    """A staged tree plus optional classification, score and search trace.

    A StagedTree accepts any hashable stage labels and stores canonical ids
    (0, 1, ... per level in first-occurrence order), so trees with the same
    partition are equal and serialize to the same bytes.
    """

    tree: StagedTree
    aldag: Aldag | None = None
    score: ScoreReport | None = None
    trace: SearchTrace | None = None

    def __post_init__(self) -> None:
        if self.aldag is not None and self.aldag.dag.p != self.tree.p:
            raise InvalidArgumentError("labeled DAG and tree have different dimension")

    def to_json(self) -> str:
        tree = self.tree
        doc: dict = {
            "format_version": FORMAT_VERSION,
            "variables": _space_json(tree.space),
            "stage_vectors": [list(symbols) for symbols in tree.stage_vectors],
        }
        if tree.fitted is None:
            doc["fitted"] = None
        else:
            out = []
            for d, entry in enumerate(tree.fitted):
                if entry is None:
                    out.append(None)
                else:
                    out.append([list(entry[s]) for s in range(len(entry))])
            doc["fitted"] = out
        if self.aldag is None:
            doc["aldag"] = None
        else:
            doc["aldag"] = {"edges": [[j, i, self.aldag.labels[(j, i)].value]
                                      for j, i in self.aldag.dag.sorted_edges]}
        doc["score"] = None if self.score is None else _score_json(self.score)
        if self.trace is None:
            doc["trace"] = None
        else:
            doc["trace"] = [{
                "level": step.level,
                "kind": step.kind,
                "stages": [int(s) for s in step.stages],
                "score_before": float(step.score_before),
                "score_after": float(step.score_after),
            } for step in self.trace.steps]
        return _dump(doc) + "\n"

    def save(self, path) -> None:
        _atomic_write(path, self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "ModelDocument":
        return cls._from_document(_parse_document(text))

    @classmethod
    def load(cls, path) -> "ModelDocument":
        return cls._from_document(_read_document(path, "model"))

    @classmethod
    def _from_document(cls, doc: dict) -> "ModelDocument":
        try:
            space = _space_from_json(doc["variables"])
            vectors = [[_int(s) for s in symbols] for symbols in doc["stage_vectors"]]
            fitted = None
            if doc.get("fitted") is not None:
                entries = []
                for level in doc["fitted"]:
                    if level is None:
                        entries.append(None)
                    else:
                        entries.append({s: tuple(_real(x) for x in dist)
                                        for s, dist in enumerate(level)})
                fitted = tuple(entries)
            tree = StagedTree(space, vectors, fitted)
            aldag = None
            if doc.get("aldag") is not None:
                labels = {(_int(j), _int(i)): DependenceLabel(label)
                          for j, i, label in doc["aldag"]["edges"]}
                aldag = Aldag(Dag(space.p, frozenset(labels)), labels)
            report = None
            if doc.get("score") is not None:
                s = doc["score"]
                report = ScoreReport(_real(s["log_likelihood"]), _int(s["df"]),
                                     _real(s["bic"]), _real(s["aic"]), _int(s["n"]))
            trace = None
            if doc.get("trace") is not None:
                trace = SearchTrace(tuple(
                    TraceStep(_int(t["level"]), str(t["kind"]),
                              tuple(_int(s) for s in t["stages"]),
                              _real(t["score_before"]), _real(t["score_after"]))
                    for t in doc["trace"]))
        except (TypeError, KeyError, ValueError) as err:
            if isinstance(err, InvalidArgumentError):
                raise
            raise InvalidArgumentError(f"malformed model document: {err}") from None
        return cls(tree, aldag, report, trace)


# ---------------------------------------------------------------------------
# DAGs and spaces as JSON

def save_dag(dag: Dag, path, names=None) -> None:
    doc = {"format_version": FORMAT_VERSION, "p": dag.p}
    if names is not None:
        names = list(names)
        if len(names) != dag.p:
            raise InvalidArgumentError("wrong number of variable names")
        doc["variables"] = names
    doc["edges"] = [list(e) for e in dag.sorted_edges]
    _atomic_write(path, _dump(doc) + "\n")


def load_dag(path):
    """Load a DAG document; returns (Dag, names or None)."""
    doc = _read_document(path, "DAG")
    try:
        dag = Dag(_int(doc["p"]), frozenset((_int(j), _int(i)) for j, i in doc["edges"]))
        names = doc.get("variables")
        if names is not None:
            names = [str(x) for x in _array(names)]
            if len(names) != dag.p:
                raise InvalidArgumentError("wrong number of variable names")
    except (TypeError, KeyError, ValueError) as err:
        if isinstance(err, InvalidArgumentError):
            raise
        raise InvalidArgumentError(f"malformed DAG document: {err}") from None
    return dag, names


def save_space(space: SampleSpace, path) -> None:
    _atomic_write(path, _dump({"format_version": FORMAT_VERSION,
                               "variables": _space_json(space)}) + "\n")


def load_space(path) -> SampleSpace:
    return _space_from_json(_read_document(path, "space").get("variables", []))


# ---------------------------------------------------------------------------
# DOT

def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _aldag_dot(aldag: Aldag, names) -> str:
    if names is None:
        names = [f"x{i + 1}" for i in range(aldag.dag.p)]
    names = list(names)
    if len(names) != aldag.dag.p:
        raise InvalidArgumentError("wrong number of variable names")
    lines = ["digraph aldag {", "  rankdir=LR;", "  node [shape=ellipse];"]
    for name in names:
        lines.append(f"  {_dot_quote(name)};")
    for j, i in aldag.dag.sorted_edges:
        label = aldag.labels[(j, i)]
        lines.append(f"  {_dot_quote(names[j])} -> {_dot_quote(names[i])}"
                     f" [color={LABEL_COLORS[label]} label={_dot_quote(label.value)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tree_dot(tree: StagedTree) -> str:
    space = tree.space
    lines = ["digraph staged_tree {", "  rankdir=LR;",
             "  node [shape=circle style=filled fixedsize=true width=0.45];"]
    for d in range(space.p):
        symbols = tree.symbols_at(d)
        for idx in range(space.prefix_cells(d)):
            sym = symbols[idx]
            fill = STAGE_PALETTE[int(sym) % len(STAGE_PALETTE)]
            node = f"v{d}_{idx}"
            lines.append(f"  {node} [fillcolor={_dot_quote(fill)} label={_dot_quote(str(sym))}];")
    for d in range(space.p - 1):
        k = space.level_counts[d]
        for idx in range(space.prefix_cells(d)):
            for x in range(k):
                child = idx * k + x
                lines.append(f"  v{d}_{idx} -> v{d + 1}_{child}"
                             f" [label={_dot_quote(space.levels_of(d)[x])}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_dot(obj, path, names=None) -> None:
    """Render a labeled DAG or a staged tree to Graphviz DOT.

    Edge colors for labeled DAGs: total black, context red, partial blue,
    context/partial violet, local green.  Tree vertices are filled by stage
    (palette reused cyclically) and labeled with their stage id; leaf
    vertices are omitted.  `names` labels the variables of a labeled DAG
    (default x1, x2, ...); a tree drawing shows no variable names, so passing
    them with a tree is an error.
    """
    if isinstance(obj, Aldag):
        text = _aldag_dot(obj, names)
    elif isinstance(obj, StagedTree):
        if names is not None:
            raise InvalidArgumentError("a staged tree drawing takes no variable names")
        text = _tree_dot(obj)
    else:
        raise InvalidArgumentError(f"cannot render {type(obj).__name__} as DOT")
    _atomic_write(path, text)


# ---------------------------------------------------------------------------
# bundled data

def load_titanic() -> Dataset:
    """Survival data for the 2201 people aboard the Titanic.

    Variables in order: Class (1st, 2nd, 3rd, Crew), Gender (Male, Female),
    Survived (No, Yes), Age (Child, Adult).
    """
    ref = importlib.resources.files("stagetrees").joinpath("data/titanic.csv")
    with importlib.resources.as_file(ref) as path:
        return read_csv(
            path,
            count_column="count",
            levels={
                "Class": ("1st", "2nd", "3rd", "Crew"),
                "Gender": ("Male", "Female"),
                "Survived": ("No", "Yes"),
                "Age": ("Child", "Adult"),
            },
        )
