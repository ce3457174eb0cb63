"""File formats: CSV ingestion, JSON model documents, DOT rendering.

The JSON writers emit a canonical byte form (fixed key order, no
whitespace, floats in Python's shortest round-trip spelling) so that
save -> load -> save reproduces the file exactly.
"""
from __future__ import annotations

import collections
import csv
import importlib.resources
import itertools
import json
import math
import os
from dataclasses import dataclass

from .core import (
    Aldag,
    Dag,
    Dataset,
    DependenceLabel,
    InvalidArgumentError,
    MAX_COUNT,
    SampleSpace,
    StagedTree,
    UnsupportedSizeError,
    _integer,
    _real,
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

_CHUNK = 2**14  # raw rows tallied at a time; bounds the memory a unique unselected column costs

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

def _parse_count(text: str) -> int:
    shown = text if len(text) <= 24 else text[:20] + "..."
    # ASCII digits only: `int` would also take a sign, `_` and other scripts' digits
    if not (text.isascii() and text.isdigit()):
        raise DataError("bad-count", f"count {shown!r} is not made of the digits 0-9")
    # refused by length before `int`, whose digit limit would call it malformed
    if len(digits := text.lstrip("0")) > len(str(MAX_COUNT)):
        raise DataError("bad-count", f"count {shown!r} has {len(digits)} "
                        f"digits, more than the {MAX_COUNT} supported")
    return int(digits or "0")


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
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return _column_names(csv.reader(fh), header, path)[1]
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise DataError("unreadable", f"cannot read {path}: {err}") from None


def _tally_rows(tally: dict, rows, width: int, picks, count_at, na_policy: str):
    """Count equal raw `rows` a chunk at a time and add each distinct one to `tally`,
    checked once, in first-appearance order. Returns the first bad row and its DataError,
    which names no line, else (None, None); a read error waits for the rows before it."""
    while True:
        chunk, held = collections.Counter(), None
        try:
            chunk.update(itertools.islice(rows, _CHUNK))
        except (UnicodeDecodeError, csv.Error) as err:
            held = err
        for raw, repeats in chunk.items():
            try:
                if len(raw) != width:
                    raise DataError("ragged", f"expected {width} fields, got {len(raw)}")
                values = tuple(raw[i].strip() for i in picks)
                count = 1 if count_at is None else _parse_count(raw[count_at].strip())
                if not NA_TOKENS.isdisjoint(values):
                    if na_policy == "error":
                        raise DataError("missing", "missing value")
                    continue
            except DataError as err:
                return raw, err
            tally[values] = tally.get(values, 0) + count * repeats
        if held is not None:
            raise held
        if not chunk:
            return None, None


def read_csv(path, header: bool = True, order=None, na_policy: str = "drop-row",
             levels=None, count_column: str | None = None) -> Dataset:
    """Read categorical observations (or weighted configurations) into counts.

    Equal raw rows are tallied first, so each distinct one is checked once;
    memory grows with the distinct configurations, not with the rows, and
    errors name physical lines of the file.

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
    levels : optional mapping of variable name to its ordered level names;
        unlisted variables get their observed values in first-appearance
        order.
    count_column : optional column holding a nonnegative integer
        multiplicity per row; such a column is never treated as a variable.
    """
    if na_policy not in ("drop-row", "error"):
        raise InvalidArgumentError(f"unknown na_policy {na_policy!r}")
    levels = dict(levels or {})
    if isinstance(order, str) or any(isinstance(lv, str) for lv in levels.values()):
        raise InvalidArgumentError("order and each list of levels must be sequences, not strings")
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
            rows = map(tuple, filter(None, reader if header else itertools.chain([first], reader)))
            raw, err = _tally_rows(tally, rows, len(names), picks, column.get(count_column),
                                   na_policy)
            if err is not None:
                fh.seek(0)
                reader = csv.reader(fh)
                rows = itertools.islice(filter(None, reader), header, None)
                line = next(reader.line_num for row in rows if tuple(row) == raw)
                raise DataError(err.code, f"line {line}: {err}")
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise DataError("unreadable", f"cannot read {path}: {err}") from None
    total = sum(tally.values())
    if not total:
        raise DataError("empty", f"{path}: no complete observations")
    if total > MAX_COUNT:
        raise DataError("bad-count", f"{path}: the counts total {total}, more than the "
                        f"{MAX_COUNT} supported")

    for name in levels:
        if name not in selected:
            raise DataError("unknown-variable", f"levels given for {name!r}, not one of {selected}")
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
# JSON documents

def _atomic_write(path, text: str) -> None:
    # os.open applies the umask to 0o666 as open(path, "w") does; mkstemp's
    # 0o600 would carry over to the written file
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _encode(body: dict) -> str:
    """A document's canonical text: the format version first, then `body`'s fields."""
    try:
        return json.dumps({"format_version": FORMAT_VERSION, **body},
                          separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError:
        raise InvalidArgumentError("cannot serialize non-finite numbers") from None


def _decode(text: str, what: str, build):
    """Parse a document, check its format version and `build` the object it holds.

    The one error boundary of the loaders: InvalidArgumentError and
    UnsupportedSizeError pass through, and any other failure of a field
    lookup or conversion is an InvalidArgumentError naming the document kind.
    """
    try:
        doc = json.loads(text, parse_float=_finite, parse_constant=_finite)
        version = doc.get("format_version") if type(doc) is dict else None
        if type(version) is not int or version != FORMAT_VERSION:
            raise InvalidArgumentError("unsupported or missing format_version")
        return build(doc)
    except (InvalidArgumentError, UnsupportedSizeError):
        raise
    except (TypeError, KeyError, ValueError) as err:
        raise InvalidArgumentError(f"malformed {what} document: {err}") from None


def _load(path, what: str, build):
    """`_decode` the document in a file; an unreadable file is an InvalidArgumentError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise InvalidArgumentError(f"cannot read {what} {path}: {err}") from None
    return _decode(text, what, build)


def _finite(token: str) -> float:
    """A JSON number token as a float; NaN, Infinity and overflowing tokens are refused."""
    value = float(token)
    if not math.isfinite(value):
        raise InvalidArgumentError(f"non-finite number {token} in document")
    return value


def _str(value) -> str:
    """A field that must be a JSON string: numbers, bools and null are refused."""
    if type(value) is not str:
        raise InvalidArgumentError(f"expected a string, got {value!r}")
    return value


def _array(value) -> list:
    """A field that must be a JSON array."""
    if type(value) is not list:
        raise InvalidArgumentError(f"expected an array, got {value!r}")
    return value


def _space_json(space: SampleSpace) -> list:
    return [{"name": name, "levels": list(lv)} for name, lv in space.variables]


def _space_from_json(payload) -> SampleSpace:
    return SampleSpace(tuple((_str(v["name"]), tuple(map(_str, _array(v["levels"]))))
                             for v in payload))


def _score_json(report: ScoreReport) -> dict:
    """The score record of model documents and of the CLI's stdout."""
    return {"log_likelihood": float(report.log_likelihood), "df": _integer(report.df, "df"),
            "bic": float(report.bic), "aic": float(report.aic), "n": _integer(report.n, "n")}


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
        tree, aldag, trace = self.tree, self.aldag, self.trace
        return _encode({
            "variables": _space_json(tree.space),
            "stage_vectors": [list(symbols) for symbols in tree.stage_vectors],
            "fitted": None if tree.fitted is None else [
                None if entry is None else [list(entry[s]) for s in range(len(entry))]
                for entry in tree.fitted],
            "aldag": None if aldag is None else {"edges": [
                [j, i, aldag.labels[(j, i)].value] for j, i in aldag.dag.sorted_edges]},
            "score": None if self.score is None else _score_json(self.score),
            "trace": None if trace is None else [{
                "level": step.level,
                "kind": step.kind,
                "stages": list(step.stages),
                "score_before": step.score_before,
                "score_after": step.score_after,
            } for step in trace.steps],
        })

    def save(self, path) -> None:
        _atomic_write(path, self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "ModelDocument":
        return _decode(text, "model", cls._from_document)

    @classmethod
    def load(cls, path) -> "ModelDocument":
        return _load(path, "model", cls._from_document)

    @classmethod
    def _from_document(cls, doc: dict) -> "ModelDocument":
        space = _space_from_json(doc["variables"])
        # a StagedTree takes any hashable stage label, so the document's ids are checked here
        vectors = [[_integer(s, "a stage id") for s in symbols] for symbols in doc["stage_vectors"]]
        fitted = None
        if doc.get("fitted") is not None:
            fitted = tuple(None if level is None else dict(enumerate(level))
                           for level in doc["fitted"])
        tree = StagedTree(space, vectors, fitted)
        aldag = None
        if doc.get("aldag") is not None:
            edges = doc["aldag"]["edges"]
            aldag = Aldag(space.p, {(j, i): label for j, i, label in edges})
            _listed_once(edges, aldag.dag)
        report = None
        if doc.get("score") is not None:
            s = doc["score"]
            report = ScoreReport(_real(s["log_likelihood"], "log_likelihood"),
                                 _integer(s["df"], "df"), _real(s["bic"], "bic"),
                                 _real(s["aic"], "aic"), _integer(s["n"], "n"))
        trace = None
        if doc.get("trace") is not None:
            trace = SearchTrace(tuple(
                TraceStep(t["level"], t["kind"], t["stages"], t["score_before"], t["score_after"])
                for t in doc["trace"]))
        return cls(tree, aldag, report, trace)


# ---------------------------------------------------------------------------
# DAGs and spaces as JSON

def _names(names, p: int) -> list[str]:
    """One string per variable, checked before anything is written."""
    names = [_str(x) for x in names]
    if len(names) != p:
        raise InvalidArgumentError("wrong number of variable names")
    return names


def save_dag(dag: Dag, path, names=None) -> None:
    doc: dict = {"p": dag.p}
    if names is not None:
        doc["variables"] = _names(names, dag.p)
    doc["edges"] = [list(e) for e in dag.sorted_edges]
    _atomic_write(path, _encode(doc))


def _listed_once(edges: list, dag: Dag) -> None:
    """A document lists each edge once: a repeat would be merged, and its label lost."""
    if len(edges) != len(dag.edges):
        raise InvalidArgumentError("an edge is listed twice")


def _dag_from_json(doc: dict):
    dag = Dag(doc["p"], doc["edges"])
    _listed_once(doc["edges"], dag)
    names = doc.get("variables")
    return dag, None if names is None else _names(_array(names), dag.p)


def load_dag(path):
    """Load a DAG document; returns (Dag, names or None)."""
    return _load(path, "DAG", _dag_from_json)


def save_space(space: SampleSpace, path) -> None:
    _atomic_write(path, _encode({"variables": _space_json(space)}))


def load_space(path) -> SampleSpace:
    return _load(path, "space", lambda doc: _space_from_json(doc["variables"]))


# ---------------------------------------------------------------------------
# DOT

def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _aldag_dot(aldag: Aldag, names) -> str:
    names = [f"x{i + 1}" for i in range(aldag.p)] if names is None else _names(names, aldag.p)
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
