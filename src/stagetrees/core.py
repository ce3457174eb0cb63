"""Core types for staged tree models over finite categorical sample spaces.

A staged tree over variables X_1, ..., X_p is stored as one stage vector per
depth 1..p-1: a plain sequence of the stage symbols of all depth-i vertices,
indexed lexicographically over the value combinations of the first i
variables with the *last* coordinate varying fastest.  A vector's position
in the tree is its depth.  The root (depth 0) is always a single implicit
stage and is never stored; where a symbol for it is needed (fitted
distributions) it is the integer 0.

A staging is a partition of each level's vertices, so stage labels carry no
meaning of their own.  A StagedTree accepts any hashable labels and stores
canonical ids: each level relabeled 0, 1, ... in first-occurrence order by
:func:`canonical_symbols`.  Trees with the same partition compare equal.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Hashable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "InvalidArgumentError",
    "UnfittedModelError",
    "UnsupportedSizeError",
    "SampleSpace",
    "StagedTree",
    "Dag",
    "DependenceLabel",
    "LABEL_ORDER",
    "Aldag",
    "Dataset",
    "lex_index",
    "lex_unindex",
    "canonical_symbols",
    "staging_refines",
]

PROB_TOL = 1e-9

# largest sample space accepted: counts, level tables and saturated stage
# vectors are dense over the cells, and 2**24 cells is 128 MB of int64 counts
MAX_CELLS = 1 << 24


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class UnfittedModelError(RuntimeError):
    """An operation needing fitted distributions was called on an unfitted tree."""


class UnsupportedSizeError(ValueError):
    """A size guard was exceeded."""


# ---------------------------------------------------------------------------
# sample space and lexicographic indexing


@dataclass(frozen=True)
class SampleSpace:
    """Ordered categorical variables with ordered levels.

    Parameters
    ----------
    variables : sequence of (name, levels)
        Variable names must be unique; level names unique within a variable;
        every variable needs at least two levels (a one-level variable is
        constant and rejected).  The product of the level counts may not
        exceed MAX_CELLS (UnsupportedSizeError).
    """

    variables: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        norm = tuple((str(name), tuple(str(l) for l in levels))
                     for name, levels in self.variables)
        object.__setattr__(self, "variables", norm)
        names = [name for name, _ in norm]
        if not names:
            raise InvalidArgumentError("a sample space needs at least one variable")
        if len(set(names)) != len(names):
            raise InvalidArgumentError("duplicate variable names")
        for name, levels in norm:
            if len(levels) < 2:
                raise InvalidArgumentError(f"variable {name!r} has fewer than two levels")
            if len(set(levels)) != len(levels):
                raise InvalidArgumentError(f"duplicate levels for variable {name!r}")
        if self.n_cells > MAX_CELLS:
            raise UnsupportedSizeError(
                f"the sample space has {self.n_cells} cells, more than the "
                f"{MAX_CELLS} supported")

    @property
    def p(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    @property
    def level_counts(self) -> tuple[int, ...]:
        return tuple(len(levels) for _, levels in self.variables)

    @property
    def n_cells(self) -> int:
        return self.prefix_cells(self.p)

    def prefix_cells(self, length: int) -> int:
        """Number of value combinations of the first `length` variables."""
        return math.prod(self.level_counts[:length])

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InvalidArgumentError(f"unknown variable {name!r}") from None

    def levels_of(self, i: int) -> tuple[str, ...]:
        return self.variables[i][1]

    def configurations(self, length: int | None = None):
        """Iterate level-index tuples of the given prefix length (default p), last coordinate fastest."""
        length = self.p if length is None else length
        return itertools.product(*(range(k) for k in self.level_counts[:length]))

    def reorder(self, order: Sequence[int]) -> "SampleSpace":
        if sorted(order) != list(range(self.p)):
            raise InvalidArgumentError("order must be a permutation of the variables")
        return SampleSpace(tuple(self.variables[i] for i in order))


def lex_index(space: SampleSpace, prefix: Sequence[int]) -> int:
    """Position of a prefix configuration, last coordinate fastest.

    The inverse is :func:`lex_unindex`.
    """
    if len(prefix) > space.p:
        raise InvalidArgumentError("prefix longer than the variable list")
    sizes = space.level_counts
    idx = 0
    for j, x in enumerate(prefix):
        if not 0 <= x < sizes[j]:
            raise InvalidArgumentError(
                f"level index {x} out of range for variable {space.names[j]!r}")
        idx = idx * sizes[j] + x
    return idx


def lex_unindex(space: SampleSpace, index: int, length: int) -> tuple[int, ...]:
    """Prefix configuration of the given length at `index`."""
    if not 0 <= length <= space.p:
        raise InvalidArgumentError("invalid prefix length")
    if not 0 <= index < space.prefix_cells(length):
        raise InvalidArgumentError("index out of range")
    sizes = space.level_counts
    out = [0] * length
    for j in range(length - 1, -1, -1):
        index, out[j] = divmod(index, sizes[j])
    return tuple(out)


def canonical_symbols(symbols: Iterable[Hashable]) -> tuple[int, ...]:
    """Relabel symbols as 0, 1, ... in first-occurrence order."""
    seen: dict[Hashable, int] = {}
    return tuple(seen.setdefault(s, len(seen)) for s in symbols)


# ---------------------------------------------------------------------------
# staged trees


# fitted: one entry per depth 0..p-1; entry d maps each stage symbol at depth d
# (the root is symbol 0) to a distribution over variable d's levels
Fitted = tuple  # tuple[Mapping[Hashable, tuple[float, ...]] | None, ...]


@dataclass(frozen=True)
class StagedTree:
    """An X-compatible staged tree: stage vectors plus optional fitted distributions.

    Parameters
    ----------
    space : SampleSpace
    stage_vectors : sequence of label sequences
        One plain sequence of stage labels per depth 1..p-1, in order (the
        position is the depth).  The depth-d stages determine the conditional
        distribution of variable d given the first d variables.  Labels may
        be any hashable values; the tree stores a tuple of canonical ids per
        depth.
    fitted : optional
        Per-depth mapping stage symbol -> probability vector over variable
        d's levels, keyed by the labels passed in `stage_vectors` and stored
        under the canonical ids; entry 0 holds the root distribution under
        symbol 0.  Individual depths may be None (partially fitted tree).
    """

    space: SampleSpace
    stage_vectors: tuple[tuple[int, ...], ...]
    fitted: Fitted | None = None

    def __post_init__(self) -> None:
        vectors = tuple(tuple(v) for v in self.stage_vectors)
        if len(vectors) != self.space.p - 1:
            raise InvalidArgumentError(
                f"expected {self.space.p - 1} stage vectors, got {len(vectors)}")
        for d, symbols in enumerate(vectors, start=1):
            want = self.space.prefix_cells(d)
            if len(symbols) != want:
                raise InvalidArgumentError(
                    f"depth {d} stage vector has length {len(symbols)}, expected {want}")
        canonical = tuple(canonical_symbols(symbols) for symbols in vectors)
        object.__setattr__(self, "stage_vectors", canonical)
        if self.fitted is not None:
            entries = tuple(self.fitted)
            if len(entries) != self.space.p:
                raise InvalidArgumentError("fitted needs one entry per depth 0..p-1")
            fitted = []
            for d, entry in enumerate(entries):
                if entry is None:
                    fitted.append(None)
                    continue
                # the caller's labels -> canonical ids; the root is always 0
                relabel = {0: 0} if d == 0 else dict(zip(vectors[d - 1], canonical[d - 1]))
                if set(entry) != set(relabel):
                    raise InvalidArgumentError(f"fitted stages at depth {d} do not match the staging")
                k = self.space.level_counts[d]
                rekeyed = {}
                for sym, dist in entry.items():
                    dist = tuple(float(x) for x in dist)
                    if len(dist) != k:
                        raise InvalidArgumentError(
                            f"distribution for stage {sym!r} at depth {d} has length {len(dist)}")
                    # written so that NaN, which fails every comparison, fails both checks
                    if not all(-PROB_TOL <= x <= 1 + PROB_TOL for x in dist):
                        raise InvalidArgumentError("probabilities must lie in [0, 1]")
                    if not abs(sum(dist) - 1.0) <= PROB_TOL:
                        raise InvalidArgumentError(
                            f"distribution for stage {sym!r} at depth {d} does not sum to 1")
                    rekeyed[relabel[sym]] = dist
                fitted.append(rekeyed)
            object.__setattr__(self, "fitted", tuple(fitted))

    # -- constructors ------------------------------------------------------

    @classmethod
    def saturated(cls, space: SampleSpace) -> "StagedTree":
        """Every vertex its own stage (no independence claims)."""
        return cls(space, tuple(tuple(range(space.prefix_cells(d)))
                                for d in range(1, space.p)))

    @classmethod
    def one_stage(cls, space: SampleSpace) -> "StagedTree":
        """One stage per level: the full independence model."""
        return cls(space, tuple((0,) * space.prefix_cells(d) for d in range(1, space.p)))

    # -- access ------------------------------------------------------------

    @property
    def p(self) -> int:
        return self.space.p

    def symbols_at(self, depth: int) -> tuple[int, ...]:
        """Stage symbols at a depth; depth 0 is the implicit root stage (0,)."""
        if depth == 0:
            return (0,)
        return self.stage_vectors[depth - 1]

    def stage_count(self, depth: int) -> int:
        """Number of stages at a depth: the canonical ids are 0..count-1."""
        return max(self.symbols_at(depth)) + 1

    def distributions_at(self, depth: int) -> Mapping[Hashable, tuple[float, ...]]:
        if self.fitted is None or self.fitted[depth] is None:
            raise UnfittedModelError(f"no fitted distributions at depth {depth}")
        return self.fitted[depth]

    @property
    def is_fitted(self) -> bool:
        return self.fitted is not None and all(entry is not None for entry in self.fitted)

    def replace_level(self, depth: int, symbols: Sequence[Hashable]) -> "StagedTree":
        """Copy with one stage vector replaced; fitted distributions are dropped."""
        if not 1 <= depth < self.p:
            raise InvalidArgumentError(f"stage vectors exist for depths 1..{self.p - 1} only")
        vectors = list(self.stage_vectors)
        vectors[depth - 1] = symbols
        return StagedTree(self.space, tuple(vectors))


def staging_refines(fine: StagedTree, coarse: StagedTree) -> bool:
    """Whether every stage of `fine` sits inside a single stage of `coarse`.

    Equivalently the model of `coarse` is contained in the model of `fine`:
    at every depth, equal symbols in `fine` imply equal symbols in `coarse`.
    """
    if fine.space != coarse.space:
        raise InvalidArgumentError("stagings live on different sample spaces")
    for d in range(1, fine.p):
        image: dict[Hashable, Hashable] = {}
        for fs, cs in zip(fine.symbols_at(d), coarse.symbols_at(d)):
            if image.setdefault(fs, cs) != cs:
                return False
    return True


# ---------------------------------------------------------------------------
# DAGs and ALDAGs


@dataclass(frozen=True)
class Dag:
    """DAG over variable indices 0..p-1; edges (j, i) require j < i.

    The variable order is the topological order by construction, so
    acyclicity never needs checking.
    """

    p: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        edges = frozenset((int(j), int(i)) for j, i in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.p < 1:
            raise InvalidArgumentError("p must be positive")
        for j, i in edges:
            if not 0 <= j < i < self.p:
                raise InvalidArgumentError(f"edge ({j}, {i}) violates 0 <= tail < head < p")

    @classmethod
    def empty(cls, p: int) -> "Dag":
        return cls(p, frozenset())

    @classmethod
    def complete(cls, p: int) -> "Dag":
        return cls(p, frozenset((j, i) for i in range(p) for j in range(i)))

    @property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def parents(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(j for j, h in self.edges if h == i))


class DependenceLabel(str, Enum):
    """Dependence class of an ALDAG edge."""

    TOTAL = "total"
    CONTEXT = "context"
    PARTIAL = "partial"
    CONTEXT_PARTIAL = "context/partial"
    LOCAL = "local"

    def __str__(self) -> str:
        return self.value


LABEL_ORDER = (
    DependenceLabel.TOTAL,
    DependenceLabel.CONTEXT,
    DependenceLabel.PARTIAL,
    DependenceLabel.CONTEXT_PARTIAL,
    DependenceLabel.LOCAL,
)


@dataclass(frozen=True)
class Aldag:
    """A DAG with a dependence label on every edge."""

    dag: Dag
    labels: Mapping[tuple[int, int], DependenceLabel]

    def __post_init__(self) -> None:
        labels = {(int(j), int(i)): DependenceLabel(v) for (j, i), v in self.labels.items()}
        object.__setattr__(self, "labels", labels)
        if set(labels) != set(self.dag.edges):
            raise InvalidArgumentError("labels must cover exactly the DAG edges")

    def census(self) -> tuple[int, int, int, int, int]:
        """Edge counts ordered (total, context, partial, context/partial, local)."""
        values = list(self.labels.values())
        return tuple(values.count(lab) for lab in LABEL_ORDER)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True, eq=False)
class Dataset:
    """Contingency counts over a sample space, lexicographically indexed."""

    space: SampleSpace
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64).reshape(-1).copy()
        if counts.shape[0] != self.space.n_cells:
            raise InvalidArgumentError(
                f"expected {self.space.n_cells} cells, got {counts.shape[0]}")
        if (counts < 0).any():
            raise InvalidArgumentError("negative counts")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "_tables", {})

    @classmethod
    def from_config_counts(cls, space: SampleSpace,
                           items: Iterable[tuple[Sequence[int], int]]) -> "Dataset":
        counts = np.zeros(space.n_cells, dtype=np.int64)
        for config, c in items:
            counts[lex_index(space, config)] += c
        return cls(space, counts)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.space == other.space and bool(np.array_equal(self.counts, other.counts))

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def tensor(self) -> np.ndarray:
        return self.counts.reshape(self.space.level_counts)

    def level_table(self, depth: int) -> np.ndarray:
        """Counts indexed (prefix of the first `depth` variables, variable depth).

        Row r is the lexicographic prefix r; column v the level of variable
        `depth`.  Cached; the returned array is read-only.
        """
        cache = self._tables  # type: ignore[attr-defined]
        if depth not in cache:
            t = self.tensor()
            if depth + 1 < self.space.p:
                t = t.sum(axis=tuple(range(depth + 1, self.space.p)))
            table = np.ascontiguousarray(
                t.reshape(self.space.prefix_cells(depth), self.space.level_counts[depth]),
                dtype=np.float64)
            table.flags.writeable = False
            cache[depth] = table
        return cache[depth]

    def reorder(self, order: Sequence[int | str]) -> "Dataset":
        """Dataset over the permuted variable order."""
        idx = [self.space.index_of(v) if isinstance(v, str) else int(v) for v in order]
        space = self.space.reorder(idx)
        counts = np.transpose(self.tensor(), idx).reshape(-1)
        return Dataset(space, counts)
