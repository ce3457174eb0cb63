from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as hs

import stagetrees as st
from stagetrees.conversion import _parent_stage_ids

# registry for the acceptance suite: criterion number -> one summary line
ACCEPTANCE_RESULTS: dict[int, str] = {}
ACCEPTANCE_EXPECTED: set[int] = set()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_EXPECTED:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_EXPECTED):
        line = ACCEPTANCE_RESULTS.get(num, "FAIL - did not complete")
        terminalreporter.write_line(f"criterion {num}: {line}")


# ---------------------------------------------------------------------------
# Titanic fixtures.  The 4 variables in order: Class (4), Gender (2),
# Survived (2), Age (2); 2201 passengers.

@pytest.fixture(scope="session")
def titanic() -> st.Dataset:
    return st.load_titanic()


@pytest.fixture(scope="session")
def titanic_dag() -> st.Dag:
    # Class -> each of Gender, Survived, Age; Gender -> Survived; Survived -> Age
    return st.Dag(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)}))


@pytest.fixture(scope="session")
def titanic_bn_tree(titanic_dag, titanic) -> st.StagedTree:
    return st.dag_to_staged_tree(titanic_dag, titanic.space)


@pytest.fixture(scope="session")
def titanic_generic_tree(titanic) -> st.StagedTree:
    """Hand-checked asymmetric staging of the Titanic tree, BIC 10440.39.

    Level 1 pools 1st with 2nd class; level 2 shows context-specific
    survival patterns; level 3 pools most age distributions.
    """
    return st.StagedTree(titanic.space, (
        (0, 0, 1, 2),
        (0, 1, 2, 3, 2, 0, 4, 3),
        (0, 1, 0, 0, 0, 2, 0, 3, 1, 3, 4, 4, 0, 0, 0, 0),
    ))


@pytest.fixture(scope="session")
def titanic_context_tree(titanic) -> st.StagedTree:
    """Hand-checked no-local staging of the Titanic tree, BIC 10479.9.

    Every level-3 stage is constant on whole context columns, so its
    labeled DAG uses only context/partial classes.
    """
    return st.StagedTree(titanic.space, (
        (0, 0, 1, 2),
        tuple(range(8)),
        (0, 0, 1, 0, 2, 3, 1, 1, 1, 1, 1, 1, 4, 4, 1, 4),
    ))


# ---------------------------------------------------------------------------
# small synthetic helpers

def space_of(*sizes: int) -> st.SampleSpace:
    return st.SampleSpace(tuple(
        (f"x{i}", tuple(str(v) for v in range(k))) for i, k in enumerate(sizes)))


@pytest.fixture(scope="session")
def binary_pair_space() -> st.SampleSpace:
    return st.SampleSpace((("a", ("0", "1")), ("b", ("0", "1"))))


def random_space(rng: np.random.Generator, p: int, max_levels: int = 3) -> st.SampleSpace:
    sizes = rng.integers(2, max_levels + 1, size=p)
    return st.SampleSpace(tuple(
        (f"x{i}", tuple(str(v) for v in range(sizes[i]))) for i in range(p)))


def random_dataset(rng: np.random.Generator, space: st.SampleSpace,
                   n: int) -> st.Dataset:
    cells = space.n_cells
    counts = np.bincount(rng.integers(0, cells, size=n), minlength=cells)
    return st.Dataset(space, counts.astype(np.int64))


def random_staging(rng: np.random.Generator, space: st.SampleSpace) -> st.StagedTree:
    vectors = []
    for d in range(1, space.p):
        cells = space.prefix_cells(d)
        n_stages = int(rng.integers(1, cells + 1))
        symbols = rng.integers(0, n_stages, size=cells)
        vectors.append(tuple(int(s) for s in symbols))
    return st.StagedTree(space, tuple(vectors))


def draw_level(draw, sizes) -> list[int]:
    """A Hypothesis-drawn stage vector over the configurations of `sizes`.

    Random symbols, the staging of a random parent set, or that staging
    with its stages pooled modulo a random count.
    """
    cells = math.prod(sizes)
    kind = draw.draw(hs.sampled_from(["random", "dag", "coarsened-dag"]))
    if kind == "random":
        return draw.draw(hs.lists(hs.integers(0, draw.draw(hs.integers(0, 5))),
                                  min_size=cells, max_size=cells))
    parents = draw.draw(hs.sets(hs.integers(0, len(sizes) - 1)))
    symbols = _parent_stage_ids(sizes, parents).tolist()
    if kind == "coarsened-dag":
        r = draw.draw(hs.integers(1, 4))
        symbols = [s % r for s in symbols]
    return symbols
