"""Seeded synthetic data for the benchmark.

Data are sampled from a random Bayesian network rather than drawn with
uniform counts: uniform counts make `bhc` join almost every pair of stages
and stop `hc` after a few moves, so the searches would do little of the
work a real data set asks of them.

Variables are named x1..xp and their levels "0", "1", ...; the same seed
always gives the same network, the same rows and the same file bytes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIRICHLET_ALPHA = 0.7
# Variable i takes min(i, PARENTS) parents.  The count is fixed rather than
# drawn so that every seed asks the searches for a similar amount of work;
# with a drawn count the cost of one job varied threefold between seeds.
PARENTS = 2


@dataclass(frozen=True)
class Network:
    """A Bayesian network over ordered variables; parents precede children."""

    levels: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]
    # cpts[i] has one row per parent configuration (lexicographic, last
    # parent fastest) and one column per level of variable i
    cpts: tuple[np.ndarray, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(len(self.levels)))


def random_network(rng: np.random.Generator, levels) -> Network:
    """Variable i takes min(i, PARENTS) parents drawn among its predecessors."""
    levels = tuple(int(k) for k in levels)
    chosen, cpts = [], []
    for i, k in enumerate(levels):
        pa = tuple(sorted(int(j) for j in rng.choice(i, size=min(i, PARENTS), replace=False)))
        rows = int(np.prod([levels[j] for j in pa], dtype=np.int64))
        chosen.append(pa)
        cpts.append(rng.dirichlet(np.full(k, DIRICHLET_ALPHA), size=rows))
    return Network(levels, tuple(chosen), tuple(cpts))


def sample_rows(rng: np.random.Generator, net: Network, n: int) -> np.ndarray:
    """n x p array of level indices by ancestral sampling."""
    rows = np.zeros((n, len(net.levels)), dtype=np.uint8)
    for i, k in enumerate(net.levels):
        config = np.zeros(n, dtype=np.int64)
        for j in net.parents[i]:
            config = config * net.levels[j] + rows[:, j]
        cdf = np.cumsum(net.cpts[i], axis=1)[config]
        u = rng.random(n)[:, None]
        rows[:, i] = np.minimum((u >= cdf).sum(axis=1), k - 1)
    return rows


def cell_probabilities(net: Network) -> np.ndarray:
    """Joint probability of every full configuration, lexicographic with the last variable fastest."""
    grid = np.indices(net.levels).reshape(len(net.levels), -1)
    probs = np.ones(grid.shape[1])
    for i, pa in enumerate(net.parents):
        config = np.zeros(grid.shape[1], dtype=np.int64)
        for j in pa:
            config = config * net.levels[j] + grid[j]
        probs *= net.cpts[i][config, grid[i]]
    return probs / probs.sum()


def cell_counts(rows: np.ndarray, levels) -> np.ndarray:
    """Counts per full configuration, lexicographic with the last variable fastest."""
    index = np.zeros(rows.shape[0], dtype=np.int64)
    for i, k in enumerate(levels):
        index = index * k + rows[:, i]
    return np.bincount(index, minlength=int(np.prod(levels, dtype=np.int64)))


def write_count_csv(path, names, levels, counts: np.ndarray) -> None:
    """One row per cell of the space, in lexicographic order, with a `count` column.

    Every cell is written, zero counts included, so each variable's levels
    first appear in the order 0, 1, ... and the reader indexes them as the
    generator does.
    """
    grid = np.indices(levels).reshape(len(levels), -1).T
    lines = [",".join(names) + ",count"]
    lines += [",".join(map(str, cell)) + f",{c}" for cell, c in zip(grid.tolist(), counts.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_rows_csv(path, names, rows: np.ndarray) -> None:
    """One row per observation; levels must be single digits."""
    if rows.size and rows.max() > 9:
        raise ValueError("write_rows_csv writes single-digit levels only")
    digits = rows.astype(np.uint8) + ord("0")
    body = np.full((rows.shape[0], 2 * rows.shape[1]), ord(","), dtype=np.uint8)
    body[:, 0::2] = digits
    body[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        fh.write(body.tobytes())


@dataclass(frozen=True)
class Sample:
    """Generated data for one job input: network, cell counts and, if drawn, the rows."""

    network: Network
    counts: np.ndarray
    rows: np.ndarray | None = None


def generate(seed, levels, n: int, rows: bool = False) -> Sample:
    """Sample a network and n observations from it.

    With `rows`, observations are drawn one by one (ancestral sampling) and
    kept; otherwise only their cell counts are drawn, from the multinomial
    with the network's joint distribution, which costs the same for any n.
    `seed` is an int or a sequence of ints.
    """
    rng = np.random.default_rng(seed)
    net = random_network(rng, levels)
    if not rows:
        return Sample(net, rng.multinomial(n, cell_probabilities(net)))
    drawn = sample_rows(rng, net, n)
    return Sample(net, cell_counts(drawn, net.levels), drawn)
