"""Fitting and scoring of staged trees on contingency counts.

Conventions, validated against the bundled Titanic numbers: maximum
likelihood with 0*ln(0) = 0, degrees of freedom counting every stage
(including zero-count ones), BIC = -2*logL + df*ln(n) and
AIC = -2*logL + 2*df, lower is better for both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Dataset,
    InvalidArgumentError,
    StagedTree,
    UnfittedModelError,
    lex_index,
)

__all__ = ["FitConfig", "ScoreReport", "fit", "joint_probability",
           "degrees_of_freedom", "score"]


@dataclass(frozen=True)
class FitConfig:
    """Smoothing for stage distributions.

    smoothing : additive count added to every cell (0 = pure MLE; a stage
        that was never observed then falls back to the uniform distribution).
        A finite Python or numpy real, stored as float; a bool, a string or
        a NaN or infinite value is refused with InvalidArgumentError.
    """

    smoothing: float = 0.0

    def __post_init__(self) -> None:
        value = self.smoothing
        if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
                or not math.isfinite(value)):
            raise InvalidArgumentError(f"smoothing must be a finite real number, got {value!r}")
        object.__setattr__(self, "smoothing", float(value))
        if self.smoothing < 0:
            raise InvalidArgumentError("smoothing must be nonnegative")


@dataclass(frozen=True)
class ScoreReport:
    log_likelihood: float
    df: int
    bic: float
    aic: float
    n: int


def _loglik(counts: np.ndarray, smoothing: float = 0.0) -> np.ndarray:
    """Log-likelihood sum(c * ln(prob)) of each count vector along the last axis.

    prob is the fitted stage distribution (c + smoothing) / (total +
    smoothing * K); with zero smoothing this is the maximized multinomial
    log-likelihood sum(c * ln(c / total)).  Zero counts contribute nothing,
    and each row's nonzero terms are summed exactly as numpy sums them on
    their own, so a row's value does not depend on the array it sits in.
    """
    k = counts.shape[-1]
    total = counts.sum(axis=-1, keepdims=True)
    nonzero = counts > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(nonzero, counts * np.log((counts + smoothing)
                                                  / (total + smoothing * k)), 0.0)
    if k < 8:
        return terms.sum(axis=-1)
    # numpy sums eight or more values pairwise, so zeros between the terms
    # would regroup the additions: pack each row's nonzero terms first
    flat, keep = terms.reshape(-1, k), nonzero.reshape(-1, k)
    packed = np.take_along_axis(flat, np.argsort(~keep, axis=1, kind="stable"), axis=1)
    width = keep.sum(axis=1)
    out = np.zeros(len(flat))
    for m in np.unique(width):
        rows = width == m
        out[rows] = packed[rows, :m].sum(axis=1)
    return out.reshape(terms.shape[:-1])


def _stage_counts(table: np.ndarray, stage_ids, n_stages: int) -> np.ndarray:
    """S x K matrix of stage counts: row s sums the level-table rows of stage s."""
    counts = np.zeros((n_stages, table.shape[1]))
    np.add.at(counts, np.asarray(stage_ids), table)
    return counts


def _level_counts(tree: StagedTree, data: Dataset, depth: int) -> np.ndarray:
    """Count matrix of the stages at a depth; row s belongs to stage id s."""
    return _stage_counts(data.level_table(depth), tree.symbols_at(depth),
                         tree.stage_count(depth))


def _check_fit_inputs(tree: StagedTree, data: Dataset) -> None:
    if tree.space != data.space:
        raise InvalidArgumentError("tree and dataset use different sample spaces")
    if data.n < 1:
        raise InvalidArgumentError("cannot fit on an empty dataset")


def fit(tree: StagedTree, data: Dataset, cfg: FitConfig = FitConfig()) -> StagedTree:
    """Attach stage-conditional distributions estimated from the counts.

    Each stage's distribution is (count + smoothing) / (total + smoothing*K);
    with zero smoothing a stage that was never observed falls back to the
    uniform distribution.
    """
    _check_fit_inputs(tree, data)
    lam = cfg.smoothing
    fitted = []
    for d in range(tree.p):
        k = tree.space.level_counts[d]
        counts = _level_counts(tree, data, d)
        total = counts.sum(axis=1, keepdims=True) + lam * k
        with np.errstate(divide="ignore", invalid="ignore"):
            dists = np.where(total == 0, 1.0 / k, (counts + lam) / total)
        fitted.append(dict(enumerate(map(tuple, dists.tolist()))))
    return replace(tree, fitted=tuple(fitted))


def joint_probability(tree: StagedTree, x) -> float:
    """Probability of one full configuration under the fitted tree.

    `x` is a tuple of level indices for every variable.  The result is the
    product of the fitted conditionals along the root-to-leaf path.
    """
    if not tree.is_fitted:
        raise UnfittedModelError("joint_probability needs a fully fitted tree")
    if len(x) != tree.p:
        raise InvalidArgumentError(f"configuration must have length {tree.p}")
    prob = 1.0
    for d in range(tree.p):
        sym = tree.symbols_at(d)[lex_index(tree.space, x[:d])]
        prob *= tree.fitted[d][sym][x[d]]
    return prob


def degrees_of_freedom(tree: StagedTree) -> int:
    """Free parameters: per depth, (number of stages) * (levels - 1).

    The root counts as one stage; stages are counted whether or not any
    observation reaches them.
    """
    return sum(tree.stage_count(d) * (tree.space.level_counts[d] - 1)
               for d in range(tree.p))


def score(tree: StagedTree, data: Dataset, cfg: FitConfig = FitConfig()) -> ScoreReport:
    """Fit the tree and report log-likelihood, df, BIC and AIC.

    The log-likelihood sums count * ln(fitted probability) level by level,
    which telescopes to sum_x count(x) * ln(joint_probability(x)).
    """
    _check_fit_inputs(tree, data)
    log_lik = 0.0
    for d in range(tree.p):
        counts = _level_counts(tree, data, d)
        for stage_loglik in _loglik(counts, cfg.smoothing).tolist():
            log_lik += stage_loglik
    df = degrees_of_freedom(tree)
    n = data.n
    return ScoreReport(
        log_likelihood=log_lik,
        df=df,
        bic=-2.0 * log_lik + df * math.log(n),
        aic=-2.0 * log_lik + 2.0 * df,
        n=n,
    )
