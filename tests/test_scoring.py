from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import stagetrees as st
from stagetrees.scoring import _loglik

from conftest import random_space, random_staging, random_dataset, space_of
from oracles import bic_by_hand


class TestFit:
    def test_single_observation_point_mass_and_fallback(self):
        space = space_of(2, 2)
        data = st.Dataset.from_config_counts(space, [((1, 0), 1)])
        fitted = st.fit(st.StagedTree.saturated(space), data)
        assert fitted.fitted[0][0] == (0.0, 1.0)          # root: all mass on x0=1
        assert fitted.fitted[1][1] == (1.0, 0.0)          # visited stage: point mass
        assert fitted.fitted[1][0] == (0.5, 0.5)          # unvisited stage: uniform

    def test_one_stage_gives_marginals(self, titanic):
        fitted = st.fit(st.StagedTree.one_stage(titanic.space), titanic)
        marginal = titanic.tensor().sum(axis=(0, 1, 3)) / titanic.n
        got = fitted.fitted[2][0]
        assert got == pytest.approx(tuple(marginal), abs=1e-12)

    def test_pooled_first_class_nonsurvivor_age(self, titanic, titanic_bn_tree):
        # the depth-3 stage pooling (1st, Male, No) with (1st, Female, No):
        # no children among 1st-class non-survivors, so Age is surely Adult
        symbols = titanic_bn_tree.symbols_at(3)
        assert symbols[0] == symbols[2]
        fitted = st.fit(titanic_bn_tree, titanic)
        assert fitted.fitted[3][symbols[0]] == (0.0, 1.0)

    def test_smoothing_keeps_probabilities_positive(self):
        space = space_of(2, 2)
        data = st.Dataset.from_config_counts(space, [((1, 0), 5)])
        fitted = st.fit(st.StagedTree.saturated(space), data,
                        st.FitConfig(smoothing=1.0))
        for depth in range(2):
            for dist in fitted.fitted[depth].values():
                assert all(x > 0 for x in dist)

    def test_space_mismatch_rejected(self, titanic):
        other = st.StagedTree.saturated(space_of(2, 2))
        with pytest.raises(st.InvalidArgumentError):
            st.fit(other, titanic)


class TestJointProbability:
    def test_single_variable_tree(self):
        space = space_of(3)
        data = st.Dataset(space, np.array([1, 2, 1]))
        fitted = st.fit(st.StagedTree.saturated(space), data)
        assert st.joint_probability(fitted, (1,)) == pytest.approx(0.5)

    def test_independence_model_is_product_of_marginals(self, titanic):
        fitted = st.fit(st.StagedTree.one_stage(titanic.space), titanic)
        t = titanic.tensor()
        config = (2, 0, 1, 1)
        expected = 1.0
        for axis, level in enumerate(config):
            other = tuple(ax for ax in range(4) if ax != axis)
            expected *= t.sum(axis=other)[level] / titanic.n
        assert st.joint_probability(fitted, config) == pytest.approx(expected)

    def test_sums_to_one(self, titanic, titanic_generic_tree):
        fitted = st.fit(titanic_generic_tree, titanic)
        total = sum(st.joint_probability(fitted, config)
                    for config in titanic.space.configurations())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_unfitted_rejected(self, titanic_bn_tree):
        with pytest.raises(st.UnfittedModelError):
            st.joint_probability(titanic_bn_tree, (0, 0, 0, 0))

    def test_configuration_of_wrong_length_rejected(self, titanic, titanic_bn_tree):
        with pytest.raises(st.InvalidArgumentError, match="length 4"):
            st.joint_probability(st.fit(titanic_bn_tree, titanic), (0, 0, 0))

    @pytest.mark.parametrize("config,match", [
        ((0, 0, 0, -1), "-1 out of range"), ((0, 0, 0, 5), "5 out of range"),
        ((0, 0, 0, True), "must be an integer"), ((0.0, 0, 0, 1), "must be an integer"),
    ], ids=["negative-last", "too-large-last", "bool-last", "float-first"])
    def test_each_coordinate_checked(self, titanic, config, match):
        fitted = st.fit(st.StagedTree.saturated(titanic.space), titanic)
        with pytest.raises(st.InvalidArgumentError, match=match):
            st.joint_probability(fitted, config)

    def test_numpy_coordinates_give_the_same_value(self, titanic):
        fitted = st.fit(st.StagedTree.saturated(titanic.space), titanic)
        assert st.joint_probability(fitted, np.array([0, 0, 0, 1])) == \
            st.joint_probability(fitted, (0, 0, 0, 1))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8])
    def test_small_integer_coordinates_do_not_wrap(self, dtype):
        # the last depth has 512 vertices, past the range of an 8-bit integer
        space = space_of(*[2] * 10)
        counts = np.random.default_rng(0).integers(1, 50, space.n_cells)
        fitted = st.fit(st.StagedTree.saturated(space), st.Dataset(space, counts))
        for x in itertools.product(range(2), repeat=10):
            assert st.joint_probability(fitted, np.array(x, dtype=dtype)) == \
                st.joint_probability(fitted, x)


class TestDegreesOfFreedom:
    def test_saturated_two_binary(self):
        assert st.degrees_of_freedom(st.StagedTree.saturated(space_of(2, 2))) == 3

    def test_independence_three_binary(self):
        assert st.degrees_of_freedom(st.StagedTree.one_stage(space_of(2, 2, 2))) == 3

    def test_titanic_bn(self, titanic_bn_tree):
        # 1 root stage of size 4, then 4, 8, 8 binary stages
        assert st.degrees_of_freedom(titanic_bn_tree) == 3 + 4 + 8 + 8

    def test_zero_count_stages_still_counted(self):
        space = space_of(2, 2)
        data = st.Dataset.from_config_counts(space, [((1, 0), 7)])
        report = st.score(st.StagedTree.saturated(space), data)
        assert report.df == 3


class TestScore:
    def test_titanic_bn_bic(self, titanic, titanic_bn_tree):
        report = st.score(titanic_bn_tree, titanic)
        assert report.bic == pytest.approx(10502.28, abs=0.5)
        assert report.n == 2201
        assert report.aic == pytest.approx(-2 * report.log_likelihood + 2 * 23)

    def test_saturated_titanic_matches_cell_tally(self, titanic):
        report = st.score(st.StagedTree.saturated(titanic.space), titanic)
        log_lik = sum(c * math.log(c / 2201) for c in titanic.counts if c > 0)
        assert report.log_likelihood == pytest.approx(log_lik, abs=1e-9)
        assert report.df == 31
        assert report.bic == pytest.approx(-2 * log_lik + 31 * math.log(2201), abs=1e-9)

    def test_uniform_data_independence_loglik(self):
        space = space_of(2, 3, 2)
        data = st.Dataset(space, np.full(12, 3, dtype=np.int64))
        report = st.score(st.StagedTree.one_stage(space), data)
        expected = -36 * (math.log(2) + math.log(3) + math.log(2))
        assert report.log_likelihood == pytest.approx(expected, abs=1e-9)

    def test_agrees_with_dict_based_tally(self, titanic):
        rng = np.random.default_rng(4)
        for _ in range(25):
            space = random_space(rng, int(rng.integers(2, 5)))
            tree = random_staging(rng, space)
            data = random_dataset(rng, space, int(rng.integers(20, 300)))
            report = st.score(tree, data)
            assert report.bic == pytest.approx(bic_by_hand(tree, data), abs=1e-8)
        report = st.score(st.fit(
            st.StagedTree.saturated(titanic.space), titanic), titanic)
        assert report.bic == pytest.approx(
            bic_by_hand(st.StagedTree.saturated(titanic.space), titanic), abs=1e-8)

    def test_invariant_under_stage_renaming(self, titanic, titanic_generic_tree):
        renamed = titanic_generic_tree
        for d in range(1, 4):
            renamed = renamed.replace_level(
                d, tuple(f"s{sym}" for sym in titanic_generic_tree.symbols_at(d)))
        a = st.score(titanic_generic_tree, titanic)
        b = st.score(renamed, titanic)
        assert (a.log_likelihood, a.df) == (b.log_likelihood, b.df)

    def test_nested_stagings_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            space = random_space(rng, 3)
            data = random_dataset(rng, space, 200)
            fine = random_staging(rng, space)
            coarse = fine
            for d in range(1, space.p):
                mapped = [int(s) % 2 for s in st.canonical_symbols(fine.symbols_at(d))]
                coarse = coarse.replace_level(d, mapped)
            assert st.staging_refines(fine, coarse)
            rep_f = st.score(fine, data)
            rep_c = st.score(coarse, data)
            assert rep_c.df <= rep_f.df
            assert rep_c.log_likelihood <= rep_f.log_likelihood + 1e-9

    def test_empty_dataset_rejected(self, titanic_bn_tree, titanic):
        empty = st.Dataset(titanic.space, np.zeros(32, dtype=np.int64))
        with pytest.raises(st.InvalidArgumentError):
            st.score(titanic_bn_tree, empty)

    def test_bad_config_rejected(self):
        with pytest.raises(st.InvalidArgumentError):
            st.FitConfig(smoothing=-0.5)

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                           "1", True, np.bool_(True), None])
    def test_mistyped_smoothing_refused(self, smoothing):
        with pytest.raises(st.InvalidArgumentError, match="finite real"):
            st.FitConfig(smoothing=smoothing)

    def test_overflowing_smoothing_refused(self):
        with pytest.raises(st.InvalidArgumentError, match="out of range"):
            st.FitConfig(smoothing=10 ** 400)

    def test_smoothing_stored_as_float(self):
        assert [st.FitConfig(smoothing=s).smoothing for s in (1, np.int8(2), np.float32(0.5))] \
            == [1.0, 2.0, 0.5]
        assert type(st.FitConfig(smoothing=np.float32(0.5)).smoothing) is float


class TestLoglik:
    def test_rows_equal_per_vector_reference(self):
        # each row sums only its own nonzero terms, exactly as a lone vector
        # would, also past numpy's eight-value pairwise-summation threshold
        rng = np.random.default_rng(6)
        for k in range(2, 12):
            counts = rng.integers(0, 40, size=(30, k)).astype(np.float64)
            counts[rng.random((30, k)) < 0.3] = 0
            counts[0] = 0
            for lam in (0.0, 0.5):
                got = _loglik(counts, lam).tolist()
                for row, value in zip(counts, got):
                    nz = row > 0
                    with np.errstate(invalid="ignore"):
                        probs = (row + lam) / (row.sum() + lam * k)
                    assert value == float((row[nz] * np.log(probs[nz])).sum())
