from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

import stagetrees as st

from conftest import random_space, random_staging


def space_of(*sizes: int) -> st.SampleSpace:
    return st.SampleSpace(tuple(
        (f"x{i}", tuple(str(v) for v in range(k))) for i, k in enumerate(sizes)))


class TestLexIndexing:
    def test_first_cell(self):
        space = space_of(2, 3)
        assert st.lex_index(space, (0, 0)) == 0

    def test_last_cell(self):
        space = space_of(2, 3)
        assert st.lex_index(space, (1, 2)) == 5

    def test_last_coordinate_fastest(self):
        space = space_of(2, 3)
        assert st.lex_index(space, (0, 2)) == 2

    def test_unindex_inverts_index_exhaustively(self):
        for p in range(1, 6):
            for sizes in itertools.product((2, 3, 4), repeat=p):
                space = space_of(*sizes)
                for length in range(p + 1):
                    for idx in range(space.prefix_cells(length)):
                        config = st.lex_unindex(space, idx, length)
                        assert st.lex_index(space, config) == idx

    def test_out_of_range_rejected(self):
        space = space_of(2, 3)
        with pytest.raises(st.InvalidArgumentError):
            st.lex_index(space, (2, 0))
        with pytest.raises(st.InvalidArgumentError):
            st.lex_unindex(space, 6, 2)


class TestSampleSpace:
    def test_basic_accessors(self):
        space = space_of(2, 3, 2)
        assert space.p == 3
        assert space.level_counts == (2, 3, 2)
        assert space.n_cells == 12
        assert space.prefix_cells(0) == 1
        assert space.prefix_cells(2) == 6
        assert space.index_of("x1") == 1
        assert space.levels_of(1) == ("0", "1", "2")

    def test_configurations_last_fastest(self):
        space = space_of(2, 2)
        assert list(space.configurations()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_duplicate_names_rejected(self):
        with pytest.raises(st.InvalidArgumentError):
            st.SampleSpace((("a", ("0", "1")), ("a", ("0", "1"))))

    def test_single_level_rejected(self):
        with pytest.raises(st.InvalidArgumentError):
            st.SampleSpace((("a", ("0",)),))

    def test_too_many_cells_rejected(self):
        # 2**40 cells: rejected from the level counts, before any allocation
        with pytest.raises(st.UnsupportedSizeError, match="cells"):
            space_of(*([2] * 40))
        assert space_of(*([2] * 24)).n_cells == st.core.MAX_CELLS

    def test_reorder(self):
        space = space_of(2, 3)
        swapped = space.reorder((1, 0))
        assert swapped.level_counts == (3, 2)
        assert swapped.names == ("x1", "x0")


class TestStagedTree:
    def test_saturated_and_one_stage(self):
        space = space_of(2, 2, 2)
        sat = st.StagedTree.saturated(space)
        assert sat.symbols_at(2) == (0, 1, 2, 3)
        merged = st.StagedTree.one_stage(space)
        assert merged.symbols_at(2) == (0, 0, 0, 0)
        assert merged.symbols_at(0) == (0,)

    def test_wrong_vector_length_rejected(self):
        space = space_of(2, 2)
        with pytest.raises(st.InvalidArgumentError):
            st.StagedTree(space, ((0, 0, 0),))

    def test_canonical_relabels_first_occurrence(self):
        space = space_of(2, 2)
        tree = st.StagedTree(space, (("b", "a"),))
        assert tree.symbols_at(1) == (0, 1)
        assert tree == st.StagedTree.saturated(space)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(hs.data())
    def test_any_labels_give_the_canonical_tree(self, draw):
        sizes = draw.draw(hs.lists(hs.integers(2, 3), min_size=2, max_size=4))
        space = space_of(*sizes)
        labels = hs.one_of(hs.integers(-5, 50), hs.text(max_size=2),
                           hs.tuples(hs.integers(0, 2), hs.text(max_size=1)))
        raw, ids, numbers = [], [], []
        for d in range(1, space.p):
            cells = space.prefix_cells(d)
            stages = draw.draw(hs.lists(hs.integers(0, cells - 1), min_size=cells,
                                        max_size=cells))
            # an injective map of the stage numbers onto mixed hashables
            image = draw.draw(hs.lists(labels, min_size=cells, max_size=cells, unique=True))
            raw.append([image[s] for s in stages])
            ids.append([sorted(set(stages), key=stages.index).index(s) for s in stages])
            numbers.append(np.array(stages))
        canonical = st.StagedTree(space, tuple(tuple(v) for v in ids))
        raw_vectors = tuple(tuple(v) for v in raw)
        relabeled = st.StagedTree(space, raw_vectors)
        assert relabeled == canonical
        # plain lists and numpy int arrays are label sequences too
        assert st.StagedTree(space, raw) == canonical
        assert st.StagedTree(space, numbers) == canonical
        assert [relabeled.symbols_at(d) for d in range(1, space.p)] == [tuple(v) for v in ids]
        assert [relabeled.stage_count(d) for d in range(1, space.p)] == [
            len(set(v)) for v in raw]

        counts = draw.draw(hs.lists(hs.integers(0, 20), min_size=space.n_cells,
                                    max_size=space.n_cells))
        counts[0] += sum(counts) == 0
        data = st.Dataset(space, counts)
        fitted = st.fit(canonical, data)
        # the same distributions keyed by the caller's labels
        by_label = [fitted.fitted[0]] + [
            {r: fitted.fitted[d][i] for r, i in zip(raw[d - 1], ids[d - 1])}
            for d in range(1, space.p)]
        fitted_relabeled = st.StagedTree(space, raw_vectors, tuple(by_label))
        assert fitted_relabeled == fitted
        report = st.score(canonical, data)
        assert st.score(relabeled, data) == report
        aldag, evidence = st.staged_tree_to_aldag(canonical)
        assert st.staged_tree_to_aldag(relabeled) == (aldag, evidence)
        assert (st.ModelDocument(fitted_relabeled, aldag, report).to_json()
                == st.ModelDocument(fitted, aldag, report).to_json())

    def test_fitted_keys_must_match_the_labels_passed(self):
        space = space_of(2, 2)
        vectors = (("b", "a"),)
        root = {0: (0.5, 0.5)}
        tree = st.StagedTree(space, vectors, fitted=(root, {"a": (0.3, 0.7), "b": (1.0, 0.0)}))
        assert tree.distributions_at(1) == {0: (1.0, 0.0), 1: (0.3, 0.7)}
        with pytest.raises(st.InvalidArgumentError, match="do not match"):
            # canonical ids are not the labels this caller used
            st.StagedTree(space, vectors, fitted=(root, {0: (0.5, 0.5), 1: (0.5, 0.5)}))
        with pytest.raises(st.InvalidArgumentError, match="do not match"):
            st.StagedTree(space, vectors, fitted=({"root": (0.5, 0.5)}, {"a": (0.5, 0.5),
                                                                      "b": (0.5, 0.5)}))

    def test_replace_level_drops_fit(self, titanic, titanic_bn_tree):
        fitted = st.fit(titanic_bn_tree, titanic)
        assert fitted.is_fitted
        replaced = fitted.replace_level(1, (0, 0, 0, 0))
        assert replaced.fitted is None

    def test_replace_level_depth_checked(self):
        tree = st.StagedTree.saturated(space_of(2, 2, 2))
        for depth in (-1, 0, 3):
            with pytest.raises(st.InvalidArgumentError):
                tree.replace_level(depth, (0, 0, 0, 0))

    def test_fitted_validation(self):
        space = space_of(2, 2)
        vectors = ((0, 0),)
        with pytest.raises(st.InvalidArgumentError):
            st.StagedTree(space, vectors, fitted=({0: (0.7, 0.2)}, {0: (0.5, 0.5)}))
        tree = st.StagedTree(space, vectors,
                             fitted=({0: (0.7, 0.3)}, {0: (0.5, 0.5)}))
        assert tree.is_fitted

    @pytest.mark.parametrize("dist", [(math.nan, math.nan), (math.nan, 1.0), (1.0, math.nan)],
                             ids=["both", "first", "second"])
    def test_fitted_validation_refuses_nan(self, dist):
        space = space_of(2, 2)
        with pytest.raises(st.InvalidArgumentError):
            st.StagedTree(space, ((0, 0),), fitted=({0: (0.7, 0.3)}, {0: dist}))


class TestStagingRefines:
    def test_saturated_refines_everything(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            space = random_space(rng, int(rng.integers(2, 5)))
            tree = random_staging(rng, space)
            assert st.staging_refines(st.StagedTree.saturated(space), tree)

    def test_one_stage_does_not_refine_saturated(self):
        space = space_of(2, 2)
        assert not st.staging_refines(
            st.StagedTree.one_stage(space), st.StagedTree.saturated(space))
        assert st.staging_refines(
            st.StagedTree.saturated(space), st.StagedTree.one_stage(space))

    def test_titanic_bn_and_generic_stagings_incomparable(
            self, titanic_bn_tree, titanic_generic_tree):
        assert not st.staging_refines(titanic_bn_tree, titanic_generic_tree)
        assert not st.staging_refines(titanic_generic_tree, titanic_bn_tree)

    def test_reflexive_and_transitive(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            space = random_space(rng, 3)
            fine = st.StagedTree.saturated(space)
            mid = random_staging(rng, space)
            # coarsen mid by merging its stages per level through a random map
            coarse = mid
            for d in range(1, space.p):
                mapped = [int(s) % 2 for s in st.canonical_symbols(mid.symbols_at(d))]
                coarse = coarse.replace_level(d, mapped)
            assert st.staging_refines(mid, mid)
            assert st.staging_refines(fine, mid)
            assert st.staging_refines(mid, coarse)
            assert st.staging_refines(fine, coarse)


class TestDag:
    def test_edge_orientation_enforced(self):
        with pytest.raises(st.InvalidArgumentError):
            st.Dag(3, frozenset({(2, 1)}))
        with pytest.raises(st.InvalidArgumentError):
            st.Dag(2, frozenset({(0, 5)}))

    def test_helpers(self):
        dag = st.Dag(3, frozenset({(0, 2), (1, 2)}))
        assert dag.sorted_edges == ((0, 2), (1, 2))
        assert dag.parents(2) == (0, 1)
        assert st.Dag.empty(3).edges == frozenset()
        assert len(st.Dag.complete(4).edges) == 6


class TestAldag:
    def test_labels_must_cover_edges(self):
        dag = st.Dag(2, frozenset({(0, 1)}))
        with pytest.raises(st.InvalidArgumentError):
            st.Aldag(dag, {})

    def test_census_order(self):
        dag = st.Dag(3, frozenset({(0, 1), (0, 2), (1, 2)}))
        aldag = st.Aldag(dag, {
            (0, 1): st.DependenceLabel.TOTAL,
            (0, 2): st.DependenceLabel.LOCAL,
            (1, 2): st.DependenceLabel.CONTEXT,
        })
        assert aldag.census() == (1, 1, 0, 0, 1)

    def test_label_text(self):
        assert str(st.DependenceLabel.CONTEXT_PARTIAL) == "context/partial"


class TestDataset:
    def test_from_config_counts_aggregates(self):
        space = space_of(2, 2)
        data = st.Dataset.from_config_counts(
            space, [((0, 0), 2), ((0, 0), 3), ((1, 1), 1)])
        assert data.counts.tolist() == [5, 0, 0, 1]
        assert data.n == 6

    def test_level_table_matches_manual_tally(self):
        space = space_of(2, 3, 2)
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 9, size=space.n_cells).astype(np.int64)
        data = st.Dataset(space, counts)
        table = data.level_table(1)
        assert table.shape == (2, 3)
        for prefix_idx in range(2):
            for level in range(3):
                expected = sum(
                    int(counts[st.lex_index(space, (x0, x1, x2))])
                    for x0, x1, x2 in space.configurations()
                    if x0 == prefix_idx and x1 == level)
                assert table[prefix_idx][level] == expected

    def test_negative_counts_rejected(self):
        space = space_of(2, 2)
        with pytest.raises(st.InvalidArgumentError):
            st.Dataset(space, np.array([1, -1, 0, 0]))

    def test_reorder_by_name_preserves_counts(self, titanic):
        swapped = titanic.reorder(("Age", "Survived", "Gender", "Class"))
        assert swapped.n == titanic.n
        back = swapped.reorder(("Class", "Gender", "Survived", "Age"))
        assert back == titanic

    def test_tensor_shape(self, titanic):
        assert titanic.tensor().shape == (4, 2, 2, 2)
        assert int(titanic.tensor().sum()) == 2201
