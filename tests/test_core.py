from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

import stagetrees as st

from conftest import random_space, random_staging, space_of
from oracles import table_by_tally


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

    def test_numpy_coordinates_give_an_int(self):
        space = space_of(2, 3)
        idx = st.lex_index(space, (np.int64(1), np.int32(2)))
        assert idx == 5 and type(idx) is int

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
    def test_edge_outside_the_order_refused(self):
        # the labels determine the DAG, so Dag's 0 <= j < i < p check applies
        for edge in [(1, 0), (0, 0), (0, 2), (-1, 1)]:
            with pytest.raises(st.InvalidArgumentError):
                st.Aldag(2, {edge: st.DependenceLabel.TOTAL})

    def test_census_order(self):
        aldag = st.Aldag(3, {
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

    def test_table_matches_manual_tally(self):
        space = space_of(2, 3, 2)
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 9, size=space.n_cells).astype(np.int64)
        data = st.Dataset(space, counts)
        table = data.table((0,), 1)
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

    @pytest.mark.parametrize("counts", [
        [2**53, 1, 0, 0],
        [10**30, 0, 0, 0],
        np.full(4, 2**62, dtype=np.int64),   # the int64 sum wraps to 0
    ], ids=["just-over", "beyond-int64", "int64-wrap"])
    def test_total_over_max_count_rejected(self, counts):
        with pytest.raises(st.InvalidArgumentError, match="total|range"):
            st.Dataset(space_of(2, 2), counts)

    @pytest.mark.parametrize("items", [
        [((0, 0), 10**30)],
        [((0, 0), 9223372036854775000), ((1, 1), 9223372036854775000)],
        [((0, 0), 2**53), ((0, 0), 1)],
    ], ids=["beyond-int64", "int64-wrap", "just-over"])
    def test_config_counts_over_max_count_rejected(self, items):
        with pytest.raises(st.InvalidArgumentError, match="total"):
            st.Dataset.from_config_counts(space_of(2, 2), items)

    def test_integral_float_counts_accepted(self):
        data = st.Dataset(space_of(2, 2), np.array([1.0, 0.0, 2.0, 3.0]))
        assert data.counts.dtype == np.int64 and data.counts.tolist() == [1, 0, 2, 3]

    def test_total_of_max_count_accepted(self):
        data = st.Dataset.from_config_counts(space_of(2, 2), [((0, 0), 2**53 - 1), ((1, 0), 1)])
        assert data.n == st.core.MAX_COUNT == 2**53

    def test_reorder_by_name_preserves_counts(self, titanic):
        swapped = titanic.reorder(("Age", "Survived", "Gender", "Class"))
        assert swapped.n == titanic.n
        back = swapped.reorder(("Class", "Gender", "Survived", "Age"))
        assert back == titanic

    def test_tensor_shape(self, titanic):
        assert titanic.tensor().shape == (4, 2, 2, 2)
        assert int(titanic.tensor().sum()) == 2201


def draw_dataset(draw, max_p: int = 5) -> st.Dataset:
    """1..max_p variables of 2..4 levels, with counts that are often zero."""
    space = space_of(*draw.draw(hs.lists(hs.integers(2, 4), min_size=1, max_size=max_p)))
    rng = np.random.default_rng(draw.draw(hs.integers(0, 2**32 - 1)))
    zero = draw.draw(hs.sampled_from([0.0, 0.5, 0.9]))
    counts = rng.integers(0, 50, size=space.n_cells) * (rng.random(space.n_cells) >= zero)
    return st.Dataset(space, counts)


class TestTable:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(hs.data())
    def test_requests_match_the_tally(self, draw):
        # one Dataset answers a random sequence of requests, repeats included,
        # so a table served from a stale cache entry fails the comparison
        data = draw_dataset(draw)
        sizes, requests = data.space.level_counts, []
        for _ in range(draw.draw(hs.integers(1, 8))):
            if requests and draw.draw(hs.booleans()):
                requests.append(draw.draw(hs.sampled_from(requests)))
                continue
            v = draw.draw(hs.integers(0, data.space.p - 1))
            others = draw.draw(hs.permutations([i for i in range(data.space.p) if i != v]))
            requests.append((tuple(others[:draw.draw(hs.integers(0, len(others)))]), v))
        for preds, v in requests:
            table = data.table(preds, v)
            assert table.dtype == np.float64 and not table.flags.writeable
            assert np.array_equal(table, table_by_tally(sizes, data.counts, preds, v))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(hs.data())
    def test_reordered_prefix_is_the_table_of_the_order(self, draw):
        # `learn --order` searches the reordered data's prefix tables, the
        # order search the tables of the original data
        data = draw_dataset(draw)
        order = draw.draw(hs.permutations(range(data.space.p)))
        reordered = data.reorder(order)
        for d in range(data.space.p):
            assert np.array_equal(reordered.table(range(d), d),
                                  data.table(order[:d], order[d]))

    @pytest.mark.parametrize("preds,v", [
        ((0, 0), 1), ((0,), 4), ((-1,), 0), ((1,), 1), ((True,), 0), ((0,), 1.0), ((0.0,), 1),
    ], ids=["repeated", "out-of-range", "negative", "v-in-preds", "bool", "float-v",
            "float-pred"])
    def test_refused(self, titanic, preds, v):
        with pytest.raises(st.InvalidArgumentError):
            titanic.table(preds, v)


def saturated_fit(s: st.SampleSpace) -> st.StagedTree:
    return st.fit(st.StagedTree.saturated(s), st.Dataset(s, [1] * s.n_cells))


# (id, call with index x on space_of(2, 2), argument name, smallest index too large):
# each argument takes a bool, a float, a negative and a too-large index
INDEX_ARGUMENTS = [
    ("symbols-at", lambda s, x: st.StagedTree.saturated(s).symbols_at(x), "depth", 2),
    ("stage-count", lambda s, x: st.StagedTree.saturated(s).stage_count(x), "depth", 2),
    ("distributions-at", lambda s, x: saturated_fit(s).distributions_at(x), "depth", 2),
    ("replace-level", lambda s, x: st.StagedTree.saturated(s).replace_level(x, (0, 0)),
     "depth", 2),
    ("prefix-cells", lambda s, x: s.prefix_cells(x), "prefix length", 3),
    ("configurations", lambda s, x: s.configurations(x), "prefix length", 3),
    ("levels-of", lambda s, x: s.levels_of(x), "variable", 2),
    ("unindex-length", lambda s, x: st.lex_unindex(s, 0, x), "prefix length", 3),
    ("unindex-index", lambda s, x: st.lex_unindex(s, x, 2), "index", 4),
    ("dag-edge", lambda s, x: st.Dag(2, {(0, x)}), "vertex", 2),
    ("aldag-edge", lambda s, x: st.Aldag(2, {(0, x): st.DependenceLabel.TOTAL}), "vertex", 2),
    ("dag-parents", lambda s, x: st.Dag.empty(2).parents(x), "vertex", 2),
    ("oracle-head", lambda s, x: st.classify_edge_oracle(st.StagedTree.saturated(s), 0, x),
     "head", 2),
    ("oracle-tail", lambda s, x: st.classify_edge_oracle(st.StagedTree.saturated(s), x, 1),
     "tail", 1),
]
INDEX_CASES = [(lambda s, call=call, x=x: call(s, x), st.InvalidArgumentError, match)
               for _, call, name, large in INDEX_ARGUMENTS
               for x, match in [(True, "must be an integer"), (1.0, "must be an integer"),
                                (-1, f"{name} -1 out of range"),
                                (large, f"{name} {large} out of range")]]
INDEX_IDS = [f"{entry}-{kind}" for entry, *_ in INDEX_ARGUMENTS
             for kind in ("bool", "float", "negative", "too-large")]


class TestRefusals:
    @pytest.mark.parametrize("call,error,match", [
        (lambda s: st.SampleSpace((("a", ("x", "x")),)), st.InvalidArgumentError,
         "duplicate levels"),
        (lambda s: s.index_of("nope"), st.InvalidArgumentError, "unknown variable"),
        (lambda s: s.reorder((0, 0)), st.InvalidArgumentError, "permutation"),
        (lambda s: st.lex_index(s, (0, 0, 0)), st.InvalidArgumentError, "prefix longer"),
        (lambda s: st.lex_unindex(s, 0, 3), st.InvalidArgumentError, "prefix length"),
        (lambda s: st.StagedTree(s, ()), st.InvalidArgumentError, "expected 1 stage vectors"),
        (lambda s: st.StagedTree(s, ((0, 1),), (None,)), st.InvalidArgumentError,
         "one entry per depth"),
        (lambda s: st.StagedTree(s, ((0, 1),), ({0: (0.5, 0.5, 0.0)}, None)),
         st.InvalidArgumentError, "has length 3"),
        (lambda s: st.StagedTree.saturated(s).distributions_at(0), st.UnfittedModelError,
         "no fitted distributions"),
        (lambda s: st.staging_refines(st.StagedTree.saturated(s),
                                      st.StagedTree.saturated(space_of(2, 3))),
         st.InvalidArgumentError, "different sample spaces"),
        (lambda s: st.Dag(0, frozenset()), st.InvalidArgumentError, "positive"),
        (lambda s: st.Dataset(s, [1, 2, 3]), st.InvalidArgumentError, "expected 4 cells"),
        (lambda s: st.Dataset.from_config_counts(s, [((0, 0), -1)]), st.InvalidArgumentError,
         "negative"),
        # d_separated and dependence_subtree refused a negative or too-large index already
        (lambda s: st.d_separated(st.Dag.empty(2), [0], [True]), st.InvalidArgumentError,
         "must be an integer"),
        (lambda s: st.d_separated(st.Dag.empty(2), [0], [1.0]), st.InvalidArgumentError,
         "must be an integer"),
        (lambda s: st.dependence_subtree(st.StagedTree.saturated(s), st.Aldag(2, {}), True),
         st.InvalidArgumentError, "must be an integer"),
        (lambda s: st.dependence_subtree(st.StagedTree.saturated(s), st.Aldag(2, {}), 1.0),
         st.InvalidArgumentError, "must be an integer"),
        (lambda s: st.Dag(True, frozenset()), st.InvalidArgumentError, "must be an integer"),
        (lambda s: st.Dag(1.5, frozenset()), st.InvalidArgumentError, "must be an integer"),
        (lambda s: st.Dataset(s, [0.5, 1.5, 2, 3]), st.InvalidArgumentError, "whole numbers"),
        (lambda s: st.Dataset(s, [np.nan, 1, 2, 3]), st.InvalidArgumentError, "whole numbers"),
        (lambda s: st.Dataset.from_config_counts(s, [((1,), 5)]), st.InvalidArgumentError,
         "needs 2 coordinates"),
        (lambda s: st.Dataset.from_config_counts(s, [((0, 1), 5.5)]), st.InvalidArgumentError,
         "must be an integer"),
        (lambda s: st.Dataset.from_config_counts(s, [((0, 1), True)]), st.InvalidArgumentError,
         "must be an integer"),
        (lambda s: st.lex_index(s, (1.5,)), st.InvalidArgumentError, "must be an integer"),
        (lambda s: st.lex_index(s, (True, 1)), st.InvalidArgumentError, "must be an integer"),
        (lambda s: st.lex_index(s, ("1",)), st.InvalidArgumentError, "must be an integer"),
        (lambda s: st.Dataset.from_config_counts(s, [((True, 0), 3)]),
         st.InvalidArgumentError, "must be an integer"),
        (lambda s: st.Dataset.from_config_counts(s, [((0.5, 0), 3)]),
         st.InvalidArgumentError, "must be an integer"),
        (lambda s: st.Dataset(s, [True, False, True, True]), st.InvalidArgumentError, "bools"),
        (lambda s: st.Dataset(s, [True, 2, 3, 4]), st.InvalidArgumentError, "bools"),
        (lambda s: st.Dataset(s, [[True, 2], [3, 4]]), st.InvalidArgumentError, "bools"),
        (lambda s: st.StagedTree(s, [(0, 0)], ({0: ("0.5", "0.5")}, {0: (0.3, 0.7)})),
         st.InvalidArgumentError, "finite real"),
        (lambda s: st.StagedTree(s, [(0, 0)], ({0: (True, False)}, {0: (0.3, 0.7)})),
         st.InvalidArgumentError, "finite real"),
        (lambda s: st.StagedTree(s, [(0, 0)], ({0: "01"}, {0: (0.3, 0.7)})),
         st.InvalidArgumentError, "finite real"),
        (lambda s: st.StagedTree(s, [(0, 0)], ({0: (0.5 + 0j, 0.5)}, {0: (0.3, 0.7)})),
         st.InvalidArgumentError, "finite real"),
        (lambda s: st.StagedTree(s, [(0, 0)], ({0: (10 ** 400, 0)}, {0: (0.3, 0.7)})),
         st.InvalidArgumentError, "out of range"),
        (lambda s: st.Dag(3, {5}), st.InvalidArgumentError, "must be a pair"),
        (lambda s: st.Dag(3, {(0, 1, 2)}), st.InvalidArgumentError, "must be a pair"),
        (lambda s: st.Aldag(2, {(0, 1): 5}), st.InvalidArgumentError, "unknown dependence label"),
        (lambda s: st.Aldag(2, {(0, 1): "bogus"}), st.InvalidArgumentError,
         "unknown dependence label"),
        *INDEX_CASES,
    ], ids=["duplicate-levels", "unknown-name", "non-permutation", "prefix-too-long",
            "bad-prefix-length", "stage-vector-count", "fitted-entry-count",
            "distribution-length", "unfitted", "refines-across-spaces", "empty-dag",
            "cell-count", "negative-config-count", "dsep-bool", "dsep-float", "subtree-bool",
            "subtree-float", "dag-p-bool", "dag-p-float", "fractional-counts", "nan-count",
            "short-configuration", "float-config-count", "bool-config-count",
            "lex-index-float", "lex-index-bool", "lex-index-str", "bool-config-coordinate",
            "float-config-coordinate", "bool-counts", "bool-among-counts",
            "bool-among-nested-counts", "probability-string", "probability-bool",
            "distribution-string", "probability-complex", "probability-overflow",
            "dag-edge-not-a-pair", "dag-edge-triple", "aldag-label-number",
            "aldag-label-unknown", *INDEX_IDS])
    def test_refused(self, call, error, match):
        with pytest.raises(error, match=match):
            call(space_of(2, 2))

    @pytest.mark.parametrize("call", [
        lambda d: d.reorder([1.5, 0, 2, 3]),
        lambda d: d.reorder([True, 0, 2, 3]),
        lambda d: d.space.reorder([1.0, 0.0, 2.0, 3.0]),
    ], ids=["dataset-float", "dataset-bool", "space-float"])
    def test_mistyped_variable_indices_refused(self, titanic, call):
        with pytest.raises(st.InvalidArgumentError, match="must be an integer"):
            call(titanic)

    def test_dataset_is_not_equal_to_other_types(self):
        assert (st.Dataset(space_of(2, 2), [1, 2, 3, 4]) == 5) is False
