from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

import stagetrees as st
from stagetrees import learning
from stagetrees.learning import (_column_joins, _column_merge_groups, _merged_loglik, _pair_joins,
                                 _search_level, _vertex_moves)

from conftest import draw_level, random_space, random_dataset
from oracles import (bhc_by_pairs, bhc_level_by_rescan, column_merge_groups_by_full_walk,
                     csbhc_level_by_rescan, enumerate_orders_by_permutations,
                     hc_level_by_rescan, index_order_objective_by_permutations,
                     learn_dag_by_global_toggles)

L = st.DependenceLabel


def space_of(*sizes: int) -> st.SampleSpace:
    return st.SampleSpace(tuple(
        (f"x{i}", tuple(str(v) for v in range(k))) for i, k in enumerate(sizes)))


def assert_trace_consistent(start, result, trace, data, cfg=st.SearchConfig()):
    report = st.score(start, data)
    base = report.bic if cfg.score == "bic" else report.aic
    prev = base
    for step in trace.steps:
        assert step.score_before == pytest.approx(prev, abs=1e-6)
        assert step.score_after < step.score_before - 1e-10
        prev = step.score_after
    final_report = st.score(result, data)
    final = final_report.bic if cfg.score == "bic" else final_report.aic
    assert final == pytest.approx(prev, abs=1e-6)


class TestBhc:
    def test_one_stage_start_unchanged(self, titanic):
        start = st.StagedTree.one_stage(titanic.space)
        tree, trace = st.bhc(start, titanic)
        assert tree == start
        assert trace.steps == ()

    def test_titanic_refinement_score(self, titanic, titanic_bn_tree):
        tree, trace = st.bhc(titanic_bn_tree, titanic)
        bic = st.score(tree, titanic).bic
        assert abs(bic - 10452) / 10452 < 0.01
        assert st.staging_refines(titanic_bn_tree, tree)
        assert_trace_consistent(titanic_bn_tree, tree, trace, titanic)

    def test_candidate_matrix_size_guard(self):
        # raised before the (2**12 + 1) x 2**12 output, one entry over MAX_CELLS, exists
        side = 1 << 12
        with pytest.raises(st.UnsupportedSizeError):
            _merged_loglik(np.ones((side + 1, 2)), np.ones((side, 2)))

    def test_exact_independence_merges_level(self):
        space = space_of(2, 2)
        data = st.Dataset(space, np.array([10, 10, 10, 10], dtype=np.int64))
        # merging the two level-1 stages costs no likelihood and saves one
        # parameter, so the merged staging scores better by ln(n)
        merged = st.score(st.StagedTree.one_stage(space), data).bic
        split = st.score(st.StagedTree.saturated(space), data).bic
        assert merged == pytest.approx(split - math.log(40), abs=1e-9)
        tree, _ = st.bhc(st.StagedTree.saturated(space), data)
        assert tree.symbols_at(1) == (0, 0)

    def test_proportional_rows_tie_to_smallest_ids(self):
        # every join has delta -ln(n) in exact arithmetic; float noise of
        # the order of 1e-14 once made (0, 2) win over (0, 1)
        space = space_of(5, 2)
        counts = np.outer([47, 2, 8, 41, 47], [3, 4]).ravel()
        _, trace = st.bhc(st.StagedTree.saturated(space), st.Dataset(space, counts))
        assert [s.stages for s in trace.steps] == [(0, 1), (0, 2), (0, 3), (0, 4)]

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(hs.data())
    def test_matches_pair_scanning_reference(self, draw):
        sizes = draw.draw(hs.lists(hs.integers(2, 5), min_size=2, max_size=3))
        k = sizes[-1]
        base = draw.draw(hs.lists(hs.integers(0, 9), min_size=k, max_size=k))
        rows = []
        for _ in range(math.prod(sizes[:-1])):
            # proportional rows (multiples of one base vector, zero included)
            # tie exactly; free rows do not
            if draw.draw(hs.booleans()):
                rows.append([draw.draw(hs.integers(0, 400)) * b for b in base])
            else:
                rows.append(draw.draw(hs.lists(hs.integers(0, 30), min_size=k, max_size=k)))
        counts = np.array(rows, dtype=np.int64).ravel()
        counts[0] += counts.sum() == 0
        data = st.Dataset(space_of(*sizes), counts)
        tree, trace = st.bhc(st.StagedTree.saturated(data.space), data)
        moves, vectors = bhc_by_pairs(data)
        assert [(s.level, s.stages) for s in trace.steps] == moves
        assert [tree.symbols_at(d) for d in range(1, tree.p)] == vectors

    def test_max_iter_caps_moves_per_level(self, titanic, titanic_bn_tree):
        _, trace = st.bhc(titanic_bn_tree, titanic, st.SearchConfig(max_iter=1))
        per_level = {}
        for step in trace.steps:
            per_level[step.level] = per_level.get(step.level, 0) + 1
        assert per_level and all(c <= 1 for c in per_level.values())


class TestHc:
    def test_perfect_fit_unchanged(self):
        space = space_of(2, 2)
        data = st.Dataset(space, np.array([30, 30, 30, 30], dtype=np.int64))
        start = st.StagedTree.one_stage(space)
        tree, trace = st.hc(start, data)
        assert tree == start
        assert trace.steps == ()

    def test_titanic_beats_bn_near_published_value(self, titanic):
        start = st.StagedTree.one_stage(titanic.space)
        tree, trace = st.hc(start, titanic)
        bic = st.score(tree, titanic).bic
        assert bic <= 10502.28
        assert abs(bic - 10440.39) / 10440.39 < 0.01
        assert_trace_consistent(start, tree, trace, titanic)

    def test_scope_leaves_other_levels_untouched(self, titanic, titanic_bn_tree):
        tree, trace = st.hc(titanic_bn_tree, titanic, st.SearchConfig(scope=(3,)))
        assert tree.symbols_at(1) == st.canonical_symbols(titanic_bn_tree.symbols_at(1))
        assert tree.symbols_at(2) == st.canonical_symbols(titanic_bn_tree.symbols_at(2))
        assert all(step.level == 3 for step in trace.steps)

    def test_both_kinds_of_move_occur(self, titanic):
        _, trace = st.hc(st.StagedTree.saturated(titanic.space), titanic)
        kinds = {step.kind for step in trace.steps}
        assert "join" in kinds


class TestCsbhc:
    def test_merged_level_unchanged(self, titanic, titanic_bn_tree):
        start = titanic_bn_tree.replace_level(1, (0, 0, 0, 0))
        tree, _ = st.csbhc(start, titanic)
        assert tree.symbols_at(1) == (0, 0, 0, 0)

    def test_titanic_from_bn_tree(self, titanic, titanic_bn_tree):
        tree, trace = st.csbhc(titanic_bn_tree, titanic)
        bic = st.score(tree, titanic).bic
        assert abs(bic - 10488) / 10488 < 0.01
        assert st.staging_refines(titanic_bn_tree, tree)
        aldag, _ = st.staged_tree_to_aldag(tree)
        assert aldag.census() == (4, 1, 0, 0, 0)
        assert_trace_consistent(titanic_bn_tree, tree, trace, titanic)

    def test_titanic_from_saturated(self, titanic):
        tree, trace = st.csbhc(st.StagedTree.saturated(titanic.space), titanic)
        bic = st.score(tree, titanic).bic
        assert abs(bic - 10479) / 10479 < 1e-3
        aldag, _ = st.staged_tree_to_aldag(tree)
        assert all(lab is not L.LOCAL for lab in aldag.labels.values())
        # frozen output of the deterministic search, as a regression pin
        assert bic == pytest.approx(10484.11, abs=0.01)
        assert aldag.census() == (3, 2, 0, 1, 0)
        assert all(step.kind == "column-join" for step in trace.steps)

    def test_no_local_on_random_data(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            space = random_space(rng, int(rng.integers(2, 5)))
            data = random_dataset(rng, space, int(rng.integers(20, 400)))
            tree, _ = st.csbhc(st.StagedTree.saturated(space), data)
            aldag, _ = st.staged_tree_to_aldag(tree)
            assert all(lab is not L.LOCAL for lab in aldag.labels.values())

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(hs.data())
    def test_merge_groups_match_full_walk(self, draw):
        # the shared walker drops constant tails; the reference never does.
        # Levels differ between variables, so reshapes pad to different widths
        sizes = draw.draw(hs.lists(hs.integers(2, 4), min_size=1, max_size=4))
        symbols = draw_level(draw, sizes)
        groups = [tuple(row[row >= 0].tolist()) for row in _column_merge_groups(sizes, symbols)]
        assert groups == column_merge_groups_by_full_walk(sizes, symbols)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(st.InvalidArgumentError):
            st.SearchConfig(score="hqc")
        with pytest.raises(st.InvalidArgumentError):
            st.SearchConfig(max_iter=0)
        with pytest.raises(st.InvalidArgumentError):
            st.bhc(st.StagedTree.saturated(space_of(2, 2)),
                   st.Dataset(space_of(2, 2), np.array([1, 1, 1, 1])),
                   st.SearchConfig(scope=(5,)))

    @pytest.mark.parametrize("field,value", [
        ("max_iter", True), ("max_iter", 1.5), ("max_iter", 2.0), ("max_iter", "2"),
        ("max_iter", np.float64(2)), ("scope", (True,)), ("scope", (1.0,)), ("scope", ("1",)),
        ("scope", (1, np.float64(2))), ("scope", 3),
    ])
    def test_mistyped_refused(self, field, value):
        with pytest.raises(st.InvalidArgumentError, match="integer"):
            st.SearchConfig(**{field: value})

    def test_numpy_integers_stored_as_int(self, titanic, titanic_bn_tree):
        cfg = st.SearchConfig(max_iter=np.int64(2), scope=(np.int32(3), 1, np.uint8(3)))
        assert (cfg.max_iter, cfg.scope) == (2, (1, 3))
        assert type(cfg.max_iter) is int and all(type(d) is int for d in cfg.scope)
        _, trace = st.bhc(titanic_bn_tree, titanic, cfg)
        assert [s.level for s in trace.steps] == [1, 3, 3]

    def test_aic_scoring_runs(self, titanic, titanic_bn_tree):
        cfg = st.SearchConfig(score="aic")
        tree, trace = st.bhc(titanic_bn_tree, titanic, cfg)
        assert st.score(tree, titanic).aic <= st.score(titanic_bn_tree, titanic).aic
        assert_trace_consistent(titanic_bn_tree, tree, trace, titanic, cfg)


class TestRefineDag:
    def test_empty_dag_empty_aldag(self, titanic):
        tree, aldag = st.refine_dag(st.Dag.empty(4), titanic)
        assert tree == st.StagedTree.one_stage(titanic.space)
        assert aldag.dag.edges == frozenset()

    def test_titanic_bhc_census(self, titanic, titanic_dag):
        tree, aldag = st.refine_dag(titanic_dag, titanic, "bhc")
        assert aldag.census() == (0, 1, 3, 0, 1)
        assert abs(st.score(tree, titanic).bic - 10452) / 10452 < 0.01

    def test_titanic_csbhc_census(self, titanic, titanic_dag):
        tree, aldag = st.refine_dag(titanic_dag, titanic, "csbhc")
        assert aldag.census() == (4, 1, 0, 0, 0)
        assert abs(st.score(tree, titanic).bic - 10488) / 10488 < 0.01

    def test_edges_never_grow(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            p = int(rng.integers(2, 5))
            space = random_space(rng, p)
            data = random_dataset(rng, space, int(rng.integers(30, 300)))
            edges = frozenset((j, i) for i in range(p) for j in range(i)
                              if rng.random() < 0.6)
            dag = st.Dag(p, edges)
            tree, aldag = st.refine_dag(dag, data, "bhc")
            assert aldag.dag.edges <= dag.edges
            start = st.dag_to_staged_tree(dag, space)
            assert st.score(tree, data).bic <= st.score(start, data).bic + 1e-9

    def test_hc_not_allowed(self, titanic, titanic_dag):
        with pytest.raises(st.InvalidArgumentError):
            st.refine_dag(titanic_dag, titanic, "hc")


class TestLearnDag:
    def test_uniform_independent_data_empty(self):
        space = space_of(2, 2, 2)
        data = st.Dataset(space, np.full(8, 10, dtype=np.int64))
        assert st.learn_dag(data) == st.Dag.empty(3)

    def test_perfect_correlation_single_edge(self):
        space = space_of(2, 2)
        data = st.Dataset(space, np.array([50, 0, 0, 50], dtype=np.int64))
        # likelihood gain of the edge is 100 ln 2, the BIC penalty only ln 100
        assert 100 * math.log(2) > math.log(100)
        assert st.learn_dag(data) == st.Dag(2, frozenset({(0, 1)}))

    def test_titanic_recovers_known_skeleton(self, titanic, titanic_dag):
        learned = st.learn_dag(titanic)
        skeleton = {frozenset(e) for e in learned.edges}
        assert skeleton == {frozenset(e) for e in titanic_dag.edges}

    def test_sink_has_no_outgoing_edges(self, titanic):
        learned = st.learn_dag(titanic, sink=0)
        assert all(j != 0 for j, _ in learned.edges)

    @pytest.mark.parametrize("sink", [2.7, 1.0, True, "1", np.float64(1)])
    def test_mistyped_sink_refused(self, titanic, sink):
        with pytest.raises(st.InvalidArgumentError, match="sink must be an integer"):
            st.learn_dag(titanic, sink=sink)

    def test_empty_dataset_rejected(self):
        space = space_of(2, 2)
        with pytest.raises(st.InvalidArgumentError):
            st.learn_dag(st.Dataset(space, np.zeros(4, dtype=np.int64)))

    def test_tied_parents_go_to_smallest_index(self):
        # x1 = x0 + 1 (mod 3), so either explains x2 equally well; the float
        # log-likelihood of the family with x1 comes out one ulp higher
        counts = np.zeros((3, 3, 2), dtype=np.int64)
        for a, row in enumerate([[1, 8], [1, 40], [32, 39]]):
            counts[a, (a + 1) % 3] = row
        data = st.Dataset(space_of(3, 3, 2), counts.ravel())
        assert st.learn_dag(data).edges == {(0, 1), (0, 2)}

    def test_scope_searches_only_listed_children(self, titanic):
        learned = st.learn_dag(titanic, st.SearchConfig(scope=(2,)))
        assert learned.edges
        assert all(i == 2 for _, i in learned.edges)
        assert learned.edges == {e for e in st.learn_dag(titanic).edges if e[1] == 2}

    def test_max_iter_caps_parents_per_child(self, titanic):
        assert any(len(st.learn_dag(titanic).parents(i)) > 1 for i in range(4))
        learned = st.learn_dag(titanic, st.SearchConfig(max_iter=1))
        assert learned.edges
        assert all(len(learned.parents(i)) <= 1 for i in range(4))

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(hs.data())
    def test_matches_global_toggle_reference(self, draw):
        sizes = draw.draw(hs.lists(hs.integers(2, 4), min_size=2, max_size=4))
        cells = math.prod(sizes)
        scale = draw.draw(hs.integers(1, 60))
        counts = np.array(draw.draw(hs.lists(hs.integers(0, 9), min_size=cells,
                                             max_size=cells)), dtype=np.int64) * scale
        counts[0] += counts.sum() == 0
        sink = draw.draw(hs.none() | hs.integers(0, len(sizes) - 1))
        score = draw.draw(hs.sampled_from(["bic", "aic"]))
        data = st.Dataset(space_of(*sizes), counts)
        learned = st.learn_dag(data, st.SearchConfig(score=score), sink)
        assert learned.edges == learn_dag_by_global_toggles(data, score, sink)


# Inputs from the benchmark generator gen.generate(entropy, (2,)*p, n), keyed
# by entropy; "1-1" and "1-20" are p = 5, n = 10**6 and "0-6" is p = 6, n = 5000.
PINNED_ORDER_COUNTS = {
    "1-1": [0, 0, 0, 0, 874, 1586, 115, 220, 73845, 22565, 172886, 52830, 1423, 2413, 181,
            332, 7528, 7057, 3211, 2933, 55519, 102351, 79536, 148237, 19443, 5819, 8291,
            2540, 34183, 59378, 49097, 85607],
    "1-20": [186, 4529, 106, 126, 10580, 268543, 7526, 8503, 1160, 1635, 97, 56, 12059,
             16392, 910, 670, 297, 7852, 38433, 42147, 2370, 60443, 10502, 11352, 3726,
             5180, 49280, 36515, 125337, 170643, 59166, 43679],
    "0-6": [0, 0, 1, 0, 0, 0, 0, 0, 18, 3, 151, 57, 36, 0, 9, 1, 12, 2, 22, 7, 243, 32, 75,
            35, 4, 1, 16, 9, 277, 45, 66, 15, 427, 795, 227, 1778, 104, 198, 11, 101, 1, 0,
            1, 5, 0, 1, 0, 0, 3, 4, 1, 14, 39, 73, 5, 42, 0, 0, 0, 1, 8, 16, 1, 7],
}


# enumerate_orders on Titanic: (algo, fixed_last) -> (order, stage vectors, BIC)
TITANIC_BHC_ORDER = (("Class", "Survived", "Gender", "Age"), [
    (0, 1, 2, 2), (0, 1, 0, 1, 2, 3, 4, 0), (0, 0, 1, 0, 0, 0, 2, 3, 1, 3, 3, 3, 0, 0, 0, 0),
], 10431.852088236772)
TITANIC_HC_ORDER = (("Class", "Survived", "Gender", "Age"), [
    (0, 1, 2, 2), (0, 1, 0, 1, 2, 3, 4, 0), (0, 0, 1, 0, 0, 0, 2, 1, 1, 1, 1, 1, 0, 0, 0, 0),
], 10434.033434676285)
PINNED_TITANIC_ORDERS = {
    ("bhc", None): TITANIC_BHC_ORDER,
    ("bhc", "Age"): TITANIC_BHC_ORDER,
    ("hc", None): TITANIC_HC_ORDER,
    ("hc", "Age"): TITANIC_HC_ORDER,
    ("csbhc", None): (("Class", "Age", "Gender", "Survived"), [
        (0, 1, 2, 3), (0, 0, 0, 0, 0, 1, 0, 2), (0, 0, 1, 0, 2, 2, 3, 2, 4, 5, 4, 5, 6, 6, 6, 7),
    ], 10460.339797739292),
    ("csbhc", "Age"): (("Class", "Gender", "Survived", "Age"), [
        (0, 1, 2, 3), (0, 1, 2, 3, 4, 5, 6, 7), (0, 0, 1, 0, 2, 3, 1, 1, 1, 1, 1, 1, 4, 4, 1, 4),
    ], 10484.109006284863),
}


def pinned_order_data(key: str) -> st.Dataset:
    """The pinned counts over binary x1..xp."""
    counts = PINNED_ORDER_COUNTS[key]
    p = len(counts).bit_length() - 1
    space = st.SampleSpace(tuple((f"x{i}", ("0", "1")) for i in range(1, p + 1)))
    return st.Dataset(space, np.array(counts, dtype=np.int64))


class TestEnumerateOrders:
    @pytest.mark.parametrize("fixed_last", [1.5, 1.0, True, np.float64(1)])
    def test_mistyped_fixed_last_refused(self, titanic, fixed_last):
        with pytest.raises(st.InvalidArgumentError, match="fixed_last must be an integer"):
            st.enumerate_orders(titanic, fixed_last=fixed_last)

    def test_single_variable(self):
        space = space_of(3)
        data = st.Dataset(space, np.array([5, 2, 1], dtype=np.int64))
        order, tree = st.enumerate_orders(data)
        assert order == ("x0",)
        assert tree.space == space

    def test_fixed_last_restricts_permutations(self):
        space = space_of(2, 2, 2)
        rng = np.random.default_rng(22)
        data = random_dataset(rng, space, 150)
        order, tree = st.enumerate_orders(data, fixed_last="x1")
        assert order[-1] == "x1"
        assert set(order) == {"x0", "x1", "x2"}
        # optimal among the two admissible orders, checked directly
        scores = {}
        for perm in ((0, 2, 1), (2, 0, 1)):
            reordered = data.reorder(perm)
            result, _ = st.bhc(st.StagedTree.saturated(reordered.space), reordered)
            scores[perm] = st.score(result, reordered).bic
        won = tuple(data.space.index_of(name) for name in order)
        assert scores[won] == min(scores.values())

    def test_exchangeable_data_ties_break_lexicographically(self):
        space = space_of(2, 2)
        data = st.Dataset(space, np.array([40, 15, 15, 40], dtype=np.int64))
        order, _ = st.enumerate_orders(data)
        assert order == ("x0", "x1")
        results = []
        for perm in itertools.permutations(range(2)):
            reordered = data.reorder(perm)
            tree, _ = st.bhc(st.StagedTree.saturated(reordered.space), reordered)
            results.append(st.score(tree, reordered).bic)
        assert results[0] == pytest.approx(results[1], abs=1e-9)

    def test_near_tied_orders_go_to_the_smallest(self):
        # four orders score within 3.6e-12 of the best, and the exact minimum
        # is not the lexicographically smallest of them
        order, _ = st.enumerate_orders(pinned_order_data("0-6"), fixed_last="x6", algo="bhc")
        assert order == ("x2", "x4", "x5", "x3", "x1", "x6")

    @pytest.mark.parametrize("key", ["1-1", "1-20"])
    def test_order_ties_scale_with_the_score(self, key):
        # at a BIC near 5e6 one ulp is 9.3e-10, so Markov-equivalent orders,
        # equal in exact arithmetic, differ by about TIE_TOLERANCE; the
        # relative tolerance lets the lexicographic rule decide, not rounding
        order, _ = st.enumerate_orders(pinned_order_data(key), fixed_last="x5", algo="hc")
        assert order == ("x1", "x2", "x3", "x4", "x5")

    @pytest.mark.parametrize("key, algo", [("1-1", "hc"), ("1-20", "hc"), ("0-6", "bhc")])
    def test_matches_enumeration_on_pinned_inputs(self, key, algo):
        data = pinned_order_data(key)
        last = data.space.names[-1]
        order, tree = st.enumerate_orders(data, fixed_last=last, algo=algo)
        assert (order, tree) == enumerate_orders_by_permutations(data, last, algo)

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("algo", ["bhc", "hc", "csbhc"])
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(draw=hs.data())
    def test_matches_brute_force_over_permutations(self, algo, fixed, draw):
        sizes = draw.draw(hs.lists(hs.integers(2, 3), min_size=1, max_size=5)
                          .filter(lambda s: math.prod(s) <= 108))
        cells = math.prod(sizes)
        scale = draw.draw(hs.integers(1, 40))
        counts = np.array(draw.draw(hs.lists(hs.integers(0, 9), min_size=cells,
                                             max_size=cells)), dtype=np.int64) * scale
        counts[0] += counts.sum() == 0
        data = st.Dataset(space_of(*sizes), counts)
        fixed_last = f"x{draw.draw(hs.integers(0, len(sizes) - 1))}" if fixed else None
        depths = hs.lists(hs.integers(1, len(sizes) - 1), unique=True) if len(sizes) > 1 \
            else hs.just([])
        cfg = st.SearchConfig(score=draw.draw(hs.sampled_from(["bic", "aic"])),
                              max_iter=draw.draw(hs.none() | hs.integers(1, 3)),
                              scope=draw.draw(hs.none() | depths))
        order, tree = st.enumerate_orders(data, fixed_last, algo, cfg)
        assert order == index_order_objective_by_permutations(data, fixed_last, algo, cfg)[0]
        if algo != "csbhc":
            # csbhc's level search depends on its predecessors' layout, and the
            # DP can miss the best whole-search order (ROADMAP item 4)
            assert (order, tree) == enumerate_orders_by_permutations(data, fixed_last, algo, cfg)
        reordered = data.reorder(order)
        assert tree == getattr(st, algo)(st.default_start(algo, reordered.space),
                                         reordered, cfg)[0]

    def test_nine_variables_run(self):
        space = space_of(*([2] * 9))
        rng = np.random.default_rng(9)
        data = random_dataset(rng, space, 300)
        order, tree = st.enumerate_orders(data, fixed_last="x4", algo="hc")
        assert sorted(order) == sorted(space.names) and order[-1] == "x4"
        assert tree.space == data.reorder(order).space

    def test_size_guard_before_any_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched a level before the size guard")
        monkeypatch.setattr("stagetrees.learning._search_level", no_search)
        data = st.Dataset(space_of(*([2] * 16)), np.ones(1 << 16, dtype=np.int64))
        with pytest.raises(st.UnsupportedSizeError, match="level tables"):
            st.enumerate_orders(data, algo="hc")

    def test_titanic_fixed_last_age(self, titanic):
        order, tree = st.enumerate_orders(titanic, fixed_last="Age")
        assert order[-1] == "Age"
        natural, _ = st.bhc(st.StagedTree.saturated(titanic.space), titanic)
        best = st.score(tree, titanic.reorder(order)).bic
        assert best <= st.score(natural, titanic).bic + 1e-9

    @pytest.mark.parametrize("algo,fixed", sorted(PINNED_TITANIC_ORDERS, key=str))
    def test_titanic_pinned(self, titanic, algo, fixed):
        order, vectors, bic = PINNED_TITANIC_ORDERS[algo, fixed]
        found, tree = st.enumerate_orders(titanic, fixed_last=fixed, algo=algo)
        assert found == order
        assert [tree.symbols_at(d) for d in range(1, tree.p)] == vectors
        assert st.score(tree, titanic.reorder(order)).bic == pytest.approx(bic, abs=1e-9)


def level_term(table, assign, penalty) -> float:
    """-2 logL + stages * penalty of a staging, summed stage by stage."""
    loglik = 0.0
    for stage in set(assign.tolist()):
        counts = table[assign == stage].sum(axis=0)
        loglik += sum(c * math.log(c / counts.sum()) for c in counts if c > 0)
    return -2.0 * loglik + len(set(assign.tolist())) * penalty


class TestSearchLevel:
    TABLE = np.array([[36, 3], [0, 20], [2, 0], [151, 11], [3, 5], [6, 39], [13, 65],
                      [51, 12]], dtype=np.float64)

    @pytest.mark.parametrize("moves,start", [(_pair_joins, "saturated"),
                                             (_vertex_moves, "one-stage"),
                                             (_column_joins, "saturated")],
                             ids=["bhc", "hc", "csbhc"])
    def test_term_of_the_returned_staging(self, moves, start):
        penalty = math.log(self.TABLE.sum())

        def start_ids():
            return np.arange(8) if start == "saturated" else np.zeros(8, dtype=np.int64)

        def search(max_iter):
            return _search_level(moves, self.TABLE, (2, 2, 2), penalty, start_ids(), max_iter)

        assign, none, start_term = search(0)
        assert none == [] and assign.tolist() == start_ids().tolist()
        assert start_term == pytest.approx(level_term(self.TABLE, assign, penalty), abs=1e-9)
        assign, taken, term = search(None)
        assert len(taken) > 1  # so that max_iter = 1 stops the search early
        assert term == pytest.approx(level_term(self.TABLE, assign, penalty), abs=1e-9)
        assert term == pytest.approx(start_term + sum(delta for _, _, delta in taken), abs=1e-9)
        assign, first, term = search(1)
        assert first == taken[:1]
        assert term == pytest.approx(level_term(self.TABLE, assign, penalty), abs=1e-9)
        assert term == pytest.approx(start_term + first[0][2], abs=1e-9)


class TestPairJoinCache:
    """bhc keeps a level's delta matrix between joins and rescores only the joined stage."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(hs.data())
    def test_matches_full_rescan(self, draw):
        sizes = tuple(draw.draw(hs.lists(hs.integers(2, 4), min_size=1, max_size=3)))
        k = draw.draw(hs.integers(2, 9))  # eight or more levels take _loglik's packed sums
        base = draw.draw(hs.lists(hs.integers(0, 9), min_size=k, max_size=k))
        rows = []
        for _ in range(math.prod(sizes)):
            # zero, proportional and repeated rows tie exactly; free rows do not
            kind = draw.draw(hs.sampled_from(["zero", "proportional", "repeat", "free"]))
            if kind == "zero":
                rows.append([0] * k)
            elif kind == "proportional":
                rows.append([draw.draw(hs.integers(1, 50)) * b for b in base])
            elif kind == "repeat" and rows:
                rows.append(draw.draw(hs.sampled_from(rows)))
            else:
                rows.append(draw.draw(hs.lists(hs.integers(0, 30), min_size=k, max_size=k)))
        table = np.array(rows, dtype=np.float64)
        penalty = (k - 1) * math.log(max(table.sum(), 2.0))
        if draw.draw(hs.booleans()):
            start = np.arange(len(table))
        else:
            # the staging of a DAG's parent set, as refine starts from
            parents = draw.draw(hs.sets(hs.integers(0, len(sizes) - 1)))
            dag = st.Dag(len(sizes) + 1, frozenset((j, len(sizes)) for j in parents))
            start = np.array(st.dag_to_staged_tree(dag, space_of(*sizes, k)).symbols_at(len(sizes)))
        max_iter = draw.draw(hs.sampled_from([None, 1, 3]))
        assign, moves, term = _search_level(_pair_joins, table, sizes, penalty, start.copy(),
                                            max_iter)
        want_assign, want_moves, want_term = bhc_level_by_rescan(table, penalty, start.copy(),
                                                                 max_iter)
        assert assign.tolist() == want_assign.tolist()
        assert moves == want_moves  # float deltas compared with ==
        assert term == want_term

    def test_rows_scored_follow_the_joins(self, monkeypatch):
        # 64 saturated stages drawn from three distributions, so that bhc
        # makes many joins; a full rescan after each join scores about
        # S^2 rows per move, the cache S^2 once and O(S) rows per move
        rng = np.random.default_rng(3)
        shapes = rng.dirichlet(np.ones(4), size=3)
        table = np.array([rng.multinomial(60, shapes[i]) for i in rng.integers(0, 3, size=64)],
                         dtype=np.float64)
        scored = []

        def counting(counts, *args):
            scored.append(math.prod(counts.shape[:-1]))
            return st.scoring._loglik(counts, *args)
        monkeypatch.setattr(learning, "_loglik", counting)
        _, moves, _ = _search_level(_pair_joins, table, (2,) * 6, 3 * math.log(table.sum()),
                                    np.arange(64), None)
        stages = 64
        assert len(moves) >= 40
        assert sum(scored) <= stages ** 2 + 3 * stages * (len(moves) + 1)


def draw_level_search(draw):
    """A level table, its preceding level counts, penalty, start and max_iter.

    Zero, proportional and repeated rows tie exactly; free rows do not.  The
    start is saturated, one-stage or drawn by `draw_level` (random symbols
    or a DAG's staging, maybe coarsened), its ids maybe spread to 3 * id + 1.
    """
    sizes = tuple(draw.draw(hs.lists(hs.integers(2, 4), min_size=1, max_size=3)))
    k = draw.draw(hs.integers(2, 9))  # eight or more levels take _loglik's packed sums
    base = draw.draw(hs.lists(hs.integers(0, 9), min_size=k, max_size=k))
    rows = []
    for _ in range(math.prod(sizes)):
        kind = draw.draw(hs.sampled_from(["zero", "proportional", "repeat", "free"]))
        if kind == "zero":
            rows.append([0] * k)
        elif kind == "proportional":
            rows.append([draw.draw(hs.integers(1, 50)) * b for b in base])
        elif kind == "repeat" and rows:
            rows.append(draw.draw(hs.sampled_from(rows)))
        else:
            rows.append(draw.draw(hs.lists(hs.integers(0, 30), min_size=k, max_size=k)))
    table = np.array(rows, dtype=np.float64)
    penalty = (k - 1) * math.log(max(table.sum(), 2.0))
    start = draw.draw(hs.sampled_from(["saturated", "one-stage", "drawn"]))
    if start == "saturated":
        start = np.arange(len(table))
    elif start == "one-stage":
        start = np.zeros(len(table), dtype=np.int64)
    else:
        start = np.array(draw_level(draw, sizes), dtype=np.int64)
    if draw.draw(hs.booleans()):
        start = 3 * start + 1  # retired ids below, between and past the live ones
    return table, sizes, penalty, start, draw.draw(hs.sampled_from([None, 1, 3]))


def capped(max_iter, want):
    """max_iter, or one move past the oracle's fixpoint.

    A search that cycles through moves that only look improving then fails
    instead of hanging.
    """
    return len(want[1]) + 1 if max_iter is None else max_iter


class TestLevelRescan:
    """hc and csbhc read id-indexed counts and equal the sorted-id level loop bit for bit."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(hs.data())
    def test_hc_matches_full_rescan(self, draw):
        table, sizes, penalty, start, max_iter = draw_level_search(draw)
        want = hc_level_by_rescan(table, penalty, start.copy(), max_iter)
        got = _search_level(_vertex_moves, table, sizes, penalty, start.copy(),
                            capped(max_iter, want))
        assert got[0].tolist() == want[0].tolist()
        assert got[1:] == want[1:]  # moves and term, floats compared with ==

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(hs.data())
    def test_csbhc_matches_full_rescan(self, draw):
        table, sizes, penalty, start, max_iter = draw_level_search(draw)
        want = csbhc_level_by_rescan(table, sizes, penalty, start.copy(), max_iter)
        got = _search_level(_column_joins, table, sizes, penalty, start.copy(),
                            capped(max_iter, want))
        assert got[0].tolist() == want[0].tolist()
        assert got[1:] == want[1:]


# Exact output of the three searches from their default starts on Titanic and
# on two fixed synthetic tables: every accepted move in order, the final
# stage vectors and the final score.  Recorded from the per-candidate loops
# the single level-search engine replaced; a change to candidate scoring,
# summation order or the tie rule shows up here.
PINNED_TABLES = {
    "a": ((3, 2, 2, 2), [
        36, 3, 0, 20, 2, 0, 151, 11, 3, 5, 6, 39, 13, 65, 51, 12, 87, 10, 4, 26, 16, 9, 18,
        13,
    ]),
    "b": ((2, 3, 2, 3), [
        4, 10, 4, 3, 20, 0, 3, 4, 52, 67, 24, 34, 52, 10, 25, 20, 2, 2, 4, 16, 3, 6, 129,
        4, 0, 5, 6, 105, 45, 152, 23, 1, 10, 21, 34, 0,
    ]),
}

# (data, algo) -> (moves as (level, kind, stages), final stage vectors, final score)
PINNED_SEARCHES = {
    ("titanic", "bhc"): ([
        (1, "join", (0, 1)), (2, "join", (3, 7)), (2, "join", (2, 4)), (2, "join", (0, 5)),
        (3, "join", (0, 2)), (3, "join", (0, 4)), (3, "join", (0, 6)),
        (3, "join", (0, 12)), (3, "join", (0, 13)), (3, "join", (0, 14)),
        (3, "join", (0, 15)), (3, "join", (1, 8)), (3, "join", (10, 11)),
        (3, "join", (7, 9)), (3, "join", (7, 10)), (3, "join", (0, 3)),
    ], [
        (0, 0, 1, 2), (0, 1, 2, 3, 2, 0, 4, 3),
        (0, 1, 0, 0, 0, 2, 0, 3, 1, 3, 3, 3, 0, 0, 0, 0),
    ], 10432.843502920126),
    ("titanic", "hc"): ([
        (1, "split", (0, 1)), (1, "split", (0, 2)), (2, "split", (0, 1)),
        (2, "split", (0, 2)), (2, "join", (0, 2)), (2, "split", (0, 3)),
        (2, "join", (0, 3)), (2, "split", (0, 4)), (3, "split", (0, 1)),
        (3, "join", (0, 1)), (3, "join", (0, 1)), (3, "join", (0, 1)), (3, "join", (0, 1)),
        (3, "split", (0, 2)), (3, "join", (0, 1)), (3, "join", (0, 1)),
        (3, "join", (0, 1)), (3, "join", (0, 1)),
    ], [
        (0, 0, 1, 2), (0, 1, 2, 3, 2, 0, 4, 3),
        (0, 1, 0, 0, 0, 2, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0),
    ], 10435.02484935964),
    ("titanic", "csbhc"): ([
        (3, "column-join", (2, 6, 10, 14)), (3, "column-join", (12, 13)),
        (3, "column-join", (12, 15)), (3, "column-join", (2, 7)),
        (3, "column-join", (9, 11)), (3, "column-join", (2, 9)),
        (3, "column-join", (1, 3)), (3, "column-join", (0, 1)), (3, "column-join", (2, 8)),
    ], [
        (0, 1, 2, 3), (0, 1, 2, 3, 4, 5, 6, 7),
        (0, 0, 1, 0, 2, 3, 1, 1, 1, 1, 1, 1, 4, 4, 1, 4),
    ], 10484.109006284863),
    ("a", "bhc"): ([
        (1, "join", (0, 1)), (2, "join", (3, 5)), (2, "join", (0, 4)), (3, "join", (5, 9)),
        (3, "join", (0, 3)), (3, "join", (10, 11)), (3, "join", (0, 2)),
        (3, "join", (5, 6)), (3, "join", (0, 8)), (3, "join", (4, 10)),
        (3, "join", (0, 7)), (3, "join", (1, 5)),
    ], [
        (0, 0, 1), (0, 1, 2, 3, 0, 3), (0, 1, 0, 0, 2, 1, 1, 0, 0, 1, 2, 2),
    ], 3108.414588399227),
    ("a", "hc"): ([
        (1, "split", (0, 1)), (2, "split", (0, 1)), (2, "split", (0, 2)),
        (2, "split", (0, 3)), (2, "join", (0, 3)), (3, "split", (0, 1)),
        (3, "join", (0, 1)), (3, "join", (0, 1)), (3, "join", (0, 1)),
        (3, "split", (0, 2)), (3, "join", (0, 2)), (3, "join", (0, 1)),
        (3, "join", (0, 2)),
    ], [
        (0, 0, 1), (0, 1, 2, 3, 0, 3), (0, 1, 0, 0, 2, 1, 1, 0, 0, 1, 2, 2),
    ], 3108.4145883992287),
    ("a", "csbhc"): ([
        (3, "column-join", (1, 5, 9)), (3, "column-join", (10, 11)),
        (3, "column-join", (2, 3)), (3, "column-join", (0, 2)), (3, "column-join", (4, 6)),
        (3, "column-join", (1, 4)),
    ], [
        (0, 1, 2), (0, 1, 2, 3, 4, 5), (0, 1, 0, 0, 1, 1, 1, 2, 3, 1, 4, 4),
    ], 3130.583540301468),
    ("b", "bhc"): ([
        (2, "join", (0, 5)), (2, "join", (0, 1)), (3, "join", (0, 6)), (3, "join", (3, 4)),
        (3, "join", (1, 7)), (3, "join", (5, 10)), (3, "join", (3, 5)),
        (3, "join", (0, 8)),
    ], [
        (0, 1), (0, 0, 1, 2, 3, 0), (0, 1, 2, 3, 3, 3, 0, 1, 0, 4, 3, 5),
    ], 5259.507649871619),
    ("b", "hc"): ([
        (1, "split", (0, 1)), (2, "split", (0, 1)), (2, "split", (0, 2)),
        (2, "split", (0, 3)), (3, "split", (0, 1)), (3, "split", (0, 2)),
        (3, "join", (0, 1)), (3, "split", (0, 3)), (3, "split", (0, 4)),
        (3, "join", (0, 1)), (3, "join", (0, 3)), (3, "join", (0, 1)),
        (3, "split", (1, 5)), (3, "join", (1, 5)), (3, "join", (3, 1)),
    ], [
        (0, 1), (0, 0, 1, 2, 3, 0), (0, 1, 2, 3, 3, 3, 0, 1, 0, 4, 3, 5),
    ], 5259.50764987162),
    ("b", "csbhc"): ([
        (3, "column-join", (0, 6)), (3, "column-join", (4, 10)),
        (3, "column-join", (1, 7)), (3, "column-join", (4, 5)), (3, "column-join", (2, 8)),
    ], [
        (0, 1), (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 4, 0, 1, 2, 5, 4, 6),
    ], 5279.034961920078),
}


class TestPinnedSearches:
    @pytest.mark.parametrize("name,algo", sorted(PINNED_SEARCHES))
    def test_moves_and_result(self, titanic, name, algo):
        if name == "titanic":
            data = titanic
        else:
            sizes, counts = PINNED_TABLES[name]
            data = st.Dataset(space_of(*sizes), np.array(counts, dtype=np.int64))
        moves, vectors, final = PINNED_SEARCHES[(name, algo)]
        search = {"bhc": st.bhc, "hc": st.hc, "csbhc": st.csbhc}[algo]
        tree, trace = search(st.default_start(algo, data.space), data)
        assert [(s.level, s.kind, s.stages) for s in trace.steps] == moves
        assert [tree.symbols_at(d) for d in range(1, tree.p)] == vectors
        assert trace.final_score == pytest.approx(final, abs=1e-9)


class TestRefusals:
    @pytest.mark.parametrize("call,match", [
        (lambda d: st.bhc(st.StagedTree.saturated(space_of(2, 3)), d), "different sample spaces"),
        (lambda d: st.default_start("anneal", d.space), "unknown search algorithm"),
        (lambda d: st.learn_dag(d, sink=2), "sink 2 out of range"),
        (lambda d: st.enumerate_orders(d, algo="anneal"), "unknown search algorithm"),
        (lambda d: st.enumerate_orders(d, fixed_last=2), "fixed_last 2 out of range"),
    ], ids=["start-on-other-space", "default-start-algo", "sink-out-of-range",
            "order-search-algo", "fixed-last-out-of-range"])
    def test_refused(self, call, match):
        data = st.Dataset(space_of(2, 2), [3, 1, 2, 4])
        with pytest.raises(st.InvalidArgumentError, match=match):
            call(data)
