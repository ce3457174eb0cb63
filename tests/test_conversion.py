from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

import stagetrees as st

from conftest import draw_level, random_space, random_staging
from oracles import (classify_level_by_tuples, dag_edges_brute_force, d_separated_by_paths,
                     dependence_subtree_by_configurations, edge_label_brute_force)

L = st.DependenceLabel


def space_of(*sizes: int) -> st.SampleSpace:
    return st.SampleSpace(tuple(
        (f"x{i}", tuple(str(v) for v in range(k))) for i, k in enumerate(sizes)))


def draw_tree(draw) -> st.StagedTree:
    """Random, DAG or coarsened-DAG staging at every level, 2-4 levels per variable."""
    sizes = draw.draw(hs.lists(hs.integers(2, 4), min_size=2, max_size=4))
    return st.StagedTree(space_of(*sizes), tuple(
        draw_level(draw, sizes[:d]) for d in range(1, len(sizes))))


class TestDagToStagedTree:
    def test_empty_dag_gives_one_stage(self):
        space = space_of(2, 3, 2)
        tree = st.dag_to_staged_tree(st.Dag.empty(3), space)
        assert tree == st.StagedTree.one_stage(space)

    def test_complete_dag_gives_saturated(self):
        space = space_of(2, 3, 2)
        tree = st.dag_to_staged_tree(st.Dag.complete(3), space)
        assert tree == st.StagedTree.saturated(space)

    def test_titanic_dag_pools_gender_at_last_level(self, titanic_bn_tree):
        assert titanic_bn_tree.symbols_at(1) == (0, 1, 2, 3)
        assert titanic_bn_tree.symbols_at(2) == tuple(range(8))
        assert titanic_bn_tree.symbols_at(3) == (
            0, 1, 0, 1, 2, 3, 2, 3, 4, 5, 4, 5, 6, 7, 6, 7)

    def test_stage_symbols_depend_exactly_on_parents(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            p = int(rng.integers(2, 5))
            space = random_space(rng, p)
            edges = frozenset((j, i) for i in range(p) for j in range(i)
                              if rng.random() < 0.5)
            dag = st.Dag(p, edges)
            tree = st.dag_to_staged_tree(dag, space)
            for i in range(1, p):
                parents = dag.parents(i)
                symbols = tree.symbols_at(i)
                seen: dict[tuple, object] = {}
                for idx, config in enumerate(space.configurations(i)):
                    key = tuple(config[q] for q in parents)
                    if key in seen:
                        assert symbols[idx] == seen[key]
                    else:
                        seen[key] = symbols[idx]
                assert len(set(symbols)) == len(seen)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(st.InvalidArgumentError):
            st.dag_to_staged_tree(st.Dag.empty(2), space_of(2, 2, 2))


class TestStagedTreeToAldag:
    def test_one_stage_tree_gives_empty_dag(self):
        space = space_of(2, 2, 2)
        aldag, evidence = st.staged_tree_to_aldag(st.StagedTree.one_stage(space))
        assert aldag.dag.edges == frozenset()
        assert aldag.labels == {}
        assert evidence == {}

    def test_bn_tree_round_trips_with_all_total(self, titanic_dag, titanic_bn_tree):
        aldag, _ = st.staged_tree_to_aldag(titanic_bn_tree)
        assert aldag.dag == titanic_dag
        assert set(aldag.labels.values()) == {L.TOTAL}

    def test_generic_titanic_tree_labels(self, titanic_generic_tree):
        aldag, _ = st.staged_tree_to_aldag(titanic_generic_tree)
        assert len(aldag.dag.edges) == 6
        assert aldag.labels == {
            (0, 1): L.PARTIAL,
            (0, 2): L.PARTIAL,
            (0, 3): L.PARTIAL,
            (1, 2): L.LOCAL,
            (1, 3): L.CONTEXT,
            (2, 3): L.CONTEXT,
        }
        assert aldag.census() == (0, 2, 3, 0, 1)

    def test_context_titanic_tree_has_no_local(self, titanic_context_tree, titanic):
        aldag, _ = st.staged_tree_to_aldag(titanic_context_tree)
        assert aldag.census() == (2, 2, 1, 1, 0)
        assert all(lab is not L.LOCAL for lab in aldag.labels.values())
        report = st.score(titanic_context_tree, titanic)
        assert report.bic == pytest.approx(10479.87, abs=0.05)

    def test_constant_column_is_context(self):
        space = space_of(2, 2, 2)
        tree = st.StagedTree.saturated(space).replace_level(2, (0, 0, 1, 2))
        aldag, _ = st.staged_tree_to_aldag(tree)
        assert aldag.labels[(1, 2)] is L.CONTEXT

    def test_cross_column_repeat_is_local(self):
        space = space_of(2, 2, 2)
        tree = st.StagedTree.saturated(space).replace_level(2, (0, 1, 1, 0))
        aldag, _ = st.staged_tree_to_aldag(tree)
        assert aldag.labels[(1, 2)] is L.LOCAL

    def test_partial_needs_strict_level_subset(self):
        # three levels of x1: two share a stage in every context, never all three
        space = space_of(2, 3, 2)
        tree = st.StagedTree.saturated(space).replace_level(2, (0, 0, 1, 2, 2, 3))
        aldag, _ = st.staged_tree_to_aldag(tree)
        assert aldag.labels[(1, 2)] is L.PARTIAL

    def test_evidence_records_matrix_profile(self, titanic_generic_tree):
        _, evidence = st.staged_tree_to_aldag(titanic_generic_tree)
        ev = evidence[(1, 2)]
        assert ev.label is L.LOCAL
        # Gender has two levels, so the matrix has 2 rows and 4 context columns
        assert len(ev.column_counts) == 4
        assert len(ev.row_counts) == 2
        assert max(ev.column_counts) > 1          # the edge is present
        assert min(ev.column_counts) > 1          # no context witness
        assert ev.context_witnesses == ()
        assert ev.partial_witnesses == ()
        assert sum(ev.row_counts) > ev.total_distinct   # a symbol recurs across rows
        with pytest.raises(KeyError):
            evidence[(0, 1)] if (0, 1) not in evidence else evidence[(9, 9)]

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(hs.data())
    def test_evidence_matches_tuple_walk(self, draw):
        tree = draw_tree(draw)
        aldag, evidence = st.staged_tree_to_aldag(tree)
        sizes = tree.space.level_counts
        expected = {(j, i): fields for i in range(1, tree.p)
                    for j, fields in classify_level_by_tuples(sizes, i, tree.symbols_at(i)).items()}
        assert set(evidence) == set(expected)
        for (j, i), ev in evidence.items():
            assert ev.label is aldag.labels[(j, i)]
            assert (aldag.labels[(j, i)].value, ev.column_counts, ev.row_counts,
                    ev.total_distinct, ev.context_witnesses,
                    ev.partial_witnesses) == expected[(j, i)]

    def test_context_witness_names_the_context(self):
        space = space_of(2, 2, 2)
        tree = st.StagedTree.saturated(space).replace_level(2, (0, 0, 1, 2))
        _, evidence = st.staged_tree_to_aldag(tree)
        ev = evidence[(1, 2)]
        assert ev.context_witnesses == (((0, 0),),)   # the column x0 = 0

    def test_labelling_decodes_no_witness(self, monkeypatch):
        # x2 given (x0, x1): partial in x1; x3 ignores x2 when x0 = 0 (context);
        # x4 is x2 xor x3 (local)
        tree = st.StagedTree(space_of(2, 3, 2, 2, 2), (
            (0, 1), (0, 0, 1, 2, 2, 3), (0,) * 6 + (1, 2) * 3,
            tuple(x2 ^ x3 for *_, x2, x3 in itertools.product(range(2), range(3),
                                                              range(2), range(2)))))

        def no_decoding(self, columns):
            raise AssertionError("a witness context was decoded")
        monkeypatch.setattr(st.EdgeEvidence, "_contexts", no_decoding)
        aldag, evidence = st.staged_tree_to_aldag(tree)
        assert {(2, 3): L.CONTEXT, (1, 2): L.PARTIAL, (3, 4): L.LOCAL}.items() \
            <= aldag.labels.items()
        assert set(evidence[(3, 4)].column_counts) == {2}
        # the witnesses are read through that one decoder when asked for
        with pytest.raises(AssertionError, match="decoded"):
            evidence[(2, 3)].context_witnesses
        with pytest.raises(AssertionError, match="decoded"):
            evidence[(1, 2)].partial_witnesses


class TestMinimality:
    def test_returned_dag_is_minimal(self):
        # the expansion of the returned DAG refines the input staging (the
        # DAG's model contains the tree's), and dropping any edge breaks that
        rng = np.random.default_rng(11)
        for _ in range(60):
            space = random_space(rng, int(rng.integers(2, 5)))
            tree = random_staging(rng, space)
            aldag, _ = st.staged_tree_to_aldag(tree)
            expanded = st.dag_to_staged_tree(aldag.dag, space)
            assert st.staging_refines(expanded, tree)
            for edge in aldag.dag.edges:
                smaller = st.Dag(space.p, aldag.dag.edges - {edge})
                assert not st.staging_refines(
                    st.dag_to_staged_tree(smaller, space), tree)

    def test_edge_set_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            space = random_space(rng, int(rng.integers(2, 5)))
            tree = random_staging(rng, space)
            aldag, _ = st.staged_tree_to_aldag(tree)
            assert set(aldag.dag.edges) == dag_edges_brute_force(tree)


class TestClassifyEdgeOracle:
    def test_context_instance(self):
        space = space_of(2, 2, 2)
        tree = st.StagedTree.saturated(space).replace_level(2, (0, 0, 1, 2))
        assert st.classify_edge_oracle(tree, 1, 2) is L.CONTEXT

    def test_local_instance(self):
        space = space_of(2, 2, 2)
        tree = st.StagedTree.saturated(space).replace_level(2, (0, 1, 1, 0))
        assert st.classify_edge_oracle(tree, 1, 2) is L.LOCAL

    def test_absent_edge_rejected(self):
        space = space_of(2, 2)
        with pytest.raises(st.InvalidArgumentError):
            st.classify_edge_oracle(st.StagedTree.one_stage(space), 0, 1)

    def test_agrees_with_fast_classification_and_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            space = random_space(rng, int(rng.integers(2, 5)))
            tree = random_staging(rng, space)
            aldag, _ = st.staged_tree_to_aldag(tree)
            for i in range(1, space.p):
                for j in range(i):
                    reference = edge_label_brute_force(tree, j, i)
                    if (j, i) in aldag.labels:
                        assert aldag.labels[(j, i)].value == reference
                        assert st.classify_edge_oracle(tree, j, i) == aldag.labels[(j, i)]
                    else:
                        assert reference is None


class TestDSeparation:
    def test_age_gender_given_class_survived(self, titanic_dag):
        assert st.d_separated(titanic_dag, {3}, {1}, {0, 2})

    def test_age_gender_given_class_only(self, titanic_dag):
        assert not st.d_separated(titanic_dag, {3}, {1}, {0})

    def test_empty_side_is_separated(self, titanic_dag):
        assert st.d_separated(titanic_dag, set(), {1}, set())
        assert st.d_separated(titanic_dag, {3}, set(), {0, 1})

    def test_overlap_rejected(self, titanic_dag):
        with pytest.raises(st.InvalidArgumentError):
            st.d_separated(titanic_dag, {1}, {1}, set())
        with pytest.raises(st.InvalidArgumentError):
            st.d_separated(titanic_dag, {1}, {2}, {2})
        with pytest.raises(st.InvalidArgumentError):
            st.d_separated(titanic_dag, {9}, {1}, set())

    def test_collider_opens_on_conditioning(self):
        dag = st.Dag(3, frozenset({(0, 2), (1, 2)}))
        assert st.d_separated(dag, {0}, {1}, set())
        assert not st.d_separated(dag, {0}, {1}, {2})

    def test_agrees_with_path_enumeration(self):
        rng = np.random.default_rng(14)
        for _ in range(150):
            p = int(rng.integers(2, 6))
            edges = frozenset((j, i) for i in range(p) for j in range(i)
                              if rng.random() < 0.5)
            dag = st.Dag(p, edges)
            pool = list(range(p))
            rng.shuffle(pool)
            a, b = {pool[0]}, {pool[1]}
            c = set(pool[2:2 + int(rng.integers(0, p - 1))])
            assert st.d_separated(dag, a, b, c) == d_separated_by_paths(dag, a, b, c)


class TestDependenceSubtree:
    def test_zero_parent_target(self, titanic, titanic_dag):
        # drop every edge into Gender so it has no parents
        dag = st.Dag(4, frozenset({(0, 2), (0, 3), (2, 3)}))
        tree = st.fit(st.dag_to_staged_tree(dag, titanic.space), titanic)
        aldag, _ = st.staged_tree_to_aldag(tree)
        sub = st.dependence_subtree(tree, aldag, 1)
        assert sub.space.names == ("Gender",)
        assert sub.stage_vectors == ()
        dist = sub.distributions_at(0)[0]
        assert dist == pytest.approx((1731 / 2201, 470 / 2201))

    def test_all_predecessor_parents_restrict_to_identity(
            self, titanic, titanic_generic_tree):
        fitted = st.fit(titanic_generic_tree, titanic)
        aldag, _ = st.staged_tree_to_aldag(fitted)
        assert aldag.dag.parents(3) == (0, 1, 2)
        sub = st.dependence_subtree(fitted, aldag, 3)
        assert sub.space.names == ("Class", "Gender", "Survived", "Age")
        assert sub.symbols_at(3) == st.canonical_symbols(fitted.symbols_at(3))
        assert sub.symbols_at(1) == (0, 1, 2, 3)        # shallow levels saturated
        assert sub.distributions_at(3) == st.fit(
            titanic_generic_tree, titanic).distributions_at(3)

    @pytest.mark.parametrize("aldag_p,target,match", [
        (3, 1, "disagree on p"),
        (2, 2, "target 2 out of range"),
    ], ids=["aldag-of-other-p", "target-out-of-range"])
    def test_refused(self, aldag_p, target, match):
        tree = st.StagedTree.saturated(space_of(2, 2))
        with pytest.raises(st.InvalidArgumentError, match=match):
            st.dependence_subtree(tree, st.Aldag(aldag_p, {}), target)

    def test_marginalizes_away_nonparents(self):
        # 4 variables; the target's stage vector ignores x0 entirely
        space = space_of(2, 3, 2, 2)
        pattern = (0, 1, 1, 2, 2, 2)
        vector = pattern + pattern
        tree = st.StagedTree.saturated(space).replace_level(3, vector)
        aldag, _ = st.staged_tree_to_aldag(tree)
        assert aldag.dag.parents(3) == (1, 2)
        sub = st.dependence_subtree(tree, aldag, 3)
        assert sub.space.names == ("x1", "x2", "x3")
        assert sub.space.level_counts == (3, 2, 2)
        assert sub.symbols_at(1) == (0, 1, 2)
        assert sub.symbols_at(2) == pattern
        # one singleton stage, one pair, one triple
        sizes = sorted(sub.symbols_at(2).count(s) for s in set(sub.symbols_at(2)))
        assert sizes == [1, 2, 3]

    def test_inconsistent_parent_set_rejected(self):
        space = space_of(2, 2, 2)
        tree = st.StagedTree.saturated(space)   # depends on both predecessors
        aldag = st.Aldag(3, {(1, 2): L.TOTAL})
        with pytest.raises(st.InvalidArgumentError):
            st.dependence_subtree(tree, aldag, 2)


    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(hs.data())
    def test_matches_configuration_walk(self, draw):
        tree = draw_tree(draw)
        counts = draw.draw(hs.lists(hs.integers(0, 9), min_size=tree.space.n_cells,
                                    max_size=tree.space.n_cells))
        if draw.draw(hs.booleans()):
            tree = st.fit(tree, st.Dataset(tree.space, np.array(counts, dtype=np.int64)))
        target = draw.draw(hs.integers(0, tree.p - 1))
        if draw.draw(hs.booleans()):
            aldag, _ = st.staged_tree_to_aldag(tree)
        else:
            # any parent set, so that some of them leave out a variable the staging uses
            parents = draw.draw(hs.sets(hs.integers(0, target - 1))) if target else set()
            dag = st.Dag(tree.p, frozenset((j, target) for j in parents))
            aldag = st.Aldag(tree.p, {e: L.TOTAL for e in dag.edges})
        try:
            expected = dependence_subtree_by_configurations(
                tree, aldag.dag.parents(target), target)
        except ValueError:
            with pytest.raises(st.InvalidArgumentError):
                st.dependence_subtree(tree, aldag, target)
        else:
            sub = st.dependence_subtree(tree, aldag, target)
            assert sub == expected  # stagings and fitted distributions


class TestRoundTripSampled:
    def test_round_trip_p5_p6(self):
        rng = np.random.default_rng(15)
        for p in (5, 6):
            for _ in range(15):
                space = random_space(rng, p)
                edges = frozenset((j, i) for i in range(p) for j in range(i)
                                  if rng.random() < 0.4)
                dag = st.Dag(p, edges)
                aldag, _ = st.staged_tree_to_aldag(st.dag_to_staged_tree(dag, space))
                assert aldag.dag == dag
                assert all(lab is L.TOTAL for lab in aldag.labels.values())
