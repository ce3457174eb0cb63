from __future__ import annotations

import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

import stagetrees as st

L = st.DependenceLabel


def space_of(*sizes: int) -> st.SampleSpace:
    return st.SampleSpace(tuple(
        (f"x{i}", tuple(str(v) for v in range(k))) for i, k in enumerate(sizes)))


def parse_dot(text: str) -> tuple[int, int]:
    """Minimal DOT checker; returns (node statements, edge statements)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    assert re.fullmatch(r"digraph \w+ \{", lines[0]), lines[0]
    assert lines[-1] == "}"
    ident = r'("(?:[^"\\]|\\.)*"|[\w.#]+)'
    attrs = r"(?: \[[^\[\]]*\])?"
    nodes = edges = 0
    for ln in lines[1:-1]:
        assert ln.endswith(";"), ln
        stmt = ln[:-1]
        if re.fullmatch(r"(rankdir=\w+|(node|edge|graph) \[[^\[\]]*\])", stmt):
            continue
        if re.fullmatch(rf"{ident} -> {ident}{attrs}", stmt):
            edges += 1
        elif re.fullmatch(rf"{ident}{attrs}", stmt):
            nodes += 1
        else:
            raise AssertionError(f"unparseable DOT statement: {ln}")
    return nodes, edges


class TestReadCsv:
    def test_na_row_dropped(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\nx,1\nNA,2\ny,2\n")
        data = st.read_csv(f)
        assert data.n == 2
        assert data.space.names == ("a", "b")

    def test_na_policy_error(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\nx,1\n?,2\n")
        with pytest.raises(st.DataError) as err:
            st.read_csv(f, na_policy="error")
        assert err.value.code == "missing"

    def test_expanded_titanic_matches_bundled(self, tmp_path, titanic):
        rows = ["Class,Gender,Survived,Age"]
        for idx, config in enumerate(titanic.space.configurations()):
            names = [titanic.space.levels_of(q)[v] for q, v in enumerate(config)]
            rows.extend([",".join(names)] * int(titanic.counts[idx]))
        f = tmp_path / "expanded.csv"
        f.write_text("\n".join(rows) + "\n")
        data = st.read_csv(f, levels={
            "Class": ("1st", "2nd", "3rd", "Crew"), "Gender": ("Male", "Female"),
            "Survived": ("No", "Yes"), "Age": ("Child", "Adult")})
        assert data.n == 2201
        assert data.space.n_cells == 32
        assert data == titanic

    def test_first_appearance_level_order(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\nzebra,1\napple,0\nzebra,0\n")
        data = st.read_csv(f)
        assert data.space.levels_of(0) == ("zebra", "apple")
        assert data.space.levels_of(1) == ("1", "0")

    def test_order_selects_and_permutes(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b,c\nx,0,p\ny,1,q\nx,1,q\n")
        data = st.read_csv(f, order=("c", "a"))
        assert data.space.names == ("c", "a")
        assert data.n == 3

    def test_unknown_order_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\nx,0\ny,1\n")
        with pytest.raises(st.DataError) as err:
            st.read_csv(f, order=("a", "nope"))
        assert err.value.code == "unknown-variable"

    def test_repeated_order_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\nx,0\ny,1\n")
        with pytest.raises(st.DataError) as err:
            st.read_csv(f, order=("a", "b", "a"))
        assert err.value.code == "unknown-variable"

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(st.DataError) as err:
            st.read_csv(tmp_path / "missing.csv")
        assert err.value.code == "unreadable"

    def test_empty_after_drop(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\nNA,0\nNA,1\n")
        with pytest.raises(st.DataError) as err:
            st.read_csv(f)
        assert err.value.code == "empty"

    def test_ragged_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\nx,0\ny\n")
        with pytest.raises(st.DataError) as err:
            st.read_csv(f)
        assert err.value.code == "ragged"

    @pytest.mark.parametrize("text,kwargs,code,line", [
        ("a,b\nx,y\n\ny,x\nx\n", {}, "ragged", 5),
        ("a,n\nx,1\n\ny,two\n", {"count_column": "n"}, "bad-count", 4),
        ("x,y\n\n\nNA,x\n", {"header": False, "na_policy": "error"}, "missing", 4),
    ], ids=["ragged", "bad-count", "missing"])
    def test_errors_name_physical_lines(self, tmp_path, text, kwargs, code, line):
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(st.DataError) as err:
            st.read_csv(f, **kwargs)
        assert err.value.code == code
        assert str(err.value).startswith(f"line {line}:")

    def test_memory_grows_with_configurations_not_rows(self, tmp_path):
        f = tmp_path / "d.csv"
        configs = [f"{a},{b},{c}\n" for a in "01" for b in "xy" for c in "pq"]
        f.write_text("a,b,c\n" + "".join(configs) * 25_000)
        tracemalloc.start()
        try:
            data = st.read_csv(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.n == 200_000
        assert data.counts.tolist() == [25_000] * 8
        assert peak < 2 * 2**20

    def test_zero_count_row_declares_levels(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b,n\nz,1,0\ny,0,2\nz,0,1\n")
        data = st.read_csv(f, count_column="n")
        assert data.space.levels_of(0) == ("z", "y")
        assert data.space.levels_of(1) == ("1", "0")
        assert data.counts.tolist() == [0, 1, 0, 2]

    def test_count_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b,count\nx,0,3\ny,1,2\n")
        data = st.read_csv(f, count_column="count")
        assert data.n == 5
        assert data.space.names == ("a", "b")

    def test_bad_count(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b,count\nx,0,three\ny,1,2\n")
        with pytest.raises(st.DataError) as err:
            st.read_csv(f, count_column="count")
        assert err.value.code == "bad-count"

    def test_pinned_levels_reject_strangers(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\nx,0\nz,1\n")
        with pytest.raises(st.DataError) as err:
            st.read_csv(f, levels={"a": ("x", "y")})
        assert err.value.code == "unknown-level"

    def test_degenerate_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\nx,0\nx,1\n")
        with pytest.raises(st.DataError) as err:
            st.read_csv(f)
        assert err.value.code == "degenerate"

    def test_headerless(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,0\ny,1\n")
        data = st.read_csv(f, header=False)
        assert data.space.names == ("v0", "v1")
        assert data.n == 2

    def test_count_round_trip(self, tmp_path, titanic):
        rows = ["Class,Gender,Survived,Age"]
        for idx, config in enumerate(titanic.space.configurations()):
            names = [titanic.space.levels_of(q)[v] for q, v in enumerate(config)]
            rows.extend([",".join(names)] * int(titanic.counts[idx]))
        f = tmp_path / "expanded.csv"
        f.write_text("\n".join(rows) + "\n")
        again = st.read_csv(f, levels={
            "Class": ("1st", "2nd", "3rd", "Crew"), "Gender": ("Male", "Female"),
            "Survived": ("No", "Yes"), "Age": ("Child", "Adult")})
        assert again == titanic


class TestLoadTitanic:
    def test_shape(self, titanic):
        assert titanic.n == 2201
        assert titanic.space.names == ("Class", "Gender", "Survived", "Age")
        assert titanic.space.levels_of(0) == ("1st", "2nd", "3rd", "Crew")
        assert titanic.space.levels_of(3) == ("Child", "Adult")

    def test_known_margins(self, titanic):
        t = titanic.tensor()
        assert int(t.sum(axis=(0, 1, 3))[1]) == 711       # survivors
        assert int(t.sum(axis=(0, 2, 3))[1]) == 470       # female passengers+crew
        assert int(t[3].sum()) == 885                     # crew members


class TestModelDocument:
    def full_document(self, titanic, titanic_bn_tree) -> st.ModelDocument:
        tree, trace = st.bhc(titanic_bn_tree, titanic)
        aldag, _ = st.staged_tree_to_aldag(tree)
        return st.ModelDocument(st.fit(tree, titanic), aldag,
                                st.score(tree, titanic), trace)

    def test_byte_stable_round_trip(self, tmp_path, titanic, titanic_bn_tree):
        doc = self.full_document(titanic, titanic_bn_tree)
        path = tmp_path / "model.json"
        doc.save(path)
        first = path.read_bytes()
        loaded = st.ModelDocument.load(path)
        loaded.save(path)
        assert path.read_bytes() == first
        assert loaded.tree == doc.tree
        assert loaded.aldag == doc.aldag
        assert loaded.score == doc.score
        assert loaded.trace == doc.trace

    def test_bare_tree_round_trip(self, tmp_path):
        space = space_of(2, 3)
        doc = st.ModelDocument(st.StagedTree.saturated(space))
        path = tmp_path / "m.json"
        doc.save(path)
        loaded = st.ModelDocument.load(path)
        assert loaded.tree == doc.tree
        assert loaded.aldag is None and loaded.score is None and loaded.trace is None

    def test_construction_canonicalizes(self):
        space = space_of(2, 2)
        doc = st.ModelDocument(st.StagedTree(space, (("q", "p"),)))
        assert doc.tree.symbols_at(1) == (0, 1)

    def test_partially_fitted_round_trip(self, tmp_path, titanic, titanic_generic_tree):
        fitted = st.fit(titanic_generic_tree, titanic)
        aldag, _ = st.staged_tree_to_aldag(fitted)
        sub = st.dependence_subtree(fitted, aldag, 2)
        path = tmp_path / "sub.json"
        st.ModelDocument(sub).save(path)
        loaded = st.ModelDocument.load(path)
        assert loaded.tree == sub
        assert loaded.tree.fitted[0] is None
        assert loaded.tree.distributions_at(2) == sub.distributions_at(2)

    def test_no_stray_temp_files(self, tmp_path, titanic, titanic_bn_tree):
        doc = self.full_document(titanic, titanic_bn_tree)
        path = tmp_path / "model.json"
        doc.save(path)
        doc.save(path)
        assert os.listdir(tmp_path) == ["model.json"]

    def test_malformed_documents_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        for load in (st.ModelDocument.load, st.load_dag, st.load_space):
            path.write_text("not json at all {")
            with pytest.raises(st.InvalidArgumentError):
                load(path)
            path.write_text(json.dumps({"format_version": 99}))
            with pytest.raises(st.InvalidArgumentError):
                load(path)
            path.write_text(json.dumps({"format_version": 1, "variables": []}))
            with pytest.raises(st.InvalidArgumentError):
                load(path)
            with pytest.raises(st.InvalidArgumentError):
                load(tmp_path / "absent.json")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["fitted", "score", "trace"])
    def test_non_finite_numbers_rejected(self, titanic, titanic_bn_tree, field, value):
        doc = json.loads(self.full_document(titanic, titanic_bn_tree).to_json())
        if field == "fitted":
            doc["fitted"][1][0] = [value, value]
        elif field == "score":
            doc["score"]["bic"] = value
        else:
            doc["trace"][0]["score_after"] = value
        # json.dumps writes NaN, Infinity and -Infinity, tokens json.loads accepts
        with pytest.raises(st.InvalidArgumentError, match="non-finite"):
            st.ModelDocument.from_json(json.dumps(doc))

    def test_overflowing_number_rejected(self, titanic, titanic_bn_tree):
        text = self.full_document(titanic, titanic_bn_tree).to_json()
        bic = json.dumps(json.loads(text)["score"]["bic"])
        with pytest.raises(st.InvalidArgumentError, match="non-finite"):
            st.ModelDocument.from_json(text.replace(bic, "1e999"))
        with pytest.raises(st.InvalidArgumentError, match="out of range"):
            st.ModelDocument.from_json(text.replace(bic, "1" * 400))

    def test_float_precision_survives(self, tmp_path, titanic, titanic_bn_tree):
        doc = self.full_document(titanic, titanic_bn_tree)
        path = tmp_path / "model.json"
        doc.save(path)
        loaded = st.ModelDocument.load(path)
        assert loaded.score.bic == doc.score.bic
        assert loaded.score.log_likelihood == doc.score.log_likelihood
        for d in range(4):
            for sym, dist in doc.tree.fitted[d].items():
                assert loaded.tree.fitted[d][sym] == dist


class TestDagAndSpaceDocuments:
    def test_dag_round_trip(self, tmp_path, titanic_dag):
        path = tmp_path / "dag.json"
        st.save_dag(titanic_dag, path, names=("Class", "Gender", "Survived", "Age"))
        dag, names = st.load_dag(path)
        assert dag == titanic_dag
        assert names == ["Class", "Gender", "Survived", "Age"]

    def test_dag_without_names(self, tmp_path):
        path = tmp_path / "dag.json"
        st.save_dag(st.Dag.empty(2), path)
        dag, names = st.load_dag(path)
        assert dag == st.Dag.empty(2)
        assert names is None

    def test_space_round_trip(self, tmp_path, titanic):
        path = tmp_path / "space.json"
        st.save_space(titanic.space, path)
        assert st.load_space(path) == titanic.space

    def test_bad_edge_rejected_on_load(self, tmp_path):
        path = tmp_path / "dag.json"
        path.write_text(json.dumps(
            {"format_version": 1, "p": 2, "edges": [[1, 0]]}))
        with pytest.raises(st.InvalidArgumentError):
            st.load_dag(path)


class TestWriteDot:
    def test_empty_aldag(self, tmp_path):
        aldag = st.Aldag(st.Dag.empty(2), {})
        path = tmp_path / "g.dot"
        st.write_dot(aldag, path, names=("a", "b"))
        nodes, edges = parse_dot(path.read_text())
        assert (nodes, edges) == (2, 0)

    def test_six_edge_aldag_color_counts(self, tmp_path, titanic_generic_tree):
        aldag, _ = st.staged_tree_to_aldag(titanic_generic_tree)
        path = tmp_path / "g.dot"
        st.write_dot(aldag, path, names=("C", "G", "S", "A"))
        text = path.read_text()
        nodes, edges = parse_dot(text)
        assert edges == 6
        assert text.count("color=blue") == 3
        assert text.count("color=red") == 2
        assert text.count("color=green") == 1
        assert text.count("color=black") == 0

    def test_deterministic_output(self, tmp_path, titanic_generic_tree):
        aldag, _ = st.staged_tree_to_aldag(titanic_generic_tree)
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        st.write_dot(aldag, a)
        st.write_dot(aldag, b)
        assert a.read_bytes() == b.read_bytes()

    def test_tree_dot_one_node_per_vertex(self, tmp_path, titanic_generic_tree):
        path = tmp_path / "t.dot"
        st.write_dot(titanic_generic_tree, path)
        nodes, edges = parse_dot(path.read_text())
        assert nodes == 1 + 4 + 8 + 16
        assert edges == 4 + 8 + 16

    def test_tree_takes_no_names(self, tmp_path, titanic_generic_tree):
        # a tree drawing shows stage ids and levels, never variable names
        path = tmp_path / "t.dot"
        st.write_dot(titanic_generic_tree, path)
        text = path.read_text()
        assert not any(f'"{name}"' in text for name in titanic_generic_tree.space.names)
        named = tmp_path / "named.dot"
        with pytest.raises(st.InvalidArgumentError):
            st.write_dot(titanic_generic_tree, named, names=titanic_generic_tree.space.names)
        assert not named.exists()

    def test_unknown_object_rejected(self, tmp_path):
        with pytest.raises(st.InvalidArgumentError):
            st.write_dot(42, tmp_path / "x.dot")
