from __future__ import annotations

import json
import math
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

import stagetrees as st
from stagetrees.cli import main


@pytest.fixture(scope="module")
def titanic_csv():
    with resources.as_file(resources.files("stagetrees.data") / "titanic.csv") as p:
        yield str(p)


@pytest.fixture()
def fig1_files(tmp_path, titanic, titanic_dag):
    dag_path = tmp_path / "dag.json"
    space_path = tmp_path / "space.json"
    st.save_dag(titanic_dag, dag_path, names=titanic.space.names)
    st.save_space(titanic.space, space_path)
    return str(dag_path), str(space_path)


@pytest.fixture()
def wide_csv(tmp_path):
    """Count CSV over 16 binary variables, two observed rows."""
    csv = tmp_path / "wide.csv"
    names = [f"v{i}" for i in range(16)]
    csv.write_text(",".join(names + ["count"]) + "\n"
                   + ",".join(["0"] * 16 + ["3"]) + "\n"
                   + ",".join(["1"] * 16 + ["2"]) + "\n")
    return str(csv)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "learn", "--data", "x.csv")[0] == 2

    def test_bad_choice(self, capsys, tmp_path):
        code, _, _ = run(capsys, "learn", "--data", "x.csv",
                         "--algo", "simulated-annealing",
                         "--out", str(tmp_path / "m.json"))
        assert code == 2


class TestScore:
    def test_known_model_bic(self, capsys, tmp_path, titanic_csv, fig1_files):
        dag_path, space_path = fig1_files
        model = tmp_path / "model.json"
        code, out, _ = run(capsys, "convert", "--dag", dag_path,
                           "--space", space_path, "--out", str(model))
        assert code == 0
        assert json.loads(out)["stages_per_level"] == [4, 8, 8]
        code, out, _ = run(capsys, "score", "--model", str(model),
                           "--data", titanic_csv, "--count-column", "count")
        assert code == 0
        report = json.loads(out)
        assert abs(report["bic"] - 10502.28) < 0.5
        assert report["n"] == 2201
        assert report["df"] == 23

    def test_enumerate_orders_model_scores_its_own_data(self, capsys, tmp_path, titanic_csv):
        model = tmp_path / "m.json"
        code, out, _ = run(capsys, "learn", "--data", titanic_csv, "--count-column", "count",
                           "--enumerate-orders", "--out", str(model))
        assert code == 0
        learned = json.loads(out)
        assert learned["order"] != ["Class", "Gender", "Survived", "Age"]
        code, out, _ = run(capsys, "score", "--model", str(model),
                           "--data", titanic_csv, "--count-column", "count")
        assert code == 0
        assert json.loads(out) == learned["score"]

    def test_holdout_levels_in_other_order(self, capsys, tmp_path, titanic_csv):
        model = tmp_path / "m.json"
        code, out, _ = run(capsys, "learn", "--data", titanic_csv, "--count-column", "count",
                           "--out", str(model))
        assert code == 0
        header, *rows = Path(titanic_csv).read_text().splitlines()
        holdout = tmp_path / "holdout.csv"
        holdout.write_text("\n".join([header] + rows[::-1]) + "\n")
        assert st.read_csv(holdout, count_column="count").space != st.read_csv(
            titanic_csv, count_column="count").space
        code, scored, _ = run(capsys, "score", "--model", str(model),
                              "--data", str(holdout), "--count-column", "count")
        assert code == 0
        assert json.loads(scored) == json.loads(out)["score"]

    @pytest.mark.parametrize("body,error", [
        ("Class,Gender,Survived,Age\n1st,Male,No,Child\nCrew,Other,Yes,Adult\n",
         "unknown-level"),
        ("Class,Gender,Survived\n1st,Male,No\nCrew,Female,Yes\n", "unknown-variable"),
    ], ids=["extra-level", "missing-column"])
    def test_data_outside_the_model_space(self, capsys, tmp_path, fig1_files, body, error):
        model = tmp_path / "model.json"
        run(capsys, "convert", "--dag", fig1_files[0], "--space", fig1_files[1],
            "--out", str(model))
        csv = tmp_path / "holdout.csv"
        csv.write_text(body)
        code, _, err = run(capsys, "score", "--model", str(model), "--data", str(csv))
        assert code == 3
        assert json.loads(err)["code"] == error

    def test_convert_name_mismatch(self, capsys, tmp_path, titanic, titanic_dag):
        dag_path = tmp_path / "dag.json"
        space_path = tmp_path / "space.json"
        st.save_dag(titanic_dag, dag_path, names=("W", "X", "Y", "Z"))
        st.save_space(titanic.space, space_path)
        code, _, err = run(capsys, "convert", "--dag", str(dag_path),
                           "--space", str(space_path),
                           "--out", str(tmp_path / "m.json"))
        assert code == 4
        assert json.loads(err)["kind"] == "model"


class TestDsep:
    def test_separated(self, capsys, fig1_files):
        code, out, _ = run(capsys, "dsep", "--dag", fig1_files[0],
                           "--a", "Age", "--b", "Gender",
                           "--c", "Class", "Survived")
        assert (code, out.strip()) == (0, "true")

    def test_connected(self, capsys, fig1_files):
        code, out, _ = run(capsys, "dsep", "--dag", fig1_files[0],
                           "--a", "Age", "--b", "Gender", "--c", "Class")
        assert (code, out.strip()) == (0, "false")

    def test_indices_accepted(self, capsys, fig1_files):
        code, out, _ = run(capsys, "dsep", "--dag", fig1_files[0],
                           "--a", "3", "--b", "1", "--c", "0", "2")
        assert (code, out.strip()) == (0, "true")

    def test_unknown_name(self, capsys, fig1_files):
        code, _, err = run(capsys, "dsep", "--dag", fig1_files[0],
                           "--a", "Fare", "--b", "Gender")
        assert code == 4
        assert "Fare" in json.loads(err)["error"]


class TestLearn:
    def test_bhc_writes_document(self, capsys, tmp_path, titanic_csv):
        out_path = tmp_path / "m.json"
        code, out, _ = run(capsys, "learn", "--data", titanic_csv,
                           "--count-column", "count", "--out", str(out_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["order"] == ["Class", "Gender", "Survived", "Age"]
        assert summary["score"]["bic"] < 10502.28
        assert sum(summary["aldag_census"].values()) <= 6
        doc = st.ModelDocument.load(out_path)
        assert doc.aldag is not None and doc.score is not None
        assert doc.tree.fitted is not None

    def test_repeat_runs_byte_identical(self, capsys, tmp_path, titanic_csv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "learn", "--data", titanic_csv, "--count-column",
                   "count", "--algo", "hc", "--out", str(a))[0] == 0
        assert run(capsys, "learn", "--data", titanic_csv, "--count-column",
                   "count", "--algo", "hc", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_order(self, capsys, tmp_path, titanic_csv):
        out_path = tmp_path / "m.json"
        code, out, _ = run(capsys, "learn", "--data", titanic_csv,
                           "--count-column", "count",
                           "--order", "Gender", "Class", "Survived", "Age",
                           "--algo", "hc", "--out", str(out_path))
        assert code == 0
        assert json.loads(out)["order"] == ["Gender", "Class", "Survived", "Age"]
        doc = st.ModelDocument.load(out_path)
        assert doc.tree.space.names == ("Gender", "Class", "Survived", "Age")

    def test_enumerate_orders_with_fixed_last(self, capsys, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("a,b,count\n0,0,30\n0,1,10\n1,0,10\n1,1,30\n")
        out_path = tmp_path / "m.json"
        code, out, _ = run(capsys, "learn", "--data", str(csv),
                           "--count-column", "count", "--enumerate-orders",
                           "--fix-last", "b", "--out", str(out_path))
        assert code == 0
        assert json.loads(out)["order"][-1] == "b"

    @pytest.mark.parametrize("algo", ["bhc", "hc", "csbhc"])
    def test_enumerate_orders_learns_the_winners_tree(self, capsys, tmp_path, titanic_csv,
                                                      algo):
        args = ["learn", "--data", titanic_csv, "--count-column", "count", "--algo", algo]
        code, out, _ = run(capsys, *args, "--enumerate-orders",
                           "--out", str(tmp_path / "orders.json"))
        assert code == 0
        winner = json.loads(out)["order"]
        code, _, _ = run(capsys, *args, "--order", *winner, "--out", str(tmp_path / "one.json"))
        assert code == 0
        searched = st.ModelDocument.load(tmp_path / "orders.json")
        learned = st.ModelDocument.load(tmp_path / "one.json")
        assert searched.tree.stage_vectors == learned.tree.stage_vectors
        assert searched.score.bic == learned.score.bic

    def test_order_selects_the_variables(self, capsys, tmp_path, titanic_csv):
        args = ["learn", "--data", titanic_csv, "--count-column", "count",
                "--algo", "hc", "--out", str(tmp_path / "m.json"), "--order"]
        code, out, _ = run(capsys, *args, "Survived", "Class")
        assert code == 0
        assert json.loads(out)["order"] == ["Survived", "Class"]
        code, _, err = run(capsys, *args, "Survived", "Deck")
        assert code == 3
        assert json.loads(err)["code"] == "unknown-variable"

    def test_repeated_order_name(self, capsys, tmp_path, titanic_csv):
        code, _, err = run(capsys, "learn", "--data", titanic_csv, "--count-column", "count",
                           "--order", "Class", "Class", "Age",
                           "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert json.loads(err)["code"] == "unknown-variable"

    def test_fix_last_unknown_variable(self, capsys, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("a,b,count\n0,0,30\n0,1,10\n1,0,10\n1,1,30\n")
        code, _, err = run(capsys, "learn", "--data", str(csv), "--count-column", "count",
                           "--enumerate-orders", "--fix-last", "c",
                           "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert json.loads(err)["code"] == "unknown-variable"

    def test_fix_last_requires_enumeration(self, capsys, tmp_path, titanic_csv):
        code, _, err = run(capsys, "learn", "--data", titanic_csv,
                           "--count-column", "count", "--fix-last", "Age",
                           "--out", str(tmp_path / "m.json"))
        assert code == 4
        assert json.loads(err)["kind"] == "model"


class TestRefine:
    def test_with_dag(self, capsys, tmp_path, titanic_csv, fig1_files):
        out_path = tmp_path / "m.json"
        code, out, _ = run(capsys, "refine", "--data", titanic_csv,
                           "--count-column", "count", "--dag", fig1_files[0],
                           "--out", str(out_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["aldag_census"] == {
            "total": 0, "context": 1, "partial": 3, "context/partial": 0, "local": 1}
        assert abs(summary["score"]["bic"] - 10451.72) / 10451.72 < 0.01

    def test_without_dag_learns_one(self, capsys, tmp_path, titanic_csv):
        out_path = tmp_path / "m.json"
        code, out, _ = run(capsys, "refine", "--data", titanic_csv,
                           "--count-column", "count", "--out", str(out_path))
        assert code == 0
        edges = {tuple(e) for e in json.loads(out)["dag_edges"]}
        assert edges == {(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)}

    def test_dag_variable_missing_from_data(self, capsys, tmp_path, fig1_files):
        csv = tmp_path / "three.csv"
        csv.write_text("Class,Gender,Survived\n1st,Male,No\nCrew,Female,Yes\n")
        code, _, err = run(capsys, "refine", "--data", str(csv), "--dag", fig1_files[0],
                           "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert json.loads(err)["code"] == "unknown-variable"

    def test_columns_outside_the_dag_are_ignored(self, capsys, tmp_path, titanic_csv,
                                                 fig1_files):
        header, *rows = Path(titanic_csv).read_text().splitlines()
        wider = tmp_path / "wider.csv"
        wider.write_text("\n".join([f"Deck,{header}"] + [f"{i % 3},{row}" for i, row in
                                                        enumerate(rows)]) + "\n")
        outputs = []
        for data in (titanic_csv, str(wider)):
            code, out, _ = run(capsys, "refine", "--data", data, "--count-column", "count",
                               "--dag", fig1_files[0], "--out", str(tmp_path / "m.json"))
            assert code == 0
            outputs.append((out, (tmp_path / "m.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_hc_rejected(self, capsys, tmp_path, titanic_csv, fig1_files):
        code, _, _ = run(capsys, "refine", "--data", titanic_csv,
                         "--count-column", "count", "--dag", fig1_files[0],
                         "--algo", "hc", "--out", str(tmp_path / "m.json"))
        assert code == 2


class TestAldagAndSubtree:
    def test_pipeline(self, capsys, tmp_path, titanic_csv, fig1_files):
        model = tmp_path / "model.json"
        labeled = tmp_path / "labeled.json"
        dot = tmp_path / "g.dot"
        run(capsys, "refine", "--data", titanic_csv, "--count-column", "count",
            "--dag", fig1_files[0], "--out", str(model))
        code, out, _ = run(capsys, "aldag", "--model", str(model),
                           "--out", str(labeled), "--dot", str(dot))
        assert code == 0
        assert len(json.loads(out)["edges"]) == 5
        assert st.ModelDocument.load(labeled).aldag is not None
        assert dot.read_text().startswith("digraph")

        sub = tmp_path / "sub.json"
        sub_dot = tmp_path / "s.dot"
        code, out, _ = run(capsys, "subtree", "--model", str(model),
                           "--aldag", str(labeled), "--target", "Survived",
                           "--out", str(sub), "--dot", str(sub_dot))
        assert code == 0
        assert json.loads(out)["variables"] == ["Class", "Gender", "Survived"]
        loaded = st.ModelDocument.load(sub)
        assert loaded.tree.p == 3
        assert sub_dot.exists()

    def test_subtree_without_aldag_classifies_inline(self, capsys, tmp_path,
                                                     titanic_csv, fig1_files):
        model = tmp_path / "model.json"
        run(capsys, "refine", "--data", titanic_csv, "--count-column", "count",
            "--dag", fig1_files[0], "--out", str(model))
        code, out, _ = run(capsys, "subtree", "--model", str(model),
                           "--target", "Age", "--out", str(tmp_path / "s.json"))
        assert code == 0
        assert "Age" in json.loads(out)["variables"]


class TestErrorChannels:
    def test_missing_data_file(self, capsys, tmp_path, fig1_files):
        model = tmp_path / "model.json"
        run(capsys, "convert", "--dag", fig1_files[0], "--space", fig1_files[1],
            "--out", str(model))
        code, _, err = run(capsys, "score", "--model", str(model),
                           "--data", str(tmp_path / "absent.csv"))
        assert code == 3
        assert json.loads(err)["code"] == "unreadable"

    def test_ragged_data(self, capsys, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("a,b\n0,0\n1\n")
        code, _, err = run(capsys, "learn", "--data", str(csv),
                           "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert json.loads(err)["code"] == "ragged"

    @pytest.mark.parametrize("body", [
        b"a,b\n0," + b"1" * 200_000 + b"\n1,0\n",   # longer than csv's field limit
        b"a,b\n0,\xff\xfe\n1,0\n",                  # not UTF-8
    ], ids=["field-too-long", "not-utf8"])
    def test_unreadable_data(self, capsys, tmp_path, body):
        csv = tmp_path / "bad.csv"
        csv.write_bytes(body)
        code, _, err = run(capsys, "learn", "--data", str(csv),
                           "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert json.loads(err)["code"] == "unreadable"

    def test_corrupt_model(self, capsys, tmp_path, titanic_csv):
        model = tmp_path / "model.json"
        model.write_text("{}")
        code, _, err = run(capsys, "score", "--model", str(model),
                           "--data", titanic_csv, "--count-column", "count")
        assert code == 4
        assert json.loads(err)["kind"] == "model"

    def test_unwritable_output(self, capsys, tmp_path, titanic_csv):
        code, _, err = run(capsys, "learn", "--data", titanic_csv,
                           "--count-column", "count",
                           "--out", str(tmp_path / "no" / "dir" / "m.json"))
        assert code == 3
        assert json.loads(err)["code"] == "unwritable"

    def test_space_mismatch_is_model_error(self, capsys, tmp_path, fig1_files):
        model = tmp_path / "model.json"
        run(capsys, "convert", "--dag", fig1_files[0], "--space", fig1_files[1],
            "--out", str(model))
        csv = tmp_path / "other.csv"
        csv.write_text("a,b\n0,0\n1,1\n")
        code, _, err = run(capsys, "score", "--model", str(model),
                           "--data", str(csv))
        assert code == 4
        assert json.loads(err)["kind"] == "model"

    @pytest.mark.parametrize("body,flags", [
        ("a,b\n1,x\n1,y\n", ()),
        ("Class,Gender,Survived,Age\n1st,Male,No,Child\n", ("--no-header",)),
    ], ids=["degenerate-column", "no-header"])
    def test_space_mismatch_decided_by_header(self, capsys, tmp_path, fig1_files, body, flags):
        # the file's columns alone decide; its other faults do not matter
        model = tmp_path / "model.json"
        run(capsys, "convert", "--dag", fig1_files[0], "--space", fig1_files[1],
            "--out", str(model))
        csv = tmp_path / "other.csv"
        csv.write_text(body)
        code, _, err = run(capsys, "score", "--model", str(model), "--data", str(csv), *flags)
        assert code == 4
        assert json.loads(err)["kind"] == "model"

    def test_oversized_space_is_model_error(self, capsys, tmp_path):
        # 40 binary variables: 2**40 cells would be allocated by the expansion
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"format_version": 1, "variables": [
            {"name": f"v{i}", "levels": ["0", "1"]} for i in range(40)]}))
        dag = tmp_path / "dag.json"
        st.save_dag(st.Dag.empty(40), dag)
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "convert", "--dag", str(dag), "--space", str(space),
                               "--out", str(tmp_path / "m.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert json.loads(err)["code"] == "UnsupportedSizeError"
        assert peak < 8 * 2**20

    def test_oversized_order_search_is_model_error(self, capsys, tmp_path, wide_csv):
        # the order search's level tables would hold 16 * 3**15 rows
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "learn", "--data", wide_csv, "--count-column", "count",
                               "--enumerate-orders", "--algo", "hc",
                               "--out", str(tmp_path / "m.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert json.loads(err)["code"] == "UnsupportedSizeError"
        assert peak < 8 * 2**20

    def test_oversized_bhc_is_model_error(self, capsys, tmp_path, wide_csv):
        # the deepest saturated level has 2**15 stages, and bhc's
        # 2**15 x 2**15 candidate matrix would take 8 GiB
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "learn", "--data", wide_csv, "--count-column", "count",
                               "--algo", "bhc", "--out", str(tmp_path / "m.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert json.loads(err)["code"] == "UnsupportedSizeError"
        assert peak < 16 * 2**20  # the saturated start tree takes about 7 MiB


@pytest.fixture(scope="module")
def titanic_model(tmp_path_factory, titanic_csv):
    """The `learn` document for Titanic, as parsed JSON: fitted, labeled, scored and traced."""
    path = tmp_path_factory.mktemp("model") / "model.json"
    assert main(["learn", "--data", titanic_csv, "--count-column", "count",
                 "--out", str(path)]) == 0
    return json.loads(path.read_text())


def set_at(doc: dict, keys: tuple, value) -> dict:
    """A copy of the document with the field at the key path replaced."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return doc


class TestDocumentFieldTypes:
    """Fields of the wrong JSON type are refused (exit 4), never coerced."""

    def test_nan_probabilities(self, capsys, tmp_path, titanic_csv, titanic_model):
        model = tmp_path / "nan.json"
        model.write_text(json.dumps(set_at(titanic_model, ("fitted", 1, 0), [math.nan] * 2)))
        code, out, err = run(capsys, "score", "--model", str(model),
                             "--data", titanic_csv, "--count-column", "count")
        assert (code, out) == (4, "")
        assert json.loads(err)["kind"] == "model"

    @pytest.mark.parametrize("keys,value", [
        (("format_version",), True),
        (("format_version",), 1.0),
        (("variables", 3, "levels"), "CA"),
        (("stage_vectors", 0, 1), 1.0),
        (("stage_vectors", 0, 1), "1"),
        (("stage_vectors", 0, 1), True),
        (("fitted", 1, 0), ["0.5", "0.5"]),
        (("fitted", 1, 0), [True, False]),
        (("aldag", "edges", 0, 0), 0.0),
        (("score", "df"), 2.9),
        (("score", "n"), "2201"),
        (("score", "bic"), "10432.8"),
        (("trace", 0, "level"), 1.0),
        (("trace", 0, "stages", 1), 1.0),
    ], ids=["version-true", "version-float", "levels-string", "stage-float", "stage-string",
            "stage-bool", "probability-string", "probability-bool", "edge-float", "df-float",
            "n-string", "bic-string", "trace-level-float", "trace-stage-float"])
    def test_model(self, capsys, tmp_path, titanic_csv, titanic_model, keys, value):
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(set_at(titanic_model, keys, value)))
        code, _, err = run(capsys, "score", "--model", str(model),
                           "--data", titanic_csv, "--count-column", "count")
        assert code == 4
        assert json.loads(err)["code"] == "InvalidArgumentError"

    @pytest.mark.parametrize("keys,value", [
        (("format_version",), True),
        (("p",), 2.9),
        (("p",), "2"),
        (("edges", 0, 0), 0.7),
        (("edges", 0, 0), "0"),
        (("variables",), "ab"),
    ], ids=["version-true", "p-float", "p-string", "edge-float", "edge-string",
            "names-string"])
    def test_dag(self, capsys, tmp_path, keys, value):
        dag = tmp_path / "dag.json"
        good = {"format_version": 1, "p": 2, "variables": ["a", "b"], "edges": [[0, 1]]}
        dag.write_text(json.dumps(set_at(good, keys, value)))
        code, _, err = run(capsys, "dsep", "--dag", str(dag), "--a", "0", "--b", "1")
        assert code == 4
        assert json.loads(err)["code"] == "InvalidArgumentError"

    @pytest.mark.parametrize("keys,value", [
        (("format_version",), 1.0),
        (("variables", 0, "levels"), "xyz"),
    ], ids=["version-float", "levels-string"])
    def test_space(self, capsys, tmp_path, keys, value):
        dag = tmp_path / "dag.json"
        st.save_dag(st.Dag.empty(2), dag)
        space = tmp_path / "space.json"
        good = {"format_version": 1, "variables": [{"name": "a", "levels": ["x", "y", "z"]},
                                                   {"name": "b", "levels": ["0", "1"]}]}
        space.write_text(json.dumps(set_at(good, keys, value)))
        code, _, err = run(capsys, "convert", "--dag", str(dag), "--space", str(space),
                           "--out", str(tmp_path / "m.json"))
        assert code == 4
        assert json.loads(err)["code"] == "InvalidArgumentError"
