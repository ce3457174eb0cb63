from __future__ import annotations

import importlib.resources
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as hs

import stagetrees as st
from conftest import space_of
from oracles import read_csv_by_rows
from stagetrees.cli import main

L = st.DependenceLabel


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


# Titanic `stagetrees learn --count-column count` document as the writer of
# format version 1 spelled it before floats took their shortest round-trip
# form: every float at 17 significant digits
OLD_LEARN_DOCUMENT = (
    '{"format_version":1,"variables":[{"name":"Class","levels":["1st","2nd","3rd","Crew"]},'
    '{"name":"Gender","levels":["Male","Female"]},{"name":"Survived","levels":["No",'
    '"Yes"]},{"name":"Age","levels":["Child","Adult"]}],"stage_vectors":[[0,0,1,2],[0,1,2,'
    '3,2,0,4,3],[0,1,0,0,0,2,0,3,1,3,3,3,0,0,0,0]],"fitted":[[[0.14766015447523853,'
    '0.12948659700136303,0.32076328941390275,0.40208995910949569]],[[0.58852459016393444,'
    '0.41147540983606556],[0.72237960339943341,0.27762039660056659],[0.97401129943502829,'
    '0.02598870056497175]],[[0.5957446808510638,0.40425531914893614],[0.027586206896551724,'
    '0.97241379310344822],[0.83599419448476053,0.16400580551523947],[0.12403100775193798,'
    '0.87596899224806202],[0.77726218097447797,0.22273781902552203]],'
    '[[0.00076045627376425851,0.99923954372623569],[0.082644628099173556,'
    '0.9173553719008265],[0.44,0.56000000000000005],[0.15119363395225463,'
    '0.8488063660477454]]],"aldag":{"edges":[[0,1,"partial"],[0,2,"partial"],[0,3,'
    '"partial"],[1,2,"local"],[1,3,"context"],[2,3,"context"]]},'
    '"score":{"log_likelihood":-5158.696748348616,"df":15,"bic":10432.843502920128,'
    '"aic":10347.393496697232,"n":2201},"trace":[{"level":1,"kind":"join","stages":[0,1],'
    '"score_before":10541.630913620364,"score_after":10537.396580702003},{"level":2,'
    '"kind":"join","stages":[3,7],"score_before":10537.396580702003,'
    '"score_after":10529.710359615301},{"level":2,"kind":"join","stages":[2,4],'
    '"score_before":10529.710359615301,"score_after":10523.088390297577},{"level":2,'
    '"kind":"join","stages":[0,5],"score_before":10523.088390297577,'
    '"score_after":10520.541300468782},{"level":3,"kind":"join","stages":[0,2],'
    '"score_before":10520.541300468782,"score_after":10512.844633387254},{"level":3,'
    '"kind":"join","stages":[0,4],"score_before":10512.844633387254,'
    '"score_after":10505.147966305727},{"level":3,"kind":"join","stages":[0,6],'
    '"score_before":10505.147966305727,"score_after":10497.4512992242},{"level":3,'
    '"kind":"join","stages":[0,12],"score_before":10497.4512992242,'
    '"score_after":10489.754632142673},{"level":3,"kind":"join","stages":[0,13],'
    '"score_before":10489.754632142673,"score_after":10482.057965061145},{"level":3,'
    '"kind":"join","stages":[0,14],"score_before":10482.057965061145,'
    '"score_after":10474.361297979618},{"level":3,"kind":"join","stages":[0,15],'
    '"score_before":10474.361297979618,"score_after":10466.664630898091},{"level":3,'
    '"kind":"join","stages":[1,8],"score_before":10466.664630898091,'
    '"score_after":10458.971737324138},{"level":3,"kind":"join","stages":[10,11],'
    '"score_before":10458.971737324138,"score_after":10451.28357544748},{"level":3,'
    '"kind":"join","stages":[7,9],"score_before":10451.28357544748,'
    '"score_after":10443.610087553696},{"level":3,"kind":"join","stages":[7,10],'
    '"score_before":10443.610087553696,"score_after":10436.068157517579},{"level":3,'
    '"kind":"join","stages":[0,3],"score_before":10436.068157517579,'
    '"score_after":10432.843502920126}]}'
    "\n"
)


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

    @pytest.mark.parametrize("text,kwargs,code", [
        ("a,b,n\nx,0,-1\ny,1,2\n", {"count_column": "n"}, "bad-count"),
        ("", {}, "empty"),
        ("a,a\nx,0\ny,1\n", {}, "unknown-variable"),
        ("a,b\nx,0\ny,1\n", {"count_column": "n"}, "unknown-variable"),
        ("a,n\nx,1\ny,2\n", {"count_column": "n", "order": ("a", "n")}, "unknown-variable"),
        ("n\n1\n2\n", {"count_column": "n"}, "empty"),
        ("a,b\nx,0\ny,1\n", {"levels": {"c": ("p", "q")}}, "unknown-variable"),
    ], ids=["negative-count", "empty-file", "duplicate-columns", "count-column-absent",
            "count-column-in-order", "no-variable-column", "levels-unknown-column"])
    def test_refusals(self, tmp_path, text, kwargs, code):
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(st.DataError) as err:
            st.read_csv(f, **kwargs)
        assert err.value.code == code

    @pytest.mark.parametrize("kwargs,error", [
        ({"order": "ab"}, st.InvalidArgumentError),
        ({"levels": {"a": "xy"}}, st.InvalidArgumentError),
        ({"count_column": "n", "levels": {"n": ["q"]}}, "unknown-variable"),
        ({"order": ["a", "n"], "levels": {"b": ["0", "1"]}}, "unknown-variable"),
    ], ids=["order-string", "levels-string", "levels-of-count-column", "levels-of-unselected"])
    def test_mistyped_order_and_levels(self, tmp_path, kwargs, error):
        f = tmp_path / "d.csv"
        f.write_text("a,b,n\nx,0,1\ny,1,2\n")
        if error == "unknown-variable":
            with pytest.raises(st.DataError) as err:
                st.read_csv(f, **kwargs)
            assert err.value.code == error
        else:
            with pytest.raises(error):
                st.read_csv(f, **kwargs)

    def test_unknown_na_policy(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\nx,0\ny,1\n")
        with pytest.raises(st.InvalidArgumentError):
            st.read_csv(f, na_policy="impute")

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

    def test_memory_ignores_an_unselected_unique_column(self, tmp_path):
        def read(rows):
            f = tmp_path / f"{rows}.csv"
            with open(f, "w") as fh:
                fh.write("id,a,b,c\n")
                fh.writelines(f"{i},{i & 1},{i >> 1 & 1},{i >> 2 & 1}\n" for i in range(rows))
            tracemalloc.start()
            try:
                data = st.read_csv(f, order=["a", "b", "c"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert data.counts.tolist() == [rows // 8] * 8
            return peak

        # every row is distinct, so each costs some 15 traced allocations:
        # 225,000 rows in all keep the test to a few seconds
        small = read(25_000)
        peak = read(200_000)
        assert peak < 4 * 2**20
        assert peak <= 1.25 * small

    def test_each_distinct_raw_row_is_parsed_once(self, tmp_path, monkeypatch):
        calls = []
        parse = st.io._parse_count
        monkeypatch.setattr(st.io, "_parse_count", lambda text: calls.append(text) or parse(text))
        f = tmp_path / "d.csv"
        f.write_text("a,b,n\n" + "x,0,1\ny,1,2\n\nx,0, 1\n" * 100)
        data = st.read_csv(f, count_column="n")
        assert len(calls) == 3
        assert data.counts.tolist() == [200, 0, 0, 200]

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

    @pytest.mark.parametrize("count", ["1_000", "\u0663", "+5"],
                             ids=["underscore", "arabic-indic-digit", "plus-sign"])
    def test_count_takes_ascii_digits_only(self, tmp_path, count):
        f = tmp_path / "d.csv"
        f.write_text(f"a,b,count\nx,0,{count}\ny,1,2\n", encoding="utf-8")
        with pytest.raises(st.DataError, match="digits 0-9") as err:
            st.read_csv(f, count_column="count")
        assert err.value.code == "bad-count"

    def test_zero_padded_count(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b,count\nx,0," + "0" * 5000 + "5\ny,1,00\n")
        assert st.read_csv(f, count_column="count").counts.tolist() == [5, 0, 0, 0]

    def test_count_total_limit(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(f"a,b,count\nx,0,{2**53 - 1}\ny,1,1\n")
        assert st.read_csv(f, count_column="count").n == 2**53
        f.write_text(f"a,b,count\nx,0,{2**53}\ny,1,1\n")
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

    @pytest.mark.parametrize("header", [True, False])
    def test_byte_order_mark_skipped(self, tmp_path, header):
        f = tmp_path / "d.csv"
        f.write_bytes(b"\xef\xbb\xbfClass,Gender\n1st,Male\n2nd,Female\n")
        data = st.read_csv(f, header=header)
        assert data.space.names == (("Class", "Gender") if header else ("v0", "v1"))
        assert data.space.levels_of(0)[0] == ("1st" if header else "Class")
        assert st.io._csv_columns(f, header) == list(data.space.names)

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


# what a generated CSV field is drawn from: values padded or quoted (around a
# separator or a line break too), and, drawn rarely, the missing-value tokens
# and the refused counts: signed, non-digit, oversized or blank
CSV_VALUES = ("x", "y", "z", " x", "y ", '"x"', '"x,y"', '"y\nz"', '" z "')
CSV_MISSING = ("NA", "?", "", "nan")
CSV_COUNTS = ("0", "1", "2", "007", " 3 ")
CSV_BAD_COUNTS = ("-1", "two", "1" * 17, "9" * 16, "")


@hs.composite
def csv_cases(draw) -> tuple[bytes, dict]:
    """The bytes of a CSV file and `read_csv` keyword arguments to read it with.

    Each fault is drawn rarely, so that about a third of the cases read a
    `Dataset` and the rest spread over every refusal.
    """
    def rarely(common, rare):
        return hs.sampled_from([*common] * 10 + [*rare])

    n_vars, counted, header = draw(hs.integers(1, 3)), draw(hs.booleans()), draw(hs.booleans())
    width = n_vars + counted
    names = list("abc"[:n_vars]) if header else [f"v{k}" for k in range(width)]
    at = draw(hs.integers(0, n_vars))
    if counted and header:
        names.insert(at, "n")
    fields = [rarely(CSV_COUNTS, CSV_BAD_COUNTS) if counted and k == at
              else rarely(CSV_VALUES, CSV_MISSING) for k in range(width)]
    full = hs.tuples(*fields).map(",".join)
    ragged = hs.lists(hs.sampled_from(CSV_VALUES), min_size=1, max_size=width + 1).filter(
        lambda row: len(row) != width).map(",".join)
    # rows come from a small pool so that they repeat
    kinds = draw(hs.lists(rarely([full], [ragged, hs.just("")]), min_size=3, max_size=6))
    pool = [draw(kind) for kind in kinds]
    rows = draw(hs.permutations(pool + draw(hs.lists(hs.sampled_from(pool), max_size=12))))
    lines = ([",".join(names)] if header else []) + rows
    eol = draw(hs.sampled_from(["\n", "\r\n"]))
    raw = [line.encode() for line in lines]
    if corrupt := draw(rarely([b""], [b"\xff\xfe", b"x\x00y"])):
        raw.insert(draw(hs.integers(0, len(raw))), corrupt)
    data = eol.encode().join(raw) + draw(hs.sampled_from([b"", eol.encode()]))
    if draw(hs.booleans()):
        data = b"\xef\xbb\xbf" + data

    kwargs = {"header": header, "na_policy": draw(hs.sampled_from(["drop-row", "error"]))}
    variables = [name for k, name in enumerate(names) if not (counted and k == at)]
    if counted:
        kwargs["count_column"] = names[at]
    if draw(hs.booleans()):
        # now and then a name that is not a variable, or a repeat
        kwargs["order"] = draw(hs.lists(hs.sampled_from(variables), min_size=1, unique=True)) + \
            draw(rarely([[]], [["q"], names[at:at + 1]]))
    selected = [name for name in kwargs.get("order", variables) if name in variables]
    if selected and draw(hs.booleans()):
        kwargs["levels"] = {name: tuple(draw(hs.lists(hs.sampled_from(["x", "y", "z", "x,y"]),
                                                      min_size=1, max_size=3, unique=True)))
                            for name in draw(hs.lists(hs.sampled_from(selected), unique=True))}
    return data, kwargs


def csv_outcome(read, path, kwargs):
    """A read's space and counts, or the error it raised."""
    try:
        data = read(path, **kwargs)
    except st.DataError as err:
        return "DataError", err.code, str(err)
    except st.InvalidArgumentError as err:
        return "InvalidArgumentError", str(err)
    return data.space, data.counts.tolist()


class TestReadCsvAgainstRows:
    """`read_csv` against `read_csv_by_rows`, which reads one line at a time."""

    @given(case=csv_cases())
    @settings(derandomize=True, deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_dataset_or_error(self, tmp_path, case):
        data, kwargs = case
        f = tmp_path / "d.csv"
        f.write_bytes(data)
        expected = csv_outcome(read_csv_by_rows, f, kwargs)
        assert csv_outcome(st.read_csv, f, kwargs) == expected
        # chunks of one and of three rows put chunk boundaries between rows
        for chunk in (1, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(st.io, "_CHUNK", chunk)
                assert csv_outcome(st.read_csv, f, kwargs) == expected, chunk

    @pytest.mark.parametrize("data,kwargs,expected", [
        # a data row spelled like the header is still found on its own line
        (b"a,n\nx,1\na,n\n", {"count_column": "n"}, ("bad-count", 3)),
        # the first line of a bad row that repeats
        (b"a,n\nx,1\n\ny,two\nx,1\ny,two\n", {"count_column": "n"}, ("bad-count", 4)),
        # a ragged line wins over an undecodable or NUL line past it, some
        # 8 KiB decoding blocks further on
        (b"a,b\n" + b"x,0\n" * 3000 + b"y\n" + b"x,1\n" * 3000 + b"\xff\n", {}, ("ragged", 3002)),
        (b"a,b\n" + b"x,0\n" * 3000 + b"y\n" + b"x,1\n" * 3000 + b"x\x00,1\n", {},
         ("ragged", 3002)),
    ], ids=["header-spelled-row", "repeated-bad-row", "ragged-before-undecodable",
            "ragged-before-nul"])
    def test_first_bad_line(self, tmp_path, data, kwargs, expected):
        f = tmp_path / "d.csv"
        f.write_bytes(data)
        code, line = expected
        outcome = csv_outcome(st.read_csv, f, kwargs)
        assert outcome == csv_outcome(read_csv_by_rows, f, kwargs)
        assert outcome[:2] == ("DataError", code)
        assert outcome[2].startswith(f"line {line}:")


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_not_written(self, tmp_path, titanic, titanic_bn_tree, value):
        doc = self.full_document(titanic, titanic_bn_tree)
        report = st.ScoreReport(doc.score.log_likelihood, doc.score.df, value,
                                doc.score.aic, doc.score.n)
        with pytest.raises(st.InvalidArgumentError, match="non-finite"):
            st.ModelDocument(doc.tree, doc.aldag, report, doc.trace).save(tmp_path / "m.json")
        assert os.listdir(tmp_path) == []

    def test_overflowing_number_rejected(self, titanic, titanic_bn_tree):
        text = self.full_document(titanic, titanic_bn_tree).to_json()
        bic = json.dumps(json.loads(text)["score"]["bic"])
        with pytest.raises(st.InvalidArgumentError, match="non-finite"):
            st.ModelDocument.from_json(text.replace(bic, "1e999"))
        with pytest.raises(st.InvalidArgumentError, match="out of range"):
            st.ModelDocument.from_json(text.replace(bic, "1" * 400))

    @pytest.mark.parametrize("build,match", [
        (lambda: st.TraceStep(1, "bogus", (0, 1), 2.0, 1.0), "unknown move kind"),
        (lambda: st.TraceStep(1.5, "join", (0, 1), 2.0, 1.0), "must be an integer"),
        (lambda: st.TraceStep(1, "join", (0, 1.9), 2.0, 1.0), "must be an integer"),
        (lambda: st.TraceStep(1, "join", (0, 1), "2.0", 1.0), "finite real"),
        (lambda: st.ModelDocument(st.StagedTree.saturated(space_of(2, 2)),
                                  score=st.ScoreReport(1.0, 1.5, 2.0, 3.0, 4)).to_json(),
         "df must be an integer"),
        (lambda: st.ModelDocument(st.StagedTree.saturated(space_of(2, 2)),
                                  score=st.ScoreReport(1.0, 2, 2.0, 3.0, 4.0)).to_json(),
         "n must be an integer"),
    ], ids=["trace-kind", "trace-level", "trace-stage", "trace-score", "score-df", "score-n"])
    def test_mistyped_record_fields_refused(self, build, match):
        # refused where the record is built or written, never saved for the loader to refuse
        with pytest.raises(st.InvalidArgumentError, match=match):
            build()

    def test_repeated_aldag_edge_rejected(self, titanic_generic_tree):
        aldag, _ = st.staged_tree_to_aldag(titanic_generic_tree)
        doc = json.loads(st.ModelDocument(titanic_generic_tree, aldag).to_json())
        doc["aldag"]["edges"].append([*doc["aldag"]["edges"][0][:2], "total"])
        with pytest.raises(st.InvalidArgumentError, match="listed twice"):
            st.ModelDocument.from_json(json.dumps(doc))

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

    def test_17_digit_document_loads_unchanged(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        with importlib.resources.as_file(
                importlib.resources.files("stagetrees") / "data" / "titanic.csv") as csv:
            assert main(["learn", "--data", str(csv), "--count-column", "count",
                         "--out", str(path)]) == 0
        capsys.readouterr()
        text = path.read_text()
        assert text != OLD_LEARN_DOCUMENT
        old, new = st.ModelDocument.from_json(OLD_LEARN_DOCUMENT), st.ModelDocument.load(path)
        assert old == new
        assert old.score == new.score
        assert old.trace.steps == new.trace.steps
        for d in range(new.tree.p):
            assert old.tree.fitted[d] == new.tree.fitted[d]
        assert old.to_json() == text


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

    def test_repeated_edge_rejected_on_load(self, tmp_path):
        # the same rule as for a labeled DAG's edges
        path = tmp_path / "dag.json"
        path.write_text(json.dumps(
            {"format_version": 1, "p": 2, "edges": [[0, 1], [0, 1]]}))
        with pytest.raises(st.InvalidArgumentError, match="listed twice"):
            st.load_dag(path)


class TestWrites:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_mode_follows_the_umask(self, tmp_path, titanic_generic_tree, umask, mode):
        aldag, _ = st.staged_tree_to_aldag(titanic_generic_tree)
        previous = os.umask(umask)
        try:
            st.ModelDocument(titanic_generic_tree, aldag).save(tmp_path / "m.json")
            st.save_dag(aldag.dag, tmp_path / "dag.json")
            st.save_space(titanic_generic_tree.space, tmp_path / "space.json")
            st.write_dot(aldag, tmp_path / "g.dot")
        finally:
            os.umask(previous)
        for name in ("m.json", "dag.json", "space.json", "g.dot"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode, name

    def test_failed_replace_leaves_no_temporary(self, tmp_path):
        (tmp_path / "out").mkdir()
        with pytest.raises(OSError):
            st.io._atomic_write(tmp_path / "out", "text")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_document_tree_and_aldag_of_other_p(self):
        with pytest.raises(st.InvalidArgumentError, match="different dimension"):
            st.ModelDocument(st.StagedTree.saturated(space_of(2, 2)), st.Aldag(3, {}))

    @pytest.mark.parametrize("call", [
        lambda d: st.save_dag(st.Dag.empty(2), d / "out", names=("a",)),
        lambda d: st.load_dag(d / "dag.json"),
        lambda d: st.write_dot(st.Aldag(2, {}), d / "out", names=("a", "b", "c")),
    ], ids=["save-dag", "dag-document", "write-dot"])
    def test_wrong_number_of_names(self, tmp_path, call):
        (tmp_path / "dag.json").write_text(json.dumps(
            {"format_version": 1, "p": 2, "variables": ["a"], "edges": []}))
        with pytest.raises(st.InvalidArgumentError, match="wrong number of variable names"):
            call(tmp_path)

    @pytest.mark.parametrize("call", [
        lambda d: st.save_dag(st.Dag.empty(2), d / "out", [1, 2]),
        lambda d: st.write_dot(st.Aldag(2, {}), d / "out", names=["a", 2]),
    ], ids=["save-dag", "write-dot"])
    def test_non_string_names_write_nothing(self, tmp_path, call):
        with pytest.raises(st.InvalidArgumentError, match="expected a string"):
            call(tmp_path)
        assert os.listdir(tmp_path) == []


class TestWriteDot:
    def test_empty_aldag(self, tmp_path):
        aldag = st.Aldag(2, {})
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
