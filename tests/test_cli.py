import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmcensus
from dmcensus import ArcMatrix, build_census, emit_dot, run_cli
from dmcensus.cli import (
    parse_census_csv,
    parse_census_jsonl,
    render_census_csv,
    render_census_jsonl,
)

SRC_DIR = str(Path(dmcensus.__file__).resolve().parent.parent)


def run_module(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "dmcensus", *args],
        capture_output=True,
        env=env,
    )


def test_emit_dot_single_node_double_loop():
    assert emit_dot(ArcMatrix(((2,),))) == "digraph class {\n  n1;\n  n1 -> n1;\n  n1 -> n1;\n}\n"


def test_emit_dot_null_graph():
    assert emit_dot(ArcMatrix(())) == "digraph class {\n}\n"


def test_emit_dot_two_nodes():
    dot = emit_dot(ArcMatrix(((1, 1), (1, 1))))
    body = dot.splitlines()[3:7]
    assert body == ["  n1 -> n1;", "  n1 -> n2;", "  n2 -> n1;", "  n2 -> n2;"]


def test_census_csv_output(capsys):
    assert run_cli(["census", "-p", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "p,d,rank,cardinality,aut_order,weight,monomial"
    assert len(lines) == 4
    assert [line.split(",")[3] for line in lines[1:]] == ["1", "4", "1"]


def test_census_jsonl_output(capsys):
    assert run_cli(["census", "-p", "3", "--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    records = [json.loads(line) for line in lines]
    assert all(
        list(r) == ["p", "d", "rank", "cardinality", "aut_order", "weight", "monomial", "matrix", "paper_rank"]
        for r in records
    )
    # catalog cross-reference covers every class and hits every catalog rank once
    assert sorted(r["paper_rank"] for r in records) == list(range(1, 9))


def test_census_text_output(capsys):
    assert run_cli(["census", "-p", "2"]) == 0
    out = capsys.readouterr().out
    assert "nodes  d  classes  total_configurations" in out
    assert "    2  2        3                     6" in out


def test_csv_round_trip(census_d2):
    for p in range(5):
        report = census_d2(p)
        assert parse_census_csv(render_census_csv(report)) == report


def test_jsonl_round_trip(census_d2):
    for p in range(5):
        report = census_d2(p)
        assert parse_census_jsonl(render_census_jsonl(report, {})) == report


CSV_HEADER = "p,d,rank,cardinality,aut_order,weight,monomial\n"
JSONL_P1 = {"p": 1, "d": 2, "rank": 1, "cardinality": 1, "aut_order": 1,
            "weight": 1, "monomial": "x11 x11", "matrix": [[2]], "paper_rank": 1}


def jsonl_p1(**changes):
    return json.dumps({**JSONL_P1, **changes})


P3_CSV = render_census_csv(build_census(3, 2))
# relabelings of canonical monomials; the second keeps the classes in ascending order
P3_RELABELED = P3_CSV.replace("x13 x13 x22 x22 x31 x31", "x11 x11 x23 x23 x32 x32")
P3_RELABELED_IN_ORDER = P3_CSV.replace("x11 x13 x21 x22 x32 x33", "x11 x12 x22 x23 x31 x33")
P2_FIRST = "2,2,1,1,2,1,x12 x12 x21 x21\n"
# the p=2 census with its first two classes swapped and reranked
P2_UNSORTED = (
    "2,2,1,4,2,4,x11 x12 x21 x22\n2,2,2,1,2,1,x12 x12 x21 x21\n2,2,3,1,2,1,x11 x11 x22 x22\n"
)


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_census_csv, ""),
        (parse_census_csv, CSV_HEADER),
        (parse_census_csv, CSV_HEADER + "1,2,1,1,0,1,x11 x11\n"),
        (parse_census_csv, CSV_HEADER + "1,2,1,1,1,2,x11 x11\n"),
        (parse_census_csv, CSV_HEADER + "1,2,1,2,1,1,x11 x11\n"),
        (parse_census_csv, CSV_HEADER + "1,2,1,1,1,1\n"),
        (parse_census_csv, CSV_HEADER + "1,2,2,1,1,1,x11 x11\n"),
        (parse_census_csv, CSV_HEADER + "1,2,1,1,1,1,x11\n"),
        (parse_census_jsonl, jsonl_p1(aut_order=0)),
        (parse_census_jsonl, "{}"),
        (parse_census_jsonl, "[1]"),
        (parse_census_jsonl, "[" * 100_000),
        (parse_census_jsonl, jsonl_p1(matrix=[[3]])),
        (parse_census_jsonl, jsonl_p1(weight=2)),
        (parse_census_jsonl, jsonl_p1(p="1")),
        (parse_census_jsonl, jsonl_p1(monomial=None)),
        pytest.param(parse_census_csv, P3_RELABELED, id="p3-relabeled-class-1"),
        pytest.param(parse_census_csv, P3_RELABELED_IN_ORDER, id="p3-relabeled-class-7"),
        (parse_census_csv, CSV_HEADER + "2,2,1,2,1,1,x12 x12 x21 x21\n"),
        (parse_census_csv, CSV_HEADER + P2_FIRST),
        (parse_census_csv, CSV_HEADER + P2_UNSORTED),
        pytest.param(
            parse_census_csv,
            CSV_HEADER + "2,34,1,1,2,1," + "x11 " * 34 + "x22 " * 33 + "x22\n",
            id="total-over-count-budget",
        ),
    ],
)
def test_census_parsers_raise_value_error(parse, text):
    with pytest.raises(ValueError):
        parse(text)


FORMATS = {
    "csv": (render_census_csv, parse_census_csv),
    "jsonl": (lambda report: render_census_jsonl(report, {}), parse_census_jsonl),
}


def assert_round_trip_or_value_error(fmt, text):
    render, parse = FORMATS[fmt]
    try:
        report = parse(text)
    except ValueError:
        return
    assert parse(render(report)) == report


@settings(max_examples=80, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(FORMATS)),
    st.one_of(st.text(), st.text().map(lambda tail: CSV_HEADER + tail)),
)
def test_census_parsers_on_arbitrary_text(fmt, text):
    assert_round_trip_or_value_error(fmt, text)


def mutate_csv(text, index, column, value):
    rows = list(csv.reader(text.splitlines()))
    row = rows[1 + index % (len(rows) - 1)]
    row[column % len(row)] = str(value)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def mutate_jsonl(text, index, column, value):
    records = [json.loads(line) for line in text.splitlines()]
    record = records[index % len(records)]
    record[sorted(record)[column % len(record)]] = value
    return "\n".join(json.dumps(r) for r in records) + "\n"


@settings(max_examples=120, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(FORMATS)),
    st.integers(0, 3),
    st.integers(0, 30),
    st.integers(0, 30),
    st.one_of(
        st.integers(-3, 100),
        st.integers(),
        st.text(max_size=20),
        st.none(),
        st.lists(st.lists(st.integers(0, 4), max_size=4), max_size=4),
    ),
)
def test_census_parsers_on_mutated_renders(census_d2, fmt, p, index, column, value):
    render, _ = FORMATS[fmt]
    mutate = mutate_csv if fmt == "csv" else mutate_jsonl
    assert_round_trip_or_value_error(fmt, mutate(render(census_d2(p)), index, column, value))


def test_census_runs_are_byte_identical(capsys):
    run_cli(["census", "-p", "4", "--format", "jsonl"])
    first = capsys.readouterr().out
    run_cli(["census", "-p", "4", "--format", "jsonl"])
    second = capsys.readouterr().out
    assert first == second


def test_oracle_command_matches_census(capsys):
    run_cli(["census", "-p", "3", "--format", "csv"])
    census_out = capsys.readouterr().out
    run_cli(["oracle", "-p", "3", "--format", "csv"])
    oracle_out = capsys.readouterr().out
    assert census_out == oracle_out


def test_verify_single_p(capsys):
    assert run_cli(["verify", "-p", "2"]) == 0
    out = capsys.readouterr().out
    assert "== p=2, d=2 ==" in out
    assert "verification: PASS" in out


def test_verify_all(capsys):
    assert run_cli(["verify", "--all"]) == 0
    out = capsys.readouterr().out
    assert "summary: 123 catalog records; 122 matched directly, 1 corrected" in out
    assert "corrected 3,3,3" in out
    assert "verification: PASS" in out


def test_verify_detects_tampered_catalog(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "p,rank,cardinality,monomial,note\n"
        "2,1,1,x11 x11 x22 x22,\n"
        "2,2,5,x11 x12 x22 x21,\n"
        "2,3,1,x12 x12 x21 x21,\n"
    )
    assert run_cli(["verify", "-p", "2", "--paper-data", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "mismatched 2,2,5" in out
    assert "verification: FAIL" in out


def test_verify_missing_catalog_file(capsys):
    assert run_cli(["verify", "--paper-data", "/nonexistent/cat.csv"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_oversized_catalog_field_exits_2(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text("p,rank,cardinality,monomial,note\n2,1,1," + "x" * 200_000 + ",\n")
    assert run_cli(["verify", "--paper-data", str(big)]) == 2
    assert capsys.readouterr().err.startswith("error: catalog CSV: ")


def test_lookup_null_graph(capsys):
    assert run_cli(["lookup", "--monomial", "1", "-p", "0"]) == 0
    assert capsys.readouterr().out == "class 0,1 cardinality 1\n"


def test_lookup_two_node_class(capsys):
    assert run_cli(["lookup", "--monomial", "x11 x12 x22 x21", "-p", "2"]) == 0
    assert capsys.readouterr().out == "class 2,2 cardinality 4\n"


def test_lookup_parse_error_exits_2(capsys):
    assert run_cli(["lookup", "--monomial", "x11 + x12", "-p", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_lookup_degree_error_exits_2(capsys):
    assert run_cli(["lookup", "--monomial", "x11 x11 x23 x32 x32", "-p", "3"]) == 2
    err = capsys.readouterr().err
    assert "deficit" in err


def test_node_cap_exits_3(capsys):
    assert run_cli(["census", "-p", "11"]) == 3
    assert "error:" in capsys.readouterr().err


def test_count_budget_exits_3(capsys):
    assert run_cli(["oracle", "-p", "10", "-d", "3"]) == 3
    assert "exceeds the exact-count budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "-p", "5", "-d", "20"],
        ["lookup", "--monomial", "x11", "-p", "5", "-d", "20"],
        ["render", "--class", "5,1", "-d", "20"],
    ],
)
def test_analytic_census_over_budget_exits_3(argv, capsys):
    assert run_cli(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_render_class(capsys):
    assert run_cli(["render", "--class", "1,1", "--format", "dot"]) == 0
    assert capsys.readouterr().out == emit_dot(ArcMatrix(((2,),)))


def test_render_null_class(capsys):
    assert run_cli(["render", "--class", "0,1"]) == 0
    assert capsys.readouterr().out == "digraph class {\n}\n"


def test_render_bad_designation(capsys):
    assert run_cli(["render", "--class", "2:1"]) == 2
    capsys.readouterr()
    assert run_cli(["render", "--class", "2,99"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_usage_errors_exit_2():
    assert run_cli([]) == 2
    assert run_cli(["census"]) == 2
    assert run_cli(["census", "-p", "-1"]) == 2
    assert run_cli(["census", "-p", "2", "-d", "0"]) == 2
    assert run_cli(["frobnicate"]) == 2


def test_help_exits_0(capsys):
    assert run_cli(["--help"]) == 0
    assert "census" in capsys.readouterr().out


def test_module_entry_point():
    proc = run_module("census", "-p", "2", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.decode().splitlines()[0] == "p,d,rank,cardinality,aut_order,weight,monomial"


def test_diagnostics_go_to_stderr_not_stdout():
    proc = run_module("census", "-p", "11")
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert b"error:" in proc.stderr
