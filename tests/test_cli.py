import codecs
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmcensus
import dmcensus.census
import dmcensus.cli
from dmcensus import ArcMatrix, build_census, emit_dot, oracle_census, run_cli, weight
from dmcensus.canonical import clear_cache
from dmcensus.cli import (
    parse_census_csv,
    parse_census_jsonl,
    render_census_csv,
    render_census_jsonl,
    render_census_text,
)
from dmcensus.generate import _canonical_rows, class_count

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
        assert parse_census_csv("\n" + render_census_csv(report)) == report


def test_jsonl_round_trip(census_d2):
    for p in range(5):
        report = census_d2(p)
        text = render_census_jsonl(report, {})
        assert parse_census_jsonl(text) == report
        assert parse_census_jsonl(text.replace("\n", "\n \n")) == report  # blank lines


@pytest.mark.parametrize("p, d", [(1, 62), (2, 33), (10, 1)])
def test_round_trip_at_the_largest_degrees(p, d):
    # the largest degree at p = 1 and at p = 2, and the bracketed p = 10
    # monomials: every field stays far under the csv module's field limit
    report = build_census(p, d)
    assert parse_census_csv(render_census_csv(report)) == report
    assert parse_census_jsonl(render_census_jsonl(report, {})) == report


def test_weights_are_computed_only_where_records_are_parsed(monkeypatch):
    # The renderers read each weight off its entry; parsing outside input
    # runs core.weight once per record.
    report = build_census(4, 2)
    calls = []

    def counting_weight(matrix, d):
        calls.append(matrix)
        return weight(matrix, d)

    monkeypatch.setattr(dmcensus.census, "weight", counting_weight)
    monkeypatch.setattr(dmcensus.cli, "weight", counting_weight)
    text = render_census_csv(report)
    render_census_jsonl(report, {})
    render_census_text(report, {})
    assert calls == []
    assert parse_census_csv(text) == report
    assert calls == [entry.canonical for entry in report.entries]


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
P2_CSV = render_census_csv(build_census(2, 2))
P2_JSONL = render_census_jsonl(build_census(2, 2), {})
# the p=2 census with its first two classes swapped and reranked
P2_UNSORTED = (
    "2,2,1,4,2,4,x11 x12 x21 x22\n2,2,2,1,2,1,x12 x12 x21 x21\n2,2,3,1,2,1,x11 x11 x22 x22\n"
)


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_census_csv, ""),
        (parse_census_csv, CSV_HEADER),
        pytest.param(parse_census_csv, "\n" + CSV_HEADER + "\n", id="csv-blank-lines-only"),
        pytest.param(parse_census_csv, CSV_HEADER + '1,2,1,1,1,1,"x11\nx11"\n\n1,2\n',
                     id="csv-short-row-after-quoted-line-break"),
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
        # number spellings the renderer never writes
        pytest.param(parse_census_csv, P2_CSV.replace("2,2,1,1,", "2,2,+1,1,", 1), id="csv-plus"),
        pytest.param(parse_census_csv, P2_CSV.replace("\n2,2,1,", "\n 2,2,01,", 1), id="csv-pad"),
        pytest.param(parse_census_csv, P3_CSV.replace("3,2,2,24,", "3,2,2,2_4,"), id="csv-underscore"),
        pytest.param(parse_census_jsonl, jsonl_p1(d=1, monomial="x11", matrix=[[True]]),
                     id="jsonl-bool"),
        pytest.param(parse_census_jsonl, P2_JSONL.replace("[[0,2],[2,0]]", "[[0.0,2],[2,0e0]]"),
                     id="jsonl-float"),
    ],
)
def test_census_parsers_raise_value_error(parse, text):
    with pytest.raises(ValueError):
        parse(text)


def test_a_record_past_the_largest_degree_is_refused_before_parsing(monkeypatch):
    # outside input of a huge one-node census costs no memory past its text;
    # the CSV reader's field limit refuses a monomial of more than 131,072
    # characters before any record is read, so that one is shorter
    d = 10**6
    texts = [CSV_HEADER + f"1,{d},1,1,1,1," + " ".join(["x11"] * 10**4) + "\n",
             jsonl_p1(d=d, monomial=" ".join(["x11"] * d), matrix=[[d]])]

    def refuse(text):
        raise AssertionError("parse_monomial ran")

    monkeypatch.setattr(dmcensus.cli, "parse_monomial", refuse)
    for parse, text in zip((parse_census_csv, parse_census_jsonl), texts):
        with pytest.raises(ValueError, match=f"record 1: d={d} exceeds the largest degree, 62"):
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


# sha256 of stdout of census at every desk-scale size and format, and of
# oracle and verify: the ranks, counts and canonical monomials are the
# published census and must stay byte-identical.
STDOUT_SHA256 = [
    ("census -p 0 --format text", "baf2a700b5afb472ad544855e775d1da0c03883b43b86fa92b7964b8b4a919f8"),
    ("census -p 0 --format csv", "bd37d831dbf2f0cc4dc3d88325dd5c4b6dcd6ea298a5acaaca7bedecf3610bd9"),
    ("census -p 0 --format jsonl", "9398cf782005aa0c0ef548a9d7d48e42a05d3529ed368dc138ed504b79df8dd1"),
    ("census -p 1 --format text", "bf637bdbfa07c8c1fcc76c6ee6afb13084a11a49474d6829e2d192ccc1f1ce15"),
    ("census -p 1 --format csv", "efa6a9faec4e5cf7216891c2ed0de62424e8280e7912dbe2ba714ace1d8f2f8c"),
    ("census -p 1 --format jsonl", "5bcacb6ba5bad4d97d7fbbe8311f5563b0698d14b2dbf19a3a8fd2f292904298"),
    ("census -p 2 --format text", "683c426fa76a7398c709323268ae621ef3412ece1b416f087479ca8cbcdb80ec"),
    ("census -p 2 --format csv", "05e054ece7cb7959e719281bb75dadd97306d04a29919269ccc6504b635446cc"),
    ("census -p 2 --format jsonl", "849f8a514017db73e2d5dd03420f8fe49784c4325a10e214d2a9837a3c8a7407"),
    ("census -p 3 --format text", "024df31b4ecb5a122c5b8e3aa13c24c8bea5c13f7e6980e3a27300ef72383666"),
    ("census -p 3 --format csv", "9af51c5ede87f55cc09586be4ac4c3b6524fcf76cd5e811c7ce6985a24891fa2"),
    ("census -p 3 --format jsonl", "c0078808ebec15c20b85812b2601fe2ccb879ada0c5f9c1c2ad534ff16f2a71e"),
    ("census -p 4 --format text", "7ede110f71711c7636477a0e70e42caf7907d1024352e1269510c15fb9e33a34"),
    ("census -p 4 --format csv", "5acdce5728b0521f6cdc3f391add2a764bcdd945167a9849231af2278558edc5"),
    ("census -p 4 --format jsonl", "66af0b9ffeb48c0dc68c82daac34a66b177d587adb2dedac598d9057fecf3762"),
    ("census -p 5 --format text", "f7e27542bf960859912967e96c645a25c3522130e174e13135d527bcbe91718f"),
    ("census -p 5 --format csv", "cac007bf35998e3dc18d09f3bf0cd4f6989f495f42c006d8fcf2f67d363ab6a8"),
    ("census -p 5 --format jsonl", "b0f876e5f6b81af16516288000483b8f82c3366e30a98b8544a55bb4bf4e56b5"),
    ("oracle -p 0 -d 3 --format csv", "2d80b93e149445eeac5a0a8b7a84f2a8fa870bf145377e664725351841ee5142"),
    # 62 is the largest degree admitted at any p
    ("oracle -p 1 -d 62 --format csv", "465a973e7182c9a3ef641ebc93f1a21345ab42dcabf4f2b0f89af6e1cc49d243"),
    ("oracle -p 4 -d 3 --format csv", "d83db8b9446189cfa19c82411b2c7a5d029a99686034fd88d618c924a82f6f52"),
    # the most words per matrix: 2,704,156 words over 13 matrices, and 756,756 over 231
    ("oracle -p 2 -d 12 --format csv", "c13e47070dccd93a05cea2539a59bf763e3e1696aba2fc799d602ec6004f18bd"),
    ("oracle -p 3 -d 5 --format csv", "1dd54a38cefb09406809ef8b74d940824b50b972b51999690b32d5896429a0c6"),
    ("oracle -p 5 --format text", "f7e27542bf960859912967e96c645a25c3522130e174e13135d527bcbe91718f"),
    ("oracle -p 6 -d 1 --format csv", "ac13970cf599da2feec11d41de22938b07a7ed78dd160353b3a7f62bd52803de"),
    ("oracle -p 7 -d 1 --format csv", "4ed57a4943b9d4160dbdee35287bcbc2e945880b49f28cc87ce72cd33ab11e92"),
    ("verify --all", "6f044d995e42448900009a97283b731b07bf22d8a6203c11b5030b30f4e1ed0b"),
    # every p = 10 class names node 10, so its monomial prints bracketed
    ("census -p 10 -d 1 --format csv", "2b975a7891b58784073c2a34ce8e678b2c34b4666e721400bb2c1408c75c31b7"),
    ("census -p 10 -d 1 --format text", "89839b2ec4b85df164755ca72a17af35c48d94211a9c633968d2a6815ee59e78"),
    # argv lists, since a monomial holds spaces: class 5,40 relabeled, and 2*I_5
    (["lookup", "-p", "5", "--monomial", "x13 x13 x22 x25 x34 x34 x41 x41 x52 x55"],
     "095dabdd3b1c9528c96ab31bbd9b2f3ffec0957dc6ebc28ee7a7d8499b4da24d"),
    (["render", "--class", "5,85"], "7766279be9bb1b28042662cdcd02a19d64c9f1f7611fba2dc4e49e0c2bbcbd3b"),
]


@pytest.mark.parametrize(
    "command, digest", STDOUT_SHA256, ids=lambda v: " ".join(v) if isinstance(v, list) else None
)
def test_stdout_is_byte_identical_to_the_recorded_digest(command, digest, capsys):
    assert run_cli(command.split() if isinstance(command, str) else command) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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


def test_verify_reports_an_oracle_disagreement(monkeypatch, capsys):
    def tampered(p, d):
        report = oracle_census(p, d)
        first, middle, last = report.entries
        first = first._replace(cardinality=2)
        last = last._replace(canonical=ArcMatrix(((1, 0), (0, 1))))
        return report._replace(entries=(first, middle, last))

    monkeypatch.setattr(dmcensus.cli, "oracle_census", tampered)
    assert run_cli(["verify", "-p", "2"]) == 1
    out = capsys.readouterr().out
    assert (
        "oracle cross-check: FAIL\n"
        "  only in analytic census: 2 0; 0 2\n"
        "  only in oracle census: 1 0; 0 1\n"
        "  0 2; 2 0: analytic 1 vs oracle 2\n"
    ) in out
    assert "verification: FAIL" in out


def test_verify_catches_a_generated_class_that_is_not_the_least_relabeling(monkeypatch, capsys):
    # One p = 3 class leaves the generator relabeled by i -> 2 - i, with a
    # result that agrees with it (canonical = those rows, identity witness),
    # so every check inside build_census holds; only the oracle's orbit tells.
    def flip(rows):
        return tuple(row[::-1] for row in rows[::-1])

    stream = list(_canonical_rows(3, 2))
    index = next(i for i, (rows, _) in enumerate(stream) if flip(rows) != rows)
    rows, result = stream[index]
    flipped = ArcMatrix(flip(rows))
    stream[index] = (flipped.entries,
                     result._replace(canonical=flipped, witness=tuple(range(3))))
    monkeypatch.setattr(dmcensus.census, "_canonical_rows", lambda p, d: iter(stream))
    monkeypatch.setattr(dmcensus.canonical, "_memo", {})  # the build stores the result
    assert run_cli(["verify", "-p", "3"]) == 1
    out = capsys.readouterr().out
    assert (
        "oracle cross-check: FAIL\n"
        f"  only in analytic census: {flipped}\n"
        f"  only in oracle census: {ArcMatrix(rows)}\n"
    ) in out
    assert "verification: FAIL" in out


def test_verify_reports_an_unmatched_record(tmp_path, capsys):
    extra = tmp_path / "extra.csv"
    extra.write_text(
        "p,rank,cardinality,monomial,note\n"
        "2,1,1,x11 x11 x22 x22,\n"
        "2,2,4,x11 x12 x22 x21,\n"
        "2,3,1,x12 x12 x21 x21,\n"
        "2,4,1,x11 + x22,\n"
    )
    assert run_cli(["verify", "-p", "2", "--paper-data", str(extra)]) == 1
    out = capsys.readouterr().out
    assert "matched 3, corrected 0, mismatched 0, unmatched 1\n" in out
    assert "  unmatched record 2,4,1: unparseable monomial: " in out
    assert "has no catalog record" not in out
    assert "verification: FAIL" in out


def test_verify_reports_a_class_no_record_claims(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text(
        "p,rank,cardinality,monomial,note\n"
        "2,1,1,x11 x11 x22 x22,\n"
        "2,3,1,x12 x12 x21 x21,\n"
    )
    assert run_cli(["verify", "-p", "2", "--paper-data", str(short)]) == 1
    out = capsys.readouterr().out
    assert "matched 2, corrected 0, mismatched 0, unmatched 0\n" in out
    assert "  computed class 2,2 (cardinality 4) has no catalog record\n" in out
    assert "verification: FAIL" in out
    # a size the catalog has no records for skips the catalog and passes
    assert run_cli(["verify", "-p", "3", "--paper-data", str(short)]) == 0
    out = capsys.readouterr().out
    assert "oracle cross-check: OK (90 words)\ncatalog: no records for p=3 (skipped)\n" in out
    assert out.endswith("summary: 0 catalog records; 0 matched directly, 0 corrected\n"
                        "verification: PASS\n")


def test_verify_reads_a_catalog_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    # spreadsheet programs save CSV with a UTF-8 byte-order mark
    bundled = resources.files("dmcensus").joinpath("data/reference_catalog.csv").read_bytes()
    assert not bundled.startswith(codecs.BOM_UTF8)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(bundled)
    marked.write_bytes(codecs.BOM_UTF8 + bundled)
    assert run_cli(["verify", "-p", "1", "--paper-data", str(plain)]) == 0
    expected = capsys.readouterr()
    assert run_cli(["verify", "-p", "1", "--paper-data", str(marked)]) == 0
    assert capsys.readouterr() == expected
    assert "verification: PASS" in expected.out


def test_verify_missing_catalog_file(capsys):
    assert run_cli(["verify", "--paper-data", "/nonexistent/cat.csv"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_oversized_catalog_field_exits_2(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text("p,rank,cardinality,monomial,note\n2,1,1," + "x" * 200_000 + ",\n")
    assert run_cli(["verify", "--paper-data", str(big)]) == 2
    assert capsys.readouterr().err.startswith("error: catalog CSV: ")


def test_verify_header_only_catalog_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("p,rank,cardinality,monomial,note\n")
    assert run_cli(["verify", "--paper-data", str(empty)]) == 2
    captured = capsys.readouterr()
    assert "verification: PASS" not in captured.out
    assert captured.err.startswith("error: catalog CSV has no records")


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


def test_class_budget_exits_3(capsys):
    assert run_cli(["census", "-p", "8"]) == 3
    assert capsys.readouterr().err.startswith("error: census for p=8, d=2 has 15129 classes")


def test_oracle_checks_the_class_budget(monkeypatch, capsys):
    # the oracle's class count is the census budget's, refusals included
    monkeypatch.setattr(dmcensus.census, "CLASS_BUDGET", 0)
    monkeypatch.setattr(dmcensus.census, "_word_tally", None)  # refused before any tally
    assert run_cli(["oracle", "-p", "3"]) == 3
    assert capsys.readouterr().err == (
        "error: census for p=3, d=2 has 8 classes, above the budget of 0\n"
    )


def test_count_budget_exits_3(capsys):
    assert run_cli(["oracle", "-p", "10", "-d", "3"]) == 3
    assert "exceeds the exact-count budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["oracle", "-p", "7"], ["verify", "-p", "7"]])
def test_word_budget_exits_3_before_any_output(monkeypatch, argv, capsys):
    monkeypatch.setattr(dmcensus.cli, "build_census", None)  # refused before any census runs
    monkeypatch.setattr(dmcensus.census, "_word_tally", None)
    assert run_cli(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: oracle for p=7, d=2 has 681080400 words, above the budget of 10000000\n"


def test_orbit_budget_exits_3_before_any_output(monkeypatch, capsys):
    monkeypatch.setattr(dmcensus.census, "_word_tally", None)  # refused before any tally
    assert run_cli(["oracle", "-p", "10", "-d", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: oracle for p=10, d=1 lists 152409600 relabelings, "
                   "above the budget of 20000000\n")


def test_verify_checks_the_orbit_budget_before_any_output(monkeypatch, capsys):
    # at d = 2 the word budget refuses first, so lower the orbit budget below (5,2)'s
    monkeypatch.setattr(dmcensus.census, "ORBIT_BUDGET", 10_000)
    monkeypatch.setattr(dmcensus.cli, "build_census", None)  # refused before any census runs
    assert run_cli(["verify", "-p", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: oracle for p=5, d=2 lists 10200 relabelings, "
                   "above the budget of 10000\n")


def test_verify_refuses_an_over_budget_catalog_size_before_printing(tmp_path, capsys):
    catalog = tmp_path / "seven.csv"
    catalog.write_text(
        "p,rank,cardinality,monomial,note\n"
        "2,1,1,x11 x11 x22 x22,\n"
        "7,1,1,x11 x11 x22 x22 x33 x33 x44 x44 x55 x55 x66 x66 x77 x77,\n"
    )
    assert run_cli(["verify", "--paper-data", str(catalog)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: oracle for p=7, d=2 has 681080400 words")


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "-p", "11"],  # node cap
        ["census", "-p", "2", "-d", "34"],  # count budget, just past it
        ["census", "-p", "2", "-d", "5000"],  # a count of 3,009 digits
        ["census", "-p", "10", "-d", "1000"],  # a count too long for str()
        ["census", "-p", "8"],  # class budget
        ["oracle", "-p", "7"],  # word budget
        ["verify", "-p", "7"],
        ["oracle", "-p", "10", "-d", "1"],  # orbit budget
        # the largest degree, 62, at every p: the count at p <= 1 is 1
        *([cmd, "-p", p, "-d", "63"] for cmd in ("census", "oracle") for p in ("0", "1")),
        *(["lookup", "--monomial", "x11", "-p", p, "-d", "63"] for p in ("0", "1")),
        ["render", "--class", "1,1", "-d", "63"],
        ["oracle", "-p", "1", "-d", "300", "--format", "csv"],
        ["census", "-p", "1", "-d", "100000", "--format", "csv"],
        ["census", "-p", "1", "-d", "1000000"],
    ],
)
def test_each_refusal_exits_3_with_one_short_error_line(argv, capsys):
    assert run_cli(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert err.endswith("\n") and err.count("\n") == 1
    assert len(err.encode()) < 200


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


@pytest.mark.parametrize("class_id, classes", [("2,4", 3), ("5,86", 85), ("7,2184", 2183)])
def test_render_refuses_a_rank_past_the_class_count_before_the_build(
    monkeypatch, class_id, classes, capsys
):
    def refuse(p, d):
        raise AssertionError("the census was built")

    monkeypatch.setattr(dmcensus.census, "_canonical_rows", refuse)
    assert run_cli(["render", "--class", class_id]) == 2
    p, rank = class_id.split(",")
    assert capsys.readouterr().err == (
        f"error: rank {rank} out of range; census for p={p}, d=2 has {classes} classes\n"
    )


@pytest.mark.parametrize(
    "args", [["lookup", "-p", "4", "--monomial", "x12 x12 x21 x21 x34 x34 x43 x43"],
             ["render", "--class", "4,8"], ["oracle", "-p", "4"], ["verify", "-p", "4"],
             ["census", "-p", "4"]]
)
def test_lookup_and_render_count_the_classes_once(args):
    # the budget check's count is cached, and the report check reads it there
    clear_cache()
    assert run_cli(args) == 0
    assert class_count.cache_info().misses == 1


def test_lookup_checks_the_degrees_before_the_build(monkeypatch, capsys):
    # x11 cannot be a 2-regular 7-node multigraph; no census is built to say so
    def refuse(p, d):
        raise AssertionError("the census was built")

    monkeypatch.setattr(dmcensus.census, "_canonical_rows", refuse)
    assert run_cli(["lookup", "-p", "7", "--monomial", "x11"]) == 2
    assert "deficit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, reason",
    [
        # argparse takes a value that starts with "-" for an option
        (["render", "--class", "-1,2"], "argument --class: expected one argument"),
        (["render", "--class=-1,2"], "error: node count must be nonnegative"),
    ],
)
def test_render_refuses_a_negative_designation(argv, reason, capsys):
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert reason in err


@pytest.mark.parametrize("spelling", ["+1", "0_1", "١", " 1", "01", "-0", "1.0"])
def test_cli_refuses_an_integer_not_written_as_a_plain_integer(spelling, capsys):
    for argv in (
        ["census", "-p", spelling],
        ["census", "-p", "1", "-d", spelling],
        ["lookup", "--monomial", "x11 x11", "-p", spelling],
        ["render", "--class", f"{spelling},1"],
        ["render", "--class", f"1,{spelling}"],
    ):
        assert run_cli(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: " in err


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
