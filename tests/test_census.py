import csv
import io
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmcensus.census
from dmcensus import (
    ArcMatrix,
    Catalog,
    CatalogRecord,
    CensusInvariantError,
    CensusReport,
    ClassId,
    CountBudgetError,
    DegreeError,
    NodeCapError,
    build_census,
    canonical_form,
    enumerate_regular_matrices,
    enumerate_words,
    class_lookup,
    compare_census,
    load_catalog,
    oracle_census,
    parse_monomial,
    total_configurations,
    verify_against_catalog,
)
from dmcensus.canonical import clear_cache
from dmcensus.census import _group_by_canonical


def test_census_two_nodes(census_d2):
    report = census_d2(2)
    assert [e.cardinality for e in report.entries] == [1, 4, 1]
    assert report.total == 6


def test_census_null_graph(census_d2):
    report = census_d2(0)
    assert len(report.entries) == 1
    assert report.entries[0].cardinality == 1
    assert str(report.entries[0].representative) == "1"


def test_grouping_rejects_a_class_short_of_a_labeled_matrix():
    tally = Counter(m.entries for m in enumerate_regular_matrices(3, 2))
    classes = _group_by_canonical(tally.items())
    assert len(classes) == 8
    # a double loop beside a complete 2-node digraph: |Aut| = 2, 3 labelings
    missing = ArcMatrix(((2, 0, 0), (0, 1, 1), (0, 1, 1)))
    assert classes[canonical_form(missing).canonical][:2] == (2, 3)
    del tally[missing.entries]
    with pytest.raises(CensusInvariantError, match="orbit-stabilizer"):
        _group_by_canonical(tally.items())



@pytest.mark.parametrize("p", [1, 3])
def test_grouping_rejects_a_repeated_labeled_matrix(p):
    stream = list(enumerate_regular_matrices(p, 2))
    stream.append(stream[-1])
    with pytest.raises(CensusInvariantError, match="arrived twice"):
        _group_by_canonical((m.entries, 1) for m in stream)


@pytest.mark.parametrize(
    "change, error",
    [
        # the same class, relabeled by i -> p-1-i: not lex-min for some class
        (
            lambda r: replace(
                r, canonical=ArcMatrix(tuple(row[::-1] for row in r.canonical.entries[::-1]))
            ),
            "not the least relabeling",
        ),
        (lambda r: replace(r, aut_order=2 * r.aut_order), "the search gives"),
    ],
    ids=["non-minimal canonical", "wrong aut_order"],
)
def test_grouping_checks_each_search_against_its_orbit(monkeypatch, change, error):
    monkeypatch.setattr(dmcensus.census, "canonical_form", lambda m: change(canonical_form(m)))
    with pytest.raises(CensusInvariantError, match=error):
        build_census(3, 2)


@pytest.mark.parametrize(
    "build, p, d, classes",
    [(build_census, 5, 2, 85), (oracle_census, 4, 3, 118), (build_census, 6, 1, 11)],
)
def test_one_canonical_search_per_class(monkeypatch, build, p, d, classes):
    searched = []
    monkeypatch.setattr(
        dmcensus.census, "canonical_form", lambda m: searched.append(m) or canonical_form(m)
    )
    clear_cache()
    report = build(p, d)
    assert len(report.entries) == len(searched) == classes
    if build is build_census:
        # the ascending stream meets each class at its canonical matrix first
        assert searched == [entry.canonical for entry in report.entries]


@pytest.mark.parametrize("d", [300, 10**6])
@pytest.mark.parametrize("build", [build_census, oracle_census])
def test_single_node_census_of_any_degree(build, d):
    (entry,) = build(1, d).entries
    assert (entry.aut_order, entry.cardinality) == (1, 1)


def test_build_census_checks_the_exact_labeled_count(monkeypatch):
    # 2*I_3 is a class of one labeled matrix; without it every other check
    # that runs before the total still holds
    doubled = ArcMatrix(((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    stream = [m for m in enumerate_regular_matrices(3, 2) if m != doubled]
    monkeypatch.setattr(dmcensus.census, "enumerate_regular_matrices", lambda p, d: iter(stream))
    with pytest.raises(CensusInvariantError, match="holds 20 labeled matrices, expected 21"):
        build_census(3, 2)


def test_build_census_refuses_an_over_budget_size():
    with pytest.raises(CountBudgetError):
        build_census(5, 20)


def test_oracle_census_refuses_an_impossible_size():
    with pytest.raises(NodeCapError):
        oracle_census(11, 2)
    with pytest.raises(CountBudgetError):
        oracle_census(5, 20)


def test_one_node_oracle_memory_is_bounded():
    # The word, its working list and the tally's d references to one shared
    # block table take about 24 bytes a position (4.6 MiB traced at this d);
    # a table per position would take 47 MiB.
    d = 2 * 10**5
    tracemalloc.start()
    try:
        oracle_census(1, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * d


@pytest.mark.parametrize(
    "replaced, error",
    [
        # (1,2,1,2) -> (1,1,1,2): a class of one labeled matrix with |Aut| = 1
        ({(1, 2, 1, 2): (1, 1, 1, 2)}, "orbit-stabilizer"),
        # both labelings of that non-regular matrix: only regularity fails
        ({(1, 2, 1, 2): (1, 1, 1, 2), (2, 1, 2, 1): (1, 2, 2, 2)}, "not 2-regular"),
    ],
)
def test_oracle_rejects_words_off_the_multiset(monkeypatch, replaced, error):
    words = [replaced.get(w, w) for w in enumerate_words(2, 2)]
    monkeypatch.setattr(dmcensus.census, "enumerate_words", lambda p, d: iter(words))
    with pytest.raises(CensusInvariantError, match=error):
        oracle_census(2, 2)


def test_census_three_nodes(census_d2):
    report = census_d2(3)
    assert len(report.entries) == 8
    assert sorted(e.cardinality for e in report.entries) == sorted(
        [1, 12, 3, 16, 24, 24, 2, 8]
    )
    assert report.total == 90


def test_census_five_nodes(census_d2):
    report = census_d2(5)
    assert len(report.entries) == 85
    assert report.total == 113400


def test_census_entry_identities(census_d2):
    for p in range(6):
        report = census_d2(p)
        fact_p = math.factorial(p)
        assert report.total == total_configurations(p, 2)
        assert [e.rank for e in report.entries] == list(range(1, len(report.entries) + 1))
        keys = [e.canonical.entries for e in report.entries]
        assert keys == sorted(keys)
        for e in report.entries:
            assert e.cardinality == e.labeled_matrix_count * e.weight
            assert e.aut_order * e.labeled_matrix_count == fact_p


def test_oracle_census_equals_build(census_d2, oracle_d2):
    for p in range(6):
        assert compare_census(census_d2(p), oracle_d2(p)).is_empty()
        assert census_d2(p) == oracle_d2(p)


def test_oracle_census_single_node():
    report = oracle_census(1, 2)
    assert len(report.entries) == 1
    assert report.entries[0].cardinality == 1


def test_oracle_census_degree_one_three_nodes():
    report = oracle_census(3, 1)
    assert sorted(e.cardinality for e in report.entries) == [1, 2, 3]
    assert report.total == 6


def test_degree_one_class_counts_are_partition_numbers():
    # d=1 classes are cycle-type classes; their number is the partition count.
    for p, partitions in enumerate([1, 1, 2, 3, 5, 7, 11]):
        report = build_census(p, 1)
        assert len(report.entries) == partitions
        assert compare_census(report, oracle_census(p, 1)).is_empty()
        for e in report.entries:
            assert e.weight == 1
            assert e.cardinality == math.factorial(p) // e.aut_order


def test_degree_three_censuses_agree():
    for p in range(4):
        assert compare_census(build_census(p, 3), oracle_census(p, 3)).is_empty()


def test_compare_census_reflexive(census_d2):
    report = census_d2(2)
    assert compare_census(report, report).is_empty()


def test_compare_census_detects_perturbation(census_d2):
    report = census_d2(2)
    tweaked = list(report.entries)
    victim = tweaked[1]
    tweaked[1] = replace(
        victim, class_id=ClassId(victim.p, victim.rank, victim.cardinality + 1)
    )
    fixture = CensusReport(report.p, report.d, tuple(tweaked), report.total + 1)
    diff = compare_census(report, fixture)
    assert not diff.is_empty()
    assert len(diff.cardinality_mismatches) == 1
    assert diff.cardinality_mismatches[0][1:] == (4, 5)


def test_compare_census_parameter_mismatch(census_d2):
    with pytest.raises(ValueError):
        compare_census(census_d2(2), census_d2(3))


def test_catalog_shape(catalog):
    assert len(catalog.records) == 123
    counts = {0: 1, 1: 1, 2: 3, 3: 8, 4: 25, 5: 85}
    sums = {0: 1, 1: 1, 2: 6, 3: 90, 4: 2520, 5: 113400}
    assert catalog.node_counts() == (0, 1, 2, 3, 4, 5)
    for p, expected in counts.items():
        records = catalog.for_p(p)
        assert len(records) == expected
        assert [r.rank for r in records] == list(range(1, expected + 1))
        assert sum(r.cardinality for r in records) == sums[p]
    flagged = [r for r in catalog.records if r.note]
    assert [(r.p, r.rank) for r in flagged] == [(3, 3)]
    assert flagged[0].note == "five factors as printed"


def test_verify_three_nodes_has_one_forced_completion(census_d2, catalog):
    verification = verify_against_catalog(census_d2(3), catalog)
    assert verification.ok()
    assert len(verification.matched) == 7
    assert len(verification.corrected) == 1
    fixed = verification.corrected[0]
    assert fixed.record.designation == "3,3,3"
    assert fixed.inserted_arc == (2, 3)
    assert fixed.entry.cardinality == 3


def test_verify_four_nodes_all_direct(census_d2, catalog):
    verification = verify_against_catalog(census_d2(4), catalog)
    assert verification.ok()
    assert len(verification.matched) == 25
    assert not verification.corrected
    assert sum(m.record.cardinality for m in verification.matched) == 2520


def test_verify_null_graph(census_d2, catalog):
    verification = verify_against_catalog(census_d2(0), catalog)
    assert verification.ok()
    assert len(verification.matched) == 1
    assert verification.matched[0].record.monomial == "1"


def test_verify_reports_cardinality_mismatch(census_d2):
    bad = Catalog((CatalogRecord(2, 1, 2, "x11 x11 x22 x22", ""),))
    verification = verify_against_catalog(census_d2(2), bad)
    assert not verification.ok()
    assert len(verification.mismatched) == 1
    assert "cardinality" in verification.mismatched[0].reason
    # the two cataloged-but-unclaimed classes are surfaced
    assert len(verification.unmatched_computed) == 2


def test_verify_never_guesses_two_missing_arcs(census_d2):
    # two factors short: no single-arc completion exists
    bad = Catalog((CatalogRecord(2, 1, 1, "x11 x22", ""),))
    verification = verify_against_catalog(census_d2(2), bad)
    assert len(verification.unmatched_catalog) == 1
    assert "single-arc" in verification.unmatched_catalog[0].reason


def test_verify_rejects_duplicate_claims(census_d2):
    dup = Catalog(
        (
            CatalogRecord(2, 1, 1, "x11 x11 x22 x22", ""),
            CatalogRecord(2, 2, 1, "x22 x22 x11 x11", ""),
        )
    )
    verification = verify_against_catalog(census_d2(2), dup)
    assert len(verification.matched) == 1
    assert len(verification.unmatched_catalog) == 1
    assert "already matched" in verification.unmatched_catalog[0].reason


def test_verify_unparseable_record(census_d2):
    bad = Catalog((CatalogRecord(2, 1, 1, "x11 + x22", ""),))
    verification = verify_against_catalog(census_d2(2), bad)
    assert len(verification.unmatched_catalog) == 1
    assert "unparseable" in verification.unmatched_catalog[0].reason


def test_class_lookup_examples(census_d2):
    assert class_lookup(census_d2(2), parse_monomial("x11 x12 x22 x21")).cardinality == 4
    assert class_lookup(census_d2(1), parse_monomial("x11 x11")) == ClassId(1, 1, 1)
    assert class_lookup(census_d2(2), parse_monomial("x12 x12 x21 x21")).cardinality == 1


def test_class_lookup_propagates_degree_error(census_d2):
    with pytest.raises(DegreeError):
        class_lookup(census_d2(2), parse_monomial("x11 x11"))


def test_load_catalog_rejects_bad_header(tmp_path):
    path = tmp_path / "cat.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_catalog(path)


def test_reports_are_deterministic(census_d2):
    assert build_census(3, 2) == build_census(3, 2)
    assert build_census(4, 2) == census_d2(4)


CATALOG_HEADER = "p,rank,cardinality,monomial,note\n"


def csv_text(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


NUMBER = st.integers(-2, 99).map(str)
ROW = st.one_of(
    st.tuples(NUMBER, NUMBER, NUMBER, st.text(max_size=8), st.text(max_size=8)),
    st.lists(st.one_of(NUMBER, st.text(max_size=8)), min_size=4, max_size=6),
)
CATALOG_ROWS = st.lists(ROW, max_size=4).map(lambda rows: CATALOG_HEADER + csv_text(rows))


@settings(max_examples=100, derandomize=True, database=None)
@given(st.one_of(st.text(), st.text().map(lambda tail: CATALOG_HEADER + tail), CATALOG_ROWS))
def test_catalog_reader_fuzz(text):
    try:
        catalog = Catalog.from_csv_text(text)
    except ValueError:
        return
    for record in catalog.records:
        assert all(type(v) is int for v in (record.p, record.rank, record.cardinality))
        assert isinstance(record.monomial, str) and isinstance(record.note, str)


@pytest.mark.parametrize("terminator", ["\n", "\r\n"])
@pytest.mark.parametrize("note", ["a\nb", "a\r\nb", "a\u2028b"])
def test_catalog_keeps_line_breaks_in_quoted_notes(note, terminator):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=terminator)
    writer.writerows([CATALOG_HEADER.strip().split(","), [2, 1, 4, "x11 x12 x22 x21", note],
                      [], [2, 2, 1, "x12 x12 x21 x21", ""]])
    catalog = Catalog.from_csv_text(out.getvalue())
    assert [r.note for r in catalog.records] == [note, ""]
    assert [r.rank for r in catalog.records] == [1, 2]


def test_catalog_without_records_is_refused():
    with pytest.raises(ValueError, match="no records"):
        Catalog.from_csv_text(CATALOG_HEADER + "\n")


def test_catalog_error_line_counts_quoted_line_breaks():
    text = CATALOG_HEADER + '2,1,4,x11,"two\nlines"\n\n2,2,1\n'
    with pytest.raises(ValueError, match="line 5: expected 5 fields, got 3"):
        Catalog.from_csv_text(text)
