import csv
import gc
import io
import math
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmcensus.canonical
import dmcensus.census
from dmcensus import (
    ArcMatrix,
    Catalog,
    CatalogRecord,
    CensusDiff,
    CensusEntry,
    CensusInvariantError,
    CensusReport,
    CountBudgetError,
    DegreeError,
    NodeCapError,
    build_census,
    canonical_form,
    class_count,
    enumerate_regular_matrices,
    enumerate_words,
    class_lookup,
    compare_census,
    load_catalog,
    matrix_to_monomial,
    oracle_census,
    parse_monomial,
    total_configurations,
    verify_against_catalog,
    weight,
    word_to_matrix,
)
import dmcensus.generate
from dmcensus.canonical import _memo, clear_cache
from dmcensus.census import (
    ORBIT_BUDGET,
    WORD_BUDGET,
    _check_oracle_budget,
    _finish_report,
    _group_by_canonical,
)
from dmcensus.cli import parse_census_csv
from dmcensus.generate import _canonical_rows, _result, _word_tally
from oracles import naive_least_relabeling, relabel, tally_key, word_tally


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
    tally = Counter(tally_key(m.entries) for m in enumerate_regular_matrices(3, 2))
    consumed = tally.copy()
    classes = _group_by_canonical(consumed, 3)
    assert len(classes) == 8 and not consumed
    # a double loop beside a complete 2-node digraph: |Aut| = 2, 3 labelings
    missing = ArcMatrix(((2, 0, 0), (0, 1, 1), (0, 1, 1)))
    assert classes[canonical_form(missing).canonical][:2] == (2, 3)
    del tally[tally_key(missing.entries)]
    with pytest.raises(CensusInvariantError, match="orbit-stabilizer"):
        _group_by_canonical(tally.copy(), 3)


class CallCountingCounter(Counter):
    """A tally that counts its pop and keys calls."""

    pops = keys_calls = 0

    def pop(self, *args):
        self.pops += 1
        return super().pop(*args)

    def keys(self):
        self.keys_calls += 1
        return super().keys()


@pytest.mark.parametrize("p, d", [(4, 3), (6, 1)])
def test_grouping_pops_each_labeled_matrix_once(p, d):
    # each relabeling's key is hashed once, by its pop; no subset test reads keys()
    tally = CallCountingCounter(_word_tally(p, d))
    labeled = len(tally)
    classes = _group_by_canonical(tally, p)
    assert not tally and len(classes) == class_count(p, d)
    assert (tally.pops, tally.keys_calls) == (labeled, 0)


def test_grouping_memory_follows_one_orbit():
    # The grouping holds the tally's keys, one orbit of keys, as bytes and
    # as ints, and the classes, about 100-103 KiB traced here; one orbit of
    # row tuples took 320 KiB, and a second table of the relabelings still
    # to come, keyed by bytes, peaked at 769 KiB.
    tally = _word_tally(5, 2)
    clear_cache()
    tracemalloc.start()
    try:
        _group_by_canonical(tally, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 2**10


def test_grouping_memory_at_degree_one_follows_the_byte_keys():
    # At (6,1) an orbit of 720 row tuples of 6 row tuples each peaked at
    # 222-343 KiB traced; the same orbit as 720 byte keys, with the 719-step
    # sweep of shared getters, and then as a list of 720 int keys, peaks at
    # about 52 KiB.
    tally = _word_tally(6, 1)
    clear_cache()
    tracemalloc.start()
    try:
        _group_by_canonical(tally, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**10


@pytest.mark.parametrize(
    "change, error",
    [
        (
            lambda r: r._replace(
                canonical=ArcMatrix(tuple(row[::-1] for row in r.canonical.entries[::-1]))
            ),
            "is not canonical; its class has",
        ),
        (lambda r: r._replace(aut_order=2 * r.aut_order), "labeled matrices, expected 21"),
    ],
    ids=["non-minimal canonical", "wrong aut_order"],
)
def test_build_census_checks_each_search_of_a_generated_matrix(monkeypatch, change, error):
    # the fault is in the generator's accepting walk, which build_census reads
    monkeypatch.setattr(dmcensus.census, "_canonical_rows",
                        lambda p, d: ((rows, change(r)) for rows, r in _canonical_rows(p, d)))
    clear_cache()
    with pytest.raises(CensusInvariantError, match=error):
        build_census(3, 2)
    assert not _memo  # a census that fails a check memoizes nothing


@pytest.mark.parametrize(
    "build, p, d, classes",
    [(build_census, 5, 2, 85), (oracle_census, 4, 3, 118), (build_census, 6, 1, 11)],
)
def test_one_canonical_search_per_class(monkeypatch, build, p, d, classes):
    searched, accepted = [], []
    least_block = dmcensus.canonical._least_block

    def search(rows, size, stop):  # stop marks orderly generation's prefix test
        if not stop:
            searched.append(rows)
        return least_block(rows, size, stop)

    monkeypatch.setattr(dmcensus.canonical, "_least_block", search)

    def result_of(rows, *walk):  # called once per accepting whole-matrix walk
        result = _result(rows, *walk)
        accepted.append(result.canonical)
        return result

    monkeypatch.setattr(dmcensus.generate, "_result", result_of)
    clear_cache()
    report = build(p, d)
    assert searched == []
    if build is build_census:
        # one accepting walk per class, in rank order, gives every |Aut|
        assert len(report.entries) == len(accepted) == classes
        assert accepted == [entry.canonical for entry in report.entries]
    else:  # the orbits give every canonical matrix and |Aut|
        assert len(report.entries) == classes and accepted == []


@pytest.mark.parametrize("p, d", [(p, 2) for p in range(6)] + [(4, 3), (6, 1)])
def test_oracle_runs_no_canonical_search(monkeypatch, p, d):
    report = build_census(p, d)
    monkeypatch.setattr(dmcensus.canonical, "_least_block", None)
    monkeypatch.setattr(dmcensus.census, "canonical_form", None)
    oracle = oracle_census(p, d)
    assert [e.aut_order for e in oracle.entries] == [e.aut_order for e in report.entries]
    assert oracle == report


def test_census_leaves_no_cyclic_garbage():
    # A recursive closure that outlives its walk keeps the walk's state alive
    # until the cycle collector runs; every run here must free it at once.
    gc.disable()
    try:
        gc.collect()
        build_census(5, 2)
        class_count(6, 1)
        clear_cache()
        oracle_census(4, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_build_census_leaves_each_class_in_the_memo(monkeypatch):
    clear_cache()
    report = build_census(5, 2)
    assert list(_memo) == [entry.canonical.entries for entry in report.entries]
    monkeypatch.setattr(dmcensus.canonical, "_least_block", None)  # no search runs
    warm = [canonical_form(entry.canonical) for entry in report.entries]
    monkeypatch.undo()
    clear_cache()
    assert warm == [canonical_form(entry.canonical) for entry in report.entries]


@pytest.mark.parametrize("d", [1, 62])  # 62, the largest degree admitted at any p
@pytest.mark.parametrize("build", [build_census, oracle_census])
def test_single_node_census_of_any_degree(build, d):
    (entry,) = build(1, d).entries
    assert (entry.aut_order, entry.cardinality) == (1, 1)


@pytest.mark.parametrize("d", [63, 10**6])
@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("build", [build_census, oracle_census])
def test_census_refuses_a_degree_past_62_at_every_size(monkeypatch, build, p, d):
    # at p <= 1 the count is 1, so only the degree rule refuses, before any work
    monkeypatch.setattr(dmcensus.census, "_canonical_rows", None)
    monkeypatch.setattr(dmcensus.census, "_word_tally", None)
    with pytest.raises(CountBudgetError, match=f"^d={d} exceeds the largest degree, 62$"):
        build(p, d)


@pytest.mark.parametrize("build", [build_census, oracle_census])
def test_build_census_checks_the_exact_labeled_count(monkeypatch, build):
    # 2*I_3 is a class of one labeled matrix and one word; without it every
    # other check that runs before the total still holds, on either route
    doubled = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert word_to_matrix((1, 1, 2, 2, 3, 3), 3, 2).entries == doubled
    stream = [(rows, result) for rows, result in _canonical_rows(3, 2) if rows != doubled]
    words = [w for w in enumerate_words(3, 2) if w != (1, 1, 2, 2, 3, 3)]
    monkeypatch.setattr(dmcensus.census, "_canonical_rows", lambda p, d: iter(stream))
    monkeypatch.setattr(dmcensus.census, "_word_tally", lambda p, d: word_tally(words, p, d))
    with pytest.raises(CensusInvariantError, match="holds 20 labeled matrices, expected 21"):
        build(3, 2)


@pytest.mark.parametrize("p, d", [(p, 2) for p in range(7)] + [(6, 1), (4, 3)])
def test_census_has_the_burnside_class_count(p, d):
    assert len(build_census(p, d).entries) == class_count(p, d)


def test_class_counts_are_cached_until_the_memo_is_cleared():
    clear_cache()
    assert class_count.cache_info().currsize == 0
    assert class_count(5, 2) == class_count(5, 2) == 85
    assert class_count.cache_info()[:2] == (1, 1)  # (hits, misses)
    with pytest.raises(CountBudgetError):
        class_count(5, 20)  # a refusal raises and caches nothing
    assert class_count.cache_info().currsize == 1
    clear_cache()
    assert class_count.cache_info().currsize == 0


@pytest.mark.parametrize("build", [build_census, oracle_census])
def test_build_census_checks_the_exact_class_count(monkeypatch, build):
    monkeypatch.setattr(dmcensus.census, "class_count", lambda p, d: class_count(p, d) + 1)
    with pytest.raises(CensusInvariantError, match="has 8 classes, expected 9"):
        build(3, 2)


def test_census_checks_its_total(census_d2):
    classes = {e.canonical: (e.aut_order, e.cardinality) for e in census_d2(2).entries}
    canon = census_d2(2).entries[0].canonical
    classes[canon] = (classes[canon][0], classes[canon][1] + 1)
    with pytest.raises(CensusInvariantError, match="totals 7, expected 6"):
        _finish_report(2, 2, classes)


def test_oracle_checks_each_class_splits_its_words_evenly(monkeypatch):
    # The matrix of this word has |Aut| = 2, so its class holds 3 labeled
    # matrices with 8 words each; without the word, 23 words are left.
    dropped = (1, 2, 1, 3, 2, 3)
    assert weight(word_to_matrix(dropped, 3, 2), 2) == 8
    words = [w for w in enumerate_words(3, 2) if w != dropped]
    monkeypatch.setattr(dmcensus.census, "_word_tally", lambda p, d: word_tally(words, p, d))
    with pytest.raises(CensusInvariantError, match="23 words over 3 matrices"):
        oracle_census(3, 2)


def test_build_census_refuses_an_over_budget_size():
    with pytest.raises(CountBudgetError):
        build_census(5, 20)


@pytest.mark.parametrize("p, d, classes", [(8, 2, 15_129), (6, 3, 30_335)])
def test_build_census_refuses_too_many_classes_up_front(p, d, classes):
    start = time.perf_counter()
    with pytest.raises(CountBudgetError, match=f"p={p}, d={d} has {classes} classes"):
        build_census(p, d)
    assert time.perf_counter() - start < 1


def test_build_census_memory_follows_the_classes():
    # Orderly generation holds one row prefix and the 397 classes, 0.9 MiB
    # traced here, never the 202,410 labeled matrices: the oracle's tally of
    # them as row tuples holds 27 MiB.
    tracemalloc.start()
    try:
        build_census(6, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_oracle_census_refuses_an_impossible_size():
    with pytest.raises(NodeCapError):
        oracle_census(11, 2)
    with pytest.raises(CountBudgetError):
        oracle_census(5, 20)


@pytest.mark.parametrize(
    "p, d, words",
    [(7, 2, 681_080_400), (5, 3, 168_168_000), (4, 4, 63_063_000), (3, 6, 17_153_136),
     (6, 3, 137_225_088_000)],
)
def test_oracle_refuses_too_many_words_up_front(monkeypatch, p, d, words):
    assert total_configurations(p, d) == words > WORD_BUDGET
    monkeypatch.setattr(dmcensus.census, "_word_tally", None)  # nothing is tallied
    with pytest.raises(CountBudgetError, match=f"p={p}, d={d} has {words} words, above"):
        oracle_census(p, d)


@pytest.mark.parametrize("p, d", [(6, 2), (4, 3), (1, 62)])
def test_word_budget_admits_sizes_within_it(p, d):
    assert total_configurations(p, d) <= WORD_BUDGET
    assert _check_oracle_budget(p, d) is None  # refuses nothing, returns nothing


@pytest.mark.parametrize("p, d, relabelings", [(10, 1, 152_409_600)])
def test_oracle_refuses_too_many_relabelings_up_front(monkeypatch, p, d, relabelings):
    # within the word budget, but over the orbit budget, p! per class
    assert total_configurations(p, d) <= WORD_BUDGET < relabelings
    assert class_count(p, d) * math.factorial(p) == relabelings > ORBIT_BUDGET
    monkeypatch.setattr(dmcensus.census, "_word_tally", None)  # nothing is tallied
    monkeypatch.setattr(dmcensus.census, "_group_by_canonical", None)  # nor grouped
    with pytest.raises(CountBudgetError,
                       match=f"p={p}, d={d} lists {relabelings} relabelings, above"):
        oracle_census(p, d)


@pytest.mark.parametrize("p, d, relabelings",
                         [(6, 2, 285_840), (5, 2, 10_200), (4, 3, 2_832), (8, 1, 887_040),
                          (9, 1, 10_886_400)])
def test_orbit_budget_admits_sizes_within_it(p, d, relabelings):
    assert class_count(p, d) * math.factorial(p) == relabelings <= ORBIT_BUDGET
    assert _check_oracle_budget(p, d) is None  # refuses nothing, returns nothing


@pytest.mark.parametrize("p", [0, 1])
def test_oracle_equals_the_build_at_the_largest_degree(p):
    # the oracle's key at p <= 1 is bytes, as at every p: (1,62)'s one entry fits a byte
    assert oracle_census(p, 62) == build_census(p, 62)


def test_one_node_oracle_memory_is_bounded():
    # A one-node oracle of d = 2*10**5 is refused before a table is built,
    # and the largest admitted one, d = 62, traces under 7 KiB.
    tracemalloc.start()
    try:
        with pytest.raises(CountBudgetError):
            oracle_census(1, 2 * 10**5)
        oracle_census(1, 62)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


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
    monkeypatch.setattr(dmcensus.census, "_word_tally", lambda p, d: word_tally(words, p, d))
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


def test_census_entry_identities(census_d2, oracle_d2):
    # An entry's weight is its words per labeled matrix; on both routes it
    # must be the formula core.weight gives for the canonical matrix.
    reports = [census_d2(p) for p in range(6)] + [oracle_d2(p) for p in range(6)]
    reports += [oracle_census(p, 1) for p in range(7)]
    reports += [oracle_census(p, 3) for p in range(4)]
    for report in reports:
        p, d = report.p, report.d
        assert report.total == total_configurations(p, d)
        assert [e.rank for e in report.entries] == list(range(1, len(report.entries) + 1))
        keys = [e.canonical.entries for e in report.entries]
        assert keys == sorted(keys)
        for e in report.entries:
            assert e.weight == weight(e.canonical, d)
            assert e.cardinality == e.labeled_matrix_count * e.weight
            assert e.aut_order * e.labeled_matrix_count == math.factorial(p)


def test_oracle_census_equals_build(census_d2, oracle_d2):
    for p in range(6):
        assert not compare_census(census_d2(p), oracle_d2(p))
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
    for p, partitions in enumerate([1, 1, 2, 3, 5, 7, 11, 15, 22]):
        report = build_census(p, 1)
        assert len(report.entries) == partitions
        assert not compare_census(report, oracle_census(p, 1))
        for e in report.entries:
            assert e.weight == 1
            assert e.cardinality == math.factorial(p) // e.aut_order


def test_ten_node_degree_one_census():
    # the largest node count admitted; build_census checks its 42 classes and
    # 10! labeled matrices against class_count and count_regular_matrices
    report = build_census(10, 1)
    assert len(report.entries) == 42
    assert sum(e.labeled_matrix_count for e in report.entries) == math.factorial(10)


def test_degree_three_censuses_agree():
    for p in range(4):
        assert not compare_census(build_census(p, 3), oracle_census(p, 3))


def _naive_search_misses(entries):
    """The canonical matrices of census entries that the naive search, run on one
    seeded relabeling of each, does not give back with |Aut| orderings reaching it."""
    rng = random.Random(1)
    misses = []
    for entry in entries:
        rows = entry.canonical.entries
        order = rng.sample(range(len(rows)), len(rows))
        if naive_least_relabeling(relabel(rows, order)) != (rows, entry.aut_order):
            misses.append(entry.canonical)
    return misses


@pytest.mark.parametrize("p, d, classes", [(5, 3, 1411), (4, 4, 501), (4, 5, 1826)])
def test_naive_search_confirms_every_class_the_oracle_refuses(p, d, classes):
    # Past the oracle's word budget, only the naive search, which shares no
    # code with the generator, checks canonicity and |Aut| class by class.
    with pytest.raises(CountBudgetError):
        _check_oracle_budget(p, d)
    report = build_census(p, d)
    assert len(report.entries) == classes
    assert _naive_search_misses(report.entries) == []


def test_naive_search_confirms_a_sample_of_the_largest_degree_two_census():
    # (7,2) is past the oracle's reach as well; a seeded sample keeps it quick
    report = build_census(7, 2)
    assert len(report.entries) == 2183
    assert _naive_search_misses(random.Random(72).sample(report.entries, 150)) == []


def test_naive_search_catches_a_generated_class_that_is_not_the_least_relabeling(monkeypatch):
    # One (4,4) class leaves the generator relabeled by i -> 3 - i, with a
    # result that agrees with it, so every check inside build_census holds.
    def flip(rows):
        return tuple(row[::-1] for row in rows[::-1])

    stream = list(_canonical_rows(4, 4))
    index = next(i for i, (rows, _) in enumerate(stream) if flip(rows) != rows)
    rows, result = stream[index]
    flipped = ArcMatrix(flip(rows))
    stream[index] = (flipped.entries,
                     result._replace(canonical=flipped, witness=tuple(range(4))))
    monkeypatch.setattr(dmcensus.census, "_canonical_rows", lambda p, d: iter(stream))
    monkeypatch.setattr(dmcensus.canonical, "_memo", {})  # the build stores the result
    assert _naive_search_misses(build_census(4, 4).entries) == [flipped]


def _components(rows):
    """The node lists of the weak components of rows, by union-find over its nonzero cells."""
    parent = list(range(len(rows)))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                parent[root(i)] = root(j)
    parts = {}
    for v in range(len(rows)):
        parts.setdefault(root(v), []).append(v)
    return list(parts.values())


def _euler_transform(connected):
    """Counts of multisets of connected classes, by total size 0..len(connected) - 1,
    from the connected counts by size (connected[0] is ignored)."""
    top = len(connected) - 1
    weighted = [0] + [
        sum(m * connected[m] for m in range(1, k + 1) if k % m == 0) for k in range(1, top + 1)
    ]
    counts = [1]
    for n in range(1, top + 1):
        counts.append(sum(weighted[k] * counts[n - k] for k in range(1, n + 1)) // n)
    return counts


@pytest.mark.parametrize("d, top", [(2, 6), (1, 8), (3, 4)])
def test_classes_are_multisets_of_connected_classes(d, top):
    # Each weak component of a d-regular digraph is d-regular, so a class is
    # a multiset of connected classes, and |Aut| of a disjoint union is the
    # product of |Aut(c)|^m * m! over its component types.  At d = 2 the
    # connected counts for p = 1..6 are 1, 2, 5, 14, 50, 265.
    connected = [0] * (top + 1)
    for p in range(1, top + 1):
        for entry in build_census(p, d).entries:
            rows = entry.canonical.entries
            parts = _components(rows)
            if len(parts) == 1:
                connected[p] += 1
                continue
            types = Counter(
                naive_least_relabeling(tuple(tuple(rows[i][j] for j in part) for i in part))
                for part in parts
            )
            assert entry.aut_order == math.prod(
                aut**m * math.factorial(m) for (_, aut), m in types.items()
            ), entry.canonical
    assert _euler_transform(connected) == [class_count(p, d) for p in range(top + 1)]


def test_compare_census_reflexive(census_d2):
    report = census_d2(2)
    assert not compare_census(report, report)


def test_compare_census_detects_perturbation(census_d2):
    report = census_d2(2)
    tweaked = list(report.entries)
    victim = tweaked[1]
    tweaked[1] = victim._replace(cardinality=victim.cardinality + 1)
    fixture = CensusReport(report.p, report.d, tuple(tweaked))
    diff = compare_census(report, fixture)
    assert diff
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


def test_verify_reports_a_record_of_a_class_the_census_lacks(census_d2):
    report = census_d2(2)
    short = report._replace(entries=report.entries[:-1])
    record = CatalogRecord(2, 1, 1, "x11 x11 x22 x22", "")  # the last class, 2*I_2
    verification = verify_against_catalog(short, Catalog((record,)))
    assert [(u.record, u.reason) for u in verification.unmatched_catalog] == [
        (record, "no computed class with this canonical form")
    ]


def test_verify_reports_a_record_naming_a_node_beyond_p(census_d2):
    record = CatalogRecord(2, 1, 1, "x11 x11 x23 x32", "")
    verification = verify_against_catalog(census_d2(2), Catalog((record,)))
    assert [(u.record, u.reason) for u in verification.unmatched_catalog] == [
        (record, "factor (2,3) names a node beyond p=2")
    ]


def test_class_lookup_examples(census_d2):
    assert class_lookup(census_d2(2), parse_monomial("x11 x12 x22 x21")).cardinality == 4
    assert class_lookup(census_d2(1), parse_monomial("x11 x11")) == census_d2(1).entries[0]
    assert class_lookup(census_d2(2), parse_monomial("x12 x12 x21 x21")).cardinality == 1


@pytest.mark.parametrize("p", range(5))
def test_class_lookup_returns_the_reports_own_entry(census_d2, p):
    # a seeded relabeling of each class, printed and parsed back, finds the
    # entry of its rank itself, not a copy
    report = census_d2(p)
    rng = random.Random(p)
    for entry in report.entries:
        rows = entry.canonical.entries
        matrix = ArcMatrix(relabel(rows, rng.sample(range(p), p)))
        mono = parse_monomial(str(matrix_to_monomial(matrix)))
        assert class_lookup(report, mono) is report.entries[entry.rank - 1]


def test_census_records_hold_each_fact_once():
    assert CensusEntry._fields == ("rank", "cardinality", "canonical", "aut_order")
    assert CensusDiff._fields == ("only_in_a", "only_in_b", "cardinality_mismatches")


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
CSV_HEADER = "p,d,rank,cardinality,aut_order,weight,monomial\n"


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
    writer.writerows([[], CATALOG_HEADER.strip().split(","), [2, 1, 4, "x11 x12 x22 x21", note],
                      [], [2, 2, 1, "x12 x12 x21 x21", ""]])
    catalog = Catalog.from_csv_text(out.getvalue())
    assert [r.note for r in catalog.records] == [note, ""]
    assert [r.rank for r in catalog.records] == [1, 2]


def test_catalog_without_records_is_refused():
    # The census CSV has the same reader.
    for parse, header in ((Catalog.from_csv_text, CATALOG_HEADER), (parse_census_csv, CSV_HEADER)):
        for text in (header + "\n", header, "\n" + header):
            with pytest.raises(ValueError, match="no records"):
                parse(text)


def test_catalog_error_line_counts_quoted_line_breaks():
    text = CATALOG_HEADER + '2,1,4,x11,"two\nlines"\n\n2,2,1\n'
    with pytest.raises(ValueError, match="line 5: expected 5 fields, got 3"):
        Catalog.from_csv_text(text)
    text = CSV_HEADER + '1,2,1,1,1,1,"x11\nx11"\n\n1,2,1\n'
    with pytest.raises(ValueError, match="census CSV line 5: expected 7 fields, got 3"):
        parse_census_csv(text)


@pytest.mark.parametrize("spelling", ["+1", "0_1", "١", " 1", "01", "-0", "1.0"])
def test_catalog_refuses_a_designation_not_written_as_a_plain_integer(spelling):
    row = ["1", "1", "1", "x11 x11", ""]
    assert Catalog.from_csv_text(CATALOG_HEADER + csv_text([row])).records[0].designation == "1,1,1"
    for field in range(3):  # p, rank, cardinality
        misspelled = [*row[:field], spelling, *row[field + 1 :]]
        with pytest.raises(ValueError, match="line 2: designation not written as plain integers"):
            Catalog.from_csv_text(CATALOG_HEADER + csv_text([misspelled]))
