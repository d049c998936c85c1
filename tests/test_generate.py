import itertools
import math
import operator
import tracemalloc
from collections import Counter
from collections.abc import Mapping

import pytest

import dmcensus.generate
from dmcensus import (
    ArcMatrix,
    CensusInvariantError,
    CountBudgetError,
    NodeCapError,
    canonical_form,
    class_count,
    count_regular_matrices,
    enumerate_regular_matrices,
    enumerate_words,
    is_regular,
    total_configurations,
    weight,
    word_to_matrix,
)

from dmcensus.canonical import clear_cache
from dmcensus.generate import (
    _canonical_rows,
    _orbit_lister,
    _word_tally,
)
from oracles import (
    brute_canonical,
    brute_regular_matrices,
    brute_word_matrix,
    brute_words,
    relabel,
    tally_key,
    word_tally,
)


def test_single_node_matrix():
    assert list(enumerate_regular_matrices(1, 2)) == [ArcMatrix(((2,),))]


def test_null_graph_matrix():
    assert list(enumerate_regular_matrices(0, 2)) == [ArcMatrix(())]


def test_two_node_matrices():
    got = list(enumerate_regular_matrices(2, 2))
    assert got == [
        ArcMatrix(((0, 2), (2, 0))),
        ArcMatrix(((1, 1), (1, 1))),
        ArcMatrix(((2, 0), (0, 2))),
    ]


@pytest.mark.parametrize("p,d", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3),
                                 (4, 1), (1, 5)])
def test_matrices_match_grid_scan(p, d):
    got = [m.entries for m in enumerate_regular_matrices(p, d)]
    assert got == sorted(brute_regular_matrices(p, d))


def test_three_node_count():
    assert count_regular_matrices(3, 2) == 21


@pytest.mark.parametrize(
    "p,d", [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (5, 1), (6, 1)]
)
def test_count_equals_enumeration(p, d):
    assert count_regular_matrices(p, d) == sum(1 for _ in enumerate_regular_matrices(p, d))


def test_degree_one_counts_are_factorials():
    # d = 1 matrices are permutation matrices
    assert [count_regular_matrices(p, 1) for p in range(11)] == [
        math.factorial(p) for p in range(11)
    ]


def test_six_node_count():
    assert count_regular_matrices(6, 2) == 202_410


def test_count_refusals():
    with pytest.raises(NodeCapError):
        count_regular_matrices(11, 2)
    with pytest.raises(CountBudgetError):
        count_regular_matrices(5, 20)
    for p in (0, 1):
        with pytest.raises(CountBudgetError):
            count_regular_matrices(p, 63)
    assert count_regular_matrices(0, 62) == count_regular_matrices(1, 62) == 1


@pytest.mark.parametrize(
    "d, counts",
    [
        (2, dict(enumerate([1, 1, 3, 8, 25, 85, 397, 2_183, 15_129]))),
        (1, dict(enumerate([1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]))),  # the partition numbers
        (3, {4: 118, 5: 1_411, 6: 30_335}),
    ],
)
def test_class_counts(d, counts):
    assert {p: class_count(p, d) for p in counts} == counts


def test_class_count_refusals():
    with pytest.raises(NodeCapError):
        class_count(11, 2)
    with pytest.raises(CountBudgetError):
        class_count(5, 20)
    for p in (0, 1):
        with pytest.raises(CountBudgetError):
            class_count(p, 63)
    assert class_count(0, 62) == class_count(1, 62) == 1


def test_class_count_refuses_a_burnside_sum_that_p_factorial_does_not_divide(monkeypatch):
    # One more matrix fixed by each of the 10 permutations of cycle type
    # (1, 1, 1, 2) adds 10 to the sum; its quotient by 5! still floors to 85.
    fixed = dmcensus.generate._fixed_matrices

    def off_by_one(lengths, d):
        return fixed(lengths, d) + (lengths == (1, 1, 1, 2))

    monkeypatch.setattr(dmcensus.generate, "_fixed_matrices", off_by_one)
    clear_cache()
    try:
        with pytest.raises(CensusInvariantError, match="p=5, d=2 leaves 10 mod 5!"):
            class_count(5, 2)
    finally:
        clear_cache()  # the Burnside table holds the mutant's terms


def test_counts_refuse_a_float_size_after_the_int_size_ran():
    # the cache is typed: 2.0 == 2 hashes alike, yet a warm cache must not answer it
    assert class_count(2, 2) == count_regular_matrices(2, 2) == 3
    for count in (class_count, count_regular_matrices):
        for args in ((2.0, 2), (2, 2.0)):
            with pytest.raises(TypeError):
                count(*args)


def test_four_node_matrices_match_word_projections():
    # Every regular matrix receives at least one word, so the distinct
    # projections of all words are exactly the regular matrices.
    projected = {brute_word_matrix(w, 4, 2) for w in brute_words(4, 2)}
    got = {m.entries for m in enumerate_regular_matrices(4, 2)}
    assert got == projected
    assert count_regular_matrices(4, 2) == len(projected)


def test_matrix_stream_sorted_unique_regular():
    for p, d in [(3, 2), (4, 2), (3, 3), (5, 2)]:
        stream = list(enumerate_regular_matrices(p, d))
        entries = [m.entries for m in stream]
        assert entries == sorted(entries)
        assert len(set(entries)) == len(entries)
        assert all(is_regular(m, d) for m in stream)


@pytest.mark.parametrize(
    "p,d", [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (5, 1), (6, 1)]
)
def test_orderly_generation_yields_the_sorted_canonical_forms(p, d):
    # the labeled stream, grouped by canonical form, is the reference
    expected = sorted({canonical_form(m).canonical.entries for m in enumerate_regular_matrices(p, d)})
    generated = list(_canonical_rows(p, d))
    assert [rows for rows, _ in generated] == expected
    # each accepting walk gives what a cold search gives: the matrix itself,
    # |Aut| and the identity witness
    clear_cache()
    searched = [canonical_form(ArcMatrix(rows)) for rows in expected]
    assert [result for _, result in generated] == searched
    assert all(r.witness == tuple(range(p)) for r in searched)


def test_matrix_generator_validation():
    with pytest.raises(NodeCapError):
        next(enumerate_regular_matrices(11, 2))
    with pytest.raises(ValueError):
        next(enumerate_regular_matrices(2, 0))


def test_single_node_word():
    assert list(enumerate_words(1, 2)) == [(1, 1)]


def test_two_node_words_in_order():
    assert list(enumerate_words(2, 2)) == [
        (1, 1, 2, 2),
        (1, 2, 1, 2),
        (1, 2, 2, 1),
        (2, 1, 1, 2),
        (2, 1, 2, 1),
        (2, 2, 1, 1),
    ]


@pytest.mark.parametrize("p,d", [(0, 2), (1, 1), (3, 1), (3, 2), (2, 3), (3, 3)])
def test_words_match_brute_force(p, d):
    got = list(enumerate_words(p, d))
    assert got == brute_words(p, d)
    assert len(got) == total_configurations(p, d)


def test_word_counts():
    assert sum(1 for _ in enumerate_words(3, 2)) == 90
    assert sum(1 for _ in enumerate_words(3, 3)) == 1680


def test_word_to_matrix_examples():
    assert word_to_matrix((1, 1), 1, 2) == ArcMatrix(((2,),))
    assert word_to_matrix((1, 2, 1, 2), 2, 2) == ArcMatrix(((1, 1), (1, 1)))
    assert word_to_matrix((1, 1, 2, 2), 2, 2) == ArcMatrix(((2, 0), (0, 2)))
    assert word_to_matrix((), 0, 2) == ArcMatrix(())


def test_word_to_matrix_agrees_with_oracle_projection():
    for word in brute_words(3, 2):
        assert word_to_matrix(word, 3, 2).entries == brute_word_matrix(word, 3, 2)


def test_word_to_matrix_rejects_malformed():
    with pytest.raises(ValueError):
        word_to_matrix((1, 2, 1), 2, 2)
    with pytest.raises(ValueError):
        word_to_matrix((1, 3, 1, 3), 2, 2)
    with pytest.raises(ValueError):
        word_to_matrix((1, 1, 1, 2), 2, 2)


@pytest.mark.parametrize("p,d", [(0, 2), (1, 5), (2, 3), (3, 2), (3, 3), (6, 1), (4, 2)])
def test_word_tally_matches_brute_force(p, d):
    got = _word_tally(p, d)
    expected = Counter(tally_key(brute_word_matrix(w, p, d)) for w in brute_words(p, d))
    assert got == expected
    assert list(got) == list(expected)  # keys in order of first appearance


@pytest.mark.parametrize(
    "p,d",
    # (1,62) is the largest degree admitted at any p; (4,3) is the bench's
    # oracle size; at (3,4) the heads fill one block and the tails two
    [(0, 2), (1, 5), (1, 62), (2, 3), (3, 2), (3, 3), (6, 1), (4, 2), (5, 2), (2, 4), (8, 1),
     (4, 3), (3, 4)],
)
def test_word_tally_matches_the_per_word_tally(p, d):
    got = _word_tally(p, d)
    expected = word_tally(enumerate_words(p, d), p, d)
    assert got == expected
    assert list(got) == list(expected)  # the grouping meets each class's matrices in this order


@pytest.mark.parametrize("p,d", [(4, 3), (3, 4), (8, 1)])
def test_word_tally_counts_each_word_once(monkeypatch, p, d):
    # Every element a Counter pass of the tally consumes is one word, so
    # they number the words; a pass that counted each tail once and
    # multiplied by the heads that share it would consume fewer.
    consumed = []

    class CountingCounter(Counter):
        def update(self, iterable=None, /, **kwds):
            if iterable is not None and not isinstance(iterable, Mapping):
                iterable = list(iterable)
                consumed.append(len(iterable))
            super().update(iterable, **kwds)

    monkeypatch.setattr(dmcensus.generate, "Counter", CountingCounter)
    tally = _word_tally(p, d)
    assert sum(consumed) == total_configurations(p, d) == sum(tally.values())


def test_word_tally_keys_each_permutation_matrix_by_its_row_major_bytes():
    # At d = 1 each word is a permutation of the nodes, in lexicographic
    # order, and the only word of its permutation matrix, whose entry (s, j)
    # is here byte (s - 1) * p + j of a little-endian int, so its row-major
    # bytes read back big-endian.  (9,1) has 362,880 such keys of 81 bytes.
    p = 9
    entries = [{s: 1 << 8 * ((s - 1) * p + j) for s in range(1, p + 1)} for j in range(p)]
    expected = [
        int.from_bytes(sum(map(operator.getitem, entries, word)).to_bytes(p * p, "little"), "big")
        for word in itertools.permutations(range(1, p + 1))
    ]
    got = _word_tally(p, 1)
    assert list(got) == expected
    assert set(got.values()) == {1}


@pytest.mark.parametrize("p, d", [(0, 2), (1, 5), (2, 3), (3, 2), (4, 2), (4, 3), (5, 1),
                                  (6, 1), (7, 1)])
def test_orbit_lister_lists_every_relabeling(p, d):
    # against brute force over every node ordering, once per class, for each
    # key of the tally; at (7,1), where listing from all 5,040 keys takes
    # about 25 s, from the first key of each class, where the grouping starts
    orbit_of = _orbit_lister(p)
    known = {}  # key: (least relabeling, every relabeling) of its class
    for key in _word_tally(p, d):
        entries = key.to_bytes(p * p, "big")  # tally_key read backwards
        rows = tuple(tuple(entries[i * p : (i + 1) * p]) for i in range(p))
        assert tally_key(rows) == key
        if key not in known:
            orbit = {tally_key(relabel(rows, order)) for order in itertools.permutations(range(p))}
            known.update(dict.fromkeys(orbit, (brute_canonical(rows), orbit)))
        elif p == 7:
            continue
        least, keys = orbit_of(key)
        assert len(keys) == len(set(keys))
        assert (least, set(keys)) == known[key]


@pytest.mark.parametrize("p", range(11))
@pytest.mark.parametrize("off_diagonal", [0, 1])
def test_orbit_lister_lists_a_key_every_relabeling_fixes_alone(p, off_diagonal):
    # the identity, or the all-ones matrix, at every p up to the node cap:
    # the orbit is the key itself, where a sweep of every ordering would make
    # p! - 1 relabelings, 3,628,799 at p = 10, to find that
    rows = tuple(tuple(1 if a == b else off_diagonal for b in range(p)) for a in range(p))
    assert _orbit_lister(p)(tally_key(rows)) == (rows, [tally_key(rows)])


def test_word_tally_refuses_before_building_a_table():
    with pytest.raises(NodeCapError):
        _word_tally(11, 2)
    with pytest.raises(CountBudgetError):
        _word_tally(5, 20)


def test_word_tally_holds_no_list_of_words():
    # 369,600 words and 2,008 matrices; a list of every word's key alone
    # would take several MiB.
    tracemalloc.start()
    try:
        _word_tally(4, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_word_tally_peak_is_close_to_the_tally_it_returns():
    # (8,1): 40,320 keys of 64 bytes, about 5 MiB traced.  The tally is
    # counted under its final keys, so nothing beside it is built from it;
    # a second dict of the keys in another layout peaked at 1.5 times it.
    tracemalloc.start()
    try:
        tally = _word_tally(8, 1)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tally) == math.factorial(8)
    assert peak < 1.3 * size


@pytest.mark.parametrize("symbol", [0, 3, -1])
def test_per_word_tally_rejects_a_symbol_outside_the_nodes(symbol):
    with pytest.raises(KeyError):
        word_tally([(1, 2, 1, 2), (1, symbol, 2, 2)], 2, 2)


def test_per_word_tally_refuses_before_reading_a_word():
    with pytest.raises(NodeCapError):
        word_tally(iter(()), 11, 2)
    with pytest.raises(CountBudgetError):
        word_tally(iter(()), 5, 20)


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_words_per_matrix_equal_weight(p):
    # Generator pair identity: each matrix receives exactly weight(A) words.
    tally = {}
    for word in enumerate_words(p, 2):
        m = word_to_matrix(word, p, 2)
        tally[m] = tally.get(m, 0) + 1
    assert set(tally) == set(enumerate_regular_matrices(p, 2))
    for m, count in tally.items():
        assert count == weight(m, 2)
