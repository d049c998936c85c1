import math
from collections import Counter

import pytest

import dmcensus.generate

from dmcensus import (
    ArcMatrix,
    CountBudgetError,
    NodeCapError,
    count_regular_matrices,
    enumerate_regular_matrices,
    enumerate_words,
    is_regular,
    total_configurations,
    weight,
    word_to_matrix,
)

from dmcensus.generate import _word_tally
from oracles import brute_regular_matrices, brute_word_matrix, brute_words


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


def test_count_refusals(monkeypatch):
    with pytest.raises(NodeCapError):
        count_regular_matrices(11, 2)
    with pytest.raises(CountBudgetError):
        count_regular_matrices(5, 20)
    monkeypatch.setattr(dmcensus.generate, "_row_table", None)  # no table at p <= 1
    assert count_regular_matrices(0, 10**6) == count_regular_matrices(1, 10**6) == 1


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
    got = _word_tally(enumerate_words(p, d), p, d)
    expected = Counter(brute_word_matrix(w, p, d) for w in brute_words(p, d))
    assert got == expected
    assert list(got) == list(expected)  # keys in order of first appearance


@pytest.mark.parametrize("symbol", [0, 3, -1])
def test_word_tally_rejects_a_symbol_outside_the_nodes(symbol):
    with pytest.raises(KeyError):
        _word_tally([(1, 2, 1, 2), (1, symbol, 2, 2)], 2, 2)


def test_word_tally_refuses_before_reading_a_word():
    with pytest.raises(NodeCapError):
        _word_tally(iter(()), 11, 2)
    with pytest.raises(CountBudgetError):
        _word_tally(iter(()), 5, 20)


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
