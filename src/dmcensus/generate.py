"""Exhaustive streams: all d-regular arc matrices and all configuration words.

Both streams are demand-driven, duplicate-free, and emitted in ascending
lexicographic order so that downstream output is byte-stable across runs.

This is where generated matrices enter the package and are validated: the
matrix stream yields ArcMatrix objects, and word_to_matrix checks that its
word is an arrangement of 1^d ... p^d.  _word_rows is the same projection to
plain row tuples without that check; the word oracle in census uses it and
checks regularity once per class instead of once per word.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product
from operator import le

from .core import ArcMatrix, check_node_cap, total_configurations

# A configuration word is a length d*p tuple over node names 1..p in which
# every name occurs exactly d times; block j (positions d*(j-1)..d*j-1) lists
# the sources feeding node j's d in-slots.
Word = tuple[int, ...]


def enumerate_regular_matrices(p: int, d: int) -> Iterator[ArcMatrix]:
    """Yield every p x p matrix with all row and column sums d, exactly once.

    Rows are filled top-down from one ascending table of the rows that sum to
    d, keeping a row only where it fits under the remaining column deficits;
    the last row is forced by those deficits.  Output is ascending in
    row-major order.  As in enumerate_words, a (p, d) whose configuration
    count exceeds the count budget fails before any enumeration; for p >= 2
    that budget keeps the table small (65,536 candidate rows at most, at
    p=8, d=3).  At p <= 1 the one matrix is yielded without a table, so any
    d is instant there.
    """
    check_node_cap(p)
    total_configurations(p, d)
    if p <= 1:
        yield ArcMatrix(((d,),) * p)
        return
    table = [row for row in product(range(d + 1), repeat=p) if sum(row) == d]

    def fill(rows, remaining):
        if len(rows) == p - 1:
            yield ArcMatrix((*rows, tuple(remaining)))
            return
        for row in table:
            if all(map(le, row, remaining)):
                yield from fill((*rows, row), [r - e for r, e in zip(remaining, row)])

    yield from fill((), [d] * p)


def count_regular_matrices(p: int, d: int) -> int:
    """Length of enumerate_regular_matrices(p, d) without materializing it."""
    return sum(1 for _ in enumerate_regular_matrices(p, d))


def enumerate_words(p: int, d: int) -> Iterator[Word]:
    """Yield every multiset permutation of {1^d, ..., p^d} in lexicographic order.

    The stream has exactly total_configurations(p, d) elements; that count is
    computed up front so an absurd request fails before any enumeration.
    """
    check_node_cap(p)
    total_configurations(p, d)
    if p == 0:
        yield ()
        return
    word = [s for s in range(1, p + 1) for _ in range(d)]
    n = len(word)
    while True:
        yield tuple(word)
        k = n - 2
        while k >= 0 and word[k] >= word[k + 1]:
            k -= 1
        if k < 0:
            return
        swap = n - 1
        while word[swap] <= word[k]:
            swap -= 1
        word[k], word[swap] = word[swap], word[k]
        word[k + 1 :] = reversed(word[k + 1 :])


def _word_rows(word: Word, p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """word_to_matrix rows, unchecked: a symbol outside 1..p raises KeyError."""
    grid = {s: [0] * p for s in range(1, p + 1)}
    for pos, symbol in enumerate(word):
        grid[symbol][pos // d] += 1
    return tuple(map(tuple, grid.values()))


def word_to_matrix(word: Word, p: int, d: int) -> ArcMatrix:
    """Project a word to its arc matrix: entry (i, j) counts symbol i in block j."""
    if sorted(word) != [s for s in range(1, p + 1) for _ in range(d)]:
        raise ValueError(f"word is not an arrangement of 1..{p}, each {d} times")
    return ArcMatrix(_word_rows(word, p, d))
