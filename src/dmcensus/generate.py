"""Exhaustive streams: all d-regular arc matrices and all configuration words.

Both streams are demand-driven, duplicate-free, and emitted in ascending
lexicographic order so that downstream output is byte-stable across runs.

This is where generated matrices enter the package and are validated: the
matrix stream yields ArcMatrix objects, and word_to_matrix checks that its
word is an arrangement of 1^d ... p^d.  The word oracle in census does not
project word by word: _word_tally sums each word to an integer key, counts
the keys and decodes each distinct one once, to plain row tuples without
that check; the oracle checks regularity once per class instead.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from functools import cache
from itertools import product
from operator import getitem, le

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


def _word_tally(words: Iterable[Word], p: int, d: int) -> dict[tuple[tuple[int, ...], ...], int]:
    """Count the words projecting to each arc matrix, as word_to_matrix rows.

    Keys are plain row tuples, unchecked, in order of first appearance.  Each
    word is first summed to an integer key in base d + 1: a symbol s in
    block j adds 1 to digit (s - 1) * p + j, the row-major position of entry
    (s, j).  A block has d positions, so no entry exceeds d, even for a word
    off the multiset, and every key decodes exactly, once per matrix, by
    divmod into rows of p digits.  A symbol outside 1..p raises KeyError.
    Like enumerate_words, a (p, d) past the node cap or the count budget
    fails before any table is built.
    """
    check_node_cap(p)
    total_configurations(p, d)
    base = d + 1
    tables = [{s: base ** ((s - 1) * p + j) for s in range(1, p + 1)} for j in range(p)]
    digits = [tables[pos // d] for pos in range(d * p)]
    row_size = base**p

    @cache
    def row(value):  # rows recur across matrices; decode each value once
        return tuple(value // base**j % base for j in range(p))

    def rows(key):
        out = []
        for _ in range(p):
            key, value = divmod(key, row_size)
            out.append(row(value))
        return tuple(out)

    keys = Counter(sum(map(getitem, digits, word)) for word in words)
    return {rows(key): count for key, count in keys.items()}


def word_to_matrix(word: Word, p: int, d: int) -> ArcMatrix:
    """Project a word to its arc matrix: entry (i, j) counts symbol i in block j."""
    if sorted(word) != [s for s in range(1, p + 1) for _ in range(d)]:
        raise ValueError(f"word is not an arrangement of 1..{p}, each {d} times")
    rows = [[0] * p for _ in range(p)]
    for pos, symbol in enumerate(word):
        rows[symbol - 1][pos // d] += 1
    return ArcMatrix(rows)
