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

from .core import ArcMatrix, check_node_cap, total_configurations

# A configuration word is a length d*p tuple over node names 1..p in which
# every name occurs exactly d times; block j (positions d*(j-1)..d*j-1) lists
# the sources feeding node j's d in-slots.
Word = tuple[int, ...]


def _capped_compositions(total: int, caps: list[int]) -> Iterator[tuple[int, ...]]:
    """Weak compositions of `total` with per-position caps, ascending lexicographic."""
    if not caps:
        if total == 0:
            yield ()
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _capped_compositions(total - first, caps[1:]):
            yield (first, *rest)


def enumerate_regular_matrices(p: int, d: int) -> Iterator[ArcMatrix]:
    """Yield every p x p matrix with all row and column sums d, exactly once.

    Rows are filled top-down with weak compositions of d, pruning any partial
    assignment whose running column sum exceeds d; the last row is forced by
    the remaining column deficits.  Output is ascending in row-major order.
    As in enumerate_words, a (p, d) whose configuration count exceeds the
    count budget fails before any enumeration.
    """
    check_node_cap(p)
    total_configurations(p, d)
    if p == 0:
        yield ArcMatrix(())
        return

    def fill(rows, remaining):
        if len(rows) == p - 1:
            yield ArcMatrix((*rows, tuple(remaining)))
            return
        for row in _capped_compositions(d, remaining):
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
