"""Exhaustive streams, orderly generation, and exact counts of what they hold.

The streams, all d-regular arc matrices, the canonical ones alone and all
configuration words, are demand-driven, duplicate-free, and emitted in
ascending lexicographic order so that downstream output is byte-stable
across runs.  The two matrix streams share one row fill, _regular_rows:
enumerate_regular_matrices keeps every row that fits, and _canonical_rows
keeps only the row prefixes that can still start a canonical matrix and the
whole matrices that are canonical (orderly generation: Read 1978; Faradzev
1978; the test is canonical._least_block with stop, a refinement walk that
fixes one row of the least relabeling per level and stops at the first row
below the given one, and the walk that accepts a whole matrix gives its
canonical._result), so it yields each class's canonical matrix once, in
rank order, and never lists the labeled matrices.
Two exact counts read one cached table per size, _burnside_table, whose
terms come from one DP, _fixed_matrices, run once per cycle type, which
counts the matrices a relabeling of that cycle type fixes; neither shares
code with the streams: count_regular_matrices is the identity's term, the
length of the labeled stream, and class_count sums the terms by Burnside's
lemma, the length of the canonical stream.  A census checks its classes
against both.

This is where generated matrices enter the package and are validated:
enumerate_regular_matrices yields ArcMatrix objects, and word_to_matrix
checks that its word is an arrangement of 1^d ... p^d.  The census reads
_canonical_rows as plain row tuples, each with the CanonicalResult, and so
the one ArcMatrix, of the walk that accepted it.  The word oracle in census
does not list the words at all: _word_tally splits them at a block
boundary into heads, which fill the first p // 2 columns of the matrix, and
tails, from lists shared by every head that leaves the same multiset of
symbols and held as small numbers; it walks each head key's tail list once
per head in one Counter pass, one increment per word, without that check
(the oracle checks regularity once per class instead), and writes the
counts under each word's key, the head key plus the tail key.  The key is
the matrix itself, in the layout stated in _word_tally's docstring alone;
the tail numbers never leave the call.  The grouping in census lists each
class's distinct relabelings of such a key with _orbit_lister, by coset
recursion (Sims 1970; Butler 1991), one node at a time, at most p! - 1
byte permutations per class, so that (9,1) runs in the oracle and (10,1)
does not; it also reads the least as rows, so the layout is known here
alone.  enumerate_words, the words one by one, is the tally's test
reference.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from functools import cache, lru_cache
from itertools import chain, product, repeat
from math import comb, factorial, gcd, prod
from operator import itemgetter, le

from .canonical import CanonicalResult, _least_block, _result
from .core import ArcMatrix, CensusInvariantError, check_node_cap, total_configurations

# A configuration word is a length d*p tuple over node names 1..p in which
# every name occurs exactly d times; block j (positions d*(j-1)..d*j-1) lists
# the sources feeding node j's d in-slots.
Word = tuple[int, ...]


def _regular_rows(
    p: int, d: int, keep: Callable[[tuple[tuple[int, ...], ...]], bool]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The d-regular p x p matrices, as plain row tuples, whose prefixes keep passes.

    Rows are filled top-down from one ascending table of the rows that sum to
    d, keeping a row only where it fits under the remaining column deficits
    and keep(rows so far) holds; the last row is forced by those deficits.
    keep sees every prefix of fewer than p - 1 rows, not a prefix of p - 1
    rows, which has one completion, nor a whole matrix.  Output is ascending
    in row-major order.  The forced last row needs p >= 2: at p = 1 the fill
    would emit ((d,), ()) after a table of d + 1 rows, and at p = 0 nothing,
    so p <= 1 yields its one matrix directly.
    """
    check_node_cap(p)
    total_configurations(p, d)
    if p <= 1:
        yield ((d,),) * p
        return
    table = [row for row in product(range(d + 1), repeat=p) if sum(row) == d]

    def fill(rows, remaining):
        for row in table:
            if all(map(le, row, remaining)):
                rows_next = (*rows, row)
                left = [r - e for r, e in zip(remaining, row)]
                if len(rows_next) < p - 1:
                    if keep(rows_next):
                        yield from fill(rows_next, left)
                else:
                    yield (*rows_next, tuple(left))

    try:
        yield from fill((), [d] * p)
    finally:
        del fill  # fill refers to itself through its cell; break that cycle


def enumerate_regular_matrices(p: int, d: int) -> Iterator[ArcMatrix]:
    """Yield every p x p matrix with all row and column sums d, exactly once.

    Rows are filled top-down from one ascending table of the rows that sum to
    d, keeping a row only where it fits under the remaining column deficits;
    the last row is forced by those deficits.  Output is ascending in
    row-major order.  As in enumerate_words, a (p, d) whose configuration
    count exceeds the count budget fails before any enumeration; for p >= 2
    that budget keeps the table small (65,536 candidate rows at most, at
    p=8, d=3).  At p <= 1 the one matrix is yielded without a table.
    """
    return map(ArcMatrix, _regular_rows(p, d, lambda rows: True))


def _canonical_rows(p: int, d: int) -> Iterator[tuple[tuple[int, ...], CanonicalResult]]:
    """The canonical d-regular p x p matrices, one per class, ascending, each
    with its CanonicalResult.

    A prefix that no canonical matrix starts with is dropped with all its
    completions, and a whole matrix passes only if it is canonical, so each
    class's lex-min matrix comes out once, and in rank order.  The walk that
    accepts a whole matrix also gives its result: the matrix itself, |Aut|
    and the identity witness, so no class is searched again.  The refusals
    of enumerate_regular_matrices apply.
    """
    for rows in _regular_rows(p, d, lambda rows: _least_block(rows, p, stop=True) is not None):
        if (walk := _least_block(rows, p, stop=True)) is not None:
            yield rows, _result(rows, *walk)


def _fixed_matrices(lengths: tuple[int, ...], d: int) -> int:
    """Count the d-regular matrices fixed by a permutation with these cycle lengths.

    A fixed matrix is constant on the cell orbits of the permutation acting
    on rows and columns at once.  The cells where a cycle of length a meets
    one of length b form g = gcd(a, b) orbits; a block sum y over them adds
    (b/g) * y to each row of the a-cycle and (a/g) * y to each column of the
    b-cycle, and splits over the orbits in C(y+g-1, g-1) ways.  Rows are
    placed one cycle at a time; the completions depend only on the cycles
    left and the column deficits, which are memoized sorted within each run
    of equal cycle lengths, as such columns are interchangeable; so the
    lengths must ascend, as _partitions gives them.
    """
    k = len(lengths)

    def placements(a, deficits, j, left):  # (ways, deficits after) for one row cycle
        b = lengths[j]
        g = gcd(a, b)
        if j == k - 1:  # the last column cycle takes what is left, or nothing fits
            y, short = divmod(left, b // g)
            if not short and a // g * y <= deficits[j]:
                yield comb(y + g - 1, g - 1), (deficits[j] - a // g * y,)
            return
        for y in range(min(left * g // b, deficits[j] * g // a) + 1):
            for ways, rest in placements(a, deficits, j + 1, left - b // g * y):
                yield comb(y + g - 1, g - 1) * ways, (deficits[j] - a // g * y, *rest)

    @cache
    def completions(i, deficits):
        if i == k:  # every row sums to d, so every column does too
            return 1
        return sum(
            ways * completions(i + 1, tuple(x for _, x in sorted(zip(lengths, after))))
            for ways, after in placements(lengths[i], deficits, 0, d)
        )

    count = completions(0, (d,) * k)
    del completions, placements  # each refers to itself through its cell; break those cycles
    return count


def _partitions(n: int, most: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts of at most `most`, each part list ascending."""
    if n == 0:
        yield ()
    for part in range(min(n, most), 0, -1):
        for rest in _partitions(n - part, part):
            yield (*rest, part)


@lru_cache(maxsize=None, typed=True)
def _burnside_table(p: int, d: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """The terms of Burnside's lemma for the d-regular p x p matrices: each
    cycle type λ of the relabelings, its lengths ascending, mapped to
    (|C_λ|, Fix(λ)).

    The class C_λ holds p! / prod(k^m_k * m_k!) permutations for m_k cycles
    of length k, and Fix(λ) is _fixed_matrices(λ, d), the matrices each of
    them fixes.  The stream's refusals apply first, so a refused size
    raises and caches nothing.  The table is cached, typed, so each size's
    DP runs once per cycle type for both exact counts, 199 tables at most,
    and a size given as 2.0 is refused as it would be on a cold cache;
    canonical.clear_cache() empties the cache.  Callers only read it.
    """
    check_node_cap(p)
    total_configurations(p, d)
    table = {}
    for lengths in _partitions(p, p):
        size = factorial(p) // prod(n**m * factorial(m) for n, m in Counter(lengths).items())
        table[lengths] = size, _fixed_matrices(lengths, d)
    return table


def count_regular_matrices(p: int, d: int) -> int:
    """Length of enumerate_regular_matrices(p, d), counted without enumeration.

    The matrices fixed by the identity permutation, p cycles of length 1:
    that term of _burnside_table(p, d), whose refusals and cache apply.
    """
    return _burnside_table(p, d)[(1,) * p][1]


def class_count(p: int, d: int) -> int:
    """The number of isomorphism classes of p x p d-regular matrices.

    Burnside's lemma over the cycle types λ of the relabelings:
    (1/p!) * sum of |C_λ| * Fix(λ), the terms of _burnside_table(p, d),
    whose refusals and cache apply, so a command that checks a budget and
    then a report counts once.  The sum must divide exactly by p!, or
    CensusInvariantError names the remainder: one wrong Fix(λ) can leave
    the floored quotient right.
    """
    total = sum(size * fixed for size, fixed in _burnside_table(p, d).values())
    classes, remainder = divmod(total, factorial(p))
    if remainder:
        raise CensusInvariantError(f"Burnside sum for p={p}, d={d} leaves {remainder} mod {p}!")
    return classes


def enumerate_words(p: int, d: int) -> Iterator[Word]:
    """Yield every multiset permutation of {1^d, ..., p^d} in lexicographic order.

    The stream has exactly total_configurations(p, d) elements; that count is
    computed up front so an absurd request fails before any enumeration.
    """
    check_node_cap(p)
    total_configurations(p, d)
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


def _word_tally(p: int, d: int) -> Counter:
    """Count the configuration words projecting to each arc matrix, by its key.

    A key is the matrix in the oracle's layout, which is stated here alone
    and read or written only in this module (_word_tally and
    _orbit_lister): an int whose p*p bytes, read big-endian, are the entries
    in row-major order, entry (i, j) in byte i * p + j, so a symbol s in
    block j adds 1 << 8 * (p*p - 1 - (s-1)*p - j).  Each entry is at most d,
    and the count budget keeps d <= 62 at every p (d <= 33 for p >= 2), so
    each fits its byte, and byte strings of one length compare as the
    row-major lexicographic order that ranks census classes, so the least
    relabeling's bytes are the canonical matrix.  Keys are unchecked, in
    order of first appearance in enumerate_words' lexicographic order.

    The words are not listed one by one but split in two (meet in the
    middle; Horowitz and Sahni 1974) at a block boundary: the heads fill the
    first p // 2 blocks, the tails the rest (the larger part at odd p, where
    that peaks lower).  A head fills whole columns, so its key fixes the
    symbols it leaves, and each pair of a head key and a key of the tail
    list of those symbols adds up to its own matrix.  The heads are expanded
    one position at a time, in lexicographic order, each with its partial
    key and the symbols it leaves.  The tails are built from the last
    position back: one list per position and multiset of symbols used from
    there on, in lexicographic order, joined from the lists of the next
    position.  A list is held as its distinct keys, in order of first
    appearance, and one small number per tail, its key's index there, so a
    join makes each distinct key once and maps the numbers at C level.  The
    heads are grouped by key, in order of first appearance, and one Counter
    pass per group walks its tail list once per head: each number is one
    word and adds 1 to its count, so no count is multiplied.  Every number
    first appears in order, so the counts come out in number order and go
    into the tally under head key plus tail key with one dict.update.  The
    numbers never leave the call, and no table outlives it.  A (p, d) past
    the node cap or the count budget fails before any table is built.
    """
    check_node_cap(p)
    total_configurations(p, d)
    n = d * p
    half = d * (p // 2)
    tables = [tuple(1 << 8 * (p * p - 1 - s * p - j) for s in range(p)) for j in range(p)]
    digits = [tables[pos // d] for pos in range(n)]  # shared by the d positions of a block

    def step(counts, s, by):  # counts with symbol s's count moved by `by`
        return (*counts[:s], counts[s] + by, *counts[s + 1 :])

    def joined(parts):  # (keys, numbers) of each (digit, (keys, numbers)) part's digit + tails
        number = {}
        renumbered = []
        for digit, (keys, numbers) in parts:
            index = [number.setdefault(digit + key, len(number)) for key in keys]
            renumbered.append(map(index.__getitem__, numbers))
        return list(number), list(chain.from_iterable(renumbered))

    tails = {(0,) * p: ([0], [0])}  # the fills of positions pos..n-1, by the symbols used
    for pos in range(n - 1, half - 1, -1):
        table = digits[pos]
        used = {step(m, s, 1) for m in tails for s in range(p) if m[s] < d}
        tails = {
            m: joined((table[s], tails[step(m, s, -1)]) for s in range(p) if m[s]) for m in used
        }
    heads = [(0, (d,) * p)]  # (key, symbols left) of each fill of the positions so far
    for table in digits[:half]:
        moves = {  # per multiset left, once: (digit, multiset left after it) per symbol
            left: [(table[s], step(left, s, -1)) for s in range(p) if left[s]]
            for left in {left for _, left in heads}
        }
        heads = [(key + digit, rest) for key, left in heads for digit, rest in moves[left]]
    groups = {}  # head key: [symbols left, heads with that key]
    for key, left in heads:
        groups.setdefault(key, [left, 0])[1] += 1

    tally, walked = Counter(), Counter()
    for key, (left, count) in groups.items():
        keys, numbers = tails[left]
        walked.clear()
        walked.update(chain.from_iterable(repeat(numbers, count)))
        dict.update(tally, zip(map(key.__add__, keys), walked.values()))
    return tally


def _orbit_lister(p: int) -> Callable[[int], tuple[tuple[tuple[int, ...], ...], list[int]]]:
    """A function that lists the distinct relabelings of a p-node key of _word_tally.

    It builds the orbit by coset recursion (Sims 1970; Butler 1991) on the
    key's p*p bytes.  The relabelings of nodes 0..k are those of nodes
    0..k-1, each followed by nothing or by one transposition (i, k), i < k,
    which swaps two nodes, their rows and their columns.  So for k = 1..p-1
    the orbit under nodes 0..k is the orbit under nodes 0..k-1 together with
    its images under the k transpositions (i, k), one byte getter each,
    made once per p.  Level k permutes k times the orbit before it, so a
    class costs at most p! - 1 byte permutations, the sum of k * k!, and
    about p*p/2 per relabeling when |Aut| is large.  It returns the least
    relabeling as plain row tuples, read from the least bytes (one byte per
    entry, so byte order is row-major lexicographic order), and a list of
    every distinct relabeling once, as a key, so its length is p!/|Aut|;
    for p <= 1 there are no transpositions and the list holds the key
    alone.
    """
    size = p * p
    levels = []
    for k in range(1, p):
        getters = []
        for i in range(k):
            node = list(range(p))
            node[i], node[k] = k, i
            getters.append(itemgetter(*[node[a] * p + node[b] for a in range(p) for b in range(p)]))
        levels.append(getters)

    def orbit(key):
        seen = {key.to_bytes(size, "big")}
        for getters in levels:
            level = list(seen)  # the orbit under the nodes before this one
            for get in getters:
                seen.update(map(bytes, map(get, level)))
        rows = tuple(zip(*[iter(min(seen))] * p))
        return rows, [int.from_bytes(entries, "big") for entries in seen]

    return orbit


def word_to_matrix(word: Word, p: int, d: int) -> ArcMatrix:
    """Project a word to its arc matrix: entry (i, j) counts symbol i in block j."""
    if sorted(word) != [s for s in range(1, p + 1) for _ in range(d)]:
        raise ValueError(f"word is not an arrangement of 1..{p}, each {d} times")
    rows = [[0] * p for _ in range(p)]
    for pos, symbol in enumerate(word):
        rows[symbol - 1][pos // d] += 1
    return ArcMatrix(rows)
