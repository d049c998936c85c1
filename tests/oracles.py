"""Independent brute-force reference implementations, used only for checking.

Everything here works on plain tuples-of-tuples and itertools so the checks
stay independent of the library's own search and generation code;
apply_permutation alone takes and returns an ArcMatrix.
"""

import itertools
from collections import Counter
from functools import cache
from operator import getitem

from dmcensus.core import ArcMatrix, check_node_cap, total_configurations

Rows = tuple  # tuple[tuple[int, ...], ...]


def relabel(rows, order):
    """Matrix obtained by placing original node order[a] at position a."""
    p = len(rows)
    return tuple(tuple(rows[order[a]][order[b]] for b in range(p)) for a in range(p))


def apply_permutation(matrix, images):
    """Relabel an ArcMatrix by a tuple of images: result[images[i]][images[j]] = matrix[i][j]."""
    return ArcMatrix(relabel(matrix.entries, sorted(range(len(images)), key=images.__getitem__)))


def brute_canonical(rows):
    """Minimum relabeling by exhaustive search over all p! orderings."""
    return min(relabel(rows, order) for order in itertools.permutations(range(len(rows))))


def brute_witness(rows):
    """Lexicographically least node ordering whose relabeling is brute_canonical(rows)."""
    canon = brute_canonical(rows)
    return next(
        order
        for order in itertools.permutations(range(len(rows)))
        if relabel(rows, order) == canon
    )


def brute_aut_order(rows):
    """Number of orderings that leave the matrix unchanged."""
    return sum(
        1
        for order in itertools.permutations(range(len(rows)))
        if relabel(rows, order) == rows
    )


def naive_least_relabeling(rows):
    """(least relabeling of rows, number of node orderings reaching it, which is |Aut|).

    A depth-first search over node orderings, with no automorphism pruning
    and no greedy incumbent.  A partial ordering of k nodes is dropped only
    when its optimistic completion, each placed row's known entries followed
    by its other entries sorted, is strictly greater than the first k rows
    of the least leaf found so far, so every ordering that reaches the least
    relabeling is counted.
    """
    best, count = None, 0
    stack = [((), tuple(range(len(rows))))]  # (placed nodes, the others)
    while stack:
        order, rest = stack.pop()
        placed = tuple(
            tuple([rows[u][v] for v in order] + sorted([rows[u][v] for v in rest]))
            for u in order
        )
        if best is not None and placed > best[: len(order)]:
            continue
        if rest:
            stack.extend(
                (order + (v,), rest[:i] + rest[i + 1 :]) for i, v in reversed(list(enumerate(rest)))
            )
        elif placed == best:
            count += 1
        else:
            best, count = placed, 1
    return best, count


def brute_least_block(rows, p):
    """Least block over the orderings of the m = len(rows) known nodes of a
    p-column prefix, the free columns m..p-1 sorted by their vectors."""
    m = len(rows)
    blocks = []
    for order in itertools.permutations(range(m)):
        placed = [rows[v] for v in order]
        free = sorted(zip(*[row[m:] for row in placed]))
        blocks.append(tuple(
            tuple(row[v] for v in order) + tuple(column[a] for column in free)
            for a, row in enumerate(placed)
        ))
    return min(blocks)


def brute_orbit_size(rows):
    """Number of distinct relabelings."""
    return len({relabel(rows, order) for order in itertools.permutations(range(len(rows)))})


def brute_words(p, d):
    """Every configuration word, by deduplicating raw permutations."""
    base = tuple(s for s in range(1, p + 1) for _ in range(d))
    return sorted(set(itertools.permutations(base)))


def brute_word_matrix(word, p, d):
    """Independent projection: count each symbol's occurrences per target block."""
    rows = [[0] * p for _ in range(p)]
    for pos, symbol in enumerate(word):
        rows[symbol - 1][pos // d] += 1
    return tuple(tuple(r) for r in rows)


def brute_matrix_word_counts(p, d):
    """Tally of words per projected matrix, fully by brute force."""
    counts = {}
    for word in brute_words(p, d):
        key = brute_word_matrix(word, p, d)
        counts[key] = counts.get(key, 0) + 1
    return counts


def tally_key(rows):
    """The oracle's tally key of a matrix given as rows: the int whose
    big-endian bytes are its entries in row-major order."""
    return int.from_bytes(bytes(e for row in rows for e in row), "big")


def word_tally(words, p, d):
    """The oracle's tally, one word at a time: tally_key -> count, in order of
    first appearance.

    Each word is summed to an integer key in base d + 1: a symbol s in block
    j adds 1 to digit (s - 1) * p + j, the row-major position of entry
    (s, j).  A block has d positions, so no entry exceeds d, even for a word
    off the multiset, and every key decodes exactly, once per matrix, by
    divmod into rows of p digits.  A symbol outside 1..p raises KeyError.
    A (p, d) past the node cap or the count budget fails before any table
    is built.
    """
    check_node_cap(p)
    total_configurations(p, d)
    base = d + 1
    tables = [{s: base ** ((s - 1) * p + j) for s in range(1, p + 1)} for j in range(p)]
    digits = [tables[pos // d] for pos in range(d * p)]
    row_size = base**p

    @cache
    def row(value):
        return tuple(value // base**j % base for j in range(p))

    def rows(key):
        out = []
        for _ in range(p):
            key, value = divmod(key, row_size)
            out.append(row(value))
        return tuple(out)

    keys = Counter(sum(map(getitem, digits, word)) for word in words)
    return {tally_key(rows(key)): count for key, count in keys.items()}


def brute_regular_matrices(p, d):
    """All p x p grids with row and column sums d, by scanning every entry grid.

    Exponential in p*p; keep p <= 3.
    """
    found = []
    for values in itertools.product(range(d + 1), repeat=p * p):
        rows = tuple(values[i * p : (i + 1) * p] for i in range(p))
        if all(sum(r) == d for r in rows) and all(sum(c) == d for c in zip(*rows)):
            found.append(rows)
    return found
