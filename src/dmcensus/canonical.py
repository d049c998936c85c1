"""Canonical labeling under simultaneous row/column permutation.

The canonical form of an arc matrix A is the lexicographically smallest matrix
(row-major flattening, compared as an integer sequence) among all relabelings
of A.  An ordering of the nodes places node order[k] at position k.  The
search walks the orderings depth-first and fixes one whole row of the
relabeling per level, in the manner of individualization-refinement (McKay &
Piperno, "Practical graph isomorphism, II", 2014).

The unplaced nodes are held in an ordered list of cells, and every cell has
been split by the row of each placed node, in ascending order of value, so
each placed row is constant on each cell.  Below a prefix of k placed nodes,
a relabeling makes row 0 least by sorting the unplaced columns by their entry
in row 0, then row 1 by sorting each run of equal row-0 entries by row 1, and
so on: an ordering keeps rows 0..k-1 least exactly when it takes the cells in
order, and those rows are then the same whatever it does within a cell.  So
the node at position k comes from the first cell.  For a candidate v there,
row k is v's entries over the placed nodes, then its loop, then its entries
over each cell, whose order within the cell is still free; sorted, they give
v's least row.  The canonical matrix's rows 0..k-1 are the least any prefix
allows, and given them its row k is the least row k of any prefix with those
rows.  So the walk follows only the candidates that give the least row k.
Every node it reaches has rows 0..k-1 equal to the incumbent's, so that row
is held against the incumbent's row k: a greater row drops the node, and a
smaller one replaces the incumbent's row k and drops its deeper rows, which
the walk below fills in again.  Each candidate's row is held, as it is
built, against the least row k so far, at first the incumbent's: a
candidate whose entries over the placed nodes and loop already exceed that
row's is dropped before its cells are sorted, and with stop the walk ends
at the first row below the incumbent's.  The chosen node's row then splits
each cell.

The search also prunes with the automorphisms it finds (McKay, "Practical
Graph Isomorphism", 1981; McKay & Piperno, 2014).  Let `first` be the first
leaf found that equals the incumbent.  A later leaf `order` equal to the
incumbent gives the automorphism g with g(first[i]) = order[i]; it stays an
automorphism of A when the incumbent later improves.  If `order` first leaves
`first` at level L, g fixes first[:L] pointwise and maps the subtree of
first's child at level L onto the current child, so the rest of that child is
skipped (backjump).  At a node with prefix P, a candidate in the orbit of an
already followed sibling under the generators that fix P pointwise is
skipped: its subtree is the image of that sibling's.  Cells and least rows
are made from the matrix alone, so an automorphism that fixes P maps one
child's cells, rows and subtree onto the other's.  Neither cut removes the
first minimal leaf in DFS order, since every minimal leaf it removes is the
image of an earlier one, and every minimal ordering takes at each level a
node of the first cell that gives the least row, so the walk reaches it.
Candidates are tried in index order, so the witness, the final `first`, is
the node-index-least ordering (as a sequence of nodes) whose relabeling is
the canonical matrix.

|Aut(A)| is the orbit-stabilizer product, over the levels L of the final
`first` (the first minimal leaf), of the size of the orbit of first[L] under
the found generators that fix first[:L] pointwise.  With the full pointwise
stabilizer in place of the found generators the product is |Aut(A)|.  The
found generators give the same orbit: a node w in the full orbit lies in
first[L]'s cell and gives its row, so it heads a followed child of first[:L]
that holds a minimal leaf.  That child is either entered, and the first
minimal leaf found in it yields a generator that fixes first[:L] and maps
first[L] to w, or it is skipped as the image of a followed sibling under
found generators that fix first[:L], and that sibling holds a minimal leaf
too.

The same walk, with stop, is the prefix test of orderly generation.
Given the top m rows of a p x p matrix, it tries the orderings of the m known
nodes and puts the free nodes m..p-1 after them, sorted by their columns'
vectors over the ordered rows, which is the least arrangement of those
columns.  The free nodes are trailing cells: they start as one cell after the
known ones, each placed row splits them like any cell, and each row ends with
its sorted entries over them, but they never supply a candidate.  The
incumbent is the given rows.  A block below them is the top of a relabeling
of every completion, so the prefix starts no canonical matrix, and the walk
stops at the first row below the given one; at m = p it is the full
canonicity test.  The pruning carries over: two orderings with equal blocks
differ by a map of the known nodes that keeps the block and the multiset of
free columns, and composed with any ordering that map gives an ordering with
the same block, which is all the orbit and backjump cuts need.

At m = p the walk that accepts a canonical matrix never improves its
incumbent, the matrix itself, so it is the full search from that incumbent:
its first leaf is the identity ordering, and its generators give |Aut| by
the product above (_result).  So orderly generation hands each
class's CanonicalResult to the census, and no class is searched twice.

Results are memoized per matrix in a bounded dict, oldest entry dropped
first, and every entry passes the witness self-check as it is stored.  The
census stores each class's result, so the record parsers and catalog
verification, which call canonical_form on the canonical matrices the build
just made, find them there.  A traced census-d2 bench round (seed 1) makes
492 calls on 330 distinct inputs, of which 207 run a search, and a cli
round 209 on 124.  The search takes the rows of an already validated
ArcMatrix, and the self-check compares plain row tuples, so no matrix is
rebuilt or revalidated here.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import ArcMatrix, CensusInvariantError, check_node_cap

# Memo capacity.  Measured traffic is a few hundred distinct inputs per job
# (see above).  One cold bench round (seed 1) makes these calls, as hits on
# results the build stored / hits on results a search stored / misses, each
# a search: census-d2 277 / 8 / 207, symmetric 23 / 6 / 22 and oracle-d3
# 247 / 0 / 107.  So most calls are the parsers and catalog verification
# finding the classes the build just made.  The size is headroom for callers
# that canonicalize many labeled matrices themselves; the bound keeps memory
# flat beyond it.
_MEMO_SIZE = 2**15


class CanonicalResult(NamedTuple):
    """Canonical representative, automorphism group order, and a witness: the
    images w of a relabeling that carries the input onto the canonical form,
    canonical[w[i]][w[j]] == input[i][j], so w[i] is the new index of node i."""

    canonical: ArcMatrix
    aut_order: int
    witness: tuple[int, ...]


def _orbit_cells(gens: list[list[int]], fixed, p: int) -> list[int]:
    """Orbit label of each node under the generators that fix `fixed` pointwise."""
    cell = list(range(p))
    for g in gens:
        if all(g[x] == x for x in fixed):
            for x in range(p):
                a, b = cell[x], cell[g[x]]
                if a != b:
                    cell = [a if c == b else c for c in cell]
    return cell


def _least_block(rows: tuple[tuple[int, ...], ...], p: int, stop: bool):
    """Walk the orderings of the known nodes 0..m-1, m = len(rows) <= p.

    An ordering places the known nodes at positions 0..m-1 and the free
    nodes m..p-1 after them in the order of their columns' vectors over the
    ordered rows, the least such block.  Returns (best, first, gens): the
    rows of the least m x p block, its first leaf and the automorphisms
    found.  With stop, the incumbent is rows, and the walk returns None at
    the first row below it instead; without stop (a full search, m = p), a
    level's incumbent is the first least row found there.  With stop this is
    orderly generation's prefix test, and at m = p the full canonicity test.
    """
    m = len(rows)
    best = [list(row) for row in rows] if stop else []  # the incumbent, row by row
    first: tuple[int, ...] | None = None  # first leaf found that equals best
    gens: list[list[int]] = []  # automorphisms found, as node maps
    order: list[int] = []

    def dfs(cells) -> int:
        # Returns the level to resume at: p when done normally, L < m after
        # an automorphism is found whose leaf first leaves `first` at level
        # L, so that level's current child is abandoned, and -1 to stop.
        nonlocal first
        k = len(order)
        if k == m:
            if first is None:
                first = tuple(order)
                return p
            g = [0] * m
            for a, b in zip(first, order):
                g[a] = b
            gens.append(g)
            return next(level for level in range(m) if order[level] != first[level])
        head, rest = cells[0], cells[1:]
        least = best[k] if k < len(best) else None  # the least row k so far
        heads = []  # the candidates that give it, in head order
        for v in head:
            r = rows[v]
            row = [r[u] for u in order]
            row.append(r[v])
            if least is not None and row > least:
                continue  # its placed entries and loop already exceed least's
            if len(head) > 1:
                row += sorted([r[w] for w in head if w != v])
            for cell in rest:
                if len(cell) == 1:
                    row.append(r[cell[0]])
                else:
                    row += sorted(map(r.__getitem__, cell))
            if least is None or row < least:
                if stop:
                    return -1
                least, heads = row, [v]
            elif row == least:
                heads.append(v)
        if not heads:
            return p
        if k < len(best) and least is not best[k]:
            del best[k:]
            first = None
        if k == len(best):
            best.append(least)
        tried: list[int] = []
        known_gens, orbits = 0, None
        for v in heads:
            if gens:
                if known_gens != len(gens):
                    known_gens, orbits = len(gens), _orbit_cells(gens, order, m)
                if any(orbits[u] == orbits[v] for u in tried):
                    continue
            tried.append(v)
            r = rows[v]
            split = []  # each cell split by row k, ascending
            for cell in cells:
                if len(cell) == 1:
                    if cell[0] != v:
                        split.append(cell)
                    continue
                groups: dict[int, list[int]] = {}
                for w in cell:
                    if w != v:
                        groups.setdefault(r[w], []).append(w)
                split += (groups[x] for x in sorted(groups))
            order.append(v)
            level = dfs(split)
            order.pop()
            if level < k:
                return level
        return p

    stopped = dfs([cell for cell in (list(range(m)), list(range(m, p))) if cell]) < 0
    del dfs  # dfs refers to itself through its cell; break that cycle
    return None if stopped else (best, first, gens)


def _result(rows: tuple[tuple[int, ...], ...], best, first, gens) -> CanonicalResult:
    """The CanonicalResult of a whole-matrix walk: the least block, |Aut| as
    the orbit-stabilizer product over the levels of `first`, and the witness
    that carries rows onto the least block."""
    p = len(rows)
    aut_order = 1
    if gens:
        for level, v in enumerate(first):
            cells = _orbit_cells(gens, first[:level], p)
            aut_order *= cells.count(cells[v])
    images = [0] * p
    for position, v in enumerate(first):
        images[v] = position
    canon = tuple.__new__(ArcMatrix, (tuple(map(tuple, best)),))  # relabeled valid rows, unchecked
    return CanonicalResult(canon, aut_order, tuple(images))


# rows -> CanonicalResult, oldest first, at most _MEMO_SIZE entries
_memo: dict[tuple[tuple[int, ...], ...], CanonicalResult] = {}


def _remember(rows: tuple[tuple[int, ...], ...], result: CanonicalResult) -> None:
    """Memoize the result for rows, dropping the oldest entry when the memo is
    full.

    The witness must be a permutation of 0..p-1 that carries rows onto the
    canonical form, canon[w[i]][w[j]] == rows[i][j]; a result that fails
    either raises CensusInvariantError and is not stored.
    """
    canon, images = result.canonical.entries, result.witness
    if sorted(images) != list(range(len(rows))):
        raise CensusInvariantError(
            f"witness {images} is not a permutation of 0..{len(rows) - 1}"
        )
    if any(canon[images[i]][images[j]] != x
           for i, row in enumerate(rows) for j, x in enumerate(row)):
        raise CensusInvariantError(
            f"witness {images} does not carry {ArcMatrix(rows)} onto {result.canonical}"
        )
    if rows not in _memo and len(_memo) >= _MEMO_SIZE:
        del _memo[next(iter(_memo))]
    _memo[rows] = result


def canonical_form(matrix: ArcMatrix) -> CanonicalResult:
    """Canonical representative of a matrix's isomorphism class.

    Deterministic: equal inputs give identical results, and relabeled inputs
    give the same canonical matrix and aut_order.
    """
    check_node_cap(matrix.p)
    rows = matrix.entries
    result = _memo.get(rows)
    if result is None:
        result = _result(rows, *_least_block(rows, len(rows), stop=False))
        _remember(rows, result)
    return result


def clear_cache() -> None:
    """Drop memoized canonical forms and cached class and labeled counts
    (useful for benchmarking from cold)."""
    from .generate import class_count, count_regular_matrices  # generate imports this module

    _memo.clear()
    class_count.cache_clear()
    count_regular_matrices.cache_clear()
