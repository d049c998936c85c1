"""Canonical labeling under simultaneous row/column permutation.

The canonical form of an arc matrix A is the lexicographically smallest matrix
(row-major flattening, compared as an integer sequence) among all relabelings
of A.  The search walks orderings of the original nodes depth-first, trying
the unused nodes at each level in index order: placing node v at target
position k fixes the top-left (k+1) x (k+1) block, and a branch is abandoned
as soon as an optimistic completion of its first k rows already compares
greater than the best matrix found so far.  The optimistic
completion fills each undetermined row tail with that row's remaining entries
in ascending order, which lower-bounds every true completion, so this bound
pruning never removes a branch that holds a minimal leaf.

The search also prunes with the automorphisms it finds (McKay, "Practical
Graph Isomorphism", 1981; McKay & Piperno, 2014).  Let `first` be the first
leaf found that equals the incumbent.  A later leaf `order` equal to the
incumbent gives the automorphism g with g(first[i]) = order[i]; it stays an
automorphism of A when the incumbent later improves.  If `order` first leaves
`first` at level L, g fixes first[:L] pointwise and maps the subtree of
first's child at level L onto the current child, so the rest of that child is
skipped (backjump).  At a node with prefix P, a candidate in the orbit of an
already tried sibling under the generators that fix P pointwise is skipped:
its subtree is the image of that sibling's.  Neither cut removes the first
minimal leaf in DFS order, since every minimal leaf it removes is the image
of an earlier one, so the result and its witness do not depend on pruning.
The witness, the final `first`, is therefore the node-index-least ordering
(as a sequence of nodes) whose relabeling is the canonical matrix.  The
order in which children are tried cannot change the canonical matrix or
|Aut|, only which minimal leaf comes first.

|Aut(A)| is the orbit-stabilizer product, over the levels L of the final
`first` (the first minimal leaf), of the size of the orbit of first[L] under
the found generators that fix first[:L] pointwise.  With the full pointwise
stabilizer in place of the found generators the product is |Aut(A)|.  The
found generators give the same orbit: a node w in the full orbit heads a
child of first[:L] that holds a minimal leaf.  That child is either entered,
and the first minimal leaf found in it yields a generator that fixes
first[:L] and maps first[L] to w, or it is skipped as the image of a tried
sibling under found generators that fix first[:L], and that sibling holds a
minimal leaf too.

The search starts from a greedy incumbent, not from the input
(_greedy_leaf): at each position it places the unused node least by the
optimistic completion, ties to the least node.  Branch and bound prunes only
as well as its incumbent allows (McKay 1981), and a good first incumbent
leaves fewer improving leaves and fewer branches to walk.  Only the starting
incumbent changes.  The DFS still replaces it at a leaf strictly below it,
sets `first` at the first leaf equal to it, takes generators only once
`first` is set, and prunes by the bound only where the bound is strictly
greater, which never removes a minimal leaf.  The arguments above hold for
any starting incumbent no smaller than the canonical matrix, so the
canonical matrix, |Aut| and the witness are those of a search from the input.

The same walk is the prefix test of orderly generation
(_accepting_walk).  Given the top m rows of a p x p matrix, it tries
the orderings of the m known nodes and puts the free nodes m..p-1 after
them, sorted by their columns' vectors over the ordered rows, which is the
least arrangement of those columns.  A block below the given rows is the
top of a relabeling of every completion, so the prefix starts no canonical
matrix, and the walk stops there; at m = p it is the full canonicity test.
The bound carries over, as a row tail still holds the row's entries over
the unused and free nodes.  So does the pruning: two orderings with equal
blocks differ by a map of the known nodes that keeps the block and the
multiset of free columns, and composed with any ordering that map gives an
ordering with the same block, which is all the orbit and backjump cuts
need.

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

from dataclasses import dataclass

from .core import ArcMatrix, CensusInvariantError, Permutation, check_node_cap

# Memo capacity.  Measured traffic is a few hundred distinct inputs per job
# (see above).  With the census built by orderly generation the memo still
# pays: a cold census-d2 bench round took 0.076-0.078 s scaled with it and
# 0.103-0.108 s with a size of 1 (6 alternating pairs of 8 s runs, seeds 3-8,
# one pinned core of a 2-vCPU host).  The size is headroom for callers that
# canonicalize many labeled matrices themselves; the bound keeps memory flat
# beyond it.
_MEMO_SIZE = 2**15


@dataclass(frozen=True)
class CanonicalResult:
    """Canonical representative, automorphism group order, and a witness
    permutation mapping the input onto the canonical form."""

    canonical: ArcMatrix
    aut_order: int
    witness: Permutation


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


def _greedy_leaf(rows: tuple[tuple[int, ...], ...]) -> list[int]:
    """The relabeling, row-major, of the ordering that takes at each position
    the unused node least by the optimistic completion, ties to the least node.

    A node v at position k adds its column over the placed rows, then its row
    over the placed nodes, its loop count and the rest of its row, the order
    in which the optimistic completion of rows 0..k compares them: where two
    candidates' columns agree, the placed rows keep equal tails.
    """
    order, unused = [], list(range(len(rows)))

    def key(v):
        row = rows[v]
        return ([rows[a][v] for a in order], [row[a] for a in order], row[v],
                sorted(row[u] for u in unused if u != v))

    while unused:
        v = min(unused, key=key)
        order.append(v)
        unused.remove(v)
    return [rows[a][b] for a in order for b in order]


def _least_block(rows: tuple[tuple[int, ...], ...], p: int, stop: bool):
    """Walk the orderings of the known nodes 0..m-1, m = len(rows) <= p.

    An ordering places the known nodes at positions 0..m-1 and the free
    nodes m..p-1 after them in the order of their columns' vectors over the
    ordered rows, the least such block.  Returns (best, first, gens): the
    least m x p block found (row-major), its first leaf and the automorphisms
    found.  With stop, the incumbent is rows, and the walk returns None at
    the first block below it instead; without stop (a full search, m = p),
    the incumbent is the greedy leaf.
    """
    m = len(rows)
    best = [x for row in rows for x in row] if stop else _greedy_leaf(rows)
    first: tuple[int, ...] | None = None  # first leaf found that equals best
    gens: list[list[int]] = []  # automorphisms found, as node maps
    order: list[int] = []
    unused = set(range(p))  # free nodes stay in: they fill every row tail

    def exceeds_best(k: int) -> bool:
        # Compare the optimistic completion of rows 0..k-1 against the
        # incumbent; the first differing entry decides.
        base = 0
        for a in range(k):
            row = rows[order[a]]
            for j in range(k):
                x, y = row[order[j]], best[base + j]
                if x != y:
                    return x > y
            tail = sorted(map(row.__getitem__, unused))
            incumbent = best[base + k : base + p]
            if tail != incumbent:
                return tail > incumbent
            base += p
        return False

    def dfs() -> int:
        # Returns the level to resume at: p when done normally, L < m after
        # an automorphism is found whose leaf first leaves `first` at level
        # L, so that level's current child is abandoned, and -1 to stop.
        nonlocal first
        k = len(order)
        if k == m:
            placed = [rows[v] for v in order]
            flat = [row[v] for row in placed for v in order]
            if m < p:
                tails = list(zip(*sorted(zip(*[row[m:] for row in placed]))))
                flat = [x for a in range(m) for x in (*flat[a * m : a * m + m], *tails[a])]
            if flat < best:
                if stop:
                    return -1
                best[:] = flat
                first = tuple(order)
            elif flat == best:
                if first is None:
                    first = tuple(order)
                    return p
                g = [0] * m
                for a, b in zip(first, order):
                    g[a] = b
                gens.append(g)
                return next(level for level in range(m) if order[level] != first[level])
            return p
        tried: list[int] = []
        known_gens, cells = 0, None
        for v in sorted(unused):
            if v >= m:
                break
            if gens:
                if known_gens != len(gens):
                    known_gens, cells = len(gens), _orbit_cells(gens, order, m)
                if any(cells[u] == cells[v] for u in tried):
                    continue
            tried.append(v)
            order.append(v)
            unused.remove(v)
            level = p if exceeds_best(k + 1) else dfs()
            unused.add(v)
            order.pop()
            if level < k:
                return level
        return p

    stopped = dfs() < 0
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
    canon = tuple(tuple(best[a * p : (a + 1) * p]) for a in range(p))
    images = [0] * p
    for position, v in enumerate(first):
        images[v] = position
    return CanonicalResult(ArcMatrix(canon), aut_order, Permutation(tuple(images)))


def _accepting_walk(rows: tuple[tuple[int, ...], ...], p: int):
    """The walk of the prefix test, (best, first, gens), when it accepts rows, else None.

    Some relabeling of every completion starts with a block below rows when
    an ordering of the known nodes 0..m-1 gives one; at m = p this is the full
    canonicity test.  Two cheap checks come before the walk.  The identity
    ordering: the free columns m..p-1 must already ascend by their vectors
    over the rows.  The top row: an ordering that starts at node v can make
    it v's loop count, then v's other known entries ascending, then its free
    entries ascending, which must not fall below rows[0].
    """
    m = len(rows)
    free = list(zip(*[row[m:] for row in rows]))
    if any(a > b for a, b in zip(free, free[1:])):
        return None
    for v, row in enumerate(rows):
        if (row[v], *sorted(row[:v] + row[v + 1 : m]), *sorted(row[m:])) < rows[0]:
            return None
    return _least_block(rows, p, stop=True)


# rows -> CanonicalResult, oldest first, at most _MEMO_SIZE entries
_memo: dict[tuple[tuple[int, ...], ...], CanonicalResult] = {}


def _remember(rows: tuple[tuple[int, ...], ...], result: CanonicalResult) -> None:
    """Memoize the result for rows, dropping the oldest entry when the memo is full.

    The witness must carry rows onto the canonical form, canon[w(i)][w(j)] ==
    rows[i][j]; a result that fails this raises CensusInvariantError and is
    not stored.
    """
    canon, images = result.canonical.entries, result.witness.images
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
    """Drop memoized canonical forms (useful for benchmarking from cold)."""
    _memo.clear()
