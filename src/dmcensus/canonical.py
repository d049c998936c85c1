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

Results are memoized per matrix in a bounded LRU cache.  A census searches
one matrix per class, so the memo's hits come after the build: the record
parsers and catalog verification search again canonical matrices that the
build already searched.  A traced census-d2 bench round makes 628 calls on
331 distinct inputs, and a cli round 710 on 330.  The search takes the rows
of an already validated ArcMatrix, and the witness self-check on each memo
miss compares plain row tuples, so no matrix is rebuilt or revalidated here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import ArcMatrix, DimensionError, Permutation, check_node_cap

# Memo capacity.  Measured traffic is a few hundred distinct inputs per job
# (see above), and without the memo a cold census-d2 bench round takes about
# a fifth longer.  The size is headroom for callers that canonicalize many
# labeled matrices themselves; the LRU bound keeps memory flat beyond it.
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


def _search(rows: tuple[tuple[int, ...], ...]):
    p = len(rows)
    best = [rows[a][b] for a in range(p) for b in range(p)]
    first: tuple[int, ...] | None = None  # first leaf found that equals best
    gens: list[list[int]] = []  # automorphisms found, as node maps
    order: list[int] = []
    unused = set(range(p))

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
            offset = base + k
            for t, x in enumerate(sorted(row[u] for u in unused)):
                y = best[offset + t]
                if x != y:
                    return x > y
            base += p
        return False

    def dfs() -> int:
        # Returns the level to resume at: p when done normally, and L < p
        # after an automorphism is found whose leaf first leaves `first` at
        # level L, so that level's current child is abandoned.
        nonlocal first
        k = len(order)
        if k == p:
            flat = [rows[order[a]][order[b]] for a in range(p) for b in range(p)]
            if flat < best:
                best[:] = flat
                first = tuple(order)
            elif flat == best:
                if first is None:
                    first = tuple(order)
                    return p
                g = [0] * p
                for a, b in zip(first, order):
                    g[a] = b
                gens.append(g)
                return next(level for level in range(p) if order[level] != first[level])
            return p
        tried: list[int] = []
        known_gens, cells = 0, None
        for v in sorted(unused):
            if gens:
                if known_gens != len(gens):
                    known_gens, cells = len(gens), _orbit_cells(gens, order, p)
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

    dfs()
    aut_order = 1
    if gens:
        for level, v in enumerate(first):
            cells = _orbit_cells(gens, first[:level], p)
            aut_order *= cells.count(cells[v])
    canon = tuple(tuple(best[a * p : (a + 1) * p]) for a in range(p))
    images = [0] * p
    for position, v in enumerate(first):
        images[v] = position
    return canon, aut_order, tuple(images)


@lru_cache(maxsize=_MEMO_SIZE)
def _canonical_cached(rows: tuple[tuple[int, ...], ...]) -> CanonicalResult:
    canon_rows, aut_order, images = _search(rows)
    result = CanonicalResult(ArcMatrix(canon_rows), aut_order, Permutation(images))
    # The witness carries rows onto the canonical form: canon[w(i)][w(j)] == rows[i][j].
    assert all(canon_rows[images[i]][images[j]] == x
               for i, row in enumerate(rows) for j, x in enumerate(row))
    return result


def canonical_form(matrix: ArcMatrix) -> CanonicalResult:
    """Canonical representative of a matrix's isomorphism class.

    Deterministic: equal inputs give identical results, and relabeled inputs
    give the same canonical matrix and aut_order.
    """
    check_node_cap(matrix.p)
    return _canonical_cached(matrix.entries)


def are_isomorphic(a: ArcMatrix, b: ArcMatrix) -> bool:
    """True iff some relabeling carries a onto b."""
    if a.p != b.p:
        raise DimensionError(f"cannot compare {a.p}-node and {b.p}-node matrices")
    return canonical_form(a).canonical == canonical_form(b).canonical


def automorphism_order(matrix: ArcMatrix) -> int:
    """Number of node permutations fixing the matrix."""
    return canonical_form(matrix).aut_order


def clear_cache() -> None:
    """Drop memoized canonical forms (useful for benchmarking from cold)."""
    _canonical_cached.cache_clear()
