"""Canonical labeling under simultaneous row/column permutation.

The canonical form of an arc matrix A is the lexicographically smallest matrix
(row-major flattening, compared as an integer sequence) among all relabelings
of A.  The search walks orderings of the original nodes depth-first: placing
node v at target position k fixes the top-left (k+1) x (k+1) block, and a
branch is abandoned as soon as an optimistic completion of its first k rows
already compares greater than the best matrix found so far.  The optimistic
completion fills each undetermined row tail with that row's remaining entries
in ascending order, which lower-bounds every true completion, so the pruning
is exact.  Orderings that realize the minimum form one coset of the
automorphism group, so counting them yields |Aut(A)| for free.

Results are memoized per matrix; census construction hits the same matrices
many times.  The search takes the rows of an already validated ArcMatrix, and
the witness self-check on each memo miss compares plain row tuples, so no
matrix is rebuilt or revalidated here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import ArcMatrix, DimensionError, Permutation, check_node_cap


@dataclass(frozen=True)
class CanonicalResult:
    """Canonical representative, automorphism group order, and a witness
    permutation mapping the input onto the canonical form."""

    canonical: ArcMatrix
    aut_order: int
    witness: Permutation


def _search(rows: tuple[tuple[int, ...], ...]):
    p = len(rows)
    if p == 0:
        return (), 1, ()

    best = [rows[a][b] for a in range(p) for b in range(p)]
    count = 0
    witness_order = tuple(range(p))
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

    def candidate_key(v: int, k: int):
        row = rows[v]
        known = tuple(row[order[j]] for j in range(k))
        tail = tuple(sorted(row[u] for u in unused if u != v))
        return known + (row[v],) + tail

    def dfs():
        nonlocal count, witness_order
        k = len(order)
        if k == p:
            flat = [rows[order[a]][order[b]] for a in range(p) for b in range(p)]
            if flat < best:
                best[:] = flat
                count = 1
                witness_order = tuple(order)
            elif flat == best:
                count += 1
            return
        for v in sorted(unused, key=lambda v: (candidate_key(v, k), v)):
            order.append(v)
            unused.remove(v)
            if not exceeds_best(k + 1):
                dfs()
            unused.add(v)
            order.pop()

    dfs()
    canon = tuple(tuple(best[a * p : (a + 1) * p]) for a in range(p))
    images = [0] * p
    for position, v in enumerate(witness_order):
        images[v] = position
    return canon, count, tuple(images)


@lru_cache(maxsize=None)
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
