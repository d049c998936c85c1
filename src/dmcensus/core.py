"""Arc-count matrices for regular directed multigraphs and the exact counting primitives.

A directed multigraph on p nodes is stored as a p x p matrix of arc
multiplicities: entry (i, j) counts the arcs i -> j.  A matrix is d-regular
when every row and every column sums to d, i.e. every node has d outgoing and
d incoming arcs.  Node names are 1-based in all printed text; indices in this
module are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# The node count is capped.  Canonical search prunes with the automorphisms it
# finds, so symmetric inputs are no longer factorial (2*I_10 takes
# milliseconds), but the census enumerations still grow steeply with p.  The
# cap is generous: the desk-scale target is p <= 5.
NODE_CAP = 10

# Every emitted count must fit a signed 64-bit integer so CSV/JSON consumers
# can hold it losslessly.
COUNT_BUDGET = 2**63 - 1


class ResourceLimitError(Exception):
    """A requested computation exceeds the configured size limits."""


class NodeCapError(ResourceLimitError):
    """Node count above NODE_CAP."""


class CountBudgetError(ResourceLimitError):
    """An exact count would not fit the 64-bit interop budget."""


class DimensionError(ValueError):
    """Operands disagree on node count or shape."""


class RegularityError(ValueError):
    """A matrix that was required to be d-regular is not."""


def check_node_cap(p: int) -> None:
    if p < 0:
        raise ValueError("node count must be nonnegative")
    if p > NODE_CAP:
        raise NodeCapError(f"p={p} exceeds the supported maximum of {NODE_CAP} nodes")


@dataclass(frozen=True, order=True)
class ArcMatrix:
    """Immutable p x p matrix of nonnegative arc multiplicities.

    p = 0 is legal and denotes the null multigraph (no nodes, no arcs).
    Instances are hashable and safe to share between threads.  They compare
    by their entries in row-major lexicographic order, the order that ranks
    census classes.
    """

    entries: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        p = len(rows)
        for row in rows:
            if len(row) != p:
                raise DimensionError(
                    f"expected a {p}x{p} matrix, got a row of length {len(row)}"
                )
            if row and min(row) < 0:
                raise ValueError(f"arc multiplicities must be nonnegative: {row!r}")

    @property
    def p(self) -> int:
        return len(self.entries)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)

    def col_sums(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.entries))

    def __str__(self):
        if not self.entries:
            return "[]"
        return "; ".join(" ".join(str(e) for e in row) for row in self.entries)


@dataclass(frozen=True)
class Permutation:
    """Bijection on 0-based node indices; images[i] is the new name of node i."""

    images: tuple[int, ...] = ()

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")

    @classmethod
    def identity(cls, p: int) -> "Permutation":
        return cls(tuple(range(p)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, image in enumerate(self.images):
            inv[image] = i
        return Permutation(tuple(inv))

    def __len__(self):
        return len(self.images)


@dataclass(frozen=True, order=True)
class ClassId:
    """Class designation: node count, rank, and cardinality.

    The rank is the 1-based position of the class when all classes for this
    node count are sorted ascending by canonical matrix.
    """

    p: int
    rank: int
    cardinality: int

    def __str__(self):
        return f"{self.p},{self.rank},{self.cardinality}"


def apply_permutation(matrix: ArcMatrix, perm: Permutation) -> ArcMatrix:
    """Relabel nodes: result[perm(i)][perm(j)] = matrix[i][j]."""
    p = matrix.p
    if len(perm) != p:
        raise DimensionError(
            f"permutation on {len(perm)} names applied to a {p}-node matrix"
        )
    inv = perm.inverse().images
    rows = matrix.entries
    return ArcMatrix(
        tuple(tuple(rows[inv[a]][inv[b]] for b in range(p)) for a in range(p))
    )


def is_regular(matrix: ArcMatrix, d: int) -> bool:
    """True when every node has out-degree d and in-degree d (vacuous for p = 0)."""
    return all(s == d for s in matrix.row_sums()) and all(
        s == d for s in matrix.col_sums()
    )


def weight(matrix: ArcMatrix, d: int) -> int:
    """Number of ways to assign each node's d in-slots to its incoming arcs.

    For column j the d identical in-slots of node j are filled by its incoming
    arcs, giving d! / prod_i entries[i][j]! orderings; the weight is the
    product over all columns.  It is invariant under node relabeling and
    always divides (d!)**p.
    """
    if not is_regular(matrix, d):
        raise RegularityError(f"weight is defined only for d-regular matrices (d={d})")
    result = 1
    for col in zip(*matrix.entries):
        n = 0  # d!/prod e! as binomials, cheap for the huge d a 1-node census allows
        for e in col:
            n += e
            result *= math.comb(n, e)
    return result


def total_configurations(p: int, d: int) -> int:
    """Exact count (d*p)! / (d!)**p of labeled in-slot configurations on p nodes.

    Raises CountBudgetError instead of returning a value beyond COUNT_BUDGET;
    the arithmetic itself is always exact.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    if d < 1:
        raise ValueError("d must be a positive integer")
    if p <= 1:
        return 1
    if d * p > 10_000:
        # For p >= 2 the count is at least C(d*p, d), which already dwarfs the
        # budget here; refuse before computing a gigantic factorial.
        raise CountBudgetError(f"({d}*{p})!/({d}!)^{p} exceeds the exact-count budget")
    total = math.factorial(d * p) // (math.factorial(d) ** p)
    if total > COUNT_BUDGET:
        raise CountBudgetError(
            f"({d}*{p})!/({d}!)^{p} = {total} exceeds the exact-count budget"
        )
    return total
