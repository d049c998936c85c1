"""Arc-count matrices for regular directed multigraphs and the exact counting primitives.

A directed multigraph on p nodes is stored as a p x p matrix of arc
multiplicities: entry (i, j) counts the arcs i -> j.  A matrix is d-regular
when every row and every column sums to d, i.e. every node has d outgoing and
d incoming arcs.  Node names are 1-based in all printed text; indices in this
module are 0-based.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# The node count is capped.  The census and oracle budgets refuse large sizes
# up front, but not census -p 11 -d 1: class_count(11, 1) is 56, under
# census.CLASS_BUDGET, so the cap is its only refusal; (10,1) takes 0.1-0.2 s
# of CPU on one core of a 2-vCPU host (tools/time_builds.py).  The cap is
# also the only refusal of canonical_form on 11 or more nodes.
NODE_CAP = 10

# Every emitted count must fit a signed 64-bit integer so CSV/JSON consumers
# can hold it losslessly.
COUNT_BUDGET = 2**63 - 1


class ResourceLimitError(Exception):
    """A requested computation exceeds the configured size limits."""


class NodeCapError(ResourceLimitError):
    """Node count above NODE_CAP."""


class CountBudgetError(ResourceLimitError):
    """An exact count would not fit the 64-bit interop budget or d >= 63, a
    census would have more classes than census.CLASS_BUDGET, or an oracle
    more words than census.WORD_BUDGET or more relabelings to list than
    census.ORBIT_BUDGET."""


class DimensionError(ValueError):
    """Operands disagree on node count or shape."""


class RegularityError(ValueError):
    """A matrix that was required to be d-regular is not."""


class CensusInvariantError(RuntimeError):
    """The computed census violates one of its own exact identities.

    This signals a bug in the library, never bad user input, so it is raised
    loudly instead of being folded into a report.
    """


def check_node_cap(p: int) -> None:
    if p < 0:
        raise ValueError("node count must be nonnegative")
    if p > NODE_CAP:
        raise NodeCapError(f"p={p} exceeds the supported maximum of {NODE_CAP} nodes")


_INT = frozenset((int,))  # the one type of an arc multiplicity or a node name


class _Checked:
    """Base of a validating named tuple: _make, and so _replace, go through the
    class's own constructor and its checks instead of tuple.__new__."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ArcMatrix(_Checked, NamedTuple("ArcMatrix", [("entries", tuple)])):
    """Immutable p x p matrix of nonnegative arc multiplicities.

    Each multiplicity must be an int, not a float, a bool or another
    subclass of int.  p = 0 is legal and denotes the null multigraph (no
    nodes, no arcs).  Instances are hashable and safe to share between
    threads.  They compare by their entries in row-major lexicographic
    order, the order that ranks census classes.
    """

    __slots__ = ()

    def __new__(cls, entries=()):
        rows = tuple(tuple(row) for row in entries)
        p = len(rows)
        for row in rows:
            if len(row) != p:
                raise DimensionError(
                    f"expected a {p}x{p} matrix, got a row of length {len(row)}"
                )
            if not _INT.issuperset(map(type, row)):
                raise ValueError(f"arc multiplicities must be integers: {row!r}")
            if row and min(row) < 0:
                raise ValueError(f"arc multiplicities must be nonnegative: {row!r}")
        return super().__new__(cls, rows)

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
        n = 0  # d!/prod e! as a product of binomials, one per entry
        for e in col:
            n += e
            result *= math.comb(n, e)
    return result


def total_configurations(p: int, d: int) -> int:
    """Exact count (d*p)! / (d!)**p of labeled in-slot configurations on p nodes.

    The count is the product of C(k*d, d) for k = 2..p, 1 at p <= 1, built
    one factor at a time; CountBudgetError is raised as soon as the product
    passes COUNT_BUDGET, and the arithmetic itself is always exact.  It
    refuses d >= 63 first, at every p: C(2d, d) >= 2^d, so no count of two
    or more nodes fits the budget there either.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    if d < 1:
        raise ValueError("d must be a positive integer")
    if d >= COUNT_BUDGET.bit_length():
        raise CountBudgetError(f"d={d} exceeds the largest degree, {COUNT_BUDGET.bit_length() - 1}")
    total = 1
    for k in range(2, p + 1):
        total *= math.comb(k * d, d)
        if total > COUNT_BUDGET:
            raise CountBudgetError(f"({d}*{p})!/({d}!)^{p} exceeds the exact-count budget")
    return total
