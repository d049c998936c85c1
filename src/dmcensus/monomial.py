"""Monomial text encoding of multigraphs: one x_ij factor per arc occurrence.

Grammar (whitespace = one or more spaces/tabs):

    monomial := "1" | factor (ws factor)*
    factor   := "x" digit digit          compact, node names 1..9
              | "x_{" int [","] int "}"  braced; without a comma the body must
                                         be exactly two single digits
              | "x[" int "," int "]"     bracketed, arbitrary node numbers

The literal "1" denotes the empty monomial (the null multigraph).  Exponents
are written by repeating a factor; caret notation is rejected.  Factor lists
are normalized to sorted order.  Digits are ASCII 0-9 only.

Text is read in two ways that agree.  Well-formed factor text matches one
pattern, compiled at import, and its node numbers are read in one more
sweep.  Anything else, the constant "1" included, goes to a scanner that
reads one character at a time and so can name the first error and its
offset: a malformed factor, a node named 0, or a number too long for int.

Printing has one rule: "1" for the empty monomial, compact factors (x12)
when every node name is at most 9, bracketed ones (x[1,12]) otherwise.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import NamedTuple

from .core import ArcMatrix, _Checked, _INT


class MonomialParseError(ValueError):
    """Malformed monomial text; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class DegreeError(ValueError):
    """Monomial does not define a d-regular multigraph on p nodes.

    row_deficit[i] / col_deficit[j] hold the missing out-arcs of node i+1 and
    missing in-arcs of node j+1 (negative values mean excess).
    """

    def __init__(self, message: str, row_deficit, col_deficit):
        super().__init__(message)
        self.row_deficit = tuple(row_deficit)
        self.col_deficit = tuple(col_deficit)


class Monomial(_Checked, NamedTuple("Monomial", [("factors", tuple)])):
    """Multiset of (source, target) arc factors, kept sorted; () is the constant 1.

    Each node name must be an int, not a float, a bool or another subclass
    of int.
    """

    __slots__ = ()

    def __new__(cls, factors=()):
        factors = [(i, j) for i, j in factors]
        if not _INT.issuperset(map(type, chain.from_iterable(factors))):
            bad = next(f for f in factors if not _INT.issuperset(map(type, f)))
            raise ValueError(f"node names must be integers: {bad!r}")
        factors = tuple(sorted(factors))
        for i, j in factors:
            if i < 1 or j < 1:
                raise ValueError(f"node names start at 1: ({i},{j})")
        return super().__new__(cls, factors)

    def __str__(self):
        return print_monomial(self)


def _scan_digits(text: str, pos: int) -> tuple[str, int]:
    start = pos
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    if pos == start:
        raise MonomialParseError("expected a number", pos)
    return text[start:pos], pos


def _node_value(digits: str, pos: int) -> int:
    try:
        value = int(digits)
    except ValueError:  # more digits than the interpreter's int-string limit
        raise MonomialParseError(f"node number too long ({len(digits)} digits)", pos) from None
    if value < 1:
        raise MonomialParseError("node names start at 1", pos)
    return value


def _expect(text: str, pos: int, char: str) -> int:
    if pos >= len(text) or text[pos] != char:
        raise MonomialParseError(f"expected {char!r}", pos)
    return pos + 1


def _scan_factor(text: str, pos: int) -> tuple[tuple[int, int], int]:
    if text[pos] != "x":
        raise MonomialParseError("expected a factor starting with 'x'", pos)
    pos += 1
    if pos < len(text) and text[pos] == "_":
        pos = _expect(text, pos + 1, "{")
        start = pos
        digits, pos = _scan_digits(text, pos)
        if pos < len(text) and text[pos] == ",":
            i = _node_value(digits, start)
            start = pos + 1
            digits, pos = _scan_digits(text, start)
            j = _node_value(digits, start)
        else:
            if len(digits) != 2:
                raise MonomialParseError(
                    "braced factor without a comma needs exactly two single digits",
                    start,
                )
            i = _node_value(digits[0], start)
            j = _node_value(digits[1], start + 1)
        pos = _expect(text, pos, "}")
        return (i, j), pos
    if pos < len(text) and text[pos] == "[":
        start = pos + 1
        digits, pos = _scan_digits(text, start)
        i = _node_value(digits, start)
        pos = _expect(text, pos, ",")
        start = pos
        digits, pos = _scan_digits(text, start)
        j = _node_value(digits, start)
        pos = _expect(text, pos, "]")
        return (i, j), pos
    # compact: exactly two single-digit node names
    if pos + 1 >= len(text) or not ("0" <= text[pos] <= "9" and "0" <= text[pos + 1] <= "9"):
        raise MonomialParseError("compact factor needs two digits after 'x'", pos)
    i = _node_value(text[pos], pos)
    j = _node_value(text[pos + 1], pos + 1)
    return (i, j), pos + 2


def _scan_monomial(text: str) -> Monomial:
    """parse_monomial read one character at a time, naming the first error."""

    n = len(text)

    def skip_ws(pos):
        while pos < n and text[pos] in " \t":
            pos += 1
        return pos

    pos = skip_ws(0)
    if pos == n:
        raise MonomialParseError("empty input; the constant monomial is written '1'", pos)
    if text[pos] == "1":
        pos = skip_ws(pos + 1)
        if pos != n:
            raise MonomialParseError("the constant '1' cannot be mixed with factors", pos)
        return Monomial()
    factors = []
    while True:
        factor, pos = _scan_factor(text, pos)
        factors.append(factor)
        if pos == n:
            break
        if text[pos] not in " \t":
            raise MonomialParseError("expected whitespace between factors", pos)
        pos = skip_ws(pos)
        if pos == n:
            break
    return Monomial(tuple(factors))


# A node number of at least 1, leading zeros allowed, and the factor forms
# of the grammar built from it; a node named 0 matches none of them.
_NODE = "0*[1-9][0-9]*"
_FACTOR = rf"x(?:[1-9][1-9]|_\{{(?:[1-9][1-9]|{_NODE},{_NODE})\}}|\[{_NODE},{_NODE}\])"
_WELL_FORMED = re.compile(rf"[ \t]*{_FACTOR}(?:[ \t]+{_FACTOR})*[ \t]*")
# In well-formed text each factor holds one run "i,j" or "ij" of node digits.
_NODE_PAIRS = re.compile("([0-9]+),?([0-9]+)")


def parse_monomial(text: str) -> Monomial:
    """Parse monomial text in any mix of compact, braced, and bracketed factors."""
    if _WELL_FORMED.fullmatch(text):
        try:
            factors = [(int(i), int(j)) for i, j in _NODE_PAIRS.findall(text)]
        except ValueError:  # more digits than the interpreter's int-string limit
            pass
        else:  # positive ints, sorted here: Monomial's checks hold
            return tuple.__new__(Monomial, (tuple(sorted(factors)),))
    return _scan_monomial(text)


# The text of each compact factor, made once: a printed monomial of d factors
# then joins d references to these, not d new strings.
_COMPACT = {(i, j): f"x{i}{j}" for i in range(1, 10) for j in range(1, 10)}


def print_monomial(mono: Monomial) -> str:
    """Render a monomial by the module's print rule; parse_monomial inverts it."""
    if not mono.factors:
        return "1"
    try:
        return " ".join(map(_COMPACT.__getitem__, mono.factors))
    except KeyError:  # a node name above 9
        return " ".join([f"x[{i},{j}]" for i, j in mono.factors])


def monomial_to_matrix(mono: Monomial, p: int, d: int) -> ArcMatrix:
    """Build the arc matrix of a monomial and validate d-regularity on p nodes.

    Raises DegreeError carrying the per-node deficit vectors when any row or
    column sum differs from d (which also covers a wrong total factor count).
    """
    grid = [[0] * p for _ in range(p)]
    row_deficit = [d] * p
    col_deficit = [d] * p
    for i, j in mono.factors:
        if i > p or j > p:
            raise ValueError(f"factor ({i},{j}) names a node beyond p={p}")
        grid[i - 1][j - 1] += 1
        row_deficit[i - 1] -= 1
        col_deficit[j - 1] -= 1
    if any(row_deficit) or any(col_deficit):
        out = ", ".join(f"node {i + 1}: {v}" for i, v in enumerate(row_deficit) if v)
        into = ", ".join(f"node {j + 1}: {v}" for j, v in enumerate(col_deficit) if v)
        raise DegreeError(
            f"monomial has {len(mono.factors)} factors, expected {d * p} for "
            f"p={p}, d={d}; out-arc deficits: {out or 'none'}; "
            f"in-arc deficits: {into or 'none'}",
            row_deficit,
            col_deficit,
        )
    return tuple.__new__(ArcMatrix, (tuple(map(tuple, grid)),))  # p x p counts, unchecked


def matrix_to_monomial(matrix: ArcMatrix) -> Monomial:
    """Inverse encoding: factor (i, j) repeated entries[i][j] times, sorted.

    The factors are built in sorted order from enumerate's 1-based indices,
    so the result skips Monomial's type check and sort.
    """
    factors = []
    for i, row in enumerate(matrix.entries, start=1):
        for j, mult in enumerate(row, start=1):
            factors.extend([(i, j)] * mult)
    return tuple.__new__(Monomial, (tuple(factors),))
