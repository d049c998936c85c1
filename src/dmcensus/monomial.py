"""Monomial text encoding of multigraphs: one x_ij factor per arc occurrence.

Grammar (whitespace = one or more spaces/tabs):

    monomial := "1" | factor (ws factor)*
    factor   := "x" digit digit          compact, node names 1..9
              | "x_{" int [","] int "}"  braced; without a comma the body must
                                         be exactly two single digits
              | "x[" int "," int "]"     bracketed, arbitrary node numbers

The literal "1" denotes the empty monomial (the null multigraph).  Exponents
are written by repeating a factor; caret notation is rejected.  Factor lists
are normalized to sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ArcMatrix


class MonomialParseError(ValueError):
    """Malformed monomial text; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class StyleError(ValueError):
    """The requested print style cannot represent this monomial."""


class DegreeError(ValueError):
    """Monomial does not define a d-regular multigraph on p nodes.

    row_deficit[i] / col_deficit[j] hold the missing out-arcs of node i+1 and
    missing in-arcs of node j+1 (negative values mean excess).
    """

    def __init__(self, message: str, row_deficit, col_deficit):
        super().__init__(message)
        self.row_deficit = tuple(row_deficit)
        self.col_deficit = tuple(col_deficit)


@dataclass(frozen=True)
class Monomial:
    """Multiset of (source, target) arc factors, kept sorted; () is the constant 1."""

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        factors = tuple(sorted((int(i), int(j)) for i, j in self.factors))
        for i, j in factors:
            if i < 1 or j < 1:
                raise ValueError(f"node names start at 1: ({i},{j})")
        object.__setattr__(self, "factors", factors)

    def max_node(self) -> int:
        return max((max(i, j) for i, j in self.factors), default=0)

    def __str__(self):
        style = "compact" if self.max_node() <= 9 else "bracket"
        return print_monomial(self, style)


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


def parse_monomial(text: str) -> Monomial:
    """Parse monomial text in any mix of compact, braced, and bracketed factors."""

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


def print_monomial(mono: Monomial, style: str = "compact") -> str:
    """Render a monomial; parse_monomial(print_monomial(m)) == m for every style."""
    if not mono.factors:
        return "1"
    if style == "compact":
        if mono.max_node() > 9:
            raise StyleError("compact style requires all node names <= 9")
        parts = [f"x{i}{j}" for i, j in mono.factors]
    elif style == "braced":
        parts = [
            f"x_{{{i}{j}}}" if i <= 9 and j <= 9 else f"x_{{{i},{j}}}"
            for i, j in mono.factors
        ]
    elif style == "bracket":
        parts = [f"x[{i},{j}]" for i, j in mono.factors]
    else:
        raise ValueError(f"unknown monomial style {style!r}")
    return " ".join(parts)


def monomial_to_matrix(mono: Monomial, p: int, d: int) -> ArcMatrix:
    """Build the arc matrix of a monomial and validate d-regularity on p nodes.

    Raises DegreeError carrying the per-node deficit vectors when any row or
    column sum differs from d (which also covers a wrong total factor count).
    """
    for i, j in mono.factors:
        if i > p or j > p:
            raise ValueError(f"factor ({i},{j}) names a node beyond p={p}")
    grid = [[0] * p for _ in range(p)]
    for i, j in mono.factors:
        grid[i - 1][j - 1] += 1
    matrix = ArcMatrix(tuple(tuple(row) for row in grid))
    row_deficit = [d - s for s in matrix.row_sums()]
    col_deficit = [d - s for s in matrix.col_sums()]
    if any(row_deficit) or any(col_deficit) or len(mono.factors) != d * p:
        out = ", ".join(f"node {i + 1}: {v}" for i, v in enumerate(row_deficit) if v)
        into = ", ".join(f"node {j + 1}: {v}" for j, v in enumerate(col_deficit) if v)
        raise DegreeError(
            f"monomial has {len(mono.factors)} factors, expected {d * p} for "
            f"p={p}, d={d}; out-arc deficits: {out or 'none'}; "
            f"in-arc deficits: {into or 'none'}",
            row_deficit,
            col_deficit,
        )
    return matrix


def matrix_to_monomial(matrix: ArcMatrix) -> Monomial:
    """Inverse encoding: factor (i, j) repeated entries[i][j] times, sorted."""
    factors = []
    for i, row in enumerate(matrix.entries, start=1):
        for j, mult in enumerate(row, start=1):
            factors.extend([(i, j)] * mult)
    return Monomial(tuple(factors))
