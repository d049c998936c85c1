import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmcensus import (
    ArcMatrix,
    DegreeError,
    Monomial,
    MonomialParseError,
    enumerate_regular_matrices,
    matrix_to_monomial,
    monomial_to_matrix,
    parse_monomial,
    print_monomial,
)
from dmcensus import monomial


def test_parse_compact():
    assert parse_monomial("x11 x12 x22 x21").factors == ((1, 1), (1, 2), (2, 1), (2, 2))


def test_parse_constant_one():
    assert parse_monomial("1").factors == ()
    assert parse_monomial("  1  ").factors == ()


def test_parse_braced():
    assert parse_monomial("x_{11} x_{11}").factors == ((1, 1), (1, 1))
    assert parse_monomial("x_{1,1} x_{12}").factors == ((1, 1), (1, 2))
    assert parse_monomial("x_{10,3}").factors == ((10, 3),)


def test_parse_bracket_general_nodes():
    assert parse_monomial("x[10,3] x[3,10]").factors == ((3, 10), (10, 3))


def test_parse_mixed_forms():
    assert parse_monomial("x11 x_{12} x[2,1] \t x22").factors == (
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
    )


def test_parse_reads_leading_zeros():
    assert parse_monomial("x[0001,2]").factors == ((1, 2),)
    assert parse_monomial("x_{0001,2}").factors == ((1, 2),)


def test_parse_normalizes_order():
    assert parse_monomial("x21 x11") == parse_monomial("x11 x21")


@pytest.mark.parametrize(
    "text,offset",
    [
        ("", 0),
        ("   ", 3),
        ("y11", 0),
        ("x1", 1),
        ("x1y", 1),
        ("x11x12", 3),
        ("x11 1", 4),
        ("1 x11", 2),
        ("x11^2", 3),
        ("x_{123}", 3),
        ("x_{1,2", 6),
        ("x_[1,2]", 2),
        ("x[1 2]", 3),
        ("x01", 1),
        ("x_{0,1}", 3),
        ("x11 $", 4),
        ("x11\nx12", 3),
        ("x١٢", 1),  # digits of other scripts are not node numbers
        ("x１１", 1),
        ("x[١,2]", 2),
        ("x[0,1]", 2),
        ("x_{10}", 4),
        ("x[1,0]", 4),
        pytest.param("x[" + "9" * 5000 + ",1]", 2, id="5000-digit-node"),
    ],
)
def test_parse_errors_with_offsets(text, offset):
    with pytest.raises(MonomialParseError) as excinfo:
        parse_monomial(text)
    assert excinfo.value.offset == offset


NODE = st.integers(0, 12).map(str)
FACTOR = st.one_of(
    st.builds("x{}{}".format, NODE, NODE),
    st.builds("x_{{{}{}}}".format, NODE, NODE),
    st.builds("x_{{{},{}}}".format, NODE, NODE),
    st.builds("x[{},{}]".format, NODE, NODE),
)
TOKENS = st.sampled_from(["x", "_", "{", "}", "[", "]", ",", "0", "1", "9", " ", "\t", "\n"])


@settings(max_examples=100, derandomize=True, database=None)
@given(st.one_of(
    st.text(),
    st.lists(FACTOR, min_size=1, max_size=6).map(" ".join),
    st.lists(st.one_of(FACTOR, TOKENS), max_size=8).map("".join),
))
def test_parse_monomial_fuzz(text):
    try:
        mono = parse_monomial(text)
    except MonomialParseError as exc:
        assert 0 <= exc.offset <= len(text)
        return
    assert parse_monomial(print_monomial(mono)) == mono


def _read(parse, text):
    try:
        return parse(text)
    except MonomialParseError as exc:
        return exc.offset, str(exc)


@settings(max_examples=300, derandomize=True, database=None)
@given(st.one_of(
    st.text(),
    st.lists(FACTOR, min_size=1, max_size=6).map(" ".join),
    st.lists(st.one_of(FACTOR, TOKENS, st.sampled_from(["١", "１", "0001"])), max_size=8)
    .map("".join),
))
def test_parse_agrees_with_the_scanner(text):
    # the pattern reads well-formed text; the scanner names every error
    assert _read(parse_monomial, text) == _read(monomial._scan_monomial, text)


def test_print_compact():
    assert print_monomial(Monomial(((1, 1), (1, 1)))) == "x11 x11"
    assert print_monomial(Monomial(((2, 1), (1, 2)))) == "x12 x21"


def test_print_empty_any_style():
    assert print_monomial(Monomial()) == "1"


def test_print_braced_and_bracket():
    m = Monomial(((1, 2), (10, 3)))
    assert print_monomial(m) == "x[1,2] x[10,3]"


def test_str_picks_compact_style_up_to_node_9():
    assert str(Monomial(((2, 1), (9, 9)))) == "x21 x99"
    assert str(Monomial(((1, 2), (10, 3)))) == "x[1,2] x[10,3]"
    assert str(Monomial()) == "1"


def test_str_of_a_huge_one_node_representative():
    mono = matrix_to_monomial(ArcMatrix(((10**6,),)))  # past any census's degree
    tracemalloc.start()
    try:
        text = str(mono)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == " ".join(["x11"] * 10**6)
    # the text takes 4 bytes per factor and the join's list 8; a new string
    # per factor would take about 64
    assert peak < 20 * 10**6


def test_print_parse_round_trip_random():
    rng = random.Random(99)
    for _ in range(300):
        n_factors = rng.randrange(0, 9)
        factors = tuple(
            (rng.randrange(1, 13), rng.randrange(1, 13)) for _ in range(n_factors)
        )
        m = Monomial(factors)
        assert parse_monomial(print_monomial(m)) == m


def test_parse_print_parse_idempotent():
    for text in ("x21 x11", "x_{11} x11 x[1,2]", "1", "x33\tx11"):
        once = parse_monomial(text)
        assert parse_monomial(print_monomial(once)) == once


def test_monomial_to_matrix_examples():
    m = parse_monomial("x12 x13 x21 x23 x31 x32")
    assert monomial_to_matrix(m, 3, 2) == ArcMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    assert monomial_to_matrix(parse_monomial("x11 x11"), 1, 2) == ArcMatrix(((2,),))
    assert monomial_to_matrix(Monomial(), 0, 2) == ArcMatrix(())


def test_monomial_to_matrix_degree_error_carries_deficits():
    m = parse_monomial("x11 x11 x23 x32 x32")
    with pytest.raises(DegreeError) as excinfo:
        monomial_to_matrix(m, 3, 2)
    assert excinfo.value.row_deficit == (0, 1, 0)
    assert excinfo.value.col_deficit == (0, 0, 1)


def test_monomial_to_matrix_excess_degree():
    with pytest.raises(DegreeError) as excinfo:
        monomial_to_matrix(parse_monomial("x11 x11 x11"), 1, 2)
    assert excinfo.value.row_deficit == (-1,)


def test_monomial_to_matrix_node_out_of_range():
    with pytest.raises(ValueError) as excinfo:
        monomial_to_matrix(parse_monomial("x14 x11"), 3, 2)
    assert type(excinfo.value) is ValueError  # not its subclass DegreeError
    assert str(excinfo.value) == "factor (1,4) names a node beyond p=3"


def test_matrix_to_monomial_examples():
    assert matrix_to_monomial(ArcMatrix(((2,),))) == Monomial(((1, 1), (1, 1)))
    assert matrix_to_monomial(ArcMatrix(())) == Monomial()
    assert matrix_to_monomial(ArcMatrix(((0, 2), (2, 0)))) == Monomial(
        ((1, 2), (1, 2), (2, 1), (2, 1))
    )


def test_matrix_monomial_round_trip():
    for d in (1, 2, 3):
        for p in range(0, 4):
            for m in enumerate_regular_matrices(p, d):
                mono = matrix_to_monomial(m)
                assert len(mono.factors) == d * p
                assert monomial_to_matrix(mono, p, d) == m
