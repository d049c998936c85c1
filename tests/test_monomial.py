import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmcensus import (
    ArcMatrix,
    DegreeError,
    Monomial,
    MonomialParseError,
    StyleError,
    enumerate_regular_matrices,
    matrix_to_monomial,
    monomial_to_matrix,
    parse_monomial,
    print_monomial,
)


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
    assert parse_monomial(print_monomial(mono, "bracket")) == mono


def test_print_compact():
    assert print_monomial(Monomial(((1, 1), (1, 1)))) == "x11 x11"
    assert print_monomial(Monomial(((2, 1), (1, 2)))) == "x12 x21"


def test_print_empty_any_style():
    for style in ("compact", "braced", "bracket"):
        assert print_monomial(Monomial(), style) == "1"


def test_print_braced_and_bracket():
    m = Monomial(((1, 2), (10, 3)))
    assert print_monomial(m, "braced") == "x_{12} x_{10,3}"
    assert print_monomial(m, "bracket") == "x[1,2] x[10,3]"


def test_print_compact_rejects_large_nodes():
    with pytest.raises(StyleError):
        print_monomial(Monomial(((10, 3),)), "compact")
    with pytest.raises(ValueError):
        print_monomial(Monomial(((1, 1),)), "fancy")


def test_print_parse_round_trip_random():
    rng = random.Random(99)
    for _ in range(300):
        n_factors = rng.randrange(0, 9)
        factors = tuple(
            (rng.randrange(1, 13), rng.randrange(1, 13)) for _ in range(n_factors)
        )
        m = Monomial(factors)
        styles = ["braced", "bracket"]
        if m.max_node() <= 9:
            styles.append("compact")
        for style in styles:
            assert parse_monomial(print_monomial(m, style)) == m


def test_parse_print_parse_idempotent():
    for text in ("x21 x11", "x_{11} x11 x[1,2]", "1", "x33\tx11"):
        once = parse_monomial(text)
        assert parse_monomial(print_monomial(once, "bracket")) == once


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
    with pytest.raises(ValueError):
        monomial_to_matrix(parse_monomial("x14 x11"), 3, 2)


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
