import math
import random

import pytest

from dmcensus import (
    COUNT_BUDGET,
    ArcMatrix,
    CountBudgetError,
    DimensionError,
    RegularityError,
    enumerate_regular_matrices,
    is_regular,
    total_configurations,
    weight,
)

from oracles import apply_permutation, brute_matrix_word_counts, brute_regular_matrices


def test_arc_matrix_shape_and_entries():
    m = ArcMatrix(((1, 1), (1, 1)))
    assert m.p == 2
    assert m.row_sums() == (2, 2)
    assert m.col_sums() == (2, 2)
    assert ArcMatrix(()).p == 0
    with pytest.raises(DimensionError):
        ArcMatrix(((1, 1), (1,)))
    with pytest.raises(ValueError):
        ArcMatrix(((-1, 1), (2, 0)))


@pytest.mark.parametrize(
    "rows",
    [((0.5, 1.5), (1.5, 0.5)), ((1.0, 1), (1, 1)), ((True, False), (False, True)),
     ((1, "1"), (1, 1)), ((None,),)],
)
def test_arc_matrix_refuses_entries_that_are_not_ints(rows):
    with pytest.raises(ValueError, match="must be integers"):
        ArcMatrix(rows)
    with pytest.raises(ValueError, match="must be integers"):
        ArcMatrix(((0,) * len(rows),) * len(rows))._replace(entries=rows)


def test_arc_matrix_accepts_lists_and_hashes():
    a = ArcMatrix(([2, 0], [0, 2]))
    b = ArcMatrix(((2, 0), (0, 2)))
    assert a == b
    assert hash(a) == hash(b)


def test_arc_matrices_order_row_major():
    low, high = ArcMatrix(((1, 2), (3, 4))), ArcMatrix(((1, 2), (3, 5)))
    pool = [m for p in range(4) for m in enumerate_regular_matrices(p, 2)] + [high, low]
    random.Random(7).shuffle(pool)
    assert sorted(pool) == sorted(pool, key=lambda m: m.entries)
    assert low < high and not high < low
    assert low <= high and not high <= low


def test_apply_permutation_identity():
    m = ArcMatrix(((2, 0), (1, 1)))
    assert apply_permutation(m, tuple(range(2))) == m


def test_apply_permutation_symmetric_fixed():
    m = ArcMatrix(((1, 1), (1, 1)))
    assert apply_permutation(m, (1, 0)) == m


def test_apply_permutation_swap():
    m = ArcMatrix(((2, 0), (1, 1)))
    assert apply_permutation(m, (1, 0)) == ArcMatrix(((1, 1), (0, 2)))


def test_is_regular_examples():
    assert is_regular(ArcMatrix(((2,),)), 2)
    assert is_regular(ArcMatrix(()), 2)
    assert not is_regular(ArcMatrix(((2, 0), (1, 1))), 2)


def test_weight_examples():
    assert weight(ArcMatrix(((1, 1), (1, 1))), 2) == 4
    assert weight(ArcMatrix(((2,),)), 2) == 1
    assert weight(ArcMatrix(((2, 0, 0), (0, 1, 1), (0, 1, 1))), 2) == 4


def test_weight_rejects_non_regular():
    with pytest.raises(RegularityError):
        weight(ArcMatrix(((2, 0), (1, 1))), 2)


@pytest.mark.parametrize("p,d", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (2, 3)])
def test_weight_equals_brute_word_count(p, d):
    # The defining property: weight(A) words project onto each matrix A.
    counts = brute_matrix_word_counts(p, d)
    matrices = brute_regular_matrices(p, d)
    assert set(counts) == set(matrices)
    for rows in matrices:
        assert weight(ArcMatrix(rows), d) == counts[rows]


def test_total_configurations_values():
    assert total_configurations(2, 2) == 6
    assert total_configurations(0, 2) == 1
    assert total_configurations(5, 2) == 113400
    assert total_configurations(3, 3) == 1680
    assert [total_configurations(p, 2) for p in range(6)] == [1, 1, 6, 90, 2520, 113400]
    assert total_configurations(4, 1) == 24


def test_total_configurations_validation():
    with pytest.raises(ValueError):
        total_configurations(-1, 2)
    with pytest.raises(ValueError):
        total_configurations(3, 0)
    with pytest.raises(CountBudgetError):
        total_configurations(30, 2)
    with pytest.raises(CountBudgetError):
        total_configurations(10**9, 2)  # must fail fast, not hang
    assert total_configurations(1, 62) == 1
    with pytest.raises(CountBudgetError):
        total_configurations(1, 10**6)  # past the largest degree, 62, at every p


def test_total_configurations_is_refused_exactly_past_the_budget():
    # against the factorial formula, on both sides of the budget at every p;
    # a degree past 62 is refused at every p, and only at p <= 1 does that
    # refuse a count the budget would hold
    for p in range(22):
        for d in range(1, 70):
            expected = math.factorial(d * p) // math.factorial(d) ** p
            if expected <= COUNT_BUDGET and d <= 62:
                assert total_configurations(p, d) == expected, (p, d)
            else:
                assert p <= 1 or expected > COUNT_BUDGET, (p, d)
                with pytest.raises(CountBudgetError):
                    total_configurations(p, d)
    assert total_configurations(2, 33) == math.comb(66, 33) <= COUNT_BUDGET
    assert total_configurations(20, 1) == math.factorial(20) <= COUNT_BUDGET
    for p, d in [(2, 34), (21, 1)]:
        with pytest.raises(CountBudgetError):
            total_configurations(p, d)


@pytest.mark.parametrize("p, d", [(10, 1000), (5, 2000), (4, 2500)])
def test_total_configurations_refuses_a_count_too_long_to_print(monkeypatch, p, d):
    # each count has more than 4,300 digits, past what str() of an int allows;
    # the degree rule refuses it before any binomial is taken
    monkeypatch.setattr(math, "comb", None)
    with pytest.raises(CountBudgetError) as refusal:
        total_configurations(p, d)
    assert str(refusal.value) == f"d={d} exceeds the largest degree, 62"


def test_weight_and_regularity_invariant_under_relabeling():
    rng = random.Random(1729)
    for p in range(1, 6):
        pool = list(enumerate_regular_matrices(p, 2))
        for _ in range(60):
            m = rng.choice(pool)
            images = list(range(p))
            rng.shuffle(images)
            perm = tuple(images)
            relabeled = apply_permutation(m, perm)
            assert is_regular(relabeled, 2)
            assert weight(relabeled, 2) == weight(m, 2)
            inverse = tuple(sorted(range(p), key=images.__getitem__))
            assert apply_permutation(relabeled, inverse) == m
            flatten = lambda mat: sorted(e for row in mat.entries for e in row)
            assert flatten(relabeled) == flatten(m)
            assert sorted(relabeled.row_sums()) == sorted(m.row_sums())
            assert sorted(relabeled.col_sums()) == sorted(m.col_sums())


def test_weight_divides_dfact_power():
    for d in (1, 2, 3):
        cap = math.factorial(d)
        for p in range(0, 4):
            for m in enumerate_regular_matrices(p, d):
                assert weight(m, d) >= 1
                assert (cap**p) % weight(m, d) == 0
