import math
import random

import pytest

from dmcensus import (
    ArcMatrix,
    CountBudgetError,
    DimensionError,
    Permutation,
    RegularityError,
    apply_permutation,
    enumerate_regular_matrices,
    is_regular,
    total_configurations,
    weight,
)

from oracles import brute_matrix_word_counts, brute_regular_matrices


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


def test_permutation_validation():
    Permutation((1, 0, 2))
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    assert Permutation.identity(3).images == (0, 1, 2)
    assert Permutation((2, 0, 1)).inverse().images == (1, 2, 0)


def test_apply_permutation_identity():
    m = ArcMatrix(((2, 0), (1, 1)))
    assert apply_permutation(m, Permutation.identity(2)) == m


def test_apply_permutation_symmetric_fixed():
    m = ArcMatrix(((1, 1), (1, 1)))
    assert apply_permutation(m, Permutation((1, 0))) == m


def test_apply_permutation_swap():
    m = ArcMatrix(((2, 0), (1, 1)))
    assert apply_permutation(m, Permutation((1, 0))) == ArcMatrix(((1, 1), (0, 2)))


def test_apply_permutation_dimension_error():
    with pytest.raises(DimensionError):
        apply_permutation(ArcMatrix(((2,),)), Permutation((0, 1)))


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
    assert total_configurations(1, 10**6) == 1


def test_weight_and_regularity_invariant_under_relabeling():
    rng = random.Random(1729)
    for p in range(1, 6):
        pool = list(enumerate_regular_matrices(p, 2))
        for _ in range(60):
            m = rng.choice(pool)
            images = list(range(p))
            rng.shuffle(images)
            perm = Permutation(tuple(images))
            relabeled = apply_permutation(m, perm)
            assert is_regular(relabeled, 2)
            assert weight(relabeled, 2) == weight(m, 2)
            assert apply_permutation(relabeled, perm.inverse()) == m
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
