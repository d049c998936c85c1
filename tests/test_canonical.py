import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmcensus import (
    ArcMatrix,
    CanonicalResult,
    CensusInvariantError,
    NodeCapError,
    build_census,
    canonical_form,
    enumerate_regular_matrices,
)
import dmcensus.canonical
from dmcensus.canonical import (
    _MEMO_SIZE,
    _least_block,
    _memo,
    _remember,
    clear_cache,
)
from dmcensus.generate import _canonical_rows

from oracles import (
    apply_permutation,
    brute_aut_order,
    brute_canonical,
    brute_least_block,
    brute_orbit_size,
    brute_witness,
)


def random_permutation(rng, p):
    images = list(range(p))
    rng.shuffle(images)
    return tuple(images)


def brute_images(rows):
    """The images of brute_witness(rows), as CanonicalResult.witness holds them."""
    images = [0] * len(rows)
    for position, v in enumerate(brute_witness(rows)):
        images[v] = position
    return tuple(images)


def test_null_graph():
    result = canonical_form(ArcMatrix(()))
    assert result.canonical == ArcMatrix(())
    assert result.aut_order == 1
    assert result.witness == ()


def test_symmetric_two_node():
    result = canonical_form(ArcMatrix(((1, 1), (1, 1))))
    assert result.canonical == ArcMatrix(((1, 1), (1, 1)))
    assert result.aut_order == 2
    assert result.witness == tuple(range(2))


def test_double_three_cycle():
    m = ArcMatrix(((0, 2, 0), (0, 0, 2), (2, 0, 0)))
    result = canonical_form(m)
    assert result.aut_order == 3
    assert result.canonical == ArcMatrix((tuple(r) for r in brute_canonical(m.entries)))


def test_aut_order_examples():
    assert canonical_form(ArcMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))).aut_order == 6
    assert canonical_form(ArcMatrix(((2,),))).aut_order == 1
    # two independent doubled 2-cycles on {1,2} and {3,4}
    m = ArcMatrix(((0, 2, 0, 0), (2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 2, 0)))
    assert canonical_form(m).aut_order == 8


@pytest.mark.parametrize("p,d", [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (3, 1), (4, 1), (5, 1),
                                 (2, 3), (3, 3)])
def test_exhaustive_agreement_with_brute_force(p, d):
    for m in enumerate_regular_matrices(p, d):
        result = canonical_form(m)
        assert result.canonical.entries == brute_canonical(m.entries)
        assert result.aut_order == brute_aut_order(m.entries)


@pytest.mark.parametrize("p,d", [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (3, 1), (4, 1), (5, 1),
                                 (2, 3), (3, 3)])
def test_witness_is_the_least_minimal_ordering(p, d):
    for m in enumerate_regular_matrices(p, d):
        assert canonical_form(m).witness == brute_images(m.entries)


@pytest.mark.parametrize("p,d", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 1), (5, 1)])
def test_prefix_test_agrees_with_brute_force(p, d):
    prefixes = {m.entries[:k] for m in enumerate_regular_matrices(p, d) for k in range(1, p + 1)}
    for rows in prefixes:
        accepted = _least_block(rows, p, stop=True) is not None
        assert accepted == (brute_least_block(rows, p) == rows)
    # at m = p the prefix test is the full canonicity test
    for m in enumerate_regular_matrices(p, d):
        accepted = _least_block(m.entries, p, stop=True) is not None
        assert accepted == (canonical_form(m).canonical == m)


@pytest.mark.parametrize("p, d", [(5, 2), (6, 1), (7, 1)])
def test_search_of_a_relabeling_of_every_class_agrees_with_brute_force(p, d):
    rng = random.Random(p * 10 + d)
    for rows, _ in _canonical_rows(p, d):
        m = apply_permutation(ArcMatrix(rows), random_permutation(rng, p))
        result = canonical_form(m)
        assert result.canonical.entries == brute_canonical(m.entries)
        assert result.aut_order == brute_aut_order(m.entries)
        assert result.witness == brute_images(m.entries)


@pytest.mark.parametrize("cycles, aut", [((10,), 10), ((2, 8), 16)])
def test_long_cycles_share_one_canonical_form(cycles, aut):
    # d = 1 matrices whose rows each hold a single 1, where a row-tail bound
    # hardly prunes; |Aut| is the order of the permutation's centralizer
    images, start = [], 0
    for length in cycles:
        images += [start + (i + 1) % length for i in range(length)]
        start += length
    m = ArcMatrix(tuple(tuple(int(j == image) for j in range(10)) for image in images))
    rng = random.Random(sum(cycles) * len(cycles))
    results = [canonical_form(apply_permutation(m, random_permutation(rng, 10)))
               for _ in range(5)]
    assert {(r.canonical, r.aut_order) for r in results} == {(canonical_form(m).canonical, aut)}


def test_sampled_agreement_with_brute_force_p5():
    rng = random.Random(7)
    pool = list(enumerate_regular_matrices(5, 2))
    for m in rng.sample(pool, 150):
        result = canonical_form(m)
        assert result.canonical.entries == brute_canonical(m.entries)
        assert result.aut_order == brute_aut_order(m.entries)


def test_idempotence():
    for p in range(0, 5):
        for m in enumerate_regular_matrices(p, 2):
            canon = canonical_form(m).canonical
            assert canonical_form(canon).canonical == canon


def test_invariance_under_random_relabeling():
    rng = random.Random(20)
    for p in range(1, 6):
        pool = list(enumerate_regular_matrices(p, 2))
        for _ in range(50):
            m = rng.choice(pool)
            perm = random_permutation(rng, p)
            relabeled = apply_permutation(m, perm)
            assert canonical_form(relabeled).canonical == canonical_form(m).canonical
            assert canonical_form(relabeled).aut_order == canonical_form(m).aut_order


def test_witness_maps_input_to_canonical():
    rng = random.Random(31)
    for p in range(0, 5):
        pool = list(enumerate_regular_matrices(p, 2))
        for m in rng.sample(pool, min(20, len(pool))):
            result = canonical_form(m)
            assert apply_permutation(m, result.witness) == result.canonical


def test_orbit_stabilizer():
    for p in range(0, 5):
        for m in enumerate_regular_matrices(p, 2):
            result = canonical_form(m)
            assert brute_orbit_size(m.entries) == math.factorial(p) // result.aut_order


def test_isomorphic_matrices_share_a_canonical_form():
    rng = random.Random(47)
    m = ArcMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    assert canonical_form(m).canonical == canonical_form(m).canonical
    relabeled = apply_permutation(m, random_permutation(rng, 3))
    assert canonical_form(m).canonical == canonical_form(relabeled).canonical
    loops, two_cycle = ArcMatrix(((2, 0), (0, 2))), ArcMatrix(((0, 2), (2, 0)))
    assert canonical_form(loops).canonical != canonical_form(two_cycle).canonical


def test_node_cap():
    big = ArcMatrix(tuple(tuple(1 if i == j else 0 for j in range(11)) for i in range(11)))
    with pytest.raises(NodeCapError):
        canonical_form(big)


def test_clear_cache_smoke():
    m = ArcMatrix(((2,),))
    first = canonical_form(m)
    clear_cache()
    assert canonical_form(m) == first


# d=2 connected components with their |Aut|.
COMPONENTS = {
    "loop": (((2,),), 1),
    "two_cycle": (((0, 2), (2, 0)), 2),
    "bond": (((1, 1), (1, 1)), 2),
    "three_cycle": (((0, 2, 0), (0, 0, 2), (2, 0, 0)), 3),
    "looped_three_cycle": (((1, 1, 0), (0, 1, 1), (1, 0, 1)), 3),
}


def disjoint_union(blocks):
    """Block-diagonal union of (component, multiplicity) pairs, with the
    closed form |Aut| = prod |Aut c|^m * m! over non-isomorphic components."""
    parts, aut = [], 1
    for name, count in blocks:
        rows, comp_aut = COMPONENTS[name]
        parts += [rows] * count
        aut *= comp_aut**count * math.factorial(count)
    p = sum(len(rows) for rows in parts)
    grid, offset = [[0] * p for _ in range(p)], 0
    for rows in parts:
        for i, row in enumerate(rows):
            grid[offset + i][offset : offset + len(row)] = row
        offset += len(rows)
    return ArcMatrix(tuple(map(tuple, grid))), aut


UNIONS = (
    [(("loop", p),) for p in range(1, 11)]
    + [(("two_cycle", k),) for k in range(1, 6)]
    + [
        (("three_cycle", 3),),
        (("loop", 4), ("two_cycle", 3)),
        (("loop", 2), ("two_cycle", 2), ("three_cycle", 1)),
        (("loop", 1), ("two_cycle", 3), ("three_cycle", 1)),
        (("bond", 2), ("two_cycle", 2), ("loop", 2)),
        (("looped_three_cycle", 2), ("three_cycle", 1), ("loop", 1)),
        (("bond", 1), ("looped_three_cycle", 1), ("three_cycle", 1), ("two_cycle", 1)),
    ]
)


@pytest.mark.parametrize("blocks", UNIONS,
                         ids=lambda blocks: "+".join(f"{count}{name}" for name, count in blocks))
def test_aut_order_of_disjoint_unions(blocks):
    m, aut = disjoint_union(blocks)
    result = canonical_form(m)
    assert result.aut_order == aut
    assert apply_permutation(m, result.witness) == result.canonical
    rng = random.Random(m.p)
    for _ in range(3):
        relabeled = apply_permutation(m, random_permutation(rng, m.p))
        other = canonical_form(relabeled)
        assert other.canonical == result.canonical
        assert other.aut_order == aut
        assert apply_permutation(relabeled, other.witness) == other.canonical


def centralizer_order(images):
    """z_lambda = prod i^m_i * m_i! over the cycle type of a permutation."""
    lengths, seen = [], set()
    for start in range(len(images)):
        length, node = 0, start
        while node not in seen:
            seen.add(node)
            node = images[node]
            length += 1
        if length:
            lengths.append(length)
    z = 1
    for length, m in Counter(lengths).items():
        z *= length**m * math.factorial(m)
    return z


def test_permutation_matrices_have_centralizer_automorphisms():
    classes = set()
    for m in enumerate_regular_matrices(6, 1):
        images = tuple(row.index(1) for row in m.entries)
        result = canonical_form(m)
        assert result.aut_order == centralizer_order(images)
        classes.add(result.canonical)
    assert len(classes) == 11


def test_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(dmcensus.canonical, "_MEMO_SIZE", 8)
    clear_cache()
    matrices = list(enumerate_regular_matrices(4, 1))
    for m in matrices:
        canonical_form(m)
    # the memo holds the 8 latest inputs, and no more
    assert list(_memo) == [m.entries for m in matrices[-8:]]
    clear_cache()
    # every distinct input of a d=2, p<=5 census fits without eviction
    assert _MEMO_SIZE >= sum(1 for p in range(6) for _ in enumerate_regular_matrices(p, 2))


def test_memo_of_size_one_changes_no_result(monkeypatch):
    # each store evicts the one before it, so nearly every call searches
    clear_cache()
    matrices = list(enumerate_regular_matrices(4, 1))
    results = [canonical_form(m) for m in matrices]
    report = build_census(4, 2)
    clear_cache()
    monkeypatch.setattr(dmcensus.canonical, "_MEMO_SIZE", 1)
    assert [canonical_form(m) for m in matrices] == results
    assert build_census(4, 2) == report
    assert list(_memo) == [report.entries[-1].canonical.entries]


def wrong_witness(m):
    """canonical_form(m) with its witness followed by the swap of nodes 0 and 1."""
    result = canonical_form(m)
    swap = (1, 0, *range(2, m.p))
    return result._replace(witness=tuple(swap[w] for w in result.witness))


# Witnesses of the 2-node matrix ((1, 1), (1, 1)) that are no permutation of
# 0..1. The entry check canon[w[i]][w[j]] == rows[i][j] holds for the first
# five (it reads only w[0] and w[1], and a negative index wraps round), so only
# the bijection check refuses them.
NOT_PERMUTATIONS = [
    pytest.param((0, 0), id="repeated"),
    pytest.param((1, 1), id="repeated-high"),
    pytest.param((-1, 0), id="negative"),
    pytest.param((0, 1, 2), id="too-long"),
    pytest.param((1, 0, 0), id="too-long-repeated"),
    pytest.param((0, 2), id="out-of-range"),
    pytest.param((0,), id="too-short"),
    pytest.param(("0", "1"), id="not-ints"),
]


def non_bijective_witness(images=(0, 0)):
    """Rows and a result whose witness images is no bijection of 0..1."""
    m = ArcMatrix(((1, 1), (1, 1)))
    return m.entries, CanonicalResult(m, 2, images)


def test_memo_refuses_a_wrong_witness():
    m = ArcMatrix(((0, 2, 0), (0, 0, 2), (2, 0, 0)))  # |Aut| = 3, no swap of two nodes
    clear_cache()
    result = canonical_form(m)
    wrong = wrong_witness(m)
    with pytest.raises(CensusInvariantError, match="does not carry"):
        _remember(m.entries, wrong)
    assert _memo == {m.entries: result}
    with pytest.raises(CensusInvariantError, match="not a permutation of 0..1"):
        _remember(*non_bijective_witness())
    assert _memo == {m.entries: result}


@pytest.mark.parametrize("images", NOT_PERMUTATIONS)
def test_memo_refuses_a_witness_that_is_not_a_permutation(images):
    m = ArcMatrix(((1, 1), (1, 1)))
    clear_cache()
    result = canonical_form(m)
    with pytest.raises(CensusInvariantError, match=r"is not a permutation of 0\.\.1"):
        _remember(*non_bijective_witness(images))
    assert _memo == {m.entries: result}


# The same check in a python -O process, where assert statements are stripped.
OPTIMIZED_CHECK = """
import sys
from dmcensus import ArcMatrix, CensusInvariantError, canonical_form
from dmcensus.canonical import _memo, _remember
from test_canonical import NOT_PERMUTATIONS, non_bijective_witness, wrong_witness
if __debug__:
    sys.exit("not running under -O")
m = ArcMatrix(((0, 2, 0), (0, 0, 2), (2, 0, 0)))
result = canonical_form(m)
cases = [(m.entries, wrong_witness(m))]
cases += [non_bijective_witness(*case.values) for case in NOT_PERMUTATIONS]
for rows, wrong in cases:
    try:
        _remember(rows, wrong)
    except CensusInvariantError:
        pass
    else:
        sys.exit(f"the wrong witness {wrong.witness} was stored")
    if _memo != {m.entries: result}:
        sys.exit("the memo changed")
"""


def test_memo_refuses_a_wrong_witness_under_python_O():
    src = Path(dmcensus.canonical.__file__).resolve().parents[1]
    path = [str(src), str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECK],
                          capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")


@st.composite
def regular_matrices(draw):
    """A d-regular matrix as a sum of d permutation matrices, and a relabeling."""
    p, d = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    grid = [[0] * p for _ in range(p)]
    for _ in range(d):
        for i, j in enumerate(draw(st.permutations(range(p)))):
            grid[i][j] += 1
    relabeling = tuple(draw(st.permutations(range(p))))
    return ArcMatrix(tuple(map(tuple, grid))), relabeling


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(regular_matrices())
def test_canonical_search_fuzz(case):
    m, relabeling = case
    result = canonical_form(m)
    other = canonical_form(apply_permutation(m, relabeling))
    assert (other.canonical, other.aut_order) == (result.canonical, result.aut_order)
    assert apply_permutation(m, result.witness) == result.canonical
    assert apply_permutation(apply_permutation(m, relabeling), other.witness) == other.canonical
    if m.p <= 6:
        assert result.canonical.entries == brute_canonical(m.entries)
        assert result.aut_order == brute_aut_order(m.entries)
        assert result.witness == brute_images(m.entries)
