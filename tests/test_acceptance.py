"""Acceptance suite: every shipped guarantee, one test per criterion.

All counts are exact (zero tolerance); the performance budget for the full
pipeline is 10 seconds.  Each test prints one pass line (visible with -s or
-rP) after its assertions hold.
"""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import dmcensus
from dmcensus import (
    build_census,
    canonical_form,
    class_lookup,
    compare_census,
    enumerate_regular_matrices,
    enumerate_words,
    is_regular,
    oracle_census,
    parse_monomial,
    print_monomial,
    run_cli,
    total_configurations,
    verify_against_catalog,
    weight,
    word_to_matrix,
)
from dmcensus.canonical import clear_cache

from oracles import apply_permutation

EXPECTED_CLASS_COUNTS = [1, 1, 3, 8, 25, 85]
EXPECTED_TOTALS = [1, 1, 6, 90, 2520, 113400]


def report_pass(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_class_counts(census_d2):
    got = [len(census_d2(p).entries) for p in range(6)]
    assert got == EXPECTED_CLASS_COUNTS
    report_pass(1, f"class counts for p=0..5 are {got}")


def test_criterion_2_cardinality_totals(census_d2):
    got = [census_d2(p).total for p in range(6)]
    assert got == EXPECTED_TOTALS
    for p in range(6):
        assert census_d2(p).total == total_configurations(p, 2)
        assert sum(e.cardinality for e in census_d2(p).entries) == EXPECTED_TOTALS[p]
    report_pass(2, f"per-p cardinality totals are {got}")


def test_criterion_3_full_catalog_verification(census_d2, catalog, capsys):
    matched = corrected = 0
    for p in range(6):
        verification = verify_against_catalog(census_d2(p), catalog)
        assert verification.ok(), f"verification failed at p={p}"
        matched += len(verification.matched)
        corrected += len(verification.corrected)
        if p == 3:
            assert len(verification.corrected) == 1
            fixed = verification.corrected[0]
            assert fixed.record.designation == "3,3,3"
            assert fixed.record.monomial == "x11 x11 x23 x32 x32"
            assert fixed.inserted_arc == (2, 3)
            assert fixed.entry.cardinality == 3
    assert matched == 122
    assert corrected == 1
    exit_code = run_cli(["verify", "--all"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "122 matched directly, 1 corrected" in out
    report_pass(3, "all 123 catalog records verified; one forced completion (3,3)")


def test_criterion_4_spot_cardinalities(census_d2, catalog):
    expected = {
        (2, 2): 4,
        (3, 7): 2,
        (3, 8): 8,
        (4, 4): 64,
        (4, 11): 384,
        (4, 20): 3,
        (5, 85): 768,
    }
    by_designation = {(r.p, r.rank): r for r in catalog.records}
    for (p, catalog_rank), cardinality in expected.items():
        record = by_designation[(p, catalog_rank)]
        assert record.cardinality == cardinality
        report = census_d2(p)
        class_id = class_lookup(report, parse_monomial(record.monomial))
        assert class_id.cardinality == cardinality
        entry = report.entries[class_id.rank - 1]
        # orbit-stabilizer route, recomputed explicitly
        assert cardinality == (math.factorial(p) // entry.aut_order) * weight(entry.canonical, 2)
    report_pass(4, f"{len(expected)} spot cardinalities reproduced exactly")


def test_criterion_5_oracle_equivalence(census_d2, oracle_d2):
    for p in range(6):
        assert not compare_census(census_d2(p), oracle_d2(p))
    for p in range(4):
        assert not compare_census(build_census(p, 3), oracle_census(p, 3))
    for p in range(7):
        assert not compare_census(build_census(p, 1), oracle_census(p, 1))
    word_count = sum(1 for _ in enumerate_words(5, 2))
    assert word_count == 113400
    report_pass(5, "oracle equivalence holds (d=2 p<=5, d=3 p<=3, d=1 p<=6); 113400 words at p=5")


def test_criterion_6_property_suites(census_d2):
    rng = random.Random(2024)

    # canonical-form invariance and idempotence, >= 1000 random cases per p
    for p in range(6):
        pool = list(enumerate_regular_matrices(p, 2))
        for _ in range(1000):
            matrix = rng.choice(pool)
            images = list(range(p))
            rng.shuffle(images)
            perm = tuple(images)
            relabeled = apply_permutation(matrix, perm)
            base = canonical_form(matrix)
            moved = canonical_form(relabeled)
            assert moved.canonical == base.canonical
            assert moved.aut_order == base.aut_order
            assert canonical_form(base.canonical).canonical == base.canonical
            # weight/regularity invariance on the same samples
            assert is_regular(relabeled, 2)
            assert weight(relabeled, 2) == weight(matrix, 2)

    # monomial parse/print round trips over every census representative
    for p in range(6):
        for entry in census_d2(p).entries:
            mono = entry.representative
            assert parse_monomial(print_monomial(mono)) == mono

    # generator-vs-oracle weight identity for p <= 4, d = 2
    for p in range(5):
        tally = {}
        for word in enumerate_words(p, 2):
            matrix = word_to_matrix(word, p, 2)
            tally[matrix] = tally.get(matrix, 0) + 1
        assert set(tally) == set(enumerate_regular_matrices(p, 2))
        for matrix, count in tally.items():
            assert count == weight(matrix, 2)

    report_pass(6, "canonical/weight/round-trip/weight-identity property suites hold")


def test_criterion_7_determinism():
    src_dir = str(Path(dmcensus.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    runs = [
        subprocess.run(
            [sys.executable, "-m", "dmcensus", "census", "-p", "5"],
            capture_output=True,
            env=env,
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout  # non-empty
    report_pass(7, "two independent `census -p 5` runs are byte-identical")


def test_criterion_8_performance(catalog):
    clear_cache()  # time the full pipeline from cold
    start = time.perf_counter()
    for p in range(6):
        analytic = build_census(p, 2)
        oracle = oracle_census(p, 2)
        assert not compare_census(analytic, oracle)
        assert verify_against_catalog(analytic, catalog).ok()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"pipeline took {elapsed:.2f}s, budget is 10s"
    report_pass(8, f"full pipeline (both censuses + verification, p=0..5) in {elapsed:.2f}s")
