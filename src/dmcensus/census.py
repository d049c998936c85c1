"""Class census construction, the brute-force oracle, and catalog verification.

Two independent routes produce the census for (p, d).  Both hand
(labeled matrix, count) pairs to _group_by_canonical, which canonicalizes each
labeled matrix once and checks that every class holds p!/|Aut| of them.

* build_census streams each labeled d-regular matrix once and computes each
  class cardinality analytically as (p!/|Aut|) * weight(canonical).
* oracle_census counts configuration words per matrix and takes each class
  cardinality as its raw word count, with no counting formula.

Matrices arrive validated (see generate) and are never rebuilt here.  The
oracle tallies unchecked word projections as plain row tuples and builds one
ArcMatrix per distinct matrix.  In place of a per-word check, _finish_report
requires each class's canonical matrix to be d-regular: a word with a wrong
multiset projects to a non-regular matrix, so its class fails this check (or
the orbit-stabilizer one).

A CensusEntry stores its ClassId, canonical matrix and |Aut|; every other
count is derived.  compare_census cross-checks the two routes: as both pass
the p!/|Aut| check, equal cardinalities pin each class's word count to
(p!/|Aut|) * weight.  verify_against_catalog checks a census against the
bundled reference catalog.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .canonical import canonical_form
from .core import ArcMatrix, ClassId, is_regular, total_configurations, weight
from .generate import _word_rows, enumerate_regular_matrices, enumerate_words
from .monomial import (
    DegreeError,
    Monomial,
    MonomialParseError,
    matrix_to_monomial,
    monomial_to_matrix,
    parse_monomial,
)


class CensusInvariantError(RuntimeError):
    """The computed census violates one of its own exact identities.

    This signals a bug in the library, never bad user input, so it is raised
    loudly instead of being folded into a report.
    """


@dataclass(frozen=True)
class CensusEntry:
    """One isomorphism class; the counts beyond ClassId and |Aut| are derived."""

    class_id: ClassId
    canonical: ArcMatrix
    aut_order: int

    @property
    def p(self) -> int:
        return self.class_id.p

    @property
    def rank(self) -> int:
        return self.class_id.rank

    @property
    def cardinality(self) -> int:
        return self.class_id.cardinality

    @property
    def labeled_matrix_count(self) -> int:
        """p!/|Aut|, the labeled matrices in the class (orbit-stabilizer)."""
        return math.factorial(self.p) // self.aut_order

    @property
    def weight(self) -> int:
        """weight(canonical, d), with d read off the canonical's row sum."""
        rows = self.canonical.entries
        return weight(self.canonical, sum(rows[0])) if rows else 1

    @property
    def representative(self) -> Monomial:
        return matrix_to_monomial(self.canonical)


@dataclass(frozen=True)
class CensusReport:
    """Complete census for (p, d); entries ascend by canonical matrix."""

    p: int
    d: int
    entries: tuple[CensusEntry, ...]
    total: int

    def entry_for_canonical(self, matrix: ArcMatrix) -> CensusEntry | None:
        for entry in self.entries:
            if entry.canonical == matrix:
                return entry
        return None


def _group_by_canonical(pairs) -> dict[ArcMatrix, tuple[int, int, int]]:
    """Group (labeled matrix, count) pairs into canonical -> (aut_order, labeled, count).

    labeled is the number of pairs in the class and count the sum of their
    counts.  Each labeled matrix must come once: by orbit-stabilizer,
    labeled * |Aut| == p!.
    """
    classes: dict[ArcMatrix, tuple[int, int, int]] = {}
    for matrix, count in pairs:
        result = canonical_form(matrix)
        aut_order, labeled, total = classes.get(result.canonical, (result.aut_order, 0, 0))
        classes[result.canonical] = (aut_order, labeled + 1, total + count)
    for canon, (aut_order, labeled, _) in classes.items():
        if labeled * aut_order != math.factorial(canon.p):
            raise CensusInvariantError(
                f"class of {canon} has {labeled} labeled matrices and |Aut| = "
                f"{aut_order}; orbit-stabilizer demands a product of {canon.p}!"
            )
    return classes


def _finish_report(p: int, d: int, classes: dict[ArcMatrix, tuple[int, int]]) -> CensusReport:
    """Rank classes (canonical -> (aut_order, cardinality)); check regularity and total."""
    entries = []
    for rank, canon in enumerate(sorted(classes, key=lambda m: m.entries), start=1):
        if not is_regular(canon, d):
            raise CensusInvariantError(f"class of {canon} is not {d}-regular")
        aut_order, cardinality = classes[canon]
        entries.append(CensusEntry(ClassId(p, rank, cardinality), canon, aut_order))
    total = sum(entry.cardinality for entry in entries)
    expected = total_configurations(p, d)
    if total != expected:
        raise CensusInvariantError(
            f"census for p={p}, d={d} totals {total}, expected {expected}"
        )
    return CensusReport(p, d, tuple(entries), total)


def build_census(p: int, d: int) -> CensusReport:
    """Census via canonical grouping and the orbit-stabilizer cardinality.

    Each class has p!/|Aut| labeled matrices and cardinality (p!/|Aut|) * weight.
    """
    classes = _group_by_canonical((m, 1) for m in enumerate_regular_matrices(p, d))
    cardinalities = {
        canon: (aut_order, labeled * weight(canon, d))
        for canon, (aut_order, labeled, _) in classes.items()
    }
    return _finish_report(p, d, cardinalities)


def oracle_census(p: int, d: int) -> CensusReport:
    """Census rebuilt by brute force: raw word tallies, no counting formulas.

    The grouping checks the labeled count of every class, and each class's
    words must split evenly over its labeled matrices.
    """
    tally = Counter(_word_rows(word, p, d) for word in enumerate_words(p, d))
    pairs = ((ArcMatrix(rows), words) for rows, words in tally.items())
    classes = {}
    for canon, (aut_order, labeled, words) in _group_by_canonical(pairs).items():
        if words % labeled:
            raise CensusInvariantError(
                f"class of {canon}: {words} words over {labeled} matrices "
                "is not an integer per-matrix count"
            )
        classes[canon] = (aut_order, words)
    return _finish_report(p, d, classes)


@dataclass(frozen=True)
class CensusDiff:
    """Discrepancies between two censuses for the same (p, d)."""

    p: int
    d: int
    only_in_a: tuple[ArcMatrix, ...]
    only_in_b: tuple[ArcMatrix, ...]
    cardinality_mismatches: tuple[tuple[ArcMatrix, int, int], ...]

    def is_empty(self) -> bool:
        return not (self.only_in_a or self.only_in_b or self.cardinality_mismatches)

    def __bool__(self):
        return not self.is_empty()


def compare_census(a: CensusReport, b: CensusReport) -> CensusDiff:
    """Diff two censuses by canonical-form keys and cardinalities."""
    if (a.p, a.d) != (b.p, b.d):
        raise ValueError(
            f"cannot compare censuses for (p={a.p}, d={a.d}) and (p={b.p}, d={b.d})"
        )
    a_cards = {entry.canonical: entry.cardinality for entry in a.entries}
    b_cards = {entry.canonical: entry.cardinality for entry in b.entries}
    order = lambda m: m.entries
    only_a = tuple(sorted(a_cards.keys() - b_cards.keys(), key=order))
    only_b = tuple(sorted(b_cards.keys() - a_cards.keys(), key=order))
    mismatches = tuple(
        (canon, a_cards[canon], b_cards[canon])
        for canon in sorted(a_cards.keys() & b_cards.keys(), key=order)
        if a_cards[canon] != b_cards[canon]
    )
    return CensusDiff(a.p, a.d, only_a, only_b, mismatches)


@dataclass(frozen=True)
class CatalogRecord:
    """One reference-catalog row: designation triple plus monomial text."""

    p: int
    rank: int
    cardinality: int
    monomial: str
    note: str = ""

    @property
    def designation(self) -> str:
        return f"{self.p},{self.rank},{self.cardinality}"


@dataclass(frozen=True)
class Catalog:
    """Reference catalog of class records, keyed by node count."""

    records: tuple[CatalogRecord, ...]

    @classmethod
    def from_csv_text(cls, text: str) -> "Catalog":
        """Parse catalog CSV text; raises ValueError for anything else."""
        try:
            rows = list(csv.reader(text.splitlines()))
        except csv.Error as exc:
            raise ValueError(f"catalog CSV: {exc}") from None
        if not rows:
            raise ValueError("catalog CSV is empty")
        header = rows[0]
        if header != ["p", "rank", "cardinality", "monomial", "note"]:
            raise ValueError(f"unexpected catalog CSV header: {header!r}")
        records = []
        for lineno, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(f"catalog CSV line {lineno}: expected 5 fields, got {len(row)}")
            try:
                p, rank, cardinality = int(row[0]), int(row[1]), int(row[2])
            except ValueError:
                raise ValueError(f"catalog CSV line {lineno}: non-integer designation") from None
            records.append(CatalogRecord(p, rank, cardinality, row[3], row[4]))
        return cls(tuple(records))

    def for_p(self, p: int) -> tuple[CatalogRecord, ...]:
        return tuple(r for r in self.records if r.p == p)

    def node_counts(self) -> tuple[int, ...]:
        return tuple(sorted({r.p for r in self.records}))


def load_catalog(path: str | Path | None = None) -> Catalog:
    """Load a catalog CSV; with no path, the catalog bundled with the package."""
    if path is None:
        text = resources.files("dmcensus").joinpath("data/reference_catalog.csv").read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    return Catalog.from_csv_text(text)


@dataclass(frozen=True)
class MatchedRecord:
    record: CatalogRecord
    entry: CensusEntry


@dataclass(frozen=True)
class CorrectedRecord:
    record: CatalogRecord
    entry: CensusEntry
    inserted_arc: tuple[int, int]  # 1-based (source, target) completing the degrees


@dataclass(frozen=True)
class MismatchedRecord:
    record: CatalogRecord
    entry: CensusEntry
    reason: str


@dataclass(frozen=True)
class UnmatchedRecord:
    record: CatalogRecord
    reason: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a census against the catalog records for its p.

    Every catalog record lands in exactly one of matched, corrected,
    mismatched, or unmatched_catalog; computed classes no record claimed end
    up in unmatched_computed.
    """

    p: int
    d: int
    matched: tuple[MatchedRecord, ...]
    corrected: tuple[CorrectedRecord, ...]
    mismatched: tuple[MismatchedRecord, ...]
    unmatched_catalog: tuple[UnmatchedRecord, ...]
    unmatched_computed: tuple[CensusEntry, ...]

    def ok(self) -> bool:
        return not (self.mismatched or self.unmatched_catalog or self.unmatched_computed)


def _forced_completion(error: DegreeError) -> tuple[int, int] | None:
    """The unique missing arc when exactly one arc completes the degrees, else None."""
    rows, cols = error.row_deficit, error.col_deficit
    if (
        all(v >= 0 for v in rows)
        and all(v >= 0 for v in cols)
        and sum(rows) == 1
        and sum(cols) == 1
    ):
        return rows.index(1) + 1, cols.index(1) + 1
    return None


def verify_against_catalog(report: CensusReport, catalog: Catalog) -> VerificationReport:
    """Match every catalog record for report.p to a computed class.

    A record whose monomial violates the degree constraints is completed only
    when a single missing arc is forced by the deficits; anything more
    ambiguous is reported, never guessed.  Matching goes through canonical
    forms (isomorphism), never through monomial text.
    """
    by_canonical = {entry.canonical: entry for entry in report.entries}
    claimed: dict[int, str] = {}  # computed rank -> designation that claimed it
    matched, corrected, mismatched, unmatched = [], [], [], []
    for record in catalog.for_p(report.p):
        try:
            mono = parse_monomial(record.monomial)
        except MonomialParseError as exc:
            unmatched.append(UnmatchedRecord(record, f"unparseable monomial: {exc}"))
            continue
        inserted = None
        try:
            matrix = monomial_to_matrix(mono, report.p, report.d)
        except DegreeError as exc:
            inserted = _forced_completion(exc)
            if inserted is None:
                unmatched.append(
                    UnmatchedRecord(record, f"no single-arc completion: {exc}")
                )
                continue
            matrix = monomial_to_matrix(
                Monomial(mono.factors + (inserted,)), report.p, report.d
            )
        except ValueError as exc:
            unmatched.append(UnmatchedRecord(record, str(exc)))
            continue
        entry = by_canonical.get(canonical_form(matrix).canonical)
        if entry is None:
            unmatched.append(
                UnmatchedRecord(record, "no computed class with this canonical form")
            )
            continue
        if entry.rank in claimed:
            unmatched.append(
                UnmatchedRecord(
                    record,
                    f"computed class {report.p},{entry.rank} already matched by "
                    f"record {claimed[entry.rank]}",
                )
            )
            continue
        claimed[entry.rank] = record.designation
        if entry.cardinality != record.cardinality:
            mismatched.append(
                MismatchedRecord(
                    record,
                    entry,
                    f"catalog cardinality {record.cardinality} vs computed {entry.cardinality}",
                )
            )
        elif inserted is not None:
            corrected.append(CorrectedRecord(record, entry, inserted))
        else:
            matched.append(MatchedRecord(record, entry))
    unmatched_computed = tuple(e for e in report.entries if e.rank not in claimed)
    return VerificationReport(
        report.p,
        report.d,
        tuple(matched),
        tuple(corrected),
        tuple(mismatched),
        tuple(unmatched),
        unmatched_computed,
    )


def class_lookup(report: CensusReport, mono: Monomial) -> ClassId:
    """ClassId of the census class containing the multigraph a monomial encodes."""
    matrix = monomial_to_matrix(mono, report.p, report.d)
    entry = report.entry_for_canonical(canonical_form(matrix).canonical)
    if entry is None:
        raise CensusInvariantError(
            "complete census has no class for a valid monomial; this is a bug"
        )
    return entry.class_id
