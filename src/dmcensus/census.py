"""Class census construction, the brute-force oracle, and catalog verification.

Two independent routes produce the census for (p, d).  Both hand (rows,
count) pairs, the plain row tuples of a labeled matrix and its count, to
_group_by_canonical, which runs one canonical search per class, on the first
matrix of the class to arrive, and assigns the later ones by brute force:
the searched matrix's p! relabelings are listed, and each later matrix must
be one of them.  Each search is checked against that orbit (its canonical
matrix is the least relabeling, and len(orbit) * |Aut| == p!), and every
class must hold p!/|Aut| labeled matrices, each arriving once.

* build_census streams each labeled d-regular matrix once and computes each
  class cardinality analytically as (p!/|Aut|) * weight(canonical).  The
  sum of p!/|Aut| over its classes must equal count_regular_matrices, an
  exact count made without the stream.
* oracle_census counts configuration words per matrix and takes each class
  cardinality as its raw word count, with no counting formula.

Matrices arrive validated (see generate).  The grouping builds one
ArcMatrix per class, from the rows of the matrix it searches.  The oracle
counts every word under an integer key of its matrix, unchecked (see
generate._word_tally).  In place of a per-word check, _finish_report
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
import io
import math
from dataclasses import dataclass
from importlib import resources
from itertools import chain, permutations
from pathlib import Path

from .canonical import canonical_form
from .core import ArcMatrix, ClassId, is_regular, total_configurations, weight
from .generate import (
    _word_tally,
    count_regular_matrices,
    enumerate_regular_matrices,
    enumerate_words,
)
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
    """Group (rows, count) pairs into canonical -> (aut_order, labeled, count).

    rows are a labeled matrix's plain row tuples, labeled is the number of
    pairs in the class and count the sum of their counts.  The first matrix
    of each class, alone made an ArcMatrix, gets the class's one canonical
    search, and its orbit, all p! relabelings by brute force, goes into
    `pending`; a later matrix of the class is found there, not searched.  The
    search must agree with the orbit: its canonical matrix is the least
    relabeling, and len(orbit) * |Aut| == p!.  No labeled matrix may arrive
    twice, and by orbit-stabilizer labeled * |Aut| == p!; with the orbit
    check this means every relabeling arrived, so `pending` ends empty
    without a check of its own.

    `pending` keys are the bytes of the row-major entries, so entries must be
    below 256: for p >= 2 the count budget caps d at 33, and at p <= 1
    `pending` stays empty and no key is built.
    """
    classes: dict[ArcMatrix, tuple[int, int, int]] = {}
    pending: dict[bytes, ArcMatrix] = {}  # relabeling not yet streamed -> canonical
    for rows, count in pairs:
        canon = pending.pop(bytes(chain.from_iterable(rows)), None) if pending else None
        if canon is None:
            matrix = ArcMatrix(rows)
            result = canonical_form(matrix)
            canon, p = result.canonical, matrix.p
            if canon in classes:
                raise CensusInvariantError(f"labeled matrix {matrix} arrived twice")
            orbit = {
                tuple(rows[i][j] for i in perm for j in perm)
                for perm in permutations(range(p))
            }
            if min(orbit) != tuple(chain.from_iterable(canon.entries)):
                raise CensusInvariantError(
                    f"canonical form {canon} is not the least relabeling of {matrix}"
                )
            if len(orbit) * result.aut_order != math.factorial(p):
                raise CensusInvariantError(
                    f"{matrix} has {len(orbit)} relabelings, but the search gives "
                    f"|Aut| = {result.aut_order}; their product must be {p}!"
                )
            orbit.remove(tuple(chain.from_iterable(rows)))
            pending.update(dict.fromkeys(map(bytes, orbit), canon))
            classes[canon] = (result.aut_order, 0, 0)
        aut_order, labeled, total = classes[canon]
        classes[canon] = (aut_order, labeled + 1, total + count)
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
    for rank, canon in enumerate(sorted(classes), start=1):
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
    The labeled matrices over all classes must number count_regular_matrices,
    an exact count made without the stream, so a class the stream misses
    entirely is caught.
    """
    classes = _group_by_canonical((m.entries, 1) for m in enumerate_regular_matrices(p, d))
    labeled_total = sum(math.factorial(p) // aut for aut, _, _ in classes.values())
    expected = count_regular_matrices(p, d)
    if labeled_total != expected:
        raise CensusInvariantError(
            f"census for p={p}, d={d} holds {labeled_total} labeled matrices, "
            f"expected {expected}"
        )
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
    tally = _word_tally(enumerate_words(p, d), p, d)
    classes = {}
    for canon, (aut_order, labeled, words) in _group_by_canonical(tally.items()).items():
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
    only_a = tuple(sorted(a_cards.keys() - b_cards.keys()))
    only_b = tuple(sorted(b_cards.keys() - a_cards.keys()))
    mismatches = tuple(
        (canon, a_cards[canon], b_cards[canon])
        for canon in sorted(a_cards.keys() & b_cards.keys())
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
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            rows = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:
            raise ValueError(f"catalog CSV: {exc}") from None
        if not rows:
            raise ValueError("catalog CSV is empty")
        header = rows[0][1]
        if header != ["p", "rank", "cardinality", "monomial", "note"]:
            raise ValueError(f"unexpected catalog CSV header: {header!r}")
        records = []
        for lineno, row in rows[1:]:
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(f"catalog CSV line {lineno}: expected 5 fields, got {len(row)}")
            try:
                p, rank, cardinality = int(row[0]), int(row[1]), int(row[2])
            except ValueError:
                raise ValueError(f"catalog CSV line {lineno}: non-integer designation") from None
            records.append(CatalogRecord(p, rank, cardinality, row[3], row[4]))
        if not records:
            # verify would otherwise check no size and still pass.
            raise ValueError("catalog CSV has no records")
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
