"""Class census construction, the brute-force oracle, and catalog verification.

Two independent routes produce the census for (p, d).

* build_census takes each class's canonical matrix once, in rank order,
  from the orderly generator generate._canonical_rows, which lists no
  labeled matrix, together with the CanonicalResult of the walk that
  accepted it.  That result must be the matrix itself, and gives |Aut|, and
  the class cardinality is computed analytically as
  (p!/|Aut|) * weight(canonical).  The class count is made first, and a
  census above CLASS_BUDGET classes is refused.
* oracle_census counts configuration words per matrix and takes each class
  cardinality as its raw word count, with no counting formula.
  _group_by_canonical consumes the tally, the key of each labeled matrix
  -> its count, one class at a time, with no canonical search: the
  distinct relabelings of the first key of the class left in the tally,
  listed by coset recursion with their least as rows, give the canonical
  matrix, that least, and |Aut|, p! over their number (orbit-stabilizer);
  each is popped once, and the class's words must split evenly over them.
  Keys are laid out, listed and read in generate alone, and their layout
  is stated once, in generate._word_tally; here they are opaque dict keys.
  An oracle of more than WORD_BUDGET words, or of more than ORBIT_BUDGET
  relabelings, p! per class, is refused before any word is counted, so
  (9,1) runs and (10,1) does not.

Every report ends in one report check, _finish_report, the only maker of
a CensusEntry or a CensusReport: the reports both routes make, and those
the CLI's record parser reads back.  It checks three exact identities, in
order: the classes hold count_regular_matrices(p, d) labeled matrices,
p!/|Aut| each; there are class_count(p, d) of them, the count the budget
check made and cached; and their words total total_configurations(p, d).
The three counts are made without the generator or the words.

Neither route validates a labeled matrix.  The generator makes one ArcMatrix
per canonical matrix, and the grouping one per class, from the least of its
relabelings.  The oracle counts every word under a key of its matrix,
unchecked, without listing the words.  In place of a per-word check,
_group_by_canonical requires each class's canonical matrix to be d-regular:
a word with a wrong multiset projects to a non-regular matrix, so its class
fails this check (or the orbit-stabilizer one).  The build's classes are
checked by core.weight and the parser's by monomial_to_matrix, where they
enter, so the report check does not check regularity again.

A CensusEntry stores its rank, cardinality, canonical matrix and |Aut|, and
takes p from the report that holds it; every other count is derived, its
weight as the cardinality over the p!/|Aut| labeled matrices.  The division
is exact, made so by build_census, the oracle's even split and the CLI's
record check (see CensusEntry), so core.weight runs only where a matrix
enters: in build_census and that record parser.
compare_census is where the search meets brute force:
the oracle shares no code with the canonical search, so equal canonical
keys check that each generated canonical matrix is the least relabeling,
and equal cardinalities check the build's (p!/|Aut|) * weight against the
raw word count, and so each |Aut|.  verify_against_catalog checks a census
against the bundled reference catalog.
"""

from __future__ import annotations

import csv
import io
import math
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .canonical import CanonicalResult, _remember, canonical_form
from .core import (
    ArcMatrix,
    CensusInvariantError,
    CountBudgetError,
    check_node_cap,
    is_regular,
    total_configurations,
    weight,
)
from .generate import (
    _canonical_rows,
    _orbit_lister,
    _word_tally,
    class_count,
    count_regular_matrices,
)
from .monomial import (
    DegreeError,
    Monomial,
    MonomialParseError,
    matrix_to_monomial,
    monomial_to_matrix,
    parse_monomial,
)


class CensusEntry(NamedTuple):
    """One isomorphism class of a report: its rank, cardinality, canonical
    matrix and |Aut|; p is the report's, and the other counts are derived.

    The cardinality divides exactly over the p!/|Aut| labeled matrices:
    build_census makes it (p!/|Aut|) * core.weight, the oracle's grouping
    refuses words that do not split evenly, and the CLI's record parser
    checks it against core.weight before _finish_report makes the entry.
    """

    rank: int
    cardinality: int
    canonical: ArcMatrix
    aut_order: int

    @property
    def labeled_matrix_count(self) -> int:
        """p!/|Aut|, the labeled matrices in the class (orbit-stabilizer)."""
        return math.factorial(self.canonical.p) // self.aut_order

    @property
    def weight(self) -> int:
        """The configuration words per labeled matrix, cardinality / (p!/|Aut|)."""
        return self.cardinality // self.labeled_matrix_count

    @property
    def representative(self) -> Monomial:
        return matrix_to_monomial(self.canonical)


class CensusReport(NamedTuple):
    """Complete census for (p, d); entries ascend by canonical matrix.

    The total is derived from the entries, not stored.
    """

    p: int
    d: int
    entries: tuple[CensusEntry, ...]

    @property
    def total(self) -> int:
        """The configuration words over all classes, the sum of the cardinalities."""
        return sum(entry.cardinality for entry in self.entries)


def _group_by_canonical(tally: dict, p: int, d: int) -> dict[ArcMatrix, tuple[int, int]]:
    """Group the oracle's tally of p-node keys, key -> count, into
    canonical -> (aut_order, count), every class d-regular.

    Consumes tally: each class pops its labeled matrices as it forms.  The
    orbit of the first key of a class still in the tally, in the tally's
    order, its distinct relabelings, is listed by coset recursion, one node
    at a time (generate._orbit_lister), which alone reads the keys and
    gives their least as rows, the canonical matrix; p!/len(orbit) is |Aut|
    (orbit-stabilizer), so the oracle shares no code with canonical
    search.  Each key is popped once and must still be in the tally, so
    the class holds all the p!/|Aut| labeled matrices callers derive
    instead of counting, and its words must split evenly over them.  Then
    the canonical matrix must be d-regular, the oracle's one regularity
    check: its keys enter unchecked.
    """
    orbit_of = _orbit_lister(p)
    classes: dict[ArcMatrix, tuple[int, int]] = {}
    for key in list(tally):
        if key not in tally:
            continue  # popped with the orbit of an earlier class
        rows, orbit = orbit_of(key)
        canon = ArcMatrix(rows)
        try:
            words = sum(map(tally.pop, orbit))
        except KeyError:
            raise CensusInvariantError(
                f"class of {canon} lacks a labeled matrix; orbit-stabilizer demands "
                f"{len(orbit)} of them"
            ) from None
        if words % len(orbit):
            raise CensusInvariantError(
                f"class of {canon}: {words} words over {len(orbit)} matrices "
                "is not an integer per-matrix count"
            )
        if not is_regular(canon, d):
            raise CensusInvariantError(f"class of {canon} is not {d}-regular")
        classes[canon] = (math.factorial(p) // len(orbit), words)
    return classes


def _finish_report(p: int, d: int, classes: dict[ArcMatrix, tuple[int, int]]) -> CensusReport:
    """Rank classes (canonical -> (aut_order, cardinality)) into the report.

    The one maker and the one check of every report, built, counted by the
    oracle or read back by the CLI's record parser: in this order, the
    classes must hold, p!/|Aut| each, count_regular_matrices(p, d) labeled
    matrices, number class_count(p, d) and total total_configurations(p, d)
    words.  Each class must be d-regular already, as checked where its
    matrix entered.
    """
    entries = []
    for rank, canon in enumerate(sorted(classes), start=1):
        aut_order, cardinality = classes[canon]
        entries.append(CensusEntry(rank, cardinality, canon, aut_order))
    report = CensusReport(p, d, tuple(entries))
    labeled = sum(entry.labeled_matrix_count for entry in entries)
    counts = (
        (f"holds {labeled} labeled matrices", labeled, count_regular_matrices(p, d)),
        (f"has {len(entries)} classes", len(entries), class_count(p, d)),
        (f"totals {report.total}", report.total, total_configurations(p, d)),
    )
    for says, count, expected in counts:
        if count != expected:
            raise CensusInvariantError(f"census for p={p}, d={d} {says}, expected {expected}")
    return report


# The most classes build_census takes on; a larger census is refused before
# anything is generated.  Orderly generation costs about one prefix test per
# row tried, so time follows the classes and the prefixes rejected around
# them.  The budget is set from the sizes it admits, all timed on one core
# of a 2-vCPU host (tools/time_builds.py): the slowest are (7,2), 2,183
# classes in 1.2-1.6 s of CPU, (4,6), 5,822 classes in 0.5-0.8 s, and
# (10,1), 42 classes in 0.1-0.2 s.  The nearest class counts above it are
# 15,129 at (8,2), 16,389 at (4,7), 19,158 at (5,4), 30,335 at (6,3) and
# 41,725 at (4,8).  Their full builds, every check included, take CPU
# medians of 6.07, 0.94, 1.68, 3.98 and 2.35 s (scaled to the bench's
# reference host, 6.05, 0.90, 1.64, 3.96 and 2.24 s) and peak at 40.2, 31.6,
# 35.4, 53.7 and 54.9 MiB RSS (BENCH_32.json).
CLASS_BUDGET = 10_000


def _check_census_budget(p: int, d: int) -> None:
    """Refuse, with CountBudgetError, a census of more than CLASS_BUDGET
    classes, counted by class_count(p, d), whose refusals apply."""
    classes = class_count(p, d)
    if classes > CLASS_BUDGET:
        raise CountBudgetError(
            f"census for p={p}, d={d} has {classes} classes, above the budget of {CLASS_BUDGET}"
        )


def build_census(p: int, d: int) -> CensusReport:
    """Census from the canonical matrices alone, with analytic cardinalities.

    generate._canonical_rows yields each class's canonical matrix once, in
    rank order, without listing the labeled matrices, and with the
    CanonicalResult of the one walk that accepted it; the build searches no
    matrix again.  The walk's least block must be the matrix itself, and
    its |Aut| gives the class p!/|Aut| labeled matrices and cardinality
    (p!/|Aut|) * weight.  _finish_report then requires the labeled matrices
    over all classes to number count_regular_matrices, and the classes
    class_count, two exact counts made without the generator, so a class it
    misses and an |Aut| it gets wrong are caught.  Once every check holds,
    each class's result goes into the canonical_form memo, where the parsers
    and catalog verification look the canonical matrices up.  The class
    count is made first, and a census of more than CLASS_BUDGET classes is
    refused with CountBudgetError.
    """
    _check_census_budget(p, d)
    return _build_census(p, d)


def _build_census(p: int, d: int) -> CensusReport:
    """build_census(p, d) without its budget check, so that sizes above
    CLASS_BUDGET can be timed (tools/time_builds.py)."""
    classes: dict[ArcMatrix, CanonicalResult] = {}
    for rows, result in _canonical_rows(p, d):
        if result.canonical.entries != rows:
            raise CensusInvariantError(
                f"generated matrix {ArcMatrix(rows)} is not canonical; "
                f"its class has {result.canonical}"
            )
        classes[result.canonical] = result
    cardinalities = {
        canon: (r.aut_order, math.factorial(p) // r.aut_order * weight(canon, d))
        for canon, r in classes.items()
    }
    report = _finish_report(p, d, cardinalities)
    for canon, result in classes.items():  # the parsers and verification look them up
        _remember(canon.entries, result)
    return report


# The most configuration words oracle_census tallies; a larger oracle is
# refused before anything is enumerated.  The tally's time follows the
# words, about 0.06-0.08 microseconds each, timed on one core of a 2-vCPU
# host (tools/time_builds.py, BENCH_29.json): at (6,2), 7,484,400 words,
# the whole oracle takes 0.93-1.02 s of CPU, about two fifths of it in the
# tally and the rest in the grouping, and peaks at 49 MiB RSS; at (2,12),
# 2,704,156 words over 13 matrices, 0.12 s; and at (4,3), 369,600 words,
# 0.02-0.03 s.  The nearest word counts above it are 17,153,136 at (3,6),
# 63,063,000 at (4,4), 168,168,000 at (5,3) and 681,080,400 at (7,2).
WORD_BUDGET = 10**7

# The most relabelings the oracle takes on, counted as p! for each of the
# class_count classes; a larger oracle is refused before anything is
# enumerated.  The count bounds the grouping's work: its coset recursion
# makes at most p! - 1 byte permutations per class, and fewer where |Aut|
# is large.  Timed on one core of a 2-vCPU host (tools/time_builds.py,
# BENCH_31.json), the whole oracle takes 7.9-8.5 s of CPU at (9,1),
# 10,886,400 relabelings, most of it in the grouping, and peaks at 95 MiB
# RSS; 0.7 s at (8,1), 887,040; and 1.0-1.2 s at (6,2), 285,840, about
# half of it in the grouping.  At (9,1)'s 0.75 microseconds per relabeling
# the budget holds an admitted oracle to about 15 s.  The word budget
# admits one size above it, (10,1), 152,409,600 relabelings, 14 times
# (9,1)'s.
ORBIT_BUDGET = 2 * 10**7


def _check_oracle_budget(p: int, d: int) -> None:
    """Refuse, with CountBudgetError, an oracle of more than WORD_BUDGET words
    or of more than ORBIT_BUDGET relabelings, p! per class.  The class count
    is made for every oracle the word budget admits by the census budget's
    check, _check_census_budget, whose CLASS_BUDGET refusal so applies too
    (no size within WORD_BUDGET has more than 397 classes, at (6,2)).  The
    count costs about 2 ms of CPU at (6,2) and at (9,1), the largest sizes
    the budgets admit (mean of 50 calls, one core of a 2-vCPU host), and is
    made once per size: class_count caches it."""
    check_node_cap(p)
    words = total_configurations(p, d)
    if words > WORD_BUDGET:
        raise CountBudgetError(
            f"oracle for p={p}, d={d} has {words} words, above the budget of {WORD_BUDGET}"
        )
    _check_census_budget(p, d)
    relabelings = class_count(p, d) * math.factorial(p)
    if relabelings > ORBIT_BUDGET:
        raise CountBudgetError(
            f"oracle for p={p}, d={d} lists {relabelings} relabelings, "
            f"above the budget of {ORBIT_BUDGET}"
        )


def oracle_census(p: int, d: int) -> CensusReport:
    """Census rebuilt by brute force: raw word tallies, no counting formulas.

    The grouping checks that every class got all its labeled matrices, that
    each class's words split evenly over them and that it is d-regular.  An
    oracle of more than WORD_BUDGET words, or of more than ORBIT_BUDGET
    relabelings, p! per class, is refused with CountBudgetError before any
    word is counted.
    _finish_report holds the classes to the class count and the labeled
    count, as it holds build_census's; those formulas check the report, and
    no cardinality is taken from them.
    """
    _check_oracle_budget(p, d)
    return _finish_report(p, d, _group_by_canonical(_word_tally(p, d), p, d))


class CensusDiff(NamedTuple):
    """Discrepancies between two censuses for the same (p, d)."""

    only_in_a: tuple[ArcMatrix, ...]
    only_in_b: tuple[ArcMatrix, ...]
    cardinality_mismatches: tuple[tuple[ArcMatrix, int, int], ...]

    def __bool__(self):
        return bool(self.only_in_a or self.only_in_b or self.cardinality_mismatches)


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
    return CensusDiff(only_a, only_b, mismatches)


def _plain_ints(fields: list[str]) -> list[int]:
    """The integers fields spell; ValueError unless each is written as str(int) writes
    it, so not as "+1", "01", "0_1", " 1", "-0" or in the digits of other scripts."""
    ints = [int(field) for field in fields]
    if list(map(str, ints)) != fields:
        raise ValueError(f"{fields!r} not written as plain integers")
    return ints


def _read_csv(text: str, source: str, header: list[str], ints: int, what: str) -> list[list]:
    """The records of CSV text under header: one list of fields per row, its
    first ints fields as integers.  The one reader of both CSV inputs, the
    catalog and the rendered census.

    Blank lines are skipped anywhere.  Raises ValueError, naming source, for
    text that is not CSV, does not start with header or has no records; and,
    naming the line as the csv module counts lines (a quoted line break
    counts), for a row without len(header) fields or whose integer fields,
    called what, are not written as _plain_ints requires.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise ValueError(f"{source}: {exc}") from None
    if not rows or rows[0][1] != header:
        raise ValueError(f"{source} does not start with the header {','.join(header)}")
    records = []
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(
                f"{source} line {line}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            records.append([*_plain_ints(row[:ints]), *row[ints:]])
        except ValueError:
            raise ValueError(
                f"{source} line {line}: {what} not written as plain integers"
            ) from None
    if not records:
        raise ValueError(f"{source} has no records")
    return records


class CatalogRecord(NamedTuple):
    """One reference-catalog row: designation triple plus monomial text."""

    p: int
    rank: int
    cardinality: int
    monomial: str
    note: str = ""

    @property
    def designation(self) -> str:
        return f"{self.p},{self.rank},{self.cardinality}"


class Catalog(NamedTuple):
    """Reference catalog of class records, keyed by node count."""

    records: tuple[CatalogRecord, ...]

    @classmethod
    def from_csv_text(cls, text: str) -> "Catalog":
        """Parse catalog CSV text; raises ValueError for anything else."""
        # A catalog without records would let verify check no size and still pass.
        rows = _read_csv(text, "catalog CSV", list(CatalogRecord._fields), 3, "designation")
        return cls(tuple(CatalogRecord(*row) for row in rows))

    def for_p(self, p: int) -> tuple[CatalogRecord, ...]:
        return tuple(r for r in self.records if r.p == p)

    def node_counts(self) -> tuple[int, ...]:
        return tuple(sorted({r.p for r in self.records}))


def load_catalog(path: str | Path | None = None) -> Catalog:
    """Load a catalog CSV; with no path, the catalog bundled with the package.

    A file that starts with a byte-order mark, as spreadsheet programs save
    CSV, reads as the same file without it.
    """
    if path is None:
        source = resources.files("dmcensus").joinpath("data/reference_catalog.csv")
    else:
        source = Path(path)
    return Catalog.from_csv_text(source.read_text("utf-8-sig"))


class RecordCheck(NamedTuple):
    """What checking one catalog record found.

    entry is the computed class the record claimed, if any; inserted_arc the
    1-based (source, target) arc that completed the record's degrees, if one
    was forced; reason why the record failed, empty when it did not.
    """

    record: CatalogRecord
    entry: CensusEntry | None = None
    inserted_arc: tuple[int, int] | None = None
    reason: str = ""


class VerificationReport(NamedTuple):
    """Outcome of checking a census against the catalog records for its p.

    Every catalog record lands in exactly one of matched, corrected,
    mismatched, or unmatched_catalog; computed classes no record claimed end
    up in unmatched_computed.  A corrected check carries an inserted arc, a
    mismatched one an entry and a reason, an unmatched one no entry.
    """

    p: int
    d: int
    matched: tuple[RecordCheck, ...]
    corrected: tuple[RecordCheck, ...]
    mismatched: tuple[RecordCheck, ...]
    unmatched_catalog: tuple[RecordCheck, ...]
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

    def check(record: CatalogRecord) -> RecordCheck:
        try:
            mono = parse_monomial(record.monomial)
        except MonomialParseError as exc:
            return RecordCheck(record, reason=f"unparseable monomial: {exc}")
        inserted = None
        try:
            matrix = monomial_to_matrix(mono, report.p, report.d)
        except DegreeError as exc:
            inserted = _forced_completion(exc)
            if inserted is None:
                return RecordCheck(record, reason=f"no single-arc completion: {exc}")
            matrix = monomial_to_matrix(
                Monomial(mono.factors + (inserted,)), report.p, report.d
            )
        except ValueError as exc:
            return RecordCheck(record, reason=str(exc))
        entry = by_canonical.get(canonical_form(matrix).canonical)
        if entry is None:
            return RecordCheck(record, reason="no computed class with this canonical form")
        if entry.rank in claimed:
            return RecordCheck(
                record,
                reason=f"computed class {report.p},{entry.rank} already matched by "
                f"record {claimed[entry.rank]}",
            )
        claimed[entry.rank] = record.designation
        if entry.cardinality != record.cardinality:
            reason = f"catalog cardinality {record.cardinality} vs computed {entry.cardinality}"
            return RecordCheck(record, entry, inserted, reason)
        return RecordCheck(record, entry, inserted)

    checks = [check(record) for record in catalog.for_p(report.p)]
    passed = [c for c in checks if not c.reason]
    return VerificationReport(
        report.p,
        report.d,
        tuple(c for c in passed if c.inserted_arc is None),
        tuple(c for c in passed if c.inserted_arc is not None),
        tuple(c for c in checks if c.reason and c.entry is not None),
        tuple(c for c in checks if c.entry is None),
        tuple(e for e in report.entries if e.rank not in claimed),
    )


def class_lookup(report: CensusReport, mono: Monomial) -> CensusEntry:
    """The report's entry for the class of the multigraph a monomial encodes."""
    matrix = monomial_to_matrix(mono, report.p, report.d)
    canon = canonical_form(matrix).canonical
    entry = next((e for e in report.entries if e.canonical == canon), None)
    if entry is None:
        raise CensusInvariantError(
            "complete census has no class for a valid monomial; this is a bug"
        )
    return entry
