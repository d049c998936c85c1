"""Command-line front end: census, oracle, verify, lookup, and render.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success (and full
verification), 1 verification mismatch, 2 usage or parse error, 3 resource
limit (node cap or count budget).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .canonical import canonical_form
from .census import (
    Catalog,
    CensusEntry,
    CensusReport,
    VerificationReport,
    _check_census_budget,
    _check_oracle_budget,
    _finish_report,
    _plain_ints,
    _read_csv,
    build_census,
    class_lookup,
    compare_census,
    load_catalog,
    oracle_census,
    verify_against_catalog,
)
from .core import (
    NODE_CAP,
    ArcMatrix,
    CensusInvariantError,
    CountBudgetError,
    ResourceLimitError,
    total_configurations,
    weight,
)
from .generate import class_count
from .monomial import monomial_to_matrix, parse_monomial

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

CSV_COLUMNS = ["p", "d", "rank", "cardinality", "aut_order", "weight", "monomial"]
COUNT_COLUMNS = CSV_COLUMNS[:-1]
JSONL_KEYS = {*CSV_COLUMNS, "matrix"}


def emit_dot(matrix: ArcMatrix) -> str:
    """Graphviz text for a multigraph; parallel arcs and loops repeat statements.

    Nodes are named n1..np to avoid bare-integer ambiguity downstream; the
    null multigraph renders with an intentionally blank body.
    """
    lines = ["digraph class {"]
    lines.extend(f"  n{i};" for i in range(1, matrix.p + 1))
    for i, row in enumerate(matrix.entries, start=1):
        for j, mult in enumerate(row, start=1):
            lines.extend(f"  n{i} -> n{j};" for _ in range(mult))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _catalog_rank_map(report: CensusReport) -> dict[int, int]:
    """Computed rank -> catalog rank, via the bundled catalog (empty off-catalog)."""
    if report.d != 2:
        return {}
    verification = verify_against_catalog(report, load_catalog())
    return {c.entry.rank: c.record.rank for c in verification.matched + verification.corrected}


def _record(report: CensusReport, entry: CensusEntry) -> dict:
    """The CSV_COLUMNS fields of one class, shared by CSV rows and JSON lines."""
    values = (report.p, report.d, entry.rank, entry.cardinality, entry.aut_order, entry.weight)
    return dict(zip(CSV_COLUMNS, (*values, str(entry.representative))))


def render_census_csv(report: CensusReport) -> str:
    """The report as CSV: a CSV_COLUMNS header, then one row per class;
    parse_census_csv reads it back."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(_record(report, entry) for entry in report.entries)
    return buf.getvalue()


def _report_from_records(records: list[dict], source: str) -> CensusReport:
    """Rebuild a CensusReport from the records (see _record) of CSV or JSON lines.

    Raises ValueError unless the records are the d-regular classes of one
    (p, d) census, p <= NODE_CAP, ranked 1, 2, ... by ascending canonical
    matrix.  Each monomial must be the canonical form of its class and carry
    the computed |Aut| and the derived matrix, core.weight and cardinality; a
    (p, d) whose count is refused, such as any d >= 63, is refused before a
    monomial is parsed.  The classes then go to census._finish_report, which
    makes the report and holds it to the labeled count, the class count and
    total_configurations(p, d), as it holds every report.
    """
    if not records:
        raise ValueError(f"{source} has no records")
    p, d = records[0]["p"], records[0]["d"]
    classes = {}
    for rank, record in enumerate(records, start=1):
        try:
            if any(type(record[key]) is not int for key in COUNT_COLUMNS):
                raise ValueError(f"{', '.join(COUNT_COLUMNS)} must be integers")
            if not isinstance(record["monomial"], str):
                raise ValueError("monomial must be text")
            if (record["p"], record["d"]) != (p, d):
                raise ValueError(f"p={record['p']}, d={record['d']} after p={p}, d={d}")
            if not 0 <= p <= NODE_CAP or d < 1:
                raise ValueError(f"p={p}, d={d} outside 0 <= p <= {NODE_CAP}, d >= 1")
            total_configurations(p, d)
            if record["rank"] != rank:
                raise ValueError(f"rank {record['rank']} where {rank} is due")
            canonical = monomial_to_matrix(parse_monomial(record["monomial"]), p, d)
            # Equal as JSON text too, since true and 0.0 compare equal to 1 and 0;
            # the value check first keeps json.dumps off deeply nested input.
            matrix = [list(r) for r in canonical.entries]
            if "matrix" in record and (record["matrix"] != matrix
                                       or json.dumps(record["matrix"]) != json.dumps(matrix)):
                raise ValueError("matrix does not match the monomial")
            if classes and canonical <= next(reversed(classes)):
                raise ValueError("classes do not ascend by canonical matrix")
            result = canonical_form(canonical)
            if result.canonical != canonical:
                raise ValueError(f"monomial is not canonical; its class has {result.canonical}")
            aut_order = record["aut_order"]
            if result.aut_order != aut_order:
                raise ValueError(f"aut_order {aut_order} is not the computed {result.aut_order}")
            wt = weight(canonical, d)
            derived = (wt, math.factorial(p) // aut_order * wt)
            if (record["weight"], record["cardinality"]) != derived:
                raise ValueError(f"weight and cardinality are not the derived {derived}")
        except (ValueError, CountBudgetError) as exc:
            raise ValueError(f"{source} record {rank}: {exc}") from None
        classes[canonical] = (aut_order, record["cardinality"])
    try:
        return _finish_report(p, d, classes)
    except CensusInvariantError as exc:
        raise ValueError(f"{source}: {exc}") from None


def parse_census_csv(text: str) -> CensusReport:
    """Rebuild a CensusReport from render_census_csv output (lossless).

    Raises ValueError for any text that is not such output.
    """
    rows = _read_csv(text, "census CSV", CSV_COLUMNS, len(COUNT_COLUMNS), "counts")
    return _report_from_records([dict(zip(CSV_COLUMNS, row)) for row in rows], "census CSV")


def render_census_jsonl(report: CensusReport, catalog_ranks: dict[int, int]) -> str:
    lines = []
    for entry in report.entries:
        record = {
            **_record(report, entry),
            "matrix": [list(row) for row in entry.canonical.entries],
            "paper_rank": catalog_ranks.get(entry.rank),
        }
        lines.append(json.dumps(record, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def parse_census_jsonl(text: str) -> CensusReport:
    """Rebuild a CensusReport from render_census_jsonl output (lossless).

    Raises ValueError for any text that is not such output; paper_rank is
    not read back.
    """
    records = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except RecursionError:
            raise ValueError("census JSONL line nests too deeply") from None
        if not isinstance(record, dict) or not JSONL_KEYS <= record.keys():
            raise ValueError(f"census JSONL line {line!r} lacks the keys {sorted(JSONL_KEYS)}")
        records.append(record)
    return _report_from_records(records, "census JSONL")


def render_census_text(report: CensusReport, catalog_ranks: dict[int, int]) -> str:
    out = [
        "nodes  d  classes  total_configurations",
        f"{report.p:5d}  {report.d}  {len(report.entries):7d}  {report.total:20d}",
        "",
        "rank  cardinality  aut_order  weight  paper  monomial",
    ]
    for entry in report.entries:
        paper = catalog_ranks.get(entry.rank)
        out.append(
            f"{entry.rank:4d}  {entry.cardinality:11d}  {entry.aut_order:9d}  "
            f"{entry.weight:6d}  {paper if paper is not None else '-':>5}  "
            f"{entry.representative}"
        )
    return "\n".join(out) + "\n"


def _render_report(report: CensusReport, fmt: str) -> str:
    if fmt == "csv":
        return render_census_csv(report)
    if fmt == "jsonl":
        return render_census_jsonl(report, _catalog_rank_map(report))
    return render_census_text(report, _catalog_rank_map(report))


def _cmd_census(args) -> int:
    sys.stdout.write(_render_report(args.build(args.p, args.d), args.format))
    return EXIT_OK


def _verify_one(p: int, catalog: Catalog) -> tuple[bool, VerificationReport]:
    """Verify one node count; returns (ok, its catalog verification)."""
    report = build_census(p, 2)
    oracle = oracle_census(p, 2)
    diff = compare_census(report, oracle)
    verification = verify_against_catalog(report, catalog)
    records = catalog.for_p(p)

    print(f"== p={p}, d=2 ==")
    print(f"computed: {len(report.entries)} classes, total {report.total}")
    if not diff:
        print(f"oracle cross-check: OK ({oracle.total} words)")
    else:
        print("oracle cross-check: FAIL")
        for canon in diff.only_in_a:
            print(f"  only in analytic census: {canon}")
        for canon in diff.only_in_b:
            print(f"  only in oracle census: {canon}")
        for canon, card_a, card_b in diff.cardinality_mismatches:
            print(f"  {canon}: analytic {card_a} vs oracle {card_b}")
    if not records:
        print(f"catalog: no records for p={p} (skipped)")
        return not diff, verification
    print(
        f"catalog: {len(records)} records; matched {len(verification.matched)}, "
        f"corrected {len(verification.corrected)}, "
        f"mismatched {len(verification.mismatched)}, "
        f"unmatched {len(verification.unmatched_catalog)}"
    )
    for item in verification.corrected:
        i, j = item.inserted_arc
        print(
            f"  corrected {item.record.designation}: monomial "
            f"'{item.record.monomial}' completed with x[{i},{j}]; "
            f"cardinality {item.entry.cardinality} confirmed"
        )
        if item.record.note:
            print(f"    note: {item.record.note}")
    for item in verification.mismatched:
        print(f"  mismatched {item.record.designation}: {item.reason}")
    for item in verification.unmatched_catalog:
        print(f"  unmatched record {item.record.designation}: {item.reason}")
    for entry in verification.unmatched_computed:
        print(
            f"  computed class {p},{entry.rank} (cardinality {entry.cardinality}) "
            "has no catalog record"
        )
    return not diff and verification.ok(), verification


def _cmd_verify(args) -> int:
    catalog = load_catalog(args.paper_data)
    node_counts = [args.p] if args.p is not None else list(catalog.node_counts())
    for p in node_counts:  # refuse any size before printing one
        _check_oracle_budget(p, 2)
    results = []
    for p in node_counts:
        results.append(_verify_one(p, catalog))
        print()
    all_ok = all(ok for ok, _ in results)
    records = sum(len(catalog.for_p(p)) for p in node_counts)
    matched = sum(len(v.matched) for _, v in results)
    corrected = sum(len(v.corrected) for _, v in results)
    print(
        f"summary: {records} catalog records; {matched} matched directly, "
        f"{corrected} corrected"
    )
    print(f"verification: {'PASS' if all_ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def _cmd_lookup(args) -> int:
    mono = parse_monomial(args.monomial)
    _check_census_budget(args.p, args.d)
    monomial_to_matrix(mono, args.p, args.d)  # its degrees must fit before the build
    report = build_census(args.p, args.d)
    entry = class_lookup(report, mono)
    print(f"class {report.p},{entry.rank} cardinality {entry.cardinality}")
    return EXIT_OK


def _cmd_render(args) -> int:
    try:
        p, rank = _plain_ints(args.class_id.split(","))
    except ValueError:
        raise ValueError(f"--class expects '<p>,<rank>', got {args.class_id!r}") from None
    _check_census_budget(p, args.d)
    classes = class_count(p, args.d)
    if not 1 <= rank <= classes:
        raise ValueError(
            f"rank {rank} out of range; census for p={p}, d={args.d} has {classes} classes"
        )
    report = build_census(p, args.d)
    sys.stdout.write(emit_dot(report.entries[rank - 1].canonical))
    return EXIT_OK


def _nonnegative_int(text: str) -> int:
    (value,) = _plain_ints([text])
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive_int(text: str) -> int:
    (value,) = _plain_ints([text])
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmcensus",
        description="Exact census of isomorphism classes of d-in/d-out regular "
        "directed multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    census = sub.add_parser("census", help="emit the analytic census")
    oracle = sub.add_parser("oracle", help="emit the brute-force word-oracle census")
    for p_cmd in (census, oracle):
        p_cmd.add_argument("-p", type=_nonnegative_int, required=True, help="node count")
        p_cmd.add_argument("-d", type=_positive_int, default=2, help="degree (default 2)")
        p_cmd.add_argument(
            "--format", choices=["jsonl", "csv", "text"], default="text"
        )
    census.set_defaults(func=_cmd_census, build=build_census)
    oracle.set_defaults(func=_cmd_census, build=oracle_census)

    verify = sub.add_parser(
        "verify", help="cross-check both censuses and verify against the catalog"
    )
    group = verify.add_mutually_exclusive_group()
    group.add_argument("-p", type=_nonnegative_int, default=None, help="verify one node count")
    group.add_argument(
        "--all", action="store_true", help="verify every cataloged node count (default)"
    )
    verify.add_argument(
        "--paper-data", metavar="PATH", default=None,
        help="alternate catalog CSV (default: bundled catalog)",
    )
    verify.set_defaults(func=_cmd_verify)

    lookup = sub.add_parser("lookup", help="locate the class of a monomial")
    lookup.add_argument("--monomial", required=True, help="monomial text")
    lookup.add_argument("-p", type=_nonnegative_int, required=True, help="node count")
    lookup.add_argument("-d", type=_positive_int, default=2, help="degree (default 2)")
    lookup.set_defaults(func=_cmd_lookup)

    render = sub.add_parser("render", help="emit a class representative as DOT")
    render.add_argument(
        "--class", dest="class_id", required=True, metavar="P,RANK",
        help="class designation, e.g. 5,85",
    )
    render.add_argument("-d", type=_positive_int, default=2, help="degree (default 2)")
    render.add_argument("--format", choices=["dot"], default="dot")
    render.set_defaults(func=_cmd_render)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
