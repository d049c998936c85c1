"""The benchmark's workloads and the exactness gate applied to every operation.

Each workload builds its inputs from a seed and exposes round(gate), one unit
of timed work; `tiny=True` shrinks every size to p <= 3 for the self-test.
The expected values below are derived here, independently of dmcensus:
paper class counts, (dp)!/(d!)^p, partition numbers, |Aut| of disjoint unions
and the sha256 of CLI output recorded in goldens.json, which pins the
byte identity of `census`, `verify`, `lookup` and `render` output.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import traceback
from pathlib import Path

import dmcensus.canonical as canonical
import dmcensus.census as census
import dmcensus.cli as cli
import dmcensus.monomial as monomial

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

D2_CLASSES = (1, 1, 3, 8, 25, 85)  # classes for d=2, p=0..5, as printed in the paper
CORRECTED_RECORD = "3,3,3"  # the one catalog record short of an arc ...
CORRECTED_ARC = (2, 3)  # ... and the arc that completes it


def configurations(p: int, d: int) -> int:
    return math.factorial(d * p) // math.factorial(d) ** p


def partitions(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


class Gate:
    """Counts operations and the ones whose exactness check failed or raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, name: str, fn):
        """Run fn, which returns (result, list of problems); count it once."""
        self.attempted += 1
        try:
            result, problems = fn()
        except Exception:  # a raising op is a failed op; the run goes on
            result, problems = None, [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {problem}" for problem in problems)
        return result


# --- inputs in text form, made here rather than by the program under test ---

def relabel(rows, perm):
    """Matrix whose entry (perm[i], perm[j]) is rows[i][j]."""
    p = len(rows)
    out = [[0] * p for _ in range(p)]
    for i in range(p):
        for j in range(p):
            out[perm[i]][perm[j]] = rows[i][j]
    return tuple(tuple(row) for row in out)


def monomial_text(rows, rng: random.Random) -> str:
    """Seeded text form: shuffled factors in x12 / x_{1,2} / x[1,2] style."""
    factors = [(i + 1, j + 1) for i, row in enumerate(rows)
               for j, mult in enumerate(row) for _ in range(mult)]
    if not factors:
        return "1"
    rng.shuffle(factors)
    style = rng.choice(("x{}{}", "x_{{{},{}}}", "x[{},{}]"))
    if len(rows) > 9:
        style = "x[{},{}]"
    separators = (" ", "  ", "\t", " \t")
    return "".join(style.format(i, j) + (rng.choice(separators) if k < len(factors) - 1 else "")
                   for k, (i, j) in enumerate(factors))


def relabeled_text(rows, rng: random.Random):
    """Text of a seeded relabeling of a matrix, and the permutation used."""
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return monomial_text(relabel(rows, perm), rng), perm


def compact_matrix(text: str, p: int):
    """Matrix of a compact monomial such as 'x11 x23' on p nodes."""
    grid = [[0] * p for _ in range(p)]
    for i, j in re.findall(r"x(\d)(\d)", text):
        grid[int(i) - 1][int(j) - 1] += 1
    return tuple(tuple(row) for row in grid)


def catalog_csv(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["p", "rank", "cardinality", "monomial", "note"])
    writer.writerows((*row, "") for row in rows)
    return out.getvalue()


# --- checks shared by the in-process workloads ---

def check_report(report, p, d, classes=None):
    problems = []
    if report.total != configurations(p, d):
        problems.append(f"total {report.total} != {configurations(p, d)}")
    if sum(e.cardinality for e in report.entries) != configurations(p, d):
        problems.append("cardinalities do not sum to (dp)!/(d!)^p")
    if classes is not None and len(report.entries) != classes:
        problems.append(f"{len(report.entries)} classes, expected {classes}")
    return report, problems


def check_verification(results, records, corrected_arc=None):
    """All records matched, and only the one expected record completed."""
    problems = []
    matched = sum(len(v.matched) for v in results)
    corrected = [(c.record.designation, c.inserted_arc) for v in results for c in v.corrected]
    expected = [(CORRECTED_RECORD, corrected_arc)] if corrected_arc else []
    if matched + len(corrected) != records:
        problems.append(f"{matched + len(corrected)} of {records} records verified")
    if corrected != expected:
        problems.append(f"corrected {corrected}, expected {expected}")
    if not all(v.ok() for v in results):
        problems.append("mismatched or unmatched records")
    return results, problems


def check_roundtrip(report, ranks):
    problems = []
    if cli.parse_census_csv(cli.render_census_csv(report)) != report:
        problems.append("CSV round trip changed the report")
    if cli.parse_census_jsonl(cli.render_census_jsonl(report, ranks)) != report:
        problems.append("JSONL round trip changed the report")
    if cli.render_census_text(report, ranks).count("\n") != len(report.entries) + 4:
        problems.append("text rendering has the wrong number of lines")
    return None, problems


def cross_check(gate, analytic, oracle, seed):
    """Oracle equals analytic census, and a seeded relabeled catalog made from
    the oracle's classes verifies against the analytic one."""
    p, d = analytic.p, analytic.d
    rng = random.Random(seed)

    def compare():
        diff = census.compare_census(analytic, oracle)
        return diff, [f"analytic and oracle differ: {diff}"] if diff else []

    def catalog():
        records = [(p, e.rank, e.cardinality, relabeled_text(e.canonical.entries, rng)[0])
                   for e in oracle.entries]
        cat = census.Catalog.from_csv_text(catalog_csv(records))
        return check_verification([census.verify_against_catalog(analytic, cat)], len(records))

    gate.op(f"compare p={p} d={d}", compare)
    gate.op(f"oracle catalog p={p} d={d}", catalog)
    gate.op(f"round trip p={p} d={d}", lambda: check_roundtrip(analytic, {}))


# --- workloads ---

class CensusD2:
    """The default job: build, verify and render d=2, p=0..5 from a cold memo."""

    def __init__(self, seed: int, tiny: bool = False):
        self.ps = range(4 if tiny else 6)
        self.catalog = census.load_catalog()
        self.records = sum(D2_CLASSES[p] for p in self.ps)
        # The seed relabels every catalog record and re-spells it.
        rng = random.Random(seed)
        rows = []
        for record in self.catalog.records:
            text, perm = relabeled_text(compact_matrix(record.monomial, record.p), rng)
            rows.append((record.p, record.rank, record.cardinality, text))
            if record.designation == CORRECTED_RECORD:
                self.relabeled_arc = (perm[CORRECTED_ARC[0] - 1] + 1, perm[CORRECTED_ARC[1] - 1] + 1)
        self.relabeled = census.Catalog.from_csv_text(catalog_csv(rows))

    def round(self, gate: Gate) -> None:
        reports = {}
        for p in self.ps:
            reports[p] = gate.op(f"build p={p}", lambda p=p: check_report(
                census.build_census(p, 2), p, 2, D2_CLASSES[p]))
        if any(report is None for report in reports.values()):
            return
        verified = gate.op("verify catalog", lambda: check_verification(
            [census.verify_against_catalog(reports[p], self.catalog) for p in self.ps],
            self.records, CORRECTED_ARC))
        gate.op("verify relabeled catalog", lambda: check_verification(
            [census.verify_against_catalog(reports[p], self.relabeled) for p in self.ps],
            self.records, self.relabeled_arc))
        for p in self.ps:
            ranks = {}
            for v in verified or ():
                if v.p == p:
                    ranks.update({m.entry.rank: m.record.rank for m in v.matched + v.corrected})
            gate.op(f"render p={p}", lambda p=p, ranks=ranks: check_roundtrip(reports[p], ranks))
        for p in self.ps:
            if p <= 3:
                gate.op(f"oracle p={p}", lambda p=p: (None, [] if not census.compare_census(
                    reports[p], census.oracle_census(p, 2)) else ["oracle differs"]))


class OracleD3:
    """The formula-free route at its largest affordable size, (4,3)."""

    def __init__(self, seed: int, tiny: bool = False):
        self.p, self.d = (3 if tiny else 4), 3
        self.seed = seed

    def round(self, gate: Gate) -> None:
        p, d = self.p, self.d
        oracle = gate.op("oracle", lambda: check_report(census.oracle_census(p, d), p, d))
        analytic = gate.op("build", lambda: check_report(census.build_census(p, d), p, d))
        if oracle is not None and analytic is not None:
            cross_check(gate, analytic, oracle, self.seed)


# Connected components for the symmetric inputs, with their |Aut|.
COMPONENTS = {"loop": (((2,),), 1), "two-cycle": (((0, 2), (2, 0)), 2)}


def disjoint_union(blocks):
    """Block-diagonal matrix of the components and |Aut| = prod(|Aut c|^m * m!)."""
    parts, aut = [], 1
    for kind, count in blocks:
        rows, comp_aut = COMPONENTS[kind]
        parts += [rows] * count
        aut *= comp_aut ** count * math.factorial(count)
    p = sum(len(rows) for rows in parts)
    grid, offset = [[0] * p for _ in range(p)], 0
    for rows in parts:
        for i, row in enumerate(rows):
            grid[offset + i][offset : offset + len(row)] = row
        offset += len(rows)
    return tuple(tuple(row) for row in grid), aut


class Symmetric:
    """Canonical search where |Aut| is large: every automorphism is a leaf today."""

    def __init__(self, seed: int, tiny: bool = False):
        self.p1 = 3 if tiny else 6
        shapes = ([[("loop", 2)], [("loop", 3)], [("two-cycle", 1)], [("loop", 1), ("two-cycle", 1)]]
                  if tiny else
                  [[("loop", 6)], [("loop", 7)], [("loop", 8)], [("two-cycle", 3)],
                   [("two-cycle", 4)], [("loop", 4), ("two-cycle", 2)]])
        self.seed = seed
        rng = random.Random(seed)
        self.inputs = []  # (label, p, aut, relabeled texts)
        for blocks in shapes:
            rows, aut = disjoint_union(blocks)
            texts = [relabeled_text(rows, rng)[0] for _ in range(3)]
            label = "+".join(f"{count}x{kind}" for kind, count in blocks)
            self.inputs.append((label, len(rows), aut, texts))

    def round(self, gate: Gate) -> None:
        p = self.p1
        analytic = gate.op(f"build p={p} d=1", lambda: check_report(
            census.build_census(p, 1), p, 1, partitions(p)))
        oracle = gate.op(f"oracle p={p} d=1", lambda: check_report(
            census.oracle_census(p, 1), p, 1, partitions(p)))
        if analytic is not None and oracle is not None:
            cross_check(gate, analytic, oracle, self.seed)
        for label, p, aut, texts in self.inputs:
            gate.op(f"canonical {label}",
                    lambda p=p, aut=aut, texts=texts: check_relabelings(p, aut, texts))


def check_relabelings(p, aut, texts):
    """Parse each relabeling's text; all must share one canonical form and |Aut|."""
    results = [canonical.canonical_form(monomial.monomial_to_matrix(
        monomial.parse_monomial(text), p, 2)) for text in texts]
    problems = []
    if len({r.canonical for r in results}) != 1:
        problems.append("relabelings disagree on the canonical form")
    if any(r.aut_order != aut for r in results):
        problems.append(f"|Aut| {[r.aut_order for r in results]}, expected {aut}")
    return results, problems


class Cli:
    """End to end as users see it: one fresh process per command."""

    def __init__(self, seed: int, tiny: bool = False):
        scale = "tiny" if tiny else "full"
        p = 3 if tiny else 5
        rng = random.Random(seed)
        goldens = json.loads(GOLDENS_PATH.read_text("utf-8"))
        self.digests = goldens["sha256"][scale]
        lookup, _ = relabeled_text(compact_matrix(goldens["lookup_source"][scale], p), rng)
        self.commands = {
            f"census_p{p}": ["census", "-p", str(p), "--format", "jsonl"],
            "verify_all": ["verify", "-p", "3"] if tiny else ["verify", "--all"],
            f"lookup_p{p}": ["lookup", "--monomial", lookup, "-p", str(p)],
            "render": ["render", "--class", "3,8" if tiny else "5,85"],
        }
        self.times: dict[str, list[float]] = {name: [] for name in self.commands}
        self.env = dict(os.environ, PYTHONPATH=str(Path(census.__file__).resolve().parents[1]))
        self.in_process = False  # the traced run calls run_cli in this process

    def run_command(self, argv) -> tuple[int, bytes]:
        if self.in_process:
            canonical.clear_cache()  # a fresh process starts with an empty memo
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run_cli(argv)
            return code, out.getvalue().encode()
        done = subprocess.run([sys.executable, "-m", "dmcensus", *argv], env=self.env,
                              capture_output=True, check=False)
        return done.returncode, done.stdout

    def round(self, gate: Gate) -> None:
        for name, argv in self.commands.items():
            def command(name=name, argv=argv):
                start = time.perf_counter()
                code, stdout = self.run_command(argv)
                self.times[name].append(time.perf_counter() - start)
                digest = hashlib.sha256(stdout).hexdigest()
                golden = self.digests[name]
                problems = [f"exit code {code}"] if code else []
                if digest != golden:
                    problems.append(f"stdout sha256 {digest} != golden {golden}")
                return len(stdout), problems

            gate.op(f"cli {name}", command)


WORKLOADS = {"census-d2": CensusD2, "oracle-d3": OracleD3, "symmetric": Symmetric, "cli": Cli}
