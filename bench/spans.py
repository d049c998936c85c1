"""In-memory span tracer installed around the public functions of dmcensus.

Every function in INSTRUMENTED is replaced, in every dmcensus module that
binds it, by a wrapper that records a span (name, start, end, parent span)
and charges the span's duration to its parent, so that

    self time = span duration - time covered by child spans.

Two kinds of work happen hundreds of thousands of times per round and are
not kept as one span each: next() on the enumeration streams and
word_to_matrix.  They are aggregated per parent span (item count and busy
time), which keeps the trace of an oracle round a few hundred KiB instead of
tens of MiB.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function, span name, kind); kind is "call" for one span per call,
# "leaf" for aggregated calls and "stream" for an aggregated generator.
INSTRUMENTED = (
    ("dmcensus.canonical", "canonical_form", "canonical", "call"),
    ("dmcensus.generate", "enumerate_regular_matrices", "generate.matrices", "stream"),
    ("dmcensus.generate", "enumerate_words", "generate.words", "stream"),
    ("dmcensus.generate", "word_to_matrix", "generate.word_to_matrix", "leaf"),
    ("dmcensus.core", "weight", "core.weight", "call"),
    ("dmcensus.census", "build_census", "census.build", "call"),
    ("dmcensus.census", "oracle_census", "census.oracle", "call"),
    ("dmcensus.census", "compare_census", "census.compare", "call"),
    ("dmcensus.census", "verify_against_catalog", "census.verify", "call"),
    ("dmcensus.monomial", "parse_monomial", "monomial.parse", "call"),
    ("dmcensus.monomial", "monomial_to_matrix", "monomial.to_matrix", "call"),
    ("dmcensus.monomial", "matrix_to_monomial", "monomial.from_matrix", "call"),
    ("dmcensus.monomial", "print_monomial", "monomial.print", "call"),
    ("dmcensus.cli", "render_census_text", "cli.render", "call"),
    ("dmcensus.cli", "render_census_csv", "cli.render", "call"),
    ("dmcensus.cli", "render_census_jsonl", "cli.render", "call"),
    ("dmcensus.cli", "emit_dot", "cli.render", "call"),
)

MODULES = (
    "dmcensus",
    "dmcensus.core",
    "dmcensus.generate",
    "dmcensus.canonical",
    "dmcensus.monomial",
    "dmcensus.census",
    "dmcensus.cli",
)


class Tracer:
    """Span recorder; per-round aggregates are reset by start_round()."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, self_s)
        self.streams: dict[tuple[int, str], list] = {}  # (parent id, name) -> [items, busy_s]
        self._stack = [[0, "root", 0.0]]  # open spans: [id, name, child_s]
        self._ids = 0
        self.start_round()

    def start_round(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.distinct_inputs: set = set()  # canonical_form arguments seen
        self.rendered_bytes = 0
        self.classes = 0

    @contextmanager
    def span(self, name: str):
        self._ids += 1
        frame = [self._ids, name, 0.0]
        parent = self._stack[-1]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            parent[2] += end - start
            own = end - start - frame[2]
            self.calls[name] += 1
            self.self_s[name] += own
            self.spans.append((frame[0], parent[0], name, start, end, own))

    def _charge(self, name: str, seconds: float, items: int) -> None:
        parent = self._stack[-1]
        parent[2] += seconds
        self.calls[name] += items
        self.self_s[name] += seconds
        agg = self.streams.setdefault((parent[0], name), [0, 0.0])
        agg[0] += items
        agg[1] += seconds

    def _wrap_call(self, name, fn):
        def traced(*args, **kwargs):
            if name == "canonical":
                self.distinct_inputs.add(args[0].entries)
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "cli.render":
                self.rendered_bytes += len(result.encode())
            elif name in ("census.build", "census.oracle"):
                self.classes += len(result.entries)
            return result

        return traced

    def _wrap_leaf(self, name, fn):
        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            self._charge(name, perf_counter() - start, 1)
            return result

        return traced

    def _wrap_stream(self, name, fn):
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    self._charge(name, perf_counter() - start, 0)
                    return
                self._charge(name, perf_counter() - start, 1)
                yield item

        return traced

    @contextmanager
    def installed(self):
        """Replace each instrumented function wherever a dmcensus module binds it."""
        wraps = {"call": self._wrap_call, "leaf": self._wrap_leaf, "stream": self._wrap_stream}
        modules = [importlib.import_module(m) for m in MODULES]
        replacement = {}
        for module, attr, name, kind in INSTRUMENTED:
            original = getattr(importlib.import_module(module), attr)
            replacement[id(original)] = (original, wraps[kind](name, original))
        saved = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacement and replacement[id(value)][0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, replacement[id(value)][1])
        try:
            yield
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def write(self, path) -> None:
        """One JSON array per line, each section headed by its field names:
        call spans first, then the aggregated streams and leaves."""
        with open(path, "w", encoding="utf-8") as out:
            out.write('["id", "parent", "name", "start", "end", "self_s"]\n')
            out.writelines(json.dumps(span) + "\n" for span in self.spans)
            out.write('["parent", "name", "items", "busy_s"]\n')
            out.writelines(json.dumps([parent, name, items, busy]) + "\n"
                           for (parent, name), (items, busy) in self.streams.items())
