"""Census benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload census-d2 --seed 1 --seconds 28 --trace 0

Run it from the root of a checkout; it imports dmcensus from the checkout's
src/ and exits with status 2, printing no result, when that is missing.  One
process, one thread, pinned to one CPU; CLI commands run as child processes
one at a time, on that CPU.
Every in-process round starts from a cold canonical memo.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 measures untraced rounds and reports the
end-to-end metrics; --trace 1 alternates untraced and traced rounds, reports
the per-layer metrics and writes the spans to bench/out/.  The lines before
it give the seed, each timing's minimum and median with its sample count and
tail percentile and, for `cli`, each command's time.  End-to-end times are
rescaled to a fixed host speed by speed.py; the raw wall times are printed
beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import pin, timed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_RUNS = 15
SETUP_CODE = "import dmcensus; dmcensus.load_catalog()"


def tail(samples):
    """Highest percentile with at least ten samples beyond it, as (label, value)."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in (99.9, 99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return f"p{q:g}", ordered[math.ceil(q / 100 * n) - 1]
    return None


def describe(name, samples, unit):
    found = tail(samples)
    beyond = (f"{found[0]} {found[1]:.6f} {unit}" if found
              else "no percentile has 10 samples beyond it")
    return (f"{name}: min {min(samples):.6f} {unit}, p50 {statistics.median(samples):.6f} "
            f"{unit}, {beyond}, n={len(samples)}")


def measure_setup(env):
    """(wall, scaled) times of fresh processes that import dmcensus and load the catalog."""
    return [timed(lambda: subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True))
            for _ in range(SETUP_RUNS)]


def layer_metrics(t):
    """Per-layer numbers of one traced round, as name -> (value, unit)."""
    calls, distinct = t.calls["canonical"], len(t.distinct_inputs)
    return {
        "canonical.calls": (calls, "count"),
        "canonical.distinct": (distinct, "count"),
        "canonical.reuse": (1 - distinct / calls if calls else 0.0, "ratio"),
        "canonical.s": (t.self_s["canonical"], "s"),
        "generate.matrices": (t.calls["generate.matrices"], "count"),
        "generate.matrices_s": (t.self_s["generate.matrices"], "s"),
        "generate.words": (t.calls["generate.words"], "count"),
        "generate.words_s": (t.self_s["generate.words"], "s"),
        "generate.word_to_matrix_s": (t.self_s["generate.word_to_matrix"], "s"),
        "census.oracle_self_s": (t.self_s["census.oracle"], "s"),
        "census.build_self_s": (t.self_s["census.build"], "s"),
        "core.weight_calls": (t.calls["core.weight"], "count"),
        "core.weight_s": (t.self_s["core.weight"], "s"),
        "census.compare_s": (t.self_s["census.compare"], "s"),
        "census.verify_s": (t.self_s["census.verify"], "s"),
        "census.classes": (t.classes, "count"),
        "monomial.parse_calls": (t.calls["monomial.parse"], "count"),
        "monomial.parse_s": (t.self_s["monomial.parse"], "s"),
        "monomial.to_matrix_s": (t.self_s["monomial.to_matrix"], "s"),
        "monomial.from_matrix_s": (t.self_s["monomial.from_matrix"], "s"),
        "monomial.print_s": (t.self_s["monomial.print"], "s"),
        "cli.render_s.inproc": (t.self_s["cli.render"], "s"),
        "cli.bytes_out": (t.rendered_bytes, "B"),
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Measure one workload; returns (result object, report lines, tracer or None)."""
    import dmcensus.canonical as canonical
    from spans import Tracer
    from workloads import WORKLOADS, Gate

    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup, setup_scaled = zip(*measure_setup(env))
    workload = WORKLOADS[name](seed, tiny)
    gate = Gate()
    tracer = Tracer() if trace else None
    if trace and name == "cli":
        workload.in_process = True  # spans can only be taken inside this process

    def cold_round():
        canonical.clear_cache()
        workload.round(gate)

    untraced, scaled, traced, layers = [], [], [], []
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        wall, wall_scaled = timed(cold_round)
        untraced.append(wall)
        scaled.append(wall_scaled)
        if tracer:
            tracer.start_round()
            canonical.clear_cache()
            with tracer.installed():
                traced_start = time.perf_counter()
                with tracer.span("round"):
                    workload.round(gate)
                traced.append(time.perf_counter() - traced_start)
            layers.append(layer_metrics(tracer))
        # Start no round that would end after the measuring window.
        now = time.perf_counter()
        if now + (now - start) > began + seconds:
            break

    lines = [f"workload {name} seed {seed} trace {int(trace)} tiny {tiny}",
             describe("round_s", untraced, "s"),
             describe("round_s.scaled", scaled, "s"),
             describe("setup_s (wall)", setup, "s"),
             describe("setup_s (scaled)", setup_scaled, "s"),
             f"failed_share: {gate.failed / gate.attempted:.6f} "
             f"({gate.failed} of {gate.attempted} ops)"]
    if tracer:
        lines.append(describe("round_s.traced", traced, "s"))
        metrics = {key: {"value": statistics.median_low(layer[key][0] for layer in layers),
                         "unit": unit} for key, (_, unit) in layers[0].items()}
        overhead = min(traced) - min(untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        ranked = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
        lines.append("self time in the last traced round: " + ", ".join(
            f"{span} {own:.4f} s" for span, own in ranked))
    else:
        who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        metrics = {
            "round_s.scaled": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MiB"},
        }
        if name == "cli":
            lines += [describe(f"cli.{command}_s", times, "s")
                      for command, times in workload.times.items()]
    lines.append("round_s samples: " + " ".join(f"{t:.4f}" for t in untraced))
    lines.append("round_s.scaled samples: " + " ".join(f"{t:.4f}" for t in scaled))
    lines += gate.problems[:20]
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    return result, lines, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dmcensus" / "__init__.py").is_file():
        print(f"error: no dmcensus package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    pin()

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result, lines, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if tracer:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}.jsonl"
        tracer.write(path)
        lines.append(f"spans written to {path.relative_to(HERE.parent)}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
