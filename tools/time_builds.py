"""Time the census sizes the bench does not run; write the numbers as JSON.

    python3 tools/time_builds.py --out BENCH_<n>.json

Run it from the root of a checkout; it imports dmcensus from the checkout's
src/ and the host-speed probe from bench/speed.py.  main() pins itself to
one CPU once, and every child it starts inherits the pin.  Each size is
measured RUNS times, each time in a fresh child process, so that its CPU
time (time.process_time) and peak RSS are its own, and under speed.timed,
which also rescales its wall time to the bench's reference host speed
(scaled_s), so runs made at different host speeds can be compared:

- the census build at (5,2), (7,2), (10,1), (4,6), (4,7), (5,4), (4,8),
  (6,3) and (8,2): census._build_census, which runs every check of
  build_census, the canonicity of each class, the class count and the
  labeled count, but does not consult census.CLASS_BUDGET, so sizes above
  the budget are timed the same way as those below it;
- oracle_census at (4,3) and (5,2), the sizes that the bench's oracle-d3
  round and `verify --all` run, at (2,12) and (3,5), the most words per
  matrix, where counting the words is most of the oracle, at (8,1), and at
  (6,2) and (9,1), the largest sizes census.WORD_BUDGET and
  census.ORBIT_BUDGET admit, timed and its peak RSS read alone; it is exact
  when compare_census finds no diff against the same build, which runs
  after both readings.

Start-up is not timed here: the bench measures it on every workload
(setup_s) and in its cli workload.

The output file names the CPU model and the Python version, and holds one
record per size with every run's CPU seconds, their minimum and median,
every run's scaled seconds and their median, the peak RSS and whether the
exact counts held.  The command exits with status 1 when an oracle differs
from its build; a build whose count is off raises CensusInvariantError in
its child, whose traceback reaches stderr, and the command stops there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "bench"))
from speed import pin, timed  # bench/speed.py

RUNS = 3
SIZES = (("build", 5, 2), ("build", 7, 2), ("build", 10, 1), ("build", 4, 6),
         ("build", 4, 7), ("build", 5, 4), ("build", 4, 8), ("build", 6, 3),
         ("build", 8, 2), ("oracle", 4, 3), ("oracle", 5, 2), ("oracle", 2, 12),
         ("oracle", 3, 5), ("oracle", 6, 2), ("oracle", 8, 1), ("oracle", 9, 1))


def measure(kind: str, p: int, d: int) -> dict:
    """Build the census (kind "build") or run the word oracle (kind "oracle")
    at (p, d) in this process; returns its CPU seconds, its scaled seconds
    (speed.timed), classes, whether the exact counts held, and the process's
    peak RSS as the timed work ends."""
    from dmcensus import compare_census, oracle_census
    from dmcensus.canonical import clear_cache
    from dmcensus.census import _build_census  # raises if a count is off

    work = _build_census if kind == "build" else oracle_census
    done = []
    clear_cache()
    start = time.process_time()
    scaled_s = timed(lambda: done.append(work(p, d)))[1]
    cpu_s = time.process_time() - start
    report, = done
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    exact = kind == "build" or not compare_census(report, _build_census(p, d))
    return {"kind": kind, "p": p, "d": d, "classes": len(report.entries), "exact": exact,
            "cpu_s": cpu_s, "scaled_s": scaled_s, "peak_rss_mib": peak_rss_mib}


def measure_in_child(kind: str, p: int, d: int) -> dict:
    """measure(kind, p, d) in a fresh interpreter, on this process's CPUs;
    the child's stderr goes to this process's stderr."""
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            f"from time_builds import measure; print(json.dumps(measure({kind!r}, {p}, {d})))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


def cpu_model() -> str:
    """The CPU model as /proc/cpuinfo names it, else the machine type."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        lines = []
    names = [line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")]
    return names[0] if names else platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    pin()
    records = []
    for kind, p, d in SIZES:
        runs = [measure_in_child(kind, p, d) for _ in range(RUNS)]
        times = [run["cpu_s"] for run in runs]
        scaled = [run["scaled_s"] for run in runs]
        record = {"kind": kind, "p": p, "d": d, "classes": runs[0]["classes"],
                  "exact": all(run["exact"] for run in runs),
                  "cpu_s": times, "cpu_s.min": min(times), "cpu_s.median": statistics.median(times),
                  "scaled_s": scaled, "scaled_s.median": statistics.median(scaled),
                  "peak_rss_mib": max(run["peak_rss_mib"] for run in runs)}
        records.append(record)
        print(f"{kind} ({p},{d}): {record['classes']} classes, exact {record['exact']}, "
              f"CPU min {min(times):.2f} s, median {record['cpu_s.median']:.2f} s, "
              f"scaled median {record['scaled_s.median']:.2f} s, "
              f"peak RSS {record['peak_rss_mib']:.1f} MiB", flush=True)
    header = {"cpu": f"one pinned core of {cpu_model()}",
              "python": platform.python_version(), "runs": RUNS}
    args.out.write_text(json.dumps({**header, "sizes": records}, indent=1) + "\n")
    return 0 if all(record["exact"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
