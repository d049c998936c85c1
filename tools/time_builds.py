"""Time start-up and the census sizes the bench does not run; write the numbers as JSON.

    python3 tools/time_builds.py --out BENCH_<n>.json

Run it from the root of a checkout; it imports dmcensus from the checkout's
src/ and the host-speed probe from bench/speed.py.  main() pins itself to
one CPU once, and every child it starts inherits the pin.  Each size is
measured RUNS times, each time in a fresh child process, so that its CPU
time (time.process_time) and peak RSS are its own, and under speed.timed,
which also rescales its wall time to the bench's reference host speed
(scaled_s), so runs made at different host speeds can be compared:

- build_census at (5,2), (7,2), (10,1) and (4,6), the census with all of its
  checks, including the class count and the labeled count;
- the orderly generator alone at (8,2), which census.CLASS_BUDGET refuses:
  its classes must number class_count(8, 2), and their p!/|Aut| must sum to
  count_regular_matrices(8, 2);
- oracle_census at (4,3) and (5,2), the sizes that the bench's oracle-d3
  round and `verify --all` run, at (2,12) and (3,5), the most words per
  matrix, where counting the words is most of the oracle, at (8,1), and at
  (6,2) and (9,1), the largest sizes census.WORD_BUDGET and
  census.ORBIT_BUDGET admit, timed and its peak RSS read alone; it is exact
  when compare_census finds no diff against build_census, which runs after
  both readings.

The startup record holds the wall seconds of three fresh interpreters on
the same pinned CPU, RUNS of each, interleaved: a bare `python -c pass`, one
that runs `import dmcensus; dmcensus.load_catalog()`, and the CLI command
`render --class 5,85`.  It names the modules that import added to a bare
interpreter, and which of them are in HEAVY, stdlib modules that each cost
milliseconds to import.

The output file names the CPU model and the Python version, and holds the
startup record and one record per size with every run's CPU seconds, their
minimum and median, every run's scaled seconds and their median, the peak
RSS and whether the exact counts held.
The command exits with status 1 when a count does not.
"""

from __future__ import annotations

import argparse
import json
import math
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
         ("generator", 8, 2), ("oracle", 4, 3), ("oracle", 5, 2), ("oracle", 2, 12),
         ("oracle", 3, 5), ("oracle", 6, 2), ("oracle", 8, 1), ("oracle", 9, 1))
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "linecache", "typing",
         "importlib.resources", "pathlib", "re", "enum")
IMPORT = ("import sys; bare = set(sys.modules); import dmcensus; dmcensus.load_catalog(); "
          "print(' '.join(sorted(set(sys.modules) - bare)))")


def measure(kind: str, p: int, d: int) -> dict:
    """Build the census (kind "build"), run the generator alone (kind
    "generator") or the word oracle (kind "oracle") at (p, d) in this
    process; returns its CPU seconds, its scaled seconds (speed.timed),
    classes, whether the exact counts held, and the process's peak RSS as
    the timed work ends."""
    from dmcensus import build_census, compare_census, oracle_census
    from dmcensus.canonical import clear_cache
    from dmcensus.generate import _canonical_rows, class_count, count_regular_matrices

    def work():  # (classes, whether the counts held, the oracle's report)
        if kind == "build":
            return len(build_census(p, d).entries), True, None  # raises if a count is off
        if kind == "oracle":
            report = oracle_census(p, d)
            return len(report.entries), None, report
        classes = labeled = 0
        for _, result in _canonical_rows(p, d):
            classes += 1
            labeled += math.factorial(p) // result.aut_order
        exact = (classes, labeled) == (class_count(p, d), count_regular_matrices(p, d))
        return classes, exact, None

    done = []
    clear_cache()
    start = time.process_time()
    scaled_s = timed(lambda: done.append(work()))[1]
    cpu_s = time.process_time() - start
    (classes, exact, report), = done
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if kind == "oracle":
        exact = not compare_census(report, build_census(p, d))
    return {"kind": kind, "p": p, "d": d, "classes": classes, "exact": exact, "cpu_s": cpu_s,
            "scaled_s": scaled_s, "peak_rss_mib": peak_rss_mib}


def measure_in_child(kind: str, p: int, d: int) -> dict:
    """measure(kind, p, d) in a fresh interpreter, on this process's CPUs."""
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            f"from time_builds import measure; print(json.dumps(measure({kind!r}, {p}, {d})))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def measure_startup(runs: int = RUNS) -> dict:
    """Wall seconds of a bare interpreter, of importing dmcensus and loading its
    catalog, and of `render --class 5,85`, each in fresh interpreters on this
    process's CPUs; and the modules the import added."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    commands = {"bare_s": ["-c", "pass"], "import_s": ["-c", IMPORT],
                "render_s": ["-m", "dmcensus", "render", "--class", "5,85"]}
    times: dict[str, list[float]] = {name: [] for name in commands}
    for _ in range(runs):
        for name, args in commands.items():
            start = time.perf_counter()
            done = subprocess.run([sys.executable, *args], env=env, check=True,
                                  capture_output=True, text=True)
            times[name].append(time.perf_counter() - start)
            if name == "import_s":
                added = [m for m in done.stdout.split() if not m.startswith("dmcensus")]
    medians = {f"{name}.median": statistics.median(t) for name, t in times.items()}
    return {"kind": "startup", **times, **medians,
            "import_over_bare_s": medians["import_s.median"] - medians["bare_s.median"],
            "modules_added": added, "heavy_modules": [m for m in added if m in HEAVY]}


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
    startup = measure_startup()
    print(f"startup: import over bare {startup['import_over_bare_s'] * 1000:.1f} ms, "
          f"render --class 5,85 median {startup['render_s.median']:.3f} s, "
          f"heavy modules {startup['heavy_modules']}", flush=True)
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
    args.out.write_text(json.dumps({**header, "startup": startup, "sizes": records},
                                   indent=1) + "\n")
    return 0 if all(record["exact"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
