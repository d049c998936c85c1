"""Host-speed sampling: rescale a wall time to a fixed reference speed.

On a shared host the machine itself changes speed: other tenants' load slows
this process by up to 1.8x, for seconds to many minutes at a time, while CPU
time tracks wall time (the process is not descheduled, its core runs slower).
A timer therefore interrupts the measured work every PERIOD seconds and times
a fixed pure-Python probe.  The probe's rate, averaged over the interval,
says how fast the host ran during the work, so

    scaled time = (wall time - time spent in probes) * mean(PROBE_REF_S / probe time)

is the time the work would have taken at the reference speed: the probe
takes PROBE_REF_S seconds on an unloaded core of the 2.1 GHz Xeon the
benchmark was tuned on, so on such a core scaled and wall times agree.  A
faster program lowers the scaled time as much as the wall time; a slower
host does not.  Child processes run on the benchmark's own CPU (see pin()),
so the probe times the core they run on.
"""

from __future__ import annotations

import os
import signal
import time

PERIOD = 0.01  # seconds between probes: about 50 probes per 0.5 s of work
PROBE_REF_S = 42e-6  # the probe's time, interrupting work, on an unloaded core

_KEYS = tuple((a, a * 7 % 13) for a in range(64))


def probe() -> int:
    """About 40 us of dict, tuple and integer work, the census code's own mix."""
    table: dict[int, int] = {}
    for _ in range(4):
        for a, b in _KEYS:
            pair = (b, a) if a & 1 else (a, b)
            table[pair[0] % 11] = table.get(pair[0] % 11, 0) + pair[1]
    return len(table)


def pin() -> None:
    """Run this process, and the children it starts, on one of its CPUs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def timed(fn) -> tuple[float, float]:
    """Run fn() while probing every PERIOD seconds; return its wall and scaled
    seconds, both without the probes' own time."""
    samples: list[float] = []

    def tick(signum, frame):
        start = time.perf_counter()
        probe()
        samples.append(time.perf_counter() - start)

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
    try:
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall -= sum(samples)
    if not samples:  # shorter than one PERIOD: nothing to scale by
        return wall, wall
    return wall, wall * sum(PROBE_REF_S / s for s in samples) / len(samples)
