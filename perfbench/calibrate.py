"""Times expressed at a fixed machine speed.

The machine the benchmark was made on drifts: a fixed pure-Python loop runs
up to 1.5 times slower in some phases than in others, process CPU time drifts
the same way as wall time, and a phase can outlast a whole run.  So every
timed stretch is bracketed by probes of fixed work that depends on nothing in
the package, and its measured time is divided by the slowdown of the probes
around it:

    reported = measured * ref / mean(probe before, probe after)

A change to the program moves `reported`; a slow phase of the machine moves
`measured` and the probes alike and leaves `reported` about where it was.

A probe must do the kind of work it calibrates.  `IN_PROCESS` times the
reference work in the process that runs the operations.  `SPAWN` times a
fresh interpreter that does the reference work and exits; it calibrates
whatever starts a process (set-up, one command per process), since process
start-up drifts less than pure-Python work does.

    python calibrate.py     # the process that SPAWN times
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

# Probe again once this many seconds of operations have been timed.
PROBE_EVERY = 0.25


def _reference_work() -> int:
    """Pure-Python work of the kinds the package does: Fraction arithmetic and
    comparisons, wide-int bit operations, dicts and sorting."""
    half = Fraction(1, 2)
    below = 0
    table = {}
    bits = 0
    for i in range(1, 7000):
        f = Fraction(i, i + 7) - Fraction(1, i % 11 + 2)
        if f < half:
            below += 1
        table[(i, i & 7)] = i
        bits ^= i << (i % 200)
    kept = [table[k] for k in table if k[1] & 1]
    kept.sort(reverse=True)
    return below + bits.bit_length() + len(kept)


def _in_process() -> float:
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def _spawn() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True)
    return time.perf_counter() - start


class Probe:
    """A probe and what it takes at the reference speed, in seconds.  The
    references are the probes' typical times on the 2-core box the benchmark
    was made on; only ratios between runs matter, so they stay fixed."""

    def __init__(self, measure, ref_s: float):
        self.measure = measure
        self.ref_s = ref_s

    def at_reference(self, measured: float, before: float, after: float) -> float:
        return measured * self.ref_s / ((before + after) / 2)


IN_PROCESS = Probe(_in_process, 0.045)
SPAWN = Probe(_spawn, 0.125)


class Timer:
    """Collects measured times of consecutive operations, probing the machine
    before the first, after the last, and whenever PROBE_EVERY seconds of
    operations have passed since the last probe."""

    def __init__(self, probe: Probe = IN_PROCESS):
        self.probe = probe
        self.probes = [probe.measure()]
        self.raw: list[float] = []
        self.times: list[float] = []
        self._chunk: list[int] = []
        self._since = 0.0

    def add(self, elapsed: float) -> None:
        self.raw.append(elapsed)
        self._chunk.append(len(self.probes) - 1)
        self._since += elapsed
        if self._since >= PROBE_EVERY:
            self.probes.append(self.probe.measure())
            self._since = 0.0

    def finish(self) -> list[float]:
        """Probe after the last operation; returns and keeps in `times` the
        operations' times at the reference speed."""
        if self._chunk and self._chunk[-1] == len(self.probes) - 1:
            self.probes.append(self.probe.measure())
        self.times = [self.probe.at_reference(t, self.probes[c], self.probes[c + 1])
                      for t, c in zip(self.raw, self._chunk)]
        return self.times


if __name__ == "__main__":
    _reference_work()
