"""The machine's speed, sampled by a fixed computation the program never runs.

This machine's speed moves by up to a half in phases that last from a
fraction of a second to minutes (README, "This machine"), and a run as
long as the benchmark can afford does not average that out.  So while a
run is measured, a timer interrupts it every SAMPLE_EVERY_S and times a
reference computation.  The reference is the benchmark's own code on
inputs no seed changes; its work is of the program's kind: membership by
divisibility over an exponent box, and an exhaustive interval-partition
search, both pure Python on tuples and sets.

Every time is then read on a clock that runs at one nominal speed: the
wall time between two samples counts REFERENCE_S over the mean of the
two reference times, and the samples themselves count nothing.  The
program never runs the reference, so a change to the program moves the
scaled figures by the same share as the measured ones.
"""

from __future__ import annotations

import array
import bisect
import signal
import time

import checks

# four irreducible components of K[x1..x4], none inside another
_COMPONENTS = [{0: 2, 1: 1}, {1: 3, 2: 2}, {2: 1, 3: 3}, {0: 1, 3: 2}]
# minimal generators of their intersection
_GENERATORS = [(0, 1, 2, 2), (0, 3, 0, 3), (0, 3, 1, 2), (1, 1, 2, 0), (1, 3, 1, 0), (2, 0, 2, 0)]
# S/(x1*x2*x3): its Stanley depth is 2
_POINTS = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0)]
_CAPS = (1, 1, 1)

# time of one reference sample at the nominal speed
REFERENCE_S = 0.002
# wall time between two samples
SAMPLE_EVERY_S = 0.05


def reference_time() -> float:
    """Seconds the reference computation takes now."""
    start = time.perf_counter()
    checks.check_decomposition(_GENERATORS, _COMPONENTS, 4)
    checks.exhaustive_sdepth(_POINTS, _CAPS)
    return time.perf_counter() - start


class Clock:
    """Samples the speed while entered; afterwards maps two perf_counter
    readings taken inside the `with` block to the seconds between them.

    Between two samples lies a piece of the run's wall time.  A reading
    falls in exactly one piece, since a sample runs in a signal handler,
    between two bytecodes of the code it interrupts.
    """

    def __init__(self):
        self._starts = array.array("d")   # where each piece starts
        self._ends = array.array("d")     # where it ends: a sample begins
        self._refs = array.array("d")     # the reference time of that sample

    def _sample(self, signum=None, frame=None) -> None:
        self._ends.append(time.perf_counter())
        self._refs.append(reference_time())
        self._starts.append(time.perf_counter())
        if signum is not None:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        self._starts.append(time.perf_counter())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()      # closes the last piece
        self._starts.pop()  # no piece follows it
        refs = self._refs
        # nominal seconds per wall second in each piece, from its two samples
        self._nominal = self._scale([2 * REFERENCE_S / (refs[max(i - 1, 0)] + refs[i])
                                     for i in range(len(refs))])
        self._wall = self._scale([1.0] * len(refs))

    def _scale(self, rates: list) -> tuple:
        """Rates per piece and the scaled length of the pieces before each."""
        before = [0.0]
        for start, end, rate in zip(self._starts, self._ends, rates):
            before.append(before[-1] + (end - start) * rate)
        return rates, before

    def _read(self, t: float, scale: tuple) -> float:
        rates, before = scale
        i = max(bisect.bisect_right(self._starts, t) - 1, 0)
        inside = min(max(t - self._starts[i], 0.0), self._ends[i] - self._starts[i])
        return before[i] + inside * rates[i]

    def nominal(self, start: float, end: float) -> float:
        """Seconds at the nominal speed between two readings."""
        return self._read(end, self._nominal) - self._read(start, self._nominal)

    def wall(self, start: float, end: float) -> float:
        """Wall seconds between two readings, less the samples between them."""
        return self._read(end, self._wall) - self._read(start, self._wall)
