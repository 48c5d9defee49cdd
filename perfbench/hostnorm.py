"""Host-speed normalization for wall-clock timings.

A shared 2-vCPU host changes speed under the benchmark: an identical
pure-Python loop can run 1.7x faster in one five-second block than in the
next.  Raw wall-clock numbers therefore cannot repeat within a tenth.  This
module measures the host's current speed with a *reference kernel* and
rescales every timing to a nominal host:

    normalized = raw * NOMINAL_REF_MS / local_ref

where ``local_ref`` is the median duration of the reference samples taken
nearest in time to the timing.  The kernel is a fixed pure-Python integer
loop: it imports nothing from the code under test, allocates no reference
cycles, and runs with the garbage collector paused, so its duration moves
only with the host.  Workloads call :meth:`HostClock.maybe_sample` between
operations (never inside one), about every :data:`REF_INTERVAL_S`, and
:meth:`HostClock.burst` while the host is idle around each set-up
repetition.  Time spent in samples taken inside a timed interval is
subtracted from it, and the samples cut the interval into pieces that
are each scaled on their own.

Raw values are kept next to every normalized one so the scaling can be
audited.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

__all__ = ["BURST", "HostClock", "NOMINAL_REF_MS", "REF_INTERVAL_S", "reference_kernel"]

#: Duration of one reference sample on the nominal host, in milliseconds.
#: Normalized timings read as if every sample had taken exactly this long.
NOMINAL_REF_MS = 4.0

#: Seconds between reference samples while a workload runs.
REF_INTERVAL_S = 0.1

#: Reference samples whose median scales one timing.
NEIGHBOURS = 5

#: Back-to-back samples of one :meth:`HostClock.burst`.
BURST = 5

#: Loop iterations of one reference sample.
ROUNDS = 20_000

_TABLE = tuple((index * 2654435761) & 0xFFFF for index in range(1024))
_PROBES = {index: (index * 40503) & 0xFFFF for index in range(256)}


def reference_kernel(rounds: int = ROUNDS) -> int:
    """A fixed mix of integer arithmetic, tuple indexing and dict probes.

    Only small ints are created, so the loop allocates no containers and no
    cycles; the result is returned so the work cannot be skipped.
    """
    acc = 0
    table = _TABLE
    probes = _PROBES
    for index in range(rounds):
        acc = (acc * 31 + table[index & 1023] + probes[acc & 255]) & 0xFFFFFFFF
        if acc & 1:
            acc ^= index
    return acc


class HostClock:
    """Reference samples of one run, and the scaling they imply.

    Timestamps are ``time.perf_counter()`` values.  Normalization happens
    after the measured phase, when samples on both sides of every timing
    exist.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []  # ascending; samples never overlap
        self.ends: list[float] = []
        self.times: list[float] = []  # sample mid-points
        self.durations_ms: list[float] = []

    def sample(self) -> float:
        """Run the reference kernel once with gc paused; returns its ms."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.times.append((start + end) / 2)
        self.durations_ms.append((end - start) * 1e3)
        return self.durations_ms[-1]

    def burst(self, count: int = BURST) -> None:
        """``count`` samples back to back, for a stretch with no nearby ones."""
        for _ in range(count):
            self.sample()

    def maybe_sample(self) -> None:
        """Sample if :data:`REF_INTERVAL_S` has passed since the last one."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= REF_INTERVAL_S:
            self.sample()

    def sampled_within(self, start: float, end: float) -> float:
        """Seconds spent in the samples that lie inside ``[start, end]``."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        return sum(self.ends[i] - self.starts[i] for i in range(first, last))

    def local_ref_ms(self, at: float) -> float:
        """Median duration of the :data:`NEIGHBOURS` samples nearest ``at``."""
        if not self.times:
            raise RuntimeError("no reference samples were taken")
        index = bisect.bisect_left(self.times, at)
        low = max(0, index - NEIGHBOURS)
        window = range(low, min(len(self.times), index + NEIGHBOURS))
        nearest = sorted(window, key=lambda i: abs(self.times[i] - at))[:NEIGHBOURS]
        return statistics.median(self.durations_ms[i] for i in nearest)

    def scale(self, at: float) -> float:
        """The factor that maps a raw timing taken at ``at`` to the nominal host."""
        return NOMINAL_REF_MS / self.local_ref_ms(at)

    def normalize(self, start: float, end: float) -> float:
        """Normalized seconds of ``[start, end]``, less the samples inside it.

        Samples inside the interval cut it into pieces, and each piece is
        scaled at its own midpoint, so a long set-up step follows the host
        through speed changes as finely as the samples allow.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        total = 0.0
        at = start
        for index in range(first, last):
            total += (self.starts[index] - at) * self.scale((at + self.starts[index]) / 2)
            at = self.ends[index]
        return total + (end - at) * self.scale((at + end) / 2)

    def ref_ms(self) -> float:
        """The run's median reference sample: the host speed it saw."""
        return statistics.median(self.durations_ms)
