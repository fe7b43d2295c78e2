"""A fixed pure-Python reference loop that measures the host's speed.

Shared hosts drift: the same simulation can take nearly twice as long a
few minutes later, and CPU time drifts with wall time, so neither can be
trusted across runs on its own. :class:`HostClock` times a fixed loop of
dictionary updates at random keys of a table of tens of megabytes, far
larger than the per-core caches, without importing any of the program's
code, so no change to the program can change it. The simulated
workloads sample it after every run they time and report host time
scaled to :data:`REFERENCE_S`, the loop's time on the host where the
baseline was recorded: on a host running at half speed both the run and
the loop take twice as long, and the scaled time stays put.

The loop is memory-bound because the simulations are: their state is tens
of megabytes of small objects. On repeated runs of one simulation, a
cache-resident loop (a heap of timestamped generator resumes) left the
spread of the scaled times at 16–18% on ``closed_wan`` and doubled it to
23–26% on ``popn_zipf``, while this loop cut it to 9–12% on all three
simulated workloads, from 11–21% unscaled. Over whole benchmark runs it
kept the spread of ``host_txns_per_s`` over ten seeds at 6–17%, against
16–36% unscaled in the same runs; ``README.md`` has the figures.

The host's speed also flickers within a second, so each run is scaled by
the median of the samples taken just before and just after it.
"""

import random
import time

#: seconds one sample takes on the baseline host (Intel Xeon, Python 3.11)
REFERENCE_S = 0.0166

_TABLE_SIZE = 300_000
_LOOKUPS = 30_000
_SAMPLES = 3        # samples of the loop after each timed run


class HostClock:
    """Samples the host's speed between timed runs."""

    def __init__(self):
        rng = random.Random(12345)
        # int values keep the table out of the garbage collector's sight,
        # so it does not slow the collections the simulations trigger
        self._table = dict.fromkeys(range(_TABLE_SIZE), 1 << 40)
        self._keys = [rng.randrange(_TABLE_SIZE) for _ in range(_LOOKUPS)]
        self._last = self._sample()

    def reference_seconds(self):
        """Run the reference loop once; returns its wall seconds."""
        table = self._table
        start = time.perf_counter()
        for key in self._keys:
            table[key] += 1
        return time.perf_counter() - start

    def _sample(self):
        return [self.reference_seconds() for _ in range(_SAMPLES)]

    def tick(self):
        """Call right after each timed run; returns the factor turning its
        host seconds into reference-host seconds."""
        now = self._sample()
        around = sorted(self._last + now)
        self._last = now
        middle = len(around) // 2
        return 2.0 * REFERENCE_S / (around[middle - 1] + around[middle])
