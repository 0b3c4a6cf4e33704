"""Host-speed sampling: how fast this host runs Python while a pass runs.

The benchmark's hosts are shared virtual machines whose speed changes
from one second to the next (a neighbour's load can make the same pass
1.5-1.7x slower for a few seconds).  A pass alone cannot tell a slower
program from a slower host, so :class:`HostSpeed` samples the host while
the pass runs: every ``PERIOD`` seconds a ``SIGALRM`` handler times
:func:`probe`, a fixed pure-Python loop that shares no code with the
program.  The mean probe time over a pass is the host's average slowness
during it, and the pass's timings are scaled by

    factor = REFERENCE_PROBE_S / mean probe time

into *reference seconds*: the time the pass would have taken had the
host run the probe at its recorded speed.  A slower program makes the
pass longer but not the probe, so it still shows in full.

The probe allocates no containers, so it neither triggers the program's
garbage collector nor is slowed by it.  A sample more than
``PREEMPTED`` times the median was descheduled mid-probe (with two sweep
workers busy on two CPUs the sampling process waits for a turn); it says
nothing about the host's speed and is left out.  Sampling costs about 1%
of a pass; that share is the same on a fast and a slow host, so it is
left in.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between samples.
PERIOD = 0.05
#: Samples longer than this many medians are preemptions, not slowness
#: (the host's slow state makes the probe 1.5-1.7x slower).
PREEMPTED = 2.5
#: The probe's mean time inside passes on the recorded machine
#: (RECORD.json ``env``) while its host was quiet: 160 s of paper_replay
#: passes.  Back to back, with warm caches, the probe takes about 0.29 ms.
REFERENCE_PROBE_S = 0.000425

_TABLE = {i: i * 7 for i in range(64)}


def probe(rounds: int = 3000) -> int:
    """A fixed pure-Python loop of dict reads, writes and integer
    arithmetic (about 0.4 ms)."""
    table = _TABLE
    acc = 0
    for i in range(rounds):
        k = i & 63
        acc += table[k]
        table[k] = acc & 1023
    return acc


class HostSpeed:
    """Samples :func:`probe` every ``PERIOD`` seconds inside a ``with``
    block (main thread only), then gives the block's scaling factor."""

    def __init__(self, period: float = PERIOD, timer=time.perf_counter) -> None:
        self.period = period
        self.timer = timer
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = self.timer()
        probe()
        self.samples.append(self.timer() - start)

    def __enter__(self) -> "HostSpeed":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than one period
            self._sample(None, None)

    @property
    def factor(self) -> float:
        """Reference seconds per host second over the block."""
        cap = PREEMPTED * statistics.median(self.samples)
        kept = [sample for sample in self.samples if sample <= cap]
        return REFERENCE_PROBE_S * len(kept) / sum(kept)
