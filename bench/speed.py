"""Host-speed probe: scales measured times to a fixed reference speed.

The host this benchmark runs on is shared.  Its single-thread speed
swings by up to 2x from one second to the next, and the share of slow
seconds drifts over minutes, so raw times of the same code differ from
run to run by more than any bound a change could be judged by.

While a run is measured, a timer interrupts the main thread every
PERIOD_S seconds and runs a probe: a fixed loop of dict, tuple and
integer work, the kind of work shiftforge's hot paths do.  The probe is
benchmark code, so no change to shiftforge can speed it up.  Its thread
CPU time is recorded, so time the thread spends waiting (for pool
workers, say) does not count as slowness.  A timed stretch is then
reported twice:

- raw: wall seconds, minus the time spent in probes;
- scaled: raw seconds times PROBE_S over the mean probe time during the
  stretch, that is, seconds on a host where one probe takes PROBE_S.

A few probes also run right after each stretch, so that a stretch
shorter than PERIOD_S still has samples.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, thread_time

PERIOD_S = 0.05
# nominal CPU seconds of one probe: defines the reference speed
PROBE_S = 0.001
AFTER = 3


def _probe_work():
    d = {}
    for i in range(2500):
        key = (i % 53, i % 7)
        d[key] = (d.get(key, 0) + i * 7) % 1009
    return d


class SpeedProbe:
    """Context manager: samples the host speed while it is entered."""

    def __init__(self):
        self.cpu = []       # thread CPU seconds of each probe
        self.wall = 0.0     # wall seconds spent in probes, all told
        self._busy = False
        self._previous = None

    def sample(self, *_):
        if self._busy:      # the timer fired during an explicit probe
            return
        self._busy = True
        w0, c0 = perf_counter(), thread_time()
        _probe_work()
        self.cpu.append(thread_time() - c0)
        self.wall += perf_counter() - w0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self):
        """Start a timed stretch; returns its mark."""
        return perf_counter(), len(self.cpu), self.wall

    def stop(self, mark):
        """End the stretch begun at `mark`: (raw seconds, scaled seconds,
        mean probe CPU seconds)."""
        t0, n0, wall0 = mark
        raw = perf_counter() - t0 - (self.wall - wall0)
        for _ in range(AFTER):
            self.sample()
        probe = statistics.fmean(self.cpu[n0:])
        return raw, raw * PROBE_S / probe, probe
