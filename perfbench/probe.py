"""Machine-speed probe: scales measured time to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed for the same
code swings by up to 2x within milliseconds, as other tenants come and go;
the mix of fast and slow moments drifts from minute to minute. The probe
samples that speed while the workload runs. A real-time interval timer
interrupts the worker every INTERVAL_S and the signal handler times
`kernel()`, a fixed pure-Python job that depends on nothing under `src/`.
Each sample gives the host's speed over the few milliseconds around it,
and the samples land uniformly in wall time, so the mean of 1/sample is the
host's speed averaged over the same moments the workload ran in.

    probe = Probe().start()
    ...                       # timed work
    seconds, wall, mean_sample = probe.scaled()
    probe.stop()

`wall` is the window's wall time minus the time spent in the probe.
`seconds` is that time at reference speed, where one `kernel()` call takes
REFERENCE_S: wall * REFERENCE_S * mean(1 / sample). `mean_sample` is the
harmonic mean of the samples.
"""

from __future__ import annotations

import copy
import signal
import statistics
import time

INTERVAL_S = 0.002
REFERENCE_S = 100e-6
# 60-160 us per call on a 2-core Xeon VM: short next to the host's fast and
# slow spells, which last a few milliseconds.
_DATA = {f"k{i}": {"values": [1.0] * 20, "meta": {"index": i}} for i in range(8)}


def kernel() -> None:
    copy.deepcopy(_DATA)


class Probe:
    """Samples kernel()'s duration every INTERVAL_S of wall time."""

    def __init__(self):
        self.samples: list[float] = []
        self._window = (0.0, 0)  # start time, first sample index

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self.mark()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> "Probe":
        """Opens a new window at this moment."""
        self._window = (time.perf_counter(), len(self.samples))
        return self

    def scaled(self) -> tuple[float, float, float]:
        """(reference seconds, wall seconds without the probe, harmonic
        mean sample in seconds) of the window opened by the last start() or
        mark()."""
        begin, first = self._window
        if len(self.samples) == first:  # a window shorter than INTERVAL_S
            self._sample(None, None)
        end = time.perf_counter()
        window = self.samples[first:]
        wall = end - begin - sum(window)
        mean = statistics.harmonic_mean(window)
        return wall * REFERENCE_S / mean, wall, mean
