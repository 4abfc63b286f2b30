"""Host speed probe: corrects timings for the machine's changing speed.

On a shared machine the speed of the benchmark's core drifts by 10-30 %
over seconds to minutes, as neighbours come and go.  That drift is the
same for both commits being compared, but it makes one run differ from
the next by more than the changes the benchmark is meant to see.

``SpeedProbe`` samples the speed with a fixed piece of work (a Python
loop over numpy scalars, the same kind of work as obd's kernels without
numba) every INTERVAL_S of wall time, from a SIGALRM handler, so that it
also samples the middle of long requests.  Time spent probing is left out
of the clock that times requests.  A timing is then reported at reference
speed: multiplied by ``NOMINAL_S / mean probe time`` over the samples
taken during it, or over the NEAREST samples when it holds fewer (speed
changes within a second, so a pass-wide mean would misjudge short
requests).  The probe does not touch obd, so no change to obd can move
it.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.25
NOMINAL_S = 0.005  # probe time that defines reference speed
MIN_SAMPLES = 8  # fewer samples than this leave a set-up uncorrected
NEAREST = 8  # samples used to scale a request that holds fewer
_DATA = np.arange(600, dtype=np.int64)


def _probe_work() -> int:
    acc = 0
    for _ in range(48):
        for i in range(0, _DATA.size, 2):
            acc += int(_DATA[i]) * 3 % 7
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.stamps: list[float] = []  # clock() at the start of each sample
        self.spent_ns = 0  # wall time spent inside probes, handler included
        self._busy = False

    def probe(self):
        if self._busy:  # the alarm fired during a probe called directly
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        self.stamps.append(t0 * 1e-9 - self.spent_ns * 1e-9)
        _probe_work()
        t1 = time.perf_counter_ns()
        self.samples.append((t1 - t0) * 1e-9)
        self.spent_ns += time.perf_counter_ns() - t0
        self._busy = False

    def clock(self) -> float:
        """perf_counter that stands still while the probe runs."""
        return time.perf_counter() - self.spent_ns * 1e-9

    def clock_ns(self) -> int:
        return time.perf_counter_ns() - self.spent_ns

    def _on_alarm(self, signum, frame):
        self.probe()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int) -> float:
        """NOMINAL_S / mean probe time since the mark; takes one more
        sample, so an interval with none still gets a factor."""
        self.probe()
        recent = self.samples[since:]
        return NOMINAL_S * len(recent) / sum(recent)

    def scale_requests(self, requests) -> list[float]:
        """Request times at reference speed.

        ``requests`` are (start, duration) pairs on ``clock``.  Each is
        scaled by the samples taken while it ran, or by the NEAREST samples
        to its midpoint when it holds fewer.
        """
        stamps, samples = self.stamps, self.samples
        out = []
        for start, duration in requests:
            lo = bisect.bisect_left(stamps, start)
            hi = bisect.bisect_right(stamps, start + duration)
            if hi - lo < NEAREST:
                mid = start + duration / 2
                lo = hi = bisect.bisect_left(stamps, mid)
                while hi - lo < NEAREST and (lo > 0 or hi < len(stamps)):
                    if hi == len(stamps) or (
                            lo > 0 and mid - stamps[lo - 1] < stamps[hi] - mid):
                        lo -= 1
                    else:
                        hi += 1
            out.append(duration * NOMINAL_S * (hi - lo) / sum(samples[lo:hi]))
        return out
