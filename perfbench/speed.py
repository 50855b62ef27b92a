"""Host-speed sampling, so that contention on a shared host does not read
as a change in the program.

On a shared machine the same pass can take 1.5x longer in one minute
than in the next, for reasons outside the program.  :class:`SpeedSampler`
times a fixed pure-Python calibration loop just before the measured
window, every :data:`PERIOD_S` inside it (from a ``SIGALRM`` handler, on
the same core and at the same moments as the program's own work) and
just after it.  The measured window minus the handler's own time, scaled
by the mean host speed relative to :data:`REFERENCE_S`, is the pass's
wall time at reference speed: ``wall_norm_s``.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Iterations of the calibration loop: about 3 ms of dict, str and list
#: work, the same kind of interpreter work the program does.
CALIBRATION_LOOPS = 4000

#: Duration of one calibration loop on the reference host (2-vCPU Xeon
#: VM, CPython 3.11, quiet): host speed 1.0.
REFERENCE_S = 0.003

#: Sampling period inside the measured window; costs about 3%.
PERIOD_S = 0.1


def calibrate() -> float:
    """Seconds one run of the fixed calibration loop takes right now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CALIBRATION_LOOPS):
        key = (i * 7919) % 4099
        table[key] = table.get(key, 0) + i
        _ = [char for char in str(key)]
    return time.perf_counter() - start


class SpeedSampler:
    """Calibration samples around and inside one measured window."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Time spent in the handler inside the window (not program time).
        self.ticked_s = 0.0
        self._previous = None

    def sample(self) -> None:
        """Take a sample outside the measured window."""
        self.samples.append(calibrate())

    def _tick(self, signum, frame) -> None:
        """Take a sample inside the window, counted in :attr:`ticked_s`."""
        start = time.perf_counter()
        self.sample()
        self.ticked_s += time.perf_counter() - start

    def arm(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean host speed over the samples (1.0 = reference host)."""
        return statistics.fmean(REFERENCE_S / sample
                                for sample in self.samples)
