"""Host-speed calibration: host seconds to reference-host seconds.

The host the benchmark was written on (2 CPUs, shared with other
tenants) changes speed by +-20 % within seconds, more than the changes
the benchmark must resolve.  Every timed interval is therefore scaled by
how fast a fixed pure-Python loop ran around and during it.
"""

from __future__ import annotations

import os
import platform
import signal
import statistics
import time

#: The calibration loop: iterations, tries (the fastest counts), and its
#: time on the reference host (a 2-CPU container running CPython 3.11).
CALIBRATION_ITERATIONS = 30_000
CALIBRATION_TRIES = 3
REFERENCE_CALIBRATION_S = 0.0025
#: In-op speed samples: a loop of this many iterations every interval.
SAMPLE_ITERATIONS = 3_000
SAMPLE_INTERVAL_S = 0.05


def _loop_s(iterations: int) -> float:
    started = time.perf_counter()
    total = 0
    for value in range(iterations):
        total += value * value % 7
    return time.perf_counter() - started


def calibration_s() -> float:
    """Host seconds of the calibration loop.

    The fastest of three tries: a try the scheduler interrupts reads
    several times slower and would skew the scaling of a whole op.
    """
    return min(_loop_s(CALIBRATION_ITERATIONS) for _ in range(CALIBRATION_TRIES))


class SpeedSampler:
    """Samples the host's speed while an op runs.

    Every ``SAMPLE_INTERVAL_S`` a timer signal runs a short loop and
    records its time, scaled to the full calibration loop.  The handler
    does nothing else, and the time it spends is kept so the op's time
    can exclude it.  Fork children do not inherit the timer.
    """

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self.spent_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, _signum, _frame) -> None:
        started = time.perf_counter()
        self.samples.append(
            _loop_s(SAMPLE_ITERATIONS) * CALIBRATION_ITERATIONS / SAMPLE_ITERATIONS
        )
        self.spent_s += time.perf_counter() - started


class ReferenceClock:
    """Converts host seconds to reference-host seconds.

    The calibration loop is timed before and after every timed interval,
    and sampled during it (:class:`SpeedSampler`); the interval is scaled
    by ``REFERENCE_CALIBRATION_S`` over the median of those times.  The
    result is the time the interval would take on a host where the loop
    takes the reference time.
    """

    def __init__(self):
        self._last = calibration_s()
        self.samples = [self._last]

    def scale(self, host_s: float, samples=()) -> float:
        now = calibration_s()
        self.samples.append(now)
        speed = statistics.median([self._last, now, *samples])
        self._last = now
        return host_s * REFERENCE_CALIBRATION_S / speed

    def fingerprint(self) -> dict:
        """Python version, CPU count and the calibration loop's time."""
        median = statistics.median(self.samples)
        return {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "calibration_loop_ms": round(median * 1e3, 4),
            "calibration_loop_spread": round(
                (max(self.samples) - min(self.samples)) / median, 4
            ),
        }
