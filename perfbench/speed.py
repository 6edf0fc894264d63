"""Machine-speed calibration for steadier timings on a shared machine.

On a shared 2-vCPU machine the same pure-Python loop runs anywhere from
0.7x to 1.3x its usual time, in spells of a few seconds to a minute, so
raw wall times of one workload differ by 10-20% between runs.  The
benchmark therefore samples a fixed calibration loop every
``INTERVAL`` seconds while it times (from a SIGALRM handler in the one
benchmark thread; the handler's own time is taken out of every
operation) and reports

    wall time x mean over the samples of (REF_S / sample time)

that is, the seconds the same work would take at the reference speed at
which one calibration sample takes ``REF_S``.  A change to the program
does not touch the loop, so it moves these times as it moves wall time.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

# one calibration sample takes this long at the reference speed (about the
# median speed of a shared 2.1 GHz vCPU under Python 3.11)
REF_S = 0.0042
INTERVAL = 0.2
_LOOPS = 27000


def calibration_sample() -> float:
    """Seconds one fixed loop of integer arithmetic and dict stores takes."""
    start = time.perf_counter()
    x = 0
    table = {}
    for k in range(_LOOPS):
        x += k * k % 7
        table[k & 511] = x
    return time.perf_counter() - start


class SpeedSampler:
    """Calibration samples taken on a timer while the benchmark runs.

    ``spent`` is the total time the samples took; callers subtract the
    part that fell inside an operation from its wall time.
    """

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, calibration_sample()))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Mean speed relative to the reference over [start, end]."""
        speeds = [REF_S / d for t, d in self.samples if start <= t <= end]
        if not speeds:
            speeds = [REF_S / calibration_sample()]
        return sum(speeds) / len(speeds)
