"""How fast the machine runs right now, from a fixed probe kernel.

On a shared host the processor runs up to about twice as slow for seconds to
minutes at a time, whatever the measured process does. Raw times then move
far more than the changes the benchmark must catch. Every benchmark time is
therefore reported at nominal speed: its wall time multiplied by NOMINAL_STEP_S
over the probe's mean time per step around and during it.

The probe is a fixed mix of interpreter work and small numpy calls, like
padvio's inner loops, and is independent of padvio. Each probe first runs a
few steps untimed, so the timed steps do not pay for caches the measured
code left cold, and holds off garbage collection, so the time does not depend
on the program's heap. While a measurement is open, a timer signal runs one
probe every SAMPLE_INTERVAL_S seconds, so that the speed of short stretches
inside an operation counts too. The time those probes take is recorded so the
caller can take it out of the measured wall time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

WARM_STEPS = 30
PROBE_STEPS = 100
NOMINAL_STEP_S = 5.4e-6  # probe time per step on an uncontended 2.1 GHz x86-64 core
SAMPLE_INTERVAL_S = 0.02
_TURN = ((1.0, 1e-3, 0.0), (-1e-3, 1.0, 0.0), (0.0, 0.0, 1.0))


def _steps(count: int) -> float:
    a, v, s = np.eye(3), np.arange(3.0), 0.0
    for i in range(count):
        a = a @ np.array(_TURN)
        v = np.concatenate([v[1:], v[:1]]) + 1e-3
        s += float(np.linalg.norm(v)) * 0.5 + i % 7
    return s


def probe() -> float:
    """Seconds per probe step, measured now."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        _steps(WARM_STEPS)
        t0 = time.perf_counter()
        _steps(PROBE_STEPS)
        return (time.perf_counter() - t0) / PROBE_STEPS
    finally:
        if collecting:
            gc.enable()


class Speedometer:
    """Measures the machine's speed over an interval: probes at both ends and
    every SAMPLE_INTERVAL_S seconds in between. After a `measuring()` block,
    `speed` is nominal over measured probe time for that block and
    `probing_s` is the wall time the probes inside the block took."""

    def __init__(self) -> None:
        self.samples = []
        self.speed = 1.0
        self.probing_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.probing_s += time.perf_counter() - t0

    @contextmanager
    def measuring(self):
        self.samples = [probe()]
        self.probing_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.samples.append(probe())
            self.speed = NOMINAL_STEP_S / statistics.fmean(self.samples)
