"""A speed probe that puts run times on one scale when the machine's speed drifts.

On a shared host a core's speed changes with what the neighbours run: in ten
back-to-back kernel-build passes on 2 shared vCPUs, raw wall time ranged from
16.3 s to 27.2 s, in slow and fast phases lasting from seconds to minutes.
A ``Probe`` samples that speed from inside the measured process: every
``PERIOD_S`` a SIGALRM handler times a fixed loop, half pure-Python arithmetic
and half small NumPy calls, the mix of interpreter and library work the
workloads do.  (Across one slow and one fast phase, a pure-Python loop
alone under-corrected el-solve and kernel-build by 5-8%, and NumPy calls
alone over-corrected them by 5-6%.)  ``scaled`` converts a wall-clock interval to
seconds at the reference speed (the loop taking ``REF_S``), excluding the
probe's own time.  The handler runs between bytecodes of the main thread, so
no thread or process competes with the measured work; the probe costs about
0.7% of the run.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PY_LOOPS = 6_000
NP_LOOPS = 150
# about the loop's fastest time on the machine the bounds in BENCHMARK.json
# were set on (Xeon, 2 shared vCPUs); only the scale of the results depends on it
REF_S = 6.0e-4
PERIOD_S = 0.1
_A = np.linspace(0.1, 1.0, 64)
_B = _A[::-1].copy()


class Probe:
    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self, *_signal_args) -> None:
        t0 = self.clock()
        acc = 0
        for k in range(PY_LOOPS):
            acc += k * k
        for k in range(NP_LOOPS):
            acc += float(np.dot(_A, np.exp(-_A * _B)))
        self.starts.append(t0)
        self.durations.append(self.clock() - t0)

    def start(self) -> None:
        self.sample()       # so there is always a sample to scale by
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds that [t0, t1] minus the probe's own time take at reference speed.

        The speed is the mean of REF_S / duration over the samples taken in
        the interval, or of the sample nearest to it when it holds none.
        """
        inside = [d for s, d in zip(self.starts, self.durations) if t0 <= s < t1]
        if inside:
            speeds = [REF_S / d for d in inside]
        else:
            nearest = min(range(len(self.starts)),
                          key=lambda i: abs(self.starts[i] - t0))
            speeds = [REF_S / self.durations[nearest]]
        return (t1 - t0 - sum(inside)) * statistics.fmean(speeds)
