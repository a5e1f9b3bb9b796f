"""Host speed probe: reads wall time at a fixed reference processor speed.

The processor this benchmark shares changes speed from one moment to the
next as other tenants load the host: a fixed piece of pure-Python work
takes 1.2 ms at one moment and 2.1 ms the next, in bursts of tens of
milliseconds, and process CPU time moves with wall time.  Raw wall time
then measures the neighbours as much as the package.

While a timed pass runs, an interval timer (SIGALRM, every `INTERVAL_S`)
interrupts the main thread between bytecodes and the handler times a fixed
probe kernel.  A stretch of wall time [t0, t1) is then read as

    (t1 - t0 - probe time inside it) * mean(REFERENCE_S / probe time)

over the probes inside it plus the one just before and just after: the
seconds the stretch would have taken at the speed at which the kernel
takes `REFERENCE_S`.  The mean is over speed (the reciprocal of probe
time), because speed is what averages over wall time.  The kernel is plain
interpreter work of the kind the package does (calls, tuples, dict
lookups) and lives here, so a change to the package does not move it.
"""

import signal
import time
from array import array
from bisect import bisect_left

INTERVAL_S = 0.005
# Probe kernel time at the host's full speed (Intel Xeon, 2.1 GHz, Python
# 3.11): the 5th percentile of probe times over half a minute of probing.
REFERENCE_S = 4.8e-5


def _step(acc, inc):
    return tuple(a + b for a, b in zip(acc, inc))


def probe_kernel():
    seen = {}
    acc = (0, 0)
    for i in range(48):
        acc = _step(acc, (i & 3, 1))
        key = (acc[0] & 15, i & 7)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


class SpeedProbe:
    """Probe times, started and stopped around each timed stretch."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._saved = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        probe_kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)

    def start(self):
        """Forget earlier probes and probe until `stop`."""
        self.at = array("d")
        self.took = array("d")
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def stretch(self, t0, t1):
        """(probe seconds inside [t0, t1), mean reference speed around it)."""
        lo = bisect_left(self.at, t0)
        hi = bisect_left(self.at, t1)
        window = self.took[max(lo - 1, 0) : hi + 1]
        if not window:
            return 0.0, 1.0
        return sum(self.took[lo:hi]), sum(REFERENCE_S / d for d in window) / len(window)

    def adjusted(self, t0, t1):
        """Seconds [t0, t1) would take at the reference speed, probes excluded."""
        busy, speed = self.stretch(t0, t1)
        return (t1 - t0 - busy) * speed
