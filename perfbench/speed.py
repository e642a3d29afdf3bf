"""Scaling measured times to a reference machine speed.

The 2-CPU hosts this benchmark was built on share their cores with other
tenants, and the speed of pure-Python code swings by 1.3x to 1.7x between
stretches of seconds to minutes (a fixed loop timed back to back for four
minutes: 20-second means differ by 22% between quartiles).  Within-run
medians or minima cannot remove a slow stretch that outlasts a run, so
the benchmark samples the current speed while it measures: a timer
signal runs a fixed stdlib loop, `probe_work`, every INTERVAL_S seconds.
A job's time is then its wall time minus the probes taken inside it,
times the mean of (REFERENCE_PROBE_S / probe time) ** SPEED_EXPONENT over
the probes around it.
The loop does what the library's hot loops do (tuples from generator
expressions, table lookups, dict counting) and never calls the library,
so a change to the library cannot change the probe.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.2
REFERENCE_PROBE_S = 0.002  # probe time that defines the reference speed
# The probe's speed swings more than the library's.  Scaled by the probe's
# speed itself, run times fell as the probe slowed (correlation -0.4 to
# -0.7 between runs, on every workload); with this exponent they were
# uncorrelated with it (|r| <= 0.25 over ten runs per workload).
SPEED_EXPONENT = 0.85

_ROW = tuple(range(7))
_MUL = [[(a * b) % 7 for b in range(7)] for a in range(7)]


def probe_work(reps: int = 250) -> None:
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(reps):
        for c in range(1, 7):
            mc = _MUL[c]
            key = tuple(mc[x] for x in _ROW)
            counts[key] = counts.get(key, 0) + 1


class SpeedProbe:
    """Context manager that samples the machine speed from SIGALRM."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._old_handler = None
        self._busy = False

    def sample(self, *_) -> None:
        # A timer tick that lands inside a sample is dropped: a nested probe
        # would count in the outer probe's time and leave `starts` unsorted.
        if self._busy:
            return
        self._busy = True
        # A collection that falls due inside the probe would charge the
        # library's heap to the probe, so none may start there.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            probe_work()
            self.durations.append(time.perf_counter() - t0)
            self.starts.append(t0)
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1) would take at the reference speed.

        Probes started inside the interval are subtracted from it.  The
        speed is the mean of the probes' speed over those probes and the
        nearest one on each side: the probes are evenly spaced in time, so
        this is the work the interval did, even when the speed changed
        within it.
        """
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        inside = sum(self.durations[i:j])
        around = self.durations[max(i - 1, 0) : j + 1]
        speed = statistics.fmean((REFERENCE_PROBE_S / d) ** SPEED_EXPONENT for d in around)
        return (t1 - t0 - inside) * speed
