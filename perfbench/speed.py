"""A clock in reference seconds: wall time scaled by the host's measured speed.

On a shared host the speed of NumPy-dispatch code drifts by up to a factor of
two, switching within seconds and drifting over minutes, and CPU time moves
with wall time, so neither separates the program's cost from the host's. While
a ``SpeedClock`` is entered, a ``SIGALRM`` handler runs ``probe_kernel`` every
``PERIOD`` seconds between the program's bytecodes. The kernel is fixed,
small-array NumPy work of the same kind as the lab's 1D descent loop, and does
not call plaplab, so no change to the program changes it. ``now()`` counts
each slice of wall time between probes at the speed of the latest probes:
``slice * NOMINAL / probe_time``, with the median of the last three probe
times. The probes' own time is left out.

A reference second is a wall second on a host where the probe takes
``NOMINAL`` seconds. On a host running at that speed the clock reads wall
time; on a slowed host it reads what the same work would take at that speed.
"""

import signal
import time

import numpy as np

PERIOD = 0.05  # seconds between probes; each takes about 1.5% of that
NOMINAL = 0.75e-3  # probe time of a 2-vCPU Intel Xeon host in its slower state, NumPy 2
PROBE_STEPS = 30
_X = np.linspace(0.0, 1.0, 129)


def probe_kernel() -> float:
    """Explicit descent steps of a 1D p=3 Laplacian on 129 nodes."""
    u = np.sin(np.pi * _X)
    for _ in range(PROBE_STEPS):
        d = np.diff(u) * 128.0
        flux = np.abs(d) * d
        g = np.zeros_like(u)
        g[1:] += flux
        g[:-1] -= flux
        g -= np.sqrt(np.maximum(u, 0.0)) * u
        u = u - 1e-4 * g
    return float(np.sum(u))


class SpeedClock:
    def __init__(self):
        self.probes: list[float] = []  # every probe's wall time, in order
        # (reference seconds up to mark, wall time of mark, scale): replaced as
        # one attribute so that now() never mixes two probes' values
        self._state = (0.0, time.perf_counter(), 1.0)
        self._previous_handler = None

    def __enter__(self):
        self._state = (0.0, time.perf_counter(), self._probe())
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False

    def _probe(self) -> float:
        """Time the kernel once; returns the new scale, NOMINAL over the
        median of the last three probe times."""
        start = time.perf_counter()
        probe_kernel()
        self.probes.append(time.perf_counter() - start)
        recent = sorted(self.probes[-3:])
        return NOMINAL / recent[len(recent) // 2]

    def _on_alarm(self, signum, frame):
        reference, mark, scale = self._state
        reference += (time.perf_counter() - mark) * scale
        scale = self._probe()
        self._state = (reference, time.perf_counter(), scale)

    def now(self) -> float:
        reference, mark, scale = self._state
        return reference + (time.perf_counter() - mark) * scale

    def speed(self) -> float:
        """Median host speed over the probes so far, relative to NOMINAL."""
        ordered = sorted(self.probes)
        return NOMINAL / ordered[len(ordered) // 2]
