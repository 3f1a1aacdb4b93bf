"""Timing scaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pass can take 30% longer a few minutes later, and the guest's CPU time
slows down with its wall time, so neither clock separates the program from
the host.  ``HostClock`` measures the host alongside the program.  While it
runs, a timer signal every ``PROBE_INTERVAL_S`` interrupts the timed
operations to run a ``Probe``, a fixed piece of interpreter and numpy work,
and each interval of wall time between two probes counts as

    interval * PROBE_REF_S / (time of the probe that closes it)

so ``run_s`` is the time the operations would take on a host that runs the
probe in ``PROBE_REF_S``.  The probes' own time is left out of both
``wall_s`` and ``run_s``, and out of ``now()``, the clock the span recorder
reads.

Nothing in ringlab is patched: the probe touches only its own data.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

PROBE_INTERVAL_S = 0.25
PROBE_REF_S = 0.007  # nominal probe time: run_s is in seconds of a host that takes this long

_clock = time.perf_counter


def _resident_mib() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class Probe:
    """Fixed work whose time tells how fast the host runs right now.

    Half interpreter work, half numpy gathers from a table beyond one core's
    L2 cache, as ringlab's scan paths and operation tables are.  In passes
    alternated between probes, this one tracked the drift of ``verify all``
    about as well as either half alone, and better than a probe gathering
    from 85 MiB (coefficients of variation 0.05 against 0.10).
    """

    def __init__(self):
        before = _resident_mib()
        self._table = np.arange(1 << 21, dtype=np.int32)  # 8 MiB
        self._index = (np.arange(1 << 16, dtype=np.int64) * 7919) % (1 << 21)
        self._out = np.empty(1 << 16, dtype=np.int32)
        # memory the probe holds, which the workloads' peak memory leaves out
        self.resident_mib = _resident_mib() - before

    def __call__(self) -> float:
        """Seconds the probe work takes now."""
        start = _clock()
        acc = 0
        seen = {}
        for i in range(25000):
            acc += i * i % 7
            seen[i & 255] = acc
        for _ in range(5):
            np.take(self._table, self._index, out=self._out)
            acc += int(self._out.sum())
        return _clock() - start


class HostClock:
    """Accumulates the timed operations' wall time and their time at reference speed.

    ``start()`` and ``stop()`` bracket each timed region; between regions the
    timer is off.  Only the main thread may use it (signal handlers run
    there).
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        self.wall_s = 0.0
        self.run_s = 0.0
        self._excluded = 0.0  # seconds spent in probes, hidden from now()
        self._mark = 0.0  # start of the open interval

    def now(self) -> float:
        return _clock() - self._excluded

    def start(self) -> None:
        self.probe()  # warm the probe's code and data before the first interval
        signal.signal(signal.SIGALRM, self._tick)
        self._mark = _clock()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.signal(signal.SIGALRM, signal.SIG_IGN)  # a pending tick is dropped
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._close(_clock())

    def _tick(self, _signum, _frame) -> None:
        # one-shot timer, re-armed after the probe, so ticks never nest
        self._close(_clock())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def _close(self, end: float) -> None:
        interval = end - self._mark
        took = self.probe()
        self.wall_s += interval
        self.run_s += interval * PROBE_REF_S / took
        self._mark = _clock()
        self._excluded += self._mark - end
