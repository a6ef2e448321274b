"""A speed probe: a fixed snippet timed on a thread of its own during a run.

The benchmark runs on shared virtual machines whose CPU speed wanders
over minutes: one sweep pass took 10 s in one run and 22 s in another.
The probe thread wakes every ``PERIOD_S``, runs a snippet that does not
call torusred and records its thread CPU time.  ``cpu_norm_s`` rescales each operation's CPU time by
``NOMINAL_S`` over the snippet's mean time during that operation, that
is, to the speed the host had when the benchmark was defined (a 2-vCPU
virtual machine).  A change to the program moves the operations and not
the snippet.  The snippet's mix follows the program's inner loops: tiny
numpy updates as in the integrators and plain Python arithmetic.  It
costs about 1 % of a CPU and takes the GIL for about half a millisecond
at a time.
"""

from __future__ import annotations

import resource
import threading
import time

import numpy as np

PERIOD_S = 0.05
NOMINAL_S = 0.00045


def cpu_seconds():
    """CPU time of this process, all threads, and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def snippet():
    x = np.zeros(6)
    for _ in range(60):
        x = x + 0.01 * np.sin(x)
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return acc


class SpeedProbe:
    """Times ``snippet`` every ``PERIOD_S`` on a daemon thread until stopped."""

    def __init__(self):
        self.samples = []  # (perf_counter at the end, thread CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)
        self._thread.start()
        self._clock = time.pthread_getcpuclockid(self._thread.ident)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            c0 = time.thread_time()
            snippet()
            self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def cpu_seconds(self):
        """CPU time the probe thread has used so far."""
        return time.clock_gettime(self._clock)

    def speed(self, start, end):
        """Mean snippet time over samples taken in [start, end], or the latest one."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if inside:
            return sum(inside) / len(inside)
        return self.samples[-1][1] if self.samples else NOMINAL_S

    def stop(self):
        self._stop.set()
        self._thread.join()
