"""Host-speed calibration: a fixed kernel timed next to the measured work.

On a shared virtual machine the speed of a core can change by half within a
minute (other guests on the same physical core, cache and memory), and the
thread's CPU clock does not leave that out.  The benchmark therefore runs a
short fixed kernel between units of work (before every optimizer step, and
every ``BURST_EVERY`` predictions) and scales each measured time by
``NOMINAL_S`` over the kernel's time around it.  Figures then read as times
on a core that runs the kernel in ``NOMINAL_S``.

The kernel is this file's own code and imports nothing from the package, so
a change to the package moves the work but not the yardstick.  It mixes the
three kinds of work the package does: interpreter work on many small
records (as a tape does), small-array loops (as Sinkhorn does) and dense
products at the encoder's size.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The benchmark runs single-threaded (one BLAS thread, ``workers=1``), so the
# thread's CPU time equals elapsed time on an idle machine.  Unlike elapsed
# time it leaves out the time a virtual machine's host hands to other guests
# (steal).
cpu_clock = time.thread_time

# Kernel CPU time on a 2-vCPU x86-64 guest at its fastest (Python 3.11,
# numpy 2.4, OpenBLAS 0.3.31, one thread): the speed figures are scaled to.
NOMINAL_S = 0.00055
# Predictions between two bursts when scoring graph after graph.
BURST_EVERY = 4

_RNG = np.random.default_rng(20230616)
_COST = _RNG.random((14, 14))
_MARGINAL = np.full(14, 1.0 / 14)
_FEATURES = _RNG.random((28, 256))
_WEIGHTS = _RNG.random((256, 128)) / 16.0


def kernel():
    """A fixed unit of work; returns a checksum so nothing is skipped."""
    total = 0.0
    for _ in range(12):
        nodes = [(i, lambda z, i=i: z + i) for i in range(100)]
        for _i, fn in reversed(nodes):
            total = fn(total)
    gibbs = np.exp(-5.0 * _COST)
    u = np.ones(14)
    for _ in range(50):
        v = _MARGINAL / (gibbs.T @ u)
        u = _MARGINAL / (gibbs @ v)
    for _ in range(4):
        out = np.tanh(_FEATURES @ _WEIGHTS)
    return total + float(u.sum()) + float(out.sum())


class Calibrator:
    """Kernel bursts in time order, and the scale they give nearby samples.

    A sample taken after burst ``j`` is scaled by the mean of bursts ``j``
    and ``j + 1`` (the ones just before and just after it, where both exist).
    """

    def __init__(self):
        self.times = []
        self.tracer = None
        kernel()                  # first call pays numpy's warm-up

    def burst(self):
        """Run the kernel once; return its CPU seconds."""
        if self.tracer is not None:
            self.tracer.open_span("perfbench.calibrate")
        start = cpu_clock()
        kernel()
        seconds = cpu_clock() - start
        if self.tracer is not None:
            self.tracer.close_span()
        self.times.append(seconds)
        return seconds

    @property
    def last(self):
        """Index of the latest burst."""
        return len(self.times) - 1

    def scale(self, j):
        """Factor taking a CPU time measured just after burst ``j`` to nominal."""
        around = self.times[max(j, 0):j + 2]
        return NOMINAL_S / statistics.fmean(around)

    def scale_between(self, first, last):
        """Factor for work spanning bursts ``first`` to ``last`` inclusive."""
        return NOMINAL_S / statistics.fmean(self.times[max(first, 0):last + 1])

    def spent(self, first, last):
        """CPU seconds spent in bursts ``first`` to ``last`` inclusive."""
        return sum(self.times[max(first, 0):last + 1])
