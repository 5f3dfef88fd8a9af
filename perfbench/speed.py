"""The machine's current speed, read from a fixed reference computation.

On a shared host the CPU itself slows down, by up to 2.8 times for tens of
minutes and by tens of percent from one second to the next, and CPU time
slows with it (README.md, "Machine"). The workload process therefore runs
a short reference computation between its timed blocks, and reports each
block's CPU time divided by the reference's slowdown at the block's start
and end: the time the block would take at the speed where the reference
takes REFERENCE_S. The reference uses numpy, scipy and plain Python, never
otpost, so a change to the program moves the reported times as it moves
CPU time, while much of a change of machine speed does not.
"""

from __future__ import annotations

import statistics
import time

clock = time.process_time

# CPU seconds of one reference(), the median of 300 calls on the machine of
# README.md in the stretch of its end-to-end figures; it sets the unit of
# the reported times and nothing else
REFERENCE_S = 0.027
READ_EVERY_S = 0.5  # a reading stands for this long (wall time)
SLICES = 3  # a reading is the median of this many reference() calls


class Speedometer:
    def __init__(self):
        # imported here, after `import otpost`, whose time includes them
        import numpy as np
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(0)
        self._np, self._lsa = np, linear_sum_assignment
        self._a = rng.standard_normal((256, 5))
        self._w = rng.standard_normal((16, 5))
        self._big = rng.standard_normal(1 << 20).astype(np.float32)
        self._small = rng.standard_normal((8, 5))
        pts = rng.standard_normal((2, 200, 2))
        self._cost = ((pts[0][:, None] - pts[1][None]) ** 2).sum(axis=2)
        self._last = None  # (wall time of the reading, slowdown)
        self.readings = []

    def reference(self):
        """Five kinds of work the program does, a few milliseconds each:
        gradients of 16 tanh units at 256 points in 5 dimensions, passes over
        a 4 MB float32 array (as the float32 Sinkhorn solves), numpy calls on
        5-vectors (as per-point Python loops), small Python objects (as the
        maps' object form and JSON) and an assignment problem (as w2_exact)."""
        np, a, w, small = self._np, self._a, self._w, self._small
        s = 0.0
        for _ in range(20):
            t = np.tanh(a @ w.T)
            s += float(((1.0 - t * t)[:, :, None] * w[None]).sum(axis=1).sum())
        for _ in range(2):
            s += float(np.exp(-self._big * self._big).sum())
        for i in range(2000):
            v = small[i % 8]
            s += float(np.dot(v, np.maximum(v, 0.0)))
        units = [{"k": i, "v": (i, float(i)), "l": [i]} for i in range(8000)]
        s += sum(u["v"][1] for u in units)
        for _ in range(2):
            s += float(self._lsa(self._cost)[1].sum())
        return s

    def slowdown(self):
        """The reference's CPU time now over REFERENCE_S. A reading younger
        than READ_EVERY_S is reused, so short blocks share readings."""
        now = time.monotonic()
        if self._last is None or now - self._last[0] > READ_EVERY_S:
            times = []
            for _ in range(SLICES):
                t0 = clock()
                self.reference()
                times.append(clock() - t0)
            self._last = (time.monotonic(), statistics.median(times) / REFERENCE_S)
            self.readings.append(self._last[1])
        return self._last[1]
