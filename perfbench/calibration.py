"""Machine-speed calibration for the benchmark's time metrics.

On a shared host the same work can run at very different speeds from one
ten-second stretch to the next. A fixed reference kernel, timed between op
steps, tracks that speed; dividing wall time by the kernel's median time in
the same run cancels most of the drift. See NOTES.md for the measurements
behind this.
"""

import time

import numpy as np
import scipy.linalg as sla

# median kernel time on the machine the benchmark was defined on (Intel Xeon,
# 2 vCPUs, OpenBLAS 0.3.31, one BLAS thread); wall seconds are rescaled to it.
# The dense variant adds one LU of a 1000-square matrix, for ops dominated by
# large factorizations, which slow down less than small-matrix and
# interpreter work when the host is busy.
REFERENCE_S = {False: 0.0104, True: 0.0335}

# the kernel runs at most this often, so it costs a few percent of a run
INTERVAL_S = 0.5


class Calibrator:
    """Times the reference kernel at most every INTERVAL_S, when `tick` is
    called between steps of an op, and accounts for the time it spends so
    that op latencies can exclude it."""

    def __init__(self, dense=False):
        rng = np.random.default_rng(12345)
        self._A = rng.standard_normal((120, 120))
        self._B = rng.standard_normal((120, 8))
        self._big = rng.standard_normal(1 << 19)  # 4 MB, past the L2 cache
        self._dense = rng.standard_normal((1000, 1000)) if dense else None
        self.reference_s = REFERENCE_S[dense]
        self.samples = []
        self.spent = 0.0
        self._last = -float("inf")
        for _ in range(2):  # first calls pay for page faults and BLAS start-up
            self.kernel()

    def kernel(self):
        """Interpreter, small-BLAS and memory-streaming work in one fixed mix,
        like an op's, plus the dense LU when asked for. Returns its wall time."""
        t = time.perf_counter()
        s = 0
        for i in range(40_000):
            s += i * i
        for _ in range(30):
            sla.lu_solve(sla.lu_factor(self._A), self._B)
        for _ in range(4):
            self._big.copy()
        if self._dense is not None:
            sla.lu_factor(self._dense)
        return time.perf_counter() - t

    def sample(self):
        t = time.perf_counter()
        self.samples.append(self.kernel())
        self._last = time.perf_counter()
        self.spent += self._last - t

    def tick(self):
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self):
        """Reference speed over this run's speed: wall seconds times this
        factor are reference seconds."""
        return self.reference_s / float(np.median(self.samples))
