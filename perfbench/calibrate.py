"""Host-speed probe: a fixed kernel whose run time tracks the host's speed.

The benchmark's host is shared, and its speed drifts by large factors
over minutes as other tenants come and go.  A run therefore times this
kernel between ops and reports its timings scaled to a reference speed:
``scaled = raw * REFERENCE_S / mean(kernel seconds in this run)``.  The
mean, not the median: ops accumulate time in proportion to how slow the
host is, so the time-averaged slowdown is what cancels.

The kernel uses no code of the program under test (a change to the program
cannot move it) and mixes the two kinds of work the program does, weighted
as the program is: mostly a pure-Python event loop over a heap (the
dispatch loops; the Python part slows more than NumPy when the host is
contended), plus small dense linear algebra and vector arithmetic in NumPy
(GP fits, service times).
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Kernel time on the reference host (2-vCPU KVM guest, Xeon family 6
#: model 143 at 2.0 GHz, Python 3.11, NumPy 2.4, one BLAS thread) while that
#: host was quiet.
REFERENCE_S = 0.05


def _python_loop(n: int = 180_000) -> float:
    free = [0.0] * 8
    starts = []
    x = 0.1
    for i in range(n):
        t = heapq.heappop(free)
        x = (x * 1.0001 + 0.37) % 1.0
        start = t if t > i * 0.05 else i * 0.05
        heapq.heappush(free, start + x)
        starts.append(start)
    return starts[-1]


def _numpy_block(n: int = 150) -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((40, 40))
    k = a @ a.T + 40.0 * np.eye(40)
    v = rng.standard_normal(4000)
    acc = 0.0
    for _ in range(n):
        chol = np.linalg.cholesky(k)
        acc += float(np.linalg.solve(chol, k[:, 0]).sum())
        acc += float(np.sort(np.exp(v * 0.01)).sum())
    return acc


def kernel_s() -> float:
    """Seconds one run of the probe kernel takes right now."""
    t0 = time.perf_counter()
    _python_loop()
    _numpy_block()
    return time.perf_counter() - t0
