"""Fixed speed probe used to normalise every benchmark time.

The machine's speed drifts by tens of percent for seconds at a time, so a
raw operation time mixes the program's cost with the machine's mood.  The
probe is a fixed amount of pure-Python work plus a small dense matmul; it
never calls cuspbc.  A time t measured while the probe took p seconds is
reported as t * REFERENCE_PROBE_S / p: seconds at the reference speed.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time (s) that defines "reference speed".  Measured as the median
# probe on a 2-core x86-64 container (Python 3.11, numpy 2.4, OpenBLAS at
# one thread).  Changing it rescales every normalised time, so it is fixed.
REFERENCE_PROBE_S = 0.0021

_MATRIX = (np.arange(200 * 200, dtype=float).reshape(200, 200) % 17.0) / 17.0


def _kernel() -> float:
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    m = _MATRIX
    for _ in range(2):
        m = m @ _MATRIX
        m /= m[0, 0] + 1.0
    return acc + float(m[0, 0])


def probe_s() -> float:
    """Fastest of three probe kernels: the current machine speed, with
    one-off preemptions filtered out."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best
