"""Host-speed calibration of measured times.

On a shared host the same op can take 200 ms or 350 ms depending on what
other tenants run on the same cores, and the balance shifts within seconds
and between minutes: batch medians of one workload moved by 30-50% between
two batches 15 minutes apart.  A fixed probe kernel, interpreter loops over
small numpy calls like the workloads, is timed just before and just after
each measured interval, and the interval is reported in reference-host
seconds::

    normalized = raw * REFERENCE_S / mean(probe before, probe after)

The probe uses numpy and the standard library only, so no change to the
package can move it.  Raw times are kept next to the normalized ones in the
results file.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0076  # the probe's time on the reference host (2 vCPUs at 2.1 GHz) when quiet

_POINTS = np.random.default_rng(0).normal(size=(64, 8))


def probe_s() -> float:
    """Time of the fixed probe kernel: nearest-neighbour ranks by Python loops."""
    start = time.perf_counter()
    for i in range(len(_POINTS)):
        sorted(float(np.linalg.norm(_POINTS[j] - _POINTS[i])) for j in range(len(_POINTS)))
    return time.perf_counter() - start


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a raw interval between two probes into reference-host seconds."""
    return REFERENCE_S / (0.5 * (before_s + after_s))
