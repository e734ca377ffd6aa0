"""Reference kernel that measures how fast the host runs right now.

The speed of a shared host drifts by up to 2x over tens of seconds (other
tenants; CPU time tracks wall time, so the drift is in the CPU, not in
scheduling).  Each timing is therefore divided by a host factor: the
median time of this fixed kernel around the timed code, over REF_NOMINAL_S.
Timings are thus reported for a host on which the kernel takes 5 ms.

Imports numpy only, so a set-up probe can time the host before it imports
the library.
"""

import statistics
import time

import numpy as np

REF_NOMINAL_S = 0.005
_REF_XS = np.arange(128, dtype=np.float64)


class _RefRect:
    __slots__ = ("x", "y", "w", "h")

    def __init__(self, i: int):
        self.x, self.y, self.w, self.h = 7 * i % 120, 13 * i % 120, 3 + i % 9, 2 + i % 7


_REF_RECTS = [_RefRect(i) for i in range(120)]


def reference_s() -> float:
    """Wall seconds of one fixed kernel in the workloads' blend: small numpy
    calls on grid-sized vectors, and an interpreted loop over rectangle
    objects.  Of the kernels tried, this blend slowed most like the
    workloads when the host slowed."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(160):
        g = np.clip(30.0 - _REF_XS, 0, None) + np.clip(_REF_XS - 60.0 - k % 5, 0, None)
        acc += float(g.min())
    for a in _REF_RECTS:
        for b in _REF_RECTS[:32]:
            ox = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
            oy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
            if ox > 0 and oy > 0:
                acc += ox * oy
    return time.perf_counter() - t0


def factor(refs) -> float:
    """Median of reference times over REF_NOMINAL_S: above 1 when the host
    ran slower than nominal."""
    return statistics.median(refs) / REF_NOMINAL_S
