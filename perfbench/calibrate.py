"""Host-speed calibration: a fixed reference task timed between passes.

On a shared host, other tenants slow identical work down by up to half for
seconds to minutes at a time, and CPU time slows with wall time: the
process is not waiting, it runs slower. Timing a fixed reference task right
before and right after each pass measures how fast the host ran during the
pass, and scaling the pass's time by it leaves the cost of the work itself.
The reference mixes what the package's code does: pure-Python loops over a
small dict and over a heap of objects far larger than the CPU caches, many
small numpy operations and a few large ones. The large heap matters most:
contention from other tenants slows the package's fits about as much as it
slows a walk through memory, and less than it slows cache-resident work.
The reference does not call the package, so a change to the package never
changes it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The reference task's time on an unloaded host of the kind the results
#: were measured on (a 2-vCPU Intel Xeon VM). Calibrated times read as wall
#: seconds on a host that runs the reference in exactly this long.
REFERENCE_SECONDS = 0.042
#: Repeats of the task per reference; their median is the reference, so
#: that a single interruption does not set it.
REPEATS = 3

_rng = np.random.default_rng(20210719)
_SMALL = _rng.random((300, 4))
_MATRIX = _rng.random((4, 4))
_LARGE = _rng.random(200_000)
_BUFFERS = np.empty_like(_LARGE), np.empty_like(_LARGE)
_HEAP = [(i, float(i)) for i in range(100_000)]  # allocated in order,
_HEAP = [_HEAP[i] for i in _rng.permutation(len(_HEAP))]  # walked out of order


def _task():
    start = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(50_000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    walked = 0.0
    for _, value in _HEAP:
        walked += value
    x = _SMALL
    for _ in range(400):
        x = np.exp(np.log1p(x @ _MATRIX) * 0.1)
        x = x / x.sum(axis=1, keepdims=True)
    work, total = _BUFFERS  # preallocated: no page faults in the timing
    for _ in range(3):
        np.copyto(work, _LARGE)
        work.sort()
        np.cumsum(work, out=total)
    return time.perf_counter() - start


def reference_seconds() -> float:
    """Median wall time of ``REPEATS`` runs of the fixed reference task."""
    return statistics.median(_task() for _ in range(REPEATS))


def calibrated(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference took ``reference`` seconds,
    scaled to a host that runs the reference in ``REFERENCE_SECONDS``."""
    return seconds * REFERENCE_SECONDS / reference
