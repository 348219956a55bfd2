"""Host-speed calibration: a fixed pure-Python kernel timed between ops.

On a shared virtual CPU the same op can take twice as long from one minute
to the next, and its thread CPU time grows with it, so neither wall time nor
CPU time is steady.  The benchmark therefore times this kernel next to the
ops and scales every time it reports to a host on which the kernel takes
CAL_REF_MS.  The kernel does the two kinds of work the workloads do, and
uses nothing from fhesim, so a change to the package moves the ops but never
the kernel:

  * radix-2 butterflies with Python-int modular products (the CKKS ops);
  * a heap of timed events and a dict of counters (the simulator's event loop).
"""

from __future__ import annotations

import heapq
import statistics
import time

# Kernel time, in ms, on the reference host the reported times are scaled to.
# It is a fixed unit, not a measurement: it only sets the size of the numbers.
CAL_REF_MS = 10.0

_Q = (1 << 50) - 27
_W = 0x1234567
_N = 1024
_ROUNDS = 12
_EVENTS = 8000


def _kernel() -> int:
    a = list(range(1, _N + 1))
    half = _N // 2
    for _ in range(_ROUNDS):
        for i in range(half):
            x, y = a[i], a[i + half] * _W % _Q
            a[i], a[i + half] = (x + y) % _Q, (x - y) % _Q
    heap: list = []
    counters: dict = {}
    for i in range(_EVENTS):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        counters[i & 1023] = counters.get(i & 1023, 0) + 1
    acc = 0
    while heap:
        acc += heapq.heappop(heap)[0]
    return (a[0] + acc + len(counters)) % _Q


def calibrate_ms() -> float:
    """Wall time of one run of the kernel, in ms."""
    t0 = time.perf_counter_ns()
    _kernel()
    return (time.perf_counter_ns() - t0) / 1e6


def scale_to_ref(cal_ms: list) -> float:
    """Factor that turns times measured next to `cal_ms` into reference ms."""
    return CAL_REF_MS / statistics.median(cal_ms)
