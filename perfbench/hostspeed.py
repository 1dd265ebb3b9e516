"""A fixed reference workload that measures how fast the host runs now.

Other tenants of a shared host slow this benchmark's pure-Python loops
by up to 2x for stretches of seconds to minutes, so that raw times from
whole runs disagree by far more than any code change worth gating.  The
benchmark therefore times ``reference_work`` right before every step of
its loop and reports each time scaled by ``NOMINAL_S / reference time``:
what the step would have taken on a host that runs the reference in
``NOMINAL_S``.  The reference is the same kind of work the library does
(dict, set and tuple hashing in the interpreter, small numpy array
arithmetic) and depends on nothing under ``src/``, so a change to the
library moves the scaled times and a change of host speed cancels out.
The raw times are kept in each result row's notes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The reference's time on the quiet host the benchmark was written on
# (a 2-vCPU Intel Xeon container, Python 3.11, numpy 1.x): its fast-state
# median.  Only the scale of the reported times depends on it.
NOMINAL_S = 0.0021
REPEATS = 3
SIZE = 3000
ARRAY_ROUNDS = 40


def reference_work() -> int:
    """About as much work as a few thousand stream tokens of the library."""
    table = {}
    seen = set()
    acc = 0
    for i in range(SIZE):
        key = (i * 2654435761) & 0xFFFFFFFF
        table[(i, key & 1023)] = key
        seen.add(key % 5003)
        acc ^= hash((i, key)) & 0xFFFF
    rows = np.arange(SIZE, dtype=np.int64)
    for _ in range(ARRAY_ROUNDS):
        acc += int(((rows * 31 + acc) % 1009).sum()) & 0xFFFF
    return acc + len(table) + len(seen)


def reference_s() -> float:
    """Median wall time of ``REPEATS`` runs of ``reference_work``."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
