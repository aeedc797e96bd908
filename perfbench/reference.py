"""Fixed reference tasks that measure how fast the machine is right now.

Shared hosts change speed by up to 1.5x within seconds, so a wall time
alone does not repeat from run to run.  The benchmark runs one of these
tasks between consecutive operations and reports operation latency as a
multiple of the reference latency around it; set-up times are divided by
``objects`` run around each set-up child.  The tasks share no code with
kerrpurify, so a change to the program moves only the measured side of
the ratio.  Each task loads the machine the way its workload does:
``objects`` churns exact rationals through dicts like the branch core,
``arrays`` streams counter-based draws through numpy like the MC trial layer.
With ``objects`` alone, mc_stream's latency ratio repeats less well.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

# Latency of ``objects`` on the 2-core x86 host the bounds were set on (the
# median of its per-run medians there).  Set-up ratios are scaled by it so
# that setup_s reads in seconds.
OBJECTS_NOMINAL_S = 0.020


def objects() -> None:
    rng = random.Random(12345)
    acc = {}
    for i in range(1000):
        key = (Fraction(rng.randrange(1, 64), rng.randrange(1, 64)) % 2, i % 37)
        acc[key] = acc.get(key, 0.0) + 1.0 / (i + 1)
    sorted(acc.items())


def arrays() -> None:
    raw = np.random.Philox(key=np.uint64(7)).random_raw(1_000_000)
    u = (raw >> np.uint64(11)) * (2.0**-53)
    np.bincount((u * 4).astype(np.int64), minlength=4)


TASKS = {"objects": objects, "arrays": arrays}


def seconds(task: str) -> float:
    start = time.perf_counter()
    TASKS[task]()
    return time.perf_counter() - start
