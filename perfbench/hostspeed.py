"""A fixed calibration load that tracks how fast the shared host runs now.

The host this benchmark runs on is shared: for a minute or more at a time,
other tenants slow every instruction by up to 70%. A repetition's wall
time carries that slowdown whatever statistic is taken over a 20-second
run. The benchmark therefore times this load, which never changes, between
repetitions, and scales each repetition to ``REFERENCE_S``:

    normalized = wall * REFERENCE_S / (mean of the calibrations before
                                       and after the repetition)

The load mixes what a tatrack run does: building small Python objects,
dict lookups, JSON encoding, sorting and 2x2 numpy solves. It imports
nothing from tatrack, so a change to the program moves the numerator
alone.
"""

import gc
import json
import random
import time

import numpy as np

#: Calibration time that defines the reference host speed, a round figure
#: near what the load takes on the 2-core host the benchmark was built on.
#: Normalized times are the seconds a step would take at that speed.
REFERENCE_S = 0.12


def calibrate() -> float:
    """Wall time of the fixed load, in seconds."""
    gc.collect()
    start = time.perf_counter()
    rng = random.Random(7)
    objs = [(i, rng.random(), str(i)) for i in range(80_000)]
    by_key = {o[2]: o for o in objs}
    text = json.dumps([list(o) for o in objs[:30_000]])
    objs.sort(key=lambda o: o[1])
    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    b = np.array([1.0, 2.0])
    for i in range(3_000):
        np.linalg.solve(a + i * 1e-3, b)
    del by_key, text
    return time.perf_counter() - start
