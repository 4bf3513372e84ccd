"""Host speed index: a fixed calibration kernel timed in short bursts
between ops.

The kernel mixes what the library's ops spend their time on: interpreted
Python arithmetic, small dicts and tuples, and numpy ufuncs and dot
products on short vectors.  It does not touch the library, so a change to
the library cannot move it; only the host's speed can.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# kernel calls per second at which the host counts as speed 1.0: about the
# median rate measured on the 2-vCPU Xeon host the benchmark was defined on
REFERENCE_RATE = 6000.0

_X = np.linspace(0.5, 2.0, 16)


def kernel() -> float:
    acc = 0.0
    for k in range(30):
        y = np.sqrt(_X) * (_X + k)
        acc += float(y @ _X)
        for v in y[:4]:
            acc += float(v)
        entry = {"k": k, "text": format(acc, ".17g"), "pair": (k, acc)}
        acc = math.fsum((acc * 1e-9, float(len(entry["text"])), entry["pair"][0] * 0.5))
    return acc


BURST = 40  # kernel calls per measurement, about 7 ms on the reference host


def measure() -> float:
    """Host speed now, relative to the reference host.  The collector is
    paused so that the program's heap cannot slow the kernel down."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(BURST):
            kernel()
        elapsed = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    return BURST / elapsed / REFERENCE_RATE
