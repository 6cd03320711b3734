"""Machine-speed calibration for a shared, noisy host.

On a host shared with other tenants the speed of a core swings by tens of
percent, in phases that last tens of seconds, and pure-Python work slows
down with it.  The benchmark therefore times a fixed pure-Python kernel (no
pga code) next to every measured item, and scales each time to a machine on
which that kernel takes NOMINAL_S seconds:

    normalized = measured * NOMINAL_S / kernel time measured alongside

A change to pga moves the measured time and not the kernel, so the
normalized time moves by the same factor; a change of machine speed moves
both and cancels.  This module imports nothing beyond ``time``, so a fresh
process can load it before timing its own imports.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_S = 0.010


def kernel_s() -> float:
    """Seconds taken by one run of the fixed kernel, an integer hash loop."""
    start = perf_counter()
    x = 0
    for i in range(75_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return perf_counter() - start


def scale(kernel_samples) -> float:
    """Factor taking a time measured next to these kernel samples to nominal speed."""
    ordered = sorted(kernel_samples)
    mid = len(ordered) // 2
    median = (ordered[mid] + ordered[-1 - mid]) / 2
    return NOMINAL_S / median
