"""Host-speed reference: scale wall times to a fixed reference speed.

On a shared host the CPU runs the same code up to ~2x slower or faster
from one minute to the next (measured here: a fixed loop took 8-16 ms,
5th to 95th percentile), which swamps any change worth detecting.  So
between every two units of a pass the benchmark times :func:`probe`, a
fixed loop of its own code that never calls the program, and scales the
unit's wall time by ``REFERENCE_S / probe`` (the mean of the probes just
before and after it).  A unit that takes 1.0 s while the probe reads
``REFERENCE_S`` counts as 1.0 s; one that takes 1.3 s while the probe
reads 1.3 ``REFERENCE_S`` also counts as 1.0 s.  A change to the program
moves the unit's time and not the probe's, so it moves the scaled time
by the same factor.  The raw wall times are kept in every result row.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: The probe's wall time at the reference speed: its median on the
#: 2-vCPU host the bounds were set on.  It only fixes the unit.
REFERENCE_S = 0.0144

_PROBE_ITERATIONS = 1500


def probe() -> float:
    """Time a fixed mix of interpreter and small-array numpy work."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    table: dict[int, int] = {}
    window: list[tuple] = []
    t0 = perf_counter()
    for i in range(_PROBE_ITERATIONS):
        x = rng.random(32)
        acc += float(np.cumsum(x)[-1])
        j = int(np.searchsorted(x, 0.5))
        k = i % 97
        table[k] = table.get(k, 0) + j
        window.append((k, j, acc))
        if len(window) > 64:
            window.sort()
            del window[:32]
    return perf_counter() - t0


def scale(wall_s: float, probes) -> float:
    """``wall_s`` at the reference speed, given the probes around it."""
    if len(probes) == 0:
        return wall_s
    return wall_s * REFERENCE_S / (sum(probes) / len(probes))
