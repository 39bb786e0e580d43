"""Host-speed reference: a fixed routine that uses no nogosim code.

On a shared host the speed of a core drifts by tens of percent over seconds
and minutes, and CPU time drifts with it, so raw timings of the same code
spread far wider than any useful regression bound. The benchmark therefore
probes this routine right before and after every measured stretch (one item,
one CLI child, one import) and scales the stretch by ``NOMINAL_S`` over the
probes' mean time per iteration. The routine does the same kind of work as
nogosim's hot paths (Python-level loops and calls on small complex numpy
arrays), so a host slowdown stretches both alike, while a change to nogosim
cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Median time per iteration of ``routine`` on the 2-core x86-64 host where
#: the benchmark was defined (Python 3.11, numpy 2.4, OpenBLAS on one thread).
#: Only the unit depends on it: adjusted timings read as seconds on that host.
NOMINAL_S = 35e-6
_MATRIX = (np.arange(9).reshape(3, 3) * (1 + 1j)) / 10


def routine(iterations: int) -> float:
    a = _MATRIX
    total = 0.0
    for _ in range(iterations):
        b = a @ a.conj().T
        c = np.kron(a[:2, :2], a[:2, :2])
        total += float(np.max(np.abs(b - b.conj().T))) + float(np.vdot(c[0], c[1]).real)
        for i in range(3):
            for j in range(3):
                total += abs(complex(a[i, j]))
    return total


def seconds(iterations: int = 40, repeats: int = 3) -> float:
    """Seconds per iteration of the routine, median of ``repeats`` timed runs.

    One untimed iteration runs first, so the probe measures a warm routine
    whatever the measured code left in the caches.
    """
    routine(1)
    times = []
    for _ in range(repeats):
        start = perf_counter()
        routine(iterations)
        times.append((perf_counter() - start) / iterations)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns a timing taken between two reference probes into
    seconds at the nominal host speed."""
    return NOMINAL_S / ((before + after) / 2.0)
