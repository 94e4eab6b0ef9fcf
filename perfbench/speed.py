"""Host speed reference: a fixed kernel timed between cells.

The benchmark host may be a shared VM whose speed wanders: on the 2-vCPU
baseline machine the same code runs up to 1.5-2x slower for stretches of
seconds to minutes, and a 30 s run can fall wholly in a slow or a fast
stretch.  Averaging over a run does not remove that, so the timed loop
times this kernel before every cell and after the last, and scales each
cell's wall time by ``REFERENCE_S`` over the mean of the two kernel times
around it.  A cell then reads as the seconds it takes on this host at the
kernel's reference speed.

The kernel uses numpy and scipy only, never stratasim, so no change to
the library moves it.  It does work of the library's three kinds, because
a slow stretch slows them by different shares: interpreter-bound loops of
scalar draws after SeedSequence spawning, small least-squares fits through
scipy, and batched array work on 1000-row draws.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

# A round figure near the typical wall time of ``kernel_seconds`` on the
# baseline machine (Xeon, 2 vCPUs, numpy 2.4, scipy 1.17: medians of
# 4.3-4.6 ms in the baseline runs).  Only ratios to it matter; it sets
# the scale of every time metric.
REFERENCE_S = 0.005

_STREAMS = 4
_PATIENTS = 80
_FITS = 10
_DRAWS = 1000


def _kernel() -> float:
    total = 0.0
    for child in np.random.SeedSequence(20230426).spawn(_STREAMS):
        stream = np.random.Generator(np.random.Philox(child))
        counts = [0, 0, 0]
        for _ in range(_PATIENTS):
            u = stream.random()
            counts[0 if u < 0.2 else (1 if u < 0.6 else 2)] += 1
        total += float(stream.standard_normal(_PATIENTS).mean()) + counts[0]
    rng = np.random.Generator(np.random.Philox(20230426))
    for _ in range(_FITS):
        x = np.column_stack([np.ones(40), rng.random(40) < 0.3,
                             rng.integers(0, 3, 40) == 1, rng.integers(0, 3, 40) == 2])
        y = rng.standard_normal(40)
        q, r, piv = scipy.linalg.qr(x, mode="economic", pivoting=True)
        beta = scipy.linalg.solve_triangular(r, q.T @ y)
        resid = y - x[:, piv] @ beta
        total += float(resid @ resid)
    codes = np.argsort(rng.random((_DRAWS, 10, 4)), axis=-1).reshape(_DRAWS, 40)
    y = rng.standard_normal(40)
    fixed = np.column_stack([np.ones(40), rng.random(40) < 0.5])
    for arm in (1, 2):
        mask = (codes == arm).astype(float)
        total += float((mask @ fixed).sum() + (mask @ y).sum())
    a = np.eye(4) + 0.1 * rng.random((_DRAWS, 4, 4))
    total += float(np.linalg.solve(a, rng.random((_DRAWS, 4, 1))).sum())
    return total


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
