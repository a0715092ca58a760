"""A fixed reference computation that measures the host's momentary speed.

On a shared host the same code runs 20-30 % slower for stretches of seconds
to minutes.  The benchmark times this computation right after every job and
rescales the job's time to a host on which one sample takes ``NOMINAL_S``
(see ``metrics.host_adjusted``).  The computation mixes the two kinds of
work the package does: Python sets of small tuples (the pair closure, the
searches, ``GPFunction``) and numpy gathers on index tables (the table
checks of ``fuzzy`` and ``hyper``).  It never calls ``hyperalg``, so a
change to the package cannot change it.

Import this module only after the thread-pool variables are set.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# one sample takes about this long on the 2-vCPU Xeon VM the bounds were set on
NOMINAL_S = 0.0006

_SIZE = 1 << 14
_INDEX = np.arange(_SIZE, dtype=np.intp)
_PERM = (_INDEX * 7919) & (_SIZE - 1)  # an odd multiplier permutes Z/2^14


def _unit() -> int:
    pairs = set()
    for i in range(1500):
        pairs.add((i & 63, i >> 6))
    x = _INDEX
    for _ in range(12):
        x = _PERM[x]
    return len(pairs) + int(x[0])


def sample(repeats: int = 3) -> float:
    """The best of ``repeats`` timed runs of the reference computation, with
    the garbage collector off so that the benchmark's heap does not count."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            _unit()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best
