"""Reference task: fixed work that does not use scaledist, timed next to each step.

On a shared host the speed one process gets moves by up to 2x within
minutes.  Timing a fixed task right after each timed step, and reporting the
step's time in units of it, cancels most of that, while a change to the
program still moves the ratio in full: nothing here imports scaledist.

The task is the kind of work a replicate does: small numpy arrays, pairwise
L1 distances, sorts and medians, and a Python loop over rows.  It runs in the
benchmark process, on one core.
"""

from __future__ import annotations

import time

import numpy as np

ROWS, COLS = 40, 200
ROUNDS = 10  # about 35 ms on one 2 GHz Xeon core


def reference_pass():
    """Wall and CPU seconds of one pass of the fixed task."""
    wall, cpu = time.perf_counter(), time.process_time()
    x = np.random.default_rng(0).standard_normal((ROWS, COLS))
    total = 0.0
    for _ in range(ROUNDS):
        d = np.abs(x[:, None, :] - x[None, :, :]).sum(axis=-1)
        total += float(np.sort(x, axis=0)[ROWS // 2].sum() + np.median(x, axis=0).sum())
        for row in d:
            total += float(row[row.argsort()[:3]].sum())
    if not np.isfinite(total):
        raise ArithmeticError("reference task lost its checksum")
    return time.perf_counter() - wall, time.process_time() - cpu
