"""Agreement metrics for partitions and classifiers."""

from __future__ import annotations

import numpy as np

from .core import _check_dtype, check_labels

__all__ = ["adjusted_rand_index", "misclassification_rate"]


def _pairs(counts):
    # number of object pairs lying together: sum of c*(c-1)/2, exact integers
    return sum(c * (c - 1) // 2 for c in counts.ravel().tolist())


def adjusted_rand_index(u, v):
    """Chance-adjusted agreement of two partitions.

    1 for identical partitions (up to label renaming), expected value 0 for
    random partitions with the same class sizes; can be negative.  All pair
    counting is done in exact integer arithmetic with one final division, so
    small hand-checkable cases come out exact.  In the degenerate case where
    the adjustment has no room (both partitions all-singletons or both
    single-cluster), returns 1.0 if the partitions are identical as set
    partitions and 0.0 otherwise.
    """
    u, ku = check_labels(u)
    v, kv = check_labels(v, n_expected=u.shape[0])
    n = u.shape[0]
    if n < 2:
        raise ValueError("need at least 2 objects")
    # cross-counts of the two partitions
    counts = np.bincount((u - 1) * kv + (v - 1), minlength=ku * kv).reshape(ku, kv)
    together = _pairs(counts)
    a = _pairs(counts.sum(axis=1))
    b = _pairs(counts.sum(axis=0))
    total = n * (n - 1) // 2
    num = 2 * total * together - 2 * a * b
    den = total * (a + b) - 2 * a * b
    if den == 0:
        one_per_row = np.all((counts > 0).sum(axis=1) == 1)
        one_per_col = np.all((counts > 0).sum(axis=0) == 1)
        return 1.0 if (one_per_row and one_per_col) else 0.0
    return num / den


def misclassification_rate(predicted, truth):
    """Fraction of objects whose predicted label differs from the true one.

    Both vectors must hold integers; unlike :func:`check_labels`, neither
    needs to cover every class.
    """
    p = np.asarray(predicted)
    t = np.asarray(truth)
    if p.ndim != 1 or t.ndim != 1 or p.shape != t.shape:
        raise ValueError("expected two equal-length 1-D label vectors")
    if p.shape[0] == 0:  # checked first: an empty list is a float array
        raise ValueError("label vectors are empty")
    for labels in (p, t):
        _check_dtype(labels, "labels", kinds="iu")
    return float(np.mean(p != t))
