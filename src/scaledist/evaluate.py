"""Agreement metrics for partitions and classifiers."""

from __future__ import annotations

import numpy as np

from .core import _check_dtype, check_labels

__all__ = ["adjusted_rand_index", "misclassification_rate"]


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
    u, _ = check_labels(u)
    v, kv = check_labels(v, n_expected=u.shape[0])
    if u.shape[0] < 2:
        raise ValueError("need at least 2 objects")
    return _ari_rows(u[None, :], v, kv)[0]


def _ari_rows(U, v, kv):
    """The adjusted Rand index of each row of ``U`` against ``v``.

    ``U`` is an (m, n) int64 array whose rows are partitions labelled from 1
    (a row may use fewer labels than another); ``v`` holds checked labels
    1..kv and n >= 2.  The cross-counts of every row come from one
    ``np.bincount``, each row's codes offset by its row, and the pair counts
    stay exact int64 sums; each row's ratio is formed in Python integers.
    """
    m, n = U.shape
    ku = int(U.max())
    codes = (U - 1) * kv + (v - 1) + np.arange(m)[:, None] * (ku * kv)
    counts = np.bincount(codes.ravel(), minlength=m * ku * kv).reshape(m, ku, kv)
    # pairs of objects together in both, in each row's clusters, in v's classes
    together = _pairs(counts, axis=(1, 2))
    a = _pairs(counts.sum(axis=2), axis=1)
    b = int(_pairs(np.bincount(v), axis=0))
    total = n * (n - 1) // 2
    scores = []
    for i, (t, ai) in enumerate(zip(together.tolist(), a.tolist())):
        num = 2 * total * t - 2 * ai * b
        den = total * (ai + b) - 2 * ai * b
        if den == 0:
            # labels a row leaves unused give empty rows of its counts
            present = counts[i] > 0
            one_per_row = np.all(present.sum(axis=1) <= 1)
            one_per_col = np.all(present.sum(axis=0) <= 1)
            scores.append(1.0 if (one_per_row and one_per_col) else 0.0)
        else:
            scores.append(num / den)
    return scores


def _pairs(counts, axis):
    # number of object pairs lying together: sum of c*(c-1)/2, exact integers
    return (counts * (counts - 1) // 2).sum(axis=axis)


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
