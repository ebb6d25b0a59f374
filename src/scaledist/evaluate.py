"""Agreement metrics for partitions and classifiers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import check_labels

__all__ = ["ContingencyTable", "contingency_table", "adjusted_rand_index", "misclassification_rate"]


@dataclass(frozen=True)
class ContingencyTable:
    """Cross-counts of two partitions of the same objects."""

    counts: np.ndarray = field(repr=False)
    row_totals: np.ndarray = field(repr=False)
    col_totals: np.ndarray = field(repr=False)
    n: int = 0


def contingency_table(u, v):
    u, ku = check_labels(u)
    v, kv = check_labels(v, n_expected=u.shape[0])
    counts = np.bincount((u - 1) * kv + (v - 1), minlength=ku * kv).reshape(ku, kv)
    return ContingencyTable(
        counts=counts,
        row_totals=counts.sum(axis=1),
        col_totals=counts.sum(axis=0),
        n=int(u.shape[0]),
    )


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
    table = contingency_table(u, v)
    n = table.n
    if n < 2:
        raise ValueError("need at least 2 objects")
    together = _pairs(table.counts)
    a = _pairs(table.row_totals)
    b = _pairs(table.col_totals)
    total = n * (n - 1) // 2
    num = 2 * total * together - 2 * a * b
    den = total * (a + b) - 2 * a * b
    if den == 0:
        one_per_row = np.all((table.counts > 0).sum(axis=1) == 1)
        one_per_col = np.all((table.counts > 0).sum(axis=0) == 1)
        return 1.0 if (one_per_row and one_per_col) else 0.0
    return num / den


def misclassification_rate(predicted, truth):
    """Fraction of objects whose predicted label differs from the true one."""
    p = np.asarray(predicted)
    t = np.asarray(truth)
    if p.ndim != 1 or t.ndim != 1 or p.shape != t.shape:
        raise ValueError("expected two equal-length 1-D label vectors")
    if p.shape[0] == 0:
        raise ValueError("label vectors are empty")
    return float(np.mean(p != t))
