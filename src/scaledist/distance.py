"""Minkowski distance aggregation over variables.

For order q >= 1 the distance between rows x and y is
(sum_l |x_l - y_l|**q) ** (1/q); q = inf takes the largest coordinate
difference.

One kernel serves every entry point.  It takes a block of absolute
differences and reduces it for each requested order, so |x - y| is formed
once however many orders are asked for.  Orders 1 to 4 use direct power sums
(the square is shared by 2, 3 and 4); other finite orders use the generic
power.  Only the pairs whose largest difference m could overflow the power
sum (p * m**q above the float range) or lose it to underflow (m**q within a
factor 2**52 of the smallest normal float) are rescaled: for those,
m * (sum (|x - y| / m)**q) ** (1/q).  So coordinate differences from about
1e150 down to subnormal sizes keep full relative precision for any finite q.

Each order's value depends only on its pair of rows and q: never on which
other orders were requested alongside, nor on how rows are grouped into
blocks.  ``pairwise_orders`` and ``cross_orders`` validate once and return
one result per order; ``pairwise``, ``cross`` and ``minkowski`` are their
single-order forms.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CondensedDistanceMatrix, check_data_matrix, condensed_size

__all__ = [
    "check_order",
    "parse_order",
    "minkowski",
    "pairwise",
    "cross",
    "pairwise_orders",
    "cross_orders",
]

_HUGE = np.finfo(np.float64).max
# A power sum whose largest term is at least this loses nothing to subnormal
# terms: each carries an absolute error of at most 2**-1075, and p of them
# stay below p * 2**-105 of the sum.
_SMALL = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
# cross_orders forms about this many absolute differences per block
_BLOCK_DIFFS = 1 << 16


def check_order(q):
    """Validate an aggregation order: a real q >= 1, or infinity."""
    q = float(q)
    if math.isnan(q) or q < 1.0:
        raise ValueError("aggregation order must be >= 1 or inf, got %r" % (q,))
    return q


def parse_order(text):
    """Parse an aggregation order from a string; accepts 'inf'."""
    s = str(text).strip().lower()
    if s in ("inf", "infinity"):
        return math.inf
    try:
        q = float(s)
    except ValueError:
        raise ValueError("could not parse aggregation order %r" % (text,)) from None
    return check_order(q)


def format_order(q):
    """Compact string for an order: '1', '2.5', 'inf'."""
    q = float(q)
    if math.isinf(q):
        return "inf"
    if q == int(q):
        return str(int(q))
    return repr(q)


def _root(s, q):
    if q == 1.0:
        return s
    if q == 2.0:
        return np.sqrt(s)
    return s ** (1.0 / q)


def _power_sum(d, q, d2=None):
    # sum over the last axis of d**q; d2 = d*d may be passed in precomputed
    if q == 1.0:
        return d.sum(axis=-1)
    if q in (2.0, 3.0, 4.0):
        if d2 is None:
            d2 = d * d
        if q == 2.0:
            return d2.sum(axis=-1)
        return (d2 * (d if q == 3.0 else d2)).sum(axis=-1)
    return (d ** q).sum(axis=-1)


def _reduce_orders(d, orders):
    """Distances of every order from a (pairs, variables) block of |x - y|.

    Returns one array of length ``pairs`` per order.  Callers silence
    overflow and underflow warnings: the affected pairs are recomputed.
    """
    m = d.max(axis=-1)
    p = d.shape[-1]
    d2 = d * d if any(q in (2.0, 3.0, 4.0) for q in orders) else None
    out = []
    for q in orders:
        if math.isinf(q):
            out.append(m)
            continue
        dist = _root(_power_sum(d, q, d2), q)
        rescale = (m > (_HUGE / p) ** (1.0 / q)) | ((m > 0.0) & (m < _SMALL ** (1.0 / q)))
        if rescale.any():
            mr = m[rescale]
            dist[rescale] = mr * _root(_power_sum(d[rescale] / mr[:, None], q), q)
        out.append(dist)
    return out


def pairwise_orders(X, orders):
    """Pairwise distances between rows of X for several orders at once.

    Returns a tuple of :class:`CondensedDistanceMatrix`, one per entry of
    ``orders``, each equal bit for bit to ``pairwise(X, q)``.  The entries of
    row j against rows 0..j-1 fill the contiguous condensed slice
    [j(j-1)/2, j(j+1)/2), so no square matrix is formed.
    """
    orders = tuple(check_order(q) for q in orders)
    X = check_data_matrix(X, min_rows=2)
    n = X.shape[0]
    entries = [np.empty(condensed_size(n)) for _ in orders]
    with np.errstate(over="ignore", under="ignore"):
        for j in range(1, n):
            start = condensed_size(j)
            dists = _reduce_orders(np.abs(X[:j] - X[j]), orders)
            for e, dist in zip(entries, dists):
                e[start:start + j] = dist
    return tuple(CondensedDistanceMatrix(n, e) for e in entries)


def cross_orders(X_left, X_right, orders):
    """Cross distances between two matrices for several orders at once.

    Returns a tuple of (n_left, n_right) arrays, one per entry of ``orders``,
    each equal bit for bit to ``cross(X_left, X_right, q)``.  Rows of X_left
    are taken in blocks of about 2**16 coordinate differences.
    """
    orders = tuple(check_order(q) for q in orders)
    A = check_data_matrix(X_left)
    B = check_data_matrix(X_right)
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            "variable count mismatch: %d vs %d" % (A.shape[1], B.shape[1])
        )
    n_right, p = B.shape
    out = [np.empty((A.shape[0], n_right)) for _ in orders]
    step = max(1, _BLOCK_DIFFS // (n_right * p))
    with np.errstate(over="ignore", under="ignore"):
        for a in range(0, A.shape[0], step):
            d = np.abs(A[a:a + step, None, :] - B[None, :, :]).reshape(-1, p)
            for o, dist in zip(out, _reduce_orders(d, orders)):
                o[a:a + step] = dist.reshape(-1, n_right)
    return tuple(out)


def minkowski(x, y, q):
    """Minkowski distance of order q between two vectors.

    Parameters
    ----------
    x, y : array_like, 1-D, equal length, finite
    q : float >= 1 or inf

    Returns
    -------
    float
    """
    q = check_order(q)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("expected 1-D vectors")
    if x.shape != y.shape:
        raise ValueError("length mismatch: %d vs %d" % (x.shape[0], y.shape[0]))
    if x.shape[0] == 0:
        raise ValueError("vectors must be non-empty")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("vectors must be finite")
    with np.errstate(over="ignore", under="ignore"):
        return float(_reduce_orders(np.abs(x - y)[None, :], (q,))[0][0])


def pairwise(X, q):
    """All pairwise distances between rows of X, condensed.

    Returns a :class:`CondensedDistanceMatrix`.  The result is a deterministic
    function of X and q alone (same bytes on every run and thread count).
    """
    return pairwise_orders(X, (q,))[0]


def cross(X_left, X_right, q):
    """Distances between every row of X_left and every row of X_right.

    Returns an (n_left, n_right) array; entry (a, b) is the distance between
    row a of X_left and row b of X_right.  Column counts must match.
    """
    return cross_orders(X_left, X_right, (q,))[0]
