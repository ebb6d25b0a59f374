"""Minkowski distance aggregation over variables.

For order q >= 1 the distance between rows x and y is
(sum_l |x_l - y_l|**q) ** (1/q); q = inf takes the largest coordinate
difference.

One kernel serves every entry point.  It takes a block of absolute
differences d and reduces it for each requested order, so |x - y| is formed
once however many orders are asked for.  Each power sum is one ``np.einsum``
pass over the rows, never given ``optimize=``, so BLAS and its thread count
play no part: ``ij->i`` over d for q = 1 and over the shared square d2 = d*d
for q = 2, ``ij,ij->i`` over (d2, d) for q = 3 and (d2, d2) for q = 4, and
``ij->i`` over d**q for any other finite order.  d2 is formed once per block
when order 2, 3 or 4 is requested.  Only the pairs whose largest difference
m could overflow the power sum (p * m**q above the float range) or lose it
to underflow (m**q within a factor 2**52 of the smallest normal float) are
rescaled, with the same sums: for those, m * (sum (|x - y| / m)**q) ** (1/q).
So coordinate differences from about 1e150 down to subnormal sizes keep full
relative precision for any finite q.

One blocked loop feeds the kernel for every entry point.  It lists the
pairs as segments, one row against a run of rows (for pairwise distances row
j against rows 0..j-1, for cross distances one left row against every right
row), and writes their differences into a (rows, p) buffer of about
``_BLOCK_DIFFS`` values that is allocated once per call, together with the
buffer for d2 and, only when an order other than 1 to 4 or inf is requested,
one for d**q.  Each buffer starts on a 64-byte boundary: malloc promises only
16 bytes, and on AVX-512 cores numpy's stores into an output that starts mid
cache line run at about half speed, which slowed the passes that write d and
d2 up to twofold.  A segment may be split across two blocks.  In segment
order the pairs are the condensed vector and the row-major cross matrix, so
each block's distances fill one contiguous slice of the result.

Each order's value depends only on its pair of rows and q: never on which
other orders were requested alongside, on how rows are grouped into blocks,
on the input's layout or alignment, on the BLAS thread count, nor on where
the work buffers start.
``pairwise_orders`` and ``cross_orders`` validate once and return one result
per order; ``pairwise`` and ``cross`` are their single-order forms.  The
distance between two vectors x and y is ``cross([x], [y], q)[0, 0]``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .core import CondensedDistanceMatrix, _parse_number, check_data_matrix, condensed_size

__all__ = [
    "check_order",
    "parse_order",
    "format_order",
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
# _blocked_orders forms at most this many absolute differences per block (or
# one row of p when p is larger); two or three float64 buffers of this size
# are reused, each starting on a 64-byte boundary so that numpy's SIMD stores
# into them run at full speed
_BLOCK_DIFFS = 1 << 15
_TOO_LARGE = "aggregation order is too large for a float; use inf"


def check_order(q):
    """Validate an aggregation order: a real number q >= 1, or infinity.

    Returns it as a float.  Strings and booleans are refused, not converted;
    :func:`parse_order` reads orders from text.
    """
    if isinstance(q, bool) or not isinstance(q, numbers.Real):
        raise ValueError("aggregation order must be a number, got %r" % (q,))
    try:
        q = float(q)
    except OverflowError:
        raise ValueError(_TOO_LARGE) from None
    if math.isnan(q) or q < 1.0:
        raise ValueError("aggregation order must be >= 1 or inf, got %r" % (q,))
    return q


def parse_order(text):
    """Parse an aggregation order from a string.

    The text is a number in core's grammar.  Only 'inf' and 'infinity' (any
    case) give infinity; other text that overflows a float, such as '1e999',
    is a ValueError.
    """
    s = str(text).strip().lower()
    if s in ("inf", "infinity"):
        return math.inf
    try:
        q = _parse_number(s)
    except ValueError:
        raise ValueError("could not parse aggregation order %r" % (text,)) from None
    if q == math.inf:
        raise ValueError(_TOO_LARGE)
    return check_order(q)


def format_order(q):
    """Compact string for an order: '1', '2.5', 'inf'."""
    q = float(q)
    if math.isinf(q):
        return "inf"
    if q.is_integer():
        return str(int(q))
    return repr(q)


def _root(s, q):
    if q == 1.0:
        return s
    if q == 2.0:
        return np.sqrt(s)
    return s ** (1.0 / q)


def _power_sum(d, q, d2=None, out=None):
    # sum over the last axis of d**q, each order in one einsum pass (never
    # with optimize=, which could route it through BLAS); d2 = d*d may be
    # passed in precomputed, and out, shaped like d, takes the generic power
    if q == 1.0:
        return np.einsum("ij->i", d)
    if q in (2.0, 3.0, 4.0):
        if d2 is None:
            d2 = d * d
        if q == 2.0:
            return np.einsum("ij->i", d2)
        return np.einsum("ij,ij->i", d2, d if q == 3.0 else d2)
    return np.einsum("ij->i", np.power(d, q, out=out))


def _reduce_orders(d, orders, d2, prod):
    """Distances of every order from a (pairs, variables) block of |x - y|.

    ``d2`` and ``prod`` are work buffers shaped like ``d``; ``prod`` is None
    when every finite order is 1 to 4.  Returns one array of length ``pairs``
    per order.  Callers silence overflow and underflow warnings: the affected
    pairs are recomputed.
    """
    m = d.max(axis=-1)
    m_low, m_high = m.min(), m.max()
    p = d.shape[-1]
    if any(q in (2.0, 3.0, 4.0) for q in orders):
        np.multiply(d, d, out=d2)
    out = []
    for q in orders:
        if math.isinf(q):
            out.append(m)
            continue
        dist = _root(_power_sum(d, q, d2, prod), q)
        big, small = (_HUGE / p) ** (1.0 / q), _SMALL ** (1.0 / q)
        if m_high > big or m_low < small:  # else no pair needs the rescale test
            rescale = (m > big) | ((m > 0.0) & (m < small))
            if rescale.any():
                mr = m[rescale]
                dist[rescale] = mr * _root(_power_sum(d[rescale] / mr[:, None], q), q)
        out.append(dist)
    return out


def _aligned_empty(rows, p):
    # a C-contiguous (rows, p) float64 buffer whose first element starts on a
    # 64-byte boundary (see the module docstring); a slice of its first rows
    # starts there too
    buf = np.empty(rows * p + 7)
    start = (-(buf.ctypes.data // 8)) % 8
    return buf[start:start + rows * p].reshape(rows, p)


def _blocked_orders(segments, n_pairs, p, orders):
    """Distances of every order for ``n_pairs`` pairs listed as segments.

    ``segments`` yields (x, Y): row x against every row of Y, in result
    order.  Returns one flat array of length ``n_pairs`` per order.
    """
    rows = min(n_pairs, max(1, _BLOCK_DIFFS // p))
    d, d2 = _aligned_empty(rows, p), _aligned_empty(rows, p)
    generic = any(q not in (1.0, 2.0, 3.0, 4.0) and not math.isinf(q) for q in orders)
    prod = _aligned_empty(rows, p) if generic else None
    out = [np.empty(n_pairs) for _ in orders]
    done = filled = 0
    with np.errstate(over="ignore", under="ignore"):
        for x, Y in segments:
            start = 0
            while start < Y.shape[0]:
                take = min(Y.shape[0] - start, rows - filled)
                block = d[filled:filled + take]
                np.subtract(Y[start:start + take], x, out=block)
                np.abs(block, out=block)
                start += take
                filled += take
                if filled == rows or done + filled == n_pairs:
                    dists = _reduce_orders(d[:filled], orders, d2[:filled],
                                           None if prod is None else prod[:filled])
                    for o, dist in zip(out, dists):
                        o[done:done + filled] = dist
                    done += filled
                    filled = 0
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
    n, p = X.shape
    segments = ((X[j], X[:j]) for j in range(1, n))
    entries = _blocked_orders(segments, condensed_size(n), p, orders)
    return tuple(CondensedDistanceMatrix(n, e) for e in entries)


def cross_orders(X_left, X_right, orders):
    """Cross distances between two matrices for several orders at once.

    Returns a tuple of (n_left, n_right) arrays, one per entry of ``orders``,
    each equal bit for bit to ``cross(X_left, X_right, q)``.  The differences
    are formed in blocks of at most 2**15 values (one row when p is larger).
    """
    orders = tuple(check_order(q) for q in orders)
    A = check_data_matrix(X_left)
    B = check_data_matrix(X_right)
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            "variable count mismatch: %d vs %d" % (A.shape[1], B.shape[1])
        )
    n_right, p = B.shape
    flat = _blocked_orders(((a, B) for a in A), A.shape[0] * n_right, p, orders)
    return tuple(f.reshape(-1, n_right) for f in flat)


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
