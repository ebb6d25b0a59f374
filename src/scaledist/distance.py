"""Minkowski distance aggregation over variables.

For order q >= 1 the distance between rows x and y is
(sum_l |x_l - y_l|**q) ** (1/q); q = inf takes the largest coordinate
difference.

One kernel serves every entry point.  It takes two matrices A and B and a
count per row of A, and computes row j of A against the first ``counts[j]``
rows of B, for each j in turn: for pairwise distances A = B = X and
counts[j] = j, for cross distances every count is the number of rows of B.
In that order the pairs are the condensed vector and the row-major cross
matrix, so the kernel fills one flat array per order.  One call can do
both: with A the rows of X (counts 0..n-1) followed by the rows of a test
matrix T (count n each) and B = X, each order's array holds X's condensed
pairs, then T's cross distances to X.  The kernel forms blocks of about
``_BLOCK_DIFFS`` absolute differences d, so |x - y| is formed once however
many orders are asked for; one row's run of pairs may be split across two
blocks.

The loop over blocks makes only the passes over each block's data.  It
subtracts against row j, copied once per row into a (rows, p) buffer so that
numpy runs one flat loop; takes ``abs``; writes each pair's largest
difference m, which is the q = inf distance, with one ``np.maximum.reduceat``
over the flat block at its row starts; forms d2 = d*d when order 2, 3
or 4 is requested; and fills the power sums, each with one ``np.einsum``
pass that writes into the call's sums and is never given ``optimize=``, so
BLAS and its thread count play no part.  One table gives each order's own
pass: ``ij->i`` over d for q = 1 and over d2 for q = 2, ``ij,ij->i`` over
(d2, d) for q = 3 and (d2, d2) for q = 4, and ``ij->i`` over d**q for any
other finite order.  When orders 1 and 2 are both requested, one ``kij->ki``
pass sums d and d2, which share one buffer; when 3 and 4 are, one
``ij,kij->ki`` pass sums d2 times each of them.

The rest runs once per call, over whole arrays: the roots, and the rescue.
A pair is rescaled when its largest difference m could overflow the power
sum (p * m**q above the float range) or lose it to underflow (m**q within a
factor 2**52 of the smallest normal float), or when its power sum did round
to inf.  The rescue finds a pair's rows from its position alone: with row
j's pairs starting at ``starts[j] = counts[0] + ... + counts[j-1]``, the
pair at position c is row j of A, the last j with starts[j] <= c, against
row c - starts[j] of B.  It recomputes the pair as
m * (sum (|x - y| / m)**q) ** (1/q), with the order's pass from the same
table.  So coordinate differences from about 1e150 down to subnormal sizes
keep full relative precision for any finite q; a coordinate difference that
itself overflows gives inf.

The work buffers are allocated once per call: one for d and d2, one for the
tiled row and, only when an order other than 1 to 4 or inf is requested,
one for d**q.  Each of d, d2, the tiled row and d**q starts on a 64-byte
boundary: malloc promises only 16 bytes, and on AVX-512 cores numpy's
stores into an output that starts mid cache line run at about half speed,
which slowed the passes that write d and d2 up to twofold.

Each order's value depends only on its pair of rows and q: never on which
other orders were requested alongside, on how rows are grouped into blocks,
on the input's layout or alignment, on the BLAS thread count, nor on where
the work buffers start.
``pairwise_orders`` and ``cross_orders`` return one result per order, and
the harness asks for a standardisation's pairs and cross distances together;
all three go through one private function, which validates once.
``pairwise`` and ``cross`` are the single-order forms.  The
distance between two vectors x and y is ``cross([x], [y], q)[0, 0]``.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from .core import CondensedDistanceMatrix, _parse_number, check_data_matrix

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
# one row of p when p is larger); its float64 work buffers of this size (d and
# d2 as the halves of one buffer, the tiled row, d**q) are reused, each
# starting on a 64-byte boundary so that numpy's SIMD stores into them run at
# full speed
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


def _root(s, q, out=None):
    if q == 1.0:
        return s
    if q == 2.0:
        return np.sqrt(s, out=out)
    return np.power(s, 1.0 / q, out=out)


def _pass(q, d, d2, prod):
    # the einsum (spec, operands) that sums d**q over each row for order q
    # alone, given d, its square d2 and, for other orders, prod = d**q; never
    # run with optimize=, which could route it through BLAS
    if q == 1.0:
        return "ij->i", (d,)
    if q == 2.0:
        return "ij->i", (d2,)
    if q == 3.0:
        return "ij,ij->i", (d2, d)
    if q == 4.0:
        return "ij,ij->i", (d2, d2)
    return "ij->i", (prod,)


def _aligned_empty(size):
    # a float64 buffer of size values whose first element starts on a 64-byte
    # boundary (see the module docstring)
    buf = np.empty(size + 7)
    start = (-(buf.ctypes.data // 8)) % 8
    return buf[start:start + size]


def _blocked_orders(parts, B, counts, orders):
    """Distances of every order between row j of A and the first
    ``counts[j]`` rows of B, for each j in turn, where A is the rows of the
    matrices in ``parts`` taken in turn (so the loop never copies them into one).

    Returns one flat array per order, the pairs in that order.
    """
    n_pairs, p = int(counts.sum()), B.shape[1]
    rows = min(n_pairs, max(1, _BLOCK_DIFFS // p))
    size = rows * p
    half = -(-size // 8) * 8  # so that d2 starts on a 64-byte boundary too
    pair = _aligned_empty(2 * half).reshape(2, half)[:, :size].reshape(2, rows, p)
    d, d2 = pair
    tile = _aligned_empty(size).reshape(rows, p)
    finite = sorted({q for q in orders if not math.isinf(q)})
    powered = [q for q in finite if q not in (1.0, 2.0, 3.0, 4.0)]
    prod = _aligned_empty(size).reshape(rows, p) if powered else None
    m = np.empty(n_pairs)
    # one einsum per block for each pass: (power, spec, operands, sums), where
    # a power fills prod with d**power first; orders 1 and 2, and orders 3
    # and 4, share a pass when both are requested
    sums, passes = {}, []
    for a, b, spec, ops in ((1.0, 2.0, "kij->ki", (pair,)), (3.0, 4.0, "ij,kij->ki", (d2, pair))):
        if a in finite and b in finite:
            sums[a], sums[b] = both = np.empty((2, n_pairs))
            passes.append((None, spec, ops, both))
    for q in finite:
        if q not in sums:
            sums[q] = np.empty(n_pairs)
            passes.append((q if q in powered else None, *_pass(q, d, d2, prod), sums[q]))
    squares = any(q in (2.0, 3.0, 4.0) for q in finite)
    row_starts = np.arange(0, size, p)  # where each row of a block starts in d
    done = filled = 0
    with np.errstate(over="ignore", under="ignore"):
        for x, count in zip(itertools.chain.from_iterable(parts), counts.tolist()):
            tile[:min(rows, count)] = x  # so that subtract runs one flat loop
            start = 0
            while start < count:
                take = min(count - start, rows - filled)
                np.subtract(B[start:start + take], tile[:take], out=d[filled:filled + take])
                start += take
                filled += take
                if filled == rows or done + filled == n_pairs:
                    block = d[:filled]
                    np.abs(block, out=block)
                    np.maximum.reduceat(block.reshape(-1), row_starts[:filled],
                                        out=m[done:done + filled])
                    if squares:
                        np.multiply(block, block, out=d2[:filled])
                    for power, spec, ops, out in passes:
                        if power is not None:
                            np.power(block, power, out=prod[:filled])
                        np.einsum(spec, *[o[..., :filled, :] for o in ops],
                                  out=out[..., done:done + filled])
                    done += filled
                    filled = 0
        # Once per call: roots, then the rescue.  A pair whose largest
        # difference m could overflow its power sum or lose it to underflow,
        # or whose sum did overflow, is recomputed from its two rows as
        # m * (sum (|x - y| / m)**q) ** (1/q); a difference that itself
        # overflowed leaves the distance inf.
        results = {math.inf: m}
        for q, s in sums.items():
            _root(s, q, out=s)
            big, small = (_HUGE / p) ** (1.0 / q), _SMALL ** (1.0 / q)
            rescue = (m > big) | ((m > 0.0) & (m < small)) | np.isinf(s)
            idx = np.flatnonzero(rescue & (m < np.inf))
            if idx.size:
                starts = np.cumsum(counts) - counts
                j = np.searchsorted(starts, idx, "right") - 1
                mr = m[idx]
                r = np.abs(B[idx - starts[j]] - np.concatenate(parts)[j]) / mr[:, None]
                spec, ops = _pass(q, r, r * r, np.power(r, q))
                s[idx] = mr * _root(np.einsum(spec, *ops), q)
            results[q] = s
    return [results[q] if orders.index(q) == k else results[q].copy()
            for k, q in enumerate(orders)]


def _pairs_and_cross(X, T, orders, pairs=True):
    """Distances of every order, from one kernel call: the pairs of rows of
    X when ``pairs``, and the cross distances of the rows of T against the
    rows of X when T is given.

    Returns (pair distances, cross distances): a tuple with one
    :class:`CondensedDistanceMatrix` per order, or None without ``pairs``;
    and a tuple with one (n_T, n_X) array per order, or None without T.  The
    kernel's A is the rows of X with counts 0..n_X - 1, then the rows of T
    with count n_X, against B = X.  A pair part that shares its order's
    array with a cross part is copied, so that keeping it does not keep the
    cross distances.
    """
    orders = tuple(check_order(q) for q in orders)
    T = None if T is None else check_data_matrix(T)
    X = check_data_matrix(X, min_rows=2 if pairs else 1)
    n = X.shape[0]
    if T is not None and T.shape[1] != X.shape[1]:
        raise ValueError("variable count mismatch: %d vs %d" % (T.shape[1], X.shape[1]))
    parts, counts = [], []
    if pairs:
        parts.append(X)
        counts.append(np.arange(n))
    if T is not None:
        parts.append(T)
        counts.append(np.full(T.shape[0], n))
    flat = _blocked_orders(parts, X, np.concatenate(counts), orders)
    n_pairs = n * (n - 1) // 2 if pairs else 0
    pair_ds = cross = None
    if pairs:
        pair_ds = tuple(CondensedDistanceMatrix(n, f if T is None else f[:n_pairs].copy())
                        for f in flat)
    if T is not None:
        cross = tuple(f[n_pairs:].reshape(-1, n) for f in flat)
    return pair_ds, cross


def pairwise_orders(X, orders):
    """Pairwise distances between rows of X for several orders at once.

    Returns a tuple of :class:`CondensedDistanceMatrix`, one per entry of
    ``orders``, each equal bit for bit to ``pairwise(X, q)``.  The entries of
    row j against rows 0..j-1 fill the contiguous condensed slice
    [j(j-1)/2, j(j+1)/2), so no square matrix is formed.
    """
    return _pairs_and_cross(X, None, orders)[0]


def cross_orders(X_left, X_right, orders):
    """Cross distances between two matrices for several orders at once.

    Returns a tuple of (n_left, n_right) arrays, one per entry of ``orders``,
    each equal bit for bit to ``cross(X_left, X_right, q)``.  The differences
    are formed in blocks of at most 2**15 values (one row when p is larger).
    """
    return _pairs_and_cross(X_right, X_left, orders, pairs=False)[1]


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
