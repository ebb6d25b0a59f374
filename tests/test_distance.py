"""Minkowski aggregation and distance-matrix construction."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from oracles import fsum_minkowski, naive_cross, naive_minkowski, naive_pairwise_square
from scaledist import distance
from scaledist.core import CondensedDistanceMatrix, condensed_index
from scaledist.distance import (
    _BLOCK_DIFFS,
    check_order,
    cross,
    cross_orders,
    format_order,
    pairwise,
    pairwise_orders,
    parse_order,
)

ORDERS = (1.0, 2.0, 3.0, 4.0, math.inf)


def pair_distance(x, y, q):
    # the distance between two vectors, as one entry of cross
    return float(cross([x], [y], q)[0, 0])


def test_minkowski_examples():
    a = np.array([0.0, 0.0])
    b = np.array([3.0, 4.0])
    assert pair_distance(a, b, 1) == 7.0
    assert pair_distance(a, b, 2) == 5.0
    assert pair_distance(a, b, math.inf) == 4.0
    assert pair_distance(a, b, 3) == pytest.approx(91.0 ** (1.0 / 3.0), rel=1e-15)


def test_minkowski_identity_and_symmetry():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(12)
    y = rng.standard_normal(12)
    for q in ORDERS:
        assert pair_distance(x, x, q) == 0.0
        assert pair_distance(x, y, q) == pair_distance(y, x, q)


def test_minkowski_input_validation():
    with pytest.raises(ValueError):
        pair_distance([1.0, 2.0], [1.0], 2)
    with pytest.raises(ValueError):
        pair_distance([], [], 2)
    with pytest.raises(ValueError):
        pair_distance([np.nan], [0.0], 2)
    with pytest.raises(ValueError):
        pair_distance([1.0], [0.0], 0.5)


def test_order_parsing_and_formatting():
    assert parse_order("1") == 1.0
    assert parse_order("2.5") == 2.5
    assert parse_order("inf") == math.inf
    assert parse_order("infinity") == math.inf
    assert format_order(1.0) == "1"
    assert format_order(2.5) == "2.5"
    assert format_order(math.inf) == "inf"
    with pytest.raises(ValueError):
        parse_order("0.3")
    with pytest.raises(ValueError):
        check_order(-1.0)


def test_text_orders_that_overflow_a_float_are_refused():
    # float("1e999") is inf: these were read as q = inf
    for text in ("1e999", "1" + "0" * 400, " 2E400 ", "+inf"):
        with pytest.raises(ValueError, match="too large for a float; use inf"):
            parse_order(text)
    with pytest.raises(ValueError, match=">= 1 or inf"):
        parse_order("-1e999")


def test_matches_naive_oracle():
    rng = np.random.default_rng(2)
    for q in ORDERS + (2.5,):
        X = rng.standard_normal((6, 5)) * 10
        D = pairwise(X, q)
        naive = naive_pairwise_square(X, q)
        assert_allclose(D.to_square(), naive, rtol=1e-12, atol=0)
        A = rng.standard_normal((3, 4))
        B = rng.standard_normal((5, 4))
        assert_allclose(cross(A, B, q), naive_cross(A, B, q), rtol=1e-12, atol=0)


def test_pairwise_entry_order():
    X = np.array([[0.0], [1.0], [3.0]])
    D = pairwise(X, 1)
    assert_array_equal(D.entries, [1.0, 3.0, 2.0])
    assert D.get(0, 2) == 3.0


def test_pairwise_identical_rows():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [4.0, 6.0]])
    D = pairwise(X, 2)
    assert D.get(0, 1) == 0.0
    assert D.get(0, 2) == 5.0


def test_cross_of_matrix_with_itself_has_zero_diagonal():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((7, 4))
    C = cross(X, X, 3)
    assert_array_equal(np.diag(C), np.zeros(7))
    single = cross(X[:1], X[1:2], 1)
    assert single.shape == (1, 1)
    assert single[0, 0] == pytest.approx(naive_minkowski(X[0], X[1], 1), rel=1e-15)


def test_cross_rejects_width_mismatch():
    with pytest.raises(ValueError):
        cross(np.ones((2, 3)), np.ones((2, 4)), 2)


def test_triangle_inequality():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((3000, 8)) * np.array([1, 1, 10, 100, 1, 1, 1, 1e4])
    for q in ORDERS:
        for _ in range(2000):
            i, j, k = rng.integers(0, X.shape[0], size=3)
            dij = pair_distance(X[i], X[j], q)
            djk = pair_distance(X[j], X[k], q)
            dik = pair_distance(X[i], X[k], q)
            assert dik <= dij + djk + 1e-9


def test_monotone_in_q_with_infinity_bounds():
    rng = np.random.default_rng(5)
    p = 11
    for _ in range(200):
        x = rng.standard_normal(p) * 5
        y = rng.standard_normal(p) * 5
        d_inf = pair_distance(x, y, math.inf)
        prev = None
        for q in (1.0, 2.0, 3.0, 4.0, 8.0):
            d = pair_distance(x, y, q)
            if prev is not None:
                assert d <= prev + 1e-12
            assert d_inf <= d + 1e-12
            assert d <= p ** (1.0 / q) * d_inf * (1 + 1e-12)
            prev = d


def test_overflow_safety():
    # naive power sums overflow at 1e150 for q >= 3; the rescaled form must not
    x = np.array([1e150, 2e150, 0.0])
    y = np.array([0.0, 0.0, 0.0])
    d3 = pair_distance(x, y, 3)
    assert math.isfinite(d3)
    assert d3 == pytest.approx((1.0 + 8.0) ** (1.0 / 3.0) * 1e150, rel=1e-10)
    d4 = pair_distance(x, y, 4)
    assert d4 == pytest.approx((1.0 + 16.0) ** (0.25) * 1e150, rel=1e-10)
    D = pairwise(np.vstack([x, y]), 4)
    assert np.isfinite(D.entries).all()


def test_zero_vectors_and_tiny_values():
    assert pair_distance([0.0, 0.0], [0.0, 0.0], 3) == 0.0
    assert pair_distance([1e-300], [0.0], 4) == pytest.approx(1e-300, rel=1e-12, abs=0)


def test_column_sign_flip_invariance():
    # distances depend on |differences| only
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10, 5))
    flip = X * np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    for q in ORDERS:
        assert_array_equal(pairwise(X, q).entries, pairwise(flip, q).entries)


def test_pairwise_returns_condensed_type():
    X = np.random.default_rng(7).standard_normal((5, 3))
    D = pairwise(X, 2)
    assert isinstance(D, CondensedDistanceMatrix)
    assert D.n == 5


def test_multi_order_results_equal_single_order_calls():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((9, 6)) * np.array([1e-3, 1, 10, 1e3, 1, 5])
    T = rng.standard_normal((4, 6))
    orders = ORDERS + (2.5, 1.0)
    for together in (orders, orders[::-1]):
        for q, D, C in zip(together, pairwise_orders(X, together),
                           cross_orders(T, X, together)):
            assert_array_equal(D.entries, pairwise(X, q).entries)
            assert_array_equal(C, cross(T, X, q))
    assert pairwise_orders(X, ()) == () and cross_orders(T, X, ()) == ()


def test_multi_order_drivers_validate_inputs():
    X = np.ones((3, 2))
    with pytest.raises(ValueError, match="order"):
        pairwise_orders(X, (1.0, 0.5))
    with pytest.raises(ValueError, match="order"):
        cross_orders(X, X, (math.nan,))
    with pytest.raises(ValueError, match="mismatch"):
        cross_orders(X, np.ones((3, 3)), (1.0,))
    with pytest.raises(ValueError, match="row"):
        pairwise_orders(X[:1], (1.0,))


@pytest.mark.parametrize("block_diffs", [4 * 7, 1 << 15])
def test_pairs_and_cross_in_one_call_equal_the_separate_calls(monkeypatch, block_diffs):
    # the harness's one kernel call per standardisation: the pairs of X, then
    # the rows of T against X, equal bit for bit to pairwise_orders and
    # cross_orders, with rescued pairs (differences near 1e150 and at
    # subnormal scale) in each part; with blocks of 4 pairs, one block holds
    # the last 3 of the 15 pairs and the first cross distance
    monkeypatch.setattr(distance, "_BLOCK_DIFFS", block_diffs)
    rng = np.random.default_rng(23)
    X, T = rng.standard_normal((6, 7)), rng.standard_normal((4, 7))
    X[1] *= 1e150
    X[4], X[5] = 0.0, 1e-300 * rng.standard_normal(7)
    T[0] *= 1e150
    T[2] = 1e-300 * rng.standard_normal(7)
    orders = ORDERS + (2.5, 1.0)
    pairs, crossed = pairwise_orders(X, orders), cross_orders(T, X, orders)
    both = distance._pairs_and_cross(X, T, orders)
    assert distance._pairs_and_cross(X, None, orders)[1] is None
    assert distance._pairs_and_cross(X, T, orders, pairs=False)[0] is None
    for got_pairs, got_cross in [both, (distance._pairs_and_cross(X, None, orders)[0],
                                        distance._pairs_and_cross(X, T, orders, pairs=False)[1])]:
        for D, C, expected_D, expected_C in zip(got_pairs, got_cross, pairs, crossed):
            assert isinstance(D, CondensedDistanceMatrix) and D.n == 6
            assert_array_equal(D.entries, expected_D.entries)
            assert_array_equal(C, expected_C)
            # the pair part is an array of its own: keeping it does not keep
            # the array that holds the cross distances
            assert not np.shares_memory(D.entries, C.base)
    for q, D, C in zip(orders, *both):
        assert_array_equal(D.entries, [pair_distance(X[j], X[i], q)
                                       for j in range(1, 6) for i in range(j)])
        assert_array_equal(C, [[pair_distance(t, x, q) for x in X] for t in T])
    with pytest.raises(ValueError, match="^variable count mismatch: 6 vs 7$"):
        distance._pairs_and_cross(X, T[:, :6], orders)
    with pytest.raises(ValueError, match="row"):
        distance._pairs_and_cross(X[:1], T, orders)


def test_cross_with_itself_equals_pairwise_square():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((12, 7)) * 3
    X[4] = X[2]  # a zero distance off the diagonal
    for q in ORDERS + (2.5,):
        assert_array_equal(cross(X, X, q), pairwise(X, q).to_square())


def test_cross_spanning_several_blocks_with_a_ragged_last_block():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((21, 200))
    B = rng.standard_normal((40, 200))
    # at least three blocks, a partly filled last one, and a segment (one row
    # of A against all of B) split across two blocks
    rows = max(1, _BLOCK_DIFFS // A.shape[1])
    pairs = A.shape[0] * B.shape[0]
    assert pairs > 2 * rows and pairs % rows and rows % B.shape[0]
    for q, C in zip(ORDERS, cross_orders(A, B, ORDERS)):
        by_row = np.vstack([cross(A[a:a + 1], B, q) for a in range(A.shape[0])])
        assert_array_equal(C, by_row)
        assert_allclose(C, naive_cross(A, B, q), rtol=1e-12, atol=0)


@pytest.mark.parametrize("block_diffs", [3, 35])
def test_pairwise_blocks_equal_one_row_at_a_time(monkeypatch, block_diffs):
    rng = np.random.default_rng(17)
    X = rng.standard_normal((13, 7))
    X[::4] *= 1e150  # rescaled pairs in many blocks, next to direct ones
    X[2] *= 1e-300
    orders = ORDERS + (2.5,)
    # row j against rows 0..j-1, each in a block of its own
    by_row = [np.concatenate([cross(X[j:j + 1], X[:j], q)[0] for j in range(1, 13)])
              for q in orders]
    monkeypatch.setattr(distance, "_BLOCK_DIFFS", block_diffs)
    # blocks of 1 row (p above the block size) or 5 rows: 78 pairs give a
    # ragged last block, and rows 6..12 are split across blocks
    rows = max(1, block_diffs // X.shape[1])
    assert rows in (1, 5)
    for D, expected in zip(pairwise_orders(X, orders), by_row):
        assert_array_equal(D.entries, expected)


def test_results_do_not_depend_on_memory_layout():
    rng = np.random.default_rng(18)
    X = rng.standard_normal((12, 300))
    Y = rng.standard_normal((9, 300))
    XF, YF = np.asfortranarray(X), np.asfortranarray(Y)
    for q, C, D in zip(ORDERS, cross_orders(XF, YF, ORDERS), pairwise_orders(XF, ORDERS)):
        assert_array_equal(C, cross(X, Y, q))
        assert_array_equal(D.entries, pairwise(X, q).entries)


# byte offsets past a 64-byte boundary: mid cache line, and off the 16-byte
# alignment of np.empty
_OFFSETS = (8, 16, 24, 32, 48)


def _empty_at(shape, offset):
    # an uninitialised C-contiguous float64 array whose first element starts
    # offset bytes past a 64-byte boundary
    size = math.prod(shape)
    buf = np.empty(size + 7)
    start = (offset - buf.ctypes.data) % 64 // 8
    B = buf[start:start + size].reshape(shape)
    assert B.ctypes.data % 64 == offset
    return B


def _misaligned(A, offset):
    B = _empty_at(A.shape, offset)
    B[...] = A
    return B


class _KernelCalls:
    # stands in for numpy inside the distance module and records the arrays
    # the blocked loop writes or reads: the tiled row it subtracts, each
    # block's d (abs), d2 (multiply) and d**q (power), and what einsum sums
    def __init__(self):
        self.tiles, self.blocks, self.squares, self.powers, self.summed = [], [], [], [], []

    def __getattr__(self, name):
        return getattr(np, name)

    def subtract(self, Y, tile, out):
        self.tiles.append(tile)
        return np.subtract(Y, tile, out=out)

    def abs(self, d, out):
        self.blocks.append(d)
        return np.abs(d, out=out)

    def multiply(self, d, e, out):
        self.squares.append(out)
        return np.multiply(d, e, out=out)

    def power(self, d, q, out):
        if out.ndim == 2:  # not a root, taken in place over a call's sums
            self.powers.append(out)
        return np.power(d, q, out=out)

    def einsum(self, spec, *operands, out):
        # a (2, rows, p) operand holds d and d2: both halves count
        self.summed += [h for o in operands for h in (o if o.ndim == 3 else [o])]
        return np.einsum(spec, *operands, out=out)


@pytest.mark.parametrize("p", [127, 200, 500])
def test_work_buffers_start_on_a_cache_line(monkeypatch, p):
    # every block's d, d2, tiled row and d**q start on a 64-byte boundary,
    # with many rows per block and with one row per block (a block size
    # below p)
    rng = np.random.default_rng(p)
    X, T = rng.standard_normal((6, p)), rng.standard_normal((3, p))
    orders = (1.0, 2.0, 2.5)  # 2.5 needs the d**q buffer
    # rows per block: 15 pairwise and 18 cross pairs, one block per row or
    # one block per call
    for block_diffs, rows in ((p - 1, [1] * (15 + 18)), (_BLOCK_DIFFS, [15, 18])):
        monkeypatch.setattr(distance, "_BLOCK_DIFFS", block_diffs)
        calls = _KernelCalls()
        monkeypatch.setattr(distance, "np", calls)
        pairwise_orders(X, orders)
        cross_orders(T, X, orders)
        monkeypatch.setattr(distance, "np", np)
        assert [d.shape[0] for d in calls.blocks] == rows
        assert [d2.shape[0] for d2 in calls.squares] == rows
        assert [prod.shape[0] for prod in calls.powers] == rows
        assert len(calls.tiles) >= len(rows) and len(calls.summed) == 3 * len(rows)
        buffers = calls.tiles + calls.blocks + calls.squares + calls.powers + calls.summed
        assert all(b.ctypes.data % 64 == 0 for b in buffers)


def test_replicate_records_do_not_depend_on_where_the_work_buffers_start(monkeypatch):
    from scaledist.harness import EXPERIMENT_METHODS, run_replicate
    from scaledist.simgen import setup_catalog
    from scaledist.standardise import METHODS

    spec = setup_catalog()["ntn_05"].with_size(p=129, n_per_class=8)
    orders = (1.0, 2.0, 2.5, math.inf)

    def values():
        records = run_replicate(spec, "ntn_05", 0, 5, METHODS, orders, EXPERIMENT_METHODS)
        return records, [float(r.value).hex() for r in records]

    aligned = values()
    assert len(aligned[0]) == len(METHODS) * len(orders) * len(EXPERIMENT_METHODS)
    for offset in _OFFSETS:
        made = []

        def empty_at(size, offset=offset):
            made.append(size)
            return _empty_at((size,), offset)

        monkeypatch.setattr(distance, "_aligned_empty", empty_at)
        assert values() == aligned
        assert made


@pytest.mark.parametrize("p", [127, 129, 500])
def test_each_pair_gets_its_bits_alone_whatever_the_call(monkeypatch, p):
    # widths that reach the SIMD loops, with odd widths putting the rows of a
    # block at every alignment: every order of every pair must equal the value
    # the pair gets alone, whatever the block size, the input's alignment (at
    # each offset in a cache line) and the other orders requested
    rng = np.random.default_rng(p)
    X = rng.standard_normal((7, p))
    X[3] *= 1e150  # rescaled pairs next to direct ones
    X[5:] *= 1e-300  # and pairs whose power sums underflow
    T = rng.standard_normal((4, p))
    T[1] *= 1e-300
    orders = ORDERS + (2.5, 1.5, 7.0)
    alone = {q: (np.array([pair_distance(X[j], X[i], q) for j in range(1, 7) for i in range(j)]),
                 np.array([[pair_distance(t, x, q) for x in X] for t in T]))
             for q in orders}
    # single orders, fused pairs (1 with 2, 3 with 4), pairs that are not, and
    # orders other than 1 to 4 taking turns with the d**q buffer
    requests = [(q,) for q in orders] + [orders, orders[::-1], (1.0, 2.0), (3.0, 4.0),
                                         (2.0, 4.0), (1.0, 3.0), (4.0, 3.0, 2.0, 1.0),
                                         (2.5, 1.0, math.inf), (1.5, 2.5), (2.5, 1.5, 7.0)]
    for block_diffs in (1, 3 * p, 5 * p + 1, 1 << 15):
        monkeypatch.setattr(distance, "_BLOCK_DIFFS", block_diffs)
        for A, B in [(X, T)] + [(_misaligned(X, b), _misaligned(T, b)) for b in _OFFSETS]:
            for requested in requests:
                for q, D, C in zip(requested, pairwise_orders(A, requested),
                                   cross_orders(B, A, requested)):
                    assert_array_equal(D.entries, alone[q][0])
                    assert_array_equal(C, alone[q][1])


def test_wide_rows_match_an_exactly_summed_oracle():
    rng = np.random.default_rng(19)
    X = rng.standard_normal((4, 2000)) * rng.uniform(0.1, 10.0, 2000)
    T = rng.standard_normal((3, 2000))
    orders = ORDERS + (2.5,)
    for q, D, C in zip(orders, pairwise_orders(X, orders), cross_orders(T, X, orders)):
        assert_allclose(D.to_square(), [[fsum_minkowski(x, y, q) for y in X] for x in X],
                        rtol=1e-12, atol=0)
        assert_allclose(C, [[fsum_minkowski(t, x, q) for x in X] for t in T],
                        rtol=1e-12, atol=0)


_DIGEST_CHILD = r"""
import hashlib, math
import numpy as np
from scaledist.distance import cross_orders, pairwise_orders
rng = np.random.default_rng(20)
X, T = rng.standard_normal((40, 300)), rng.standard_normal((30, 300))
orders = (1.0, 2.0, 3.0, 4.0, math.inf, 2.5)
digest = hashlib.sha256()
for D, C in zip(pairwise_orders(X, orders), cross_orders(T, X, orders)):
    digest.update(D.entries.tobytes())
    digest.update(C.tobytes())
print(digest.hexdigest())
"""


def test_distances_do_not_depend_on_blas_threads():
    # a matmul or einsum(optimize=...) route would hand the sums to BLAS,
    # whose blocking, and so whose rounding, follows the thread count
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", _DIGEST_CHILD], env=env,
                                capture_output=True, text=True, timeout=60, check=True)
        digests.append(result.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


# Coordinates on a coarse grid: scaling by s rounds every coordinate, and a
# difference that nearly cancels would magnify that rounding.  With |x| <= 100
# and differences >= 0.25 the magnification stays below 400.
_GRID_MATRICES = arrays(
    np.int64,
    st.tuples(st.integers(2, 7), st.integers(1, 6)),
    elements=st.integers(-400, 400),
).map(lambda a: a / 4.0)


@settings(max_examples=60, deadline=None)
@given(X=_GRID_MATRICES, s=st.sampled_from([1e150, 1e-300]),
       q=st.sampled_from(ORDERS + (2.5,)), data=st.data())
def test_homogeneity_and_oracle_with_rows_of_extreme_magnitude(X, s, q, data):
    n = X.shape[0]
    D = pairwise(X, q).to_square()
    assert_allclose(pairwise(s * X, q).to_square(), s * D, rtol=1e-12, atol=0)

    # scale some rows only, so a block mixes rescaled and direct pairs
    big = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    M = np.where(big[:, None], s * X, X)
    DM = pairwise(M, q).to_square()
    assert_array_equal(cross(M, M, q), DM)
    both = big[:, None] & big[None, :]
    neither = ~big[:, None] & ~big[None, :]
    assert_allclose(DM[both], s * D[both], rtol=1e-12, atol=0)
    assert_array_equal(DM[neither], D[neither])

    # the naive sum is trustworthy where its largest term neither overflows
    # nor underflows, and the sum stays finite
    largest = cross(M, M, math.inf)
    with np.errstate(over="ignore", under="ignore"):
        top = largest if math.isinf(q) else largest ** q
    usable = np.isfinite(top) & ((largest == 0) | (top >= np.finfo(float).tiny))
    for i, j in zip(*np.nonzero(usable)):
        naive = naive_pairwise_square(M[[i, j]], q)[0, 1]
        if math.isfinite(naive):
            assert DM[i, j] == pytest.approx(naive, rel=1e-12, abs=0)


def test_tiny_differences_keep_their_size():
    # m**q underflows to zero here; the rescaled sum must not
    for q in ORDERS + (2.5,):
        assert pair_distance([1e-300, 0.0], [0.0, 0.0], q) == 1e-300
        assert pairwise(np.array([[3e-200], [0.0]]), q).entries[0] == 3e-200


def test_power_sums_that_round_to_inf_just_below_the_rescue_threshold_are_rescued():
    # m at, or up to three floats below, (max float / p) ** (1/q) passed the
    # rescue test, though p * m**q still rounded to inf
    for p in (1, 2, 3, 5, 7, 100, 500, 2000):
        for q in (2.0, 3.0, 4.0, 2.5, 1.5, 7.0):
            m = (np.finfo(float).max / p) ** (1.0 / q)
            for _ in range(4):
                got = pair_distance(np.full(p, m), np.zeros(p), q)
                assert got == pytest.approx(m * p ** (1.0 / q), rel=1e-12, abs=0)
                m = np.nextafter(m, 0.0)
    assert cross([np.full(3, 8.798296151866654e+76)], [np.zeros(3)], 4)[0, 0] < math.inf


def test_a_coordinate_difference_that_overflows_gives_inf():
    orders = (1.0, 2.0, 3.0, 4.0, 2.5, math.inf)
    for C in cross_orders([[1e308, 0.0]], [[-1e308, 0.0]], orders):
        assert C[0, 0] == math.inf
    with pytest.raises(ValueError, match="distances must be finite"):
        pairwise([[1e308, 0.0], [-1e308, 0.0]], 2.5)


def test_a_rescued_pair_gets_its_bits_alone_at_any_position(monkeypatch):
    # the one pair of a zero row and a row of size 1e-300 is rescued after
    # the loop; with 5 rows per block it sits at every position: first and
    # last in a block, in one row's run of pairs split across blocks, and in
    # the ragged last block
    rng = np.random.default_rng(21)
    p, orders = 7, ORDERS + (2.5,)
    monkeypatch.setattr(distance, "_BLOCK_DIFFS", 5 * p)
    n = 13  # 78 pairs: blocks of 5, the last one of 3
    # pair (j, i) of condensed position c, in core's order
    for c, (j, i) in enumerate(zip(*np.nonzero(np.tri(n, k=-1, dtype=bool)))):
        assert c == condensed_index(i, j, n)
        X = rng.standard_normal((n, p))
        X[i], X[j] = 0.0, 1e-300 * rng.standard_normal(p)
        for q, D in zip(orders, pairwise_orders(X, orders)):
            assert_array_equal(D.entries, [pair_distance(X[b], X[a], q)
                                           for b in range(1, n) for a in range(b)])
            assert D.entries[c] == pytest.approx(fsum_minkowski(X[i] * 1e300, X[j] * 1e300, q)
                                                 * 1e-300, rel=1e-12, abs=0)
    n_left, n_right = 6, 4  # 24 pairs: blocks of 5, the last one of 4
    for c in range(n_left * n_right):
        a, b = divmod(c, n_right)
        A, B = rng.standard_normal((n_left, p)), rng.standard_normal((n_right, p))
        A[a], B[b] = 0.0, 1e-300 * rng.standard_normal(p)
        for q, C in zip(orders, cross_orders(A, B, orders)):
            assert_array_equal(C, [[pair_distance(x, y, q) for y in B] for x in A])
            assert C[a, b] == pytest.approx(fsum_minkowski(A[a] * 1e300, B[b] * 1e300, q)
                                            * 1e-300, rel=1e-12, abs=0)


def test_a_repeated_order_gets_its_own_array():
    rng = np.random.default_rng(22)
    X, T = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
    for q in (1.0, 2.5, math.inf):
        D, E = pairwise_orders(X, (q, q))
        C, F = cross_orders(T, X, (q, q))
        assert_array_equal(D.entries, E.entries)
        assert_array_equal(C, F)
        assert not np.shares_memory(D.entries, E.entries)
        assert not np.shares_memory(C, F)
