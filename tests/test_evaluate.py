"""Adjusted Rand index and misclassification rate."""

import numpy as np
import pytest

from oracles import ari_by_fractions
from scaledist.evaluate import _ari_rows, adjusted_rand_index, misclassification_rate


def test_ari_of_uneven_cross_counts():
    # cross-counts [[1, 1], [1, 2]], row and column totals [2, 3]
    assert adjusted_rand_index([1, 1, 2, 2, 2], [1, 2, 2, 2, 1]) == -0.25


def test_ari_examples():
    assert adjusted_rand_index([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0
    assert adjusted_rand_index([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0
    assert adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == -0.5


def test_ari_degenerate_conventions():
    # both all-singletons, identical as set partitions
    assert adjusted_rand_index([1, 2, 3], [3, 2, 1]) == 1.0
    # both one cluster
    assert adjusted_rand_index([1, 1, 1], [1, 1, 1]) == 1.0
    # singletons vs one cluster: the denominator is fine, index is 0
    assert adjusted_rand_index([1, 2, 3], [1, 1, 1]) == 0.0


def test_ari_matches_exact_rational_oracle():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(2, 40))
        ku = int(rng.integers(1, 5))
        kv = int(rng.integers(1, 5))
        u = rng.integers(1, ku + 1, size=n)
        v = rng.integers(1, kv + 1, size=n)
        u[: min(ku, n)] = np.arange(1, min(ku, n) + 1)
        v[: min(kv, n)] = np.arange(1, min(kv, n) + 1)
        assert adjusted_rand_index(u, v) == ari_by_fractions(u, v)


def _some_labels(rng, n, k):
    # labels 1..k, every class present
    labels = rng.integers(1, k + 1, size=n)
    labels[:k] = rng.permutation(k) + 1
    return labels


def test_stacked_ari_core_equals_ari_row_by_row():
    # rows using fewer labels than the stack's largest, plus an all-singleton
    # and a one-cluster row in every stack; v is one cluster in a third of the
    # trials and all singletons in another, so both degenerate cases run
    rng = np.random.default_rng(23)
    for trial in range(300):
        n = int(rng.integers(2, 30))
        kv = (1, n, int(rng.integers(1, min(n, 5) + 1)))[trial % 3]
        v = _some_labels(rng, n, kv)
        rows = [_some_labels(rng, n, int(rng.integers(1, min(n, 6) + 1)))
                for _ in range(int(rng.integers(0, 5)))]
        rows += [np.arange(1, n + 1), np.ones(n, dtype=np.int64)]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        got = _ari_rows(np.array(rows), v, kv)
        want = [adjusted_rand_index(u, v) for u in rows]
        assert [x.hex() for x in got] == [x.hex() for x in want]


def test_ari_symmetry():
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        u = rng.integers(1, 4, size=n)
        v = rng.integers(1, 4, size=n)
        u[:3] = [1, 2, 3]
        v[:3] = [1, 2, 3]
        assert adjusted_rand_index(u, v) == adjusted_rand_index(v, u)


def test_ari_label_renaming_invariance():
    rng = np.random.default_rng(24)
    u = rng.integers(1, 4, size=40)
    u[:3] = [1, 2, 3]
    v = rng.integers(1, 4, size=40)
    v[:3] = [1, 2, 3]
    base = adjusted_rand_index(u, v)
    renamed = np.array([3, 1, 2])[v - 1]  # permute the class names
    assert adjusted_rand_index(u, renamed) == base
    assert adjusted_rand_index(u, u) == 1.0


def test_ari_at_most_one_and_one_only_for_same_partition():
    rng = np.random.default_rng(25)
    for _ in range(100):
        n = int(rng.integers(5, 25))
        u = rng.integers(1, 4, size=n)
        u[:3] = [1, 2, 3]
        v = u.copy()
        # perturb past the class anchors so every class keeps a member
        v[int(rng.integers(3, n))] = int(rng.integers(1, 4))
        score = adjusted_rand_index(u, v)
        assert score <= 1.0
        if not np.array_equal(u, v) and score == 1.0:
            # a single moved element can never be a pure relabeling
            raise AssertionError("ARI of a genuinely different partition is 1")


def test_ari_is_centered_at_chance():
    # fixed partition vs random permutations of another: mean ARI ~ 0
    rng = np.random.default_rng(26)
    u = np.repeat([1, 2, 3], 12)
    v = np.repeat([1, 2, 3], 12)
    vals = np.empty(10_000)
    for i in range(vals.size):
        vals[i] = adjusted_rand_index(u, rng.permutation(v))
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean()) <= 3 * se


def test_ari_input_validation():
    with pytest.raises(ValueError):
        adjusted_rand_index([1, 2], [1, 2, 1])
    with pytest.raises(ValueError):
        adjusted_rand_index([1], [1])
    with pytest.raises(ValueError):
        adjusted_rand_index([1, 3], [1, 2])


def test_misclassification_examples():
    assert misclassification_rate([1, 1, 2, 2], [1, 1, 2, 2]) == 0.0
    assert misclassification_rate([2, 2, 1, 1], [1, 1, 2, 2]) == 1.0
    assert misclassification_rate([1, 1, 2, 2], [1, 2, 2, 2]) == 0.25


def test_misclassification_compares_labels_literally():
    # a perfect clustering under the wrong names is 100% wrong here; the
    # supervised metric does no label matching
    assert misclassification_rate([2, 2, 1], [1, 1, 2]) == 1.0


def test_misclassification_validation():
    with pytest.raises(ValueError):
        misclassification_rate([1, 2], [1, 2, 2])
    with pytest.raises(ValueError, match="^label vectors are empty$"):
        misclassification_rate([], [])
    # labels are integers, as everywhere else: no floats, strings or booleans
    for predicted, truth in [([1.5, 2], [1, 2]), ([1.0, 2.0], [1, 2]), (["a", "b"], ["a", "c"]),
                             ([True, False], [True, True]), ([1, 2], [1.5, 2])]:
        with pytest.raises(ValueError, match="^labels must be integers$"):
            misclassification_rate(predicted, truth)
