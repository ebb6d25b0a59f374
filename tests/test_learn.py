"""PAM, agglomerative linkage, tree cutting and kNN classification."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import (
    fixed_matrix_linkage,
    improving_swap_exists,
    naive_knn,
    naive_linkage,
    nearest_neighbour_labels,
    pam_brute_force,
    pam_from_three_starts,
)
from scaledist import learn
from scaledist.core import CondensedDistanceMatrix
from scaledist.distance import pairwise
from scaledist.learn import (
    Dendrogram,
    cut_tree,
    knn_classify,
    linkage,
    pam,
)


def line_distances(points):
    return pairwise(np.asarray(points, dtype=float).reshape(-1, 1), 1)


def test_pam_line_example():
    D = line_distances([0.0, 1.0, 10.0, 11.0])
    result = pam(D, 2)
    assert_array_equal(result.labels, [1, 1, 2, 2])
    assert result.objective == 2.0
    assert list(result.medoids) == [1, 2]


def test_pam_k_equals_n_minus_one():
    points = [0.0, 1.0, 10.0, 20.0, 35.0]
    D = line_distances(points)
    result = pam(D, 4)
    opt, _ = pam_brute_force(D.to_square(), 4)
    assert result.objective == pytest.approx(opt, abs=1e-12)
    sizes = np.bincount(result.labels)[1:]
    assert sorted(sizes) == [1, 1, 1, 2]
    # the joined pair is the closest one
    assert result.labels[0] == result.labels[1]


def test_pam_identical_objects_share_a_cluster():
    D = line_distances([5.0, 5.0, 100.0])
    result = pam(D, 2)
    assert result.labels[0] == result.labels[1] or result.objective == 0.0
    assert result.objective == 0.0
    # no cluster may come out empty even under zero-distance ties
    assert set(result.labels) == {1, 2}


def test_pam_rejects_bad_k():
    D = line_distances([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        pam(D, 1)
    with pytest.raises(ValueError):
        pam(D, 3)


def test_pam_swap_optimal_and_usually_globally_optimal():
    # A single build+swap start lands in a local optimum on 7% of these
    # unstructured instances (roughly 60% of them have several swap-optimal
    # configurations); three starts reach the optimum on all 300, and the
    # bound is criterion 3's 0.95.  Every result must be swap-optimal and
    # never beat the brute-force optimum.
    rng = np.random.default_rng(11)
    hits = 0
    total = 0
    for _ in range(300):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        if k >= n:
            continue
        X = rng.standard_normal((n, 3))
        D = pairwise(X, 2)
        result = pam(D, k)
        square = D.to_square()
        assert not improving_swap_exists(square, result.medoids, result.objective)
        opt, _ = pam_brute_force(square, k)
        assert result.objective >= opt - 1e-12
        total += 1
        if result.objective <= opt + 1e-12:
            hits += 1
    assert hits / total >= 0.95


def test_pam_escapes_a_single_start_local_optimum():
    # From criterion 3's distribution: build+swap from the most central
    # object alone stops at medoids [1, 2, 3] with objective 2.7216, which
    # no single swap improves; the optimum is [0, 3, 4] at 2.3450.
    X = np.random.default_rng(11).standard_normal((5, 3))
    D = pairwise(X, 2)
    opt, best = pam_brute_force(D.to_square(), 3)
    result = pam(D, 3)
    assert result.objective == pytest.approx(opt, abs=1e-12)
    assert tuple(result.medoids) == best


def test_pam_matches_three_independent_starts_bit_for_bit_on_tie_heavy_grids():
    # distances on a grid of halves: sums are exact in any order, and equal
    # gains, swap deltas and costs are common, so every tie rule is decided;
    # starts whose walks end at one set exercise the shared walk
    rng = np.random.default_rng(23)
    shared = 0
    for _ in range(300):
        n = int(rng.integers(5, 31))
        k = int(rng.integers(2, 5))
        D = CondensedDistanceMatrix(
            n, rng.integers(0, int(rng.integers(2, 7)), n * (n - 1) // 2) / 2)
        labels, medoids, objective, ends = pam_from_three_starts(D.to_square(), k)
        result = pam(D, k)
        assert_array_equal(result.labels, labels)
        assert_array_equal(result.medoids, medoids)
        assert result.objective == objective
        shared += len(set(ends)) < len(ends)
    assert shared > 100


def test_pam_objective_consistent_with_labels():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((20, 4))
    D = pairwise(X, 1)
    result = pam(D, 3)
    square = D.to_square()
    total = sum(
        square[i, result.medoids[result.labels[i] - 1]] for i in range(20)
    )
    assert_allclose(result.objective, total, rtol=1e-12)


@pytest.mark.parametrize("call", [
    lambda D, k: pam(D, k).labels,
    lambda D, k: cut_tree(linkage(D, "complete"), k),
    lambda D, k: knn_classify(D.to_square(), np.array([1, 1, 2, 2]), k),
], ids=["pam", "cut_tree", "knn_classify"])
def test_counts_must_be_integers(call):
    D = line_distances([0.0, 1.0, 5.0, 6.0])
    # True ran as 1, the floats failed late with a TypeError about slices
    for k in (True, 2.5, 2.0, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match="k must be an integer"):
            call(D, k)
    assert_array_equal(call(D, 2), call(D, np.int64(2)))
    with pytest.raises(ValueError, match="n must be an integer"):
        CondensedDistanceMatrix(2.5, [1.0])
    assert CondensedDistanceMatrix(np.int64(2), [1.0]).n == 2


def test_linkage_three_point_example():
    D = line_distances([0.0, 1.0, 10.0])
    comp = linkage(D, "complete")
    assert_array_equal(comp.merges, [[0, 1], [2, 3]])
    assert_array_equal(comp.heights, [1.0, 10.0])
    avg = linkage(D, "average")
    assert_array_equal(avg.merges, [[0, 1], [2, 3]])
    assert_array_equal(avg.heights, [1.0, 9.5])


def test_linkage_two_points():
    D = line_distances([2.0, 7.0])
    for method in ("complete", "average"):
        dend = linkage(D, method)
        assert_array_equal(dend.merges, [[0, 1]])
        assert_array_equal(dend.heights, [5.0])


def test_linkage_rejects_unknown_method():
    with pytest.raises(ValueError):
        linkage(line_distances([0.0, 1.0]), "single")


@pytest.mark.parametrize("method", ["complete", "average"])
def test_linkage_matches_naive_reference(method):
    rng = np.random.default_rng(13)
    cases = [pairwise(rng.uniform(0, 1, size=(int(rng.integers(2, 31)), 4)), 2)
             for _ in range(40)]
    if method == "complete":
        # 3-level integer grids tie on most merges, which exercises the
        # smallest-(id, id) rule.  Average stays on tie-free data: the
        # Lance-Williams update and the oracle's block means round
        # differently, so tied averages can compare unequal in one of them.
        cases += [pairwise(rng.integers(0, 3, size=(int(rng.integers(3, 13)), 4)), 1)
                  for _ in range(100)]
    for D in cases:
        dend = linkage(D, method)
        merges, heights = naive_linkage(D.to_square(), method)
        assert_array_equal(dend.merges, merges)
        if method == "complete":
            assert_array_equal(dend.heights, heights)
        else:
            assert_allclose(dend.heights, heights, rtol=1e-12, atol=0)


@pytest.mark.parametrize("method", ["complete", "average"])
@pytest.mark.parametrize("n", [2, 3, 40, 63, 64, 65, 150, 300])
def test_linkage_matches_fixed_matrix_reference_bit_for_bit(method, n):
    # sizes on both sides of the 64-node cut-off below which the matrix is
    # never compacted, and sizes that compact several times
    rng = np.random.default_rng(n)
    cases = [pairwise(rng.uniform(0, 1, size=(n, 4)), 2),
             pairwise(rng.integers(0, 3, size=(n, 4)), 1)]
    if method == "complete":
        # two 3-level coordinates under q = inf: nearly every merge is a tie
        cases.append(pairwise(rng.integers(0, 3, size=(n, 2)), np.inf))
    for D in cases:
        dend = linkage(D, method)
        merges, heights = fixed_matrix_linkage(D.to_square(), method)
        assert_array_equal(dend.merges, merges)
        assert_array_equal(dend.heights, heights)


def _stackable_cases(n, count, rng):
    # uniform data, 3-level integer grids, and two 3-level coordinates under
    # q = inf, where nearly every merge is a tie; in turn
    kinds = [lambda: pairwise(rng.uniform(0, 1, size=(n, 4)), 2),
             lambda: pairwise(rng.integers(0, 3, size=(n, 4)), 1),
             lambda: pairwise(rng.integers(0, 3, size=(n, 2)), np.inf)]
    return [kinds[i % 3]() for i in range(count)]


@pytest.mark.parametrize("method", ["complete", "average"])
@pytest.mark.parametrize("n, count, stacks", [(2, 6, 1), (3, 6, 1), (40, 9, 1), (63, 9, 2)])
def test_stacked_linkage_matches_fixed_matrix_reference_bit_for_bit(method, n, count, stacks,
                                                                     monkeypatch):
    # nine problems at n = 63 take more than one stack's memory
    cases = _stackable_cases(n, count, np.random.default_rng(n))
    sizes = []

    def recorded(distances, method):
        sizes.append(len(distances))
        return stacked(distances, method)

    stacked = learn._stacked_linkage
    monkeypatch.setattr(learn, "_stacked_linkage", recorded)
    trees = learn._linkages(cases, method)
    assert len(sizes) == stacks and sum(sizes) == count
    assert min(sizes) >= learn._STACK_MIN
    for D, tree in zip(cases, trees):
        merges, heights = fixed_matrix_linkage(D.to_square(), method)
        assert tree.n_leaves == n
        assert_array_equal(tree.merges, merges)
        assert_array_equal(tree.heights, heights)


@pytest.mark.parametrize("n, count", [(40, 3), (64, 6)])
def test_few_or_large_linkage_problems_run_one_by_one(n, count, monkeypatch):
    # below 4 problems the loop of linkage is faster; from 64 objects on, the scan dominates
    cases = _stackable_cases(n, count, np.random.default_rng(n))
    monkeypatch.setattr(learn, "_stacked_linkage", None)  # any call fails
    for D, tree in zip(cases, learn._linkages(cases, "average")):
        want = linkage(D, "average")
        assert_array_equal(tree.merges, want.merges)
        assert_array_equal(tree.heights, want.heights)


def test_an_average_overflow_inside_a_stack_is_linkages_error():
    big = CondensedDistanceMatrix(4, [1e308, 1.5e308, 1e308, 1.2e308, 1e308, 1.7e308])
    cases = _stackable_cases(4, 5, np.random.default_rng(4))
    cases.insert(2, big)
    trees = learn._linkages(cases, "complete")
    assert_array_equal(trees[2].heights, [1e308, 1.2e308, 1.7e308])
    with np.errstate(over="ignore"), pytest.raises(ValueError) as stacked:
        learn._linkages(cases, "average")
    with np.errstate(over="ignore"), pytest.raises(ValueError) as alone:
        linkage(big, "average")
    assert str(stacked.value) == str(alone.value) == "average linkage overflowed: distances too large"


def test_linkage_average_overflow_is_an_error():
    # the mean of 1e308 and 1.5e308 is finite, but the size-weighted sum of
    # the update overflows; complete linkage only takes maxima
    D = CondensedDistanceMatrix(4, [1e308, 1.5e308, 1e308, 1.2e308, 1e308, 1.7e308])
    assert_array_equal(linkage(D, "complete").heights, [1e308, 1.2e308, 1.7e308])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflowed"):
        linkage(D, "average")


def test_linkage_heights_nondecreasing():
    # both linkages satisfy the reducibility property, so heights are sorted
    rng = np.random.default_rng(14)
    for method in ("complete", "average"):
        X = rng.standard_normal((25, 3))
        dend = linkage(pairwise(X, 2), method)
        assert np.all(np.diff(dend.heights) >= 0)


def test_cut_tree_examples():
    D = line_distances([0.0, 1.0, 10.0])
    dend = linkage(D, "complete")
    assert_array_equal(cut_tree(dend, 1), [1, 1, 1])
    assert_array_equal(cut_tree(dend, 2), [1, 1, 2])
    assert_array_equal(cut_tree(dend, 3), [1, 2, 3])
    with pytest.raises(ValueError):
        cut_tree(dend, 0)
    with pytest.raises(ValueError):
        cut_tree(dend, 4)
    for tree in ("x", None, D):  # "x" and None raised AttributeError
        with pytest.raises(TypeError, match="^expected a Dendrogram$"):
            cut_tree(tree, 2)


def test_cut_tree_numbers_clusters_by_smallest_member():
    # put the later-merged group first so renumbering has something to do
    D = line_distances([100.0, 0.0, 1.0, 101.0])
    dend = linkage(D, "complete")
    labels = cut_tree(dend, 2)
    assert labels[0] == 1  # object 0 is in some cluster labelled 1
    assert_array_equal(labels, [1, 2, 2, 1])


def test_cut_tree_partition_sizes():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((18, 2))
    tied = pairwise(rng.integers(0, 3, size=(18, 3)), 1)  # ties on most merges
    dends = [linkage(pairwise(X, 2), "average"),
             linkage(tied, "complete"), linkage(tied, "average")]
    for dend in dends:
        coarser = None
        for k in range(1, 19):
            labels = cut_tree(dend, k)
            assert labels.min() == 1 and labels.max() == k
            assert np.unique(labels).size == k
            # numbered by first appearance: label j's first member precedes j+1's
            _, first = np.unique(labels, return_index=True)
            assert first[0] == 0 and np.all(np.diff(first) > 0)
            if coarser is not None:  # every cluster at k lies in one at k - 1
                for c in range(1, k + 1):
                    assert np.unique(coarser[labels == c]).size == 1
            coarser = labels


def test_knn_basic_votes():
    train_labels = np.array([1, 1, 2])
    # one test object at distance zero from training object 2
    Dx = np.array([[4.0, 5.0, 0.0]])
    assert_array_equal(knn_classify(Dx, train_labels, 1), [2])
    # majority 1 among three neighbours
    Dx = np.array([[1.0, 2.0, 3.0]])
    assert_array_equal(knn_classify(Dx, train_labels, 3), [1])


def test_knn_tie_breaking():
    train_labels = np.array([1, 1, 2, 2])
    # vote tie, class 2 is nearer in sum: 0.5 + 4.0 vs 1.0 + 1.5
    Dx = np.array([[0.5, 4.0, 1.0, 1.5]])
    assert_array_equal(knn_classify(Dx, train_labels, 4), [2])
    # vote tie and equal sums: smaller label wins
    Dx = np.array([[1.0, 2.0, 1.0, 2.0]])
    assert_array_equal(knn_classify(Dx, train_labels, 4), [1])


def test_knn_equal_kth_distance_prefers_lower_index():
    train_labels = np.array([1, 2, 2])
    # neighbours 0 and 1 tie at distance 1; with k=1 index 0 must win
    Dx = np.array([[1.0, 1.0, 9.0]])
    assert_array_equal(knn_classify(Dx, train_labels, 1), [1])


def test_knn_matches_nearest_neighbour_oracle():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((30, 4))
    y = rng.integers(1, 4, size=30)
    y[:3] = [1, 2, 3]  # keep every class present
    square = pairwise(X, 2).to_square()
    # exclude self-matches with a finite sentinel beyond every real distance
    np.fill_diagonal(square, 1e300)
    mine = knn_classify(square, y, 1)
    assert_array_equal(mine, nearest_neighbour_labels(square, y))


def test_knn_matches_per_row_oracle_on_tie_heavy_grids():
    # distances on a grid of halves: many equal distances at the k-th
    # neighbour and many vote ties, all sums exact
    rng = np.random.default_rng(19)
    clear = by_sum = by_label = 0
    for _ in range(400):
        n_classes = int(rng.integers(2, 5))
        n_train = int(rng.integers(n_classes + 5, 121 if rng.random() < 0.3 else 30))
        y = rng.permutation(np.concatenate(
            [np.arange(1, n_classes + 1), rng.integers(1, n_classes + 1, n_train - n_classes)]))
        Dx = rng.integers(0, int(rng.integers(2, 5)), size=(int(rng.integers(1, 41)), n_train)) / 2
        k = n_train if rng.random() < 0.1 else int(rng.integers(1, 8))
        mine = knn_classify(Dx, y, k)
        assert_array_equal(mine, naive_knn(Dx, y, k))
        assert mine.dtype == np.int64
        for row, label in zip(Dx, mine):
            votes = np.bincount(y[np.argsort(row, kind="stable")[:k]], minlength=n_classes + 1)
            tied = np.flatnonzero(votes == votes.max())
            clear += tied.size == 1
            by_sum += tied.size > 1 and label != tied[0]
            by_label += tied.size > 1 and label == tied[0]
    # clear rows, and vote ties settled by the sum and by the label
    assert min(clear, by_sum, by_label) > 100


def test_knn_validates_sizes():
    with pytest.raises(ValueError, match="^expected 3 labels, got 2$"):
        knn_classify(np.ones((2, 3)), np.array([1, 2]), 1)
    for k in (4, 0):
        with pytest.raises(ValueError, match=r"^k must satisfy 1 <= k <= n_train=3, got %d$" % k):
            knn_classify(np.ones((2, 3)), np.array([1, 2, 1]), k)


@pytest.mark.parametrize("cross, labels, expected", [
    ([[0.0, np.nan, 1.0]], [1, 2, 1], "distances must be finite and non-negative"),
    ([[0.0, np.inf, 1.0]], [1, 2, 1], "distances must be finite and non-negative"),
    ([[0.0, -np.inf, 1.0]], [1, 2, 1], "distances must be finite and non-negative"),
    ([[0.0, -0.5, 1.0]], [1, 2, 1], "distances must be finite and non-negative"),
    ([[0.0, 1.0, 2.0]], [0, 1, 2], "labels must be numbered from 1, got 0"),
    ([[0.0, 1.0, 2.0]], [1, 3, 1], "class 2 has no members"),
    ([[0.0, 1.0, 2.0]], [1.0, 2.0, 1.0], "labels must be integers"),
    ([[0.0, 1.0, 2.0]], [[1, 2, 1]], "labels must be 1-D"),
    ([[0.0, 1.0, 2.0]], [1, 2, 1, 2], "expected 3 labels, got 4"),
])
def test_knn_refuses_bad_distances_and_labels(cross, labels, expected):
    with pytest.raises(ValueError, match="^%s$" % re.escape(expected)):
        knn_classify(cross, labels, 1)


@pytest.mark.parametrize("cross", [[["1.0", "2.0"]], [[True, False]]])
def test_knn_takes_integer_and_float_distances_only(cross):
    # the strings were read as distances 1 and 2
    with pytest.raises(ValueError, match="^distances must be integers or floats$"):
        knn_classify(cross, [1, 2], 1)
    assert knn_classify([[1, 2]], [1, 2], 1).tolist() == [1]


@pytest.mark.parametrize(
    "merges, heights, expected",
    [  # each was stored: merges [[0, 1]] or [[0, 1]] again, height 0.5, NaN or -inf
        ([[0.7, 1.2]], ["0.5"], "merges must be integers"),
        ([[False, True]], [0.5], "merges must be integers"),
        ([[0, 1]], ["0.5"], "heights must be integers or floats"),
        ([[0, 1]], [np.nan], "heights must be finite"),
        ([[0, 1]], [-np.inf], "heights must be finite"),
    ],
)
def test_dendrogram_takes_integer_merges_and_finite_heights(merges, heights, expected):
    with pytest.raises(ValueError, match="^%s$" % expected):
        Dendrogram(2, merges, heights)
    assert Dendrogram(2, np.array([[0, 1]], dtype=np.uint8), [1]).heights.tolist() == [1.0]


def test_dendrogram_validation():
    with pytest.raises(ValueError):
        Dendrogram(3, np.zeros((1, 2), dtype=np.int64), np.array([1.0]))
    with pytest.raises(ValueError, match=r"^n_leaves must be an integer, got 2\.0$"):
        Dendrogram(2.0, [[0, 1]], [1.0])  # was stored as 2.0
    assert type(Dendrogram(np.int64(2), [[0, 1]], [1.0]).n_leaves) is int
    # merging a node twice, a node not made yet, a negative id, larger id first
    for merges in ([[0, 1], [0, 1]], [[0, 3], [1, 2]], [[-1, 0], [1, 3]], [[1, 0], [2, 3]]):
        with pytest.raises(ValueError, match="unmerged nodes"):
            Dendrogram(3, np.array(merges), np.array([1.0, 2.0]))
    valid = Dendrogram(3, np.array([[1, 2], [0, 3]]), np.ones(2))
    assert_array_equal(cut_tree(valid, 2), [1, 2, 2])
