"""Slow reference implementations the test suite checks the library against.

Everything here is written from the definitions, in plain Python loops or
one-step numpy reductions, on purpose: no code is shared with the package so
an agreement between the two is meaningful.  Do not import these anywhere
outside the tests.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def naive_minkowski(a, b, q):
    """Direct power-sum evaluation, no overflow protection."""
    diffs = [abs(float(x) - float(y)) for x, y in zip(a, b)]
    if math.isinf(q):
        return max(diffs)
    return sum(d ** q for d in diffs) ** (1.0 / q)


def fsum_minkowski(a, b, q):
    """Power sum added exactly (math.fsum), so only the powers and the root round."""
    diffs = [abs(float(x) - float(y)) for x, y in zip(a, b)]
    if math.isinf(q):
        return max(diffs)
    return math.fsum(d ** q for d in diffs) ** (1.0 / q)


def naive_pairwise_square(X, q):
    n = X.shape[0]
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            D[i, j] = D[j, i] = naive_minkowski(X[i], X[j], q)
    return D


def naive_cross(A, B, q):
    out = np.zeros((A.shape[0], B.shape[0]))
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            out[i, j] = naive_minkowski(A[i], B[j], q)
    return out


def quantile_by_hand(values, prob):
    """h = (n - 1) p + 1 on the sorted sample, interpolating linearly."""
    v = sorted(float(x) for x in values)
    n = len(v)
    h = (n - 1) * prob + 1.0
    lo = int(math.floor(h))
    lo = min(max(lo, 1), n)
    hi = min(lo + 1, n)
    return v[lo - 1] + (h - lo) * (v[hi - 1] - v[lo - 1])


def solve_tail_by_bisection(M, target=1.5, iterations=300):
    """Root of (1 - M^-t)/t = target, taking the t -> 0 limit as log M."""

    def g(t):
        if t == 0.0:
            return math.log(M)
        return -math.expm1(-t * math.log(M)) / t

    lo, hi = -1.0, 1.0
    while g(lo) < target:
        lo *= 2.0
    while g(hi) > target:
        hi *= 2.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def solve_tail_stepwise(M, target):
    """The tail solver one extent at a time: double the bracket, then bisect
    until the midpoint repeats an end or hits the target; return ``hi``.

    numpy's scalar log/expm1 as in the package, so step-for-step agreement
    means bit-for-bit agreement.
    """

    def g(t):
        if t == 0.0:
            return float(np.log(M))
        return float(-np.expm1(-t * np.log(M)) / t)

    g0 = g(0.0)
    if g0 == target:
        return 0.0
    lo, hi = (0.0, 1.0) if g0 > target else (-1.0, 0.0)
    while g(lo) <= target:
        lo *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        gm = g(mid)
        if gm == target:
            return mid
        if gm > target:
            lo = mid
        else:
            hi = mid
    return hi


def solve_tail_by_masks(M, target):
    """The array tail solver as the boxplot fit ran it before its bisection
    rounds were cut to fewer numpy calls: every element keeps a ``todo`` mask
    and stops where the one-at-a-time loop stops.  Returns the ``hi`` array.
    """

    def gain(log_base, t):
        zero = t == 0.0
        tsafe = np.where(zero, 1.0, t)
        return np.where(zero, log_base, -np.expm1(-tsafe * log_base) / tsafe)

    g0 = np.log(M)
    above = g0 > target
    lo = np.where(above, 0.0, -1.0)
    hi = np.where(above, 1.0, 0.0)
    grow = g0 < target
    todo = g0 != target
    with np.errstate(over="ignore"):
        for _ in range(200):
            grow &= ~(gain(g0, lo) > target)
            if not grow.any():
                break
            lo = np.where(grow, 2.0 * lo, lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            todo &= (mid != lo) & (mid != hi)
            if not todo.any():
                break
            gm = gain(g0, mid)
            lo = np.where(todo & (gm > target), mid, lo)
            hi = np.where(todo & (gm <= target), mid, hi)
            todo &= gm != target
    return hi


def naive_linkage(D, method):
    """O(n^3) agglomeration recomputing every inter-cluster distance from the
    original dissimilarities at every step.

    Cluster ids follow the same convention as the library (originals 0..n-1,
    the merge at step s creates id n+s); ties on height go to the smallest
    (id_a, id_b) pair with id_a < id_b.  Returns (merges, heights).
    """
    n = D.shape[0]
    active = {i: (i,) for i in range(n)}
    merges = []
    heights = []
    for step in range(n - 1):
        best = None
        for a, b in itertools.combinations(sorted(active), 2):
            sub = D[np.ix_(active[a], active[b])]
            h = float(sub.max()) if method == "complete" else float(sub.mean())
            if best is None or h < best[0] or (h == best[0] and (a, b) < best[1:]):
                best = (h, a, b)
        h, a, b = best
        members = active.pop(a) + active.pop(b)
        active[n + step] = members
        merges.append((a, b))
        heights.append(h)
    return np.array(merges), np.array(heights)


def fixed_matrix_linkage(D, method):
    """Lance-Williams agglomeration on one fixed (2n-1) x (2n-1) matrix whose
    row and column i hold node i; each merge writes the new node's row in
    place and retires its two children.

    The same arithmetic as the library's linkage, laid out so that slot order
    is id order from the start: the library must match it bit for bit.  Takes
    a square array; returns (merges, heights).
    """
    n = D.shape[0]
    size = 2 * n - 1
    W = np.full((size, size), np.inf)
    W[:n, :n] = D
    np.fill_diagonal(W, np.inf)
    sizes = [1] * size
    merges, heights = [], []
    for node in range(n, size):
        a, b = divmod(int(W.argmin()), size)  # first minimum: smallest (id, id) pair
        merges.append((a, b))
        heights.append(W[a, b])
        sa, sb = sizes[a], sizes[b]
        if method == "complete":
            row = np.maximum(W[a], W[b])
        else:
            row = (sa * W[a] + sb * W[b]) / (sa + sb)
        W[node] = row
        W[:, node] = row
        W[[a, b]] = np.inf
        W[:, [a, b]] = np.inf
        sizes[node] = sa + sb
    return np.array(merges, dtype=np.int64).reshape(-1, 2), np.array(heights)


def pam_brute_force(D, k):
    """Global optimum over all medoid subsets.  Returns (objective, medoids)."""
    n = D.shape[0]
    best_obj = math.inf
    best = None
    for subset in itertools.combinations(range(n), k):
        obj = float(D[:, subset].min(axis=1).sum())
        if obj < best_obj:
            best_obj = obj
            best = subset
    return best_obj, best


def _medoid_cost(D, medoids):
    return float(D[:, sorted(medoids)].min(axis=1).sum())


def pam_from_three_starts(D, k):
    """Build plus best-improvement swap from each of the three most central
    objects, each start on its own, keeping the first strictly lowest cost.

    Centrality is the row sum of D, ties to the lower index.  The build adds
    the object with the largest cost reduction (ties to the lower index);
    each swap step scans medoids in ascending order, then candidates in
    ascending order, and applies the first exchange with the most negative
    change of cost.  Labels number the medoids 1..k in ascending order; an
    object joins its nearest medoid, the lowest-numbered on ties, and a
    medoid its own cluster.  Costs are summed by numpy, so on distances
    whose sums are exact (multiples of a power of two) they match any other
    summation order.  Returns (labels, medoids, objective, ends), ends being
    the medoids each start's walk ended at, most central start first.
    """
    n = D.shape[0]
    starts = sorted(range(n), key=lambda i: (float(D[i].sum()), i))[:3]
    ends = []
    best = None
    for first in starts:
        medoids = [first]
        while len(medoids) < k:
            base = _medoid_cost(D, medoids)
            gains = [(base - _medoid_cost(D, medoids + [c]), c)
                     for c in range(n) if c not in medoids]
            top = max(g for g, _ in gains)
            medoids.append(min(c for g, c in gains if g == top))
        medoids.sort()
        while True:
            current = _medoid_cost(D, medoids)
            step = None
            for i in range(k):
                for h in range(n):
                    if h in medoids:
                        continue
                    delta = _medoid_cost(D, medoids[:i] + [h] + medoids[i + 1:]) - current
                    if step is None or delta < step[0]:
                        step = (delta, i, h)
            if step[0] >= 0.0:
                break
            medoids[step[1]] = step[2]
            medoids.sort()
        ends.append(tuple(medoids))
        cost = _medoid_cost(D, medoids)
        if best is None or cost < best[1]:
            best = (medoids, cost)
    medoids, objective = best
    labels = []
    for o in range(n):
        if o in medoids:
            labels.append(medoids.index(o) + 1)
        else:
            dists = [D[o, m] for m in medoids]
            labels.append(dists.index(min(dists)) + 1)
    return np.array(labels), np.array(medoids), objective, ends


def improving_swap_exists(D, medoids, objective, tol=1e-12):
    """Exhaustive scan: does any single medoid/non-medoid swap beat objective?"""
    n = D.shape[0]
    medoids = set(int(m) for m in medoids)
    for out in sorted(medoids):
        for inb in range(n):
            if inb in medoids:
                continue
            trial = sorted(medoids - {out} | {inb})
            obj = float(D[:, trial].min(axis=1).sum())
            if obj < objective - tol:
                return True
    return False


def generate_by_variable(spec, seed):
    """The generator's draws variable by variable: per variable the flags
    and parameters in the documented order, then two draws of
    2 * n_per_class base values, training then test, each scaled as it is
    written into its column.  Returns (x_train, x_test, variable_meta)."""
    p, m = spec.p, spec.n_per_class
    x_train = np.empty((2 * m, p))
    x_test = np.empty((2 * m, p))
    keys = ("is_noise", "is_t2", "mean_diff", "sd_class1", "sd_class2")
    meta = {key: [] for key in keys}
    lo, hi = spec.sd_range
    for j, stream in enumerate(np.random.SeedSequence(seed).spawn(p)):
        rng = np.random.default_rng(stream)
        is_t2 = rng.random() < spec.t2_fraction
        is_noise = rng.random() < spec.noise_fraction
        if is_noise:
            mean_diff = 0.0
            sd1 = sd2 = rng.uniform(lo, hi)
        else:
            if isinstance(spec.mean_diff, tuple):
                mean_diff = rng.uniform(*spec.mean_diff)
            else:
                mean_diff = spec.mean_diff
            sd1 = rng.uniform(lo, hi)
            sd2 = rng.uniform(lo, hi)
        for target in (x_train, x_test):
            z = rng.standard_t(2, 2 * m) if is_t2 else rng.standard_normal(2 * m)
            target[:m, j] = sd1 * z[:m]
            target[m:, j] = mean_diff + sd2 * z[m:]
        for key, value in zip(keys, (is_noise, is_t2, mean_diff, sd1, sd2)):
            meta[key].append(value)
    meta = {key: np.array(values, dtype=bool if key.startswith("is_") else float)
            for key, values in meta.items()}
    return x_train, x_test, meta


def ari_by_fractions(u, v):
    """Hubert-Arabie ARI in exact rational arithmetic.

    Degenerate denominator follows the library's stated convention: 1 when
    the two label vectors describe the same set partition, otherwise 0.
    """
    u = list(u)
    v = list(v)
    n = len(u)
    cells = {}
    for a, b in zip(u, v):
        cells[(a, b)] = cells.get((a, b), 0) + 1
    row = {}
    col = {}
    for (a, b), c in cells.items():
        row[a] = row.get(a, 0) + c
        col[b] = col.get(b, 0) + c

    def pairs(counts):
        return sum(Fraction(c * (c - 1), 2) for c in counts)

    P = pairs(cells.values())
    A = pairs(row.values())
    B = pairs(col.values())
    C = Fraction(n * (n - 1), 2)
    expected = A * B / C
    maximum = Fraction(A + B, 2)
    if maximum == expected:
        parts_u = frozenset(frozenset(i for i in range(n) if u[i] == a) for a in set(u))
        parts_v = frozenset(frozenset(i for i in range(n) if v[i] == b) for b in set(v))
        return 1.0 if parts_u == parts_v else 0.0
    return float((P - expected) / (maximum - expected))


def nearest_neighbour_labels(D, labels):
    """1-NN over a square distance matrix, self excluded, lowest index wins ties."""
    n = D.shape[0]
    out = []
    for i in range(n):
        best_j = None
        for j in range(n):
            if j == i:
                continue
            if best_j is None or D[i, j] < D[i, best_j]:
                best_j = j
        out.append(labels[best_j])
    return np.array(out)


def naive_knn(D, labels, k):
    """k-nn over a (test, train) distance matrix, one test row at a time.

    The k nearest are the first k by (distance, training index).  The class
    with the most votes wins; a vote tie goes to the tied class with the
    smaller summed distance over its voting neighbours, then to the smaller
    label.
    """
    out = []
    for row in D:
        nearest = sorted(range(len(row)), key=lambda j: (row[j], j))[:k]
        votes, sums = {}, {}
        for j in nearest:
            c = int(labels[j])
            votes[c] = votes.get(c, 0) + 1
            sums[c] = sums.get(c, 0.0) + float(row[j])
        out.append(min(votes, key=lambda c: (-votes[c], sums[c], c)))
    return np.array(out)
