"""Distance-based learners: k-medoids (PAM), agglomerative linkage, kNN.

Everything here consumes precomputed distances, so the learners are agnostic
to how the distances were built.  All tie-breaks are deterministic and index
based: equal candidates go to the lowest object index (or lowest node-id pair
for linkage merges), so results are reproducible down to the bit.

:func:`pam` and :func:`linkage` solve one problem at a time.  Stacking
rule: below _LINKAGE_SMALL (64) objects a swap round or a merge costs
mostly numpy call overhead, so :func:`_pams` and :func:`_linkages` run all
the problems they are given, of one size (and one linkage method; the
harness gives them those of one run), as one stack: PAM walks each start
of every problem in one build + swap loop, linkage takes one
Lance-Williams loop, each with the same arithmetic and tie rules.  From 64
objects on the row scans dominate, and they run the problems one by one
through :func:`pam` and :func:`linkage`.  Either way their Clusterings and
Dendrograms equal pam's and linkage's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CondensedDistanceMatrix, _check_dtype, _check_integer, _strict_lower, check_labels,
)

__all__ = [
    "Clustering",
    "Dendrogram",
    "pam",
    "linkage",
    "cut_tree",
    "knn_classify",
    "LINKAGE_METHODS",
]

LINKAGE_METHODS = ("complete", "average")


@dataclass(frozen=True)
class Clustering:
    """A flat clustering: labels 1..k, its medoids and its PAM objective."""

    labels: np.ndarray = field(repr=False)
    medoids: np.ndarray
    objective: float


@dataclass(frozen=True)
class Dendrogram:
    """Agglomeration history: leaves 0..n-1, internal nodes n..2n-2.

    Row s of ``merges`` holds the two node ids joined at step s (smaller id
    first), creating node ``n_leaves + s`` at height ``heights[s]``.  Merges
    must have an integer dtype and heights an integer or floating one, finite.
    """

    n_leaves: int
    merges: np.ndarray = field(repr=False)
    heights: np.ndarray = field(repr=False)

    def __post_init__(self):
        merges = _check_dtype(self.merges, "merges", kinds="iu").astype(np.int64, copy=False)
        heights = _check_dtype(self.heights, "heights").astype(np.float64, copy=False)
        n = _check_integer(self.n_leaves, "n_leaves")
        if n < 2:
            raise ValueError("need at least 2 leaves")
        if merges.shape != (n - 1, 2) or heights.shape != (n - 1,):
            raise ValueError("inconsistent merge history shapes")
        left, right = merges.T
        # ids checked to lie in [0, 2n - 2] before they are counted
        if (((left < 0) | (left >= right) | (right >= np.arange(n, 2 * n - 1))).any()
                or np.bincount(merges.ravel()).max() > 1):
            raise ValueError("merge s must join two unmerged nodes below n + s, smaller id first")
        if not np.isfinite(heights).all():
            raise ValueError("heights must be finite")
        object.__setattr__(self, "n_leaves", n)
        object.__setattr__(self, "merges", merges)
        object.__setattr__(self, "heights", heights)

    @classmethod
    def _built(cls, n_leaves, merges, heights):
        """The Dendrogram of a history this module has just built: an int
        ``n_leaves``, int64 ``merges`` and finite float64 ``heights`` that are
        valid by construction, so the checks of __post_init__ are skipped."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "n_leaves", n_leaves)
        object.__setattr__(tree, "merges", merges)
        object.__setattr__(tree, "heights", heights)
        return tree


def _square(D):
    if not isinstance(D, CondensedDistanceMatrix):
        raise TypeError("expected a CondensedDistanceMatrix")
    return D.to_square()


# Build + swap runs from this many of the most central objects.  Tiny
# instances often carry several swap-optimal configurations; one start
# misses the global optimum on about 8% of them, three on well under 1%.
_PAM_STARTS = 3


def pam(D, k):
    """Partitioning around medoids: greedy build, then best-improvement swaps.

    Build + swap runs once from each of the three most central objects (the
    smallest total distance to all others, ties to the lower index), most
    central first, and the result with the lowest total distance-to-nearest-
    medoid is kept.  A later start replaces the kept result only when its
    objective is strictly lower, so on ties the most central start wins.
    The swap walk from a medoid set is deterministic, so a start whose walk
    reaches a set an earlier start's walk visited stops there, with the
    result that walk reached.

    Each build starts from its first medoid and greedily adds the object
    with the largest cost reduction.  The swap phase repeatedly applies the
    single (medoid, non-medoid) exchange that lowers the objective the most,
    until none improves, so every result is swap-optimal.  All ties go to the
    lowest object index (for swaps: the lowest medoid, then the lowest
    candidate); clusters are numbered 1..k by ascending medoid index, and an
    object equidistant to several medoids joins the lowest-numbered cluster
    (each medoid stays in its own cluster).  :func:`_pams` gives the same
    result for many problems at once, stacked below 64 objects.

    Parameters
    ----------
    D : CondensedDistanceMatrix
    k : int, 2 <= k < n

    Returns
    -------
    Clustering
        With ``medoids`` (ascending) and ``objective`` (total cost) set.
    """
    k = _check_integer(k, "k")
    W = _square(D)
    _check_pam_k(k, W.shape[0])

    chosen, objective = None, np.inf
    ends = {}  # every medoid set a swap walk visited -> the set that walk ended at
    for first in np.argsort(W.sum(axis=1), kind="stable")[:_PAM_STARTS]:
        medoids = _build_swap(W, k, int(first), ends)
        cost = float(W[medoids].min(axis=0).sum())
        if cost < objective:
            chosen, objective = medoids, cost

    dists = W[chosen]  # (k, n)
    labels = np.argmin(dists, axis=0).astype(np.int64) + 1
    labels[chosen] = np.arange(1, k + 1)  # a medoid never leaves its own cluster
    return Clustering(labels=labels, medoids=chosen, objective=objective)


def _build_swap(W, k, first, ends):
    """One build + swap from medoid ``first``; returns the medoids, ascending.

    The swap walk from a medoid set is deterministic, so a walk that reaches
    a set in ``ends`` stops there with that set's end.  Every set this walk
    visits is added to ``ends``.
    """
    n = W.shape[0]
    medoids = [first]
    near = W[first].copy()
    while len(medoids) < k:
        gains = np.maximum(near[None, :] - W, 0.0).sum(axis=1)
        gains[medoids] = -1.0
        c = int(np.argmax(gains))
        medoids.append(c)
        near = np.minimum(near, W[c])

    # swap until no strict improvement; deltas[i, h] is the change in cost
    # when medoid i leaves and object h joins (scored for all h at once)
    chosen = np.array(sorted(medoids), dtype=np.int64)
    columns = np.arange(n)
    deltas = np.empty((k, n))
    visited = []
    while True:
        key = chosen.tobytes()
        if key in ends:
            chosen = ends[key]
            break
        visited.append(key)
        rows = W[chosen]
        nearest = rows.argmin(axis=0)
        d1 = rows[nearest, columns]
        rows[nearest, columns] = np.inf
        d2 = rows.min(axis=0)  # distance to the second-nearest medoid
        current = d1.sum()
        for i in range(k):
            d_excl = np.where(nearest == i, d2, d1)
            deltas[i] = np.minimum(d_excl[None, :], W).sum(axis=1) - current
        deltas[:, chosen] = np.inf
        flat = int(np.argmin(deltas))  # first minimum: lowest medoid, then candidate
        if deltas.flat[flat] >= 0.0:
            break
        i, h = divmod(flat, n)
        chosen[i] = h
        chosen.sort()
    ends.update(dict.fromkeys(visited, chosen))
    return chosen


def _check_pam_k(k, n):
    # an integer k checked against a PAM problem of n objects
    if not 2 <= k < n:
        raise ValueError("k must satisfy 2 <= k < n=%d, got %d" % (n, k))


def _pams(distances, k):
    """:func:`pam` of each CondensedDistanceMatrix in ``distances``, all of
    one size n; Clusterings in input order, equal to pam's bit for bit.
    Stacked or one by one, by the rule of the module docstring."""
    if distances and distances[0].n < _LINKAGE_SMALL:
        return _stacked_pam(distances, k)
    return [pam(D, k) for D in distances]


def _stacked_pam(distances, k):
    """:func:`pam` of L problems of one size n < _LINKAGE_SMALL (the
    stacking rule is in the module docstring).

    Start s of every problem is walked before start s + 1 of any: one greedy
    build of all L problems, then swap rounds by :func:`_stacked_swaps`.
    Each problem keeps its own ``ends``, so its walks stop where pam's do,
    and a later start replaces its kept result only at a strictly lower
    cost.  Every sum (row sums, gains, deltas, costs) reduces the same
    contiguous row of length n that pam reduces, so labels, medoids and
    objectives equal pam's bit for bit.
    """
    k = _check_integer(k, "k")
    n = distances[0].n
    _check_pam_k(k, n)
    W = _stacked_squares(distances, n, 0.0)
    scratch = np.empty_like(W)  # the (L, n, n) temporaries of builds and swaps
    count = len(distances)
    problems = np.arange(count)
    every = problems[:, None]
    ends = [{} for _ in problems]
    best, objectives = np.empty((count, k), dtype=np.int64), np.full(count, np.inf)
    for first in np.argsort(W.sum(axis=2), axis=1, kind="stable")[:, :_PAM_STARTS].T:
        medoids = np.empty((count, k), dtype=np.int64)
        medoids[:, 0] = first
        near = W[problems, first]
        for m in range(1, k):
            gains = np.subtract(near[:, None, :], W, out=scratch)
            gains = np.maximum(gains, 0.0, out=gains).sum(axis=2)
            gains[every, medoids[:, :m]] = -1.0
            medoids[:, m] = c = np.argmax(gains, axis=1)
            near = np.minimum(near, W[problems, c])
        medoids.sort(axis=1)
        _stacked_swaps(W, medoids, ends, scratch)
        costs = W[every, medoids].min(axis=1).sum(axis=1)
        better = costs < objectives
        best[better], objectives[better] = medoids[better], costs[better]
    labels = W[every, best].argmin(axis=1).astype(np.int64) + 1
    labels[every, best] = np.arange(1, k + 1)  # a medoid never leaves its own cluster
    return [Clustering(labels=labels[l], medoids=best[l], objective=float(objectives[l]))
            for l in problems]


def _stacked_swaps(W, medoids, ends, scratch):
    """The swap walks of :func:`_build_swap` from each row of ``medoids``
    (ascending) on its problem's layer of ``W``, in place.

    Each round, a walk that reaches a set in its problem's ``ends`` stops
    there with that set's end; the walks still running are then computed
    together, their deltas formed one medoid at a time over (active, n, n)
    temporaries in ``scratch``, and each takes its first best swap or stops
    at none that improves.  Every set a walk visits is added to its
    problem's ``ends``.
    """
    count, k = medoids.shape
    n = W.shape[1]
    columns = np.arange(n)
    visited = [[] for _ in range(count)]
    active, Wa = list(range(count)), W
    while active:
        running = []
        for l in active:
            key = medoids[l].tobytes()
            end = ends[l].get(key)
            if end is None:
                visited[l].append(key)
                running.append(l)
            else:
                medoids[l] = end
                ends[l].update(dict.fromkeys(visited[l], end))
        if not running:
            break
        if len(running) < Wa.shape[0]:  # walks only stop: a new length is a new set
            Wa = W[running]
        size = len(running)
        walks = np.arange(size)
        chosen = medoids[running]
        rows = Wa[walks[:, None], chosen]  # (active, k, n)
        nearest = rows.argmin(axis=1)
        at_nearest = walks[:, None], nearest, columns
        d1 = rows[at_nearest]
        rows[at_nearest] = np.inf
        d2 = rows.min(axis=1)  # distance to the second-nearest medoid
        current = d1.sum(axis=1)[:, None]
        deltas = np.empty((size, k, n))
        for i in range(k):
            d_excl = np.where(nearest == i, d2, d1)
            excluded = np.minimum(d_excl[:, None, :], Wa, out=scratch[:size])
            np.subtract(excluded.sum(axis=2), current, out=deltas[:, i])
        deltas[walks[:, None], :, chosen] = np.inf
        deltas = deltas.reshape(size, k * n)
        flat = np.argmin(deltas, axis=1)  # first minimum: lowest medoid, then candidate
        improves = deltas[walks, flat] < 0.0
        i, h = np.divmod(flat[improves], n)
        chosen[improves, i] = h
        chosen.sort(axis=1)
        medoids[running] = chosen
        active = []
        for l, swapped in zip(running, improves.tolist()):
            if swapped:
                active.append(l)
            else:
                ends[l].update(dict.fromkeys(visited[l], medoids[l].copy()))


def _stacked_squares(distances, size, fill):
    """An (L, size, size) stack of ``fill`` whose layer l holds problem l's
    distances, all of one size n <= size, in its leading n x n corner (its
    diagonal too holds ``fill``)."""
    n = distances[0].n
    W = np.full((len(distances), size, size), fill)
    entries = np.array([D.entries for D in distances])
    rows, cols = np.nonzero(_strict_lower(n))  # condensed order
    W[:, rows, cols] = entries
    W[:, cols, rows] = entries
    return W


# Below this many live nodes a linkage matrix gets room for every merge left
# (2m - 1 slots for m live nodes) and is never compacted: a full scan there
# takes about a microsecond, less than a compaction would save.
_LINKAGE_SMALL = 64


def _linkage_slots(live):
    """Slots for a linkage matrix of ``live`` nodes: room for every merge left
    below _LINKAGE_SMALL, else for a quarter more nodes."""
    return 2 * live - 1 if live < _LINKAGE_SMALL else live + live // 4


def _padded(block, slots):
    # a (slots, slots) matrix of inf with ``block`` in its leading corner
    W = np.full((slots, slots), np.inf)
    W[:block.shape[0], :block.shape[0]] = block
    return W


def linkage(D, method):
    """Agglomerative clustering with complete or average linkage.

    Starts from singletons and repeatedly joins the pair of clusters with the
    smallest inter-cluster distance: the largest member distance for
    ``complete``, the unweighted mean over member pairs for ``average``.
    Equal candidate distances are broken by the smallest (left, right) node-id
    pair.

    The search runs on a float64 matrix whose row and column s hold the node
    in slot s.  Live nodes sit in slots in node-id order; each merge writes the
    Lance-Williams row of the new node in place, in the slot after the last
    one used, and retires its two children.  When the slots run out, the live
    rows and columns are copied, in order, into a new matrix with room for a
    quarter more nodes (below 64 live nodes, for all merges left), so each
    scan covers about as many slots as there are live nodes.  Time is O(n^3),
    memory about (5n/4)^2 float64 values (0.3 MB at n=150).  An ``average``
    update that overflows float64 (distances near the largest float) raises
    ValueError.

    Returns
    -------
    Dendrogram
    """
    square = _square(D)
    if method not in LINKAGE_METHODS:
        raise ValueError("unknown linkage method %r" % (method,))
    n = square.shape[0]
    # the diagonal, merged-away nodes and slots not used yet hold inf
    slots = _linkage_slots(n)
    W = _padded(square, slots)
    np.fill_diagonal(W, np.inf)
    ids = list(range(n))  # ids[s]: the node in slot s, None once merged away
    sizes = [1.0] * n
    merges, heights = [], []
    # an overflowing average update leaves inf, which the check below reports
    with np.errstate(over="ignore"):
        for node in range(n, 2 * n - 1):
            slot = len(ids)
            if slot == slots:  # slots run out: compact the live nodes
                live = [s for s, i in enumerate(ids) if i is not None]
                slots = _linkage_slots(len(live))
                W = _padded(W[np.ix_(live, live)], slots)
                ids = [ids[s] for s in live]
                sizes = [sizes[s] for s in live]
                slot = len(ids)
            # W is symmetric and slot order is id order, so the first minimum in
            # row-major order falls in the row of the smallest id among the tied
            # pairs, at its smallest partner: the smallest (id, id) pair, a < b.
            a, b = divmod(int(W.argmin()), slots)
            height = W[a, b]
            if height == np.inf:  # finite inputs: only an average can overflow
                raise ValueError("average linkage overflowed: distances too large")
            merges.append((ids[a], ids[b]))
            heights.append(height)
            sa, sb = sizes[a], sizes[b]
            # row b is retired below, so the update may overwrite it
            W[:, slot] = _lance_williams(method, W[a], W[b], sa, sb, out=W[slot])
            W[a] = W[b] = np.inf
            W[:, a] = np.inf
            W[:, b] = np.inf
            ids[a] = ids[b] = None
            ids.append(node)
            sizes.append(sa + sb)
    return Dendrogram._built(n, np.array(merges, dtype=np.int64), np.array(heights))


def _lance_williams(method, row_a, row_b, size_a, size_b, out):
    """Write the Lance-Williams row of the node joining a and b into ``out``.

    ``row_a`` and ``row_b`` hold the distances of nodes a and b, of sizes
    ``size_a`` and ``size_b`` (rows of one problem, or (L, slots) rows of L
    problems with (L, 1) sizes).  ``row_b`` may be overwritten.  Returns
    ``out``.
    """
    if method == "complete":
        return np.maximum(row_a, row_b, out=out)
    # (sa * W[a] + sb * W[b]) / (sa + sb)
    np.multiply(row_a, size_a, out=out)
    out += np.multiply(row_b, size_b, out=row_b)
    out /= size_a + size_b
    return out


def _linkages(distances, method):
    """:func:`linkage` of each CondensedDistanceMatrix in ``distances``, all
    of one size n; Dendrograms in input order, equal to linkage's bit for bit.
    Stacked or one by one, by the rule of the module docstring."""
    if distances and distances[0].n < _LINKAGE_SMALL:
        return _stacked_linkage(distances, method)
    return [linkage(D, method) for D in distances]


def _stacked_linkage(distances, method):
    """:func:`linkage` of L problems of one size n < _LINKAGE_SMALL, in one
    loop (the stacking rule is in the module docstring).

    Problem l has in ``W[l]`` the (2n - 1)-slot matrix that linkage uses below
    _LINKAGE_SMALL: node s in slot s, never compacted.  Each step, one argmin
    over the rows of the flattened stack finds every problem's first
    row-major minimum (linkage's tie rule), the merged pairs' rows are
    gathered, each new node's row and column are written into the step's
    slot, and the pairs' rows and columns are retired.  The update is
    :func:`_lance_williams`, so every merge and height equals linkage's.  An
    average update that overflows raises linkage's ValueError.
    """
    n = distances[0].n
    count, slots = len(distances), 2 * n - 1
    W = _stacked_squares(distances, slots, np.inf)
    flat = W.reshape(count, slots * slots)
    problems = np.arange(count)
    every = problems[:, None]
    sizes = np.ones((count, slots, 1))
    firsts = np.empty((n - 1, count), dtype=np.int64)
    heights = np.empty((n - 1, count))
    pair = np.empty((count, 2), dtype=np.int64)
    a, b = pair.T  # views: each step's merged slots, a < b
    # an overflowing average update leaves inf, which the check below reports
    with np.errstate(over="ignore"):
        for step, slot in enumerate(range(n, slots)):
            first = np.argmin(flat, axis=1, out=firsts[step])
            heights[step] = flat[problems, first]
            np.divmod(first, slots, out=(a, b))
            sa, sb = sizes[problems, a], sizes[problems, b]
            row = W[problems, a]
            _lance_williams(method, row, W[problems, b], sa, sb, out=row)
            W[:, slot] = row
            W[:, :, slot] = row
            W[every, pair] = np.inf
            W[every, :, pair] = np.inf
            np.add(sa, sb, out=sizes[:, slot])
    if np.isinf(heights).any():  # finite inputs: only an average can overflow
        raise ValueError("average linkage overflowed: distances too large")
    merges = np.stack(np.divmod(firsts, slots), axis=2)  # (n - 1, count, 2)
    return [Dendrogram._built(n, merges[:, l], heights[:, l]) for l in range(count)]


def cut_tree(dendrogram, k):
    """Partition into k clusters by undoing the last k-1 merges.

    Clusters are numbered 1..k in order of their smallest member index.

    Returns
    -------
    np.ndarray of int64 labels, one per leaf.
    """
    if not isinstance(dendrogram, Dendrogram):
        raise TypeError("expected a Dendrogram")
    n = dendrogram.n_leaves
    k = _check_k(k, n, "n")
    top = list(range(2 * n - 1))  # top[i]: the topmost node above node i after the cut
    merges = dendrogram.merges.tolist()
    for node in range(2 * n - k - 1, n - 1, -1):  # last applied merge first
        a, b = merges[node - n]
        top[a] = top[b] = top[node]
    numbers = {}  # cluster number of each top node, by first appearance
    return np.array([numbers.setdefault(t, len(numbers) + 1) for t in top[:n]], dtype=np.int64)


def _check_k(k, n, name):
    """``k`` as an integer, checked to satisfy 1 <= k <= n: the cluster
    counts a tree of n leaves can be cut at (``name`` "n"), or the neighbour
    counts of n training objects (``name`` "n_train")."""
    k = _check_integer(k, "k")
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= %s=%d, got %d" % (name, n, k))
    return k


def knn_classify(cross_distances, train_labels, k):
    """k-nearest-neighbour majority vote from a precomputed distance matrix.

    Parameters
    ----------
    cross_distances : (n_test, n_train) array
        Entry (a, b) is the distance from test object a to training object b.
    train_labels : label vector of length n_train
    k : int, 1 <= k <= n_train

    Tie rules: equal distances at the k-th neighbour go to the lower training
    index; vote ties go to the class with the smaller summed distance over its
    voting neighbours, then to the smaller class label.

    Each row's neighbours are selected, not sorted in full: every entry at or
    below the row's k-th smallest distance (``np.partition``) is a candidate,
    and only the candidates are put in (distance, index) order, a stable sort.

    Returns
    -------
    np.ndarray of int64 predicted labels, one per test object.
    """
    k = _check_integer(k, "k")
    Dx = _check_dtype(cross_distances, "distances").astype(np.float64, copy=False)
    if Dx.ndim != 2:
        raise ValueError("expected a 2-D cross-distance matrix")
    y, n_classes = check_labels(train_labels, n_expected=Dx.shape[1])
    return _knn_classify(Dx, y, n_classes, k)


def _knn_classify(Dx, y, n_classes, k):
    """:func:`knn_classify` on a 2-D float64 ``Dx``, checked labels ``y`` of
    ``n_classes`` classes, one per column, and an integer ``k``.  The
    distances and the range of ``k`` are checked here."""
    if not np.all(np.isfinite(Dx)) or np.any(Dx < 0):
        raise ValueError("distances must be finite and non-negative")
    _check_k(k, Dx.shape[1], "n_train")
    n_test = Dx.shape[0]
    kth = np.partition(Dx, k - 1, axis=1)[:, k - 1]
    rows, cols = np.nonzero(Dx <= kth[:, None])  # row-major: indices ascend per row
    order = np.lexsort((Dx[rows, cols], rows))  # stable: index order among equals
    # each row holds >= k candidates; its first k in that order are its neighbours
    counts = np.bincount(rows, minlength=n_test)
    starts = np.cumsum(counts) - counts
    neighbours = cols[order][starts[:, None] + np.arange(k)]
    voters = y[neighbours]
    # votes[a, c]: neighbours of test row a in class c, from one bincount
    offset = np.arange(n_test)[:, None] * (n_classes + 1)
    votes = np.bincount((offset + voters).ravel(), minlength=n_test * (n_classes + 1))
    votes = votes.reshape(n_test, n_classes + 1)
    out = votes.argmax(axis=1)
    top = votes.max(axis=1)
    for a in np.flatnonzero((votes == top[:, None]).sum(axis=1) > 1):
        best_sum = np.inf
        for c in np.flatnonzero(votes[a] == top[a]):
            # ascending labels: the strict < keeps the smaller one on ties
            s = Dx[a, neighbours[a][voters[a] == c]].sum()
            if s < best_sum:
                best_sum = s
                out[a] = c
    return out.astype(np.int64, copy=False)
