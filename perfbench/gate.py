"""Correctness gate: invariants the outputs must satisfy on each workload's data.

The gate rests on invariants and on scipy as an independent reference, not
on golden digests of the results, so that a change which legitimately moves
labels (for example multi-start PAM) still passes.  Every check counts as one
operation attempted; every failed check counts in the error rate.

scipy is imported inside the functions that use it: the gate runs after the
timed part, and importing scipy earlier would add to the measured peak RSS.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from scaledist.distance import cross, format_order, pairwise
from scaledist.learn import linkage
from scaledist.standardise import fit_standardiser

RTOL = 1e-9  # relative tolerance against scipy; our kernel rescales by the row maximum


class Gate:
    """Counts checks attempted and keeps a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append("%s: %s" % (name, detail) if detail else name)


def record_key(r):
    """A record without its wall time, the one field that is not reproducible."""
    return (r.setup, r.replicate, r.seed, r.standardisation, r.q, r.method, r.metric, r.value)


def check_records(gate, records, n_test):
    """Score ranges: ARI in [-1, 1]; misclassification in [0, 1] on the 1/n_test grid."""
    for r in records:
        where = "%s/%s/q=%s/%s" % (r.replicate, r.standardisation, format_order(r.q), r.method)
        if r.metric == "ari":
            gate.check("ari range", -1.0 <= r.value <= 1.0, "%s = %r" % (where, r.value))
        else:
            steps = r.value * n_test
            gate.check(
                "misclassification grid",
                0.0 <= r.value <= 1.0 and abs(steps - round(steps)) < 1e-9,
                "%s = %r with n_test = %d" % (where, r.value, n_test),
            )


def check_same_records(gate, name, got, want):
    """Two record lists agree field by field (wall time aside)."""
    got = [record_key(r) for r in got]
    want = [record_key(r) for r in want]
    detail = ""
    if got != want:
        diff = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        detail = "first difference at record %d of %d/%d" % (diff, len(got), len(want))
    gate.check(name, got == want, detail)


def _scipy_metric(q):
    if q == 1.0:
        return "cityblock", {}
    if math.isinf(q):
        return "chebyshev", {}
    return "minkowski", {"p": q}


def _close(ours, ref):
    ours = np.asarray(ours)
    ref = np.asarray(ref)
    if ours.shape != ref.shape:
        return False, "shape %r vs %r" % (ours.shape, ref.shape)
    err = np.abs(ours - ref) / np.maximum(np.abs(ref), np.finfo(float).tiny)
    worst = float(err.max()) if err.size else 0.0
    return worst <= RTOL, "max relative error %.3g" % worst


def to_scipy_condensed(D):
    """Our condensed order is (0,1),(0,2),(1,2),...; scipy's is (0,1),(0,2),...,(1,2)."""
    from scipy.spatial.distance import squareform

    return squareform(D.to_square(), checks=False)


def check_data(gate, workload, data):
    """Distances, linkage heights and boxplot bounds on one replicate's data.

    Returns the timings of our linkage calls (ms) for the reference section.
    """
    from scipy.cluster.hierarchy import linkage as scipy_linkage
    from scipy.spatial.distance import cdist, pdist

    linkage_ms = []
    for std_method in ("none", "boxplot"):
        std = fit_standardiser(data.x_train, std_method)
        x_train = std.transform(data.x_train)
        x_test = std.transform(data.x_test, cap=True)
        if std_method == "boxplot":
            gate.check("boxplot train within [-2, 2]", np.abs(x_train).max() <= 2.0,
                       "max |x| = %r" % float(np.abs(x_train).max()))
            gate.check("boxplot capped test within [-2, 2]", np.abs(x_test).max() <= 2.0,
                       "max |x| = %r" % float(np.abs(x_test).max()))
        for q in workload.orders:
            metric, kw = _scipy_metric(q)
            where = "%s q=%s" % (std_method, format_order(q))
            D = pairwise(x_train, q)
            ok, detail = _close(to_scipy_condensed(D), pdist(x_train, metric, **kw))
            gate.check("pairwise vs scipy pdist", ok, "%s: %s" % (where, detail))
            ok, detail = _close(cross(x_test, x_train, q), cdist(x_test, x_train, metric, **kw))
            gate.check("cross vs scipy cdist", ok, "%s: %s" % (where, detail))
        if std_method == "boxplot":
            D = pairwise(x_train, workload.orders[0])
            y = to_scipy_condensed(D)
            for method in ("complete", "average"):
                started = time.perf_counter()
                tree = linkage(D, method)
                linkage_ms.append(1e3 * (time.perf_counter() - started))
                ok, detail = _close(np.sort(tree.heights), np.sort(scipy_linkage(y, method)[:, 2]))
                gate.check("%s linkage heights vs scipy" % method, ok, detail)
    return linkage_ms


def _median_ms(fn, repeats=5):
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(1e3 * (time.perf_counter() - started))
    return statistics.median(times)


def scipy_reference(workload, data, linkage_ms):
    """Context figures only: scipy's time for the same job as ours.  Not gated."""
    from scipy.cluster.hierarchy import linkage as scipy_linkage
    from scipy.spatial.distance import pdist

    x = data.x_train
    ref = {}
    if workload.name == "paper_grid":
        for q in (1.0, 2.0, math.inf):
            metric, kw = _scipy_metric(q)
            label = format_order(q)
            ref["ref.scipy_pdist_ms.q" + label] = _median_ms(lambda: pdist(x, metric, **kw))
            ref["ref.scaledist_pairwise_ms.q" + label] = _median_ms(lambda: pairwise(x, q))
    if workload.name == "many_objects":
        y = to_scipy_condensed(pairwise(fit_standardiser(x, "boxplot").transform(x),
                                        workload.orders[0]))
        ref["ref.scipy_linkage_ms"] = statistics.median(
            _median_ms(lambda: scipy_linkage(y, method)) for method in ("complete", "average")
        )
        ref["ref.scaledist_linkage_ms"] = statistics.median(linkage_ms)
    return ref
