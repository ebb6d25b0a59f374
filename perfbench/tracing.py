"""Traced mirror of ``harness.run_replicate``.

The mirror calls the public function of each scaledist module in the order
the harness does and wraps each call in a span, so the per-layer times come
from the benchmark's own files and the program stays untouched.  Its records
must equal the harness records for the same replicate; the gate checks that.

Counters are computed from the inputs and the returned objects (shapes,
fitted parameters, dendrograms), never from timings, so they repeat exactly
for one seed.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from scaledist.distance import cross, pairwise
from scaledist.evaluate import adjusted_rand_index, misclassification_rate
from scaledist.harness import CLUSTER_METHODS, ResultRecord
from scaledist.learn import cut_tree, knn_classify, linkage, pam
from scaledist.simgen import generate
from scaledist.standardise import POOLED_METHODS, fit_standardiser

# span name -> per-layer metric holding its median per-replicate total
LAYER_MS = {
    "simgen.generate": "simgen.generate.ms",
    "standardise.fit_linear": "standardise.fit_linear.ms",
    "standardise.fit_boxplot": "standardise.fit_boxplot.ms",
    "standardise.transform": "standardise.transform.ms",
    "distance.pairwise": "distance.pairwise.ms",
    "distance.cross": "distance.cross.ms",
    "learn.pam": "learn.pam.ms",
    "learn.linkage": "learn.linkage.ms",
    "learn.cut_tree": "learn.cut_tree.ms",
    "learn.knn": "learn.knn.ms",
    "evaluate": "evaluate.ms",
}


class Tracer:
    """Per-replicate layer times and work counters, kept in memory until the run ends.

    Every span sits directly under its replicate's root, so a span only adds
    its elapsed time to the replicate's total for its name.
    """

    def __init__(self):
        self.replicates = []  # (root seconds, span name -> seconds, counter -> count)
        self._times = None

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._times[name] += time.perf_counter() - start

    @contextmanager
    def replicate(self):
        """Root of one replicate; yields its counters.  Kept only if the replicate returns."""
        self._times, count = Counter(), Counter()
        start = time.perf_counter()
        yield count
        self.replicates.append((time.perf_counter() - start, self._times, count))


def traced_replicate(tracer, spec, setup_label, replicate, seed, standardisations,
                     orders, methods):
    """``run_replicate`` with a span around every call into a scaledist module.

    Returns the records in grid order; ``seconds`` is NaN because the benchmark
    never reads that field.
    """
    span = tracer.span
    records = []
    with tracer.replicate() as count:
        with span("simgen.generate"):
            data = generate(spec, seed)
        k_classes = int(data.y_train.max())
        n_train, p = data.x_train.shape
        n_test = data.x_test.shape[0]
        for std_method in standardisations:
            pooled = std_method in POOLED_METHODS
            layer = "standardise.fit_boxplot" if std_method == "boxplot" else "standardise.fit_linear"
            with span(layer):
                std = fit_standardiser(
                    data.x_train, std_method, labels=data.y_train if pooled else None
                )
            count["standardise.columns"] += p
            if std.method == "boxplot":
                bp = std.boxplot
                count["standardise.tails_fitted"] += int(
                    np.count_nonzero(~np.isnan(bp.t_lower)) + np.count_nonzero(~np.isnan(bp.t_upper))
                )
                count["standardise.zero_scale_columns"] += int(np.count_nonzero(bp.degenerate))
            else:
                count["standardise.zero_scale_columns"] += int(np.count_nonzero(std.scales == 0.0))
            with span("standardise.transform"):
                x_train = std.transform(data.x_train)
                x_test = std.transform(data.x_test, cap=True)
            cluster_tag = std_method + (":oracle" if pooled else "")
            for q in orders:
                train_d = None
                if any(m in CLUSTER_METHODS for m in methods):
                    with span("distance.pairwise"):
                        train_d = pairwise(x_train, q)
                    count["distance.diffs"] += n_train * (n_train - 1) // 2 * p
                for method in methods:
                    if method == "pam":
                        with span("learn.pam"):
                            labels = pam(train_d, k_classes).labels
                        with span("evaluate"):
                            value = adjusted_rand_index(labels, data.y_train)
                        metric, tag = "ari", cluster_tag
                    elif method in ("complete", "average"):
                        with span("learn.linkage"):
                            tree = linkage(train_d, method)
                        count["learn.linkage.merges"] += int(tree.merges.shape[0])
                        with span("learn.cut_tree"):
                            labels = cut_tree(tree, k_classes)
                        with span("evaluate"):
                            value = adjusted_rand_index(labels, data.y_train)
                        metric, tag = "ari", cluster_tag
                    else:  # knn3
                        with span("distance.cross"):
                            test_d = cross(x_test, x_train, q)
                        count["distance.diffs"] += n_test * n_train * p
                        with span("learn.knn"):
                            predicted = knn_classify(test_d, data.y_train, 3)
                        with span("evaluate"):
                            value = misclassification_rate(predicted, data.y_test)
                        metric, tag = "misclassification", std_method
                    records.append(
                        ResultRecord(
                            setup=setup_label, replicate=replicate, seed=seed,
                            standardisation=tag, q=q, method=method, metric=metric,
                            value=float(value), seconds=math.nan,
                        )
                    )
    return records


def layer_metrics(tracer):
    """Per-layer metrics from the span totals and counters of every traced replicate.

    Times are medians over replicates of each layer's per-replicate total;
    rates divide the summed busy time by the summed work count.  Counters are
    those of the first traced replicate, so they depend on the seed alone.
    """
    wall = [root for root, _, _ in tracer.replicates]
    reps = [times for _, times, _ in tracer.replicates]
    unattributed = [root - sum(times.values()) for root, times, _ in tracer.replicates]
    busy = sum(reps, Counter())
    work = sum((count for _, _, count in tracer.replicates), Counter())
    first = counters(tracer)
    out = {metric: 1e3 * statistics.median(t[name] for t in reps) for name, metric in LAYER_MS.items()}
    out.update({
        "distance.ns_per_diff":
            1e9 * (busy["distance.pairwise"] + busy["distance.cross"]) / work["distance.diffs"],
        "distance.diffs": first["distance.diffs"],
        "standardise.fit.us_per_column":
            1e6 * (busy["standardise.fit_linear"] + busy["standardise.fit_boxplot"])
            / work["standardise.columns"],
        "standardise.tails_fitted": first["standardise.tails_fitted"],
        "learn.linkage.us_per_merge": 1e6 * busy["learn.linkage"] / work["learn.linkage.merges"],
        "learn.linkage.merges": first["learn.linkage.merges"],
        "harness.traced_replicate.ms": 1e3 * statistics.median(wall),
        "harness.unattributed_ms": 1e3 * statistics.median(unattributed),
        "trace.coverage": 1.0 - sum(unattributed) / sum(wall),
    })
    return out


def counters(tracer):
    """The deterministic counters of the first traced replicate (zeros included).

    ``standardise.zero_scale_columns`` is reported here but is not a declared
    metric: the generated columns are continuous, so it reads 0 on every workload.
    """
    first = tracer.replicates[0][2]
    names = ("distance.diffs", "learn.linkage.merges", "standardise.columns",
             "standardise.tails_fitted", "standardise.zero_scale_columns")
    return {k: first[k] for k in names}
