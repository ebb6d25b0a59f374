"""Experiment harness: simulation grids over standardisation x order x method.

One experiment draws ``replicates`` datasets from a setup and, for every
combination of standardisation method, aggregation order q and learner,
records one score per replicate: the adjusted Rand index against the true
classes for the clustering methods (pam, complete, average, always on the
training data with k = number of classes), and the test misclassification
rate for knn3 (3 nearest neighbours, fitted on training data).

Standardisation is always fitted on training data only; the boxplot transform
is applied to test data with capping.  Pooled standardisations use class
labels: legitimate for the supervised knn3, label-leaking for clustering, so
clustering with a pooled method must be enabled explicitly (oracle_pooling)
and those rows are tagged ':oracle' in the output.

Reproducibility: replicate r uses word r of
``SeedSequence(seed).generate_state(replicates, uint64)`` as its data seed
(also written to the output, so single replicates can be regenerated with the
``simulate`` subcommand).  Replicates are independent and may run in parallel
(SCALEDIST_JOBS processes, or the machine's CPU count); the records and all
default outputs are byte-identical for any job count.  Wall-clock timings are
kept in memory but written to the CSV only when timing is enabled, precisely
because they are the one field that cannot be reproducible.

Distances are built once per standardisation, for all orders together: the
training pairwise distances when a clustering method is requested, the
test-to-training cross distances when knn3 is.  A record's ``seconds``
covers the learner call and its scoring only; for pam and the linkages that
includes the learner's own expansion of the condensed distances to a square
(no square is shared between learners).  Distance construction, shared by
all orders and methods of a standardisation, is in no cell.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import _atomic_write, _check_json_kinds, _read_lines
from .distance import check_order, cross_orders, format_order, pairwise_orders, parse_order
from .evaluate import adjusted_rand_index, misclassification_rate
from .learn import cut_tree, knn_classify, linkage, pam
from .simgen import SetupSpec, _catalog_setup, generate
from .standardise import METHODS, POOLED_METHODS, fit_standardiser

__all__ = [
    "CLUSTER_METHODS",
    "EXPERIMENT_METHODS",
    "RESULTS_HEADER",
    "ResultRecord",
    "ExperimentConfig",
    "replicate_seeds",
    "run_replicate",
    "run_experiment",
    "run_experiment_to_files",
    "summarise",
    "write_records_csv",
    "read_records_csv",
    "write_summary_json",
]

CLUSTER_METHODS = ("pam", "complete", "average")
EXPERIMENT_METHODS = CLUSTER_METHODS + ("knn3",)

RESULTS_HEADER = "setup,replicate,seed,standardisation,q,method,metric,value,seconds"

JOBS_ENV_VAR = "SCALEDIST_JOBS"


# slotted: a run holds every record in memory before writing any
@dataclass(frozen=True, slots=True)
class ResultRecord:
    """One scored run: a (setup, replicate, standardisation, q, method) cell.

    ``seconds`` is the wall time of the learner call and its scoring only,
    with the learner's own expansion of the condensed distances to a square;
    the distances, built beforehand for every order and method of the
    standardisation, are counted in no cell.
    """

    setup: str
    replicate: int
    seed: int
    standardisation: str
    q: float
    method: str
    metric: str
    value: float
    seconds: float


# JSON kinds of each config value
_CONFIG_KINDS = {
    "setup": ("string", "object"), "replicates": ("integer",), "seed": ("integer",),
    "p": ("integer", "null"), "n_per_class": ("integer", "null"),
    "standardisations": ("list",), "orders": ("list",), "methods": ("list",),
    "oracle_pooling": ("bool",), "timing": ("bool",),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment grid.

    ``setup`` is a catalog name or a custom :class:`SetupSpec`; ``p`` and
    ``n_per_class`` override the setup's size when given.  ``orders`` holds
    the Minkowski orders (math.inf allowed).  The grid axes are lists or
    tuples (kept as tuples, orders as floats).

    Construction only makes the axes tuples.  :meth:`validate` checks a config
    built in Python as :meth:`from_json_dict` checks one read from JSON: its
    :meth:`to_json_dict` image must pass the same type table, so a count
    must be a Python int (not a float, a bool or a numpy integer, which the
    summary JSON could not hold) and a flag must be True or False.
    """

    setup: str | SetupSpec
    replicates: int
    seed: int
    standardisations: tuple = ("none",)
    orders: tuple = (1.0,)
    methods: tuple = EXPERIMENT_METHODS
    p: int | None = None
    n_per_class: int | None = None
    oracle_pooling: bool = False
    timing: bool = False

    def __post_init__(self):
        # grid axes become tuples, orders of floats; an axis that is not a list
        # or tuple is left for validate() to name
        if isinstance(self.orders, (list, tuple)):
            object.__setattr__(self, "orders", tuple(float(q) for q in self.orders))
        for name in ("standardisations", "methods"):
            if isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))

    def validate(self):
        """Return the config, or raise one ValueError naming the first bad value."""
        _check_json_kinds(self.to_json_dict(), _CONFIG_KINDS, "config")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.standardisations:
            raise ValueError("no standardisation methods requested")
        for s in self.standardisations:
            if s not in METHODS:
                raise ValueError("unknown standardisation method %r" % (s,))
        if not self.orders:
            raise ValueError("no aggregation orders requested")
        for q in self.orders:
            check_order(q)
        if not self.methods:
            raise ValueError("no methods requested")
        for m in self.methods:
            if m not in EXPERIMENT_METHODS:
                raise ValueError("unknown method %r" % (m,))
        pooled = [s for s in self.standardisations if s in POOLED_METHODS]
        wants_clustering = any(m in CLUSTER_METHODS for m in self.methods)
        if pooled and wants_clustering and not self.oracle_pooling:
            raise ValueError(
                "pooled standardisation (%s) uses class labels; clustering with it "
                "requires oracle_pooling" % ", ".join(pooled)
            )
        self.resolve_spec()
        return self

    def resolve_spec(self):
        """The SetupSpec this experiment draws from, with size overrides applied."""
        spec = self.setup if isinstance(self.setup, SetupSpec) else _catalog_setup(self.setup)
        return spec.with_size(p=self.p, n_per_class=self.n_per_class)

    def to_json_dict(self):
        # safe on an unchecked config: validate() checks this image
        def listed(axis, item=lambda v: v):
            return [item(v) for v in axis] if isinstance(axis, tuple) else axis

        setup = self.setup.to_json_dict() if isinstance(self.setup, SetupSpec) else self.setup
        return {
            "setup": setup,
            "replicates": self.replicates,
            "seed": self.seed,
            "standardisations": listed(self.standardisations),
            "orders": listed(self.orders, format_order),
            "methods": listed(self.methods),
            "p": self.p,
            "n_per_class": self.n_per_class,
            "oracle_pooling": self.oracle_pooling,
            "timing": self.timing,
        }

    @classmethod
    def from_json_dict(cls, data):
        """Config from a JSON object such as :meth:`to_json_dict` writes.

        Raises ValueError on unknown keys and on values of the wrong JSON
        type: a catalog name or a :meth:`SetupSpec.from_json_dict` object for
        ``setup``, lists for the grid axes, true/false for the flags, integers
        (not booleans or fractions) for the counts, or null for ``p`` and
        ``n_per_class``.
        """
        if not isinstance(data, dict) or "setup" not in data:
            raise ValueError("expected a JSON object with at least 'setup'")
        _check_json_kinds(data, _CONFIG_KINDS, "config")
        kwargs = {"replicates": 100, "seed": 0}
        kwargs.update((key, value) for key, value in data.items() if value is not None)
        if isinstance(data["setup"], dict):
            kwargs["setup"] = SetupSpec.from_json_dict(data["setup"])
        if "orders" in data:
            kwargs["orders"] = tuple(parse_order(q) for q in data["orders"])
        return cls(**kwargs)


def replicate_seeds(seed, replicates):
    """Data seed for each replicate: the uint64 state words of the master seed.

    ``seed`` is a non-negative integer (a numpy integer too); ValueError on
    anything else, integral floats included.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError("seed must be an integer, got %r" % (seed,))
    state = np.random.SeedSequence(int(seed)).generate_state(replicates, np.uint64)
    return [int(s) for s in state]


def _grid_cells(standardisations, orders, methods):
    """(standardisation tag, q, method, metric) of each record, in grid order."""
    cells = []
    for std_method in standardisations:
        cluster_tag = std_method + (":oracle" if std_method in POOLED_METHODS else "")
        for q in orders:
            for method in methods:
                if method == "knn3":
                    cells.append((std_method, q, method, "misclassification"))
                else:
                    cells.append((cluster_tag, q, method, "ari"))
    return cells


def _label_scores(setup_label, replicate, seed, cells, scores):
    return [ResultRecord(setup_label, replicate, seed, *cell, value, seconds)
            for cell, (value, seconds) in zip(cells, scores)]


def run_replicate(spec, setup_label, replicate, seed, standardisations, orders,
                  methods, oracle_pooling=False):
    """Score one replicate.

    Pure function of its arguments; returns the records in grid order
    (standardisation, then q, then method).  Distances are built per
    standardisation for all orders at once; each clustering learner expands
    its own square, timed in its cell's ``seconds``, and none is shared.
    ``oracle_pooling`` is accepted but unused; :meth:`ExperimentConfig.validate`
    makes the check it stands for.
    """
    return _label_scores(setup_label, replicate, seed,
                         _grid_cells(standardisations, orders, methods),
                         _score_replicate(spec, seed, standardisations, orders, methods))


def _score_replicate(spec, seed, standardisations, orders, methods):
    """(value, seconds) of each cell of one replicate, in grid order.

    The unit of parallel work: a worker returns these bare pairs, and
    :func:`run_experiment` labels them as records.
    """
    data = generate(spec, seed)
    return [score for std_method in standardisations
            for score in _score_standardisation(data, std_method, orders, methods)]


def _score_standardisation(data, std_method, orders, methods):
    """(value, seconds) of one standardisation's cells, in grid order; its
    matrices and distances are freed on return, before the next fit."""
    k_classes = int(data.y_train.max())
    pooled = std_method in POOLED_METHODS
    std = fit_standardiser(data.x_train, std_method, labels=data.y_train if pooled else None)
    x_train = std.transform(data.x_train)
    x_test = std.transform(data.x_test, cap=True)
    if any(m in CLUSTER_METHODS for m in methods):
        train_ds = pairwise_orders(x_train, orders)
    if "knn3" in methods:
        test_ds = cross_orders(x_test, x_train, orders)
    scores = []
    for i in range(len(orders)):
        for method in methods:
            started = time.perf_counter()
            if method == "pam":
                labels = pam(train_ds[i], k_classes).labels
                value = adjusted_rand_index(labels, data.y_train)
            elif method in ("complete", "average"):
                labels = cut_tree(linkage(train_ds[i], method), k_classes)
                value = adjusted_rand_index(labels, data.y_train)
            else:  # knn3
                predicted = knn_classify(test_ds[i], data.y_train, 3)
                value = misclassification_rate(predicted, data.y_test)
            scores.append((float(value), time.perf_counter() - started))
    return scores


def _resolve_jobs(jobs):
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    "%s must be an integer, got %r" % (JOBS_ENV_VAR, env)
                ) from None
        else:
            jobs = os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError("job count must be >= 1, got %d" % jobs)
    return jobs


def run_experiment(config, jobs=None):
    """Run the full grid; returns records ordered by replicate, then grid order.

    ``jobs`` defaults to the SCALEDIST_JOBS environment variable, else the
    CPU count.  Replicates are scored in separate processes when jobs > 1;
    the output does not depend on the job count.
    """
    config.validate()
    jobs = _resolve_jobs(jobs)
    spec = config.resolve_spec()
    setup_label = config.setup if isinstance(config.setup, str) else spec.name
    seeds = replicate_seeds(config.seed, config.replicates)
    score = functools.partial(_score_replicate, spec, standardisations=config.standardisations,
                              orders=config.orders, methods=config.methods)
    if jobs == 1 or config.replicates == 1:
        batches = [score(seed) for seed in seeds]
    else:
        # workers return bare scores and the records are labelled here, so
        # they share one object per grid value instead of unpickled copies
        with ProcessPoolExecutor(max_workers=min(jobs, config.replicates)) as pool:
            batches = list(pool.map(score, seeds))
    cells = _grid_cells(config.standardisations, config.orders, config.methods)
    return [record for r, scores in enumerate(batches)
            for record in _label_scores(setup_label, r, seeds[r], cells, scores)]


def write_records_csv(path, records, timing=False):
    """Write records under the fixed header.

    The seconds field is left empty unless ``timing`` is set: wall time is the
    one field that would break bytewise reproducibility of otherwise identical
    runs.
    """
    lines = [RESULTS_HEADER]
    for r in records:
        lines.append(
            "%s,%d,%d,%s,%s,%s,%s,%s,%s"
            % (
                r.setup,
                r.replicate,
                r.seed,
                r.standardisation,
                format_order(r.q),
                r.method,
                r.metric,
                repr(float(r.value)),
                repr(float(r.seconds)) if timing else "",
            )
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def read_records_csv(path):
    """Read a results CSV written by :func:`write_records_csv`."""
    lines = _read_lines(path)
    if not lines or lines[0] != RESULTS_HEADER:
        raise ValueError("%s: missing results header %r" % (path, RESULTS_HEADER))
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 9:
            raise ValueError("line %d: %d fields, expected 9" % (lineno, len(cells)))
        try:
            records.append(
                ResultRecord(
                    setup=cells[0],
                    replicate=int(cells[1]),
                    seed=int(cells[2]),
                    standardisation=cells[3],
                    q=parse_order(cells[4]),
                    method=cells[5],
                    metric=cells[6],
                    value=float(cells[7]),
                    seconds=float(cells[8]) if cells[8] != "" else math.nan,
                )
            )
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from None
    return records


def summarise(records):
    """Aggregate records into means per (standardisation, q, method, metric).

    Groups appear in first-encounter order.  ``se`` is the standard error of
    the mean (sample standard deviation / sqrt(count); 0.0 for a single
    record).

    Returns a list of dicts with keys standardisation, q, method, metric,
    mean, se, count.
    """
    groups = {}
    for r in records:
        key = (r.standardisation, format_order(r.q), r.method, r.metric)
        groups.setdefault(key, []).append(r.value)
    rows = []
    for key, values in groups.items():
        values = np.array(values)
        count = values.shape[0]
        se = float(np.std(values, ddof=1) / np.sqrt(count)) if count > 1 else 0.0
        rows.append(
            {
                "standardisation": key[0],
                "q": key[1],
                "method": key[2],
                "metric": key[3],
                "mean": float(values.mean()),
                "se": se,
                "count": count,
            }
        )
    return rows


def write_summary_json(path, rows, config=None):
    payload = {"groups": rows}
    if config is not None:
        payload = {"config": config.to_json_dict(), "groups": rows}
    _atomic_write(path, json.dumps(payload, indent=1) + "\n")


def run_experiment_to_files(config, out_csv, summary_json=None, jobs=None):
    """Run an experiment and write results CSV (+ optional summary JSON).

    Everything is computed before anything is written, so a failure leaves no
    partial output files.
    """
    records = run_experiment(config, jobs=jobs)
    write_records_csv(out_csv, records, timing=config.timing)
    if summary_json is not None:
        write_summary_json(summary_json, summarise(records), config=config)
    return records
