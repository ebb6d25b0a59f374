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
``simulate`` subcommand).  Replicates are independent and may run in parallel:
N jobs (SCALEDIST_JOBS, or the number of CPUs this process may use) are N
concurrent scorers, namely the calling process plus at most N - 1 child
processes.  The shares are fixed up front: the caller scores the trailing
``replicates // N`` replicates, and each child one contiguous run of the
leading ones, whose scores it sends back through a pipe.  The records and all
default outputs are byte-identical for any N.  Cells are not timed: a record
holds only reproducible scores.

Distances are built once per standardisation, for all orders together and
in one distance kernel call: the training pairs when a clustering method is
requested, and the test-to-training cross distances when knn3 is.  Run
rule: the cells are scored in runs, contiguous stretches of the grid.  From
64 training rows on, a run is one standardisation, scored before the next
fit, so its distances are freed first; below that it is the whole
replicate, so the PAM problems make one stack and each linkage method's
problems another (see ``learn``'s stacking rule), and one k-NN call
classifies the stacked test rows of all knn3 cells, where from 64 rows each
knn3 cell takes its own call.  Within a run, all partitions are scored in
one contingency count, each ARI bit-identical to
:func:`adjusted_rand_index` of that cell alone.

The training labels are checked once per replicate for the learners and
scores of its cells, which use them as checked.  Each standardisation's fit
is given them as well, and checks them again as :func:`fit_standardiser`
checks any labels.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .core import (
    _check_integer, _check_json_kinds, _parse_finite, _parse_number, _read_lines, _write_files,
    check_labels,
)
from .distance import _pairs_and_cross, check_order, format_order, parse_order
from .evaluate import _ari_rows
from .learn import _LINKAGE_SMALL, LINKAGE_METHODS, _knn_classify, _linkages, _pams, cut_tree
from .simgen import SetupSpec, _catalog_setup, generate
from .standardise import METHODS, POOLED_METHODS, fit_standardiser

__all__ = [
    "CLUSTER_METHODS",
    "EXPERIMENT_METHODS",
    "JOBS_ENV_VAR",
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
]

CLUSTER_METHODS = ("pam",) + LINKAGE_METHODS
EXPERIMENT_METHODS = CLUSTER_METHODS + ("knn3",)

RESULTS_HEADER = "setup,replicate,seed,standardisation,q,method,metric,value,seconds"

JOBS_ENV_VAR = "SCALEDIST_JOBS"


# slotted: a run holds every record in memory before writing any
@dataclass(frozen=True, slots=True)
class ResultRecord:
    """One scored run: a (setup, replicate, standardisation, q, method) cell.

    ``seconds`` is NaN from the harness.  It is kept only so that results
    files with a filled ``seconds`` column read back and rewrite exactly, and
    it takes no part in equality: records compare by their reproducible
    fields alone.
    """

    setup: str
    replicate: int
    seed: int
    standardisation: str
    q: float
    method: str
    metric: str
    value: float
    seconds: float = field(default=math.nan, compare=False)


# JSON kinds of each config value, in field order
_CONFIG_KINDS = {
    "setup": ("string", "object"), "replicates": ("integer",), "seed": ("integer",),
    "standardisations": ("list",), "orders": ("list",), "methods": ("list",),
    "p": ("integer", "null"), "n_per_class": ("integer", "null"),
    "oracle_pooling": ("bool",),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment grid, checked when it is made.

    ``setup`` is a catalog name or a custom :class:`SetupSpec`; ``p`` and
    ``n_per_class`` override the setup's size when given.  ``orders`` holds
    the Minkowski orders (math.inf allowed).  The grid axes are lists or
    tuples (kept as tuples).

    A config built in Python is checked as :meth:`from_json_dict` checks one
    read from JSON: its :meth:`to_json_dict` image must pass the same type
    table, so a count must be a Python int (not a float, a bool or a numpy
    integer, which the summary JSON could not hold) and a flag must be True
    or False.  Each order must be a real number (not a string or a bool),
    and is kept as a float.  ValueError names the first bad value.
    """

    setup: str | SetupSpec
    replicates: int = 100
    seed: int = 0
    standardisations: tuple = ("none",)
    orders: tuple = (1.0,)
    methods: tuple = EXPERIMENT_METHODS
    p: int | None = None
    n_per_class: int | None = None
    oracle_pooling: bool = False

    def __post_init__(self):
        for name in ("standardisations", "orders", "methods"):
            if isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))
        _check_json_kinds(self.to_json_dict(), _CONFIG_KINDS, "config")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        _grid_cells(self.standardisations, self.orders, self.methods)
        object.__setattr__(self, "orders", tuple(check_order(q) for q in self.orders))
        pooled = [s for s in self.standardisations if s in POOLED_METHODS]
        wants_clustering = any(m in CLUSTER_METHODS for m in self.methods)
        if pooled and wants_clustering and not self.oracle_pooling:
            raise ValueError(
                "pooled standardisation (%s) uses class labels; clustering with it "
                "requires oracle_pooling" % ", ".join(pooled)
            )
        self.resolve_spec()

    def validate(self):
        """Return the config: construction has checked it."""
        return self

    def resolve_spec(self):
        """The SetupSpec this experiment draws from, with size overrides applied."""
        spec = self.setup if isinstance(self.setup, SetupSpec) else _catalog_setup(self.setup)
        return spec.with_size(p=self.p, n_per_class=self.n_per_class)

    def to_json_dict(self):
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, SetupSpec):
                value = value.to_json_dict()
            elif isinstance(value, tuple):
                # an order that is not a float yet goes in as given, for __post_init__ to name
                value = [format_order(v) if f.name == "orders" and isinstance(v, float) else v
                         for v in value]
            data[f.name] = value
        return data

    @classmethod
    def from_json_dict(cls, data):
        """Config from a JSON object such as :meth:`to_json_dict` writes.

        Keys left out take their field defaults.  Raises ValueError on
        unknown keys and on values of the wrong JSON type: a catalog name or a
        :meth:`SetupSpec.from_json_dict` object for ``setup``, lists for the
        grid axes, true/false for the flags, integers (not booleans or
        fractions) for the counts, or null for ``p`` and ``n_per_class``.
        """
        if not isinstance(data, dict) or "setup" not in data:
            raise ValueError("expected a JSON object with at least 'setup'")
        _check_json_kinds(data, _CONFIG_KINDS, "config")
        kwargs = dict(data)
        if isinstance(data["setup"], dict):
            kwargs["setup"] = SetupSpec.from_json_dict(data["setup"])
        if "orders" in data:
            kwargs["orders"] = tuple(parse_order(q) for q in data["orders"])
        return cls(**kwargs)


def replicate_seeds(seed, replicates):
    """Data seed for each replicate: the uint64 state words of the master seed.

    ``seed`` is a non-negative integer and ``replicates`` an integer >= 0
    (numpy integers too); ValueError on anything else, booleans and integral
    floats included.
    """
    seed = _check_integer(seed, "seed")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    replicates = _check_integer(replicates, "replicates")
    if replicates < 0:
        raise ValueError("replicates must be >= 0")
    try:
        state = np.random.SeedSequence(seed).generate_state(replicates, np.uint64)
    except (ValueError, MemoryError) as exc:  # numpy refused the seed array
        raise ValueError("replicates %d is too many: %s" % (replicates, exc)) from None
    return [int(s) for s in state]


def _grid_axis(values, name, what, known=None):
    # one grid axis as checked: orders through check_order, names against
    # ``known``; ValueError naming the first value refused or listed twice
    if not isinstance(values, (list, tuple)):
        raise ValueError("%s must be a list or tuple, got %r" % (name, values))
    if not values:
        raise ValueError("no %ss requested" % what)
    checked = []
    for v in values:
        if known is None:
            v = check_order(v)
        elif v not in known:
            raise ValueError("unknown %s %r" % (what, v))
        if v in checked:
            raise ValueError("%s %s is listed twice"
                             % (what, repr(v) if known else format_order(v)))
        checked.append(v)
    return checked


def _grid_cells(standardisations, orders, methods):
    """(standardisation tag, q, method, metric) of each record, in grid order.

    The one check of a grid, made before any data is drawn: each axis is a
    non-empty list or tuple of known names or orders, each listed once
    (orders compared as checked floats, so 1 and 1.0 are one order).
    """
    standardisations = _grid_axis(standardisations, "standardisations",
                                  "standardisation method", METHODS)
    orders = _grid_axis(orders, "orders", "aggregation order")
    methods = _grid_axis(methods, "methods", "method", EXPERIMENT_METHODS)
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
    return [ResultRecord(setup_label, replicate, seed, *cell, value)
            for cell, value in zip(cells, scores)]


def run_replicate(spec, setup_label, replicate, seed, standardisations, orders,
                  methods, oracle_pooling=False):
    """Score one replicate.

    Pure function of its arguments; returns the records in grid order
    (standardisation, then q, then method).  Each standardisation's
    distances, of all orders, come from one kernel call, and the cells are
    scored in runs by the module docstring's run rule.  Records leave
    ``seconds`` NaN.  The grid is checked before any data is drawn.
    ``oracle_pooling`` is accepted but unused; :class:`ExperimentConfig`
    makes the check it stands for.
    """
    return _label_scores(setup_label, replicate, seed,
                         _grid_cells(standardisations, orders, methods),
                         _score_replicate(spec, seed, standardisations, orders, methods))


def _score_replicate(spec, seed, standardisations, orders, methods):
    """The score of each cell of one replicate, in grid order.

    The unit of parallel work: a worker returns these bare floats, and
    :func:`run_experiment` labels them as records.  The training labels are
    checked here once for every cell's learner and score; each fit checks
    them again.  The cells are scored in runs, cut as the module docstring
    says.
    """
    data = generate(spec, seed)
    y_train, k_classes = check_labels(data.y_train)
    scores, run = [], []
    for std_method in standardisations:
        run += _standardisation_cells(data, std_method, orders, methods)
        if len(y_train) >= _LINKAGE_SMALL:
            scores += _run_scores(run, y_train, k_classes, data.y_test)
            run = []
    return scores + _run_scores(run, y_train, k_classes, data.y_test)


def _standardisation_cells(data, std_method, orders, methods):
    """(method, distances) of each of one standardisation's cells, in grid
    order: the training pairs of a clustering cell, the test-to-training
    distances of a knn3 cell.  Both come from one kernel call for every
    order; the test rows are standardised only when knn3 is among the
    methods."""
    std = fit_standardiser(data.x_train, std_method, labels=data.y_train)
    x_train = std.transform(data.x_train)
    x_test = std.transform(data.x_test, cap=True) if "knn3" in methods else None
    train_ds, test_ds = _pairs_and_cross(x_train, x_test, orders,
                                         pairs=any(m in CLUSTER_METHODS for m in methods))
    return [(method, (test_ds if method == "knn3" else train_ds)[i])
            for i in range(len(orders)) for method in methods]


def _run_scores(run, y_train, k_classes, y_test):
    """The score of each (method, distances) cell of a run, in order.

    The PAM problems go through ``learn._pams`` and each linkage method's
    through ``learn._linkages``; all partitions are then counted in one
    contingency count, each ARI bit-identical to
    :func:`adjusted_rand_index` of that cell alone.  The knn3 cells are
    scored by :func:`_knn3_rates`.
    """
    at = {method: [i for i, cell in enumerate(run) if cell[0] == method]
          for method in EXPERIMENT_METHODS}
    clusterings = _pams([run[i][1] for i in at["pam"]], k_classes)
    partitions = {i: clustering.labels for i, clustering in zip(at["pam"], clusterings)}
    for method in LINKAGE_METHODS:
        trees = _linkages([run[i][1] for i in at[method]], method)
        partitions.update(zip(at[method], (cut_tree(tree, k_classes) for tree in trees)))
    values = {}
    if partitions:
        values.update(zip(partitions, _ari_rows(np.array(list(partitions.values())),
                                                y_train, k_classes)))
    values.update(zip(at["knn3"], _knn3_rates([run[i][1] for i in at["knn3"]],
                                              y_train, k_classes, y_test)))
    return [values[i] for i in range(len(run))]


def _knn3_rates(crosses, y_train, k_classes, y_test):
    """The misclassification rate of each knn3 cell, given its cross
    distances: below _LINKAGE_SMALL training rows one k-NN call, which
    classifies each row alone, takes the stacked rows of all cells, and from
    there on each cell takes its own call.  A cell's rate is its mean of
    mismatches, as ``evaluate.misclassification_rate`` forms it."""
    if len(y_train) < _LINKAGE_SMALL and crosses:
        crosses = [np.concatenate(crosses)]
    rates = []
    for cross in crosses:
        predicted = _knn_classify(cross, y_train, k_classes, 3).reshape(-1, len(y_test))
        rates += (predicted != y_test).mean(axis=1).tolist()
    return rates


def _resolve_jobs(jobs):
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR, "").strip()
        if env:
            try:
                jobs = _parse_number(env, integer=True)
            except ValueError:
                raise ValueError(
                    "%s must be an integer, got %r" % (JOBS_ENV_VAR, env)
                ) from None
        elif hasattr(os, "sched_getaffinity"):  # the CPUs this process may use
            jobs = len(os.sched_getaffinity(0))
        else:
            jobs = os.cpu_count() or 1
    jobs = _check_integer(jobs, "job count")
    if jobs < 1:
        raise ValueError("job count must be >= 1, got %d" % jobs)
    return jobs


def run_experiment(config, jobs=None):
    """Run the full grid; returns records ordered by replicate, then grid order.

    ``jobs`` is the number of concurrent scorers: the calling process, which
    scores the last ``replicates // jobs`` replicates itself, plus at most
    jobs - 1 child processes, each scoring one contiguous run of the leading
    replicates, fixed up front, and sending its scores back through a pipe.
    It defaults to the SCALEDIST_JOBS environment variable, else the number
    of CPUs this process may use.  The records, and every file written from
    them, are byte-identical for any job count.  A failing replicate raises
    as it would at one job, except that a child's error that does not
    survive a pickle round trip arrives as its nearest built-in base class,
    its message prefixed with its own class name; a child that ends without
    sending its scores (killed, say) raises ChildProcessError, naming its
    replicates and exit code.  No child outlives the call.
    """
    jobs = _resolve_jobs(jobs)
    spec = config.resolve_spec()
    setup_label = config.setup if isinstance(config.setup, str) else spec.name
    seeds = replicate_seeds(config.seed, config.replicates)
    score = functools.partial(_score_replicate, spec, standardisations=config.standardisations,
                              orders=config.orders, methods=config.methods)
    if jobs == 1 or config.replicates == 1:
        batches = [score(seed) for seed in seeds]
    else:
        batches = _score_shared(score, seeds, jobs)
    cells = _grid_cells(config.standardisations, config.orders, config.methods)
    return [record for r, scores in enumerate(batches)
            for record in _label_scores(setup_label, r, seeds[r], cells, scores)]


def _score_shared(score, seeds, jobs):
    """``score`` of each seed, in order, from ``jobs`` concurrent scorers.

    The shares are fixed up front.  This process scores the trailing
    ``len(seeds) // jobs`` seeds itself; the leading ones are cut into at
    most ``jobs - 1`` contiguous runs of near-equal length, each scored by
    one child process that sends its scores back through a pipe.  The error
    raised is that of the lowest-numbered failing seed, as a serial loop
    would raise it; one raised in a child carries the child's traceback as
    its ``__cause__``, and arrives as its nearest built-in base class if it
    cannot cross the pipe (see :func:`_score_share`).  A child that ends
    without sending its scores raises ChildProcessError.  No child outlives
    the call.
    """
    # imported here: multiprocessing's modules would add to every start-up
    import multiprocessing

    leading = len(seeds) - len(seeds) // jobs
    workers = min(jobs - 1, leading)
    bounds = [leading * w // workers for w in range(workers + 1)]
    shares = []  # (child, receiving end, first replicate, end), in seed order
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_score_share, args=(score, seeds[lo:hi], sender))
            child.start()
            sender.close()  # the child's end is then the only one: recv sees EOF if it dies
            shares.append((child, receiver, lo, hi))
        try:
            own, error = [score(seed) for seed in seeds[leading:]], None
        except Exception as exc:  # held: a child's lower seed may fail too
            own, error = None, exc
        batches = []
        for child, receiver, lo, hi in shares:
            try:
                child_error, child_traceback, scores = receiver.recv()
            except (EOFError, OSError):
                child.join()
                which = "replicate %d" % lo if hi - lo == 1 else "replicates %d-%d" % (lo, hi - 1)
                raise ChildProcessError(
                    "the worker process scoring %s ended with exit code %s before sending "
                    "its scores" % (which, child.exitcode)) from None
            receiver.close()
            if child_error is not None:
                raise child_error from _ChildTraceback(child_traceback)
            batches += scores
    finally:
        for child, receiver, _, _ in shares:
            if not receiver.closed:  # unread: it may be blocked sending, or still scoring
                receiver.close()
                child.terminate()
        for child, _, _, _ in shares:
            child.join()
    if error is not None:
        raise error
    return batches + own


def _score_share(score, seeds, conn):
    """A child process's share: send ``(None, None, scores)`` of ``seeds``,
    or ``(error, its formatted traceback, None)`` for the first seed that
    fails.  An error that does not survive a pickle round trip (its class
    cannot be rebuilt from its ``args``, or it holds what cannot be pickled)
    is sent as its nearest built-in base class that can be built from one
    message, with a message that names its own class."""
    try:
        result = None, None, [score(seed) for seed in seeds]
    except Exception as exc:
        # only here: importing the package does not load traceback
        import pickle
        import traceback

        text = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            message = "%s: %s" % (type(exc).__qualname__, exc)
            for base in type(exc).__mro__:  # Exception at the latest builds from a message
                if base.__module__ == "builtins":
                    try:
                        exc = base(message)
                        break
                    except TypeError:  # UnicodeDecodeError, say, takes five arguments
                        pass
        result = exc, text, None
    conn.send(result)
    conn.close()


class _ChildTraceback(Exception):
    """The ``__cause__`` of an error re-raised from a child process: its
    traceback there, as text."""

    def __str__(self):
        return '\n"""\n%s"""' % self.args[0]


def write_records_csv(path, records):
    """Write records under the fixed header.

    The seconds field is written only for a record whose ``seconds`` is not
    NaN, so harness records leave it empty.  ValueError naming the first
    record whose line would not read back as an equal record, before anything
    is written.
    """
    _write_files([(path, _records_text(records))])


def _records_text(records):
    lines = [RESULTS_HEADER]
    for r in records:
        try:
            line = "%s,%d,%d,%s,%s,%s,%s,%s,%s" % (
                r.setup,
                r.replicate,
                r.seed,
                r.standardisation,
                format_order(r.q),
                r.method,
                r.metric,
                repr(float(r.value)),
                "" if math.isnan(r.seconds) else repr(float(r.seconds)),
            )
            back = _parse_record(line)
        except (TypeError, ValueError) as exc:
            raise ValueError("cannot write %r: %s" % (r, exc)) from None
        if back != r:
            raise ValueError("cannot write %r: it would read back as %r" % (r, back))
        lines.append(line)
    return "\n".join(lines) + "\n"


def _parse_record(line):
    """The record one line of a results CSV holds; ValueError if it holds none."""
    if line and line.splitlines() != [line]:  # as _read_lines splits a file
        raise ValueError("a line break inside a field")
    cells = line.split(",")
    if len(cells) != 9:
        raise ValueError("%d fields, expected 9" % len(cells))
    return ResultRecord(
        setup=cells[0],
        replicate=_parse_number(cells[1], integer=True),
        seed=_parse_number(cells[2], integer=True),
        standardisation=cells[3],
        q=parse_order(cells[4]),
        method=cells[5],
        metric=cells[6],
        value=_parse_finite(cells[7]),
        seconds=_parse_finite(cells[8]) if cells[8] != "" else math.nan,
    )


def read_records_csv(path):
    """Read a results CSV written by :func:`write_records_csv`."""
    lines = _read_lines(path)
    if not lines or lines[0] != RESULTS_HEADER:
        raise ValueError("%s: missing results header %r" % (path, RESULTS_HEADER))
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            records.append(_parse_record(line))
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from None
    return records


def summarise(records):
    """Aggregate records into means per (setup, standardisation, q, method,
    metric), so records of several setups read back together stay apart.

    Groups appear in first-encounter order.  ``se`` is the standard error of
    the mean (sample standard deviation / sqrt(count); 0.0 for a single
    record).

    Returns a list of dicts with keys setup, standardisation, q, method,
    metric, mean, se, count.
    """
    groups = {}
    for r in records:
        key = (r.setup, r.standardisation, format_order(r.q), r.method, r.metric)
        groups.setdefault(key, []).append(r.value)
    rows = []
    for key, values in groups.items():
        values = np.array(values)
        count = values.shape[0]
        se = float(np.std(values, ddof=1) / np.sqrt(count)) if count > 1 else 0.0
        rows.append(dict(zip(("setup", "standardisation", "q", "method", "metric"), key),
                         mean=float(values.mean()), se=se, count=count))
    return rows


def run_experiment_to_files(config, out_csv, summary_json=None, jobs=None):
    """Run an experiment and write results CSV (+ optional summary JSON).

    Everything is computed before anything is written, and both files are
    renamed into place together, so a failure leaves no partial output files.
    """
    records = run_experiment(config, jobs=jobs)
    texts = [(out_csv, _records_text(records))]
    if summary_json is not None:
        summary = {"config": config.to_json_dict(), "groups": summarise(records)}
        texts.append((summary_json, json.dumps(summary, indent=1) + "\n"))
    _write_files(texts)
    return records
