"""Experiment orchestration: config, records, determinism and leakage."""

import dataclasses
import functools
import json
import math
import multiprocessing
import os
import pickle
import re
import time
import traceback
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from scaledist import harness, learn
from scaledist.evaluate import adjusted_rand_index, misclassification_rate
from scaledist.harness import (
    _CONFIG_KINDS,
    EXPERIMENT_METHODS,
    RESULTS_HEADER,
    ExperimentConfig,
    ResultRecord,
    read_records_csv,
    replicate_seeds,
    run_experiment,
    run_experiment_to_files,
    run_replicate,
    summarise,
    write_records_csv,
)
from scaledist.simgen import _SETUP_KINDS, SetupSpec, generate, setup_catalog
from scaledist.standardise import METHODS, Standardiser


def small_config(**overrides):
    base = dict(
        setup="simple_normal",
        replicates=2,
        seed=41,
        p=20,
        n_per_class=6,
        standardisations=("none",),
        orders=(1.0,),
        methods=("pam",),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_record_count_matches_grid():
    records = run_experiment(small_config(), jobs=1)
    assert len(records) == 2  # replicates x 1 x 1 x 1
    full = run_experiment(
        small_config(standardisations=("none", "mad"), orders=(1.0, math.inf),
                     methods=EXPERIMENT_METHODS),
        jobs=1,
    )
    assert len(full) == 2 * 2 * 2 * 4


def test_record_fields():
    records = run_experiment(small_config(methods=("knn3",)), jobs=1)
    for rec in records:
        assert rec.setup == "simple_normal"
        assert rec.metric == "misclassification"
        assert 0.0 <= rec.value <= 1.0
        assert math.isnan(rec.seconds)  # cells are not timed
    assert records[0].seed != records[1].seed


def test_record_is_slotted_and_pickles():
    record = run_experiment(small_config(), jobs=1)[0]
    assert not hasattr(record, "__dict__")
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is ResultRecord
    with pytest.raises(dataclasses.FrozenInstanceError):
        back.value = 0.0


def test_clustering_scored_on_training_data_by_ari():
    cfg = small_config(methods=("complete",), replicates=1)
    records = run_experiment(cfg, jobs=1)
    assert records[0].metric == "ari"
    assert -1.0 <= records[0].value <= 1.0


def test_config_validation():
    # a config is checked when it is made: by the constructor, which
    # from_json_dict and dataclasses.replace also go through
    with pytest.raises(ValueError):
        small_config(replicates=0)
    with pytest.raises(ValueError):
        small_config(standardisations=())
    with pytest.raises(ValueError):
        small_config(methods=("kmeans",))
    with pytest.raises(ValueError):
        small_config(orders=(0.5,))
    for orders in (("1", "inf"), (True,), (1.0, "2")):  # were run as 1.0, inf and 2.0
        with pytest.raises(ValueError, match="aggregation order must be a number"):
            small_config(orders=orders)
    with pytest.raises(ValueError, match="too large for a float"):  # was an OverflowError
        small_config(orders=(10 ** 400,))
    # NaN from Python named as from JSON; it was "cannot convert float NaN to integer"
    for nan in (math.nan, np.float64("nan")):
        with pytest.raises(ValueError, match="^aggregation order must be >= 1 or inf, got nan$"):
            small_config(orders=(nan,))
    with pytest.raises(ValueError):
        small_config(setup="no_such_setup")
    config = small_config()
    with pytest.raises(ValueError, match="^replicates must be >= 1$"):
        dataclasses.replace(config, replicates=0)
    assert config.validate() is config


def test_config_orders_become_floats_from_python_and_json():
    # JSON orders are read from text; Python orders must be numbers already
    for config, orders in [
        (small_config(orders=[1, 2.5, math.inf]), (1.0, 2.5, math.inf)),
        (ExperimentConfig.from_json_dict({"setup": "simple_normal", "orders": ["1", "inf", 3]}),
         (1.0, math.inf, 3.0)),
    ]:
        assert config.orders == orders
        assert all(type(q) is float for q in config.orders)


@pytest.mark.parametrize("order", ["1e999", "9" * 400], ids=["1e999", "400-digits"])
def test_json_orders_too_large_for_a_float_are_refused(order):
    # these validated to (inf,), while the same value from Python was refused
    with pytest.raises(ValueError, match="too large for a float; use inf"):
        ExperimentConfig.from_json_dict({"setup": "simple_normal", "orders": ["1", order]})


def test_records_csv_refuses_an_order_too_large_for_a_float(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text(RESULTS_HEADER + "\nsimple_normal,1,7,none,1e999,pam,ari,0.5,\n")
    with pytest.raises(ValueError, match="line 2: aggregation order is too large"):
        read_records_csv(path)


@pytest.mark.parametrize("jobs", [2.7, 2.0, True])
def test_job_count_must_be_an_integer(jobs):
    # 2.7 ran as 2 workers
    with pytest.raises(ValueError, match="job count must be an integer"):
        run_experiment(small_config(), jobs=jobs)


def test_pooled_clustering_needs_oracle_flag():
    with pytest.raises(ValueError, match="oracle_pooling"):
        small_config(standardisations=("pooled_variance",), methods=("pam",))
    # classification alone is fine, labels are legitimately available
    small_config(standardisations=("pooled_variance",), methods=("knn3",))
    # and with the flag, clustering rows are tagged
    cfg = small_config(
        standardisations=("pooled_variance",), methods=("pam",),
        oracle_pooling=True, replicates=1,
    )
    records = run_experiment(cfg, jobs=1)
    assert records[0].standardisation == "pooled_variance:oracle"


def test_config_json_round_trip():
    cfg = small_config(
        standardisations=("none", "boxplot"), orders=(1.0, 2.5, math.inf),
        methods=("pam", "knn3"),
    )
    back = ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
    assert back == cfg
    custom = small_config(setup=SetupSpec("mine", 0.1, 0.2, (0.0, 1.0), (0.5, 2.0)))
    assert ExperimentConfig.from_json_dict(custom.to_json_dict()) == custom
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict({"setup": "simple_normal", "bogus": 1})


def test_config_and_setup_keys_are_the_fields_in_order():
    spec = SetupSpec("mine", 0.1, 0.2, (0.0, 1.0), (0.5, 2.0))
    for cls, kinds, image in ((ExperimentConfig, _CONFIG_KINDS, small_config().to_json_dict()),
                              (SetupSpec, _SETUP_KINDS, spec.to_json_dict())):
        assert list(kinds) == [f.name for f in dataclasses.fields(cls)]
        assert list(image) == list(kinds)


def test_replicate_seeds_are_stable_and_distinct():
    a = replicate_seeds(123, 50)
    b = replicate_seeds(123, 50)
    assert_array_equal(a, b)
    assert len(set(int(s) for s in a)) == 50
    # a longer run keeps the earlier seeds, replicates stay re-runnable
    assert_array_equal(replicate_seeds(123, 80)[:50], a)
    assert replicate_seeds(np.uint64(123), 50) == a
    for seed in (123.7, 123.0):  # 123.7 gave seed 123's replicates
        with pytest.raises(ValueError, match="seed"):
            replicate_seeds(seed, 50)
    assert replicate_seeds(123, np.int64(50)) == a
    assert replicate_seeds(123, 0) == []


@pytest.mark.parametrize("seed, replicates, message", [
    (1, 2.5, "replicates must be an integer, got 2.5"),  # numpy's "expected a sequence"
    (1, True, "replicates must be an integer, got True"),  # ran as 1
    (1, -1, "replicates must be >= 0"),  # numpy's "negative dimensions"
    (-1, 2, "seed must be non-negative"),  # numpy's "expected non-negative integer"
])
def test_replicate_seeds_checks_its_inputs(seed, replicates, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        replicate_seeds(seed, replicates)


def test_summarise_examples():
    def rec(value, method="pam", std="none"):
        return ResultRecord(
            setup="s", replicate=0, seed=1, standardisation=std, q=1.0,
            method=method, metric="ari", value=value, seconds=0.0,
        )

    one = summarise([rec(0.42)])
    assert one[0]["mean"] == 0.42 and one[0]["se"] == 0.0 and one[0]["count"] == 1
    two = summarise([rec(0.4), rec(0.6)])
    assert two[0]["mean"] == pytest.approx(0.5)
    assert two[0]["se"] == pytest.approx(np.std([0.4, 0.6], ddof=1) / np.sqrt(2))
    grouped = summarise([rec(0.1), rec(0.2, method="complete"), rec(0.3)])
    assert len(grouped) == 2
    assert grouped[0]["method"] == "pam" and grouped[0]["count"] == 2


def test_summarise_keeps_setups_apart():
    # records of two setups read back together were pooled into one group
    def rec(setup, value):
        return ResultRecord(setup=setup, replicate=0, seed=1, standardisation="mad", q=1.0,
                            method="pam", metric="ari", value=value)

    rows = summarise([rec("ntn_05", 0.2), rec("simple_normal", 0.8), rec("ntn_05", 0.4)])
    assert [(row["setup"], row["count"]) for row in rows] == [("ntn_05", 2), ("simple_normal", 1)]
    assert rows[0]["mean"] == pytest.approx(0.3) and rows[1]["mean"] == 0.8
    assert list(rows[0]) == ["setup", "standardisation", "q", "method", "metric",
                             "mean", "se", "count"]


def test_records_csv_round_trip(tmp_path):
    records = run_experiment(small_config(methods=("pam", "knn3")), jobs=1)
    path = tmp_path / "r.csv"
    write_records_csv(path, records)
    text = path.read_text().splitlines()
    assert text[0] == RESULTS_HEADER
    assert all(line.endswith(",") for line in text[1:])  # seconds stays empty
    back = read_records_csv(path)
    assert len(back) == len(records)
    for mine, loaded in zip(records, back):
        assert loaded.value == mine.value
        assert loaded.seed == mine.seed
        assert loaded.q == mine.q
        assert math.isnan(loaded.seconds)
    assert back == records

    # a filled seconds column, as older results files hold, reads back exactly
    write_records_csv(path, [dataclasses.replace(records[0], seconds=0.25)])
    assert path.read_text().splitlines()[1].endswith(",0.25")
    assert read_records_csv(path)[0].seconds == 0.25


@pytest.mark.parametrize("change, message", [
    ({"replicate": 1.7}, "would read back as .*replicate=1,"),  # written as 1
    ({"seed": 2.5}, "would read back as .*seed=2,"),  # written as 2
    ({"q": 0.5}, "aggregation order must be >= 1"),
    ({"method": "a,b"}, "10 fields, expected 9"),
    ({"setup": "a\nb"}, "a line break inside a field"),
    ({"value": math.inf}, "non-finite value 'inf'"),
    ({"seconds": math.inf}, "non-finite value 'inf'"),
    ({"replicate": "1"}, "%d format: a real number is required, not str"),
    ({"value": None}, "must be a string or a real number, not 'NoneType'"),
    ({"q": None}, "must be a string or a real number, not 'NoneType'"),
    ({"seconds": None}, "must be real number, not NoneType"),
    ({"value": "abc"}, "could not convert string to float: 'abc'"),
], ids=["replicate", "seed", "q", "comma", "newline", "value", "seconds",
        "replicate-str", "value-none", "q-none", "seconds-none", "value-str"])
def test_records_csv_writes_only_what_reads_back(tmp_path, change, message):
    # each of these was written, and then either truncated or refused by the
    # reader; the last five escaped as a TypeError or a ValueError that named
    # no record
    good = ResultRecord("s", 0, 7, "none", 1.0, "pam", "ari", 0.5)
    bad = dataclasses.replace(good, **change)
    path = tmp_path / "r.csv"
    with pytest.raises(ValueError, match=r"^cannot write ResultRecord\(.*%s" % message):
        write_records_csv(path, [good, bad])
    assert not path.exists()


def test_results_are_independent_of_job_count(tmp_path):
    # the calling process scores replicates // jobs of them: none, one or
    # two here, beside fewer workers than jobs - 1 when few replicates lead
    for replicates in (2, 3, 5):
        cfg = small_config(replicates=replicates, standardisations=("none", "boxplot"),
                           orders=(1.0, math.inf), methods=EXPERIMENT_METHODS)
        out = []
        for jobs in (1, 2, 3, 4):
            path = tmp_path / ("r%d_%d.csv" % (replicates, jobs))
            run_experiment_to_files(cfg, path, jobs=jobs)
            out.append(path.read_bytes())
        assert out[1:] == out[:1] * 3, replicates


_real_score = harness._score_replicate


def _score_failing(failing, spec, seed, **grid):
    # module level, so that worker processes can unpickle it by name
    if seed in failing:
        raise ValueError("replicate %d" % failing[seed])
    return _real_score(spec, seed, **grid)


@pytest.mark.parametrize("failing, first", [
    ((1, 4), 1),
    ((2, 4), 2),
    ((4,), 4),
    ((3, 4), 3),
    ((0, 1, 2, 3, 4), 0),
], ids=["worker-and-caller", "last-worker-and-caller", "caller-only", "caller-at-two-jobs",
        "all"])
def test_a_failing_replicate_raises_as_at_one_job(monkeypatch, failing, first):
    # at jobs = 2 the caller scores replicates 3 and 4, at jobs = 3 replicate 4
    cfg = small_config(replicates=5)
    seeds = replicate_seeds(cfg.seed, cfg.replicates)
    monkeypatch.setattr(harness, "_score_replicate", functools.partial(
        _score_failing, {seeds[r]: r for r in failing}))
    for jobs in (1, 2, 3):
        with pytest.raises(ValueError, match="^replicate %d$" % first):
            run_experiment(cfg, jobs=jobs)


def _refuse_the_seed(seed):
    raise ValueError("no data from seed %d" % seed)


def _score_through_a_failing_helper(failing, spec, seed, **grid):
    if seed == failing:
        _refuse_the_seed(seed)
    return _real_score(spec, seed, **grid)


def test_a_failure_in_a_worker_keeps_its_traceback(monkeypatch, deadline):
    # at jobs = 2 with 4 replicates the worker scores replicates 0 and 1; the
    # error it raised ended at the re-raise in the caller, naming no frame of
    # the worker's
    cfg = small_config(replicates=4)
    seeds = replicate_seeds(cfg.seed, cfg.replicates)
    monkeypatch.setattr(harness, "_score_replicate", functools.partial(
        _score_through_a_failing_helper, seeds[0]))
    raised = []
    for jobs in (1, 2):
        with pytest.raises(ValueError) as info:
            run_experiment(cfg, jobs=jobs)
        raised.append(info.value)
    assert [(type(exc), str(exc)) for exc in raised] == [
        (ValueError, "no data from seed %d" % seeds[0])] * 2
    for exc in raised:
        assert "in _refuse_the_seed\n" in "".join(traceback.format_exception(exc))


class _TwoArgError(ValueError):
    # pickles, but unpickling rebuilds it from its one-message args
    def __init__(self, what, seed):
        super().__init__("%s from seed %d" % (what, seed))


class _LambdaError(LookupError):
    # holds a lambda, so it does not pickle at all
    def __init__(self, message):
        super().__init__(message)
        self.describe = lambda: message


class _DecodeError(UnicodeDecodeError):
    # rebuilt from its five args it fails, and its built-in base
    # UnicodeDecodeError cannot be built from one message either
    def __init__(self, message):
        super().__init__("utf-8", b"\xff", 0, 1, message)


def _raise_decode_error(seed):
    raise _DecodeError("no data from seed %d" % seed)


def _raise_two_arg_error(seed):
    raise _TwoArgError("no data", seed)


def _raise_lambda_error(seed):
    raise _LambdaError("no data from seed %d" % seed)


def _score_through_a_raising_helper(helper, failing, spec, seed, **grid):
    if seed == failing:
        helper(seed)
    return _real_score(spec, seed, **grid)


@pytest.mark.parametrize("helper, error, base", [
    (_raise_two_arg_error, _TwoArgError, ValueError),
    (_raise_lambda_error, _LambdaError, LookupError),
    (_raise_decode_error, _DecodeError, UnicodeError),
], ids=["not-rebuilt-from-args", "not-picklable", "base-takes-five-args"])
@pytest.mark.parametrize("jobs", [2, 3])
def test_a_worker_error_that_cannot_cross_the_pipe_arrives_as_its_builtin_base(
        monkeypatch, deadline, helper, error, base, jobs):
    # replicate 0 is scored by a worker at jobs 2 and 3.  The first error
    # reached the caller as an unrelated TypeError from unpickling it; the
    # second failed the worker's send, and the caller saw only an exit code;
    # the third skips its base class, which takes five arguments
    cfg = small_config(replicates=4)
    seeds = replicate_seeds(cfg.seed, cfg.replicates)
    monkeypatch.setattr(harness, "_score_replicate", functools.partial(
        _score_through_a_raising_helper, helper, seeds[0]))
    with pytest.raises(error) as alone:
        run_experiment(cfg, jobs=1)
    message = str(alone.value)
    assert message.endswith("no data from seed %d" % seeds[0])
    with pytest.raises(base) as info:
        run_experiment(cfg, jobs=jobs)
    assert type(info.value) is base
    assert str(info.value) == "%s: %s" % (error.__qualname__, message)
    cause = str(info.value.__cause__)
    assert "in %s\n" % helper.__name__ in cause
    assert cause.rstrip().splitlines()[-2].endswith("%s: %s" % (error.__qualname__, message))


def _score_exiting(parent, spec, seed, **grid):
    # a worker process that dies mid-share, as a killed one would
    if os.getpid() != parent:
        os._exit(3)
    return _real_score(spec, seed, **grid)


@pytest.mark.parametrize("jobs, share", [(2, "replicates 0-2"), (3, "replicates 0-1")])
def test_a_worker_that_dies_raises_child_process_error(monkeypatch, deadline, jobs, share):
    # 5 replicates: one worker scores 0-2 at jobs = 2, two score 0-1 and 2-3 at jobs = 3
    monkeypatch.setattr(harness, "_score_replicate",
                        functools.partial(_score_exiting, os.getpid()))
    with pytest.raises(ChildProcessError,
                       match="scoring %s ended with exit code 3 " % share) as info:
        run_experiment(small_config(replicates=5), jobs=jobs)
    assert isinstance(info.value, OSError)


def _score_beside_a_large_share(failing, large, spec, seed, **grid):
    if seed == failing:
        raise ValueError("replicate 0")
    if seed == large:
        return [0.0] * 100_000  # more than a pipe holds: its send blocks until read
    return _real_score(spec, seed, **grid)


def test_a_lower_failure_beside_a_blocked_large_share_does_not_hang(monkeypatch, deadline):
    # at jobs = 3 with 3 replicates, each worker scores one and the caller the third
    cfg = small_config(replicates=3)
    seeds = replicate_seeds(cfg.seed, cfg.replicates)
    monkeypatch.setattr(harness, "_score_replicate", functools.partial(
        _score_beside_a_large_share, seeds[0], seeds[1]))
    with pytest.raises(ValueError, match="^replicate 0$"):
        run_experiment(cfg, jobs=3)
    assert multiprocessing.active_children() == []


def _score_interrupted(parent, interrupt, spec, seed, **grid):
    if os.getpid() == parent:
        raise interrupt
    time.sleep(120)  # the workers are still scoring when the caller is interrupted


def test_an_interrupt_in_the_callers_share_leaves_no_child(monkeypatch, deadline):
    interrupt = KeyboardInterrupt("caller")
    monkeypatch.setattr(harness, "_score_replicate", functools.partial(
        _score_interrupted, os.getpid(), interrupt))
    with pytest.raises(KeyboardInterrupt) as info:
        run_experiment(small_config(replicates=3), jobs=3)
    assert info.value is interrupt
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("affinity, cpu_count, jobs", [
    ({3}, 8, 1), ({0, 1}, 8, 2), (None, 6, 6), (None, None, 1),
])
def test_default_job_count_is_the_cpus_this_process_may_use(monkeypatch, affinity,
                                                             cpu_count, jobs):
    monkeypatch.delenv("SCALEDIST_JOBS", raising=False)
    if affinity is None:  # a platform without an affinity mask
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: affinity)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpu_count)
    assert harness._resolve_jobs(None) == jobs


def test_jobs_env_var_is_honoured(tmp_path, monkeypatch):
    cfg = small_config(replicates=3)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_experiment_to_files(cfg, a, jobs=1)
    monkeypatch.setenv("SCALEDIST_JOBS", "2")
    run_experiment_to_files(cfg, b)
    assert a.read_bytes() == b.read_bytes()


def test_summary_json(tmp_path):
    cfg = small_config(replicates=3, methods=("pam", "knn3"))
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "s.json"
    run_experiment_to_files(cfg, csv_path, json_path, jobs=1)
    data = json.loads(json_path.read_text())
    assert data["config"]["setup"] == "simple_normal"
    assert len(data["groups"]) == 2
    for group in data["groups"]:
        assert group["count"] == 3
        assert set(group) >= {"standardisation", "q", "method", "metric", "mean", "se"}


def test_no_partial_outputs_on_failure(monkeypatch, tmp_path):
    def fail_to_generate(spec, seed):
        raise ValueError("no data")

    monkeypatch.setattr(harness, "generate", fail_to_generate)
    path, summary = tmp_path / "r.csv", tmp_path / "s.json"
    with pytest.raises(ValueError, match="^no data$"):
        run_experiment_to_files(small_config(), path, summary, jobs=1)
    assert not path.exists() and not summary.exists()


def test_standardisation_parameters_come_from_training_data_only():
    # run one replicate, then rerun it with the test partition replaced by
    # noise: every clustering record (training side) must be unchanged
    spec = setup_catalog()["simple_normal"].with_size(p=15, n_per_class=8)
    records = run_replicate(
        spec, "simple_normal", 0, 7, ("mad", "boxplot"), (1.0,), ("pam", "complete")
    )
    ds = generate(spec, seed=7)
    assert all(r.metric == "ari" for r in records)

    from scaledist.standardise import fit_standardiser

    for method in ("mad", "boxplot"):
        fitted = fit_standardiser(ds.x_train, method)
        frozen = json.dumps(fitted.to_json_dict())
        fitted.transform(ds.x_test * 1e6, cap=True)
        assert json.dumps(fitted.to_json_dict()) == frozen


_FULL_GRID = (METHODS, (1.0, 2.0, 2.5, math.inf))


@pytest.mark.parametrize("n_per_class, methods, grid", [
    pytest.param(n, methods, _FULL_GRID,
                 id="-".join((str(n),) + (() if methods == EXPERIMENT_METHODS else methods)))
    for methods in (EXPERIMENT_METHODS, ("knn3",), ("pam", "knn3"), ("complete",))
    for n in (10, 32)
] + [pytest.param(10, EXPERIMENT_METHODS, (("mad",), (1.0,)), id="10-one-cell-per-method")])
def test_replicate_equals_manual_composition(n_per_class, methods, grid):
    # every cell of a grid recomputed by hand from the public functions: all
    # ten standardisations (pooled ones fitted with the labels, as oracle
    # pooling does), four orders and all four methods or a subset, scored as
    # one run per replicate (20 training rows: one linkage stack per method,
    # knn3 cells in one stacked k-NN call) and one run per standardisation
    # (64 rows); and one standardisation at one order, where each linkage
    # method stacks a single problem
    from scaledist.distance import cross, pairwise
    from scaledist.learn import cut_tree, knn_classify, linkage, pam
    from scaledist.standardise import POOLED_METHODS, fit_standardiser

    spec = setup_catalog()["simple_normal"].with_size(p=25, n_per_class=n_per_class)
    seed = int(replicate_seeds(99, 3)[1])
    standardisations, orders = grid
    records = run_replicate(spec, "simple_normal", 1, seed, standardisations, orders, methods)

    ds = generate(spec, seed=seed)
    k = int(ds.y_train.max())
    expected = []
    for std_method in standardisations:
        fitted = fit_standardiser(ds.x_train, std_method, labels=ds.y_train)
        train = fitted.transform(ds.x_train)
        test = fitted.transform(ds.x_test, cap=True)
        tag = std_method + (":oracle" if std_method in POOLED_METHODS else "")
        for q in orders:
            D = pairwise(train, q)
            for method in methods:
                if method == "knn3":
                    predictions = knn_classify(cross(test, train, q), ds.y_train, 3)
                    expected.append((std_method, q, method,
                                     misclassification_rate(predictions, ds.y_test)))
                    continue
                labels = pam(D, k).labels if method == "pam" else cut_tree(linkage(D, method), k)
                expected.append((tag, q, method, adjusted_rand_index(labels, ds.y_train)))
    assert [(r.standardisation, r.q, r.method, r.value) for r in records] == expected


@pytest.mark.parametrize("methods", [("kmeans", "knn3"), ("kmeans",)])
def test_replicate_refuses_an_unknown_method(methods):
    # ("kmeans", "knn3") gave a kmeans record holding knn3's misclassification
    # rate, and ("kmeans",) ended in an UnboundLocalError
    spec = setup_catalog()["ntn_05"].with_size(p=10, n_per_class=5)
    with pytest.raises(ValueError, match="^unknown method 'kmeans'$"):
        run_replicate(spec, "ntn_05", 0, 1, ("none",), (1.0,), methods)


_BAD_GRIDS = [  # (standardisations, orders, methods), message
    (((), (1.0,), ("pam",)), "no standardisation methods requested"),
    ((("none",), [], ("pam",)), "no aggregation orders requested"),
    ((("none",), (1.0,), ()), "no methods requested"),
    ((("mad", "nope"), (1.0,), ("pam",)), "unknown standardisation method 'nope'"),
    ((("none",), (1.0,), ("pam", "kmeans")), "unknown method 'kmeans'"),
    ((("none",), (1.0, 0.5), ("pam",)), "aggregation order must be >= 1 or inf, got 0.5"),
    ((("none",), (1, 1.0), ("pam",)), "aggregation order 1 is listed twice"),
    ((("none",), [math.inf, 2.0, math.inf], ("pam",)), "aggregation order inf is listed twice"),
    ((("mad", "none", "mad"), (1.0,), ("knn3",)), "standardisation method 'mad' is listed twice"),
    ((("none",), (1.0,), ("pam", "knn3", "pam")), "method 'pam' is listed twice"),
]


def _never_generate(spec, seed):
    raise AssertionError("data drawn for a grid that should have been refused")


@pytest.mark.parametrize("grid, message", _BAD_GRIDS)
def test_the_grid_is_checked_once_before_any_data_is_drawn(monkeypatch, grid, message):
    # a value listed twice was scored twice, and the rest failed in
    # run_replicate only after the data was drawn
    standardisations, orders, methods = grid
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        small_config(standardisations=standardisations, orders=orders, methods=methods)
    monkeypatch.setattr(harness, "generate", _never_generate)
    spec = setup_catalog()["ntn_05"].with_size(p=10, n_per_class=5)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        run_replicate(spec, "ntn_05", 0, 1, *grid)


@pytest.mark.parametrize("grid, message", [
    (("mad", [1.0], ["pam"]), "standardisations must be a list or tuple, got 'mad'"),
    ((["mad"], 1.0, ["pam"]), "orders must be a list or tuple, got 1.0"),
    ((["mad"], [1.0], "pam"), "methods must be a list or tuple, got 'pam'"),
])
def test_replicate_refuses_a_grid_axis_that_is_not_a_list(monkeypatch, grid, message):
    # a string axis was read letter by letter, after the data was drawn
    monkeypatch.setattr(harness, "generate", _never_generate)
    spec = setup_catalog()["ntn_05"].with_size(p=10, n_per_class=5)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        run_replicate(spec, "ntn_05", 0, 1, *grid)


def test_replicate_records_do_not_depend_on_other_orders():
    # distances are built for all orders at once; each order's records must
    # come out as if it had been requested alone
    spec = setup_catalog()["ntn_05"].with_size(p=40, n_per_class=8)
    args = (spec, "ntn_05", 0, 123, ("none", "boxplot"))

    def scores(orders):
        records = run_replicate(*args, orders, EXPERIMENT_METHODS)
        return [r for r in records if r.q == 1.0]

    alone = scores((1.0,))
    assert len(alone) == 2 * len(EXPERIMENT_METHODS)
    assert scores((1.0, 2.0, math.inf)) == alone
    assert scores((math.inf, 1.0)) == alone


@pytest.mark.parametrize("n_per_class", [8, 31, 32])
def test_replicate_records_do_not_depend_on_other_standardisations(n_per_class):
    # below 64 training rows the linkage cells of every standardisation run
    # in one stack per method, from 64 rows on each standardisation's cells
    # run on their own; either way each standardisation's records must come
    # out as if it had been requested alone
    spec = setup_catalog()["ntn_05"].with_size(p=30, n_per_class=n_per_class)
    args = (spec, "ntn_05", 0, 321)

    def scores(standardisations):
        records = run_replicate(*args, standardisations, (1.0, math.inf), EXPERIMENT_METHODS)
        return [r for r in records if r.standardisation == "boxplot"]

    alone = scores(("boxplot",))
    assert len(alone) == 2 * len(EXPERIMENT_METHODS)
    assert scores(("none", "boxplot", "mad")) == alone
    assert scores(METHODS) == alone


@pytest.mark.parametrize("n_per_class, alive", [(32, [0, 0, 0]), (31, [0, 2, 4])])
def test_clustering_distances_live_until_their_queue_runs(monkeypatch, n_per_class, alive):
    # from 64 training rows on a standardisation's distances, the training
    # pairs and the cross distances alike, are freed before the next fit,
    # and its knn3 cells take one k-NN call per order; below 64 they wait
    # for the replicate's linkage stacks and its one k-NN call
    built, crossed, counts, knn_rows = [], [], [], []
    pairs_and_cross, fit_standardiser = harness._pairs_and_cross, harness.fit_standardiser
    knn_classify = harness._knn_classify

    def recorded_pairs_and_cross(*args, **kwargs):
        distances, cross = pairs_and_cross(*args, **kwargs)
        built.extend(weakref.ref(D) for D in distances)
        # the arrays that hold the cross distances: a pair part that kept
        # one alive would keep them too
        crossed.extend(weakref.ref(C.base) for C in cross)
        return distances, cross

    def counted_fit(*args, **kwargs):
        counts.append((sum(ref() is not None for ref in built),
                       sum(ref() is not None for ref in crossed)))
        return fit_standardiser(*args, **kwargs)

    def recorded_knn(cross, *args):
        knn_rows.append(cross.shape[0])
        return knn_classify(cross, *args)

    monkeypatch.setattr(harness, "_pairs_and_cross", recorded_pairs_and_cross)
    monkeypatch.setattr(harness, "fit_standardiser", counted_fit)
    monkeypatch.setattr(harness, "_knn_classify", recorded_knn)
    spec = setup_catalog()["ntn_05"].with_size(p=20, n_per_class=n_per_class)
    run_replicate(spec, "ntn_05", 0, 5, ("none", "mad", "boxplot"), (1.0, math.inf),
                  EXPERIMENT_METHODS)
    assert len(built) == 6 and len(crossed) == 6
    assert counts == [(n, n) for n in alive]
    n_test = 2 * n_per_class
    assert knn_rows == ([n_test] * 6 if n_test >= 64 else [6 * n_test])


@pytest.mark.parametrize("orders", [(1.0,), (1.0, 2.5, math.inf)])
def test_how_the_runs_are_cut_never_changes_a_bit(monkeypatch, orders):
    # at 20 training rows a replicate is one run: one PAM stack, one linkage
    # stack per method and one k-NN call.  With the cut moved to 0 rows each
    # standardisation is a run, each stack holds one standardisation's
    # problems (fewer than 4 here) and each knn3 cell takes its own k-NN
    # call; no record may change
    spec = setup_catalog()["ntn_05"].with_size(p=25, n_per_class=10)
    args = (spec, "ntn_05", 0, 77, METHODS, orders, EXPERIMENT_METHODS)
    stacks, pam_stacks, knn_rows = [], [], []
    stacked, stacked_pam = learn._stacked_linkage, learn._stacked_pam
    knn_classify = harness._knn_classify

    def recorded_stack(distances, method):
        stacks.append(len(distances))
        return stacked(distances, method)

    def recorded_pam_stack(distances, k):
        pam_stacks.append(len(distances))
        return stacked_pam(distances, k)

    def recorded_knn(cross, *args):
        knn_rows.append(cross.shape[0])
        return knn_classify(cross, *args)

    monkeypatch.setattr(learn, "_stacked_linkage", recorded_stack)
    monkeypatch.setattr(learn, "_stacked_pam", recorded_pam_stack)
    monkeypatch.setattr(harness, "_knn_classify", recorded_knn)
    cells = len(METHODS) * len(orders)
    one_run = run_replicate(*args)
    assert pam_stacks == [cells] and stacks == [cells] * 2 and knn_rows == [cells * 20]
    for counts in (stacks, pam_stacks, knn_rows):
        counts.clear()
    monkeypatch.setattr(harness, "_LINKAGE_SMALL", 0)
    runs = run_replicate(*args)
    assert pam_stacks == [len(orders)] * len(METHODS)
    assert stacks == [len(orders)] * (2 * len(METHODS))
    assert knn_rows == [20] * cells
    assert len(runs) == 4 * cells and runs == one_run


def test_a_replicates_linkage_stack_bounds_its_memory():
    # at 62 training rows one run holds 10 standardisations x 5 orders: each
    # linkage method stacks its 50 problems at once, 50 (2n - 1)^2 float64
    # values (6 MB), and the replicate's peak stays under two such stacks
    spec = setup_catalog()["ntn_05"].with_size(p=20, n_per_class=31)
    orders = (1.0, 2.0, 3.0, 4.0, math.inf)
    stack_bytes = len(METHODS) * len(orders) * (2 * 62 - 1) ** 2 * 8
    tracemalloc.start()
    try:
        run_replicate(spec, "ntn_05", 0, 9, METHODS, orders, EXPERIMENT_METHODS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack_bytes < peak < 2 * stack_bytes


@pytest.mark.parametrize("n_per_class", [10, 32])
def test_a_clustering_only_grid_standardises_only_the_training_rows(monkeypatch, n_per_class):
    # nothing reads the test rows without knn3, so each standardisation makes
    # one transform, and the clustering records are those of the full grid
    spec = setup_catalog()["ntn_05"].with_size(p=20, n_per_class=n_per_class)
    grid = ("none", "mad", "boxplot", "pooled_mad_shift"), (1.0, math.inf)
    clustering = ("pam", "complete", "average")
    full = run_replicate(spec, "ntn_05", 0, 5, *grid, EXPERIMENT_METHODS)
    transformed = []
    transform = Standardiser.transform

    def counted_transform(self, X, cap=False):
        transformed.append((X.shape[0], cap))
        return transform(self, X, cap=cap)

    monkeypatch.setattr(Standardiser, "transform", counted_transform)
    records = run_replicate(spec, "ntn_05", 0, 5, *grid, clustering)
    assert transformed == [(2 * n_per_class, False)] * 4
    assert records == [r for r in full if r.method in clustering]
