"""Command-line interface contracts for all six subcommands."""

import dataclasses
import functools
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from scaledist import harness, simgen
from scaledist.cli import main
from scaledist.core import read_condensed, read_labels, read_matrix_csv, write_matrix_csv
from scaledist.distance import cross, pairwise
from scaledist.evaluate import adjusted_rand_index, misclassification_rate
from scaledist.harness import read_records_csv, replicate_seeds, run_experiment
from scaledist.harness import ExperimentConfig, run_experiment_to_files
from scaledist.learn import knn_classify
from scaledist.simgen import SetupSpec
from scaledist.standardise import fit_standardiser


def run(*argv):
    return main([str(a) for a in argv])


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as err:
        run("frobnicate")
    assert err.value.code != 0


def test_missing_file_is_reported(tmp_path, capsys):
    assert run("distmat", "--q", "1", tmp_path / "absent.csv", tmp_path / "out.dm") == 1
    assert "scaledist: error" in capsys.readouterr().err
    assert not (tmp_path / "out.dm").exists()


def test_simulate_writes_dataset(tmp_path):
    prefix = tmp_path / "sim"
    assert run(
        "simulate", "--setup", "ntn_05", "--p", 15, "--n-per-class", 5,
        "--seed", 3, "--out-prefix", prefix,
    ) == 0
    X = read_matrix_csv(str(prefix) + ".train.csv")
    assert X.shape == (10, 15)
    meta = json.loads((tmp_path / "sim.meta.json").read_text())
    assert meta["seed"] == 3
    assert meta["setup"]["name"] == "ntn_05"


def test_simulate_rejects_unknown_setup(tmp_path, capsys):
    assert run("simulate", "--setup", "nope", "--seed", 1,
               "--out-prefix", tmp_path / "x") == 1
    assert "scaledist: error" in capsys.readouterr().err


def test_standardise_fit_save_and_reapply(tmp_path):
    rng = np.random.default_rng(8)
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    write_matrix_csv(train, rng.standard_t(2, size=(30, 4)) * 5)
    write_matrix_csv(test, rng.standard_normal((10, 4)) * 40)
    params = tmp_path / "bp.json"

    assert run("standardise", "--method", "boxplot", "--save-params", params,
               train, tmp_path / "train_std.csv") == 0
    out = read_matrix_csv(tmp_path / "train_std.csv")
    assert out.min() >= -2.0 and out.max() <= 2.0

    assert run("standardise", "--params", params, "--cap",
               test, tmp_path / "test_std.csv") == 0
    capped = read_matrix_csv(tmp_path / "test_std.csv")
    assert capped.min() >= -2.0 and capped.max() <= 2.0


def test_standardise_requires_exactly_one_source(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_matrix_csv(data, np.eye(3))
    params = tmp_path / "p.json"
    code = run("standardise", "--method", "mad", "--params", params,
               data, tmp_path / "out.csv")
    assert code != 0
    code = run("standardise", data, tmp_path / "out.csv")
    assert code != 0


def test_standardise_does_not_save_loaded_params(tmp_path, capsys):
    # --save-params with --params was accepted and never written
    data, params, _ = _saved_params(tmp_path, "mad")
    saved, out = tmp_path / "again.json", tmp_path / "out.csv"
    capsys.readouterr()
    assert run("standardise", "--params", params, "--save-params", saved, data, out) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("scaledist: error: --save-params")
    assert not saved.exists() and not out.exists()


def test_standardise_pooled_needs_labels(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_matrix_csv(data, np.arange(12, dtype=float).reshape(6, 2))
    assert run("standardise", "--method", "pooled_variance",
               data, tmp_path / "out.csv") == 1
    assert "labels" in capsys.readouterr().err


def _saved_params(tmp_path, method):
    data = tmp_path / "d.csv"
    write_matrix_csv(data, np.random.default_rng(9).standard_t(2, size=(20, 3)) * 5)
    params = tmp_path / "p.json"
    assert run("standardise", "--method", method, "--save-params", params,
               data, tmp_path / "fitted.csv") == 0
    return data, params, json.loads(params.read_text())


def _rejects_params(tmp_path, capsys, data, params, expected):
    capsys.readouterr()
    assert run("standardise", "--params", params, data, tmp_path / "out.csv") == 1
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.strip()]
    assert len(lines) == 1 and lines[0].startswith("scaledist: error: ")
    assert expected in lines[0]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "variable, key, value, expected",
    [
        (1, "lqr", None, "variable 2: missing key 'lqr'"),  # None: key removed
        (0, "median", math.nan, "variable 1: non-finite 'median'"),
        (2, "t_upper", math.inf, "variable 3: non-finite 't_upper'"),
        (0, "uqr", 0.0, "variable 1: 'uqr' must be > 0"),
    ],
)
def test_standardise_rejects_bad_boxplot_params(tmp_path, capsys, variable, key, value,
                                                expected):
    data, params, saved = _saved_params(tmp_path, "boxplot")
    entry = saved["variables"][variable]
    assert not entry["degenerate"]
    if value is None:
        del entry[key]
    else:
        entry[key] = value
    params.write_text(json.dumps(saved))
    _rejects_params(tmp_path, capsys, data, params, expected)


@pytest.mark.parametrize(
    "scales, expected",
    [
        ([1.0, math.nan, 2.0], "entry 2 is nan"),
        ([1.0, 2.0, -0.5], "entry 3 is -0.5"),
        ([], "non-empty list"),
        ([[1.0, 2.0, 3.0]], "non-empty list"),
        (["a", 1.0, 2.0], "expected a list of numbers"),
        ([1.0, 2.0], "matrix has 3 variables, fit had 2"),
    ],
)
def test_standardise_rejects_bad_scales(tmp_path, capsys, scales, expected):
    data, params, saved = _saved_params(tmp_path, "mad")
    params.write_text(json.dumps(dict(saved, scales=scales)))
    _rejects_params(tmp_path, capsys, data, params, expected)


@pytest.mark.parametrize(
    "method, key, value, expected",
    [  # each of these loaded as a number or a flag
        ("boxplot", "median", "0.25", "variable 2 'median' must be a number, got \"0.25\""),
        ("boxplot", "lqr", True, "variable 2 'lqr' must be a number, got true"),
        ("boxplot", "t_lower", "1", "variable 2 't_lower' must be a number or null"),
        ("boxplot", "degenerate", 0, "variable 2 'degenerate' must be true or false, got 0"),
        ("boxplot", "degenerate", "false", "'degenerate' must be true or false"),
        ("boxplot", "scale", 1.0, "unknown variable 2 key(s): scale"),
        pytest.param("boxplot", "scaled_max", 10 ** 400, "variable 2: non-finite 'scaled_max'",
                     id="boxplot-scaled_max-400-digits"),
        ("mad", "scales", ["1", 1.0, 2.0], "'scales': expected a list of numbers"),
        ("mad", "scales", [1.0, True, 2.0], "'scales': expected a list of numbers"),
        pytest.param("mad", "scales", [1.0, 10 ** 400, 2.0], "'scales': entry 2 is 1000",
                     id="mad-scales-400-digits"),
        # were loaded: 'none' divided every column by 3, unknown keys were ignored
        ("none", "scales", [1.0, 3.0, 1.0], "entry 2 is 3.0; method 'none' scales by 1"),
        ("mad", "cap", True, "unknown parameter file key(s): cap"),
        ("mad", "variables", [], "unknown parameter file key(s): variables"),
        ("mad", "method", 1, "parameter file 'method' must be a string, got 1"),
        ("boxplot", "scales", [1.0], "unknown parameter file key(s): scales"),
    ],
)
def test_standardise_refuses_params_of_the_wrong_json_kind(tmp_path, capsys, method, key,
                                                           value, expected):
    data, params, saved = _saved_params(tmp_path, method)
    if method == "boxplot" and key != "scales":
        saved["variables"][1][key] = value
    else:
        saved[key] = value
    params.write_text(json.dumps(saved))
    _rejects_params(tmp_path, capsys, data, params, expected)


def test_standardise_names_a_params_file_that_is_not_json(tmp_path, capsys):
    data, params, _ = _saved_params(tmp_path, "mad")
    params.write_text('{"method": "mad", "scales": [1.0 2.0]}')
    _rejects_params(tmp_path, capsys, data, params, "%s: invalid JSON (Expecting ',' delimiter"
                    % params)


@pytest.mark.parametrize("command", ["distmat", "classify", "experiment"])
@pytest.mark.parametrize("order", ["1e999", "1" + "0" * 400], ids=["1e999", "400-digits"])
def test_order_too_large_for_a_float_is_one_error_line(tmp_path, capsys, command, order):
    # was read as q = inf, and the distances written
    data, out = tmp_path / "d.csv", tmp_path / "out"
    write_matrix_csv(data, np.arange(8, dtype=float).reshape(4, 2))
    (tmp_path / "y.labels").write_text("1\n1\n2\n2\n")
    argv = {
        "distmat": ["distmat", "--q", order, data, out],
        "classify": ["classify", "--train", data, "--train-labels", tmp_path / "y.labels",
                     "--test", data, "--q", order, "--k", 1, "--out", out],
        "experiment": ["experiment", "--setup", "simple_normal", "--p", 4, "--n-per-class", 3,
                       "--replicates", 1, "--methods", "knn3", "--q", "1," + order,
                       "--out", out],
    }[command]
    assert run(*argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "scaledist: error: aggregation order is too large for a float; use inf"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["distmat", "classify"])
def test_a_bad_order_is_reported_before_the_fit(tmp_path, capsys, command):
    # the order was parsed after the fit, whose zero-scale warning came first
    data, out = tmp_path / "d.csv", tmp_path / "out"
    data.write_text("1,0\n1,0\n")
    (tmp_path / "y.labels").write_text("1\n2\n")
    argv = {
        "distmat": ["distmat", "--q", "abc", "--standardise", "mad", data, out],
        "classify": ["classify", "--train", data, "--train-labels", tmp_path / "y.labels",
                     "--test", data, "--q", "abc", "--standardise", "mad", "--k", 1,
                     "--out", out],
    }[command]
    assert run(*argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "scaledist: error: could not parse aggregation order 'abc'"]
    assert not out.exists()


def test_distmat_cluster_classify_pipeline(tmp_path):
    rng = np.random.default_rng(9)
    X = np.vstack([rng.standard_normal((6, 3)), rng.standard_normal((6, 3)) + 4.0])
    data = tmp_path / "d.csv"
    write_matrix_csv(data, X)

    dm = tmp_path / "d.dm"
    assert run("distmat", "--q", "inf", data, dm) == 0
    D = read_condensed(dm)
    assert D.n == 12

    labels_file = tmp_path / "labels.txt"
    assert run("cluster", "--method", "complete", "--k", 2, "--out", labels_file, dm) == 0
    labels = read_labels(labels_file)
    assert sorted(np.bincount(labels)[1:]) == [6, 6]


def test_cluster_prints_to_stdout(tmp_path, capsys):
    X = np.array([[0.0], [0.5], [10.0], [10.5]])
    data = tmp_path / "d.csv"
    write_matrix_csv(data, X)
    dm = tmp_path / "d.dm"
    run("distmat", "--q", "1", data, dm)
    assert run("cluster", "--method", "pam", "--k", 2, dm) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["1", "1", "2", "2"]


def test_average_linkage_overflow_is_one_error_line(tmp_path, capsys):
    dm = tmp_path / "big.dm"
    dm.write_text('{"n": 4}\n' + "\n".join(
        ["1e308", "1.5e308", "1e308", "1.2e308", "1e308", "1.7e308"]) + "\n")
    assert run("cluster", "--method", "average", "--k", 2, dm) == 1
    assert capsys.readouterr().err.splitlines() == [
        "scaledist: error: average linkage overflowed: distances too large"]


def _refuse_call(*args, **kwargs):
    raise AssertionError("called before k was checked")


@pytest.mark.parametrize("method", ["complete", "average"])
@pytest.mark.parametrize("k", [0, 5])
def test_cluster_refuses_k_before_the_linkage(tmp_path, capsys, monkeypatch, method, k):
    # the linkage ran in full before the cut refused k
    dm = tmp_path / "d.dm"
    dm.write_text('{"n": 4}\n' + "".join("%d\n" % d for d in range(1, 7)))
    monkeypatch.setattr("scaledist.cli.linkage", _refuse_call)
    assert run("cluster", "--method", method, "--k", k, dm) == 1
    assert capsys.readouterr().err.splitlines() == [
        "scaledist: error: k must satisfy 1 <= k <= n=4, got %d" % k]


@pytest.mark.parametrize("k", [0, 17])
def test_classify_refuses_k_before_the_fit_and_the_distances(tmp_path, capsys, monkeypatch, k):
    # every cross distance was built before k was refused
    rng = np.random.default_rng(11)
    write_matrix_csv(tmp_path / "train.csv", rng.standard_normal((16, 3)))
    write_matrix_csv(tmp_path / "test.csv", rng.standard_normal((4, 3)))
    (tmp_path / "train.labels").write_text("1\n2\n" * 8)
    monkeypatch.setattr("scaledist.cli.cross", _refuse_call)
    monkeypatch.setattr("scaledist.cli.fit_standardiser", _refuse_call)
    assert run("classify", "--train", tmp_path / "train.csv",
               "--train-labels", tmp_path / "train.labels", "--test", tmp_path / "test.csv",
               "--q", 1, "--standardise", "boxplot", "--k", k) == 1
    assert capsys.readouterr().err.splitlines() == [
        "scaledist: error: k must satisfy 1 <= k <= n_train=16, got %d" % k]


def test_warnings_print_as_one_line_each(tmp_path, capsys):
    data = tmp_path / "c.csv"
    write_matrix_csv(data, np.array([[1.0, 2.0, 5.0], [3.0, 4.0, 5.0], [5.0, 1.0, 5.0]]))
    assert run("standardise", "--method", "mad", data, tmp_path / "out.csv") == 0
    assert capsys.readouterr().err.splitlines() == [
        "scaledist: warning: zero mad scale in column(s) 3; output set to zero there"]


def test_loaded_degenerate_boxplot_variable_transforms_without_a_warning(tmp_path, capsys):
    # a hand-written file may give a degenerate variable zero half-ranges;
    # data away from its median warned "divide by zero" twice
    variable = dict(median=0.0, lqr=1.0, uqr=1.0, t_lower=None, t_upper=None,
                    degenerate=False, scaled_min=-1.0, scaled_max=1.0)
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"method": "boxplot", "variables": [
        variable, dict(variable, median=5.0, lqr=0.0, uqr=0.0, degenerate=True)]}))
    data = tmp_path / "d.csv"
    write_matrix_csv(data, np.array([[1.0, 4.0], [-1.0, 6.0]]))
    assert run("standardise", "--params", params, data, tmp_path / "out.csv") == 0
    assert capsys.readouterr().err == ""
    assert_array_equal(read_matrix_csv(tmp_path / "out.csv"), [[0.5, 0.0], [-0.5, 0.0]])


def test_classify_end_to_end(tmp_path):
    rng = np.random.default_rng(10)
    train = np.vstack([rng.standard_normal((8, 2)), rng.standard_normal((8, 2)) + 5.0])
    test = np.vstack([rng.standard_normal((4, 2)), rng.standard_normal((4, 2)) + 5.0])
    for name, arr in (("train.csv", train), ("test.csv", test)):
        write_matrix_csv(tmp_path / name, arr)
    (tmp_path / "train.labels").write_text("".join("1\n" for _ in range(8)) + "".join("2\n" for _ in range(8)))

    out = tmp_path / "pred.txt"
    assert run(
        "classify", "--train", tmp_path / "train.csv",
        "--train-labels", tmp_path / "train.labels",
        "--test", tmp_path / "test.csv", "--q", 2,
        "--standardise", "unit_variance", "--out", out,
    ) == 0
    predictions = read_labels(out)
    assert_array_equal(predictions, [1] * 4 + [2] * 4)


def test_experiment_subcommand_writes_csv_and_summary(tmp_path):
    out = tmp_path / "r.csv"
    summary = tmp_path / "s.json"
    assert run(
        "experiment", "--setup", "simple_normal", "--p", 20, "--n-per-class", 5,
        "--replicates", 2, "--seed", 7, "--standardise", "none,mad",
        "--q", "1,inf", "--methods", "pam,knn3", "--out", out, "--summary", summary,
    ) == 0
    records = read_records_csv(out)
    assert len(records) == 2 * 2 * 2 * 2
    data = json.loads(summary.read_text())
    assert len(data["groups"]) == 8


def test_experiment_accepts_config_file_with_flag_overrides(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "setup": "simple_normal", "replicates": 1, "seed": 5,
        "p": 16, "n_per_class": 4,
        "standardisations": ["none"], "orders": ["1"], "methods": ["pam"],
    }))
    out = tmp_path / "r.csv"
    assert run("experiment", "--config", config, "--replicates", 3, "--out", out) == 0
    records = read_records_csv(out)
    assert len(records) == 3  # the flag wins over the file


def test_experiment_refuses_a_json_number_too_large_for_a_float(tmp_path, capsys):
    # was run as q = inf
    config, out = tmp_path / "cfg.json", tmp_path / "r.csv"
    base = '{"setup": "simple_normal", "replicates": 1, "p": 4, "n_per_class": 3, ' \
           '"methods": ["knn3"], "orders": '
    config.write_text(base + "[1, 1e999]}")
    assert run("experiment", "--config", config, "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        "scaledist: error: %s: number 1e999 is too large for a float" % config]
    assert not out.exists()
    for orders in ("[Infinity]}", '["inf"]}'):  # both still mean inf
        config.write_text(base + orders)
        assert run("experiment", "--config", config, "--out", out) == 0
        assert [r.q for r in read_records_csv(out)] == [math.inf]
    config.write_text(base + '[Infinity, "inf"]}')  # so together they list inf twice
    assert run("experiment", "--config", config, "--out", out) == 1
    assert _error_line(capsys) == "scaledist: error: aggregation order inf is listed twice"


@pytest.mark.parametrize(
    "flag, value, key, expected",
    [
        ("--setup", "ntn_01", "setup", "ntn_01"),
        ("--replicates", "2", "replicates", 2),
        ("--seed", "9", "seed", 9),
        ("--standardise", "mad, range", "standardisations", ["mad", "range"]),
        ("--q", "2,inf", "orders", ["2", "inf"]),
        ("--methods", "pam,knn3", "methods", ["pam", "knn3"]),
        ("--p", "5", "p", 5),
        ("--n-per-class", "4", "n_per_class", 4),
        ("--oracle-pooling", None, "oracle_pooling", True),
    ],
)
def test_each_experiment_flag_overrides_its_config_key(tmp_path, flag, value, key, expected):
    config = {"setup": "simple_normal", "replicates": 1, "seed": 5,
              "standardisations": ["none"], "orders": [1], "methods": ["knn3"],
              "p": 4, "n_per_class": 3, "oracle_pooling": False}
    path, out, summary = tmp_path / "cfg.json", tmp_path / "r.csv", tmp_path / "s.json"
    path.write_text(json.dumps(config))
    argv = [flag] if value is None else [flag, value]
    assert run("experiment", "--config", path, *argv, "--out", out, "--summary", summary) == 0
    written = json.loads(summary.read_text())["config"]
    assert written == {**config, "orders": ["1"], key: expected}


def _rejected_on_both_routes(tmp_path, capsys, config, expected):
    """``config`` fails with one error naming ``expected`` and writes no file,
    read by the CLI from a JSON file and built in Python alike.  Each route
    takes the cases it can express: JSON holds no numpy values, and a Python
    keyword cannot be an unknown setup key."""
    out, summary = tmp_path / "r.csv", tmp_path / "s.json"
    setup = config["setup"]
    if not any(isinstance(v, np.generic) for v in config.values()):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        capsys.readouterr()
        assert run("experiment", "--config", path, "--out", out, "--summary", summary) == 1
        lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.strip()]
        assert len(lines) == 1 and lines[0].startswith("scaledist: error: ")
        assert expected in lines[0]
    if not isinstance(setup, dict) or set(setup) <= {f.name for f in dataclasses.fields(SetupSpec)}:
        with pytest.raises(ValueError) as err:
            spec = SetupSpec(**setup) if isinstance(setup, dict) else setup
            run_experiment_to_files(ExperimentConfig(**dict(config, setup=spec)), out,
                                    summary_json=summary, jobs=1)
        assert expected in str(err.value)
    assert not out.exists() and not summary.exists()


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("orders", "12", "'orders' must be a list"),  # was read as orders 1 and 2
        ("standardisations", "mad", "'standardisations' must be a list"),
        ("oracle_pooling", "false", "'oracle_pooling' must be true or false"),
        ("replicates", 1.7, "'replicates' must be an integer"),  # was truncated to 1
        ("seed", True, "'seed' must be an integer"),
        ("seed", 1.7, "'seed' must be an integer"),  # ran as seed 1 from Python
        ("oracle_pooling", "no", "'oracle_pooling' must be true or false"),  # passed the gate
        # the summary JSON cannot hold it: was written after the CSV, and failed
        ("seed", np.int64(5), "'seed' must be an integer"),
        ("p", 20.9, "'p' must be an integer or null"),  # ran as p = 20 from Python
    ],
)
def test_experiment_rejects_config_values_of_the_wrong_type(tmp_path, capsys, key, value,
                                                            expected):
    config = {"setup": "simple_normal", "replicates": 1, "seed": 5, "p": 16, "n_per_class": 4,
              "methods": ["knn3"], key: value}
    _rejected_on_both_routes(tmp_path, capsys, config, expected)


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("p", 20.9, "setup 'p' must be an integer"),  # was truncated to 20
        ("t2_fraction", True, "setup 't2_fraction' must be a number"),  # was read as 1.0
        ("n_per_class", True, "setup 'n_per_class' must be an integer"),
        ("sd_range", [1, 2, 3], "setup 'sd_range' must be a list of two numbers"),
        ("mean_diff", "2", "setup 'mean_diff' must be a number or a list of two numbers"),
        ("extra", 1, "unknown setup key(s): extra"),  # was ignored
        # was "too many values to unpack" from Python
        ("sd_range", (1, 2, 3), "setup 'sd_range' must be a list of two numbers"),
        # were OverflowError tracebacks from the CLI
        ("sd_range", [1, 10 ** 400], "setup 'sd_range' holds a number too large for a float"),
        ("mean_diff", 10 ** 400, "setup 'mean_diff' holds a number too large for a float"),
        # passed every check, then failed in the fit naming neither setup nor key
        ("mean_diff", math.inf, "setup 'mean_diff' must be finite, got inf"),
        ("mean_diff", [0, math.inf], "setup 'mean_diff' must be finite, got 0.0, inf"),
        ("sd_range", [0.5, math.inf], "setup 'sd_range' must be finite, got 0.5, inf"),
        ("mean_diff", math.nan, "setup 'mean_diff' must be finite, got nan"),
        ("t2_fraction", math.nan, "setup 't2_fraction' must be finite, got nan"),
        ("noise_fraction", math.inf, "setup 'noise_fraction' must be finite, got inf"),
    ],
)
def test_experiment_rejects_setup_values_of_the_wrong_type(tmp_path, capsys, key, value,
                                                           expected):
    setup = {"name": "mine", "t2_fraction": 0.5, "noise_fraction": 0.5,
             "mean_diff": [0, 2], "sd_range": [0.5, 10], "p": 12, "n_per_class": 4, key: value}
    config = {"setup": setup, "replicates": 1, "seed": 5, "methods": ["knn3"]}
    _rejected_on_both_routes(tmp_path, capsys, config, expected)


def test_classify_with_a_huge_missing_class_is_one_error_line(tmp_path, capsys):
    # memory is bounded, so that a version whose cost grows with the largest
    # label fails on the bound rather than exhausting the machine's memory
    write_matrix_csv(tmp_path / "x.csv", np.zeros((2, 1)))
    (tmp_path / "y.labels").write_text("1\n2000000\n")
    capsys.readouterr()
    tracemalloc.start()
    try:
        status = run("classify", "--train", tmp_path / "x.csv", "--train-labels",
                     tmp_path / "y.labels", "--test", tmp_path / "x.csv", "--q", 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 1
    assert capsys.readouterr().err.splitlines() == ["scaledist: error: class 2 has no members"]
    assert peak < 16 << 20


def test_experiment_failure_leaves_no_partial_file(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run("experiment", "--setup", "bogus", "--replicates", 1, "--seed", 1,
               "--out", out) == 1
    assert not out.exists()
    assert "scaledist: error" in capsys.readouterr().err


_real_score = harness._score_replicate


def _exit_in_a_worker(parent, spec, seed, **grid):
    # module level, so that a worker process started by spawn can unpickle it
    if os.getpid() != parent:
        os._exit(3)
    return _real_score(spec, seed, **grid)


def test_a_worker_that_dies_is_one_error_line(tmp_path, capsys, monkeypatch, deadline):
    monkeypatch.setattr(harness, "_score_replicate",
                        functools.partial(_exit_in_a_worker, os.getpid()))
    assert run("experiment", "--setup", "ntn_05", "--p", 20, "--n-per-class", 5,
               "--replicates", 4, "--jobs", 2, "--out", tmp_path / "r.csv") == 1
    assert _error_line(capsys) == ("scaledist: error: the worker process scoring replicates "
                                   "0-1 ended with exit code 3 before sending its scores")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, message", [
    ("--q", "1,1.0", "aggregation order 1 is listed twice"),
    ("--standardise", "mad,none,mad", "standardisation method 'mad' is listed twice"),
    ("--methods", "pam,pam", "method 'pam' is listed twice"),
])
def test_experiment_refuses_a_grid_value_listed_twice(tmp_path, capsys, flag, value, message):
    # --q 1,1.0 scored every cell twice: 8 records from 4 replicates
    out = tmp_path / "r.csv"
    assert run("experiment", "--setup", "ntn_05", "--p", 30, "--n-per-class", 5,
               "--replicates", 4, "--methods", "pam", flag, value, "--out", out) == 1
    assert _error_line(capsys) == "scaledist: error: " + message
    assert not out.exists()


def test_cli_composition_reproduces_experiment_records(tmp_path):
    # the pipeline property: one experiment grid cell == running the
    # single-step subcommands by hand on the replicate's own seed
    cfg = ExperimentConfig(
        setup="simple_normal", replicates=2, seed=20, p=18, n_per_class=6,
        standardisations=("mad",), orders=(1.0,), methods=("pam", "knn3"),
    )
    records = run_experiment(cfg, jobs=1)
    rep = 1
    seed = int(replicate_seeds(20, 2)[rep])
    by_method = {r.method: r for r in records if r.replicate == rep}
    assert by_method["pam"].seed == seed

    prefix = tmp_path / "ds"
    assert run("simulate", "--setup", "simple_normal", "--p", 18, "--n-per-class", 6,
               "--seed", seed, "--out-prefix", prefix) == 0

    std_train = tmp_path / "train_std.csv"
    params = tmp_path / "scales.json"
    assert run("standardise", "--method", "mad", "--save-params", params,
               str(prefix) + ".train.csv", std_train) == 0
    dm = tmp_path / "train.dm"
    assert run("distmat", "--q", "1", std_train, dm) == 0
    cluster_out = tmp_path / "clusters.txt"
    assert run("cluster", "--method", "pam", "--k", 2, "--out", cluster_out, dm) == 0

    truth = read_labels(str(prefix) + ".train.labels")
    ari = adjusted_rand_index(read_labels(cluster_out), truth)
    assert ari == by_method["pam"].value

    pred_out = tmp_path / "pred.txt"
    assert run("classify", "--train", str(prefix) + ".train.csv",
               "--train-labels", str(prefix) + ".train.labels",
               "--test", str(prefix) + ".test.csv",
               "--q", "1", "--standardise", "mad", "--out", pred_out) == 0
    miscls = misclassification_rate(
        read_labels(pred_out), read_labels(str(prefix) + ".test.labels")
    )
    assert miscls == by_method["knn3"].value


def _error_line(capsys):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("scaledist: error: "), lines
    return lines[0]


def _pooled_data(tmp_path):
    rng = np.random.default_rng(12)
    X = np.vstack([rng.standard_normal((5, 4)), 3.0 * rng.standard_normal((5, 4)) + 1.0])
    y = np.repeat([1, 2], 5)
    write_matrix_csv(tmp_path / "x.csv", X)
    (tmp_path / "y.labels").write_text("".join("%d\n" % v for v in y))
    return X, y


def test_standardise_and_distmat_fit_a_pooled_method_on_the_labels_given(tmp_path):
    X, y = _pooled_data(tmp_path)
    std = fit_standardiser(X, "pooled_variance", labels=y)
    assert run("standardise", "--method", "pooled_variance", "--labels", tmp_path / "y.labels",
               tmp_path / "x.csv", tmp_path / "out.csv") == 0
    assert read_matrix_csv(tmp_path / "out.csv").tobytes() == std.transform(X).tobytes()
    assert run("distmat", "--q", 1, "--standardise", "pooled_variance",
               "--labels", tmp_path / "y.labels", tmp_path / "x.csv", tmp_path / "x.dm") == 0
    want = pairwise(std.transform(X), 1.0).entries
    assert read_condensed(tmp_path / "x.dm").entries.tobytes() == want.tobytes()


@pytest.mark.parametrize("command", ["standardise", "distmat"])
@pytest.mark.parametrize(
    "method, labels, expected",
    [
        ("pooled_variance", None, "method 'pooled_variance' requires class labels"),
        # --labels is read and checked whenever given, whatever the method
        ("mad", "1\n2\n", "expected 10 labels, got 2"),
        ("none", "absent", "No such file or directory"),
        ("boxplot", "1\n1.0\n", "line 2: could not parse '1.0' as an integer label"),
        ("range", "99999999999999999999\n", "line 1: label 99999999999999999999 is beyond int64"),
    ],
)
def test_bad_or_missing_labels_are_one_error_line(tmp_path, capsys, command, method, labels,
                                                 expected):
    _pooled_data(tmp_path)
    argv = [command, "--method" if command == "standardise" else "--standardise", method]
    if command == "distmat":
        argv += ["--q", 1]
    if labels is not None:
        path = tmp_path / "bad.labels"
        if labels != "absent":
            path.write_text(labels)
        argv += ["--labels", path]
    out = tmp_path / "out.txt"
    capsys.readouterr()
    assert run(*argv, tmp_path / "x.csv", out) == 1
    assert expected in _error_line(capsys)
    assert not out.exists()


def test_standardise_refuses_labels_with_loaded_params(tmp_path, capsys):
    data, params, _ = _saved_params(tmp_path, "mad")
    (tmp_path / "y.labels").write_text("1\n" * 20)
    capsys.readouterr()
    assert run("standardise", "--params", params, "--labels", tmp_path / "y.labels",
               data, tmp_path / "out.csv") == 1
    assert _error_line(capsys) == "scaledist: error: --labels needs --method, not --params"


def test_classify_with_a_pooled_method_matches_the_library(tmp_path):
    X, y = _pooled_data(tmp_path)
    test = X[::-1] * 1.5 + 0.25
    write_matrix_csv(tmp_path / "t.csv", test)
    std = fit_standardiser(X, "pooled_mad_shift", labels=y)
    want = knn_classify(cross(std.transform(test), std.transform(X), 1.0), y, 3)
    out = tmp_path / "pred.labels"
    assert run("classify", "--train", tmp_path / "x.csv", "--train-labels", tmp_path / "y.labels",
               "--test", tmp_path / "t.csv", "--q", 1, "--standardise", "pooled_mad_shift",
               "--out", out) == 0
    assert out.read_text() == "".join("%d\n" % v for v in want)


def test_predictions_that_miss_a_class_are_still_written(tmp_path, capsys):
    # k-nn predictions need not cover every class, so they are not checked
    write_matrix_csv(tmp_path / "x.csv", np.array([[0.0], [1.0], [10.0]]))
    (tmp_path / "y.labels").write_text("1\n1\n2\n")
    write_matrix_csv(tmp_path / "t.csv", np.array([[0.5], [0.7]]))
    assert run("classify", "--train", tmp_path / "x.csv", "--train-labels", tmp_path / "y.labels",
               "--test", tmp_path / "t.csv", "--q", 1, "--k", 1) == 0
    assert capsys.readouterr().out == "1\n1\n"


def test_cluster_refuses_a_condensed_header_with_an_unknown_key(tmp_path, capsys):
    dm = tmp_path / "d.dm"
    dm.write_text('{"n": 3, "junk": 1}\n1.0\n2.0\n3.0\n')
    assert run("cluster", "--method", "pam", "--k", 2, dm) == 1
    assert _error_line(capsys) == "scaledist: error: %s: unknown header key(s): junk" % dm


@pytest.mark.parametrize("method, labels", [
    ("range", None), ("unit_variance", None), ("pooled_range_weights", "1\n1\n2\n"),
])
def test_an_overflowing_linear_scale_is_held_and_its_file_reloads(tmp_path, capsys, method,
                                                                 labels):
    # the statistic of the first column overflows; it used to warn and then
    # fail with an error about a parameter-file key
    data = tmp_path / "x.csv"
    data.write_text("-1e308,1\n1e308,2\n0,3\n")
    argv = ["standardise", "--method", method, "--save-params", tmp_path / "p.json"]
    if labels is not None:
        (tmp_path / "y.labels").write_text(labels)
        argv += ["--labels", tmp_path / "y.labels"]
    capsys.readouterr()
    assert run(*argv, data, tmp_path / "fitted.csv") == 0
    assert capsys.readouterr().err == ""
    scales = json.loads((tmp_path / "p.json").read_text())["scales"]
    assert scales[0] == np.finfo(np.float64).max and 0.0 < scales[1] < 3.0
    assert run("standardise", "--params", tmp_path / "p.json", data, tmp_path / "again.csv") == 0
    assert (tmp_path / "again.csv").read_text() == (tmp_path / "fitted.csv").read_text()


def test_a_boxplot_fit_whose_median_overflowed_reloads_through_params(tmp_path, capsys):
    # numpy's median of the first column overflowed: the command warned
    # "overflow encountered in subtract", then stopped at a non-finite value
    data = tmp_path / "x.csv"
    data.write_text("-1e308,1\n-1e308,2\n1e308,3\n1e308,5\n")
    capsys.readouterr()
    assert run("standardise", "--method", "boxplot", "--save-params", tmp_path / "p.json",
               data, tmp_path / "fitted.csv") == 0
    assert capsys.readouterr().err == ""
    first = json.loads((tmp_path / "p.json").read_text())["variables"][0]
    assert [first[key] for key in ("median", "lqr", "uqr", "scaled_min", "scaled_max")] == [
        0.0, 1e308, 1e308, -0.5, 0.5]
    assert read_matrix_csv(tmp_path / "fitted.csv")[:, 0].tolist() == [-0.5, -0.5, 0.5, 0.5]
    assert run("standardise", "--params", tmp_path / "p.json", data, tmp_path / "again.csv") == 0
    assert (tmp_path / "again.csv").read_text() == (tmp_path / "fitted.csv").read_text()


def test_experiment_refuses_timing_from_a_config_and_from_the_command_line(tmp_path, capsys):
    # the seconds column is no longer filled, so there is no timing to ask for
    out, config = tmp_path / "r.csv", tmp_path / "cfg.json"
    base = {"setup": "simple_normal", "p": 4, "n_per_class": 3, "replicates": 1,
            "methods": ["knn3"]}
    config.write_text(json.dumps(dict(base, timing=True)))
    capsys.readouterr()
    assert run("experiment", "--config", config, "--jobs", 1, "--out", out) == 1
    assert _error_line(capsys) == "scaledist: error: unknown config key(s): timing"
    config.write_text(json.dumps(base))
    with pytest.raises(SystemExit) as err:
        run("experiment", "--config", config, "--timing", "--jobs", 1, "--out", out)
    assert err.value.code == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("scaledist: ")]
    assert errors == ["scaledist: error: unrecognized arguments: --timing"]
    assert not out.exists()


def test_experiment_refuses_one_file_for_both_outputs(tmp_path, capsys):
    # the summary JSON was the only thing left in the file
    out, same = tmp_path / "r.csv", "%s/./r.csv" % tmp_path
    capsys.readouterr()
    assert run("experiment", "--setup", "simple_normal", "--p", 4, "--n-per-class", 3,
               "--replicates", 1, "--methods", "knn3", "--jobs", 1,
               "--out", out, "--summary", same) == 1
    assert _error_line(capsys) == "scaledist: error: %s: two outputs name this file" % same
    assert sorted(tmp_path.iterdir()) == []


def test_standardise_refuses_one_file_for_params_and_output(tmp_path, capsys):
    # the fitted parameters were overwritten by the output matrix
    data, _, _ = _saved_params(tmp_path, "mad")
    before = sorted(tmp_path.iterdir())
    out = tmp_path / "o.csv"
    capsys.readouterr()
    assert run("standardise", "--method", "mad", "--save-params", out, data, out) == 1
    assert _error_line(capsys) == "scaledist: error: %s: two outputs name this file" % out
    assert sorted(tmp_path.iterdir()) == before


def test_experiment_failing_in_every_replicate_is_one_error_line_at_two_jobs(tmp_path,
                                                                              capsys):
    # the class means lie 1e308 apart, so every replicate's distances overflow
    # in the worker's share and in the calling process's share alike
    setup = {"name": "huge", "t2_fraction": 0.0, "noise_fraction": 0.0, "mean_diff": 1e308,
             "sd_range": [0.5, 1], "p": 6, "n_per_class": 4}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"setup": setup, "replicates": 3, "seed": 5,
                                  "methods": ["pam", "knn3"]}))
    out, summary = tmp_path / "r.csv", tmp_path / "s.json"
    capsys.readouterr()
    assert run("experiment", "--config", config, "--jobs", 2, "--out", out,
               "--summary", summary) == 1
    assert _error_line(capsys) == "scaledist: error: distances must be finite"
    assert sorted(tmp_path.iterdir()) == [config]


def test_experiment_writes_neither_file_when_the_summary_fails(tmp_path, capsys):
    out = tmp_path / "r.csv"
    summary = tmp_path / "absent" / "s.json"
    assert run("experiment", "--setup", "simple_normal", "--p", 4, "--n-per-class", 3,
               "--replicates", 1, "--methods", "knn3", "--jobs", 1,
               "--out", out, "--summary", summary) == 1
    assert _error_line(capsys).endswith("No such file or directory: '%s'" % summary)
    assert sorted(tmp_path.iterdir()) == []


def test_standardise_writes_no_params_when_the_output_fails(tmp_path, capsys):
    data, _, _ = _saved_params(tmp_path, "mad")
    before = sorted(tmp_path.iterdir())
    params, out = tmp_path / "again.json", tmp_path / "absent" / "o.csv"
    capsys.readouterr()
    assert run("standardise", "--method", "mad", "--save-params", params, data, out) == 1
    assert _error_line(capsys).endswith("No such file or directory: '%s'" % out)
    assert sorted(tmp_path.iterdir()) == before


def test_simulate_writes_nothing_when_a_target_is_a_directory(tmp_path, capsys):
    prefix = tmp_path / "s"
    (tmp_path / "s.meta.json").mkdir()
    assert run("simulate", "--setup", "ntn_05", "--p", 3, "--n-per-class", 2, "--seed", 1,
               "--out-prefix", prefix) == 1
    assert _error_line(capsys).endswith("Is a directory: '%s.meta.json'" % prefix)
    assert [p.name for p in tmp_path.iterdir()] == ["s.meta.json"]


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 8.00 TiB"), "Unable to allocate 8.00 TiB"),
    (MemoryError(), "MemoryError"),
])
def test_a_memory_error_is_one_error_line(monkeypatch, tmp_path, capsys, error, message):
    # numpy's _ArrayMemoryError for an oversized flag ended in a traceback
    def out_of_memory(spec, seed):
        raise error

    monkeypatch.setattr(simgen, "generate", out_of_memory)
    assert run("simulate", "--setup", "ntn_05", "--seed", 1, "--out-prefix", tmp_path / "s") == 1
    assert _error_line(capsys) == "scaledist: error: " + message
    assert list(tmp_path.iterdir()) == []


def _limit_address_space():
    # 2 GiB: a regression that spawns a stream per variable fails, not the machine
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_simulate_refuses_an_impossible_p_before_spawning_its_streams(tmp_path):
    # generate spawned p seed sequences before allocating, so memory grew
    # without bound until the process was killed
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-m", "scaledist.cli", "simulate", "--setup", "ntn_05", "--seed", "1",
         "--p", "2305843009213693952", "--out-prefix", str(tmp_path / "s")],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space)
    assert result.returncode == 1
    assert result.stderr.startswith("scaledist: error: array is too big")
    assert len(result.stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_experiment_names_replicates_too_many_for_a_seed_array(tmp_path, capsys):
    # numpy's "Maximum allowed dimension exceeded" named no flag
    assert run("experiment", "--setup", "ntn_05", "--p", 5, "--n-per-class", 2,
               "--methods", "knn3", "--replicates", 4611686018427387904,
               "--out", tmp_path / "r.csv") == 1
    assert _error_line(capsys).startswith(
        "scaledist: error: replicates 4611686018427387904 is too many: ")
    assert list(tmp_path.iterdir()) == []
