"""Command-line interface contracts for all six subcommands."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from scaledist.cli import main
from scaledist.core import read_condensed, read_labels, read_matrix_csv, write_matrix_csv
from scaledist.evaluate import adjusted_rand_index, misclassification_rate
from scaledist.harness import read_records_csv, replicate_seeds, run_experiment
from scaledist.harness import ExperimentConfig, run_experiment_to_files
from scaledist.simgen import SetupSpec


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
    X, _ = read_matrix_csv(str(prefix) + ".train.csv")
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
    out, _ = read_matrix_csv(tmp_path / "train_std.csv")
    assert out.min() >= -2.0 and out.max() <= 2.0

    assert run("standardise", "--params", params, "--cap",
               test, tmp_path / "test_std.csv") == 0
    capped, _ = read_matrix_csv(tmp_path / "test_std.csv")
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


def test_warnings_print_as_one_line_each(tmp_path, capsys):
    data = tmp_path / "c.csv"
    write_matrix_csv(data, np.array([[1.0, 2.0, 5.0], [3.0, 4.0, 5.0], [5.0, 1.0, 5.0]]))
    assert run("standardise", "--method", "mad", data, tmp_path / "out.csv") == 0
    assert capsys.readouterr().err.splitlines() == [
        "scaledist: warning: zero mad scale in column(s) 3; output set to zero there"]


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
        ("timing", 1, "'timing' must be true or false"),
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
