"""Simulation regimes: catalog parameters, determinism and distributional sanity."""

import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from scaledist.core import read_labels, read_matrix_csv
from scaledist.simgen import (
    GeneratedDataset,
    SetupSpec,
    generate,
    setup_catalog,
    write_dataset,
)

T2_IQR = 1.632993161855452  # 2 * sqrt(2/3), quartiles of the t distribution with 2 df


def test_catalog_has_the_five_regimes():
    catalog = setup_catalog()
    assert sorted(catalog) == [
        "ntn_01",
        "ntn_05",
        "ntn_09",
        "simple_normal",
        "simple_normal_099",
    ]
    for spec in catalog.values():
        assert spec.p == 2000
        assert spec.n_per_class == 50

    sn = catalog["simple_normal"]
    assert sn.t2_fraction == 0.0 and sn.noise_fraction == 0.0
    assert sn.mean_diff == 0.1
    assert sn.sd_range == (0.5, 1.5)

    sn99 = catalog["simple_normal_099"]
    assert sn99.noise_fraction == 0.99 and sn99.t2_fraction == 0.0
    assert sn99.mean_diff == 12.0
    assert sn99.sd_range == (0.5, 2.0)

    assert setup_catalog()["ntn_01"].mean_diff == (0.0, 0.3)
    assert setup_catalog()["ntn_05"].mean_diff == (0.0, 2.0)
    assert setup_catalog()["ntn_05"].sd_range == (0.5, 10.0)
    ntn9 = setup_catalog()["ntn_09"]
    assert ntn9.t2_fraction == 0.9 and ntn9.noise_fraction == 0.9
    assert ntn9.mean_diff == (0.0, 10.0)


def test_with_size_override():
    small = setup_catalog()["simple_normal"].with_size(p=200, n_per_class=10)
    assert small.p == 200 and small.n_per_class == 10
    assert small.mean_diff == 0.1  # everything else untouched
    with pytest.raises(ValueError, match="setup 'p' must be an integer"):
        small.with_size(p=20.9)  # was truncated to 20


def test_spec_validation():
    with pytest.raises(ValueError):
        SetupSpec("x", t2_fraction=1.5, noise_fraction=0.0, mean_diff=1.0, sd_range=(1, 2))
    with pytest.raises(ValueError):
        SetupSpec("x", t2_fraction=0.0, noise_fraction=0.0, mean_diff=(2.0, 1.0), sd_range=(1, 2))
    with pytest.raises(ValueError):
        SetupSpec("x", t2_fraction=0.0, noise_fraction=0.0, mean_diff=1.0, sd_range=(0.0, 2.0))
    with pytest.raises(ValueError):
        SetupSpec("", t2_fraction=0.0, noise_fraction=0.0, mean_diff=1.0, sd_range=(1, 2))
    with pytest.raises(ValueError):
        SetupSpec("a,b", t2_fraction=0.0, noise_fraction=0.0, mean_diff=1.0, sd_range=(1, 2))


def test_spec_json_round_trip():
    for spec in setup_catalog().values():
        back = SetupSpec.from_json_dict(spec.to_json_dict())
        assert back == spec
    custom = SetupSpec("mine", 0.2, 0.3, (0.0, 1.0), (0.5, 2.0), p=64, n_per_class=7)
    assert SetupSpec.from_json_dict(json.loads(json.dumps(custom.to_json_dict()))) == custom
    # numpy floats are numbers; they are kept, and written, as Python floats
    f = np.float64
    spec = SetupSpec("mine", f(0.2), f(0.3), [f(0.0), 1], (0.5, f(2.0)), p=64, n_per_class=7)
    assert spec == custom
    assert all(type(v) is float for v in (spec.t2_fraction, spec.noise_fraction,
                                          *spec.mean_diff, *spec.sd_range))
    with pytest.raises(ValueError, match="missing key 'sd_range'"):
        SetupSpec.from_json_dict({k: v for k, v in custom.to_json_dict().items() if k != "sd_range"})


def test_generate_shapes_and_labels():
    spec = setup_catalog()["ntn_05"].with_size(p=40, n_per_class=6)
    ds = generate(spec, seed=99)
    assert ds.x_train.shape == (12, 40)
    assert ds.x_test.shape == (12, 40)
    assert_array_equal(ds.y_train, [1] * 6 + [2] * 6)
    assert_array_equal(ds.y_test, ds.y_train)
    for key in ("is_noise", "is_t2", "mean_diff", "sd_class1", "sd_class2"):
        assert len(ds.variable_meta[key]) == 40


def test_generate_is_deterministic():
    spec = setup_catalog()["ntn_01"].with_size(p=30, n_per_class=5)
    a = generate(spec, seed=1234)
    b = generate(spec, seed=1234)
    assert_array_equal(a.x_train, b.x_train)
    assert_array_equal(a.x_test, b.x_test)
    for key in a.variable_meta:
        assert_array_equal(a.variable_meta[key], b.variable_meta[key])
    c = generate(spec, seed=1235)
    assert not np.array_equal(a.x_train, c.x_train)


def test_generate_seed_domain():
    spec = setup_catalog()["simple_normal"].with_size(p=4, n_per_class=3)
    generate(spec, seed=2**64 - 1)
    assert_array_equal(generate(spec, seed=np.int64(7)).x_train, generate(spec, seed=7).x_train)
    for seed in (-1, 2**64, 1.7, 2.0, True):  # 1.7 gave seed 1's data
        with pytest.raises(ValueError, match="seed"):
            generate(spec, seed=seed)


def test_variables_are_stable_under_p_growth():
    # per-variable substreams: growing p must not reshuffle earlier columns
    base = setup_catalog()["ntn_05"].with_size(p=25, n_per_class=8)
    grown = base.with_size(p=50)
    a = generate(base, seed=7)
    b = generate(grown, seed=7)
    assert_array_equal(a.x_train, b.x_train[:, :25])
    assert_array_equal(a.x_test, b.x_test[:, :25])


def test_train_and_test_share_variable_meta():
    # same ground-truth parameters, fresh observation noise
    spec = setup_catalog()["simple_normal"].with_size(p=60, n_per_class=20)
    ds = generate(spec, seed=5)
    meta = ds.variable_meta
    assert not np.any(meta["is_noise"])
    assert not np.any(meta["is_t2"])
    assert np.all(meta["mean_diff"] == 0.1)
    assert not np.array_equal(ds.x_train, ds.x_test)
    # class-2 columns should be shifted by mean_diff on average
    shift = ds.x_train[20:].mean() - ds.x_train[:20].mean()
    assert shift == pytest.approx(0.1, abs=0.1)


def test_noise_variables_have_no_class_signal():
    spec = SetupSpec("all_noise", 0.2, 1.0, (0.0, 5.0), (0.5, 2.0), p=50, n_per_class=30)
    ds = generate(spec, seed=31)
    meta = ds.variable_meta
    assert np.all(meta["is_noise"])
    assert np.all(meta["mean_diff"] == 0.0)
    assert_array_equal(meta["sd_class1"], meta["sd_class2"])  # one shared draw


def test_flag_fractions_and_independence():
    spec = SetupSpec("mixed", 0.3, 0.6, (0.0, 1.0), (0.5, 2.0), p=10_000, n_per_class=2)
    ds = generate(spec, seed=11)
    noise = np.asarray(ds.variable_meta["is_noise"], dtype=float)
    t2 = np.asarray(ds.variable_meta["is_t2"], dtype=float)
    p = noise.size
    for frac, prob in ((noise.mean(), 0.6), (t2.mean(), 0.3)):
        se = np.sqrt(prob * (1 - prob) / p)
        assert abs(frac - prob) <= 3 * se
    # draws are independent: noise variables can be t-distributed and vice versa
    assert np.corrcoef(noise, t2)[0, 1] == pytest.approx(0.0, abs=0.05)
    assert np.any(noise * t2 == 1.0)


def test_sd_draws_lie_in_the_configured_range():
    spec = setup_catalog()["simple_normal"].with_size(p=400, n_per_class=50)
    ds = generate(spec, seed=13)
    for key in ("sd_class1", "sd_class2"):
        sds = np.asarray(ds.variable_meta[key])
        assert sds.min() >= 0.5 and sds.max() <= 1.5
    # empirical column sds agree with the drawn ones up to sampling noise;
    # the sd of a 50-sample sd estimate is roughly sd/sqrt(2*49), allow 5 of those
    for cls, key in ((1, "sd_class1"), (2, "sd_class2")):
        block = ds.x_train[np.asarray(ds.y_train) == cls]
        emp = block.std(axis=0, ddof=1)
        true = np.asarray(ds.variable_meta[key])
        assert np.all(np.abs(emp - true) <= 5 * true / np.sqrt(2 * 49))


def test_t2_draws_have_the_right_quantiles():
    # t with 2 df has infinite variance, check median and IQR instead
    spec = SetupSpec("pure_t", 1.0, 0.0, 0.0, (1.0, 1.0), p=1000, n_per_class=50)
    ds = generate(spec, seed=17)
    draws = np.concatenate([ds.x_train.ravel(), ds.x_test.ravel()])
    assert draws.size == 200_000
    assert abs(np.median(draws)) <= 0.02
    iqr = np.quantile(draws, 0.75) - np.quantile(draws, 0.25)
    assert iqr == pytest.approx(T2_IQR, rel=0.02)


def test_write_dataset_round_trip(tmp_path):
    spec = setup_catalog()["ntn_09"].with_size(p=12, n_per_class=4)
    ds = generate(spec, seed=2)
    prefix = str(tmp_path / "toy")
    paths = write_dataset(ds, prefix)
    assert sorted(paths) == sorted(
        [
            prefix + ".train.csv",
            prefix + ".train.labels",
            prefix + ".test.csv",
            prefix + ".test.labels",
            prefix + ".meta.json",
        ]
    )
    X, _ = read_matrix_csv(prefix + ".train.csv")
    assert_array_equal(X, ds.x_train)
    assert_array_equal(read_labels(prefix + ".train.labels"), ds.y_train)
    X_test, _ = read_matrix_csv(prefix + ".test.csv")
    assert_array_equal(X_test, ds.x_test)

    meta = json.loads((tmp_path / "toy.meta.json").read_text())
    assert meta["seed"] == 2
    assert meta["setup"]["name"] == "ntn_09"
    assert len(meta["variables"]["mean_diff"]) == 12
    assert meta["variables"]["is_noise"] == [bool(x) for x in ds.variable_meta["is_noise"]]
