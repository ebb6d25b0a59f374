"""Scale statistics, linear standardisation and the fitted-parameter store."""

import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import quantile_by_hand
from scaledist.harness import ExperimentConfig, run_replicate
from scaledist.simgen import setup_catalog
from scaledist.standardise import (
    LINEAR_METHODS,
    METHODS,
    POOLED_METHODS,
    _BOXPLOT_KINDS,
    BoxplotParams,
    Standardiser,
    _quantiles,
    fit_standardiser,
)


def quantile(values, prob):
    # the quantile of one column, as the fits take it
    return _quantiles(np.asarray(values, float)[:, None], prob)[0]


def test_quantile_examples():
    assert quantile([1, 2, 3, 4], 0.5) == 2.5
    assert quantile([1, 2, 3, 4, 5], 0.25) == 2.0
    assert quantile([7], 0.3) == 7.0
    assert quantile([3, 1, 2], 0.0) == 1.0
    assert quantile([3, 1, 2], 1.0) == 3.0


def test_quantile_matches_hand_interpolation():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        values = rng.standard_normal(n) * 10
        prob = float(rng.uniform())
        assert_allclose(
            quantile(values, prob), quantile_by_hand(values, prob), rtol=0, atol=1e-12
        )


def test_scale_statistic_examples():
    assert fit_standardiser(np.array([1, 2, 3, 4, 100])[:, None], "mad").scales[0] == 1.0
    assert fit_standardiser(np.array([1, 2, 5])[:, None], "range").scales[0] == 4.0
    assert fit_standardiser(np.array([0, 2, 4])[:, None], "unit_variance").scales[0] == 2.0

    col = np.array([0.0, 2.0, 0.0, 4.0])
    y = np.array([1, 1, 2, 2])
    assert fit_standardiser(col[:, None], "pooled_mad_weights", labels=y).scales[0] == 1.5
    assert fit_standardiser(col[:, None], "pooled_mad_shift", labels=y).scales[0] == 1.5
    assert fit_standardiser(col[:, None], "pooled_range_shift", labels=y).scales[0] == 4.0
    # class ranges 2 and 4, sizes 2 and 2
    assert fit_standardiser(col[:, None], "pooled_range_weights", labels=y).scales[0] == 3.0
    # class variances 2 and 8, pooled numerator (1*2 + 1*8) over n - k = 2
    assert fit_standardiser(col[:, None], "pooled_variance", labels=y).scales[0] == (
        pytest.approx(np.sqrt(5.0)))


def test_scale_statistic_pooled_needs_labels():
    for method in POOLED_METHODS:
        with pytest.raises(ValueError):
            fit_standardiser(np.array([[1.0], [2.0], [3.0], [4.0]]), method)


def test_scale_statistic_degenerate_class():
    col = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="class 2"):
        fit_standardiser(col[:, None], "pooled_variance", labels=[1, 1, 2])
    # MAD and range pooling only need one observation per class
    pooled = fit_standardiser(col[:, None], "pooled_range_weights", labels=[1, 1, 2])
    assert pooled.scales[0] >= 0.0


def test_scale_statistic_unknown_method():
    # every route names it alike; the fit and a replicate said "unknown scale method"
    spec = setup_catalog()["ntn_05"].with_size(p=10, n_per_class=5)
    calls = [
        lambda: fit_standardiser(np.array([[1.0], [2.0]]), "nope"),
        lambda: fit_standardiser(np.array([[1.0]]), "nope"),  # checked before the data
        lambda: Standardiser("nope", [1.0]),
        lambda: ExperimentConfig("simple_normal", standardisations=("nope",)),
        lambda: run_replicate(spec, "ntn_05", 0, 1, ("nope",), (1.0,), ("pam",)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^unknown standardisation method 'nope'$"):
            call()


def test_standardise_matrix_examples():
    X = np.array([[0.0], [2.0], [4.0]])
    assert_array_equal(fit_standardiser(X, "none").transform(X), X)
    assert_array_equal(fit_standardiser(X, "unit_variance").transform(X), [[0.0], [1.0], [2.0]])


def test_constant_column_goes_to_zero_with_warning():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    with pytest.warns(UserWarning, match=r"column\(s\) 2"):
        out = fit_standardiser(X, "range").transform(X)
    assert_array_equal(out[:, 1], 0.0)
    assert np.all(out[:, 0] != 0.0)


def test_zero_mad_with_positive_variance():
    # majority ties force MAD to 0 while the variance stays positive
    X = np.array([[0.0], [0.0], [0.0], [5.0], [0.0]])
    with pytest.warns(UserWarning):
        out = fit_standardiser(X, "mad").transform(X)
    assert_array_equal(out[:, 0], 0.0)
    assert np.any(fit_standardiser(X, "unit_variance").transform(X) != 0.0)


@pytest.mark.parametrize("method", LINEAR_METHODS)
def test_scale_equivariance(method):
    # multiplying the data by c > 0 must not change the standardised matrix
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 6))
    y = np.repeat([1, 2], 10)
    labels = y if method in POOLED_METHODS else None
    base = fit_standardiser(X, method, labels=labels).transform(X)
    for c in (1e-6, 3.0, 1e6):
        scaled = fit_standardiser(c * X, method, labels=labels).transform(c * X)
        assert_allclose(scaled, base, rtol=1e-12, atol=1e-12)


def test_pooled_variance_numerator_identity():
    # sum_l (n_l - 1) s_l^2 equals the pooled centered sum of squares
    rng = np.random.default_rng(19)
    for _ in range(50):
        n1, n2, n3 = rng.integers(2, 12, size=3)
        col = rng.standard_normal(n1 + n2 + n3) * 4
        y = np.repeat([1, 2, 3], [n1, n2, n3])
        lhs = 0.0
        centered_sq = 0.0
        for cls, size in ((1, n1), (2, n2), (3, n3)):
            part = col[y == cls]
            lhs += (size - 1) * part.var(ddof=1)
            centered_sq += ((part - part.mean()) ** 2).sum()
        assert_allclose(lhs, centered_sq, rtol=1e-12)
        pooled = fit_standardiser(col[:, None], "pooled_variance", labels=y).scales[0]
        assert_allclose(pooled, np.sqrt(centered_sq / (len(col) - 3)), rtol=1e-12)


def test_fit_standardiser_round_trips_through_json(tmp_path):
    rng = np.random.default_rng(23)
    X = rng.standard_normal((16, 4)) * [1.0, 10.0, 0.1, 100.0]
    for method in ("none", "mad", "unit_variance", "range"):
        fitted = fit_standardiser(X, method)
        path = tmp_path / (method + ".json")
        fitted.save(path)
        loaded = Standardiser.from_json_dict(json.loads(path.read_text()))
        assert loaded.method == method
        assert_array_equal(loaded.transform(X), fitted.transform(X))


def test_transform_rejects_wrong_width():
    X = np.ones((4, 3)) * [[1.0, 2.0, 3.0]]
    X[0] = 0.0
    fitted = fit_standardiser(X, "range")
    with pytest.raises(ValueError):
        fitted.transform(np.ones((2, 5)))


@pytest.mark.parametrize(
    "method, scales, expected",
    [  # each was accepted: a NaN column, a negated one, 'none' dividing by 3
        ("mad", [float("nan"), 1.0], "entry 1 is nan; scales must be finite and >= 0"),
        ("mad", [1.0, -1.0], "entry 2 is -1.0; scales must be finite and >= 0"),
        ("none", [3.0], "entry 1 is 3.0; method 'none' scales by 1"),
    ],
)
def test_constructor_refuses_bad_scales(method, scales, expected):
    for given in (scales, np.array(scales)):
        with pytest.raises(ValueError) as err:
            Standardiser(method, given)
        assert expected in str(err.value)


def test_fitted_scales_are_training_only():
    # the returned object stores plain numbers; transforming new data cannot
    # update them
    rng = np.random.default_rng(31)
    X_train = rng.standard_normal((12, 3))
    fitted = fit_standardiser(X_train, "mad")
    before = fitted.to_json_dict()
    fitted.transform(rng.standard_normal((200, 3)) * 1e6)
    assert fitted.to_json_dict() == before


def _column_kinds():
    # every kind of column the boxplot fit treats differently, side by side,
    # and labels of three classes
    base = np.arange(10.0)
    X = np.column_stack([
        base,                                # no tail
        np.r_[-13.5, base[1:]],              # lower tail only, exponent near 0
        np.r_[base[:-1], 50.0],              # upper tail only
        np.r_[-9.0, base[1:]],               # scaled minimum -3: negative exponent
        np.r_[-9.0, base[1:-1], 60.0],       # both tails, exponents of both signs
        np.full(10, 5.0),                    # degenerate
        np.r_[-4.0, -3.0, -2.0, -1.0, np.zeros(6)],  # zero MAD, lower half only
    ])
    return X, np.tile([1, 2, 3], 4)[:10]


@pytest.mark.parametrize("method", METHODS)
def test_fitting_a_matrix_equals_fitting_each_column_alone(method):
    # the column-wise code must give each column the parameters it gets on
    # its own
    X, y = _column_kinds()
    boxplot = fit_standardiser(X, "boxplot").boxplot
    assert_array_equal(np.isnan(boxplot.t_lower), [1, 0, 1, 0, 0, 1, 1])
    assert_array_equal(np.isnan(boxplot.t_upper), [1, 1, 0, 1, 0, 1, 1])
    assert boxplot.t_lower[3] < 0.0 < boxplot.t_lower[1]
    assert_array_equal(boxplot.degenerate, [0, 0, 0, 0, 0, 1, 0])
    with pytest.warns(UserWarning, match=r"column\(s\) 1"):
        assert fit_standardiser(X[:, [6]], "mad").scales[0] == 0.0

    def fitted(A):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # zero-scale columns
            params = fit_standardiser(A, method, labels=y).to_json_dict()
        return params["variables" if method == "boxplot" else "scales"]

    alone = [entry for j in range(X.shape[1]) for entry in fitted(X[:, [j]])]
    # json text compares floats bit for bit, including the sign of zero
    assert json.dumps(fitted(X)) == json.dumps(alone)


@pytest.mark.parametrize("method", METHODS)
def test_transforming_a_matrix_equals_transforming_each_column_alone(method):
    # tail entries are found by flat index and take the exponent of their
    # column: every column must come out as it does alone with its own
    # parameters, zero signs included, and a Fortran-ordered matrix as a
    # C-ordered one
    X, y = _column_kinds()
    probe = np.vstack([X, 3.0 * X - 1.0, -2.0 * X, np.full((1, X.shape[1]), -0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # zero-scale columns
        fitted = fit_standardiser(X, method, labels=y)
    for cap in (False, True):
        whole = fitted.transform(probe, cap=cap)
        assert fitted.transform(np.asfortranarray(probe), cap=cap).tobytes() == whole.tobytes()
        for j in range(X.shape[1]):
            if method == "boxplot":
                alone = Standardiser(method, BoxplotParams(
                    **{f: getattr(fitted.boxplot, f)[[j]] for f in _BOXPLOT_KINDS}))
            else:
                alone = Standardiser(method, fitted.scales[[j]])
            assert whole[:, [j]].tobytes() == alone.transform(probe[:, [j]], cap=cap).tobytes()


@pytest.mark.parametrize("method", LINEAR_METHODS)
def test_an_overflowing_statistic_is_held_at_the_largest_float(method):
    # column 1's range, variance and class-size weighted MAD overflow and are
    # held at the largest float (they used to warn and store inf, which the
    # Standardiser then refused); its MAD and pooled MAD about the class
    # medians are 1e308, once the medians between -1e308 and 1e308 no longer
    # overflow
    X = np.array([[-1e308, 1.0], [-1e308, 2.0], [1e308, 3.0], [1e308, 5.0]])
    y = np.array([1, 2, 1, 2])
    expected = 1e308 if method in ("mad", "pooled_mad_shift") else np.finfo(np.float64).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        std = fit_standardiser(X, method, labels=y)
        assert fit_standardiser(X[:, [0]], method, labels=y).scales[0] == expected
    assert std.scales[0] == expected and 0.0 < std.scales[1] < 5.0
    loaded = Standardiser.from_json_dict(json.loads(json.dumps(std.to_json_dict())))
    assert loaded.transform(X).tobytes() == std.transform(X).tobytes()


@pytest.mark.parametrize("method", METHODS)
def test_labels_are_checked_against_the_rows_whenever_given(method):
    X = np.arange(8.0).reshape(4, 2)
    for labels, expected in (([1, 2], "expected 4 labels, got 2"),
                             ([1.0, 2.0, 1.0, 2.0], "labels must be integers"),
                             ([1, 3, 1, 3], "class 2 has no members")):
        with pytest.raises(ValueError, match=expected):
            fit_standardiser(X, method, labels=labels)
        with pytest.raises(ValueError, match=expected):
            fit_standardiser(X[:, [0]], method, labels=labels)
