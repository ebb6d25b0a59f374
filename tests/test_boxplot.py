"""Boxplot transformation: solver, fit/apply pair, capping and persistence."""

import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import solve_tail_by_bisection, solve_tail_by_masks, solve_tail_stepwise
from scaledist.cli import main
from scaledist.core import write_matrix_csv
from scaledist.simgen import generate, setup_catalog
from scaledist.standardise import (
    _BOXPLOT_KINDS,
    _TAIL_TARGET,
    BoxplotParams,
    Standardiser,
    _solve_tail_exponents,
    fit_standardiser,
)

# roots of (1 - M^-t)/t = 1.5, frozen from an independent bisection
T_FOR_M10 = 0.4032261168651621
T_FOR_M3 = -0.540282278013697
M_CRITICAL = math.exp(1.5)  # 4.4816890703380645, root changes sign here


def tail_residual(M, t):
    if t == 0.0:
        return math.log(M) - 1.5
    return -math.expm1(-t * math.log(M)) / t - 1.5


def test_solver_frozen_values():
    t10, t3, t25, t_critical = _solve_tail_exponents(np.array([10.0, 3.0, 2.5, M_CRITICAL]))
    assert t10 == pytest.approx(T_FOR_M10, abs=1e-9)
    assert t3 == pytest.approx(T_FOR_M3, abs=1e-9)
    assert t25 == pytest.approx(-1.0, abs=1e-9)
    assert abs(t_critical) < 1e-10


def test_solver_sign_follows_log_m():
    t = _solve_tail_exponents(np.array([100.0, M_CRITICAL + 0.01, M_CRITICAL - 0.01, 2.6]))
    assert t[0] > 0.0
    assert t[1] > 0.0
    assert t[2] < 0.0
    assert t[3] < 0.0


def test_solver_matches_bisection_oracle():
    rng = np.random.default_rng(101)
    M = np.exp(rng.uniform(math.log(1.0 + 1e-6), math.log(1e6), size=300))
    for m, t in zip(M.tolist(), _solve_tail_exponents(M).tolist()):
        t_ref = solve_tail_by_bisection(m)
        assert abs(t - t_ref) <= 1e-8 * max(1.0, abs(t_ref))
        assert abs(tail_residual(m, t)) <= 1e-10


def test_solver_residual_small_over_random_domain():
    rng = np.random.default_rng(202)
    M = np.exp(rng.uniform(1e-9, math.log(1e6), size=1000))
    for m, t in zip(M.tolist(), _solve_tail_exponents(M).tolist()):
        assert abs(tail_residual(m, t)) <= 1e-10


def test_solver_negative_branch():
    # M below e^1.5 has no positive root; the continuous extension is used
    rng = np.random.default_rng(303)
    M = rng.uniform(2.5, 4.98, size=200)
    for m, t in zip(M.tolist(), _solve_tail_exponents(M).tolist()):
        assert abs(tail_residual(m, t)) <= 1e-10
        if m < M_CRITICAL:
            assert t < 0.0


def test_array_solver_takes_the_one_at_a_time_steps_bit_for_bit():
    # the boxplot fit solves every tail in one array bisection; each element
    # must stop exactly where the scalar loop would, on both branches
    rng = np.random.default_rng(404)
    M = np.concatenate([
        np.exp(rng.uniform(1e-9, math.log(1e6), size=150)),
        rng.uniform(2.5, 4.98, size=100),
        1.0 + 10.0 ** rng.uniform(-15, 0, size=30),
        [M_CRITICAL, 2.5, 1e300, np.nextafter(1.0, 2.0)],
    ])
    target = 1.5 - 2.0 ** -44
    expected = [solve_tail_stepwise(m, target) for m in M.tolist()]
    assert_array_equal(_solve_tail_exponents(M), expected)


def _fitted_extent_grids():
    # the (2, p) extent grid that the boxplot fit solves, for every catalogue
    # setup at small shapes
    grids = []
    for spec in setup_catalog().values():
        for p, n_per_class, seed in [(37, 3, 1), (200, 20, 2), (500, 10, 3)]:
            X = generate(spec.with_size(p=p, n_per_class=n_per_class), seed).x_train
            params = fit_standardiser(X, "boxplot").boxplot
            smin, smax = params.scaled_min, params.scaled_max
            fitted = np.stack([smin < -2.0, smax > 2.0])
            grids.append(np.where(fitted, np.stack([0.5 - smin, smax + 0.5]), 2.5))
    return grids


def test_solver_rounds_take_the_masked_solver_steps_bit_for_bit():
    # fewer numpy calls per bisection round, the same midpoints: converged
    # and exactly hit elements stay put while the others go on
    rng = np.random.default_rng(505)
    e_target = math.exp(_TAIL_TARGET)
    near_target = [e_target, *(np.nextafter(e_target, d) for d in (0.0, 10.0)),
                   np.nextafter(np.nextafter(e_target, 10.0), 10.0)]
    assert any(math.log(m) == _TAIL_TARGET for m in near_target)
    grids = [
        np.exp(rng.uniform(1e-12, math.log(1e6), size=(2, 300))),
        np.stack([rng.uniform(2.5, 4.98, size=100), 1.0 + 10.0 ** rng.uniform(-15, 0, size=100)]),
        np.full((2, 5), 2.5),
        np.array([near_target, [2.5, M_CRITICAL, 3.0, 1e6]]),
        np.array([[1e300, 1.7e308, 1e299, 9e299], [2.5, 1e300, np.nextafter(1.0, 2.0), 10.0]]),
        *_fitted_extent_grids(),
    ]
    for M in grids:
        expected = solve_tail_by_masks(M, _TAIL_TARGET)
        assert _solve_tail_exponents(M).tobytes() == expected.tobytes()


def test_fit_identity_variable():
    X = np.array([-1.0, -0.5, 0.0, 0.5, 1.0]).reshape(-1, 1)
    std = fit_standardiser(X, "boxplot")
    params = std.boxplot
    assert params.median[0] == 0.0
    assert params.lqr[0] == 0.5
    assert params.uqr[0] == 0.5
    assert np.isnan(params.t_lower[0])
    assert np.isnan(params.t_upper[0])
    assert_array_equal(std.transform(X), X)


def test_scaled_minimum_exactly_minus_two_gets_no_exponent():
    # the tail condition is strict, -2 itself stays linear
    X = np.array([-2.0, -0.5, 0.0, 0.5, 2.0]).reshape(-1, 1)
    std = fit_standardiser(X, "boxplot")
    params = std.boxplot
    assert np.isnan(params.t_lower[0])
    assert np.isnan(params.t_upper[0])
    out = std.transform(X)
    assert out[0, 0] == -2.0
    assert out[-1, 0] == 2.0


def test_fit_with_scaled_minimum_minus_nine_and_a_half():
    X = np.array([-9.5, -0.5, 0.0, 0.5, 1.0]).reshape(-1, 1)
    std = fit_standardiser(X, "boxplot")
    params = std.boxplot
    # M = 0.5 - (-9.5) = 10
    assert params.t_lower[0] == pytest.approx(T_FOR_M10, abs=1e-9)
    assert np.isnan(params.t_upper[0])
    out = std.transform(X)
    assert out[0, 0] == pytest.approx(-2.0, abs=1e-10)
    assert out[0, 0] >= -2.0


def test_quartile_values_map_to_anchors_exactly():
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(5, 60))
        x = rng.standard_normal(n) * 10 + rng.uniform(-5, 5)
        std = fit_standardiser(x.reshape(-1, 1), "boxplot")
        params = std.boxplot
        anchors = np.array(
            [
                params.median[0] - params.lqr[0],
                params.median[0],
                params.median[0] + params.uqr[0],
            ]
        ).reshape(-1, 1)
        out = std.transform(anchors)
        assert_array_equal(out[:, 0], [-0.5, 0.0, 0.5])


def test_transform_is_strictly_increasing():
    rng = np.random.default_rng(505)
    for _ in range(50):
        n = int(rng.integers(10, 80))
        x = np.sort(rng.standard_t(2, size=n) * 5)
        if np.unique(x).size < n:
            continue
        std = fit_standardiser(x.reshape(-1, 1), "boxplot")
        out = std.transform(x.reshape(-1, 1))[:, 0]
        assert np.all(np.diff(out) > 0.0)


def test_training_output_contained_and_extremes_hit_two():
    rng = np.random.default_rng(606)
    for _ in range(60):
        n = int(rng.integers(12, 100))
        x = rng.standard_t(2, size=n) * rng.uniform(0.5, 20)
        X = x.reshape(-1, 1)
        std = fit_standardiser(X, "boxplot")
        params = std.boxplot
        out = std.transform(X)[:, 0]
        assert out.min() >= -2.0 and out.max() <= 2.0
        if not np.isnan(params.t_lower[0]):
            assert out.min() == pytest.approx(-2.0, abs=1e-10)
        if not np.isnan(params.t_upper[0]):
            assert out.max() == pytest.approx(2.0, abs=1e-10)


def test_tail_joins_are_continuous_with_unit_slope():
    # check value and first derivative at the +-0.5 joins by finite differences
    X = np.array([-30.0, -0.5, 0.0, 0.5, 40.0]).reshape(-1, 1)
    std = fit_standardiser(X, "boxplot")
    params = std.boxplot
    assert not np.isnan(params.t_lower[0]) and not np.isnan(params.t_upper[0])
    eps = 1e-6
    for anchor in (-0.5, 0.5):
        grid = np.array([anchor - eps, anchor, anchor + eps]).reshape(-1, 1)
        lo, mid, hi = std.transform(grid)[:, 0]
        assert mid == anchor
        assert (mid - lo) / eps == pytest.approx(1.0, abs=1e-4)
        assert (hi - mid) / eps == pytest.approx(1.0, abs=1e-4)


def test_cap_clamps_new_data():
    train = np.array([-9.5, -0.5, 0.0, 0.5, 1.0]).reshape(-1, 1)
    std = fit_standardiser(train, "boxplot")
    test = np.array([-50.0, 0.25, 30.0]).reshape(-1, 1)
    capped = std.transform(test, cap=True)[:, 0]
    assert capped[0] == -2.0
    assert capped[2] == 2.0
    assert capped[1] == 0.25
    uncapped = std.transform(test)[:, 0]
    assert uncapped[0] < -2.0  # beyond the training minimum, tail keeps going
    assert uncapped[2] > 2.0  # no upper exponent was fitted, stays linear


def test_a_negative_zero_at_a_zero_median_maps_to_positive_zero(tmp_path):
    # -0.0 minus the median +0.0 is -0.0; the output there is +0.0 all the same
    train = np.array([-4.0, -0.0, 1.0, 0.0, 3.0]).reshape(-1, 1)
    std = fit_standardiser(train, "boxplot")
    assert std.boxplot.median[0] == 0.0 and not np.signbit(std.boxplot.median[0])
    out = std.transform(train)[:, 0]
    capped = std.transform(np.array([[-0.0], [0.0]]), cap=True)[:, 0]
    assert out[1] == capped[0] == 0.0
    assert not np.signbit(out[1]) and not np.signbit(capped).any()
    data, written = tmp_path / "x.csv", tmp_path / "out.csv"
    write_matrix_csv(data, train)
    assert main(["standardise", "--method", "boxplot", str(data), str(written)]) == 0
    assert written.read_text().splitlines()[1] == "0.0"
    # a negative difference whose ratio underflows keeps its sign: -0.0
    tiny = np.array([-1e300, -1e300, -5e-324, 0.0, 1.0, 2.0]).reshape(-1, 1)
    assert np.signbit(fit_standardiser(tiny, "boxplot").transform(tiny)[2, 0])


def test_each_half_is_divided_by_its_own_doubled_half_range_bit_for_bit():
    # LQR < UQR in column 1 and LQR > UQR in column 2; no tail is fitted
    col = np.array([0.0, 1.0, 2.0, 3.0, 6.0, 9.0, 12.0])
    X = np.column_stack([col, -col])
    std = fit_standardiser(X, "boxplot")
    params = std.boxplot
    assert_array_equal(params.lqr, [1.5, 4.5])
    assert_array_equal(params.uqr, [4.5, 1.5])
    probe = np.random.default_rng(3).uniform(-14.0, 14.0, (200, 2))
    probe[0] = params.median
    xm = probe - params.median
    want = np.where(xm < 0.0, xm / (2.0 * params.lqr), xm / (2.0 * params.uqr))
    assert std.transform(probe).tobytes() == want.tobytes()


def test_tied_zeros_of_both_signs_give_one_parameter_file_for_every_row_order():
    # -0.0 and +0.0 tied at the median or a quartile: the zero quantile took
    # the sign of whichever the row order put at the index, so row orders of
    # one matrix gave two parameter files; a zero quantile is +0.0 now
    X = np.array([[-0.0, -1.0, -0.0, -2.0],
                  [-0.0, -0.0, 0.0, -1.0],
                  [0.0, 0.0, 3.0, -0.0],
                  [0.0, 2.0, 4.0, 0.0]])
    texts = {json.dumps(fit_standardiser(X[list(order)], "boxplot").to_json_dict(), indent=1)
             for order in itertools.permutations(range(4))}
    assert len(texts) == 1
    median = fit_standardiser(X, "boxplot").boxplot.median
    assert_array_equal(median, [0.0, 0.0, 1.5, -0.5])
    assert not np.signbit(median[:2]).any()


def test_uncapped_lower_tail_is_bounded_for_positive_exponent():
    # positive t gives a finite lower asymptote -0.5 - 1/t <= -2
    train = np.array([-9.5, -0.5, 0.0, 0.5, 1.0]).reshape(-1, 1)
    std = fit_standardiser(train, "boxplot")
    params = std.boxplot
    t = params.t_lower[0]
    probe = std.transform(np.array([[-1e12]]))[0, 0]
    assert probe < -2.0
    assert probe > -0.5 - 1.0 / t - 1e-9


def test_degenerate_variables():
    X = np.column_stack(
        [
            np.full(6, 3.25),  # constant, both quartile ranges zero
            np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.0]),  # lqr 0, uqr > 0
            np.arange(6, dtype=float),  # healthy
        ]
    )
    std = fit_standardiser(X, "boxplot")
    params = std.boxplot
    assert bool(params.degenerate[0])
    assert not bool(params.degenerate[1])
    assert not bool(params.degenerate[2])
    out = std.transform(X)
    assert_array_equal(out[:, 0], 0.0)
    assert np.all(np.isfinite(out))
    assert np.all(np.diff(out[:, 2]) > 0)
    # the substituted half keeps the anchor semantics on the working side
    assert out[:, 1].min() >= -2.0 and out[:, 1].max() <= 2.0


def test_params_round_trip_json(tmp_path):
    rng = np.random.default_rng(707)
    X = np.column_stack(
        [
            rng.standard_t(2, size=40) * 8,
            rng.standard_normal(40),
            np.full(40, 1.0),
        ]
    )
    fitted = fit_standardiser(X, "boxplot")
    path = tmp_path / "bp.json"
    fitted.save(path)
    loaded = Standardiser.from_json_dict(json.loads(path.read_text()))
    orig, back = fitted.boxplot, loaded.boxplot
    for name in ("median", "lqr", "uqr", "t_lower", "t_upper", "scaled_min", "scaled_max"):
        assert_allclose(
            getattr(back, name), getattr(orig, name), rtol=0, atol=0, equal_nan=True
        )
    assert_array_equal(back.degenerate, orig.degenerate)
    probe = rng.standard_normal((25, 3)) * 30
    assert_array_equal(loaded.transform(probe, cap=True), fitted.transform(probe, cap=True))


@pytest.mark.parametrize("column", [[0, 0, 0, 5e-324, 1000], [0, 0, 1e-300, 2e-300, 1e300]])
def test_quartile_range_tiny_next_to_the_extreme(tmp_path, column):
    # the scaled extreme overflowed to inf with a RuntimeWarning, and the
    # saved file held "scaled_max": Infinity, which loading refused
    X = np.array(column, dtype=float)[:, None]
    fitted = fit_standardiser(X, "boxplot")
    for name in ("median", "lqr", "uqr", "scaled_min", "scaled_max"):
        assert np.isfinite(getattr(fitted.boxplot, name)).all()
    out = fitted.transform(X)
    assert out.min() >= -2.0 and out.max() <= 2.0
    assert out.max() > 2.0 - 1e-12
    path = tmp_path / "bp.json"
    fitted.save(path)
    assert_array_equal(Standardiser.load(path).transform(X), out)


@pytest.mark.parametrize("column", [
    [-1e308, -1e308, 1e308, 1e308],
    [-1e308, -1e308, 1e308],
    [-1.7e308, -1.7e308, 1.7e308, 1.7e308, 1.7e308],
    [-1.7e308, 1.6e308, 1.7e308, 1.7e308, 1.7e308],
], ids=["median", "median-at-an-order-statistic", "half-range", "centred-value"])
def test_values_near_the_float_limit_fit_to_finite_parameters(tmp_path, column):
    # each overflowed: numpy's interpolation of a median or quartile between
    # values of opposite signs (to -inf, or nan where it lands on an order
    # statistic), a half-range, a value minus the median, or a doubled
    # half-range; the fit stored non-finite parameters or warned
    X = np.array(column)[:, None]
    fitted = fit_standardiser(X, "boxplot")
    for name in ("median", "lqr", "uqr", "scaled_min", "scaled_max"):
        assert np.isfinite(getattr(fitted.boxplot, name)).all()
    out = fitted.transform(X)[:, 0]
    assert -2.0 <= out.min() and out.max() <= 2.0 and np.all(np.diff(out) >= 0.0)
    path = tmp_path / "bp.json"
    fitted.save(path)
    assert_array_equal(Standardiser.load(path).transform(X), fitted.transform(X))


def test_parameter_file_keys_are_the_fields_in_order():
    assert list(_BOXPLOT_KINDS) == [f.name for f in dataclasses.fields(BoxplotParams)]
    fitted = fit_standardiser(np.arange(12, dtype=float).reshape(-1, 2), "boxplot").boxplot
    assert [list(v) for v in fitted.to_json_dict()["variables"]] == [list(_BOXPLOT_KINDS)] * 2


def test_params_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        BoxplotParams.from_json_dict({"nope": 1})


# one variable with both tails fitted: every field is a finite number
_ONE_VARIABLE = fit_standardiser(np.array([[-30.0], [1.0], [2.0], [3.0], [40.0]]),
                                 "boxplot").boxplot


@pytest.mark.parametrize(
    "key, value, expected",
    [  # built in Python, each was kept: a NaN median ended the transform in a
        # RecursionError, lqr -1 scaled like 1, an infinite exponent saved a
        # file that did not load, and the rest were converted
        ("median", math.nan, "variable 1: non-finite 'median'"),
        ("lqr", -1.0, "variable 1: 'lqr' must be > 0 on a non-degenerate variable"),
        ("t_upper", math.inf, "variable 1: non-finite 't_upper'"),
        ("median", True, "variable 1 'median' must be a number, got true"),
        ("degenerate", "yes", 'variable 1 \'degenerate\' must be true or false, got "yes"'),
        ("degenerate", 1.5, "variable 1 'degenerate' must be true or false, got 1.5"),
    ],
)
def test_parameters_built_in_python_are_refused_as_their_file_is(tmp_path, key, value,
                                                                 expected):
    fields = {name: getattr(_ONE_VARIABLE, name).tolist() for name in _BOXPLOT_KINDS}
    with pytest.raises(ValueError, match="^%s$" % re.escape(expected)):
        BoxplotParams(**dict(fields, **{key: [value]}))
    saved = Standardiser("boxplot", _ONE_VARIABLE).to_json_dict()
    saved["variables"][0][key] = value
    path = tmp_path / "p.json"
    path.write_text(json.dumps(saved))
    with pytest.raises(ValueError, match="^%s$" % re.escape(expected)):
        Standardiser.load(path)


def test_a_list_mixing_booleans_and_numbers_is_refused():
    # numpy cast [True, 1.0] to [1.0, 1.0] before the dtype check saw it
    fields = {name: getattr(_ONE_VARIABLE, name).tolist() * 2 for name in _BOXPLOT_KINDS}
    for mixed in ([True, 1.0], (True, 1.0)):
        with pytest.raises(ValueError, match="^variable 1 'median' must be a number, got true$"):
            BoxplotParams(**dict(fields, median=mixed))
    assert BoxplotParams(**dict(fields, median=(1, 1.0))).median.tolist() == [1.0, 1.0]


def test_a_standardiser_takes_exactly_its_methods_parameter():
    # a string was accepted, failing only at transform
    with pytest.raises(TypeError, match="^method 'boxplot' needs BoxplotParams, got str$"):
        Standardiser("boxplot", "x")
    # a file names the parameter its method does not take as a key it does not know
    saved = dict(Standardiser("boxplot", _ONE_VARIABLE).to_json_dict(), scales=[1.0])
    with pytest.raises(ValueError, match=re.escape("unknown parameter file key(s): scales")):
        Standardiser.from_json_dict(saved)


def test_params_need_one_variable_and_arrays_of_one_length():
    fields = {name: getattr(_ONE_VARIABLE, name) for name in _BOXPLOT_KINDS}
    for bad in ({name: v[:0] for name, v in fields.items()}, dict(fields, lqr=[1.0, 2.0])):
        with pytest.raises(ValueError, match="1-D with equal, non-zero length"):
            BoxplotParams(**bad)


def test_boxplot_scale_equivariance():
    # c * X fits to c-scaled parameters, transformed values are unchanged
    rng = np.random.default_rng(808)
    X = rng.standard_t(2, size=(50, 4)) * [1.0, 5.0, 0.2, 50.0]
    base_fit = fit_standardiser(X, "boxplot")
    base = base_fit.transform(X)
    probe = rng.standard_normal((10, 4)) * 20
    base_probe = base_fit.transform(probe, cap=True)
    for c in (1e-3, 7.0, 1e5):
        fit_c = fit_standardiser(c * X, "boxplot")
        assert_allclose(fit_c.transform(c * X), base, rtol=0, atol=1e-12)
        assert_allclose(
            fit_c.transform(c * probe, cap=True), base_probe, rtol=0, atol=1e-12
        )


def test_apply_rejects_wrong_width():
    std = fit_standardiser(np.arange(10, dtype=float).reshape(-1, 2), "boxplot")
    with pytest.raises(ValueError):
        std.transform(np.zeros((3, 5)))
