"""Property tests: file round trips, the boxplot band, ARI and metric axioms.

Each property draws a bounded number of small examples, so the module adds a
few seconds to the suite.
"""

import dataclasses
import json
import math
import pathlib
import subprocess
import sys
import textwrap
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scaledist.core import (
    CondensedDistanceMatrix, read_condensed, read_labels, read_matrix_csv, write_condensed,
    write_labels, write_matrix_csv,
)
from scaledist.distance import cross, pairwise
from scaledist.evaluate import adjusted_rand_index
from scaledist.harness import ResultRecord, read_records_csv, write_records_csv
from scaledist.standardise import (
    METHODS,
    BoxplotParams,
    Standardiser,
    fit_standardiser,
)

ORDERS = (1.0, 2.0, 3.0, 4.0, math.inf)

# Values on a grid of quarters, so columns have ties, zero spreads and
# outlying values; a per-example scale moves them across magnitudes.
_GRID = st.integers(-400, 400).map(lambda v: v / 4.0)
_SCALES = st.sampled_from([1.0, 1e-6, 3.7, 1e8])


def _matrices(rows, cols):
    return st.builds(lambda a, s: a * s,
                     arrays(np.float64, st.tuples(rows, cols), elements=_GRID), _SCALES)


@settings(max_examples=60, deadline=None)
@given(X=_matrices(st.integers(4, 10), st.integers(1, 5)), method=st.sampled_from(METHODS))
def test_parameter_file_round_trip_keeps_text_and_transform_bits(X, method):
    labels = np.arange(X.shape[0]) % 2 + 1  # two classes of at least two rows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # zero-scale columns
        fitted = fit_standardiser(X, method, labels=labels)
    text = json.dumps(fitted.to_json_dict(), indent=1)
    loaded = Standardiser.from_json_dict(json.loads(text))
    assert json.dumps(loaded.to_json_dict(), indent=1) == text
    probe = np.vstack([X, 3.0 * X - 1.0])
    for cap in (False, True):
        want = fitted.transform(probe, cap=cap)
        assert loaded.transform(probe, cap=cap).tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(X=_matrices(st.integers(2, 12), st.integers(1, 4)))
def test_boxplot_training_output_stays_in_the_band_and_keeps_order(X):
    out = fit_standardiser(X, "boxplot").transform(X)
    assert out.min() >= -2.0 and out.max() <= 2.0
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        assert np.all(np.diff(out[order, j]) >= 0.0)


def _partitions(n):
    # labels 1..k with every class present: renumber a draw by first appearance
    def renumber(values):
        return np.unique(values, return_inverse=True)[1] + 1

    return st.lists(st.integers(0, 4), min_size=n, max_size=n).map(renumber)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 25))
def test_ari_is_symmetric(data, n):
    u, v = data.draw(_partitions(n)), data.draw(_partitions(n))
    assert adjusted_rand_index(u, v) == adjusted_rand_index(v, u)


@settings(max_examples=40, deadline=None)
@given(X=_matrices(st.integers(3, 8), st.integers(1, 6)), q=st.sampled_from(ORDERS))
def test_minkowski_distances_are_metrics(X, q):
    assert np.all(np.diag(cross(X, X, q)) == 0.0)
    D = pairwise(X, q).to_square()
    assert np.array_equal(cross(X, X[::-1], q), cross(X[::-1], X, q).T)
    # D[i, k] <= D[i, j] + D[j, k] for every triple (i, j, k), to rtol 1e-12
    via = D[:, :, None] + D[None, :, :]
    assert np.all(D[:, None, :] <= via * (1.0 + 1e-12))


# Every finite float: subnormals, -0.0 and the extremes included.  The files
# below are rewritten at each example, so one tmp_path serves them all.
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_EDGES = [-0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308, 0.1]
_FILES = settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FILES
@given(X=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)), elements=_FLOATS))
@example(X=np.array([_EDGES]))
def test_matrix_csv_round_trips_every_bit(tmp_path, X):
    write_matrix_csv(tmp_path / "m.csv", X)
    assert read_matrix_csv(tmp_path / "m.csv").tobytes() == X.tobytes()


@_FILES
@given(data=st.data(), n=st.integers(1, 30))
def test_labels_file_round_trips(tmp_path, data, n):
    y = data.draw(_partitions(n))
    write_labels(tmp_path / "y.labels", y)
    back = read_labels(tmp_path / "y.labels")
    assert back.dtype == np.int64 and np.array_equal(back, y)


_DISTANCES = st.floats(0.0, allow_infinity=False) | st.just(-0.0)


@_FILES
@given(D=st.integers(2, 8).flatmap(lambda n: st.builds(
    CondensedDistanceMatrix, st.just(n),
    arrays(np.float64, n * (n - 1) // 2, elements=_DISTANCES))))
@example(D=CondensedDistanceMatrix(4, [-0.0, 5e-324, 2.225073858507201e-308,
                                       1.7976931348623157e308, 0.1, 0.0]))
def test_condensed_file_round_trips_every_bit(tmp_path, D):
    write_condensed(tmp_path / "d.dm", D)
    back = read_condensed(tmp_path / "d.dm")
    assert back.n == D.n and back.entries.tobytes() == D.entries.tobytes()


_RECORDS = st.lists(st.builds(
    ResultRecord,
    setup=st.sampled_from(["ntn_05", "custom"]),
    replicate=st.integers(0, 10 ** 6),
    seed=st.integers(0, 2 ** 64 - 1),
    standardisation=st.sampled_from(["none", "boxplot", "pooled_mad_shift:oracle"]),
    q=st.sampled_from([1.0, 2.5, math.inf]) | st.floats(1.0, allow_infinity=False),
    method=st.sampled_from(["pam", "knn3"]),
    metric=st.sampled_from(["ari", "misclassification"]),
    value=st.sampled_from(_EDGES) | _FLOATS,
    seconds=st.just(math.nan) | st.floats(0.0, allow_infinity=False),
), min_size=1, max_size=6)


@_FILES
@given(records=_RECORDS)
def test_records_csv_round_trips_every_bit(tmp_path, records):
    write_records_csv(tmp_path / "r.csv", records)
    back = read_records_csv(tmp_path / "r.csv")
    # repr tells -0.0 from 0.0, shows each float exactly and shows seconds,
    # which record equality leaves out
    assert [repr(r) for r in back] == [repr(r) for r in records]


@st.composite
def _boxplot_params(draw):
    # what the constructor accepts: finite numbers, NaN only for a tail not
    # fitted, and any finite half-range on a degenerate variable
    degenerate = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    n = len(degenerate)
    numbers = st.sampled_from(_EDGES) | _FLOATS
    halves = st.floats(0.0, exclude_min=True, allow_infinity=False)

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    return BoxplotParams(
        median=column(numbers),
        lqr=[draw(numbers if d else halves) for d in degenerate],
        uqr=[draw(numbers if d else halves) for d in degenerate],
        t_lower=column(st.just(math.nan) | numbers),
        t_upper=column(st.just(math.nan) | numbers),
        degenerate=degenerate,
        scaled_min=column(numbers),
        scaled_max=column(numbers),
    )


@_FILES
@given(params=_boxplot_params())
def test_accepted_boxplot_params_survive_save_and_load_bit_for_bit(tmp_path, params):
    Standardiser("boxplot", params).save(tmp_path / "p.json")
    back = Standardiser.load(tmp_path / "p.json").boxplot
    for f in dataclasses.fields(BoxplotParams):
        want, got = getattr(params, f.name), getattr(back, f.name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_failing_property_does_not_end_the_run(tmp_path):
    # explaining a failing example makes hypothesis import libcst, which warns;
    # under the repo's warnings-as-errors that was an INTERNALERROR, and every
    # later test went unrun
    (tmp_path / "test_throwaway.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, max_examples=5)
        @given(st.integers())
        def test_fails(x):
            assert x != x

        def test_passes():
            pass
    """))
    ini = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ini), "-p", "no:cacheprovider", "-q",
         "test_throwaway.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "1 failed, 1 passed" in result.stdout, result.stdout + result.stderr
