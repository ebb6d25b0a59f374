"""Per-variable standardisation for distance construction.

Two families:

* linear methods divide each column by a scale statistic (no location shift),
  optionally pooling the statistic within known classes;
* the boxplot transform centres each column at its median, scales the two
  halves so the quartiles land on -0.5 and +0.5, and compresses each tail
  nonlinearly so the most extreme training value lands on -2 or +2.  New data
  can then be mapped with the fitted parameters and capped to [-2, 2].

Dividing by a scale only (never shifting, except for the median centring the
boxplot transform needs) keeps all methods comparable: distances between rows
are unaffected by per-column location.

``fit_standardiser`` is the one route to a fit, for every method; it returns
a :class:`Standardiser` holding the fitted scales or :class:`BoxplotParams`,
and ``Standardiser.transform`` is the one route to apply them.  Both classes
check their parameters at construction, whether built in Python or read from
a parameter file, with the same messages.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    _check_json_kinds, _is_number, _read_json, _write_files, check_data_matrix, check_labels,
)

__all__ = [
    "LINEAR_METHODS",
    "POOLED_METHODS",
    "METHODS",
    "BoxplotParams",
    "Standardiser",
    "fit_standardiser",
]

POOLED_METHODS = (
    "pooled_variance",
    "pooled_mad_weights",
    "pooled_mad_shift",
    "pooled_range_weights",
    "pooled_range_shift",
)

LINEAR_METHODS = ("unit_variance", "mad", "range") + POOLED_METHODS

METHODS = ("none",) + LINEAR_METHODS + ("boxplot",)


def _quantiles(A, probs):
    # Type-7 quantiles (Hyndman & Fan 1996; numpy's method="linear") of each
    # column from one sort, with numpy's index (n - 1)*p and interpolation, so
    # every value is np.quantile's; zeros are made +0.0 first, so a zero
    # quantile is +0.0 whatever the row order of tied zeros of both signs.
    # b - a overflows between order statistics of opposite signs near the
    # float limit; only the entries that come out non-finite are taken again
    # from halved order statistics and doubled, which is exact.
    def lerp(a, b):
        d = b - a
        return np.subtract(b, d * (1 - g), out=a + d * g, where=g >= 0.5)

    S = np.sort(A, axis=0)
    S += 0.0
    v = (S.shape[0] - 1) * np.asarray(probs, dtype=np.float64)
    i = np.floor(v)
    g = (v - i).reshape(v.shape + (1,))
    i = i.astype(np.intp)
    a, b = S[i], S[np.minimum(i + 1, S.shape[0] - 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        out = lerp(a, b)
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = 2 * lerp(a / 2, b / 2)[bad]
    return out


def _median(A):
    return _quantiles(A, 0.5)


def _abs_dev(A):
    # absolute deviation of every column from its own median
    return np.abs(A - _median(A))


def _column_scales(X, method, classes):
    """Scale statistic of every column (X and classes checked).  One whose
    computation overflows (finite data near the float limit; NaN comes only
    from inf - inf) is held at the largest float, silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.nan_to_num(_statistics(X, method, classes), nan=_FLOAT_MAX, posinf=_FLOAT_MAX)


def _statistics(X, method, classes):
    if method == "none":
        return np.ones(X.shape[1])
    # variances reduce along the rows of a contiguous transpose, so each column
    # is summed in the same order as a 1-D array of its values
    if method == "unit_variance":
        return np.std(np.ascontiguousarray(X.T), axis=1, ddof=1)
    if method == "mad":
        return _median(_abs_dev(X))
    if method == "range":
        return np.ptp(X, axis=0)
    if classes is None:
        raise ValueError("method %r requires class labels" % (method,))
    y, k = classes
    groups = [X[y == c] for c in range(1, k + 1)]
    if method == "pooled_variance":
        for c, g in enumerate(groups, start=1):
            if g.shape[0] < 2:
                raise ValueError("class %d has fewer than 2 members" % c)
        dof = np.array([g.shape[0] - 1 for g in groups], dtype=np.float64)
        variances = np.column_stack(
            [np.var(np.ascontiguousarray(g.T), axis=1, ddof=1) for g in groups]
        )
        return np.sqrt(np.sum(dof * variances, axis=1) / np.sum(dof))
    if method == "pooled_mad_weights":
        return sum(g.shape[0] * _median(_abs_dev(g)) for g in groups) / X.shape[0]
    if method == "pooled_range_weights":
        return sum(g.shape[0] * np.ptp(g, axis=0) for g in groups) / X.shape[0]
    if method == "pooled_mad_shift":
        return _median(np.concatenate([_abs_dev(g) for g in groups]))
    # pooled_range_shift
    return np.max([np.ptp(g, axis=0) for g in groups], axis=0)


# --- boxplot transform -------------------------------------------------------

# The tail equation is solved against a target sitting one part in ~10^13
# inside the exact value 1.5, so that re-evaluating the fitted map in floating
# point keeps the training extreme strictly inside [-2, 2].
_TAIL_TARGET = 1.5 - 2.0 ** -44

_FLOAT_MAX = np.finfo(np.float64).max


def _tail_gain(log_base, t):
    # (1 - base**(-t)) / t from log(base) >= 0, with the t -> 0 limit log(base),
    # as -expm1(-t*log(base))/t, which stays accurate for tiny t where the direct
    # form cancels catastrophically; callers ignore overflow, whose inf is the value
    zero = t == 0.0
    tsafe = np.where(zero, 1.0, t)
    return np.where(zero, log_base, -np.expm1(-tsafe * log_base) / tsafe)


def _solve_tail_exponents(M):
    """Tail exponent for every extent in the array M (finite, > 1).

    Solves (1 - M**(-t)) / t = 1.5 (limit log(M) at t = 0) for the unique t;
    the left side is strictly decreasing in t.  A training value beyond the
    +-2 band has extent M > 2.5.

    Each extent doubles its bracket, then bisects until the midpoint repeats
    an end or hits the target, and gets the bracket's ``hi``.  Such an
    element stays put under further rounds: a midpoint equal to ``lo`` gains
    more than the target, one equal to ``hi`` no more, and an exact hit (or
    log(M) at the target, solved by t = 0) is frozen with lo = hi.  So the
    results do not depend on what else is solved alongside, and convergence
    is tested only every few rounds.
    """
    g0 = np.log(M)  # the t -> 0 limit
    # g(1) = 1 - 1/M < 1 < target; lo = hi = 0 is the root where g0 == target
    grow = g0 < _TAIL_TARGET
    lo = np.where(grow, -1.0, 0.0)
    hi = np.where(g0 > _TAIL_TARGET, 1.0, 0.0)
    with np.errstate(over="ignore"):
        for _ in range(200):
            grow &= ~(_tail_gain(g0, lo) > _TAIL_TARGET)
            if not grow.any():
                break
            lo = np.where(grow, 2.0 * lo, lo)
        else:
            raise ValueError("could not bracket the tail exponent for M=%r" % (float(M[grow][0]),))
    # a midpoint is 0 only where the bracket has closed on 0, and there 0/0
    # moves neither end; elsewhere the gain is -expm1(-mid * g0) / mid, held
    # as h = -gain, whose bits are the gain's with the sign flipped
    neg_g0 = -g0
    with np.errstate(over="ignore", invalid="ignore"):
        for rounds in range(1, 201):
            mid = 0.5 * (lo + hi)
            h = np.expm1(mid * neg_g0) / mid
            lo = np.where(h <= -_TAIL_TARGET, mid, lo)
            hi = np.where(h >= -_TAIL_TARGET, mid, hi)
            if rounds % 4 == 0:
                mid = 0.5 * (lo + hi)
                if ((mid == lo) | (mid == hi)).all():
                    break
    return hi


# JSON kinds of each per-variable key of a boxplot parameter file, in field
# order; a null tail exponent (NaN in BoxplotParams) means no tail was fitted
_BOXPLOT_KINDS = {
    "median": ("number",), "lqr": ("number",), "uqr": ("number",),
    "t_lower": ("number", "null"), "t_upper": ("number", "null"), "degenerate": ("bool",),
    "scaled_min": ("number",), "scaled_max": ("number",),
}


def _finite(value):
    # a JSON number a float holds finitely
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _from_json(value):
    # a JSON value as BoxplotParams takes it: null is NaN (no tail fitted), and
    # an integer beyond the float range is inf, which the constructor refuses
    if value is None:
        return math.nan
    if type(value) is int:
        return float(value) if _finite(value) else math.inf
    return value


@dataclass(frozen=True)
class BoxplotParams:
    """Fitted per-variable parameters of the boxplot transform.

    All fields are 1-D arrays of one length n_vars >= 1.  ``lqr``/``uqr`` are
    the effective half-ranges used for scaling (a zero half substitutes the
    other side; both zero marks the variable degenerate and its values are
    unused).  Tail exponents are NaN where the training data had no value
    beyond the +-2 band.  ``scaled_min``/``scaled_max`` record the training
    extremes on the scaled axis, before tail compression.

    The constructor checks values as a parameter file's are checked, with the
    same messages: a boolean dtype for ``degenerate`` and an integer or
    floating one elsewhere, each entry of a list or tuple as a file's entry,
    nothing converted; finite values, but for NaN tail exponents;
    ``lqr``/``uqr`` > 0 on non-degenerate variables.
    """

    median: np.ndarray = field(repr=False)
    lqr: np.ndarray = field(repr=False)
    uqr: np.ndarray = field(repr=False)
    t_lower: np.ndarray = field(repr=False)
    t_upper: np.ndarray = field(repr=False)
    degenerate: np.ndarray = field(repr=False)
    scaled_min: np.ndarray = field(repr=False)
    scaled_max: np.ndarray = field(repr=False)

    def __post_init__(self):
        # arrays of the stored dtype are kept, not copied
        finite = []
        for name, kinds in _BOXPLOT_KINDS.items():
            values = getattr(self, name)
            arr = np.asarray(values)
            if arr.ndim != 1 or arr.shape != np.shape(self.median) or not arr.size:
                raise ValueError("parameter arrays must be 1-D with equal, non-zero length")
            dtypes = "b" if kinds == ("bool",) else "iuf"
            listed = isinstance(values, (list, tuple))  # numpy casts a mixed list
            if listed or arr.dtype.kind not in dtypes:
                # named as a parameter file names it: the first entry of another kind
                for j, value in enumerate(values if listed else arr.tolist(), start=1):
                    _check_json_kinds({name: value}, {name: kinds[:1]}, "variable %d" % j)
                if arr.dtype.kind not in dtypes:
                    raise ValueError("%r: unexpected dtype %s" % (name, arr.dtype))
            arr = arr.astype(bool if dtypes == "b" else np.float64, copy=False)
            object.__setattr__(self, name, arr)
            finite.append(np.isfinite(arr) | ("null" in kinds and np.isnan(arr)))
        bad = np.argwhere(~np.column_stack(finite))  # variable by variable, fields in order
        if bad.size:
            raise ValueError("variable %d: non-finite %r"
                             % (bad[0][0] + 1, list(_BOXPLOT_KINDS)[bad[0][1]]))
        for key in ("lqr", "uqr"):
            bad = np.flatnonzero((getattr(self, key) <= 0.0) & ~self.degenerate)
            if bad.size:
                raise ValueError(
                    "variable %d: %r must be > 0 on a non-degenerate variable"
                    % (bad[0] + 1, key)
                )

    @property
    def n_vars(self):
        return self.median.shape[0]

    def to_json_dict(self):
        columns = [[None if "null" in kinds and math.isnan(v) else v  # no tail fitted
                    for v in getattr(self, name).tolist()]
                   for name, kinds in _BOXPLOT_KINDS.items()]
        return {"variables": [dict(zip(_BOXPLOT_KINDS, row)) for row in zip(*columns)]}

    @classmethod
    def from_json_dict(cls, data):
        """Parameters from :meth:`to_json_dict` output, validated.

        Raises ValueError naming the variable and key of the first missing,
        unknown or ill-typed key (see ``_BOXPLOT_KINDS``); the constructor
        checks the values.
        """
        try:
            variables = data["variables"]
        except (TypeError, KeyError):
            raise ValueError("expected a JSON object with key 'variables'") from None
        if not isinstance(variables, list) or not variables:
            raise ValueError("no variables in parameter file")
        for j, v in enumerate(variables, start=1):
            if not isinstance(v, dict):
                raise ValueError("variable %d: expected a JSON object" % j)
            _check_json_kinds(v, _BOXPLOT_KINDS, "variable %d" % j, required=_BOXPLOT_KINDS)
        # entries checked above go in as arrays, which skip the entry loop
        return cls(**{key: np.array([_from_json(v[key]) for v in variables])
                      for key in _BOXPLOT_KINDS})


def _degenerate_widths(lqr, uqr, degenerate):
    # half-range 1 stands in on degenerate variables, whose output is zeroed
    # afterwards, so scaling them divides by no zero
    return np.where(degenerate, 1.0, lqr), np.where(degenerate, 1.0, uqr)


def _scale_about_median(X, median, lqr, uqr):
    # centre on the median, divide the lower half by 2*LQR and the upper by
    # 2*UQR.  A zero difference is made +0.0 before the division (only a -0.0
    # entry at a +0.0 median gives -0.0), so the median maps to +0.0 exactly,
    # while a negative ratio that underflows stays -0.0.  A ratio beyond the
    # float range (a half-range tiny next to the value) is held at the largest
    # float, where the tail map has long reached its limit.  A column whose
    # centred values or doubled half-ranges overflow is scaled again with
    # every input halved, which leaves the ratios unchanged.
    with np.errstate(invalid="ignore", over="ignore"):
        xm = np.subtract(X, median[None, :], order="C")  # C order: the tail gather is flat
        xm += 0.0
        out = xm / np.where(xm < 0.0, 2.0 * lqr[None, :], 2.0 * uqr[None, :])
    wide = ~np.isfinite(xm).all(axis=0) | (np.maximum(lqr, uqr) > _FLOAT_MAX / 2)
    if wide.any():
        out[:, wide] = _scale_about_median(X[:, wide] / 2, median[wide] / 2,
                                           lqr[wide] / 2, uqr[wide] / 2)
    return np.clip(out, -_FLOAT_MAX, _FLOAT_MAX, out=out)


def _fit_boxplot(X):
    # X checked; a tail exponent is fitted only where a scaled training value
    # falls strictly outside [-2, 2], and every tail in one array bisection
    q1, med, q3 = _quantiles(X, [0.25, 0.5, 0.75])
    with np.errstate(over="ignore"):  # a half-range beyond the float range is held
        lqr_raw = np.minimum(med - q1, _FLOAT_MAX)
        uqr_raw = np.minimum(q3 - med, _FLOAT_MAX)
    degenerate = (lqr_raw == 0.0) & (uqr_raw == 0.0)
    lqr, uqr = _degenerate_widths(np.where(lqr_raw > 0.0, lqr_raw, uqr_raw),
                                  np.where(uqr_raw > 0.0, uqr_raw, lqr_raw), degenerate)
    scaled = _scale_about_median(X, med, lqr, uqr)
    scaled[:, degenerate] = 0.0
    smin, smax = scaled.min(axis=0), scaled.max(axis=0)
    # Row 0 holds the lower tails, row 1 the upper ones.  The whole grid is
    # solved, with extent 2.5 where no tail is fitted: numpy keeps freed
    # buffers under 1 KiB for reuse per size, so masks sized by the data's tail
    # count would leave a new set of blocks in the heap at every fit.
    fitted = np.stack([smin < -2.0, smax > 2.0])
    extents = np.where(fitted, np.stack([0.5 - smin, smax + 0.5]), 2.5)
    t = np.where(fitted, _solve_tail_exponents(extents), np.nan)
    return BoxplotParams(median=med, lqr=lqr, uqr=uqr, t_lower=t[0], t_upper=t[1],
                         degenerate=degenerate, scaled_min=smin, scaled_max=smax)


def _apply_boxplot(X, params):  # X checked against params
    out = _scale_about_median(
        X, params.median, *_degenerate_widths(params.lqr, params.uqr, params.degenerate))
    # the flat indices of both sides' tail entries, found before either is
    # written; each entry is compressed with its column's exponent
    flat, p = out.reshape(-1), out.shape[1]
    lower = np.flatnonzero((out < -0.5) & ~np.isnan(params.t_lower))
    upper = np.flatnonzero((out > 0.5) & ~np.isnan(params.t_upper))
    with np.errstate(over="ignore"):
        flat[lower] = -0.5 - _tail_gain(np.log(0.5 - flat[lower]), params.t_lower[lower % p])
        flat[upper] = 0.5 + _tail_gain(np.log(flat[upper] + 0.5), params.t_upper[upper % p])
    out[:, params.degenerate] = 0.0
    return out


# --- fitted standardiser for train/test pipelines ----------------------------


def _checked_scales(method, scales):
    # scales as a float array; ValueError unless a non-empty 1-D list of
    # finite numbers >= 0 (true, false and strings are not numbers), each
    # exactly 1 for 'none'.  An array is read as Python numbers for the errors.
    values = scales.tolist() if isinstance(scales, np.ndarray) else scales
    if (not isinstance(values, (list, tuple)) or not values
            or any(isinstance(s, (list, tuple)) for s in values)):
        raise ValueError("'scales': expected a non-empty list of numbers")
    for j, s in enumerate(values, start=1):
        if not _is_number(s):
            raise ValueError("'scales': expected a list of numbers")
        if not (_finite(s) and s >= 0.0):
            raise ValueError(
                "'scales': entry %d is %r; scales must be finite and >= 0" % (j, s)
            )
        if method == "none" and s != 1:
            raise ValueError("'scales': entry %d is %r; method 'none' scales by 1" % (j, s))
    return np.array(values, dtype=np.float64)


class Standardiser:
    """A fitted standardisation, applicable to training and later test data.

    ``params`` holds the method's fitted parameters: a :class:`BoxplotParams`
    for ``boxplot``, and for every other method the per-column scales, a
    non-empty 1-D list of finite numbers >= 0, each exactly 1 for ``none``.
    They are kept as ``scales`` or ``boxplot``, the other being None.
    ``transform`` never looks at anything but the stored parameters, so test
    data cannot leak into the fit.
    """

    def __init__(self, method, params):
        if method not in METHODS:
            raise ValueError("unknown standardisation method %r" % (method,))
        if method == "boxplot" and not isinstance(params, BoxplotParams):
            raise TypeError("method 'boxplot' needs BoxplotParams, got %s"
                            % type(params).__name__)
        self.method = method
        self.scales = None if method == "boxplot" else _checked_scales(method, params)
        self.boxplot = params if method == "boxplot" else None

    def transform(self, X, cap=False):
        """Standardise X, a data matrix as wide as the fit, with the fitted
        parameters.

        Linear methods divide each column by its scale, unbounded by
        construction; a zero scale maps the column to zero.  The boxplot
        method maps the fitted median to 0 and the fitted quartiles to
        -0.5/+0.5.  Where a tail exponent was fitted, values beyond the
        matching quartile are compressed so the training extreme lands on
        -2/+2; the compression is continuous with slope 1 at the quartile
        anchors and strictly increasing everywhere.  Degenerate variables map
        to all zeros.  ``cap=True`` (intended for data the transform was not
        fitted on) clips the boxplot output to [-2, 2]; linear methods ignore it.
        """
        X = check_data_matrix(X)
        width = self.boxplot.n_vars if self.method == "boxplot" else self.scales.shape[0]
        if X.shape[1] != width:
            raise ValueError("matrix has %d variables, fit had %d" % (X.shape[1], width))
        if self.method == "boxplot":
            out = _apply_boxplot(X, self.boxplot)
            return np.clip(out, -2.0, 2.0, out=out) if cap else out
        zero = self.scales == 0.0
        out = X / np.where(zero, 1.0, self.scales)[None, :]
        out[:, zero] = 0.0
        return out

    def to_json_dict(self):
        if self.method == "boxplot":
            return {"method": self.method, **self.boxplot.to_json_dict()}
        return {"method": self.method, "scales": [float(s) for s in self.scales]}

    @classmethod
    def from_json_dict(cls, data):
        """Standardiser from :meth:`to_json_dict` output; ValueError on a
        missing, unknown or ill-typed key, or on values the constructors
        refuse."""
        if not isinstance(data, dict) or "method" not in data:
            raise ValueError("expected a JSON object with key 'method'")
        method = data["method"]
        key = "variables" if method == "boxplot" else "scales"
        _check_json_kinds(data, {"method": ("string",), key: ("list",)}, "parameter file",
                          required=(key,))
        if method == "boxplot":
            return cls(method, BoxplotParams.from_json_dict(data))
        return cls(method, data["scales"])

    def _json_text(self):
        return json.dumps(self.to_json_dict(), indent=1) + "\n"

    def save(self, path):
        _write_files([(path, self._json_text())])

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(_read_json(path))


def fit_standardiser(X, method, labels=None):
    """Fit a :class:`Standardiser` on training data.

    X is a data matrix of at least 2 rows.  Linear methods divide each column
    by a scale statistic; columns with zero scale are reported in one warning
    and map to zero, and a statistic whose computation overflows is held at
    the largest float.  ``none`` scales by 1; ``unit_variance`` by the sample
    standard deviation (denominator n - 1); ``mad`` by the median absolute
    deviation from the median (no consistency factor); ``range`` by max - min.
    The pooled methods need class labels: ``pooled_variance`` scales by the
    square root of sum_l (n_l - 1) s_l^2 / sum_l (n_l - 1), every class having
    >= 2 members; ``pooled_mad_weights`` and ``pooled_range_weights`` by the
    class-size weighted mean (1/n) sum_l n_l stat_l of the per-class MAD or
    range; ``pooled_mad_shift`` by the median absolute deviation from the
    own-class median, over all rows; ``pooled_range_shift`` by the largest
    per-class range.  ``boxplot`` fits the boxplot transform.  Medians and
    quartiles are type-7 (linear interpolation) quantiles of the sorted
    column, and a zero one is +0.0.  Labels, whenever given, are checked
    against the rows of X for every method.

    ``fit_standardiser(X, m, labels=y).transform(X)`` standardises X itself,
    and ``fit_standardiser(col[:, None], m, labels=y).scales[0]`` is the scale
    statistic of one variable.
    """
    if method not in METHODS:
        raise ValueError("unknown standardisation method %r" % (method,))
    X = check_data_matrix(X, min_rows=2)
    classes = None if labels is None else check_labels(labels, n_expected=X.shape[0])
    if method == "boxplot":
        return Standardiser(method, _fit_boxplot(X))
    scales = _column_scales(X, method, classes)
    zero = np.flatnonzero(scales == 0.0)
    if zero.size:
        warnings.warn(
            "zero %s scale in column(s) %s; output set to zero there"
            % (method, ", ".join(str(j + 1) for j in zero)),
            UserWarning,
            stacklevel=2,
        )
    return Standardiser(method, scales)
