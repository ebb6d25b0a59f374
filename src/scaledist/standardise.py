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
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import _atomic_write, check_data_matrix, check_labels

__all__ = [
    "LINEAR_METHODS",
    "POOLED_METHODS",
    "METHODS",
    "quantile",
    "scale_statistic",
    "standardise_matrix",
    "solve_tail_exponent",
    "BoxplotParams",
    "fit_boxplot",
    "apply_boxplot",
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


def quantile(values, prob):
    """Quantile by linear interpolation of order statistics.

    With the sample sorted as v_1 <= ... <= v_n, the quantile at probability
    p interpolates between the order statistics bracketing position
    h = (n - 1) * p + 1.

    Parameters
    ----------
    values : array_like, 1-D, non-empty, finite
        Checked as the one column of a data matrix.
    prob : float in [0, 1]

    Returns
    -------
    float
    """
    if np.ndim(values) != 1:
        raise ValueError("values must be 1-D")
    if not 0.0 <= prob <= 1.0:
        raise ValueError("prob must be in [0, 1], got %r" % (prob,))
    v = check_data_matrix(np.reshape(values, (-1, 1)))[:, 0]
    return float(np.quantile(v, prob, method="linear"))


def _median(A):
    return np.quantile(A, 0.5, axis=0, method="linear")


def _abs_dev(A):
    # absolute deviation of every column from its own median
    return np.abs(A - _median(A))


def _column_scales(X, method, labels):
    """Scale statistic of every column of a checked matrix (>= 2 rows)."""
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
    if method not in POOLED_METHODS:
        raise ValueError("unknown scale method %r" % (method,))
    if labels is None:
        raise ValueError("method %r requires class labels" % (method,))
    y, k = check_labels(labels, n_expected=X.shape[0])
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


def scale_statistic(column, method, labels=None):
    """Scale statistic of one variable under a named method.

    Methods
    -------
    none
        Always 1.0.
    unit_variance
        Sample standard deviation (denominator n - 1).
    mad
        Median absolute deviation from the median (no consistency factor).
    range
        max - min.
    pooled_variance
        Square root of the variance pooled within classes,
        sum_l (n_l - 1) s_l^2 / sum_l (n_l - 1); every class needs >= 2 members.
    pooled_mad_weights / pooled_range_weights
        Class-size weighted mean of the per-class statistic, (1/n) sum_l n_l stat_l.
    pooled_mad_shift
        Median absolute deviation from the own-class median, pooled over all
        observations.
    pooled_range_shift
        Largest per-class range.

    Pooled methods require ``labels``.  ``column`` is 1-D and is checked as
    the one column of a data matrix: at least 2 finite values.
    """
    if np.ndim(column) != 1:
        raise ValueError("column must be 1-D")
    X = check_data_matrix(np.reshape(column, (-1, 1)), min_rows=2)
    return float(_column_scales(X, method, labels)[0])


def standardise_matrix(X, method, labels=None):
    """Divide every column of X by its scale statistic.

    ``method="none"`` returns an unchanged copy.  Columns with zero scale are
    set entirely to zero and reported in a single warning.  The input is never
    modified.
    """
    return fit_standardiser(X, method, labels=labels).transform(X)


# --- boxplot transform -------------------------------------------------------

# The tail equation is solved against a target sitting one part in ~10^13
# inside the exact value 1.5, so that re-evaluating the fitted map in floating
# point keeps the training extreme strictly inside [-2, 2].
_TAIL_TARGET = 1.5 - 2.0 ** -44


def _tail_gain(base, t):
    """(1 - base**(-t)) / t with the t -> 0 limit log(base).

    Computed as -expm1(-t*log(base))/t, which stays accurate for tiny t where
    the direct form cancels catastrophically.  ``base`` and ``t`` may be
    scalars or broadcastable arrays; base must be >= 1.
    """
    base = np.asarray(base, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    zero = t == 0.0
    tsafe = np.where(zero, 1.0, t)
    with np.errstate(over="ignore"):
        out = -np.expm1(-tsafe * np.log(base)) / tsafe
    return np.where(zero, np.log(base), out)


def _solve_tail_exponents(M):
    """Tail exponent for every extent in the array M (finite, > 1).

    Each extent doubles its bracket, then bisects until the midpoint repeats
    an end or hits the target, and gets the bracket's ``hi``.  Masks stop each
    one where it would stop alone, so the results do not depend on what else
    is solved alongside.
    """
    g0 = np.log(M)  # the t -> 0 limit
    above = g0 > _TAIL_TARGET
    # g(1) = 1 - 1/M < 1 < target; hi = 0 is also the root where g0 == target
    lo = np.where(above, 0.0, -1.0)
    hi = np.where(above, 1.0, 0.0)
    grow = g0 < _TAIL_TARGET
    for _ in range(200):
        grow &= ~(_tail_gain(M, lo) > _TAIL_TARGET)
        if not grow.any():
            break
        lo = np.where(grow, 2.0 * lo, lo)
    else:
        raise ValueError("could not bracket the tail exponent for M=%r" % (float(M[grow][0]),))
    todo = g0 != _TAIL_TARGET
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        todo &= (mid != lo) & (mid != hi)
        if not todo.any():
            break
        gm = _tail_gain(M, mid)
        lo = np.where(todo & (gm > _TAIL_TARGET), mid, lo)
        hi = np.where(todo & (gm <= _TAIL_TARGET), mid, hi)  # an exact hit stops at hi = mid
        todo &= gm != _TAIL_TARGET
    return hi


def solve_tail_exponent(M):
    """Exponent t of the tail map for a variable whose extreme sits at M.

    Solves (1 - M**(-t)) / t = 1.5 (limit log(M) at t = 0) for the unique t;
    the left side is strictly decreasing in t, so an expanding bracket plus
    bisection converges.  M > 1 is required; when a value beyond the +-2 band
    exists, M > 2.5 by construction.  The returned exponent is taken from the
    inner side of the final bracket (biased ~5.7e-14 in the equation value) so
    that the fitted map, re-evaluated in floating point, cannot push the
    training extreme outside [-2, 2].
    """
    M = float(M)
    if not np.isfinite(M) or M <= 1.0:
        raise ValueError("tail extent M must be finite and > 1, got %r" % (M,))
    return float(_solve_tail_exponents(np.array([M]))[0])


# per-variable keys of a saved boxplot parameter file
_BOXPLOT_KEYS = (
    "median", "lqr", "uqr", "t_lower", "t_upper", "degenerate", "scaled_min", "scaled_max",
)


@dataclass(frozen=True)
class BoxplotParams:
    """Fitted per-variable parameters of the boxplot transform.

    All fields are arrays of length n_vars.  ``lqr``/``uqr`` are the effective
    half-ranges used for scaling (a zero half substitutes the other side; both
    zero marks the variable degenerate and its values are unused).  Tail
    exponents are NaN where the training data had no value beyond the +-2
    band.  ``scaled_min``/``scaled_max`` record the training extremes on the
    scaled axis, before tail compression.
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
        arrays = {}
        for name in ("median", "lqr", "uqr", "t_lower", "t_upper", "scaled_min", "scaled_max"):
            arrays[name] = np.asarray(getattr(self, name), dtype=np.float64)
        arrays["degenerate"] = np.asarray(self.degenerate, dtype=bool)
        p = arrays["median"].shape[0] if arrays["median"].ndim == 1 else -1
        for name, arr in arrays.items():
            if arr.ndim != 1 or arr.shape[0] != p:
                raise ValueError("parameter arrays must be 1-D with equal length")
            object.__setattr__(self, name, arr)

    @property
    def n_vars(self):
        return self.median.shape[0]

    def to_json_dict(self):
        def opt(x):
            return None if np.isnan(x) else float(x)

        variables = []
        for j in range(self.n_vars):
            variables.append(
                {
                    "median": float(self.median[j]),
                    "lqr": float(self.lqr[j]),
                    "uqr": float(self.uqr[j]),
                    "t_lower": opt(self.t_lower[j]),
                    "t_upper": opt(self.t_upper[j]),
                    "degenerate": bool(self.degenerate[j]),
                    "scaled_min": float(self.scaled_min[j]),
                    "scaled_max": float(self.scaled_max[j]),
                }
            )
        return {"variables": variables}

    @classmethod
    def from_json_dict(cls, data):
        """Parameters from :meth:`to_json_dict` output, validated.

        Raises ValueError naming the variable and key of the first missing
        key or bad value: non-finite numbers (tail exponents may be null),
        or a non-positive ``lqr``/``uqr`` on a non-degenerate variable.
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
            for key in _BOXPLOT_KEYS:
                if key not in v:
                    raise ValueError("variable %d: missing key %r" % (j, key))

        def arr(key):
            try:
                values = np.array(
                    [np.nan if v[key] is None else v[key] for v in variables],
                    dtype=np.float64,
                )
            except (TypeError, ValueError):
                raise ValueError("%r: expected numbers" % (key,)) from None
            valid = np.isfinite(values)
            if key in ("t_lower", "t_upper"):
                valid |= np.isnan(values)  # null: no tail fitted
            bad = np.flatnonzero(~valid)
            if bad.size:
                raise ValueError("variable %d: non-finite %r" % (bad[0] + 1, key))
            return values

        fields = {key: arr(key) for key in _BOXPLOT_KEYS if key != "degenerate"}
        degenerate = np.array([v["degenerate"] for v in variables])
        if degenerate.dtype != bool:
            raise ValueError("'degenerate': expected true or false")
        for key in ("lqr", "uqr"):
            bad = np.flatnonzero((fields[key] <= 0.0) & ~degenerate)
            if bad.size:
                raise ValueError(
                    "variable %d: %r must be > 0 on a non-degenerate variable"
                    % (bad[0] + 1, key)
                )
        return cls(degenerate=degenerate, **fields)


def _scale_about_median(X, median, lqr, uqr):
    # centre on the median, divide the lower half by 2*LQR and the upper by
    # 2*UQR; exact zeros stay zero so the median maps to 0 exactly
    xm = X - median[None, :]
    with np.errstate(invalid="ignore"):
        lower = xm / (2.0 * lqr[None, :])
        upper = xm / (2.0 * uqr[None, :])
    return np.where(xm < 0.0, lower, np.where(xm > 0.0, upper, 0.0))


def fit_boxplot(X):
    """Fit the boxplot transform on training data, all variables at once.

    Returns a :class:`BoxplotParams`.  A tail exponent is fitted only where a
    scaled training value falls strictly outside [-2, 2]; every such tail is
    solved in one array bisection.
    """
    X = check_data_matrix(X, min_rows=2)
    q1, med, q3 = np.quantile(X, [0.25, 0.5, 0.75], axis=0, method="linear")
    lqr_raw = med - q1
    uqr_raw = q3 - med
    degenerate = (lqr_raw == 0.0) & (uqr_raw == 0.0)
    lqr = np.where(lqr_raw > 0.0, lqr_raw, uqr_raw)
    uqr = np.where(uqr_raw > 0.0, uqr_raw, lqr_raw)
    lqr = np.where(degenerate, 1.0, lqr)
    uqr = np.where(degenerate, 1.0, uqr)
    scaled = _scale_about_median(X, med, lqr, uqr)
    scaled[:, degenerate] = 0.0
    smin = scaled.min(axis=0)
    smax = scaled.max(axis=0)
    # Row 0 holds the lower tails, row 1 the upper ones.  The whole grid is
    # solved, with extent 2.5 where no tail is fitted: numpy keeps freed
    # buffers under 1 KiB for reuse per size, so masks sized by the data's tail
    # count would leave a new set of blocks in the heap at every fit.
    fitted = np.stack([smin < -2.0, smax > 2.0])
    extents = np.where(fitted, np.stack([0.5 - smin, smax + 0.5]), 2.5)
    t = np.where(fitted, _solve_tail_exponents(extents), np.nan)
    return BoxplotParams(
        median=med,
        lqr=lqr,
        uqr=uqr,
        t_lower=t[0],
        t_upper=t[1],
        degenerate=degenerate,
        scaled_min=smin,
        scaled_max=smax,
    )


def apply_boxplot(X, params, cap=False):
    """Apply a fitted boxplot transform to data with the same variables.

    The fitted median maps to 0 and the fitted quartiles to -0.5/+0.5.  Where
    a tail exponent was fitted, values beyond the matching quartile are
    compressed so the training extreme lands on -2/+2; the compression is
    continuous with slope 1 at the quartile anchors and strictly increasing
    everywhere.  Degenerate variables map to all zeros.

    With ``cap=True`` (intended for data the transform was not fitted on) the
    output is clipped to [-2, 2].
    """
    if not isinstance(params, BoxplotParams):
        raise TypeError("params must be BoxplotParams")
    X = check_data_matrix(X)
    if X.shape[1] != params.n_vars:
        raise ValueError(
            "matrix has %d variables, parameters describe %d" % (X.shape[1], params.n_vars)
        )
    scaled = _scale_about_median(X, params.median, params.lqr, params.uqr)
    out = scaled.copy()
    t_low = np.broadcast_to(params.t_lower[None, :], scaled.shape)
    lower = (scaled < -0.5) & ~np.isnan(t_low)
    if lower.any():
        out[lower] = -0.5 - _tail_gain(0.5 - scaled[lower], t_low[lower])
    t_up = np.broadcast_to(params.t_upper[None, :], scaled.shape)
    upper = (scaled > 0.5) & ~np.isnan(t_up)
    if upper.any():
        out[upper] = 0.5 + _tail_gain(scaled[upper] + 0.5, t_up[upper])
    out[:, params.degenerate] = 0.0
    if cap:
        np.clip(out, -2.0, 2.0, out=out)
    return out


# --- fitted standardiser for train/test pipelines ----------------------------


class Standardiser:
    """A fitted standardisation, applicable to training and later test data.

    Linear methods store the per-column scales fitted on training data; the
    boxplot method stores its :class:`BoxplotParams`.  ``transform`` never
    looks at anything but the stored parameters, so test data cannot leak
    into the fit.
    """

    def __init__(self, method, scales=None, boxplot=None):
        if method not in METHODS:
            raise ValueError("unknown standardisation method %r" % (method,))
        self.method = method
        self.scales = None if scales is None else np.asarray(scales, dtype=np.float64)
        self.boxplot = boxplot
        if method == "boxplot":
            if boxplot is None:
                raise ValueError("boxplot method needs fitted parameters")
        elif self.scales is None:
            raise ValueError("method %r needs fitted scales" % (method,))

    def transform(self, X, cap=False):
        """Standardise X with the fitted parameters.

        ``cap`` only affects the boxplot method, where it clips the output to
        [-2, 2]; linear scaling is unbounded by construction.
        """
        if self.method == "boxplot":
            return apply_boxplot(X, self.boxplot, cap=cap)
        X = check_data_matrix(X)
        if X.shape[1] != self.scales.shape[0]:
            raise ValueError(
                "matrix has %d variables, fit had %d" % (X.shape[1], self.scales.shape[0])
            )
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
        try:
            method = data["method"]
        except (TypeError, KeyError):
            raise ValueError("expected a JSON object with key 'method'") from None
        if method == "boxplot":
            return cls(method, boxplot=BoxplotParams.from_json_dict(data))
        if "scales" not in data:
            raise ValueError("parameter file for %r lacks 'scales'" % (method,))
        try:
            scales = np.array(data["scales"], dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError("'scales': expected a list of numbers") from None
        if scales.ndim != 1 or scales.shape[0] == 0:
            raise ValueError("'scales': expected a non-empty list of numbers")
        bad = np.flatnonzero(~np.isfinite(scales) | (scales < 0.0))
        if bad.size:
            raise ValueError(
                "'scales': entry %d is %r; scales must be finite and >= 0"
                % (bad[0] + 1, float(scales[bad[0]]))
            )
        return cls(method, scales=scales)

    def save(self, path):
        _atomic_write(path, json.dumps(self.to_json_dict(), indent=1) + "\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def fit_standardiser(X, method, labels=None):
    """Fit a :class:`Standardiser` on training data.

    For linear methods this computes the per-column scale statistics (columns
    with zero scale are reported in one warning and will map to zero); for
    ``boxplot`` it fits the full transform.  ``none`` scales by 1.
    """
    if method == "boxplot":  # fit_boxplot checks X itself
        return Standardiser(method, boxplot=fit_boxplot(X))
    X = check_data_matrix(X, min_rows=2)
    scales = _column_scales(X, method, labels)
    zero = np.flatnonzero(scales == 0.0)
    if zero.size:
        warnings.warn(
            "zero %s scale in column(s) %s; output set to zero there"
            % (method, ", ".join(str(j + 1) for j in zero)),
            UserWarning,
            stacklevel=2,
        )
    return Standardiser(method, scales=scales)
