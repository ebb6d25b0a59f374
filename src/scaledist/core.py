"""Shared data model: matrices, labels, condensed distance storage, file formats.

Matrices are plain 2-D float64 numpy arrays (rows = observations, columns =
variables).  Labels are 1-D integer arrays with classes numbered 1..k and every
class present.  Distances between rows of one matrix are kept in condensed form
(strict upper triangle) with a documented entry ordering that is part of the
on-disk contract.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "condensed_index",
    "condensed_size",
    "CondensedDistanceMatrix",
    "check_data_matrix",
    "check_labels",
    "read_matrix_csv",
    "write_matrix_csv",
    "read_labels",
    "write_labels",
    "read_condensed",
    "write_condensed",
]


def condensed_size(n):
    """Number of unordered pairs of n objects."""
    return n * (n - 1) // 2


def condensed_index(i, j, n):
    """Position of pair (i, j) in a condensed distance vector.

    Pairs are ordered by the larger index first, then the smaller one:
    (0,1), (0,2), (1,2), (0,3), ...  The entry for pair (i, j) with i < j
    sits at ``j*(j-1)/2 + i``.

    Parameters
    ----------
    i, j : int
        Object indices, 0-based, distinct, both < n.
    n : int
        Number of objects (used only for bounds checking).

    Returns
    -------
    int
    """
    if i == j:
        raise ValueError("condensed storage holds no diagonal: i == j == %d" % i)
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("pair (%d, %d) out of range for n=%d" % (i, j, n))
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


@dataclass(frozen=True)
class CondensedDistanceMatrix:
    """Pairwise distances of n objects in condensed (strict upper triangle) form.

    ``entries[condensed_index(i, j, n)]`` is the distance between objects i
    and j.  Entries are finite and non-negative; the diagonal is implicit.
    """

    n: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 objects, got n=%d" % self.n)
        entries = np.asarray(self.entries, dtype=np.float64)
        want = condensed_size(self.n)
        if entries.ndim != 1 or entries.shape[0] != want:
            raise ValueError(
                "expected %d condensed entries for n=%d, got shape %r"
                % (want, self.n, np.shape(self.entries))
            )
        if not np.all(np.isfinite(entries)):
            raise ValueError("distances must be finite")
        if np.any(entries < 0):
            raise ValueError("distances must be non-negative")
        object.__setattr__(self, "entries", entries)

    def get(self, i, j):
        """Distance between objects i and j (0.0 on the diagonal)."""
        if i == j:
            if not 0 <= i < self.n:
                raise ValueError("index %d out of range for n=%d" % (i, self.n))
            return 0.0
        return float(self.entries[condensed_index(i, j, self.n)])

    def to_square(self):
        """Expand to a new full symmetric (n, n) array with zero diagonal."""
        D = np.zeros((self.n, self.n))
        lower = _strict_lower(self.n)
        D[lower] = self.entries
        D.T[lower] = self.entries
        return D

    @classmethod
    def from_square(cls, D):
        """Condense a symmetric square array (upper/lower assumed consistent)."""
        D = np.asarray(D, dtype=np.float64)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise ValueError("expected a square matrix, got shape %r" % (D.shape,))
        n = D.shape[0]
        return cls(n, D[_strict_lower(n)])


def _strict_lower(n):
    # condensed order is the row-major order of the strict lower triangle:
    # (1,0), (2,0), (2,1), (3,0), ... is pair (i, j) at j*(j-1)/2 + i
    return np.tri(n, k=-1, dtype=bool)


def check_data_matrix(X, min_rows=1):
    """Validate and return a 2-D float64 data matrix.

    Rejects non-rectangular input, NaN and infinities.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a 2-D matrix, got %d dimension(s)" % X.ndim)
    if X.shape[0] < min_rows:
        raise ValueError("need at least %d row(s), got %d" % (min_rows, X.shape[0]))
    if X.shape[1] < 1:
        raise ValueError("need at least one column")
    if not np.all(np.isfinite(X)):
        bad = np.argwhere(~np.isfinite(X))[0]
        raise ValueError("non-finite value at row %d, column %d" % (bad[0] + 1, bad[1] + 1))
    return X


def check_labels(y, n_expected=None):
    """Validate a label vector: integers 1..k with every class present.

    Returns
    -------
    (labels, k) : (np.ndarray of int64, int)
    """
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError("labels must be 1-D")
    if y.shape[0] == 0:
        raise ValueError("labels are empty")
    if not np.issubdtype(y.dtype, np.integer):
        yf = np.asarray(y, dtype=np.float64)
        yi = yf.astype(np.int64)
        if not np.all(yf == yi):
            raise ValueError("labels must be integers")
        y = yi
    y = y.astype(np.int64)
    if n_expected is not None and y.shape[0] != n_expected:
        raise ValueError("expected %d labels, got %d" % (n_expected, y.shape[0]))
    k = int(y.max())
    if y.min() < 1:
        raise ValueError("labels must be numbered from 1, got %d" % y.min())
    present = np.unique(y)
    if present.shape[0] != k:
        # present is sorted and >= 1: the first i with present[i] != i + 1 is class i + 1
        gap = np.flatnonzero(present != np.arange(1, present.shape[0] + 1))[0]
        raise ValueError("class %d has no members" % (gap + 1))
    return y, k


def _is_number(v):
    # float subclasses such as numpy's float64 count: json writes them as floats
    return type(v) is int or isinstance(v, float)


# kinds a value parsed by json, or a to_json_dict() image, may take: its test,
# and its name in errors (exact int, so neither true and false nor numpy's
# integers, which json cannot write, are integers or numbers)
_JSON_KINDS = {
    "integer": (lambda v: type(v) is int, "an integer"),
    "number": (_is_number, "a number"),
    "pair": (lambda v: type(v) is list and len(v) == 2 and all(map(_is_number, v)),
             "a list of two numbers"),
    "string": (lambda v: type(v) is str, "a string"),
    "list": (lambda v: type(v) is list, "a list"),
    "object": (lambda v: type(v) is dict, "an object"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "null": (lambda v: v is None, "null"),
}


def _check_json_kinds(data, kinds, what):
    """Raise one ValueError on a key not in ``kinds`` (key -> allowed kinds)
    or on the first value of none of its key's kinds; missing keys pass."""
    extra = set(data) - set(kinds)
    if extra:
        raise ValueError("unknown %s key(s): %s" % (what, ", ".join(sorted(extra))))
    for key, value in data.items():
        if not any(_JSON_KINDS[kind][0](value) for kind in kinds[key]):
            raise ValueError("%s %r must be %s, got %s" % (
                what, key, " or ".join(_JSON_KINDS[kind][1] for kind in kinds[key]),
                json.dumps(value, default=repr)))


def _format(x):
    # repr of a Python float is the shortest decimal that round-trips exactly
    return repr(float(x))


def _atomic_write(path, text):
    # write a sibling temp file, then rename it over path; on failure the
    # temp file is removed and the error re-raised
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def _read_lines(path):
    """The lines of a text file, without its trailing empty lines."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def _parse_cell(cell, lineno, colno):
    try:
        v = float(cell)
    except ValueError:
        raise ValueError(
            "line %d, column %d: could not parse %r as a number" % (lineno, colno, cell)
        ) from None
    if not np.isfinite(v):
        raise ValueError("line %d, column %d: non-finite value %r" % (lineno, colno, cell))
    return v


def read_matrix_csv(path, has_header=False):
    """Read a numeric CSV into a data matrix.

    Parameters
    ----------
    path : str
    has_header : bool
        If true the first line holds column names and is skipped.

    Returns
    -------
    (X, header) : (np.ndarray, list of str or None)

    Raises
    ------
    ValueError
        On empty files, ragged rows, unparseable or non-finite cells; the
        message names the offending line and column (1-based).
    """
    lines = _read_lines(path)
    header = None
    start = 0
    if has_header:
        if not lines:
            raise ValueError("%s: empty file" % path)
        header = [c.strip() for c in lines[0].split(",")]
        start = 1
    if not lines[start:]:
        raise ValueError("%s: no data rows" % path)
    rows = []
    width = None
    for offset, line in enumerate(lines[start:]):
        lineno = start + offset + 1
        cells = line.split(",")
        if width is None:
            width = len(cells)
            if header is not None and len(header) != width:
                raise ValueError(
                    "line %d: %d cells but header names %d columns"
                    % (lineno, width, len(header))
                )
        elif len(cells) != width:
            raise ValueError(
                "line %d: %d cells, expected %d" % (lineno, len(cells), width)
            )
        rows.append([_parse_cell(c.strip(), lineno, k + 1) for k, c in enumerate(cells)])
    return np.array(rows, dtype=np.float64), header


def write_matrix_csv(path, X, header=None):
    """Write a data matrix as CSV at full precision (values round-trip exactly)."""
    X = check_data_matrix(X)
    out = []
    if header is not None:
        if len(header) != X.shape[1]:
            raise ValueError("header names %d columns, matrix has %d" % (len(header), X.shape[1]))
        out.append(",".join(header))
    for row in X:
        out.append(",".join(_format(v) for v in row))
    _atomic_write(path, "\n".join(out) + "\n")


def read_labels(path):
    """Read a one-column file of integer labels (one per line)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip() != ""]
    if not lines:
        raise ValueError("%s: no labels" % path)
    values = []
    for lineno, ln in enumerate(lines, start=1):
        try:
            values.append(int(ln))
        except ValueError:
            raise ValueError(
                "line %d: could not parse %r as an integer label" % (lineno, ln)
            ) from None
    labels, _ = check_labels(np.array(values, dtype=np.int64))
    return labels


def write_labels(path, y):
    y, _ = check_labels(np.asarray(y))
    _atomic_write(path, "\n".join(str(int(v)) for v in y) + "\n")


def write_condensed(path, D):
    """Write a condensed distance matrix.

    Format: one JSON header line ``{"n": <int>}`` followed by one decimal per
    line in condensed order.  Values round-trip exactly.
    """
    if not isinstance(D, CondensedDistanceMatrix):
        raise TypeError("expected a CondensedDistanceMatrix")
    parts = [json.dumps({"n": D.n})]
    parts.extend(_format(v) for v in D.entries)
    _atomic_write(path, "\n".join(parts) + "\n")


def read_condensed(path):
    """Read the condensed distance format written by :func:`write_condensed`."""
    lines = _read_lines(path)
    if not lines:
        raise ValueError("%s: empty file" % path)
    try:
        head = json.loads(lines[0])
        n = head["n"]
    except (json.JSONDecodeError, TypeError, KeyError):
        raise ValueError("%s: first line must be a JSON header with key 'n'" % path) from None
    if not isinstance(n, int) or n < 2:
        raise ValueError("%s: header n must be an integer >= 2" % path)
    want = condensed_size(n)
    body = lines[1:]
    if len(body) != want:
        raise ValueError(
            "%s: expected %d entries for n=%d, found %d" % (path, want, n, len(body))
        )
    entries = np.empty(want)
    for k, ln in enumerate(body):
        entries[k] = _parse_cell(ln.strip(), k + 2, 1)
    return CondensedDistanceMatrix(n, entries)
