"""Shared data model: matrices, labels, condensed distance storage, file formats.

Matrices are plain 2-D float64 numpy arrays (rows = observations, columns =
variables).  Labels are 1-D integer arrays with classes numbered 1..k and every
class present.  Distances between rows of one matrix are kept in condensed form,
each unordered pair once, ordered by the larger index and then the smaller one:
(0,1), (0,2), (1,2), (0,3), ...  This is not scipy's ``pdist`` order, and it is
part of the on-disk contract.
"""

from __future__ import annotations

import errno
import json
import math
import os
import re
import sys
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
    """Pairwise distances of n objects in condensed form.

    ``entries[condensed_index(i, j, n)]`` is the distance between objects i
    and j: pairs ordered by the larger index, then the smaller one.  ``n`` is
    an integer >= 2 (a numpy integer too); entries are finite and
    non-negative; the diagonal is implicit.
    """

    n: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = _check_integer(self.n, "n")
        if n < 2:
            raise ValueError("need at least 2 objects, got n=%d" % n)
        object.__setattr__(self, "n", n)
        entries = _check_dtype(self.entries, "distances").astype(np.float64, copy=False)
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


def _strict_lower(n):
    # condensed order is the row-major order of the strict lower triangle:
    # (1,0), (2,0), (2,1), (3,0), ... is pair (i, j) at j*(j-1)/2 + i
    return np.tri(n, k=-1, dtype=bool)


def _check_dtype(values, what, kinds="iuf"):
    """``values`` as an array of integer or floating dtype (only integer with
    ``kinds="iu"``); booleans, strings and objects are a ValueError naming
    ``what``, never converted."""
    arr = np.asarray(values)
    if arr.dtype.kind not in kinds:
        raise ValueError("%s must be %s" % (what, "integers" if kinds == "iu" else
                                            "integers or floats"))
    return arr


def check_data_matrix(X, min_rows=1):
    """Validate and return a 2-D float64 data matrix.

    Rejects non-rectangular input, dtypes other than integer or floating
    (booleans and strings included), NaN and infinities.
    """
    X = _check_dtype(X, "matrix entries").astype(np.float64, copy=False)
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

    Only integer dtypes are labels: strings, booleans and floats, integral
    ones included, are a ValueError, as they are for ``k`` and seeds.

    Returns
    -------
    (labels, k) : (np.ndarray of int64, int)
    """
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError("labels must be 1-D")
    if y.shape[0] == 0:
        raise ValueError("labels are empty")
    _check_dtype(y, "labels", kinds="iu")
    if y.max() > np.iinfo(np.int64).max:  # an unsigned label the cast would wrap
        raise ValueError("label %d is beyond int64" % y.max())
    y = y.astype(np.int64)
    if n_expected is not None and y.shape[0] != n_expected:
        raise ValueError("expected %d labels, got %d" % (n_expected, y.shape[0]))
    k = int(y.max())
    if y.min() < 1:
        raise ValueError("labels must be numbered from 1, got %d" % y.min())
    # n labels fill at most n classes, so with k > n one of 1..n is empty:
    # labels above n count as n + 1, which bounds the count by n, not k
    counts = np.bincount(np.minimum(y, y.shape[0] + 1))
    if not counts[1:].all():
        raise ValueError("class %d has no members" % (np.argmin(counts[1:]) + 1))
    return y, k


def _check_integer(value, name):
    """``value`` as an int: Python and numpy integers pass; ValueError naming
    ``name`` on booleans and on everything else, integral floats included."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    return int(value)


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


def _check_json_kinds(data, kinds, what, required=()):
    """Raise one ValueError on a key not in ``kinds`` (key -> allowed kinds),
    on the first key of ``required`` that is missing, or on the first value of
    none of its key's kinds; other missing keys pass."""
    extra = set(data) - set(kinds)
    if extra:
        raise ValueError("unknown %s key(s): %s" % (what, ", ".join(sorted(extra))))
    for key in required:
        if key not in data:
            raise ValueError("%s: missing key %r" % (what, key))
    for key, value in data.items():
        if not any(_JSON_KINDS[kind][0](value) for kind in kinds[key]):
            raise ValueError("%s %r must be %s, got %s" % (
                what, key, " or ".join(_JSON_KINDS[kind][1] for kind in kinds[key]),
                json.dumps(value, default=repr)))


def _format(x):
    # repr of a Python float is the shortest decimal that round-trips exactly
    return repr(float(x))


def _write_files(texts):
    # write the text of each (path, text) pair to a sibling temporary, and
    # rename the temporaries over their paths only once all are written: a
    # failure leaves no path touched and no temporary behind, an OSError names
    # the path, and two pairs naming one file are refused before any write
    seen = set()
    for path, _ in texts:
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError("%s: two outputs name this file" % path)
        seen.add(real)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    temps = [(path, "%s.tmp.%d" % (path, os.getpid()), text) for path, text in texts]
    try:
        for path, tmp, text in temps:
            with open(tmp, "w") as fh:
                fh.write(text)
        for path, tmp, _ in temps:
            os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        for _, tmp, _ in temps:
            if os.path.exists(tmp):
                os.remove(tmp)


def _read_lines(path):
    """The lines of a text file, without its trailing empty lines."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    while lines and lines[-1] == "":
        lines.pop()
    return lines


# A number written in text is an optional sign, then ASCII digits with an
# optional fraction and exponent; an integer is an optional sign and ASCII
# digits.  inf, infinity and nan (any case, signed) are numbers only so that
# each float reader keeps its own rule for them.  Every other form Python
# reads, such as 1_000 or non-ASCII digits, is refused (under re.A, \d and
# re.I match ASCII alone).
_NUMBER = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf|infinity|nan)", re.A | re.I)
_INTEGER = re.compile(r"[+-]?\d+", re.A)


def _parse_number(text, integer=False):
    """The float ``text`` writes, or with ``integer`` the int, blanks around
    it ignored; ValueError on text outside the grammar above."""
    token = text.strip()
    if not (_INTEGER if integer else _NUMBER).fullmatch(token):
        raise ValueError(
            "could not parse %r as %s" % (token, "an integer" if integer else "a number"))
    try:
        return int(token) if integer else float(token)
    except ValueError:  # int() beyond the interpreter's limit on the digits it converts
        raise ValueError("integer of %d digits is beyond the %d-digit limit"
                         % (len(token.lstrip("+-")), sys.get_int_max_str_digits())) from None


def _parse_finite(text):
    value = _parse_number(text)
    if not math.isfinite(value):
        raise ValueError("non-finite value %r" % text.strip())
    return value


def _parse_json(text, path):
    """The value of JSON text from file ``path``; ValueError naming the file
    if it is not JSON, holds a number literal that overflows a float
    (``Infinity`` does not) or an integer beyond the digit limit of
    :func:`_parse_number`."""
    def parse_float(token):
        value = _parse_number(token)
        if np.isinf(value):
            raise ValueError("number %s is too large for a float" % token)
        return value

    try:
        return json.loads(text, parse_float=parse_float,
                          parse_int=lambda token: _parse_number(token, integer=True))
    except json.JSONDecodeError as exc:
        raise ValueError("%s: invalid JSON (%s)" % (path, exc)) from None
    except ValueError as exc:  # a number the hooks refuse
        raise ValueError("%s: %s" % (path, exc)) from None


def _read_json(path):
    """The value of a JSON file, read as :func:`_parse_json` reads it."""
    with open(path) as fh:
        return _parse_json(fh.read(), path)


def _parse_cell(cell, lineno, colno):
    try:
        return _parse_finite(cell)
    except ValueError as exc:
        raise ValueError("line %d, column %d: %s" % (lineno, colno, exc)) from None


def read_matrix_csv(path):
    """Read a numeric CSV, one row per line and no header, into a data matrix.

    Raises
    ------
    ValueError
        On empty files, ragged rows, unparseable or non-finite cells; the
        message names the offending line and column (1-based).
    """
    lines = _read_lines(path)
    if not lines:
        raise ValueError("%s: no data rows" % path)
    width = len(lines[0].split(","))
    rows = []
    for lineno, line in enumerate(lines, start=1):
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError("line %d: %d cells, expected %d" % (lineno, len(cells), width))
        rows.append([_parse_cell(c, lineno, k + 1) for k, c in enumerate(cells)])
    return np.array(rows, dtype=np.float64)


def _matrix_text(X):
    # the matrix CSV format, at full precision (values round-trip exactly)
    return "".join(",".join(map(_format, row)) + "\n" for row in check_data_matrix(X))


def write_matrix_csv(path, X):
    """Write a data matrix as CSV at full precision (values round-trip exactly)."""
    _write_files([(path, _matrix_text(X))])


def read_labels(path):
    """Read a one-column file of integer labels, one per line; trailing empty
    lines are ignored, and any other blank line is an error."""
    lines = _read_lines(path)
    if not lines:
        raise ValueError("%s: no labels" % path)
    values = []
    for lineno, ln in enumerate(lines, start=1):
        try:
            values.append(_parse_number(ln, integer=True))
        except ValueError as exc:
            if _INTEGER.fullmatch(ln.strip()):  # beyond the digit limit
                raise ValueError("line %d: %s" % (lineno, exc)) from None
            raise ValueError(
                "line %d: could not parse %r as an integer label" % (lineno, ln.strip())
            ) from None
        if not -(1 << 63) <= values[-1] < 1 << 63:
            raise ValueError("line %d: label %s is beyond int64" % (lineno, ln.strip()))
    labels, _ = check_labels(np.array(values, dtype=np.int64))
    return labels


def _labels_text(y):
    # one integer per line, unchecked: k-nn predictions need not cover every class
    return "".join("%d\n" % v for v in np.asarray(y).tolist())


def write_labels(path, y):
    _write_files([(path, _labels_text(check_labels(y)[0]))])


def write_condensed(path, D):
    """Write a condensed distance matrix.

    Format: one JSON header line ``{"n": <int>}`` followed by one decimal per
    line in condensed order.  Values round-trip exactly.
    """
    if not isinstance(D, CondensedDistanceMatrix):
        raise TypeError("expected a CondensedDistanceMatrix")
    parts = [json.dumps({"n": D.n})]
    parts.extend(_format(v) for v in D.entries)
    _write_files([(path, "\n".join(parts) + "\n")])


def read_condensed(path):
    """Read the condensed distance format written by :func:`write_condensed`."""
    lines = _read_lines(path)
    if not lines:
        raise ValueError("%s: empty file" % path)
    head = _parse_json(lines[0], path)
    if not isinstance(head, dict) or "n" not in head:
        raise ValueError("%s: first line must be a JSON header with key 'n'" % path)
    try:
        _check_json_kinds(head, {"n": ("integer",)}, "header")
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None
    n = head["n"]
    if n < 2:
        raise ValueError("%s: header n must be an integer >= 2" % path)
    want = condensed_size(n)
    body = lines[1:]
    if len(body) != want:
        raise ValueError(
            "%s: expected %d entries for n=%d, found %d" % (path, want, n, len(body))
        )
    return CondensedDistanceMatrix(
        n, [_parse_cell(ln, lineno, 1) for lineno, ln in enumerate(body, start=2)])
