"""Container types, condensed indexing and file round-trips."""

import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from scaledist.core import (
    CondensedDistanceMatrix,
    _atomic_write,
    check_data_matrix,
    check_labels,
    condensed_index,
    condensed_size,
    read_condensed,
    read_labels,
    read_matrix_csv,
    write_condensed,
    write_labels,
    write_matrix_csv,
)
from scaledist.harness import RESULTS_HEADER, read_records_csv


def test_condensed_size():
    assert condensed_size(2) == 1
    assert condensed_size(4) == 6
    assert condensed_size(100) == 4950


def test_condensed_index_examples():
    assert condensed_index(0, 1, 4) == 0
    assert condensed_index(2, 3, 4) == 5
    assert condensed_index(0, 3, 4) == 3


def test_condensed_index_matches_enumeration_order():
    # pairs are laid out by increasing j, then increasing i
    n = 6
    expected = 0
    for j in range(n):
        for i in range(j):
            assert condensed_index(i, j, n) == expected
            expected += 1
    assert expected == condensed_size(n)


@pytest.mark.parametrize("n", [2, 3, 7, 17, 50])
def test_condensed_index_bijection(n):
    hit = [condensed_index(i, j, n) for j in range(n) for i in range(j)]
    assert sorted(hit) == list(range(condensed_size(n)))


def test_condensed_index_rejects_bad_pairs():
    with pytest.raises(ValueError):
        condensed_index(1, 1, 4)
    with pytest.raises(ValueError):
        condensed_index(0, 4, 4)
    with pytest.raises(ValueError):
        condensed_index(-1, 2, 4)
    # swapped order is accepted and treated symmetrically
    assert condensed_index(3, 0, 4) == condensed_index(0, 3, 4)


def test_condensed_matrix_get_and_square_round_trip():
    rng = np.random.default_rng(7)
    for n in (2, 3, 9, 40):
        square = rng.uniform(0.1, 5.0, size=(n, n))
        square = 0.5 * (square + square.T)
        square[0, n - 1] = square[n - 1, 0] = -0.0  # the sign of zero must survive
        np.fill_diagonal(square, 0.0)
        D = CondensedDistanceMatrix.from_square(square)
        assert D.n == n
        # compared as bit patterns, in condensed order: (0,1), (0,2), (1,2), ...
        condensed = np.array([square[i, j] for j in range(n) for i in range(j)])
        assert_array_equal(D.entries.view(np.int64), condensed.view(np.int64))
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert D.get(i, j) == 0.0
                else:
                    assert D.get(i, j) == square[i, j]
        back = D.to_square()
        assert_array_equal(back.view(np.int64), square.view(np.int64))
        # every call returns a new array that the caller may write
        assert back.flags.writeable and not np.shares_memory(back, D.to_square())


def test_condensed_matrix_validates_entry_count():
    with pytest.raises(ValueError):
        CondensedDistanceMatrix(4, np.array([1.0, 2.0]))


def test_check_data_matrix_rejects_bad_cells():
    with pytest.raises(ValueError, match="row 2"):
        check_data_matrix(np.array([[1.0, 2.0], [np.nan, 3.0]]))
    with pytest.raises(ValueError, match="column 2"):
        check_data_matrix(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        check_data_matrix(np.array([1.0, 2.0]))


def test_check_labels():
    y, k = check_labels([1, 2, 1, 3, 2])
    assert k == 3
    assert y.dtype == np.int64
    # every class 1..k must be present
    with pytest.raises(ValueError):
        check_labels([1, 3, 3])
    with pytest.raises(ValueError):
        check_labels([0, 1, 2])
    with pytest.raises(ValueError):
        check_labels([1.5, 2.0])
    with pytest.raises(ValueError):
        check_labels([1, 2], n_expected=3)


def test_check_labels_names_the_missing_class_without_counting_to_the_largest():
    # the first gap in the sorted labels; memory must not grow with the largest
    # label.  Checked before the 10**12 case, so that a version whose memory
    # does grow fails here instead of exhausting the machine's memory.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^class 2 has no members$"):
            check_labels([1, 2_000_000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="^class 2 has no members$"):
        check_labels([1, 10**12])
    with pytest.raises(ValueError, match="^class 1 has no members$"):
        check_labels([3, 2, 2])
    with pytest.raises(ValueError, match="^class 4 has no members$"):
        check_labels([6, 1, 5, 2, 3, 3])


def test_matrix_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    X = rng.standard_normal((13, 7)) * 10.0 ** rng.integers(-12, 12, size=(13, 7))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, X)
    back, header = read_matrix_csv(path)
    assert header is None
    assert_array_equal(back, X)


def test_matrix_csv_header_handling(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    X, header = read_matrix_csv(path, has_header=True)
    assert header == ["a", "b"]
    assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])


def test_matrix_csv_parse_errors_name_the_cell(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,abc\n")
    with pytest.raises(ValueError, match="line 2.*column 2"):
        read_matrix_csv(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="line 2"):
        read_matrix_csv(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_matrix_csv(empty)


def test_labels_round_trip(tmp_path):
    path = tmp_path / "y.labels"
    write_labels(path, [1, 1, 2, 3])
    assert_array_equal(read_labels(path), [1, 1, 2, 3])


def test_condensed_file_round_trip(tmp_path):
    path = tmp_path / "d.dm"
    D = CondensedDistanceMatrix(3, np.array([1.0, 2.0, 3.0]))
    write_condensed(path, D)
    back = read_condensed(path)
    assert back.n == 3
    assert_array_equal(back.entries, D.entries)

    tiny = CondensedDistanceMatrix(2, np.array([0.5]))
    write_condensed(path, tiny)
    assert_array_equal(read_condensed(path).entries, [0.5])

    # full float precision must survive the text format
    rng = np.random.default_rng(3)
    entries = rng.standard_normal(condensed_size(12)) ** 3
    entries = np.abs(entries)
    big = CondensedDistanceMatrix(12, entries)
    write_condensed(path, big)
    assert_array_equal(read_condensed(path).entries, entries)


def test_condensed_file_truncation_is_detected(tmp_path):
    path = tmp_path / "d.dm"
    write_condensed(path, CondensedDistanceMatrix(3, np.array([1.0, 2.0, 3.0])))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        read_condensed(path)


def test_condensed_file_bad_header(tmp_path):
    path = tmp_path / "d.dm"
    path.write_text("not json\n1.0\n")
    with pytest.raises(ValueError):
        read_condensed(path)


_RECORD = "simple_normal,%d,5,none,1,pam,ari,0.5,"


@pytest.mark.parametrize(
    "read, lines, malformed",
    [
        (lambda path: read_matrix_csv(path)[0].tolist(),
         ["1.0,2.0", "3.0,4.0", "5.0,6.0"],
         [(2, "3.0,4.0,7.0", "line 2: 3 cells, expected 2")]),
        (lambda path: read_condensed(path).entries.tolist(),
         ['{"n": 3}', "1.0", "2.0", "3.0"],
         [(1, '{"m": 3}', "first line must be a JSON header with key 'n'"),
          (1, '{"n": 1}', "header n must be an integer >= 2"),
          (2, "1.0,2.0", "line 2, column 1: could not parse '1.0,2.0'")]),
        (lambda path: [repr(r) for r in read_records_csv(path)],
         [RESULTS_HEADER, _RECORD % 0, _RECORD % 1],
         [(1, "setup,replicate", "missing results header"),
          (2, _RECORD % 0 + ",0.1", "line 2: 10 fields, expected 9")]),
    ],
    ids=["matrix", "condensed", "records"],
)
def test_readers_drop_trailing_empty_lines_and_name_bad_ones(tmp_path, read, lines, malformed):
    path = tmp_path / "file"
    path.write_text("\n".join(lines) + "\n")
    expected = read(path)
    path.write_text("\n".join(lines) + "\n\n\n")
    assert read(path) == expected
    interior = len(lines) - 1  # an empty line there is an error naming it
    for lineno, text, message in [(interior, "", "line %d" % interior)] + malformed:
        path.write_text("\n".join(lines[:lineno - 1] + [text] + lines[lineno:]) + "\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            read(path)


def test_atomic_write_failure_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(IsADirectoryError):
        _atomic_write(target, "1.0\n")
    with pytest.raises(UnicodeEncodeError):
        _atomic_write(tmp_path / "out.txt", "\ud800")  # fails inside the write
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
