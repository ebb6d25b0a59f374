"""Container types, condensed indexing and file round-trips."""

import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from scaledist.core import (
    CondensedDistanceMatrix,
    _write_files,
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
    # indices are integers: these gave 1.5, 2 and numpy's IndexError
    for args, name in (((0.5, 2, 3), "i"), ((True, 2, 3), "i"), ((0, 2.0, 3), "j"),
                       ((0, 1, 3.0), "n")):
        with pytest.raises(ValueError, match="^%s must be an integer, got " % name):
            condensed_index(*args)
    D = CondensedDistanceMatrix(3, [1.0, 2.0, 3.0])
    for i, j, name in ((0.0, 2, "i"), (1, 1.0, "j"), (1.0, 1, "i"), (False, 1, "i")):
        with pytest.raises(ValueError, match="^%s must be an integer, got " % name):
            D.get(i, j)
    assert D.get(np.int64(2), np.uint8(0)) == 2.0 and D.get(np.int32(1), 1) == 0.0


def test_condensed_matrix_get_and_square_round_trip():
    rng = np.random.default_rng(7)
    for n in (2, 3, 9, 40):
        square = rng.uniform(0.1, 5.0, size=(n, n))
        square = 0.5 * (square + square.T)
        square[0, n - 1] = square[n - 1, 0] = -0.0  # the sign of zero must survive
        np.fill_diagonal(square, 0.0)
        # compared as bit patterns, in condensed order: (0,1), (0,2), (1,2), ...
        condensed = np.array([square[i, j] for j in range(n) for i in range(j)])
        D = CondensedDistanceMatrix(n, condensed)
        assert D.n == n
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


@pytest.mark.parametrize(
    "X", [[["1", "2"], ["3", "4"]], [[True, False], [False, True]], [[1.0, None]]],
    ids=["strings", "booleans", "object"],
)
def test_check_data_matrix_takes_integer_and_float_dtypes_only(X):
    # the strings and booleans were read as floats
    with pytest.raises(ValueError, match="^matrix entries must be integers or floats$"):
        check_data_matrix(X)
    assert check_data_matrix(np.array([[1, 2]], dtype=np.uint8)).dtype == np.float64


@pytest.mark.parametrize("entries", [["1.5"], [True], np.array([1.5], dtype=object)])
def test_condensed_matrix_takes_integer_and_float_dtypes_only(entries):
    # ["1.5"] and [True] were stored as 1.5 and 1.0
    with pytest.raises(ValueError, match="^distances must be integers or floats$"):
        CondensedDistanceMatrix(2, entries)
    assert CondensedDistanceMatrix(2, [3]).entries.tolist() == [3.0]


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


@pytest.mark.parametrize(
    "labels",
    # were classes 1 and 2, one class, and classes 1 and 2
    [["1", "2"], [True, True], [1.0, 2.0], np.array([2.0, 1.0]), [1, None]],
)
def test_check_labels_takes_integer_dtypes_only(labels):
    with pytest.raises(ValueError, match="^labels must be integers$"):
        check_labels(labels)


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
    back = read_matrix_csv(path)
    assert_array_equal(back, X)


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


@pytest.mark.parametrize(
    "text, expected",
    [
        # was "line 3: could not parse 'x'", the bad label sitting on line 4
        ("1\n1\n\nx\n2\n", "line 3: could not parse ''"),
        ("1\n \n2\n", "line 2: could not parse ''"),  # was skipped
    ],
)
def test_label_errors_name_the_true_line(tmp_path, text, expected):
    path = tmp_path / "y.labels"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(expected)):
        read_labels(path)
    path.write_text("1\n2\n\n\n")  # trailing empty lines are ignored
    assert_array_equal(read_labels(path), [1, 2])


@pytest.mark.parametrize("text, lineno", [
    ("1\n99999999999999999999\n", 2),  # ended in an OverflowError traceback
    ("-9223372036854775809\n1\n", 1),
])
def test_a_label_beyond_int64_is_an_error_naming_its_line(tmp_path, text, lineno):
    path = tmp_path / "y.labels"
    path.write_text(text)
    label = text.splitlines()[lineno - 1]
    with pytest.raises(ValueError, match="^line %d: label %s is beyond int64$" % (lineno, label)):
        read_labels(path)
    path.write_text("1\n9223372036854775807\n")  # fits int64; class 2 is then empty
    with pytest.raises(ValueError, match="^class 2 has no members$"):
        read_labels(path)


def test_a_label_beyond_the_digit_limit_is_named_briefly(tmp_path):
    # was "line 3: could not parse '111...1' as an integer label", 5047 characters
    path = tmp_path / "y.labels"
    path.write_text("1\n2\n" + "1" * 5001 + "\n")
    with pytest.raises(ValueError, match="^line 3: integer of 5001 digits is beyond") as info:
        read_labels(path)
    assert len(str(info.value)) < 200


def test_an_unsigned_label_beyond_int64_is_named_as_given():
    # the int64 cast wrapped it: "labels must be numbered from 1, got
    # -9223372036854775808"
    with pytest.raises(ValueError, match="^label 9223372036854775808 is beyond int64$"):
        check_labels(np.array([1, 2**63], dtype=np.uint64))
    labels, k = check_labels(np.array([2, 1], dtype=np.uint64))
    assert labels.dtype == np.int64 and labels.tolist() == [2, 1] and k == 2


def test_condensed_header_refuses_unknown_keys(tmp_path):
    path = tmp_path / "d.dm"
    path.write_text('{"n": 3, "junk": 1, "a": 2}\n1.0\n2.0\n3.0\n')
    with pytest.raises(ValueError, match=re.escape("d.dm: unknown header key(s): a, junk")):
        read_condensed(path)


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
        (lambda path: read_matrix_csv(path).tolist(),
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
        _write_files([(target, "1.0\n")])
    with pytest.raises(UnicodeEncodeError):
        _write_files([(tmp_path / "out.txt", "\ud800")])  # fails inside the write
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_write_files_renames_all_or_none_and_names_the_path(tmp_path):
    kept, absent = tmp_path / "kept.txt", tmp_path / "absent" / "b.txt"
    kept.write_text("old\n")
    with pytest.raises(FileNotFoundError) as err:
        _write_files([(kept, "new\n"), (absent, "b\n")])
    assert err.value.filename == str(absent)  # not its temporary
    taken = tmp_path / "taken"
    taken.mkdir()
    with pytest.raises(IsADirectoryError) as err:
        _write_files([(kept, "new\n"), (taken, "x\n")])
    assert err.value.filename == str(taken)
    assert kept.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt", "taken"]
    _write_files([(kept, "new\n"), (tmp_path / "c.txt", "c\n")])
    assert kept.read_text() == "new\n" and (tmp_path / "c.txt").read_text() == "c\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt", "kept.txt", "taken"]


def test_write_files_refuses_two_texts_for_one_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    kept = tmp_path / "kept.txt"
    kept.write_text("old\n")
    (tmp_path / "sub").mkdir()
    for other in (kept, "kept.txt", "sub/../kept.txt"):
        with pytest.raises(ValueError, match="^%s: two outputs name this file$" % re.escape(str(other))):
            _write_files([(kept, "a\n"), (tmp_path / "new.txt", "b\n"), (other, "c\n")])
    assert kept.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt", "sub"]


def test_the_runtime_needs_numpy_only():
    # a fresh interpreter: what the test run itself imported does not count
    code = ("import sys; before = set(sys.modules); import scaledist, scaledist.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    loaded = {name.split(".")[0] for name in result.stdout.split()}
    assert "scaledist" in loaded
    assert not loaded & {"scipy", "hypothesis", "pytest", "_pytest"}
