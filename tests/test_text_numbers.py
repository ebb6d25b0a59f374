"""One table of text, fed to every reader of numbers in text.

Python's ``float`` and ``int`` read ``1_000`` as 1000, ``٤`` as 4 and
``1e5_0`` as 1e50.  Every reader of the package takes only the grammar in
``scaledist.core``: an optional sign, then ASCII digits with an optional
fraction and exponent (an integer: a sign and digits), blanks around the
token ignored.  Text outside it is one error naming its line or field, and
text inside it reads exactly as ``float`` and ``int`` read it.
"""

import os
import re
import sys
from unittest import mock

import pytest

from scaledist.cli import _build_parser, main
from scaledist.core import read_condensed, read_labels, read_matrix_csv
from scaledist.distance import parse_order
from scaledist.harness import JOBS_ENV_VAR, RESULTS_HEADER, _resolve_jobs, read_records_csv

NOT_NUMBERS = ["1_0", "1_000", "٤", "1e5_0"]
NOT_INTEGERS = NOT_NUMBERS + ["1.0", "1e3"]
NUMBERS = ["-0.0", "1e-320", "+2", " 3 ", "1E+300"]
INTEGERS = ["+2", " 3 "]


def _file(tmp_path, text):
    path = tmp_path / "f"
    path.write_text(text)
    return path


def _record(tmp_path, replicate="0", seed="5", value="0.5", seconds=""):
    line = "simple_normal,%s,%s,none,1,pam,ari,%s,%s" % (replicate, seed, value, seconds)
    return read_records_csv(_file(tmp_path, "%s\n%s\n" % (RESULTS_HEADER, line)))[0]


def _jobs(text, tmp_path):
    with mock.patch.dict(os.environ, {JOBS_ENV_VAR: text}):
        return _resolve_jobs(None)


# reader of one text token -> the error it gives on text outside the grammar
FLOAT_READERS = {
    "matrix": (lambda text, tmp_path: float(
        read_matrix_csv(_file(tmp_path, "0,0\n0,%s\n" % text))[1, 1]),
        "line 2, column 2: could not parse %r as a number"),
    "condensed": (lambda text, tmp_path: float(
        read_condensed(_file(tmp_path, '{"n": 3}\n1\n%s\n1\n' % text)).entries[1]),
        "line 3, column 1: could not parse %r as a number"),
    "value": (lambda text, tmp_path: _record(tmp_path, value=text).value,
              "line 2: could not parse %r as a number"),
    "seconds": (lambda text, tmp_path: _record(tmp_path, seconds=text).seconds,
                "line 2: could not parse %r as a number"),
    "order": (lambda text, tmp_path: parse_order(text), "could not parse aggregation order %r"),
}
INTEGER_READERS = {
    "labels": (lambda text, tmp_path: int(read_labels(_file(tmp_path, "1\n2\n%s\n" % text))[2]),
               "line 3: could not parse %r as an integer label"),
    "replicate": (lambda text, tmp_path: _record(tmp_path, replicate=text).replicate,
                  "line 2: could not parse %r as an integer"),
    "seed": (lambda text, tmp_path: _record(tmp_path, seed=text).seed,
             "line 2: could not parse %r as an integer"),
    "jobs": (_jobs, JOBS_ENV_VAR + " must be an integer, got %r"),
}
# reader of an integer in a file -> the file's text around the integer, and the
# start of its error; Python's int() reads no more than
# sys.get_int_max_str_digits() digits and said so without naming file or line
LONG_INTEGER_FILES = {
    "config seed": (lambda path: main(["experiment", "--config", str(path), "--out", "o.csv"]),
                    '{"seed": %s}', "scaledist: error: {path}: "),
    "condensed n": (read_condensed, '{"n": %s}\n1.0', "{path}: "),
    "records replicate": (read_records_csv,
                          RESULTS_HEADER + "\nsimple_normal,%s,5,none,1,pam,ari,0.5,", "line 2: "),
}
FLAGS = {
    "--seed": ["simulate", "--setup", "simple_normal", "--out-prefix", "x", "--seed"],
    "--k": ["cluster", "--method", "pam", "d", "--k"],
    "--jobs": ["experiment", "--out", "x", "--jobs"],
}


@pytest.mark.parametrize("text", NOT_NUMBERS)
@pytest.mark.parametrize("reader", FLOAT_READERS)
def test_float_readers_refuse_what_python_alone_would_read(tmp_path, reader, text):
    read, message = FLOAT_READERS[reader]
    with pytest.raises(ValueError, match="^%s$" % re.escape(message % text.strip())):
        read(text, tmp_path)


@pytest.mark.parametrize("text", NOT_INTEGERS)
@pytest.mark.parametrize("reader", INTEGER_READERS)
def test_integer_readers_refuse_what_python_alone_would_read(tmp_path, reader, text):
    read, message = INTEGER_READERS[reader]
    with pytest.raises(ValueError, match="^%s$" % re.escape(message % text.strip())):
        read(text, tmp_path)


@pytest.mark.parametrize("text", NOT_INTEGERS)
@pytest.mark.parametrize("flag", FLAGS)
def test_integer_flags_refuse_what_python_alone_would_read(capsys, flag, text):
    with pytest.raises(SystemExit) as err:
        main(FLAGS[flag] + [text])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "error: argument %s: invalid integer value: %r" % (flag, text))


@pytest.mark.parametrize("text", NUMBERS)
@pytest.mark.parametrize("reader", FLOAT_READERS)
def test_float_readers_read_the_grammar_as_python_does(tmp_path, reader, text):
    read, _ = FLOAT_READERS[reader]
    if reader == "order" and float(text) < 1.0:
        with pytest.raises(ValueError, match=">= 1 or inf"):
            read(text, tmp_path)
    else:
        # repr tells -0.0 from 0.0 and shows every bit of the value
        assert repr(read(text, tmp_path)) == repr(float(text))


@pytest.mark.parametrize("text", INTEGERS)
@pytest.mark.parametrize("reader", INTEGER_READERS)
def test_integer_readers_read_the_grammar_as_python_does(tmp_path, reader, text):
    value = INTEGER_READERS[reader][0](text, tmp_path)
    assert type(value) is int and value == int(text)


@pytest.mark.parametrize("text", INTEGERS)
@pytest.mark.parametrize("flag", FLAGS)
def test_integer_flags_read_the_grammar_as_python_does(flag, text):
    value = getattr(_build_parser().parse_args(FLAGS[flag] + [text]), flag[2:])
    assert type(value) is int and value == int(text)


@pytest.mark.parametrize("field", ["value", "seconds"])
@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
def test_records_refuse_a_non_finite_value_or_time(tmp_path, field, text):
    with pytest.raises(ValueError, match="^line 2: non-finite value %r$" % text):
        FLOAT_READERS[field][0](text, tmp_path)


@pytest.mark.parametrize("reader", LONG_INTEGER_FILES)
def test_an_integer_beyond_the_digit_limit_is_named_with_its_file_or_line(tmp_path, capsys,
                                                                          reader):
    read, text, prefix = LONG_INTEGER_FILES[reader]
    digits = sys.get_int_max_str_digits() + 701
    path = _file(tmp_path, text % ("1" * digits) + "\n")
    message = prefix.format(path=path) + "integer of %d digits is beyond the %d-digit limit" % (
        digits, sys.get_int_max_str_digits())
    if reader == "config seed":
        assert read(path) == 1
        assert capsys.readouterr().err.splitlines() == [message]
    else:
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            read(path)
