"""Every script in demos/ and every example in README.md runs to completion
on a copy of the directory."""

import os
import pathlib
import shlex
import shutil
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"
README = DEMOS.parent / "README.md"


def run_demo(tmp_path, name, jobs=1):
    demos = tmp_path / "demos"
    if not demos.exists():
        shutil.copytree(DEMOS, demos, ignore=shutil.ignore_patterns("output"))
    env = dict(os.environ, PYTHONPATH=str(SRC), SCALEDIST_JOBS=str(jobs))
    result = subprocess.run([sys.executable, str(demos / name)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return demos / "output"


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, name):
    run_demo(tmp_path, name)


def test_simulation_study_output_is_independent_of_job_count(tmp_path):
    outputs = []
    for jobs in (1, 2):
        out = run_demo(tmp_path, "simulation_study.py", jobs=jobs)
        outputs.append([(out / f).read_bytes() for f in ("records.csv", "summary.json")])
    assert outputs[0] == outputs[1]


def _readme_block(heading, fence):
    # the body of the first block opened by ``fence`` after the line ``heading``
    text = README.read_text()
    text = text[text.index("\n%s\n" % heading):]
    start = text.index(fence + "\n") + len(fence) + 1
    return text[start:text.index("\n```", start)]


def test_readme_examples_run_as_written(tmp_path):
    # the Python quick start, then each command-line example, from an empty
    # directory, with `scaledist` run from the source tree
    env = dict(os.environ, PYTHONPATH=str(SRC), SCALEDIST_JOBS="2")
    code = _readme_block("## Library quick start", "```python")
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    for line in _readme_block("## Command line", "```").replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        if argv[0] == "scaledist":
            argv = [sys.executable, "-m", "scaledist.cli"] + argv[1:]
        result = subprocess.run(argv, cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, (line, result.stderr)
