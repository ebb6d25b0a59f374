"""Every script in demos/ runs to completion on a copy of the directory."""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


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
