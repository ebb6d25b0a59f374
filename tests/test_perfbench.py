"""The benchmark's smoke check, run as a test: a library change that breaks a
call the benchmark makes fails here rather than in a benchmark run."""

import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_benchmark_smoke_check_passes(tmp_path):
    # run.py imports the program from the src directory next to it
    result = subprocess.run([sys.executable, str(RUN), "--smoke"], cwd=tmp_path,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
