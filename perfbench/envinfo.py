"""Machine and software record printed with every result.

Everything here only reads: /proc and /sys files, package metadata, and the
git commit when the checkout is a git repository.  Load average and steal
ticks are sampled before and after a workload, so a run disturbed by other
tenants of the machine can be told apart.
"""

from __future__ import annotations

import importlib.metadata
import os
import platform
import subprocess
from pathlib import Path


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = (_read(index / "level") or "").strip()
        kind = (_read(index / "type") or "").strip()
        size = (_read(index / "size") or "").strip()
        if level in ("2", "3") and size:
            out["L" + level] = size
        elif level == "1" and kind == "Data" and size:
            out["L1d"] = size
    return out


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def machine(root):
    """Static facts: CPU, cache sizes, core count, versions, commit."""
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "git_commit": _git_commit(root),
    }


def load_sample():
    """Load average and the machine-wide steal ticks from /proc/stat."""
    steal = None
    for line in (_read("/proc/stat") or "").splitlines():
        if line.startswith("cpu "):
            fields = line.split()
            steal = int(fields[8]) if len(fields) > 8 else None
            break
    return {"loadavg": list(os.getloadavg()), "steal_ticks": steal}
