"""Record of the machine and build a benchmark run was made on."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

# BLAS and OpenMP thread count the benchmark sets for contactlab instead of
# inheriting it: on 2 CPUs, stationary on 343 points took 3.8-4.3 s with one
# OpenBLAS thread and 5.9-7.5 s with two.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def src_lines(src: Path) -> int:
    total = 0
    for path in sorted(src.rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def record(root: Path) -> dict:
    import numpy as np
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(root),
        "src_lines": src_lines(root / "src"),
    }
