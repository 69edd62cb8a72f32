"""Provenance stamp written into every result artifact."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

#: Environment variables that cap the BLAS/OpenMP thread pools.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git(root: Path, *args: str) -> Optional[str]:
    # The ceiling stops git from searching above the checkout for a
    # repository when the checkout is not one itself.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", *args], cwd=root, env=env,
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_state(root: Path) -> Dict[str, object]:
    """Commit SHA and dirty flag, or ``None`` outside a git checkout."""
    sha = _git(root, "rev-parse", "HEAD") if (root / ".git").exists() else None
    if sha is None:
        return {"git_sha": None, "git_dirty": None}
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {"git_sha": sha, "git_dirty": bool(status) if status is not None else None}


def runtime_versions() -> Dict[str, object]:
    """Interpreter and numeric-library versions of the current process."""
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {key: os.environ.get(key) for key in BLAS_ENV},
    }


def host() -> Dict[str, object]:
    return {"host": platform.node(), "machine": platform.machine(),
            "nproc": cpu_count()}
