"""Pinned environment and paths of the tree under test.

Import this module before anything imports numpy: it pins every BLAS and
OpenMP thread count to 1, because on small hosts OpenBLAS threading alone
moves some kernels (``fit_info_hamiltonian``) by 20-45x.  It also puts the
checked-out ``src`` first on ``sys.path`` so that in-process workloads and
child processes measure this tree, never an installed copy.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_VARS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"  # outputs recorded at the seed commit

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


class TreeError(RuntimeError):
    """The checkout does not hold the package under test."""


def check_tree() -> None:
    if not (SRC / "maniflow" / "__init__.py").is_file():
        raise TreeError(f"no maniflow package under {SRC}; run from a checkout of the repository")


def import_maniflow():
    """Import the package and make sure it is the copy in this checkout."""
    check_tree()
    import maniflow
    import maniflow.cli  # noqa: F401  (compiles the CLI's bytecode during set-up)

    where = Path(maniflow.__file__).resolve()
    if SRC not in where.parents:
        raise TreeError(f"maniflow imported from {where}, not from {SRC}")
    return maniflow


def child_env() -> dict:
    """Environment for child processes: pinned threads, this tree's src first."""
    env = dict(os.environ)
    env.update(THREAD_VARS)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _tree_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "maniflow").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment_record() -> dict:
    import numpy
    import scipy

    return {
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _tree_sha256(),
    }
