"""Environment pinning and package location, done before numpy is imported.

The benchmark measures the checkout it runs in: it puts ``<root>/src`` first
on ``sys.path`` and refuses to run when ``amplify_acct`` would be imported
from anywhere else (an installed copy, another checkout).
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# One client and small arrays: more BLAS threads would only add scheduling noise.
BLAS_THREADS = "1"


class MissingProgram(RuntimeError):
    """The checkout does not hold the package under test."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


NPROC = nproc()  # before pin_cpu


def pin_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU.

    The reference kernel (``yardstick.py``) then runs where the ops, the
    fresh set-up interpreters and the CLI commands run, so it sees the same
    host load.  They run one at a time, so one CPU is all they need.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def child_env(root: str) -> dict:
    """Environment for every process the benchmark starts, and for itself."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    env["AMPLIFY_ACCT_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), os.path.join(root, "perfbench")])
    env.pop("PYTHONHOME", None)
    return env


def setup(root: str) -> None:
    """Pin threads, put the checkout's ``src`` first, and check the import."""
    package_dir = os.path.join(root, "src", "amplify_acct")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise MissingProgram(f"no amplify_acct package under {os.path.join(root, 'src')}")
    env = child_env(root)
    for var in BLAS_VARS + ("AMPLIFY_ACCT_THREADS",):
        os.environ[var] = env[var]
    sys.path.insert(0, os.path.join(root, "src"))
    import amplify_acct

    found = os.path.dirname(os.path.realpath(amplify_acct.__file__))
    if found != os.path.realpath(package_dir):
        raise MissingProgram(f"amplify_acct imported from {found}, not from the checkout")


def environment(root: str) -> dict:
    import numpy
    import scipy

    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.split()
        # Only the checkout's own repository counts, not one that encloses it.
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(root):
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "amplify_acct_threads": os.environ.get("AMPLIFY_ACCT_THREADS"),
        "nproc": NPROC,
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }
