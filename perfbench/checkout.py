"""Where the benchmark finds the program, and the run environment it records.

The benchmark always runs the craftfaces source of the checkout it sits in
(``<root>/src``), never an installed copy, and pins the BLAS thread count
before numpy is first imported.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# One BLAS thread (never more than nproc): the workloads are single-process
# and a second BLAS thread only adds contention with other tenants.
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Must run before numpy is imported; child processes inherit it."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas_threads must run before numpy is imported")
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_craftfaces():
    """Import craftfaces from this checkout's ``src``; exit if it is absent."""
    if not (SRC / "craftfaces" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no craftfaces source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import craftfaces

    if Path(craftfaces.__file__).resolve().parent != SRC / "craftfaces":
        raise SystemExit(f"perfbench: imported craftfaces from {craftfaces.__file__}, not {SRC}")
    return craftfaces


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unpinned"),
        "machine": platform.machine(),
    }
