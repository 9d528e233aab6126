"""What produced a result: interpreter, libraries, BLAS, CPUs, commit.

``platform_key`` names everything that can change floating-point output
bytes for identical code: library versions, the OpenBLAS kernel chosen at
run time and numpy's SIMD dispatch targets.  Recorded output digests are
only compared on a matching key.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

__all__ = ["BLAS_THREAD_VARS", "environment", "platform_key"]

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _openblas_runtime(np):
    """(core, config) reported by the OpenBLAS library numpy loaded."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        found = []
        for fn_name in ("scipy_openblas_get_corename64_", "openblas_get_corename",
                        "scipy_openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, fn_name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                found.append(fn().decode("utf-8", "replace"))
        if len(found) == 2:
            return found[0], found[1]
    return "unknown", "unknown"


def _simd_targets():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return "unknown"
    return ",".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "baseline"


def _git_commit(root):
    """Commit of a git checkout at root, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, *ref.split("/"))
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def platform_key():
    import numpy as np
    import scipy

    core, _ = _openblas_runtime(np)
    return (f"numpy {np.__version__}; scipy {scipy.__version__}; "
            f"openblas {core}; simd {_simd_targets()}")


def environment(root):
    import numpy as np
    import scipy

    core, config = _openblas_runtime(np)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": blas_build,
        "blas_core": core,
        "blas_config": config,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "platform_key": platform_key(),
    }
