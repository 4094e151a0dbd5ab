"""Environment fingerprint recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform
import socket
import sys
from pathlib import Path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loaded_blas() -> list[str]:
    """Paths of the BLAS libraries mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    return sorted({line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line})


def _openblas(name: str):
    """``{library file name: function}`` for one OpenBLAS entry point."""
    found = {}
    for path in _loaded_blas():
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            func = getattr(lib, f"{prefix}_{name}{suffix}", None)
            if func is not None:
                found[Path(path).name] = func
                break
    return found


def set_blas_threads(count: int) -> None:
    """Set the thread count of every loaded OpenBLAS build."""
    for func in _openblas("set_num_threads").values():
        func.argtypes = [ctypes.c_int]
        func(count)


def blas_threads() -> dict[str, int]:
    """Thread count of every loaded OpenBLAS build, by library file name."""
    counts = {}
    for name, func in _openblas("get_num_threads").items():
        func.restype = ctypes.c_int
        counts[name] = int(func())
    return counts


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "host": socket.gethostname(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "git_sha": git_sha(root),
    }
