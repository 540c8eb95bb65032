"""The host fingerprint recorded with every result."""

from __future__ import annotations

import ctypes
import hashlib
import importlib.metadata
import importlib.util
import os
import platform
import subprocess

_BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def _version(package: str):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def blas_threads():
    """Threads the BLAS numpy loaded will use, asked of the library itself."""
    import numpy  # noqa: F401  (loads the BLAS shared library)

    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = {line.split()[-1] for line in handle if "blas" in line.lower()}
    for path in sorted(paths):
        if not os.path.isfile(path):
            continue
        library = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def source_sha(root: str) -> str:
    """sha256 over ``src/``: names the code even where there is no git."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, subdirectories, files in os.walk(src):
        subdirectories[:] = sorted(d for d in subdirectories if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None


def host_fingerprint(root: str, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": blas_threads(),
        "git_sha": git_sha(root),
        "src_sha256": source_sha(root),
        "seed": seed,
    }
