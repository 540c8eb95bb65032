"""One BLAS thread while the library computes: its dense products are too
small for a second OpenBLAS thread to pay, yet each threaded one leaves a
helper busy-waiting for about 0.1 s on a core that another computation,
a pool worker or a shard would use."""

import ctypes
import functools
import os
import threading
from contextlib import contextmanager

#: get/set name patterns of numpy's wheels and of system OpenBLAS builds
_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads",
            "openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads")

_lock = threading.Lock()
_depth, _saved = 0, 1


@functools.lru_cache(maxsize=None)
def _pair():
    """The loaded OpenBLAS's ``(get, set)`` thread-count pair, or None."""
    import numpy  # noqa: F401  (loads the BLAS shared library)
    if not os.path.exists("/proc/self/maps"):
        return None
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = sorted({line.split()[-1] for line in handle if "blas" in line.lower()})
    for library in (ctypes.CDLL(path) for path in paths if os.path.isfile(path)):
        for pattern in _SYMBOLS:
            get, set_ = (getattr(library, pattern.format(v), None) for v in ("get", "set"))
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Compute on one BLAS thread, then restore the caller's count.  The count is
    process-wide: the first entry from any thread sets 1, the last exit restores."""
    global _depth, _saved
    get, set_ = _pair() or (lambda: 1, lambda count: None)  # no OpenBLAS: a no-op
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)
