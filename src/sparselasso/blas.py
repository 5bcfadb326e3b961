"""Thread counts of the OpenBLAS libraries loaded in this process.

numpy and scipy wheels each bundle their own OpenBLAS, and each starts a
thread pool as wide as the machine.  On a few cores the two pools and
the sweep's worker processes oversubscribe the CPUs: a 128 x 128 Cholesky
that takes 0.15 ms on one thread can take over 100 ms.  Multi-threaded
BLAS also sums in a different order, so a trial's float outputs would
depend on the thread count and not only on its seeds.  `single_threaded`
pins every loaded OpenBLAS to one thread for the duration of a block.

It decorates each function whose results come from dense BLAS/LAPACK:
`witness.build`, `witness.build_sampled`, `witness.h_vector`,
`lasso.solve` and `theory.singular_extremes`.  Sweeps, the CLI and direct calls all reach
the dense algebra through these, so they compute the same floats
whatever thread count the caller has set.

The libraries are found once per process from the memory map (Linux
only) and driven through their exported getter and setter via ctypes,
so no third-party package or environment variable is involved.  Where
nothing is found every function here is a no-op.

Forked processes.  OpenBLAS shuts its thread pool down before a fork and
rebuilds it in the child on the child's first setter call, whatever
count that call asks for; the new pool threads then busy-wait before
they sleep.  A sweep worker that pinned itself on its first trial grew
from 1 to 3 threads and burned about 0.1 s of CPU doing nothing.  Two
rules keep that from happening:

- `set_thread_counts` calls a library's setter only when the count
  differs.  The getter only reads a number and starts no thread.
- `sweep.run_sweep` forks its workers inside `single_threaded()`.  They
  start with every OpenBLAS at one thread, so their pinned calls change
  nothing and no pool thread is ever started in them.

The README has the measured effect of both rules.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

# (getter, setter) name patterns: numpy's ILP64 build, scipy's LP64 build
# and a plain system OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _bind(path: str):
    """(getter, setter) of the OpenBLAS at `path`, or None if it has neither pattern."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for get_name, set_name in _SYMBOLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@functools.cache
def _libraries() -> tuple:
    """(getter, setter) pairs of the OpenBLAS copies mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    paths = {f[5].rstrip("\n") for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()}
    return tuple(lib for lib in map(_bind, sorted(paths)) if lib is not None)


def thread_counts() -> tuple:
    """Current thread count of each loaded OpenBLAS, in discovery order."""
    return tuple(get() for get, _ in _libraries())


def set_thread_counts(counts) -> None:
    """Set each loaded OpenBLAS to the matching entry of `counts` (as from
    thread_counts), calling the setter only where the count differs."""
    for (get, set_), n in zip(_libraries(), counts):
        if get() != n:
            set_(n)


@contextlib.contextmanager
def single_threaded():
    """Run the block with every loaded OpenBLAS on one thread, then restore the previous counts."""
    saved = thread_counts()
    set_thread_counts((1,) * len(saved))
    try:
        yield
    finally:
        set_thread_counts(saved)
