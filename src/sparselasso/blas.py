"""Thread counts of the OpenBLAS libraries loaded in this process, and
the two LAPACK routines of scipy's copy that the witness calls.

numpy and scipy wheels each bundle their own OpenBLAS, and each starts a
thread pool as wide as the machine.  On a few cores the two pools and
the sweep's worker processes oversubscribe the CPUs: a 128 x 128 Cholesky
that takes 0.15 ms on one thread can take over 100 ms.  Multi-threaded
BLAS also sums in a different order, so a trial's float outputs would
depend on the thread count and not only on its seeds.  `single_threaded`
pins every loaded OpenBLAS to one thread for the duration of a block.

It decorates each function whose results come from dense BLAS/LAPACK:
`witness.build`, `witness.build_sampled`, `witness.h_vector`,
`witness.singular_extremes` and `lasso.solve`.  Sweeps, the CLI and
direct calls all reach the dense algebra through these, so they compute
the same floats whatever thread count the caller has set.

The libraries are found once per process from the memory map (Linux
only), and each is opened once via ctypes into one `Library` record: its
thread getter and setter and its kernel name, under the first of four
namings whose getter and setter it exports, and its LAPACK routines.  A
copy without such a pair gets no record.  No third-party package or
environment variable is involved.  Where nothing is found every function
here is a no-op.  `core_names` gives which kernel set each copy picked
for the CPU at load time: the thread count is pinned, the kernel is not,
and the witness's floats differ between kernels in the last digits.

LAPACK.  `cholesky` and `cholesky_solve` are what the witness gets from
`scipy.linalg.cho_factor(G, lower=True)` and `cho_solve`, bit for bit,
without importing `scipy.linalg` (44 modules and about 6 MB).  They call
`scipy_dpotrf_` and `scipy_dpotrs_` of scipy's own OpenBLAS, the routines
behind scipy's wrappers.  The extension module `scipy.special._ufuncs`,
which the sampler's `ndtri` comes from, links that library, so importing
rng has already mapped it into the process.  They are read from the
record of a copy whose thread count `single_threaded` pins, so the pin
covers them.  numpy's copy is not used: it is another OpenBLAS release,
and its potrf gave other bits.  Where no pinned copy exports both
routines (scipy wheels before 1.13, non-wheel builds), the two
functions call `scipy.linalg` itself.

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

CHANGES.md has the measured effect of both rules.

Open: the caller's own pools.  The fork shuts the caller's pools down
too, and the restore when `run_sweep` returns rebuilds them, so their
threads busy-wait after a parallel sweep.  ROADMAP.md lists it among its
open items, with the measurements.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import os
from typing import Optional

import numpy as np

# The namings of numpy 2.x's ILP64 build, scipy's LP64 build, numpy 1.x's
# ILP64 build and a plain system OpenBLAS, filled with a utility's name.
_NAMINGS = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}")

# One mapped OpenBLAS: its thread getter and setter, the kernel name it
# picked at load time (None where it exports no getter for it) and the
# (dpotrf, dpotrs) of scipy's LP64 build, or None.  numpy's ILP64 copy
# exports its LAPACK with a 64_ suffix and is not matched.
Library = collections.namedtuple("Library", ["get", "set", "core", "lapack"])

_INT = ctypes.POINTER(ctypes.c_int)


def _bind(path: str) -> Optional[Library]:
    """The record of the OpenBLAS at `path`, read under the first naming
    whose thread getter and setter it exports, or None if it cannot be
    loaded or exports neither under any naming."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for naming in _NAMINGS:
        try:
            get = getattr(lib, naming.format("get_num_threads"))
            set_ = getattr(lib, naming.format("set_num_threads"))
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        core, get_core = None, getattr(lib, naming.format("get_corename"), None)
        if get_core is not None:
            get_core.argtypes, get_core.restype = [], ctypes.c_char_p
            core = get_core().decode()
        try:
            potrf, potrs = lib.scipy_dpotrf_, lib.scipy_dpotrs_
        except AttributeError:
            return Library(get, set_, core, None)
        # Fortran arguments by reference; the trailing size_t is the hidden length of UPLO.
        potrf.argtypes = [ctypes.c_char_p, _INT, ctypes.c_void_p, _INT, _INT, ctypes.c_size_t]
        potrs.argtypes = [ctypes.c_char_p, _INT, _INT, ctypes.c_void_p, _INT, ctypes.c_void_p, _INT, _INT, ctypes.c_size_t]
        potrf.restype = potrs.restype = None
        return Library(get, set_, core, (potrf, potrs))
    return None


@functools.cache
def _paths() -> tuple:
    """Paths of the OpenBLAS copies mapped into this process, sorted."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    return tuple(sorted({f[5].rstrip("\n") for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()}))


@functools.cache
def _libraries() -> tuple:
    """The Library record of each OpenBLAS mapped into this process, in path order."""
    return tuple(lib for lib in map(_bind, _paths()) if lib is not None)


def core_names() -> tuple:
    """The kernel set (e.g. 'SkylakeX') that each loaded OpenBLAS picked for
    this CPU when it was loaded, in thread_counts order; None for a copy that
    exports no kernel getter.  Float results of its dense algebra depend on
    it; the thread count is pinned, the kernel is not."""
    return tuple(lib.core for lib in _libraries())


def thread_counts() -> tuple:
    """Current thread count of each loaded OpenBLAS, in discovery order."""
    return tuple(lib.get() for lib in _libraries())


def set_thread_counts(counts) -> None:
    """Set each loaded OpenBLAS to the matching entry of `counts` (as from
    thread_counts), calling the setter only where the count differs."""
    for lib, n in zip(_libraries(), counts):
        if lib.get() != n:
            lib.set(n)


@contextlib.contextmanager
def single_threaded():
    """Run the block with every loaded OpenBLAS on one thread, then restore the previous counts."""
    saved = thread_counts()
    set_thread_counts((1,) * len(saved))
    try:
        yield
    finally:
        set_thread_counts(saved)


@functools.cache
def _lapack():
    """(dpotrf, dpotrs) of the first pinned library that exports both, or None."""
    return next((lib.lapack for lib in _libraries() if lib.lapack is not None), None)


def cholesky(G) -> Optional[np.ndarray]:
    """The lower Cholesky factor L of the symmetric matrix G, as
    `scipy.linalg.cho_factor(G, lower=True)[0]` gives it: a Fortran-ordered
    copy of G whose lower triangle holds L and whose strict upper triangle
    keeps G's entries.  None where G is not positive definite (scipy raises
    LinAlgError there); ValueError where G holds an inf or a NaN."""
    c = np.array(np.asarray_chkfinite(G), dtype=np.float64, order="F")
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {c.shape}")
    lapack = _lapack()
    if lapack is None:
        import scipy.linalg

        try:
            return scipy.linalg.cho_factor(c, lower=True, check_finite=False)[0]
        except scipy.linalg.LinAlgError:
            return None
    n, ld, info = ctypes.c_int(c.shape[0]), ctypes.c_int(max(1, c.shape[0])), ctypes.c_int(0)
    lapack[0](b"L", n, c.ctypes.data, ld, info, 1)
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of potrf")
    return c if info.value == 0 else None


def cholesky_solve(c: np.ndarray, b) -> np.ndarray:
    """x with L L^T x = b for a factor c from `cholesky` and a vector b, as
    `scipy.linalg.cho_solve((c, True), b)` gives it; ValueError where b
    holds an inf or a NaN."""
    x = np.array(np.asarray_chkfinite(b), dtype=np.float64)
    if c.dtype != np.float64 or not c.flags.f_contiguous or c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("expected a factor from cholesky")
    if x.shape != c.shape[:1]:
        raise ValueError(f"incompatible dimensions ({c.shape} and {x.shape})")
    lapack = _lapack()
    if lapack is None:
        import scipy.linalg

        return scipy.linalg.cho_solve((c, True), x, check_finite=False)
    n, ld, one, info = ctypes.c_int(c.shape[0]), ctypes.c_int(max(1, c.shape[0])), ctypes.c_int(1), ctypes.c_int(0)
    lapack[1](b"L", n, one, c.ctypes.data, ld, x.ctypes.data, ld, info, 1)
    if info.value != 0:
        raise ValueError(f"illegal value in argument {-info.value} of potrs")
    return x
