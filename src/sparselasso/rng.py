"""Counter-based random streams built on the splitmix64 finalizer.

Every random quantity in the sampling layer is a pure function of
(key, counter), so draws are order-independent and trivially parallel:
the bits for matrix entry (i, j) depend only on the stream key and the
packed counter i * 2^32 + j, never on how many entries were drawn before
it.  Keys for distinct purposes (Bernoulli pattern, Gaussian values,
noise, ...) are derived from a user seed plus an ascii tag, so the
pattern and value streams of a matrix are independent.

Normals use the inverse CDF applied to a uniform built from the top 53
bits m of a word as m * 2^-53 + 2^-54.  Below 1/2 that is exact, an odd
multiple of 2^-54; above 1/2 the sum is a tie that rounds to even, so
the uniform lies on the 2^-53 grid (two adjacent m share each value).
The 2^11 words with m = 2^52, whose sum rounds to exactly 1/2, move to
1/2 + 2^-53, and the 2^11 with m = 2^53 - 1, whose sum rounds to 1, move
to 1 - 2^-53: values no other word gives.  So a uniform is never 0, 1/2
or 1, and a normal is never zero or infinite.

The inverse CDF is scipy's `ndtri` ufunc, taken from the extension module
`scipy.special._ufuncs` without running `scipy/special/__init__.py`, which
loads scipy's array-API shim (about 280 modules and 20 MB) that nothing
here uses; `_load_ndtri` has the details.
"""

from __future__ import annotations

import _imp
import importlib
import importlib.machinery
import os
import sys
import types

import numpy as np
import scipy


def _real_special(name: str):
    """`name` of the real scipy.special, imported on first use."""
    return getattr(importlib.import_module("scipy.special"), name)


def _load_ndtri():
    """scipy's ndtri ufunc, the object `scipy.special.ndtri` is.

    Unless scipy.special is already imported, it is taken from
    `scipy.special._ufuncs` by `_ufuncs_ndtri`.  The global import lock is
    held from the check to the stub's removal, so no other thread starts
    importing the package in between or gets the stub.  Where that route
    fails, ndtri comes from `from scipy.special import ndtri`: a scipy whose
    extension modules import more of the package finds the stub bare, an
    ImportError or, for a name read off the stub, an AttributeError.
    """
    _imp.acquire_lock()
    try:
        if "scipy.special" not in sys.modules:
            return _ufuncs_ndtri()
    except (ImportError, AttributeError):
        pass
    finally:
        _imp.release_lock()
    from scipy.special import ndtri

    return ndtri


def _ufuncs_ndtri():
    """ndtri from `scipy.special._ufuncs`, imported (with _ufuncs_cxx,
    _special_ufuncs, _gufuncs and _ellip_harm_2) under a bare package stub
    that stands in sys.modules for scipy.special and is taken out again.

    A later `import scipy.special` runs the real __init__, which reuses these
    extension modules.  Only importing a package through the import system
    sets it as an attribute of its parent, so `scipy.special` is never the
    stub, and scipy's module __getattr__ still imports the real package on
    first read.  The caller holds the global import lock, and the stub's
    spec is marked as initializing, so another thread's `import scipy.special`
    waits for the lock and then imports the real package; a thread that got
    the stub from `from scipy.special import name` reads the package through
    the stub's __getattr__.  Checked with scipy on Python 3.11 only.
    """
    stub = types.ModuleType("scipy.special")
    stub.__path__ = [os.path.join(os.path.dirname(scipy.__file__), "special")]
    stub.__package__ = stub.__name__
    stub.__spec__ = importlib.machinery.ModuleSpec(stub.__name__, None, is_package=True)
    stub.__spec__.submodule_search_locations = stub.__path__
    stub.__spec__._initializing = True
    sys.modules[stub.__name__] = stub
    try:
        from scipy.special._ufuncs import ndtri

        return ndtri
    finally:
        if sys.modules.get(stub.__name__) is stub:
            del sys.modules[stub.__name__]
        stub.__getattr__ = _real_special


ndtri = _load_ndtri()

# splitmix64's constants as Python ints, for scalar words, and as uint64
# scalars, for arrays.
_MASK64 = (1 << 64) - 1
_PHI_INT, _MIX1_INT, _MIX2_INT = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_PHI, _MIX1, _MIX2 = np.uint64(_PHI_INT), np.uint64(_MIX1_INT), np.uint64(_MIX2_INT)

# Stream tags (ascii), xored into the key chain one per derivation step.
TAG_PATTERN = 0x5041545445524E  # "PATTERN"
TAG_VALUE = 0x56414C5545  # "VALUE"
TAG_NOISE = 0x4E4F495345  # "NOISE"
TAG_SIGNS = 0x5349474E53  # "SIGNS"
TAG_TRIAL = 0x545249414C  # "TRIAL"
TAG_THIN = 0x5448494E  # "THIN"

# kept_blocks hashes an n x q column range in row blocks of
# max(1, BLOCK_ENTRIES // q) rows, so its one (3, block) uint64 array (the
# pre-mixed template, the words and the finalizer's scratch) and its bool
# mask hold at most max(BLOCK_ENTRIES, q) entries each: 25 * max(2^15, q)
# bytes, about 0.8 MB while q <= 2^15, but a whole row beyond that.  Only
# the kept indices of one block are handed out at a time.  2^16 hashed as
# fast and held twice the memory; 2^17 was slower.
BLOCK_ENTRIES = 1 << 15

# draw_in_place works DRAW_CHUNK entries at a time, so beyond the buffer it
# overwrites it holds one chunk-sized (128 KiB) uint64 scratch buffer.
DRAW_CHUNK = 1 << 14


def _finalize(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """splitmix64 output finalizer; bijective on 64-bit words.

    The words of the uint64 array z are mixed in place, with `scratch`, a
    uint64 array shaped like z, holding the shifted words, and z is
    returned, so no temporary is allocated.
    """
    for shift, mult in ((np.uint64(30), _MIX1), (np.uint64(27), _MIX2), (np.uint64(31), None)):
        np.bitwise_xor(z, np.right_shift(z, shift, out=scratch), out=z)
        if mult is not None:
            np.multiply(z, mult, out=z)
    return z


def _finalize_word(z: int) -> int:
    """_finalize on one word held in a Python int, without numpy scalar arithmetic."""
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK64
    return z ^ (z >> 31)


def derive_key(seed: int, *tags: int) -> int:
    """Derive a stream key from a seed and a chain of tag words.

    The chain is a sequence of bijective absorption steps, so for a fixed
    seed and tag prefix, distinct final tags give distinct keys.
    """
    h = _finalize_word(((seed & _MASK64) + _PHI_INT) & _MASK64)
    for tag in tags:
        h = _finalize_word(((h + _PHI_INT) & _MASK64) ^ (tag & _MASK64))
    return h


def bits_at(key: int, counters: np.ndarray) -> np.ndarray:
    """64-bit words of the stream `key` at the given counters (uint64 array).

    The word at counter c is the finalized key + PHI * (c + 1) mod 2^64,
    computed as PHI * c + (key + PHI) into a fresh array; `counters` is
    left untouched.
    """
    return _mix(key, np.asarray(counters, dtype=np.uint64))


def _mix(key: int, counters: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """bits_at's words at uint64 `counters`, formed in `out` (a fresh array
    when None) with `scratch` as the finalizer's scratch buffer."""
    z = np.multiply(counters, _PHI, out=out)
    z += np.uint64((key + _PHI_INT) & _MASK64)
    return _finalize(z, np.empty_like(z) if scratch is None else scratch)


def kept_blocks(key: int, n: int, j0: int, j1: int, prob: float):
    """Yield (r0, r1, flat) for each block of rows [r0, r1) of the column
    range [j0, j1) (j1 < 2^32) of the n-row grid, in row order: flat holds the
    ascending indices (i - r0) * q + (j - j0), q = j1 - j0, of the block's
    entries (i, j) kept with probability `prob`, those whose word
    bits_at(key, (i << 32) | j) is below bernoulli_threshold(prob).
    prob == 1 keeps every entry unhashed.

    Blocks hold rows_per_block = max(1, BLOCK_ENTRIES // q) rows.  As j < 2^32
    the packed counter is a sum, so the pre-mix word key + PHI * (counter + 1)
    of entry (i, j) in block b equals the word of entry (i - b * rows_per_block,
    j) in block 0 plus b * PHI * (rows_per_block << 32).  Block 0's words are
    computed once as a template; each block is then one scalar add of the
    template into a reused buffer, mixed and compared in place.
    """
    q = j1 - j0
    rows_per_block = max(1, BLOCK_ENTRIES // max(q, 1))
    if prob == 1.0:
        for r0 in range(0, n, rows_per_block):
            r1 = min(n, r0 + rows_per_block)
            yield r0, r1, np.arange((r1 - r0) * q, dtype=np.int64)
        return
    threshold = np.uint64(bernoulli_threshold(prob))
    rows = np.arange(min(n, rows_per_block), dtype=np.uint64)
    buffers = np.empty((3, rows.size * q), dtype=np.uint64)
    template, words, scratch = buffers
    row_words = ((rows << np.uint64(32)) + np.uint64(j0 + 1)) * _PHI + np.uint64(key)
    np.add(row_words[:, None], np.arange(q, dtype=np.uint64) * _PHI, out=template.reshape(rows.size, q))
    below = np.empty(template.shape, dtype=bool)
    block_step = (_PHI_INT * (rows_per_block << 32)) & _MASK64
    for b, r0 in enumerate(range(0, n, rows_per_block)):
        r1 = min(n, r0 + rows_per_block)
        size = (r1 - r0) * q
        z = np.add(template[:size], np.uint64(b * block_step & _MASK64), out=words[:size])
        yield r0, r1, np.flatnonzero(np.less(_finalize(z, scratch[:size]), threshold, out=below[:size]))


def draw_in_place(key: int, words: np.ndarray) -> np.ndarray:
    """Overwrite the C-contiguous uint64 counters `words`, DRAW_CHUNK entries
    at a time, with the stream `key`'s standard normals at those counters;
    returns them as a float64 view of `words`."""
    flat = words.reshape(-1)
    scratch = np.empty(min(flat.size, DRAW_CHUNK), dtype=np.uint64)
    for lo in range(0, flat.size, DRAW_CHUNK):
        z = flat[lo : lo + DRAW_CHUNK]
        _mix(key, z, z, scratch[: z.size])
        z >>= np.uint64(11)
        u = np.multiply(z, 2.0**-53, out=scratch[: z.size].view(np.float64))
        u += 2.0**-54
        np.minimum(u, 1.0 - 2.0**-53, out=u)
        u[u == 0.5] = 0.5 + 2.0**-53
        ndtri(u, out=z.view(np.float64))
    return words.view(np.float64)


def normals_at(key: int, counters: np.ndarray) -> np.ndarray:
    """Standard normals at the given counters (fixed inverse-CDF method)."""
    return draw_in_place(key, np.array(counters, dtype=np.uint64, order="C"))


def bernoulli_threshold(prob: float) -> int:
    """uint64 threshold t such that (bits < t) has probability `prob`.

    prob must be in [0, 1): no uint64 threshold passes every word, so
    kept_blocks keeps every entry for prob == 1 without hashing.  The
    product prob * 2^64 is an exact float scaling of the 53-bit mantissa,
    so the threshold is platform-independent.
    """
    if not 0.0 <= prob < 1.0:
        raise ValueError("bernoulli_threshold requires 0 <= prob < 1")
    return int(prob * 2.0**64)
