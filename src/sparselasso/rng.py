"""Counter-based random streams built on the splitmix64 finalizer.

Every random quantity in the sampling layer is a pure function of
(key, counter), so draws are order-independent and trivially parallel:
the bits for matrix entry (i, j) depend only on the stream key and the
packed counter i * 2^32 + j, never on how many entries were drawn before
it.  Keys for distinct purposes (Bernoulli pattern, Gaussian values,
noise, ...) are derived from a user seed plus an ascii tag, so the
pattern and value streams of a matrix are independent and can be
re-seeded separately.

Normals use the inverse CDF applied to a 53-bit uniform placed at odd
multiples of 2^-54, which can never be exactly 0, 1, or 1/2; in
particular ndtri never returns an exact zero.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_PHI = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Stream tags (ascii), xored into the key chain one per derivation step.
TAG_PATTERN = 0x5041545445524E  # "PATTERN"
TAG_VALUE = 0x56414C5545  # "VALUE"
TAG_NOISE = 0x4E4F495345  # "NOISE"
TAG_SIGNS = 0x5349474E53  # "SIGNS"
TAG_TRIAL = 0x545249414C  # "TRIAL"
TAG_THIN = 0x5448494E  # "THIN"

# kept_entries hashes the grid in row blocks of max(1, BLOCK_ENTRIES // p)
# rows, so its two reused uint64 buffers and its bool mask hold at most
# max(BLOCK_ENTRIES, p) entries each: 17 * max(2^16, p) bytes, a
# cache-sized ~1.1 MB while p <= 2^16, but a whole row beyond that.  The
# kept indices, and the values drawn for them, grow with nnz, as the
# output does.
BLOCK_ENTRIES = 1 << 16

GENERATOR_NAME = "splitmix64"
NORMAL_METHOD = "inverse_cdf"


def _finalize(z: np.ndarray | np.uint64, scratch: np.ndarray | None = None) -> np.ndarray | np.uint64:
    """splitmix64 output finalizer; bijective on 64-bit words.

    Given `scratch`, a uint64 array shaped like the array `z`, the words of
    z are mixed in place (scratch holds the shifted words) and z is
    returned, so no temporary is allocated.
    """
    out = None if scratch is None else z
    for shift, mult in ((np.uint64(30), _MIX1), (np.uint64(27), _MIX2), (np.uint64(31), None)):
        z = np.bitwise_xor(z, np.right_shift(z, shift, out=scratch), out=out)
        if mult is not None:
            z = np.multiply(z, mult, out=out)
    return z


def derive_key(seed: int, *tags: int) -> int:
    """Derive a stream key from a seed and a chain of tag words.

    The chain is a sequence of bijective absorption steps, so for a fixed
    seed and tag prefix, distinct final tags give distinct keys.
    """
    with np.errstate(over="ignore"):
        h = _finalize(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _PHI)
        for tag in tags:
            h = _finalize((h + _PHI) ^ np.uint64(tag & 0xFFFFFFFFFFFFFFFF))
    return int(h)


def bits_at(key: int, counters: np.ndarray) -> np.ndarray:
    """64-bit words of the stream `key` at the given counters (uint64 array)."""
    z = np.array(counters, dtype=np.uint64)
    z += np.uint64(1)
    z *= _PHI
    z += np.uint64(key)
    return _finalize(z, np.empty_like(z))


def kept_entries(key: int, n: int, p: int, prob: float) -> np.ndarray:
    """Ascending flat indices i * p + j of the n x p grid entries (p < 2^32)
    kept with probability `prob`: those whose word bits_at(key, (i << 32) | j)
    is below bernoulli_threshold(prob).  prob == 1 keeps every entry unhashed.

    The grid is hashed in row blocks of max(1, BLOCK_ENTRIES // p) rows.  As
    j < 2^32 the packed counter is a sum, so its pre-mix word
    key + PHI * (counter + 1) is the row term key + PHI * ((i << 32) + 1)
    plus the column term PHI * j: one broadcast add per block into a reused
    buffer, then mixed in place.
    """
    if prob == 1.0:
        return np.arange(n * p, dtype=np.int64)
    threshold = np.uint64(bernoulli_threshold(prob))
    rows_per_block = max(1, BLOCK_ENTRIES // max(p, 1))
    col_words = np.arange(p, dtype=np.uint64) * _PHI
    words = np.empty((min(n, rows_per_block), p), dtype=np.uint64)
    scratch = np.empty_like(words)
    kept = []
    for r0 in range(0, n, rows_per_block):
        r1 = min(n, r0 + rows_per_block)
        rows = np.arange(r0, r1, dtype=np.uint64)
        row_words = ((rows << np.uint64(32)) + np.uint64(1)) * _PHI + np.uint64(key)
        z = np.add(row_words[:, None], col_words, out=words[: r1 - r0])
        flat = np.flatnonzero(_finalize(z, scratch[: r1 - r0]) < threshold)
        flat += r0 * p
        kept.append(flat)
    return np.concatenate(kept)


def uniforms_at(key: int, counters: np.ndarray) -> np.ndarray:
    """Uniforms in the open interval (0, 1) at the given counters."""
    b = bits_at(key, counters)
    b >>= np.uint64(11)
    u = b.astype(np.float64)
    u *= 2.0**-53
    u += 2.0**-54
    return u


def normals_at(key: int, counters: np.ndarray) -> np.ndarray:
    """Standard normals at the given counters (fixed inverse-CDF method)."""
    u = uniforms_at(key, counters)
    return ndtri(u, out=u)


def bernoulli_threshold(prob: float) -> int:
    """uint64 threshold t such that (bits < t) has probability `prob`.

    prob must be in [0, 1): no uint64 threshold passes every word, so
    kept_entries keeps every entry for prob == 1 without hashing.  The
    product prob * 2^64 is an exact float scaling of the 53-bit mantissa,
    so the threshold is platform-independent.
    """
    if not 0.0 <= prob < 1.0:
        raise ValueError("bernoulli_threshold requires 0 <= prob < 1")
    return int(prob * 2.0**64)
