import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from sparselasso import rng

from oracles import run_fresh


def test_derive_key_deterministic():
    assert rng.derive_key(42, rng.TAG_PATTERN) == rng.derive_key(42, rng.TAG_PATTERN)
    assert rng.derive_key(42, rng.TAG_PATTERN) != rng.derive_key(43, rng.TAG_PATTERN)
    assert rng.derive_key(42, rng.TAG_PATTERN) != rng.derive_key(42, rng.TAG_VALUE)


def test_derive_key_chain_order_matters():
    assert rng.derive_key(7, rng.TAG_TRIAL, 3) != rng.derive_key(7, 3, rng.TAG_TRIAL)


def test_derive_key_wraps_to_uint64():
    key = rng.derive_key(2**64 - 1, rng.TAG_NOISE)
    assert 0 <= key < 2**64
    # negative seeds are masked, not rejected: -1 behaves as 2^64 - 1
    assert rng.derive_key(-1, rng.TAG_NOISE) == key


def test_bits_order_independent():
    key = rng.derive_key(5, rng.TAG_VALUE)
    counters = np.arange(1000, dtype=np.uint64)
    batch = rng.bits_at(key, counters)
    shuffled = counters[::-1].copy()
    assert np.array_equal(rng.bits_at(key, shuffled), batch[::-1])
    single = np.array([rng.bits_at(key, np.array([c], dtype=np.uint64))[0] for c in counters[:16]])
    assert np.array_equal(single, batch[:16])


@settings(max_examples=100, deadline=None)
@given(
    key=st.integers(0, 2**64 - 1),
    counters=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300),
    data=st.data(),
)
def test_bits_depend_only_on_key_and_counter(key, counters, data):
    """Any permutation or slice of the counters gets the matching slice of the batch."""
    counters = np.array(counters, dtype=np.uint64)
    batch = rng.bits_at(key, counters)
    perm = np.array(data.draw(st.permutations(range(counters.size))), dtype=np.int64)
    assert np.array_equal(rng.bits_at(key, counters[perm]), batch[perm])
    lo = data.draw(st.integers(0, counters.size))
    hi = data.draw(st.integers(lo, counters.size))
    assert np.array_equal(rng.bits_at(key, counters[lo:hi]), batch[lo:hi])


@settings(max_examples=100, deadline=None)
@example(key=2**64 - 1, n=7, p=10, prob=0.4, block_entries=30)  # 3 rows per block, partial last block
@example(key=12345, n=5, p=60, prob=0.3, block_entries=59)  # p > BLOCK_ENTRIES: one row per block
@example(key=2**63 + 1, n=3, p=70_001, prob=0.05, block_entries=rng.BLOCK_ENTRIES)  # real size, p > BLOCK_ENTRIES
@given(
    key=st.integers(0, 2**64 - 1),
    n=st.integers(1, 40),
    p=st.integers(0, 60),
    prob=st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(1.0)),
    block_entries=st.integers(1, 500),
)
def test_kept_blocks_equal_thresholded_bits_at_on_packed_counters(key, n, p, prob, block_entries):
    """Any block size, including blocks of one row and a partial last block,
    tiles the rows in order and keeps each block's entries by the one rule."""
    counters = (np.arange(n, dtype=np.uint64)[:, None] << np.uint64(32)) | np.arange(p, dtype=np.uint64)
    with mock.patch.object(rng, "BLOCK_ENTRIES", block_entries):
        blocks = list(rng.kept_blocks(key, n, 0, p, prob))
    rows_per_block = max(1, block_entries // max(p, 1))
    assert [(r0, r1) for r0, r1, _ in blocks] == [(r0, min(n, r0 + rows_per_block)) for r0 in range(0, n, rows_per_block)]
    for r0, r1, flat in blocks:
        if prob == 1.0:
            expected = np.arange((r1 - r0) * p)
        else:
            expected = np.flatnonzero(rng.bits_at(key, counters[r0:r1]) < np.uint64(rng.bernoulli_threshold(prob)))
        assert flat.dtype == np.int64
        assert np.array_equal(flat, expected)


_PHI = 0x9E3779B97F4A7C15
_MASK = 2**64 - 1


def _finalize_int(z: int) -> int:
    """rng._finalize on one 64-bit word, in Python integers."""
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@settings(max_examples=200, deadline=None)
@given(
    key=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - _PHI, 2**64 - 1)),
    counters=st.lists(st.one_of(st.integers(0, 2**64 - 1), st.just(2**64 - 1)), min_size=1, max_size=50),
)
def test_bits_at_equals_the_defining_formula(key, counters):
    """bits_at(key, c) is fin((key + PHI * (c + 1)) mod 2^64), also where key + PHI or c + 1 wraps."""
    arr = np.array(counters, dtype=np.uint64)
    before = arr.copy()
    words = rng.bits_at(key, arr)
    assert words.dtype == np.uint64
    assert words.tolist() == [_finalize_int((key + _PHI * (c + 1)) & _MASK) for c in counters]
    assert np.array_equal(arr, before)


@settings(max_examples=50, deadline=None)
@given(key=st.integers(0, 2**64 - 1), counters=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=50))
def test_bits_at_accepts_int64_counters_and_leaves_them_untouched(key, counters):
    arr = np.array(counters, dtype=np.int64)
    before = arr.copy()
    assert np.array_equal(rng.bits_at(key, arr), rng.bits_at(key, arr.astype(np.uint64)))
    assert arr.dtype == np.int64 and np.array_equal(arr, before)


def _finalized(z: np.ndarray) -> np.ndarray:
    """rng._finalize on the uint64 array z, mixed in place with a scratch buffer of its shape."""
    return rng._finalize(z, np.empty_like(z))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(-(2**64), 2**65),
    tags=st.lists(st.integers(-(2**64), 2**65), max_size=3),
)
def test_derive_key_equals_the_chain_on_uint64_words(seed, tags):
    """Each step is fin((h + PHI) ^ tag) on uint64 words, seeds and tags taken mod 2^64."""
    h = _finalized(np.array([(seed + _PHI) & _MASK], dtype=np.uint64))
    for tag in tags:
        h = _finalized((h + np.uint64(_PHI)) ^ np.uint64(tag & _MASK))
    assert rng.derive_key(seed, *tags) == int(h[0])


def _unfinalize(z: int) -> int:
    """Inverse of rng._finalize on one 64-bit word, in Python integers."""
    mask = 2**64 - 1
    for shift, mult in ((31, 0x94D049BB133111EB), (27, 0xBF58476D1CE4E5B9), (30, None)):
        x = z
        for _ in range(64 // shift):  # undo z ^= z >> shift, shift bits per pass
            x = z ^ (x >> shift)
        z = x
        if mult is not None:
            z = (z * pow(mult, -1, 2**64)) & mask
    return z


@settings(max_examples=200, deadline=None)
@given(words=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_finalize_is_inverted_by_unfinalize(words):
    mixed = _finalized(np.array(words, dtype=np.uint64))
    assert [_unfinalize(int(z)) for z in mixed] == words


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    tags=st.lists(st.integers(0, 2**64 - 1), max_size=3),
    tag=st.integers(0, 2**64 - 1),
)
def test_derive_key_step_is_injective(seed, tags, tag):
    """Each derivation step inverts back to the key it absorbed, so distinct inputs give distinct keys."""
    phi = 0x9E3779B97F4A7C15
    assert (_unfinalize(rng.derive_key(seed)) - phi) % 2**64 == seed
    prev = rng.derive_key(seed, *tags)
    assert ((_unfinalize(rng.derive_key(seed, *tags, tag)) ^ tag) - phi) % 2**64 == prev


def test_uniforms_open_interval():
    """The uniforms under the normals lie inside (0, 1) and are never 1/2:
    every normal is finite and non-zero, and maps back to uniform moments."""
    key = rng.derive_key(11, rng.TAG_VALUE)
    z = rng.normals_at(key, np.arange(200_000, dtype=np.uint64))
    assert np.all(np.isfinite(z)) and np.all(z != 0.0)
    u = ndtr(z)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normals_moments_and_nonzero():
    key = rng.derive_key(13, rng.TAG_VALUE)
    z = rng.normals_at(key, np.arange(200_000, dtype=np.uint64))
    assert np.all(z != 0.0)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


@pytest.mark.parametrize(
    "prob,expected",
    [(0.0, 0), (0.5, 2**63), (0.25, 2**62)],
)
def test_bernoulli_threshold_exact_dyadics(prob, expected):
    assert rng.bernoulli_threshold(prob) == expected


def test_bernoulli_threshold_rejects_one():
    with pytest.raises(ValueError):
        rng.bernoulli_threshold(1.0)
    with pytest.raises(ValueError):
        rng.bernoulli_threshold(-0.1)


def test_bernoulli_rate_matches_prob():
    key = rng.derive_key(17, rng.TAG_PATTERN)
    bits = rng.bits_at(key, np.arange(200_000, dtype=np.uint64))
    for prob in (0.1, 0.3, 0.73):
        rate = np.mean(bits < np.uint64(rng.bernoulli_threshold(prob)))
        assert abs(rate - prob) < 0.005, (prob, rate)


def _counter_for(key: int, word: int) -> int:
    """The counter at which stream `key` yields `word`."""
    return ((_unfinalize(word) - key) * pow(_PHI, -1, 2**64) - 1) & _MASK


def test_endpoint_words_stay_inside_the_open_interval():
    """The words whose uniform would round to exactly 1/2 or 1 give a finite, non-zero normal."""
    key = rng.derive_key(11, rng.TAG_VALUE)
    counters = np.array([7936378029797026846, 3900546397066986092], dtype=np.uint64)
    assert (rng.bits_at(key, counters) >> np.uint64(11)).tolist() == [2**52, 2**53 - 1]
    z = rng.normals_at(key, counters)
    assert z.tolist() == ndtri([0.5 + 2.0**-53, 1.0 - 2.0**-53]).tolist()
    assert np.all(np.isfinite(z)) and np.all(z != 0.0)
    assert z[0] > 0.0


def test_only_the_endpoint_words_move():
    """Every other word near 1/2 and 1 keeps the uniform m * 2^-53 + 2^-54 (rounded to nearest even)
    under its normal, in arrays that end just before, at and after a draw chunk, and from int64
    counters, which are left untouched."""
    key = rng.derive_key(3, rng.TAG_NOISE)
    tops = [2**52 - 2, 2**52 - 1, 2**52, 2**52 + 1, 2**52 + 2, 2**53 - 3, 2**53 - 2, 2**53 - 1, 0, 1]
    words = [(m << 11) | low for m in tops for low in (0, 1, 2**11 - 1)]
    counters = np.array([_counter_for(key, w) for w in words], dtype=np.uint64)
    assert rng.bits_at(key, counters).tolist() == words
    moved = {2**52: 0.5 + 2.0**-53, 2**53 - 1: 1.0 - 2.0**-53}
    expected = [moved.get(w >> 11, (w >> 11) * 2.0**-53 + 2.0**-54) for w in words]
    chunk = rng.DRAW_CHUNK
    for size in (chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        tiled, want = np.resize(counters, size), np.resize(expected, size)
        for arr in (tiled, tiled.view(np.int64)):
            before = arr.copy()
            assert np.array_equal(rng.normals_at(key, arr), ndtri(want))
            assert arr.dtype == before.dtype and np.array_equal(arr, before)


@pytest.mark.parametrize("size", [rng.DRAW_CHUNK - 1, rng.DRAW_CHUNK, rng.DRAW_CHUNK + 1])
def test_draw_in_place_overwrites_the_buffer_it_was_given(size):
    key = rng.derive_key(5, rng.TAG_VALUE)
    counters = np.arange(size, dtype=np.uint64) * np.uint64(0x100000001)
    words = counters.copy()
    z = rng.draw_in_place(key, words)
    assert z.dtype == np.float64 and z.shape == words.shape and np.shares_memory(z, words)
    assert z.tobytes() == rng.normals_at(key, counters).tobytes()


# Imports rng by one of three routes and reports how ndtri was loaded and
# the digest of normals at the two endpoint words and 2^16 more counters.
# "stub": nothing else loaded; "preloaded": scipy.special imported first;
# "refused": a finder makes the stub route raise ImportError.  "loaded"
# says whether scipy.special is then in sys.modules and set on scipy.  Every
# ModuleSpec made through importlib.machinery is recorded, so a stub
# counts even if it never reached sys.modules.
_LOAD_SCRIPT = """
import hashlib, importlib.machinery, json, sys
import numpy as np

specs = []
class RecordedSpec(importlib.machinery.ModuleSpec):
    def __init__(self, name, *args, **kwargs):
        specs.append(name)
        super().__init__(name, *args, **kwargs)
importlib.machinery.ModuleSpec = RecordedSpec

refused = []
class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and not hasattr(sys.modules["scipy.special"], "__file__"):
            refused.append(name)
            raise ImportError("the stub route is refused")
        return None

if sys.argv[1] == "preloaded":
    import scipy.special
elif sys.argv[1] == "refused":
    sys.meta_path.insert(0, Refuse())
from sparselasso import rng
loaded = "scipy.special" in sys.modules
attribute = "special" in vars(sys.modules["scipy"])
import scipy.special
assert scipy.special.ndtri is rng.ndtri
key = rng.derive_key(11, rng.TAG_VALUE)
counters = np.concatenate([np.array([7936378029797026846, 3900546397066986092], dtype=np.uint64), np.arange(1 << 16, dtype=np.uint64)])
digest = hashlib.sha256(rng.normals_at(key, counters).tobytes()).hexdigest()
print(json.dumps({"stubs": specs.count("scipy.special"), "refused": len(refused), "loaded": [loaded, attribute], "sha256": digest}))
"""

# The digest _LOAD_SCRIPT prints, recorded when ndtri still came from
# `from scipy.special import ndtri` (scipy 1.17.1).
_NORMALS_SHA256 = "c196285ab89caf609b8a4a18553cc4589f540e0dcfc6a0b4df99ad68cb1ae3b4"


@pytest.mark.parametrize(
    "route, stubs, refused, loaded",
    [("stub", 1, 0, False), ("preloaded", 0, 0, True), ("refused", 1, 1, True)],
)
def test_every_ndtri_load_route_gives_the_same_normals(route, stubs, refused, loaded):
    """ndtri comes from scipy.special._ufuncs under a stub unless scipy.special
    is already imported, when no stub is made, or the stub route fails, when
    the package is imported; the normals are the same bits on every route,
    and rng.ndtri is the package's ndtri once it is imported."""
    got = json.loads(run_fresh("-c", _LOAD_SCRIPT, route))
    assert got == {"stubs": stubs, "refused": refused, "loaded": [loaded, loaded], "sha256": _NORMALS_SHA256}


# Two threads import scipy.special, one with `import scipy.special` and one
# with `from scipy.special import erf`, while the main thread's import of
# rng holds the stub in sys.modules: a finder holds that window open until
# both threads are about to import, and half a second more.
_RACE_SCRIPT = """
import sys, threading, time
import scipy

window = threading.Event()
ready = [threading.Event(), threading.Event()]
got = {}

class HoldOpen:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and not window.is_set():
            assert not hasattr(sys.modules["scipy.special"], "__file__"), "no stub in sys.modules"
            window.set()
            for event in ready:
                event.wait(60)
            time.sleep(0.5)
        return None

def plain():
    import scipy.special
    return scipy.special.ndtri, scipy.special.erf

def from_import():
    from scipy.special import erf, ndtri
    return ndtri, erf

def race(i, imports):
    window.wait(60)
    ready[i].set()
    try:
        got[imports.__name__] = imports()
    except Exception as exc:
        got[imports.__name__] = repr(exc)

threads = [threading.Thread(target=race, args=(i, f), daemon=True) for i, f in enumerate((plain, from_import))]
sys.meta_path.insert(0, HoldOpen())
for t in threads:
    t.start()
from sparselasso import rng
taken = window.is_set()
window.set()
for t in threads:
    t.join(60)
    assert not t.is_alive(), "a thread is still importing"
assert taken, "the stub route was not taken"
import scipy.special
assert got == {name: (rng.ndtri, scipy.special.erf) for name in ("plain", "from_import")}, got
"""


def test_import_of_scipy_special_during_the_stub_gets_the_package():
    """Threads that import scipy.special while the stub stands in for it wait
    for the global import lock and get the real package, whichever import
    statement they use."""
    run_fresh("-c", _RACE_SCRIPT)
