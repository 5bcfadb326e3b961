from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselasso import rng


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
@given(
    key=st.integers(0, 2**64 - 1),
    n=st.integers(1, 40),
    p=st.integers(0, 60),
    prob=st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(1.0)),
    block_entries=st.integers(1, 500),
)
def test_kept_entries_equal_thresholded_bits_at_on_packed_counters(key, n, p, prob, block_entries):
    """Any block size, including blocks of one row and a partial last block, keeps the same entries."""
    counters = (np.arange(n, dtype=np.uint64)[:, None] << np.uint64(32)) | np.arange(p, dtype=np.uint64)
    if prob == 1.0:
        expected = np.arange(n * p)
    else:
        expected = np.flatnonzero(rng.bits_at(key, counters) < np.uint64(rng.bernoulli_threshold(prob)))
    with mock.patch.object(rng, "BLOCK_ENTRIES", block_entries):
        kept = rng.kept_entries(key, n, p, prob)
    assert kept.dtype == np.int64
    assert np.array_equal(kept, expected)


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
    mixed = rng._finalize(np.array(words, dtype=np.uint64))
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
    key = rng.derive_key(11, rng.TAG_VALUE)
    u = rng.uniforms_at(key, np.arange(200_000, dtype=np.uint64))
    assert u.min() > 0.0
    assert u.max() < 1.0
    assert not np.any(u == 0.5)
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
