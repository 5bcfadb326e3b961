import dataclasses
import io
import math
import re
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sparselasso import (
    DataError,
    EnsembleSpec,
    LassoConfig,
    Margins,
    ParameterError,
    SignalSpec,
    WitnessReport,
    build,
    h_vector,
    lambda_schedule,
    make_signal,
    noise_vector,
    observe,
    read_matrix,
    sample_matrix,
    signed_support,
    singular_extremes,
    solve,
    thinned_squared_norm,
)
from sparselasso import blas, rng, witness
from sparselasso.ensemble import sample_blocks
from sparselasso.witness import build_sampled

from oracles import dual_identity_check, same_bytes


def _matrix(n, p, entries, gamma=1.0, convention="standard"):
    """Hand-built matrix through the serialization parser."""
    lines = [f"{n} {p} {gamma!r} {convention} 0"]
    lines += [f"{r} {c} {v!r}" for r, c, v in entries]
    return read_matrix(io.StringIO("\n".join(lines) + "\n"))


def _scaled_identity(n, p):
    """Columns sqrt(n) * e_j, so the support gram block is exactly I."""
    root = math.sqrt(n)
    assert root == int(root)
    return _matrix(n, p, [(j, j, root) for j in range(p)])


def test_orthonormal_design_zero_noise():
    m = _scaled_identity(16, 6)
    s = SignalSpec(p=6, k=3, beta_min=0.5, sign_pattern="all_plus")
    r = build(m, s, np.zeros(16), lam=0.1)
    assert r.invertible
    assert np.array_equal(r.u, [-0.1, -0.1, -0.1])
    assert np.array_equal(r.va, np.zeros(3))
    assert np.array_equal(r.vb, np.zeros(3))
    assert r.margins == Margins(dual=0.1, magnitude=0.4, sign=0.4)
    assert r.event_v and r.event_u and r.sign_consistent and r.success


def test_zero_off_support_column():
    # column 3 has no entries at all, so both dual parts vanish there
    m = _matrix(16, 6, [(j, j, 4.0) for j in range(3)] + [(0, 4, 1.0), (1, 5, 2.0)])
    s = SignalSpec(p=6, k=3, beta_min=1.0, sign_pattern="all_plus")
    w = noise_vector(16, 0.04, 11)
    r = build(m, s, w, lam=0.2)
    assert r.va[0] == 0.0
    assert r.vb[0] == 0.0


def test_non_invertible_support():
    # column 1 duplicates column 0, so the support gram block is singular
    ent = [(i, 0, float(i + 1)) for i in range(5)]
    ent += [(i, 1, float(i + 1)) for i in range(5)]
    ent += [(i, 2, float(2 * i + 1)) for i in range(5)]
    ent += [(0, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0)]
    m = _matrix(5, 6, ent)
    s = SignalSpec(p=6, k=3, beta_min=1.0, sign_pattern="all_plus")
    r = build(m, s, np.zeros(5), lam=0.1)
    assert r == WitnessReport(invertible=False)
    with pytest.raises(ParameterError):
        h_vector(m, s)


_RAMP = np.arange(1.0, 6.0)


@pytest.mark.parametrize(
    "support, factorizes",
    [
        # 1e-5 off collinear: the factorization succeeds, but the last pivot
        # squared (about 1.1e-11) is far below the floor 1e-10 * 11.
        (np.column_stack([_RAMP, _RAMP + 1e-5 * np.eye(5)[4]]), True),
        (np.column_stack([_RAMP, np.zeros(5)]), False),
        (np.zeros((5, 2)), False),
    ],
    ids=["near_collinear", "zero_column", "zero_support"],
)
def test_singular_support_is_rejected(support, factorizes):
    gram = support.T @ support / 5
    if factorizes:
        scipy.linalg.cho_factor(gram, lower=True)  # so the pivot floor is what rejects it
    else:
        with pytest.raises(scipy.linalg.LinAlgError):
            scipy.linalg.cho_factor(gram, lower=True)
    dense = np.column_stack([support, np.eye(5)[:, :2]])
    m = _matrix(5, 4, [(i, j, float(v)) for (i, j), v in np.ndenumerate(dense) if v])
    s = SignalSpec(p=4, k=2, beta_min=1.0, sign_pattern="all_plus")
    r = build(m, s, np.zeros(5), lam=0.1)
    assert r.invertible is False and r.success is False
    with pytest.raises(ParameterError, match="support gram block is singular"):
        h_vector(m, s)


def test_build_input_validation():
    m = _scaled_identity(16, 6)
    s = SignalSpec(p=6, k=3, beta_min=0.5)
    with pytest.raises(ParameterError):
        build(m, s, np.zeros(16), lam=0.0)
    with pytest.raises(ParameterError):
        build(m, s, np.zeros(15), lam=0.1)
    with pytest.raises(ParameterError):
        build(m, SignalSpec(p=8, k=3, beta_min=0.5), np.zeros(16), lam=0.1)


_GRAM_MESSAGE = "support Gram X_S^T X_S / n contains non-finite values"


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "column, message",
    [(1, _GRAM_MESSAGE), (4, "off-support dual va + vb contains non-finite values")],
    ids=["support", "off_support"],
)
def test_non_finite_value_is_a_data_error(bad, column, message):
    # read_matrix rejects such a value; a matrix built in code can still
    # carry one, and the witness reports the product it spoils as bad data
    m = _scaled_identity(16, 6)
    values = m.values.copy()
    values[column] = bad  # the scaled identity stores column j's entry at index j
    m = dataclasses.replace(m, values=values)
    s = SignalSpec(p=6, k=3, beta_min=0.5)
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        build(m, s, np.zeros(16), lam=0.1)
    if column < s.k:
        with pytest.raises(DataError, match=f"^{re.escape(_GRAM_MESSAGE)}$"):
            h_vector(m, s)


def _events_at(u, v, signs, lam=0.25, beta_min=0.5):
    """The events of a witness with support error u, off-support dual v and
    signal signs, at lam and beta_min, as build evaluates them."""
    u, v, signs = (np.asarray(a, dtype=np.float64) for a in (u, v, signs))
    return witness._events(witness._margins(u, v, lam, beta_min, signs))


def test_event_boundaries():
    # dual exactly at lam: the strict inequality fails
    ev = _events_at(u=[0.0, 0.0], v=[0.25, 0.1, 0.0], signs=[1.0, 1.0])
    assert not ev.event_v
    assert ev.event_u and ev.sign_consistent
    assert not ev.success

    # error exactly at -beta_min: magnitude event holds (non-strict) but
    # the sign flips to zero, which does not count as recovery
    ev = _events_at(u=[-0.5, 0.0], v=[0.01, 0.0, 0.0], signs=[1.0, 1.0])
    assert ev.event_v
    assert ev.event_u
    assert not ev.sign_consistent
    assert not ev.success

    # clean interior point
    ev = _events_at(u=[0.0, 0.0], v=[0.0, 0.0, 0.0], signs=[1.0, 1.0])
    assert ev == (True, True, True, True)


def test_va_linear_in_lam_and_vb_independent():
    m = sample_matrix(EnsembleSpec(n=50, p=12, gamma=0.6, convention="rescaled"), seed=31)
    s = SignalSpec(p=12, k=4, beta_min=1.0, sign_pattern="alternating")
    w = noise_vector(50, 0.0625, 9)
    lam = 0.17
    r1 = build(m, s, w, lam)
    r2 = build(m, s, w, 2 * lam)
    assert np.array_equal(r2.va, 2.0 * r1.va)
    assert np.array_equal(r2.vb, r1.vb)


def test_margin_ordering_invariant():
    # the magnitude margin never exceeds the sign margin
    for seed in range(12):
        m = sample_matrix(EnsembleSpec(n=40, p=10, gamma=0.5, convention="rescaled"), seed=600 + seed)
        s = SignalSpec(p=10, k=3, beta_min=1.0, sign_pattern="seeded_random", sign_seed=seed)
        w = noise_vector(40, 0.0625, 700 + seed)
        r = build(m, s, w, 0.25)
        if r.invertible:
            assert r.margins.magnitude <= r.margins.sign + 1e-15


def test_frozen_instance():
    m = sample_matrix(EnsembleSpec(n=40, p=10, gamma=0.5, convention="rescaled"), seed=101)
    s = SignalSpec(p=10, k=3, beta_min=1.0, sign_pattern="alternating")
    w = noise_vector(40, 0.0625, 5)
    r = build(m, s, w, 0.25)
    assert r.invertible and r.success
    assert r.margins.dual == pytest.approx(0.082983428999138853, rel=1e-10)
    assert r.margins.magnitude == pytest.approx(0.51960834813777135, rel=1e-10)
    assert r.margins.sign == pytest.approx(0.51960834813777135, rel=1e-10)
    expected_u = [-0.4803916518622286, 0.16062473996046681, -0.20707689520686948]
    assert np.allclose(r.u, expected_u, rtol=1e-10, atol=0)


@pytest.mark.parametrize("seed", range(30))
def test_verdict_matches_full_solve(seed):
    m = sample_matrix(EnsembleSpec(n=40, p=10, gamma=0.5, convention="rescaled"), seed=200 + seed)
    s = SignalSpec(p=10, k=3, beta_min=1.0, sign_pattern="seeded_random", sign_seed=seed)
    w = noise_vector(40, 0.0625, 300 + seed)
    r = build(m, s, w, 0.25)
    if not r.invertible or min(abs(x) for x in r.margins) <= 1e-6:
        pytest.skip("instance sits on a decision boundary")
    y = m.to_csr() @ make_signal(s) + w
    sol = solve(m, y, LassoConfig(lam=0.25, tol=1e-10))
    assert sol.converged
    recovered = np.array_equal(
        signed_support(sol.beta_hat, 1e-6), signed_support(make_signal(s))
    )
    assert recovered == r.success


@st.composite
def _small_shapes(draw):
    """(n, p, k) with 8 <= p <= 40, 1 <= k <= p/2 and k <= n <= 80."""
    p = draw(st.integers(8, 40))
    k = draw(st.integers(1, p // 2))
    return draw(st.integers(k, 80)), p, k


@settings(max_examples=100, deadline=None)
@example(shape=(80, 16, 2), gamma=1.0, convention="standard", pattern="all_plus", sigma2=0.0, seed=1, noise_seed=2)  # success
@example(shape=(20, 40, 10), gamma=0.3, convention="rescaled", pattern="all_plus", sigma2=0.25, seed=3, noise_seed=4)  # failure
@given(
    shape=_small_shapes(),
    gamma=st.sampled_from([0.3, 0.6, 1.0]),
    convention=st.sampled_from(["standard", "rescaled"]),
    pattern=st.sampled_from(["all_plus", "alternating"]),
    sigma2=st.sampled_from([0.0, 0.01, 0.25]),
    seed=st.integers(0, 2**32),
    noise_seed=st.integers(0, 2**32),
)
def test_verdict_matches_converged_solve_away_from_the_boundary(shape, gamma, convention, pattern, sigma2, seed, noise_seed):
    """Wherever the support block is invertible, the dual margin is at least
    1e-3 lam and the sign margin at least 1e-3 in size, the witness says
    success exactly when the converged Lasso recovers the signed support."""
    n, p, k = shape
    m = sample_matrix(EnsembleSpec(n=n, p=p, gamma=gamma, convention=convention), seed)
    s = SignalSpec(p=p, k=k, sign_pattern=pattern)
    lam = lambda_schedule(n, p, k)
    obs = observe(m, make_signal(s), sigma2, noise_seed)
    r = build(m, s, obs.w, lam)
    assume(r.invertible and abs(r.margins.dual) >= 1e-3 * lam and abs(r.margins.sign) >= 1e-3)
    sol = solve(m, obs.y, LassoConfig(lam=lam, tol=1e-12))
    assert sol.converged
    assert np.array_equal(signed_support(sol.beta_hat), signed_support(make_signal(s))) == r.success


def test_dual_identity_check():
    m = sample_matrix(EnsembleSpec(n=60, p=16, gamma=0.5, convention="rescaled"), seed=7)
    s = SignalSpec(p=16, k=4, beta_min=1.0, sign_pattern="all_plus")
    w = noise_vector(60, 0.01, 3)
    lam = 0.3
    y = m.to_csr() @ make_signal(s) + w
    sol = solve(m, y, LassoConfig(lam=lam, tol=1e-12))
    assert dual_identity_check(m, s, w, lam, sol) <= 1e-5

    # zero noise: the projected-noise part is exactly zero and the
    # remaining deviation is pure solver error
    w0 = np.zeros(60)
    r0 = build(m, s, w0, lam)
    assert np.all(r0.vb == 0.0)
    y0 = m.to_csr() @ make_signal(s)
    sol0 = solve(m, y0, LassoConfig(lam=lam, tol=1e-12))
    assert dual_identity_check(m, s, w0, lam, sol0) <= 1e-5


def test_dual_identity_check_preconditions():
    m = sample_matrix(EnsembleSpec(n=60, p=16, gamma=0.5, convention="rescaled"), seed=7)
    s = SignalSpec(p=16, k=4, beta_min=1.0, sign_pattern="all_plus")
    w = noise_vector(60, 0.01, 3)
    lam = 0.3
    y = m.to_csr() @ make_signal(s) + w

    # unconverged solution
    shallow = solve(m, y, LassoConfig(lam=lam, max_iter=1))
    assert not shallow.converged
    with pytest.raises(ParameterError):
        dual_identity_check(m, s, w, lam, shallow)

    # witness failure: noise so large the dual event cannot hold
    w_big = noise_vector(60, 25.0, 3)
    r_big = build(m, s, w_big, lam)
    assert not r_big.success
    y_big = m.to_csr() @ make_signal(s) + w_big
    sol_big = solve(m, y_big, LassoConfig(lam=lam, tol=1e-12))
    with pytest.raises(ParameterError):
        dual_identity_check(m, s, w_big, lam, sol_big)


def test_solver_dual_matches_witness_dual():
    # At the solver's optimum the off-support stationarity vector
    # (1/n) X^T (y - X beta_hat) must reproduce va + vb.
    m = sample_matrix(EnsembleSpec(n=60, p=16, gamma=0.5, convention="rescaled"), seed=7)
    s = SignalSpec(p=16, k=4, beta_min=1.0, sign_pattern="all_plus")
    w = noise_vector(60, 0.01, 3)
    lam = 0.3
    r = build(m, s, w, lam)
    assert r.success and min(r.margins) > 1e-6
    y = m.to_csr() @ make_signal(s) + w
    sol = solve(m, y, LassoConfig(lam=lam, tol=1e-12))
    X = m.to_csr()
    solver_dual = (X.T @ (y - X @ sol.beta_hat) / m.spec.n)[s.k :]
    assert np.abs(solver_dual - (r.va + r.vb)).max() <= 1e-6


def test_convention_coupling_preserves_witness():
    # Rescaling the matrix by 1/sqrt(gamma) while sending
    # (w, lam) -> (w/sqrt(gamma), lam/gamma) leaves u untouched and
    # scales both dual parts by 1/gamma, so every verdict is unchanged.
    gamma = 0.25
    m_std = sample_matrix(EnsembleSpec(n=50, p=12, gamma=gamma, convention="standard"), seed=13)
    m_res = sample_matrix(EnsembleSpec(n=50, p=12, gamma=gamma, convention="rescaled"), seed=13)
    s = SignalSpec(p=12, k=4, beta_min=1.0, sign_pattern="alternating")
    w = noise_vector(50, 0.0625, 21)
    lam = 0.2
    r_std = build(m_std, s, w, lam)
    r_res = build(m_res, s, w * 2.0, lam / gamma)  # 1/sqrt(0.25) = 2 exactly
    assert r_std.invertible and r_res.invertible
    assert np.allclose(r_res.u, r_std.u, rtol=1e-10, atol=1e-14)
    assert np.allclose(r_res.va, r_std.va / gamma, rtol=1e-9, atol=1e-14)
    assert np.allclose(r_res.vb, r_std.vb / gamma, rtol=1e-9, atol=1e-14)
    assert (r_res.event_v, r_res.event_u, r_res.sign_consistent, r_res.success) == (
        r_std.event_v,
        r_std.event_u,
        r_std.sign_consistent,
        r_std.success,
    )


def test_h_vector_single_column():
    m = _matrix(8, 2, [(0, 0, 2.5), (1, 1, 1.0)])
    s = SignalSpec(p=2, k=1, beta_min=1.0)
    h = h_vector(m, s)
    assert h[0] == pytest.approx(1.0 / 2.5, rel=1e-12)
    assert np.array_equal(h[1:], np.zeros(7))


def test_h_vector_orthonormal_is_row_sums():
    m = _scaled_identity(16, 6)
    s = SignalSpec(p=6, k=3, beta_min=1.0)
    h = h_vector(m, s)
    Xs = m.to_csr()[:, :3].toarray()
    assert np.array_equal(h, Xs.sum(axis=1) / 16.0)


@st.composite
def _extremes_shapes(draw):
    """(n, p, k) with 1 <= k <= min(n, p)."""
    n, p = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    return n, p, draw(st.integers(1, min(n, p)))


@settings(max_examples=80, deadline=None)
@example(shape=(7, 3, 3), gamma=1.0, convention="standard", seed=1)  # gamma = 1, k = p < n
@example(shape=(4, 9, 4), gamma=0.5, convention="rescaled", seed=2)  # k = n < p
@given(
    shape=_extremes_shapes(),
    gamma=st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.just(1.0)),
    convention=st.sampled_from(["standard", "rescaled"]),
    seed=st.integers(0, 2**64 - 1),
)
def test_singular_extremes_equal_the_svd_of_the_csr_columns(shape, gamma, convention, seed):
    """(s_min, s_max) are the extreme singular values of the first k CSR
    columns, densified by scipy and divided by sqrt(n), byte for byte."""
    n, p, k = shape
    m = sample_matrix(EnsembleSpec(n=n, p=p, gamma=gamma, convention=convention), seed)
    with blas.single_threaded():
        s = np.linalg.svd(m.to_csr()[:, :k].toarray(), compute_uv=False)
    want = np.array([s[-1], s[0]]) / math.sqrt(n)
    assert same_bytes(np.array(singular_extremes(m, k)), want)


def test_thinned_squared_norm():
    rng = np.random.default_rng(77)
    h = rng.standard_normal(4000) / 100.0
    full = float(h @ h)
    assert thinned_squared_norm(h, 1.0, seed=1) == full
    a = thinned_squared_norm(h, 0.5, seed=42)
    assert a == thinned_squared_norm(h, 0.5, seed=42)
    assert 0.0 < a < full
    # thinning keeps each term with probability gamma, so the average
    # retained mass over many independent thinnings is close to gamma
    ratios = [thinned_squared_norm(h, 0.5, seed=s) / full for s in range(200)]
    assert abs(np.mean(ratios) - 0.5) < 0.05
    with pytest.raises(ParameterError):
        thinned_squared_norm(h, 0.0, seed=1)
    with pytest.raises(ParameterError):
        thinned_squared_norm(h, 1.5, seed=1)


@pytest.mark.parametrize("gamma", [1e-3, 0.085, 0.5, 0.97, 1.0])
@pytest.mark.parametrize("size", [0, 1, 70_001])
def test_thinned_squared_norm_matches_unblocked_rule(gamma, size):
    """Same float as thresholding bits_at over all of h at once, with gamma = 1
    keeping everything; an empty h has norm 0.0."""
    h = np.random.default_rng(size).standard_normal(size)
    if gamma == 1.0:
        kept = h
    else:
        bits = rng.bits_at(rng.derive_key(5, rng.TAG_THIN), np.arange(size, dtype=np.uint64))
        kept = h[bits < np.uint64(rng.bernoulli_threshold(gamma))]
    assert thinned_squared_norm(h, gamma, seed=5) == float(kept @ kept)


def _slab_entries(slabs):
    """(rows, cols, values) of row slabs (r0, indptr, indices, values), concatenated."""
    rows, cols, values = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for r0, indptr, indices, vals in slabs:
        rows.append(r0 + np.repeat(np.arange(indptr.size - 1), np.diff(indptr)))
        cols.append(indices)
        values.append(vals)
    return tuple(np.concatenate(a) for a in (rows, cols, values))


@st.composite
def _shapes(draw):
    """(n, p, k, j0, j1): k <= p/2, possibly above n, and a column range [j0, j1)."""
    n, p = draw(st.integers(1, 40)), draw(st.integers(2, 60))
    j0 = draw(st.integers(0, p - 1))
    return n, p, draw(st.integers(1, p // 2)), j0, draw(st.integers(j0 + 1, p))


@settings(max_examples=80, deadline=None)
@example(shape=(3, 12, 6, 2, 9), gamma=0.7, convention="rescaled", seed=4, block_entries=5, draw_chunk=3)  # n < k
@example(shape=(4, 70_001, 2, 1, 70_001), gamma=1.0, convention="standard", seed=2, block_entries=rng.BLOCK_ENTRIES, draw_chunk=rng.DRAW_CHUNK)
@given(
    shape=_shapes(),
    gamma=st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.just(1.0)),
    convention=st.sampled_from(["standard", "rescaled"]),
    seed=st.integers(0, 2**64 - 1),
    block_entries=st.integers(1, 300),
    draw_chunk=st.integers(1, 60),
)
def test_build_sampled_equals_build_on_the_sampled_matrix(shape, gamma, convention, seed, block_entries, draw_chunk):
    """Hash blocks of one row or many, a partial last block, slabs of one
    hash block or several, rows longer than a block at the real sizes,
    n < k (a singular support block) and gamma = 1 all give the matrix
    route's report, bit for bit, and sample_blocks gives the matrix's own
    entries of any column range."""
    n, p, k, j0, j1 = shape
    spec = EnsembleSpec(n=n, p=p, gamma=gamma, convention=convention)
    sig = SignalSpec(p=p, k=k, sign_pattern="alternating")
    w = noise_vector(n, 0.25, seed)
    with mock.patch.object(rng, "BLOCK_ENTRIES", block_entries), mock.patch.object(rng, "DRAW_CHUNK", draw_chunk):
        m = sample_matrix(spec, seed)
        want = build(m, sig, w, 0.3)
        got = build_sampled(spec, seed, sig, w, 0.3)
        sampled, cut = _slab_entries(sample_blocks(spec, seed, j0, j1)), _slab_entries(m.row_blocks(j0, j1))
    rows = np.repeat(np.arange(n), np.diff(m.indptr))
    keep = (m.indices >= j0) & (m.indices < j1)
    for a, b, c in zip(sampled, cut, (rows[keep], m.indices[keep], m.values[keep])):
        assert same_bytes(a, b) and same_bytes(a, c)
    for f in dataclasses.fields(WitnessReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a is None and b is None) or (isinstance(a, np.ndarray) and same_bytes(a, b)) or a == b, f.name
    if n < k:
        assert not got.invertible
