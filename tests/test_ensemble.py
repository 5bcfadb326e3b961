import io
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparselasso import (
    CapacityError,
    DataError,
    EnsembleSpec,
    ParameterError,
    SignalSpec,
    make_signal,
    observe,
    read_matrix,
    rescale_coupled,
    sample_matrix,
    signal_signs,
    write_matrix,
)

from oracles import sample_matrix_unblocked

GOLDEN_MATRIX = pathlib.Path(__file__).parent / "golden" / "matrix_n6_p4_seed3.txt"


def test_spec_validation():
    with pytest.raises(ParameterError):
        EnsembleSpec(n=0, p=4, gamma=0.5)
    with pytest.raises(ParameterError):
        EnsembleSpec(n=4, p=4, gamma=0.0)
    with pytest.raises(ParameterError):
        EnsembleSpec(n=4, p=4, gamma=1.5)
    with pytest.raises(ParameterError):
        EnsembleSpec(n=4, p=4, gamma=0.5, convention="dense")
    with pytest.raises(CapacityError):
        EnsembleSpec(n=2**32, p=1, gamma=0.5)
    with pytest.raises(CapacityError):
        EnsembleSpec(n=2**21, p=2**21, gamma=0.5)


def test_sampling_deterministic():
    spec = EnsembleSpec(n=50, p=30, gamma=0.4)
    a = sample_matrix(spec, seed=123)
    b = sample_matrix(spec, seed=123)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.values, b.values)
    c = sample_matrix(spec, seed=124)
    assert not np.array_equal(a.values, c.values)


def test_pattern_and_values_independent():
    spec = EnsembleSpec(n=50, p=30, gamma=0.4)
    a = sample_matrix(spec, seed=123)
    b = sample_matrix(spec, seed=123, value_seed=999)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert not np.array_equal(a.values, b.values)


def test_nnz_concentration():
    spec = EnsembleSpec(n=200, p=100, gamma=0.3)
    m = sample_matrix(spec, seed=7)
    mean = 200 * 100 * 0.3
    sd = math.sqrt(200 * 100 * 0.3 * 0.7)
    assert abs(m.nnz - mean) < 5 * sd
    m.validate()


def test_values_standard_unit_variance():
    spec = EnsembleSpec(n=400, p=200, gamma=0.25, convention="standard")
    m = sample_matrix(spec, seed=5)
    assert abs(m.values.var() - 1.0) < 0.1


def test_values_rescaled_variance():
    spec = EnsembleSpec(n=400, p=200, gamma=0.25, convention="rescaled")
    m = sample_matrix(spec, seed=5)
    assert abs(m.values.var() - 4.0) < 0.4


def test_gamma_one_dense_pattern():
    spec = EnsembleSpec(n=12, p=9, gamma=1.0)
    m = sample_matrix(spec, seed=2)
    assert m.nnz == 12 * 9
    assert np.all(m.values != 0.0)
    dense = m.to_csr().toarray()
    assert np.all(dense != 0.0)


def test_rescale_coupled_roundtrip():
    spec = EnsembleSpec(n=60, p=40, gamma=0.5, convention="standard")
    m = sample_matrix(spec, seed=9)
    r = rescale_coupled(m)
    assert r.spec.convention == "rescaled"
    assert np.array_equal(r.indices, m.indices)
    assert np.array_equal(r.values, m.values * (1.0 / math.sqrt(0.5)))
    back = rescale_coupled(r)
    assert back.spec.convention == "standard"
    assert np.allclose(back.values, m.values, rtol=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    p=st.integers(1, 40),
    gamma=st.sampled_from([1.0]) | st.floats(1e-3, 1.0),
    convention=st.sampled_from(["standard", "rescaled"]),
    seed=st.integers(0, 2**64 - 1),
)
def test_rescale_coupled_twice_is_the_identity(n, p, gamma, convention, seed):
    m = sample_matrix(EnsembleSpec(n=n, p=p, gamma=gamma, convention=convention), seed)
    back = rescale_coupled(rescale_coupled(m))
    assert back.spec == m.spec and back.seed_info == m.seed_info
    assert np.array_equal(back.indptr, m.indptr) and np.array_equal(back.indices, m.indices)
    assert np.allclose(back.values, m.values, rtol=1e-15, atol=0.0)


def test_rescaled_matches_coupled_standard_exactly():
    # Same seed under the two conventions draws the same pattern and the
    # same normals; only the scale differs.
    std = sample_matrix(EnsembleSpec(n=60, p=40, gamma=0.5, convention="standard"), seed=9)
    res = sample_matrix(EnsembleSpec(n=60, p=40, gamma=0.5, convention="rescaled"), seed=9)
    assert np.array_equal(std.indices, res.indices)
    assert np.array_equal(res.values, std.values * (1.0 / math.sqrt(0.5)))


def test_dense_columns_matches_csr():
    spec = EnsembleSpec(n=30, p=20, gamma=0.6)
    m = sample_matrix(spec, seed=4)
    cols = np.array([0, 3, 19])
    assert np.array_equal(m.dense_columns(cols), m.to_csr().toarray()[:, cols])
    with pytest.raises(ParameterError):
        m.dense_columns([20])
    with pytest.raises(ParameterError):
        m.dense_columns([-1])


def test_dense_columns_keeps_duplicate_and_unordered_columns():
    m = sample_matrix(EnsembleSpec(n=30, p=20, gamma=0.6), seed=4)
    cols = [5, 0, 0, 19, 5]
    got = m.dense_columns(cols)
    assert np.array_equal(got, m.to_csr().toarray()[:, cols])
    assert np.array_equal(got[:, 1], got[:, 2]) and np.any(got[:, 1])


def test_signal_patterns():
    assert np.array_equal(make_signal(SignalSpec(p=8, k=3, beta_min=2.0)), [2, 2, 2, 0, 0, 0, 0, 0])
    alt = SignalSpec(p=8, k=4, sign_pattern="alternating")
    assert np.array_equal(signal_signs(alt), [1, -1, 1, -1])
    rnd = SignalSpec(p=20, k=10, sign_pattern="seeded_random", sign_seed=3)
    s1, s2 = signal_signs(rnd), signal_signs(rnd)
    assert np.array_equal(s1, s2)
    assert set(np.unique(s1)) <= {-1.0, 1.0}
    with pytest.raises(ParameterError):
        SignalSpec(p=8, k=5)
    with pytest.raises(ParameterError):
        SignalSpec(p=8, k=2, beta_min=0.0)
    with pytest.raises(ParameterError):
        SignalSpec(p=8, k=2, sign_pattern="seeded_random")


def test_observe_noise_variance_reset():
    beta = make_signal(SignalSpec(p=20, k=4))
    std = sample_matrix(EnsembleSpec(n=40, p=20, gamma=0.25, convention="standard"), seed=1)
    obs_std = observe(std, beta, sigma2=0.16, noise_seed=6)
    assert obs_std.noise_variance == 0.16
    res = sample_matrix(EnsembleSpec(n=40, p=20, gamma=0.25, convention="rescaled"), seed=1)
    obs_res = observe(res, beta, sigma2=0.16, noise_seed=6)
    assert obs_res.noise_variance == pytest.approx(0.64)
    assert np.allclose(obs_res.y, res.to_csr() @ beta + obs_res.w, rtol=0, atol=0)
    # same noise seed, different variance: pathwise scaled normals
    assert np.allclose(obs_res.w, 2.0 * obs_std.w, rtol=1e-15)


def test_serialization_roundtrip():
    spec = EnsembleSpec(n=25, p=18, gamma=0.37, convention="rescaled")
    m = sample_matrix(spec, seed=77)
    buf = io.StringIO()
    write_matrix(m, buf)
    buf.seek(0)
    back = read_matrix(buf)
    assert back.spec == m.spec
    assert back.seed_info.seed == 77
    assert np.array_equal(back.indptr, m.indptr)
    assert np.array_equal(back.indices, m.indices)
    assert np.array_equal(back.values, m.values)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 30),
    p=st.integers(1, 30),
    gamma=st.sampled_from([1.0]) | st.floats(1e-3, 1.0),
    convention=st.sampled_from(["standard", "rescaled"]),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_serialization_roundtrips_bit_for_bit(n, p, gamma, convention, seed, data):
    """Any finite non-zero values, subnormals and extremes included, come back with the same bits."""
    m = sample_matrix(EnsembleSpec(n=n, p=p, gamma=gamma, convention=convention), seed)
    finite = st.floats(allow_nan=False, allow_infinity=False).filter(bool)
    m.values = np.array(data.draw(st.lists(finite, min_size=m.nnz, max_size=m.nnz)), dtype=np.float64)
    buf = io.StringIO()
    write_matrix(m, buf)
    buf.seek(0)
    back = read_matrix(buf)
    assert back.spec == m.spec and back.seed_info.seed == seed
    for name in ("indptr", "indices", "values"):
        a, b = getattr(back, name), getattr(m, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_serialization_golden():
    m = sample_matrix(EnsembleSpec(n=6, p=4, gamma=0.7, convention="standard"), seed=3)
    buf = io.StringIO()
    write_matrix(m, buf)
    with open(GOLDEN_MATRIX) as fh:
        assert buf.getvalue() == fh.read()


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "header"),
        ("4 4 0.5 standard\n", "header"),
        ("4 4 0.5 dense 1\n", "header"),
        ("4 4 0.5 standard 1\n0 9 1.5\n", "column index"),
        ("4 4 0.5 standard 1\n9 0 1.5\n", "row index"),
        ("4 4 0.5 standard 1\n0 0 0.0\n", "non-zero"),
        ("4 4 0.5 standard 1\n0 0\n", "expected"),
        ("4 4 0.5 standard 1\n0 0 abc\n", "could not convert"),
        ("4 4 0.5 standard 1\n0 0 1.5\n1 1 1.0\n2 3 1.0\n2 3 2.0\n3 0 1.0\n", "row 2 columns must be strictly increasing"),
    ],
)
def test_read_matrix_rejects_malformed(text, fragment):
    with pytest.raises(DataError) as err:
        read_matrix(io.StringIO(text))
    assert fragment in str(err.value)


def test_read_matrix_accepts_header_only_and_blank_lines():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        empty = read_matrix(io.StringIO("4 3 0.5 standard 1\n"))
        assert empty.nnz == 0 and np.array_equal(empty.indptr, np.zeros(5))
        assert empty.indices.dtype == np.int64 and empty.values.dtype == np.float64
        m = read_matrix(io.StringIO("4 3 0.5 standard 1\n\n3 1 2.5\n  \n0 2 -1.5\n0 0 1.0\n"))
    assert np.array_equal(m.indptr, [0, 2, 2, 2, 3])
    assert np.array_equal(m.indices, [0, 2, 1])
    assert np.array_equal(m.values, [1.0, -1.5, 2.5])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    p=st.integers(1, 1500),
    gamma=st.sampled_from([1.0, 0.5]) | st.floats(1e-3, 1.0),
    convention=st.sampled_from(["standard", "rescaled"]),
    seed=st.integers(0, 2**64 - 1),
    value_seed=st.none() | st.integers(0, 2**64 - 1),
)
@example(n=300, p=700, gamma=0.1, convention="rescaled", seed=5, value_seed=None)  # 4 blocks, the last partial
@example(n=3, p=70_000, gamma=0.05, convention="standard", seed=9, value_seed=2)  # p above the block: one row each
@example(n=2, p=70_000, gamma=1.0, convention="rescaled", seed=1, value_seed=None)
@example(n=1, p=1, gamma=0.3, convention="standard", seed=0, value_seed=None)
def test_sample_matrix_matches_unblocked_oracle(n, p, gamma, convention, seed, value_seed):
    spec = EnsembleSpec(n=n, p=p, gamma=gamma, convention=convention)
    got = sample_matrix(spec, seed, value_seed=value_seed)
    want = sample_matrix_unblocked(spec, seed, value_seed=value_seed)
    for name in ("indptr", "indices", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.seed_info == want.seed_info
