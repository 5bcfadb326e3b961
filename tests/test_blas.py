import ctypes.util
import dataclasses
import functools
import io
import pathlib
import sys
from unittest import mock

import numpy
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparselasso import blas, ensemble, sweep, witness

from oracles import same_bytes, witness_path_loads


def test_bind_tolerates_missing_library_or_symbols(tmp_path):
    assert blas._bind(str(tmp_path / "libopenblas_missing.so")) is None
    (tmp_path / "libopenblas_fake.so").write_text("not a shared object")
    assert blas._bind(str(tmp_path / "libopenblas_fake.so")) is None
    libc = ctypes.util.find_library("c")
    if libc is not None:  # a real shared object that exports neither getter nor setter
        assert blas._bind(libc) is None


class _Numpy1OpenBLAS:
    """numpy 1.x's bundled OpenBLAS, reduced to what blas looks up: it
    exports its utility functions and its LAPACK with a bare 64_ suffix."""

    def __init__(self):
        self.count = 4
        self.openblas_get_num_threads64_ = mock.Mock(side_effect=lambda: self.count)
        self.openblas_set_num_threads64_ = mock.Mock(side_effect=lambda n: setattr(self, "count", n))
        self.openblas_get_corename64_ = mock.Mock(return_value=b"Haswell")
        self.dpotrf_64_ = self.dpotrs_64_ = mock.Mock()


def test_binds_numpy_1x_openblas_by_its_64_names(monkeypatch):
    monkeypatch.setattr(blas.ctypes, "CDLL", lambda _: _Numpy1OpenBLAS())
    lib = blas._bind("libopenblas64_p-r0-2f7c42d4.3.23.dev.so")
    assert lib.get() == 4
    lib.set(1)
    assert lib.get() == 1
    assert lib.core == "Haswell"
    # its ILP64 LAPACK stays unmatched
    assert lib.lapack is None


class _LapackOnly:
    """A library that exports scipy's potrf and potrs but no thread getter or setter."""

    def __init__(self):
        self.scipy_dpotrf_ = self.scipy_dpotrs_ = mock.Mock()


def test_lapack_comes_only_from_a_pinned_library(monkeypatch):
    """LAPACK is read from the record of a library single_threaded pins, so
    a copy whose thread count nothing can set is never called."""
    fakes = {"libopenblas_a_lapack_only.so": _LapackOnly(), "libopenblas_b_numpy1.so": _Numpy1OpenBLAS()}
    monkeypatch.setattr(blas.ctypes, "CDLL", fakes.__getitem__)
    monkeypatch.setattr(blas, "_paths", lambda: tuple(fakes))
    monkeypatch.setattr(blas, "_libraries", functools.cache(blas._libraries.__wrapped__))
    assert blas._lapack.__wrapped__() is None
    assert blas._bind("libopenblas_a_lapack_only.so") is None
    assert [lib.core for lib in blas._libraries()] == ["Haswell"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="discovery reads /proc/self/maps")
def test_finds_each_bundled_openblas():
    bundled = [
        lib
        for mod in (numpy, scipy)
        for lib in (pathlib.Path(mod.__file__).parent.parent / f"{mod.__name__}.libs").glob("*openblas*")
    ]
    if not bundled:
        pytest.skip("numpy and scipy do not bundle OpenBLAS here")
    assert len(blas._libraries()) == len(bundled)
    # scipy's copy exports the LP64 potrf/potrs that the witness calls
    assert blas._lapack() is not None


def test_core_names_name_the_kernel_of_each_openblas(monkeypatch, tmp_path):
    names = blas.core_names()
    assert len(names) == len(blas._libraries())
    assert all(isinstance(name, str) and name for name in names)
    libc = ctypes.util.find_library("c")
    monkeypatch.setattr(blas, "_paths", lambda: tuple(filter(None, (str(tmp_path / "libopenblas_missing.so"), libc))))
    monkeypatch.setattr(blas, "_libraries", functools.cache(blas._libraries.__wrapped__))
    assert blas.core_names() == ()


def test_core_names_follow_thread_counts_and_open_no_library(caller_blas):
    """One kernel name per pinned library, in thread_counts order, read
    when the library was bound: no call opens a library again."""
    names = blas.core_names()
    with mock.patch.object(blas.ctypes, "CDLL", side_effect=OSError("opened again")):
        assert blas.core_names() == names
    counts = tuple(range(1, len(caller_blas) + 1))
    blas.set_thread_counts(counts)
    # each library opened afresh has the count and the kernel of its position
    fresh = [(lib.get(), lib.core) for lib in map(blas._bind, blas._paths()) if lib is not None]
    assert fresh == list(zip(counts, names))


def test_single_threaded_pins_and_restores(caller_blas):
    blas.set_thread_counts((2,) * len(caller_blas))
    with pytest.raises(RuntimeError):
        with blas.single_threaded():
            assert blas.thread_counts() == (1,) * len(caller_blas)
            raise RuntimeError("trial failed")
    assert blas.thread_counts() == (2,) * len(caller_blas)


class _CountingLibrary:
    """A fake OpenBLAS: a thread count behind a getter and a setter that count their calls."""

    def __init__(self, count):
        self.count, self.gets, self.sets = count, 0, 0

    def get(self):
        self.gets += 1
        return self.count

    def set(self, n):
        self.sets += 1
        self.count = n


def test_single_threaded_calls_a_setter_only_to_change_a_count(monkeypatch):
    libs = [_CountingLibrary(1), _CountingLibrary(1)]
    monkeypatch.setattr(blas, "_libraries", lambda: tuple(blas.Library(lib.get, lib.set, None, None) for lib in libs))
    with blas.single_threaded():
        assert blas.thread_counts() == (1, 1)
    assert [lib.sets for lib in libs] == [0, 0] and all(lib.gets > 0 for lib in libs)

    libs[:] = [_CountingLibrary(2), _CountingLibrary(1)]
    with blas.single_threaded():
        assert blas.thread_counts() == (1, 1)
    assert blas.thread_counts() == (2, 1)
    assert [lib.sets for lib in libs] == [2, 0]


@st.composite
def _grams(draw):
    """k x k Gram matrices X^T X / n for k in 1-130: well-conditioned ones,
    ones with two nearly equal columns, rank-deficient ones (n < k) and zero."""
    k = draw(st.integers(1, 130))
    kind = draw(st.sampled_from(["spd", "near_singular", "rank_deficient", "zero"]))
    r = numpy.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "zero":
        return numpy.zeros((k, k))
    n = draw(st.integers(0, k - 1)) if kind == "rank_deficient" else k + draw(st.integers(0, 40))
    X = r.standard_normal((n, k))
    if kind == "near_singular" and k > 1:
        X[:, -1] = X[:, 0] + draw(st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12])) * r.standard_normal(n)
    return X.T @ X / max(n, 1)


@settings(max_examples=150, deadline=None)
@example(G=numpy.zeros((1, 1)))
@example(G=numpy.ones((2, 2)))
@example(G=numpy.eye(130) * 3.0)
@given(G=_grams())
def test_cholesky_and_solve_equal_scipy_bit_for_bit(G):
    """The factor and the solve, direct and through the scipy.linalg
    fallback, equal cho_factor(lower=True) and cho_solve bit for bit, and
    the factor is None exactly where cho_factor raises LinAlgError."""
    k = G.shape[0]
    b = numpy.random.default_rng(k).standard_normal(k)
    try:
        want = scipy.linalg.cho_factor(G, lower=True)[0]
    except scipy.linalg.LinAlgError:
        want = None
    for lapack in (blas._lapack(), None):
        with mock.patch.object(blas, "_lapack", lambda: lapack):
            got = blas.cholesky(G)
            assert (got is None) == (want is None)
            if want is not None:
                assert same_bytes(got, want) and got.flags.f_contiguous
                assert same_bytes(blas.cholesky_solve(got, b), scipy.linalg.cho_solve((want, True), b))


@pytest.mark.parametrize("bad", [numpy.nan, numpy.inf, -numpy.inf])
def test_non_finite_input_raises_value_error_as_scipy_does(bad):
    G, b = numpy.eye(3), numpy.ones(3)
    for lapack in (blas._lapack(), None):
        with mock.patch.object(blas, "_lapack", lambda: lapack):
            G[1, 2] = bad
            with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
                blas.cholesky(G)
            G[1, 2] = 0.0
            b[0] = bad
            with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
                blas.cholesky_solve(blas.cholesky(G), b)
            b[0] = 1.0


def test_shapes_are_checked_before_lapack_is_called():
    with pytest.raises(ValueError, match="square"):
        blas.cholesky(numpy.ones((2, 3)))
    c = blas.cholesky(numpy.eye(3))
    for b in (numpy.ones(4), numpy.ones((3, 1))):
        with pytest.raises(ValueError, match="incompatible dimensions"):
            blas.cholesky_solve(c, b)
    with pytest.raises(ValueError, match="factor from cholesky"):
        blas.cholesky_solve(numpy.ascontiguousarray(numpy.eye(3)[:, :2]), numpy.ones(3))


def _reports_bytes(reports):
    """Every field of each witness report, arrays as bytes."""
    return [
        tuple(v.tobytes() if isinstance(v, numpy.ndarray) else v for v in dataclasses.astuple(r)) for r in reports
    ]


def _witness_outputs():
    """build, build_sampled and h_vector at a few criterion-2 shapes, one of
    them singular (n < k), and a witness-mode sweep CSV at one and two workers."""
    reports, hs = [], []
    for n, p, seed in ((5, 64, 1), (120, 128, 2), (700, 256, 3)):
        spec = ensemble.EnsembleSpec(n=n, p=p, gamma=0.3)
        sig = ensemble.SignalSpec(p=p, k=p // 8)
        w = ensemble.noise_vector(n, 0.0625, seed)
        m = ensemble.sample_matrix(spec, seed)
        reports += [witness.build(m, sig, w, 0.5), witness.build_sampled(spec, seed, sig, w, 0.5)]
        if reports[-1].invertible:
            hs.append(witness.h_vector(m, sig).tobytes())
    cfg = sweep.SweepConfig(p_list=(64, 128), theta_grid=(0.4, 1.0, 1.6), trials=3, base_seed=5, sparsity_rule="linear")
    csvs = []
    for workers in (1, 2):
        buf = io.StringIO()
        sweep.write_csv(sweep.run_sweep(cfg, workers=workers), buf)
        csvs.append(buf.getvalue())
    return _reports_bytes(reports), hs, csvs


def test_scipy_linalg_fallback_gives_the_same_outputs(monkeypatch):
    direct = _witness_outputs()
    assert [r[0] for r in direct[0]] == [False, False, True, True, True, True]  # the invertible field
    monkeypatch.setattr(blas, "_lapack", lambda: None)
    with mock.patch.object(scipy.linalg, "cho_factor", wraps=scipy.linalg.cho_factor) as spy:
        assert _witness_outputs() == direct
    assert spy.called


def test_witness_path_never_loads_scipy_linalg():
    """A witness-mode sweep, serial and forked, build, h_vector and the CLI's
    gen, witness and solve never import scipy.linalg, and scipy's LAPACK is
    found; a serial sweep and the CLI's gen, witness and solve never import
    multiprocessing or concurrent.futures' process pool."""
    loaded = witness_path_loads()
    assert "multiprocessing" not in loaded["serial sweep"], "a serial sweep loaded multiprocessing"
    assert "multiprocessing" not in loaded["gen, witness"], "the CLI's gen or witness loaded multiprocessing"
    assert "multiprocessing" not in loaded["CLI solve"], "the CLI's solve loaded multiprocessing"
    for stage in ("serial sweep", "gen, witness", "witness path", "CLI solve", "solve"):
        assert "scipy.linalg" not in loaded[stage], f"{stage} loaded scipy.linalg"
    assert loaded["lapack"], "no pinned library exports scipy's dpotrf and dpotrs"
