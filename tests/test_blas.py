import ctypes.util
import pathlib
import sys

import numpy
import pytest
import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS)

from sparselasso import blas


@pytest.fixture
def caller_counts():
    """Restore the process's OpenBLAS thread counts after the test."""
    saved = blas.thread_counts()
    yield saved
    blas.set_thread_counts(saved)


def test_bind_tolerates_missing_library_or_symbols(tmp_path):
    assert blas._bind(str(tmp_path / "libopenblas_missing.so")) is None
    (tmp_path / "libopenblas_fake.so").write_text("not a shared object")
    assert blas._bind(str(tmp_path / "libopenblas_fake.so")) is None
    libc = ctypes.util.find_library("c")
    if libc is not None:  # a real shared object that exports neither getter nor setter
        assert blas._bind(libc) is None


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


def test_single_threaded_pins_and_restores(caller_counts):
    blas.set_thread_counts((2,) * len(caller_counts))
    with pytest.raises(RuntimeError):
        with blas.single_threaded():
            assert blas.thread_counts() == (1,) * len(caller_counts)
            raise RuntimeError("trial failed")
    assert blas.thread_counts() == (2,) * len(caller_counts)

