import pytest

from sparselasso import blas


@pytest.fixture
def caller_blas():
    """The process's OpenBLAS thread counts, restored after the test."""
    saved = blas.thread_counts()
    yield saved
    blas.set_thread_counts(saved)
