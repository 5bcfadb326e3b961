"""Sparsified Gaussian measurement ensembles.

A measurement matrix entry is nonzero with probability gamma; nonzero
entries are Gaussian.  Two conventions:

* standard: nonzero entries ~ N(0, 1)
* rescaled: nonzero entries ~ N(0, 1/gamma), so every entry has unit
  variance overall

The two are coupled pathwise by multiplying values with 1/sqrt(gamma)
(or sqrt(gamma) back), which `rescale_coupled` implements without
touching the sparsity pattern.

Matrices are stored row-compressed (CSR triple); dense consumers read
through `to_csr()` / `dense_columns()`; nothing densifies the full
matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import IO, Optional

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, DataError, ParameterError
from . import rng

CONVENTIONS = ("standard", "rescaled")
SIGN_PATTERNS = ("all_plus", "alternating", "seeded_random")

# One `row col value` line of the text format.
_ENTRY_DTYPE = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


@dataclass(frozen=True)
class EnsembleSpec:
    """Shape and distribution of one sparsified measurement matrix."""

    n: int
    p: int
    gamma: float
    convention: str = "standard"

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not isinstance(self.p, int):
            raise ParameterError("n and p must be integers")
        if self.n < 1 or self.p < 1:
            raise ParameterError(f"n and p must be positive, got n={self.n}, p={self.p}")
        if self.n >= 2**32 or self.p >= 2**32:
            raise CapacityError("n and p must each be < 2^32 (entry counters pack row and column into 64 bits)")
        if self.n * self.p > 2**40:
            raise CapacityError(f"n * p = {self.n * self.p} exceeds the supported 2^40 entries")
        if not (isinstance(self.gamma, (int, float)) and 0.0 < float(self.gamma) <= 1.0):
            raise ParameterError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        if self.convention not in CONVENTIONS:
            raise ParameterError(f"convention must be one of {CONVENTIONS}, got {self.convention!r}")
        object.__setattr__(self, "gamma", float(self.gamma))


@dataclass(frozen=True)
class SeedInfo:
    """Provenance of a matrix: enough to regenerate it bit-for-bit."""

    seed: int
    pattern_seed: int
    value_seed: int
    generator: str = rng.GENERATOR_NAME
    normal_method: str = rng.NORMAL_METHOD


@dataclass
class SparseMeasurementMatrix:
    """Row-compressed sparse matrix plus its generating spec and seeds."""

    spec: EnsembleSpec
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    seed_info: SeedInfo
    _csr: Optional[sp.csr_matrix] = field(default=None, repr=False, compare=False)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def to_csr(self) -> sp.csr_matrix:
        if self._csr is None:
            self._csr = sp.csr_matrix(
                (self.values, self.indices, self.indptr),
                shape=(self.spec.n, self.spec.p),
            )
        return self._csr

    def dense_columns(self, cols) -> np.ndarray:
        """Dense n x len(cols) block of the requested columns."""
        cols = np.asarray(cols, dtype=np.int64)
        if cols.size and (cols.min() < 0 or cols.max() >= self.spec.p):
            raise ParameterError("column index out of range")
        return self.to_csr()[:, cols].toarray()

    def validate(self) -> None:
        """Check the structural invariants; raises DataError on violation."""
        n, p = self.spec.n, self.spec.p
        if self.indptr.shape != (n + 1,) or self.indptr[0] != 0:
            raise DataError("indptr must have length n+1 and start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise DataError("indptr must be non-decreasing")
        if self.indices.shape != self.values.shape or self.indices.shape != (self.nnz,):
            raise DataError("indices/values length must equal nnz")
        if self.nnz:
            if self.indices.min() < 0 or self.indices.max() >= p:
                raise DataError("column index out of range")
            # np.diff(indices)[t] compares entries t and t + 1, which share a
            # row unless t + 1 starts one.
            starts = self.indptr[1:-1]
            same_row = np.ones(self.nnz - 1, dtype=bool)
            same_row[starts[(starts > 0) & (starts < self.nnz)] - 1] = False
            bad = (np.diff(self.indices) <= 0) & same_row
            if bad.any():
                i = int(np.searchsorted(self.indptr, np.argmax(bad), side="right")) - 1
                raise DataError(f"row {i} columns must be strictly increasing")
            if not np.all(np.isfinite(self.values)):
                raise DataError("stored values must be finite")
            if np.any(self.values == 0.0):
                raise DataError("stored values must be non-zero")


def sample_matrix(spec: EnsembleSpec, seed: int, value_seed: Optional[int] = None) -> SparseMeasurementMatrix:
    """Draw a matrix from the ensemble.

    The Bernoulli pattern and the Gaussian values come from separate
    streams keyed off `seed`; passing `value_seed` re-draws the values on
    an identical pattern.  Entry (i, j) depends only on the stream keys
    and (i, j), so the result is independent of generation order.
    """
    pattern_seed = rng.derive_key(seed, rng.TAG_PATTERN)
    value_seed_eff = rng.derive_key(seed if value_seed is None else value_seed, rng.TAG_VALUE)

    n, p, gamma = spec.n, spec.p, spec.gamma
    flat = rng.kept_entries(pattern_seed, n, p, gamma)
    indptr = np.searchsorted(flat, np.arange(n + 1, dtype=np.int64) * p)
    rows, indices = np.divmod(flat, p)
    # Entry (i, j)'s value counter (i << 32) | j is its flat index i * p + j
    # plus i * (2^32 - p), so the index buffer becomes the counters in place.
    counters = flat.view(np.uint64)
    counters += rows.view(np.uint64) * np.uint64((1 << 32) - p)
    del rows
    values = rng.normals_at(value_seed_eff, counters)
    if spec.convention == "rescaled":
        values *= 1.0 / math.sqrt(gamma)

    info = SeedInfo(
        seed=seed,
        pattern_seed=pattern_seed,
        value_seed=value_seed_eff,
    )
    return SparseMeasurementMatrix(spec=spec, indptr=indptr, indices=indices, values=values, seed_info=info)


def rescale_coupled(m: SparseMeasurementMatrix) -> SparseMeasurementMatrix:
    """Pathwise-coupled image of `m` under the opposite convention.

    standard -> rescaled multiplies the stored values by 1/sqrt(gamma);
    rescaled -> standard multiplies by sqrt(gamma).  Pattern, shape and
    seeds are unchanged.
    """
    gamma = m.spec.gamma
    if m.spec.convention == "standard":
        factor, target = 1.0 / math.sqrt(gamma), "rescaled"
    else:
        factor, target = math.sqrt(gamma), "standard"
    new_spec = EnsembleSpec(n=m.spec.n, p=m.spec.p, gamma=gamma, convention=target)
    return SparseMeasurementMatrix(
        spec=new_spec,
        indptr=m.indptr,
        indices=m.indices,
        values=m.values * factor,
        seed_info=m.seed_info,
    )


@dataclass(frozen=True)
class SignalSpec:
    """Sparse target vector: support on the first k coordinates, all at magnitude beta_min."""

    p: int
    k: int
    beta_min: float = 1.0
    sign_pattern: str = "all_plus"
    sign_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or not isinstance(self.k, int):
            raise ParameterError("p and k must be integers")
        if self.k < 1 or 2 * self.k > self.p:
            raise ParameterError(f"need 1 <= k <= p/2, got k={self.k}, p={self.p}")
        if not self.beta_min > 0:
            raise ParameterError(f"beta_min must be positive, got {self.beta_min!r}")
        if self.sign_pattern not in SIGN_PATTERNS:
            raise ParameterError(f"unknown sign_pattern {self.sign_pattern!r}")
        if self.sign_pattern == "seeded_random" and self.sign_seed is None:
            raise ParameterError("sign_pattern='seeded_random' requires sign_seed")


def signal_signs(s: SignalSpec) -> np.ndarray:
    """Signs of the k support entries, in support order."""
    if s.sign_pattern == "all_plus":
        return np.ones(s.k)
    if s.sign_pattern == "alternating":
        signs = np.ones(s.k)
        signs[1::2] = -1.0
        return signs
    key = rng.derive_key(s.sign_seed, rng.TAG_SIGNS)
    bits = rng.bits_at(key, np.arange(s.k, dtype=np.uint64))
    return np.where((bits >> np.uint64(63)).astype(bool), -1.0, 1.0)


def make_signal(s: SignalSpec) -> np.ndarray:
    """The target vector beta* of length p."""
    beta = np.zeros(s.p)
    beta[: s.k] = s.beta_min * signal_signs(s)
    return beta


@dataclass(frozen=True)
class ObservationSet:
    """Noisy linear observations y = X beta* + w."""

    y: np.ndarray
    w: np.ndarray
    noise_variance: float
    noise_seed: int


def noise_vector(n: int, variance: float, noise_seed: int) -> np.ndarray:
    """Gaussian noise of length n at the given variance, from the NOISE stream."""
    if variance < 0:
        raise ParameterError(f"noise variance must be non-negative, got {variance!r}")
    key = rng.derive_key(noise_seed, rng.TAG_NOISE)
    return math.sqrt(variance) * rng.normals_at(key, np.arange(n, dtype=np.uint64))


def observe(m: SparseMeasurementMatrix, beta_star: np.ndarray, sigma2: float, noise_seed: int) -> ObservationSet:
    """Observations under the matrix's convention.

    For the rescaled convention the model resets the noise variance to
    sigma2 / gamma, keeping it an exact reparametrization of the standard
    observation model.
    """
    beta_star = np.asarray(beta_star, dtype=np.float64)
    if beta_star.shape != (m.spec.p,):
        raise ParameterError(f"beta_star must have length p={m.spec.p}")
    if sigma2 < 0:
        raise ParameterError(f"sigma2 must be non-negative, got {sigma2!r}")
    variance = sigma2 / m.spec.gamma if m.spec.convention == "rescaled" else sigma2
    w = noise_vector(m.spec.n, variance, noise_seed)
    y = m.to_csr() @ beta_star + w
    return ObservationSet(y=y, w=w, noise_variance=variance, noise_seed=noise_seed)


def write_matrix(m: SparseMeasurementMatrix, fh: IO[str]) -> None:
    """Text serialization: one header line, then one `row col value` line per entry.

    Values are written with 17 significant digits, which round-trips
    float64 exactly.
    """
    spec = m.spec
    fh.write(f"{spec.n} {spec.p} {spec.gamma:.17g} {spec.convention} {m.seed_info.seed}\n")
    rows = np.repeat(np.arange(spec.n), np.diff(m.indptr))
    fh.writelines(f"{r} {c} {v:.17g}\n" for r, c, v in zip(rows.tolist(), m.indices.tolist(), m.values.tolist()))


def read_matrix(fh: IO[str]) -> SparseMeasurementMatrix:
    """Parse the `write_matrix` format; validates structure on load."""
    header = fh.readline().split()
    if len(header) != 5:
        raise DataError("matrix header must be 'n p gamma convention seed'")
    try:
        n, p = int(header[0]), int(header[1])
        gamma = float(header[2])
        convention = header[3]
        seed = int(header[4])
    except ValueError as exc:
        raise DataError(f"bad matrix header: {exc}") from exc
    try:
        spec = EnsembleSpec(n=n, p=p, gamma=gamma, convention=convention)
    except ParameterError as exc:
        raise DataError(f"bad matrix header: {exc}") from exc

    try:
        with warnings.catch_warnings():  # a header-only file is an empty matrix
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            body = np.loadtxt(fh, dtype=_ENTRY_DTYPE, ndmin=1, comments=None)
    except ValueError as exc:
        raise DataError(f"expected 'row col value' lines after the header: {str(exc).split(';')[0]}") from exc

    rows = body["row"]
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise DataError("row index out of range")
    body = body[np.lexsort((body["col"], rows))]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr[1:], body["row"], 1)
    np.cumsum(indptr, out=indptr)
    m = SparseMeasurementMatrix(
        spec=spec,
        indptr=indptr,
        indices=np.ascontiguousarray(body["col"]),
        values=np.ascontiguousarray(body["value"]),
        seed_info=SeedInfo(seed=seed, pattern_seed=0, value_seed=0, generator="file", normal_method="file"),
    )
    m.validate()
    return m
