"""Sparsified Gaussian measurement ensembles.

A measurement matrix entry is nonzero with probability gamma; nonzero
entries are Gaussian.  Two conventions:

* standard: nonzero entries ~ N(0, 1)
* rescaled: nonzero entries ~ N(0, 1/gamma), so every entry has unit
  variance overall

The two are coupled pathwise: `sample_matrix` draws the same pattern and
the same standard values for a seed under either convention, and the
rescaled matrix multiplies those values by 1/sqrt(gamma).

Matrices are stored row-compressed (CSR triple); nothing densifies the
full matrix.  A consumer that needs only some columns reads them as row
slabs: `row_blocks` cuts them from a matrix, and `sample_blocks` draws
the same entries, in slabs cut at hash-block boundaries, without
sampling the other columns.  One slab generator does all the sampling:
`sample_matrix` is its one-slab case, all rows and columns at once.

No other module reads a row slab.  `first_columns` fills the dense
block of the first k columns from the slabs, and `rmatvec` forms
(X^T z)[j0:j1] over them for one or more z at once: the witness's
off-support products and the solver's KKT gradient over every column
are the same product.  `matvec` (X v) and `columns`, the column view the
solver reads, take the CSR triple.  Both products add one entry at a
time with `np.add.at`, in the order of scipy's CSR products, so they
give the same bits as scipy.sparse and no module of the package loads
it.  A caller that wants a scipy matrix builds it from the arrays:
`csr_matrix((m.values, m.indices, m.indptr), shape=(n, p))`.

`read_matrix` is the one place that checks a matrix file; a matrix built
in code is taken as it is.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .errors import CapacityError, DataError, ParameterError, integer, non_negative, one_of, positive, read_only_by, unit_interval, vector
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
        object.__setattr__(self, "n", integer("n", self.n, 1))
        object.__setattr__(self, "p", integer("p", self.p, 1))
        if self.n >= 2**32 or self.p >= 2**32:
            raise CapacityError("n and p must each be < 2^32 (entry counters pack row and column into 64 bits)")
        if self.n * self.p > 2**40:
            raise CapacityError(f"n * p = {self.n * self.p} exceeds the supported 2^40 entries")
        object.__setattr__(self, "gamma", unit_interval("gamma", self.gamma))
        one_of("convention", self.convention, CONVENTIONS)


@dataclass
class SparseMeasurementMatrix:
    """Row-compressed sparse matrix plus its generating spec and seed."""

    spec: EnsembleSpec
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    seed: int

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def row_blocks(self, j0: int, j1: int):
        """Yield its entries in the columns [j0, j1) as row slabs
        (r0, indptr, indices, values), in row order, of as many rows as
        hold rng.DRAW_CHUNK stored entries on average: the entries of row
        r0 + r are indices[indptr[r]:indptr[r + 1]] (ascending) and the
        matching values.  Slabs of all p columns are views of the matrix's
        own arrays; the callers only read them."""
        j0, j1 = _column_range(self.spec, j0, j1)
        n = self.spec.n
        rows_per_block = max(1, rng.DRAW_CHUNK * n // max(self.nnz, 1))

        def slab(r0):
            r1 = min(n, r0 + rows_per_block)
            lo, hi = self.indptr[r0], self.indptr[r1]
            cols = self.indices[lo:hi]
            if j1 - j0 == self.spec.p:  # every entry is kept; the KKT gradient reads all columns
                return r0, self.indptr[r0 : r1 + 1] - lo, cols, self.values[lo:hi]
            kept = np.flatnonzero((cols >= j0) & (cols < j1))
            return r0, np.searchsorted(kept, self.indptr[r0 : r1 + 1] - lo), cols[kept], self.values[lo:hi][kept]

        return map(slab, range(0, n, rows_per_block))


def sample_matrix(spec: EnsembleSpec, seed: int) -> SparseMeasurementMatrix:
    """Draw a matrix from the ensemble.

    The Bernoulli pattern and the Gaussian values come from separate
    streams keyed off `seed`.  Entry (i, j) depends only on the stream keys
    and (i, j), so the result is independent of generation order.  Its
    arrays are the one slab of all rows and columns that sample_blocks'
    generator yields when a slab closes only at row n.
    """
    seed = integer("seed", seed)
    [(_, indptr, indices, values)] = _slabs(spec, seed, 0, spec.p, math.inf)
    return SparseMeasurementMatrix(spec=spec, indptr=indptr, indices=indices, values=values, seed=seed)


def sample_blocks(spec: EnsembleSpec, seed: int, j0: int, j1: int):
    """Yield the entries of sample_matrix(spec, seed) in the columns [j0, j1)
    as row slabs (r0, indptr, indices, values), in row order, without
    sampling the other columns or holding more than one slab.  The slabs
    hold the same entries as SparseMeasurementMatrix.row_blocks', with
    other row boundaries: row_blocks cuts the rows that hold
    rng.DRAW_CHUNK entries on average, and a slab here gathers the rows of
    consecutive hash blocks of rng.kept_blocks until it keeps at least
    rng.DRAW_CHUNK entries, so that its values are drawn in whole chunks."""
    seed = integer("seed", seed)
    j0, j1 = _column_range(spec, j0, j1)
    return _slabs(spec, seed, j0, j1, rng.DRAW_CHUNK)


def _column_range(spec: EnsembleSpec, j0: int, j1: int) -> tuple[int, int]:
    """The column range [j0, j1) of a slab source, checked to be integers
    with 0 <= j0 <= j1 <= p."""
    j0, j1 = integer("j0", j0, 0), integer("j1", j1)
    if not j0 <= j1 <= spec.p:
        raise ParameterError(f"column range needs 0 <= j0 <= j1 <= p = {spec.p}, got j0 = {j0}, j1 = {j1}")
    return j0, j1


def _slabs(spec: EnsembleSpec, seed: int, j0: int, j1: int, min_entries: float):
    """Yield the row slabs (r0, indptr, indices, values) of the columns
    [j0, j1), each closed once it keeps min_entries entries or reaches row n.
    The pattern and the values come from the seed's PATTERN and VALUE streams."""
    pattern_key, value_key = rng.derive_key(seed, rng.TAG_PATTERN), rng.derive_key(seed, rng.TAG_VALUE)
    q = j1 - j0
    s0, parts, size = 0, [], 0
    for r0, r1, flat in rng.kept_blocks(pattern_key, spec.n, j0, j1, spec.gamma):
        flat += (r0 - s0) * q
        parts.append(flat)
        size += flat.size
        if size >= min_entries or r1 == spec.n:
            # The blocks' own arrays go before the values are drawn, so a
            # slab holds its indices once.
            flat, parts = np.concatenate(parts), []
            indptr = np.searchsorted(flat, np.arange(r1 - s0 + 1, dtype=np.int64) * q)
            yield s0, indptr, flat, _entry_values(spec, value_key, indptr, flat, s0, j0, q)
            s0, size = r1, 0


def _entry_values(spec: EnsembleSpec, value_key: int, indptr: np.ndarray, flat: np.ndarray, r0: int, j0: int, q: int) -> np.ndarray:
    """Values of the kept entries (i, j) of the rows [r0, r0 + indptr.size - 1)
    and the columns [j0, j0 + q), under spec's convention.  `flat` holds
    their ascending int64 indices (i - r0) * q + (j - j0), and row r0 + r's
    run in it is flat[indptr[r]:indptr[r + 1]].  flat is overwritten with
    the column indices j."""
    # Entry (i, j)'s value counter is (i << 32) | j = i * (2^32 - q)
    # + r0 * q + j0 + flat (j < 2^32), a per-row base plus its flat index;
    # its low word j overwrites the flat index, and its value overwrites
    # the counter.
    rows = np.arange(r0, r0 + indptr.size - 1, dtype=np.uint64)
    words = (rows * np.uint64(2**32 - q) + np.uint64(r0 * q + j0)).repeat(np.diff(indptr))
    words += flat.view(np.uint64)
    np.bitwise_and(words, np.uint64(0xFFFFFFFF), out=flat.view(np.uint64))
    values = rng.draw_in_place(value_key, words)
    if spec.convention == "rescaled":
        values *= 1.0 / math.sqrt(spec.gamma)
    return values


@dataclass(frozen=True)
class SignalSpec:
    """Sparse target vector: support on the first k coordinates, all at magnitude beta_min."""

    p: int
    k: int
    beta_min: float = 1.0
    sign_pattern: str = "all_plus"
    sign_seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", integer("p", self.p))
        object.__setattr__(self, "k", integer("k", self.k))
        if self.k < 1 or 2 * self.k > self.p:
            raise ParameterError(f"need 1 <= k <= p/2, got k={self.k}, p={self.p}")
        positive("beta_min", self.beta_min)
        one_of("sign_pattern", self.sign_pattern, SIGN_PATTERNS)
        if self.sign_seed is not None:
            object.__setattr__(self, "sign_seed", integer("sign_seed", self.sign_seed))
        read_only_by("sign_seed", self.sign_seed, "sign_pattern", self.sign_pattern, "seeded_random")


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


def noise_vector(n: int, variance: float, noise_seed: int) -> np.ndarray:
    """Gaussian noise of length n at the given variance, from the NOISE stream."""
    n = integer("n", n, 1)
    key = rng.derive_key(integer("noise_seed", noise_seed), rng.TAG_NOISE)
    return math.sqrt(non_negative("variance", variance)) * rng.normals_at(key, np.arange(n, dtype=np.uint64))


def observe(m: SparseMeasurementMatrix, beta_star: np.ndarray, sigma2: float, noise_seed: int) -> ObservationSet:
    """Observations under the matrix's convention.

    For the rescaled convention the model resets the noise variance to
    sigma2 / gamma, keeping it an exact reparametrization of the standard
    observation model.
    """
    beta_star = vector("beta_star", beta_star, "p", m.spec.p)
    non_negative("sigma2", sigma2)
    variance = sigma2 / m.spec.gamma if m.spec.convention == "rescaled" else sigma2
    w = noise_vector(m.spec.n, variance, noise_seed)
    return ObservationSet(y=matvec(m, beta_star) + w, w=w, noise_variance=variance)


def _entry_rows(m: SparseMeasurementMatrix) -> np.ndarray:
    """The row of each stored entry of m, in storage order."""
    return np.repeat(np.arange(m.spec.n), np.diff(m.indptr))


def matvec(m: SparseMeasurementMatrix, v: np.ndarray) -> np.ndarray:
    """X v for a float64 vector v of length p.  Each row's sum runs from
    0.0 over the row's entries in column order, one multiply and one add
    at a time, as scipy's CSR product sums it, so the result is the same
    bit for bit."""
    out = np.zeros(m.spec.n)
    np.add.at(out, _entry_rows(m), m.values * v[m.indices])
    return out


def first_columns(blocks, n: int, k: int) -> np.ndarray:
    """The dense n x k block of the first k columns of a matrix with n rows,
    from its row slabs blocks(0, k)."""
    Xs = np.zeros((n, k))
    for r0, indptr, cols, values in blocks(0, k):
        Xs[np.repeat(np.arange(r0, r0 + indptr.size - 1), np.diff(indptr)), cols] = values
    return Xs


def rmatvec(blocks, j0: int, j1: int, *zs: np.ndarray) -> np.ndarray:
    """(X^T z)[j0:j1] for each float64 n-vector z, one row each, from the
    row slabs blocks(j0, j1) of X (SparseMeasurementMatrix.row_blocks or
    a partial of sample_blocks).  Each column's sum runs from 0.0 over its
    entries in row order, one multiply and one add at a time, as scipy's
    X.T @ z sums it, so the products are the same bit for bit."""
    out = np.zeros((len(zs), j1))
    for r0, indptr, cols, values in blocks(j0, j1):
        for acc, z in zip(out, zs):
            terms = z[r0 : r0 + indptr.size - 1].repeat(np.diff(indptr))
            np.add.at(acc, cols, np.multiply(values, terms, out=terms))
    return out[:, j0:]


def columns(m: SparseMeasurementMatrix) -> tuple:
    """m column-compressed: (indptr, rows, values), where column j's
    entries are rows[indptr[j]:indptr[j + 1]] (ascending) and the matching
    values; the arrays of scipy's tocsc(), value for value."""
    rows = _entry_rows(m)
    # Column-major keys are unique, so any sort gives the one order; they
    # stay below n * p <= 2^40.
    order = np.argsort(m.indices * m.spec.n + rows)
    return np.searchsorted(m.indices[order], np.arange(m.spec.p + 1)), rows[order], m.values[order]


def write_matrix(m: SparseMeasurementMatrix, fh: IO[str]) -> None:
    """Text serialization: one header line, then one `row col value` line per entry.

    Values are written with 17 significant digits, which round-trips
    float64 exactly.
    """
    spec = m.spec
    fh.write(f"{spec.n} {spec.p} {spec.gamma:.17g} {spec.convention} {m.seed}\n")
    fh.writelines(f"{r} {c} {v:.17g}\n" for r, c, v in zip(_entry_rows(m).tolist(), m.indices.tolist(), m.values.tolist()))


def read_matrix(fh: IO[str]) -> SparseMeasurementMatrix:
    """Parse the `write_matrix` format, checking, in this order, the header,
    the `row col value` lines, that rows lie in [0, n) and columns in
    [0, p), that no (row, col) repeats, and that every value is finite and
    non-zero; the first rule broken raises DataError."""
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

    rows, cols, values = body["row"], body["col"], body["value"]
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise DataError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= p):
        raise DataError("column index out of range")
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    repeated = (np.diff(rows) == 0) & (np.diff(cols) == 0)
    if repeated.any():
        raise DataError(f"row {rows[np.argmax(repeated)]} columns must be strictly increasing")
    if not np.all(np.isfinite(values)):
        raise DataError("stored values must be finite")
    if np.any(values == 0.0):
        raise DataError("stored values must be non-zero")
    return SparseMeasurementMatrix(
        spec=spec,
        indptr=np.searchsorted(rows, np.arange(n + 1)),
        indices=cols,
        values=values,
        seed=seed,
    )
