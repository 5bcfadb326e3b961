"""Reference implementations used only by the tests.

The Lasso oracle is accelerated proximal gradient (FISTA) on dense
arrays with its own step size, its own soft threshold, and its own
optimality check.  It shares no code with the production coordinate
descent path; agreement between the two is therefore meaningful.

The sampler oracle is the one-shot sampler that `ensemble.sample_matrix`
replaced: it materializes the 2-D counter array of each 2^24-entry row
block, hashes it with `rng.bits_at`, gathers the kept counters by a
boolean mask and draws their values block by block.
"""

import math

import numpy as np

from sparselasso import rng
from sparselasso.ensemble import SeedInfo, SparseMeasurementMatrix


def sample_matrix_unblocked(spec, seed, value_seed=None):
    """The matrix `ensemble.sample_matrix(spec, seed, value_seed)` must equal byte for byte."""
    pattern_seed = rng.derive_key(seed, rng.TAG_PATTERN)
    value_seed_eff = rng.derive_key(seed if value_seed is None else value_seed, rng.TAG_VALUE)

    n, p, gamma = spec.n, spec.p, spec.gamma
    dense = gamma == 1.0
    threshold = None if dense else np.uint64(rng.bernoulli_threshold(gamma))
    scale = 1.0 if spec.convention == "standard" else 1.0 / math.sqrt(gamma)

    rows_per_block = max(1, (1 << 24) // p)
    counts = np.zeros(n, dtype=np.int64)
    idx_parts = []
    val_parts = []
    cols = np.arange(p, dtype=np.uint64)
    for r0 in range(0, n, rows_per_block):
        r1 = min(n, r0 + rows_per_block)
        counters = (np.arange(r0, r1, dtype=np.uint64)[:, None] << np.uint64(32)) | cols[None, :]
        if dense:
            nz_counters = counters.ravel()
            counts[r0:r1] = p
            idx_parts.append(np.tile(np.arange(p, dtype=np.int64), r1 - r0))
        else:
            mask = rng.bits_at(pattern_seed, counters) < threshold
            counts[r0:r1] = mask.sum(axis=1)
            nz_counters = counters[mask]
            idx_parts.append(np.nonzero(mask)[1].astype(np.int64))
        draws = rng.normals_at(value_seed_eff, nz_counters)
        val_parts.append(draws if scale == 1.0 else draws * scale)

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    info = SeedInfo(seed=seed, pattern_seed=pattern_seed, value_seed=value_seed_eff)
    return SparseMeasurementMatrix(
        spec=spec, indptr=indptr, indices=np.concatenate(idx_parts), values=np.concatenate(val_parts), seed_info=info,
    )


def _soft(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def fista_lasso(X, y, lam, max_iter=50000, tol=1e-12):
    """Minimize (1/2n)||y - Xb||^2 + lam ||b||_1 by accelerated proximal gradient."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    step = n / (np.linalg.norm(X, 2) ** 2 + 1e-30)
    beta = np.zeros(p)
    z = beta.copy()
    t = 1.0
    for _ in range(max_iter):
        grad = X.T @ (X @ z - y) / n
        beta_new = _soft(z - step * grad, step * lam)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = beta_new + ((t - 1.0) / t_new) * (beta_new - beta)
        done = np.abs(beta_new - beta).max() <= tol
        beta, t = beta_new, t_new
        if done:
            break
    return beta


def fista_kkt(X, y, beta, lam, zero_tol=1e-10):
    """Independent stationarity residual for the oracle's own output."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    g = X.T @ (X @ beta - y) / n
    res = 0.0
    for gi, bi in zip(g, beta):
        if abs(bi) > zero_tol:
            res = max(res, abs(gi + lam * np.sign(bi)))
        else:
            res = max(res, max(abs(gi) - lam, 0.0))
    return res
