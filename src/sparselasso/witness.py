"""Primal-dual witness for signed support recovery.

Given the measurement matrix, the signal description (supported on the
first k coordinates), the realized noise and the regularization weight,
the witness solves the Lasso restricted to the true support and reads
off

* u: the error the restricted solution makes on the support,
* va: the part of the off-support dual driven by the signal signs,
* vb: the part driven by the noise, through the projection orthogonal
  to the support columns.

Recovery verdict: the Lasso recovers the signed support exactly iff the
off-support dual stays strictly inside the unit ball (event_v on
va + vb) and every support entry keeps its sign after the error u is
added (sign_consistent).  event_u is the simpler magnitude condition
max |u| <= beta_min; it does not by itself decide success, but its
margin lower-bounds the sign margin.

The support Gram X_S^T X_S / n is factored and solved by
`blas.cholesky` and `blas.cholesky_solve`: scipy's LAPACK potrf and
potrs called directly, the same bits as `scipy.linalg.cho_factor` and
`cho_solve` without loading `scipy.linalg`.  A product that overflows
raises DataError (errors.finite_array), and no numpy warning: the Gram
before it is factored, X_S^T w / n before it is solved for, and the
off-support dual va + vb before its margin is read.  singular_extremes
checks the support block itself before its SVD.

The matrix is read through `ensemble`: the support block X_S comes from
`ensemble.first_columns` and the off-support products X^T h and X^T g
from one `ensemble.rmatvec` pass over the row slabs of the other
columns, so this module holds only the dense algebra: the Gram, its
Cholesky factor, the solves and the margins.  Two diagnostics read the
same support block: `h_vector`, the vector whose norm bounds the signal
part of the off-support dual, and `singular_extremes`, the extreme
singular values of X_S / sqrt(n).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ensemble import EnsembleSpec, SignalSpec, SparseMeasurementMatrix, first_columns, rmatvec, sample_blocks, signal_signs
from .errors import ParameterError, finite_array, integer, positive, unit_interval, vector
from . import blas, rng

# Relative floor on the restricted Gram's Cholesky pivots below which the
# support block is reported as numerically singular.
_SINGULAR_REL = 1e-10

Margins = namedtuple("Margins", ["dual", "magnitude", "sign"])

Events = namedtuple("Events", ["event_v", "event_u", "sign_consistent", "success"])


@dataclass
class WitnessReport:
    invertible: bool
    success: bool = False
    u: Optional[np.ndarray] = None
    va: Optional[np.ndarray] = None
    vb: Optional[np.ndarray] = None
    event_v: Optional[bool] = None
    event_u: Optional[bool] = None
    sign_consistent: Optional[bool] = None
    margins: Optional[Margins] = None


def _factor_gram(Xs: np.ndarray):
    """The lower Cholesky factor (blas.cholesky) of X_S^T X_S / n for the
    n x k support columns Xs, or None when that block is numerically singular."""
    G = Xs.T @ Xs / Xs.shape[0]
    finite_array("support Gram X_S^T X_S / n", G)
    fac = blas.cholesky(G)
    if fac is None or float(np.diagonal(fac).min()) ** 2 <= _SINGULAR_REL * float(G.diagonal().max()):
        return None
    return fac


def _support(n: int, p: int, blocks, s: SignalSpec) -> tuple:
    """The dense support columns X_S (ensemble.first_columns) of a matrix
    with n rows and p columns, and their _factor_gram."""
    if p != s.p:
        raise ParameterError(f"matrix has p={p} but signal has p={s.p}")
    Xs = first_columns(blocks, n, s.k)
    return Xs, _factor_gram(Xs)


def _support_terms(n: int, p: int, blocks, s: SignalSpec, w: np.ndarray, lam: float, signs: np.ndarray):
    """(u, hs, g) from the support columns, or None when their block is
    singular: u = (X_S^T X_S / n)^{-1} (X_S^T w / n - lam signs), the
    error on the support; hs = X_S (X_S^T X_S / n)^{-1} signs; and
    g = (w - X_S (X_S^T X_S / n)^{-1} X_S^T w / n) / n, the noise projected
    off the support columns.  X_S and its factor are freed on return, so
    the off-support pass that follows holds only these vectors."""
    Xs, fac = _support(n, p, blocks, s)
    if fac is None:
        return None
    xtw = Xs.T @ w / n
    finite_array("support product X_S^T w / n", xtw)
    u = blas.cholesky_solve(fac, xtw - lam * signs)
    hs = Xs @ blas.cholesky_solve(fac, signs)
    g = (w - Xs @ blas.cholesky_solve(fac, xtw)) / n
    return u, hs, g


def _margins(u: np.ndarray, v: np.ndarray, lam: float, beta_min: float, signs: np.ndarray) -> Margins:
    # SignalSpec keeps 2k <= p, so v has p - k >= 1 entries and a max.
    dual = float(lam - np.abs(v).max())
    magnitude = float(beta_min - np.abs(u).max())
    sign = float((beta_min + signs * u).min())
    return Margins(dual=dual, magnitude=magnitude, sign=sign)


def _events(margins: Margins) -> Events:
    event_v = margins.dual > 0.0
    event_u = margins.magnitude >= 0.0
    sign_consistent = margins.sign > 0.0
    return Events(event_v, event_u, sign_consistent, event_v and sign_consistent)


@blas.single_threaded()
def build(m: SparseMeasurementMatrix, s: SignalSpec, w: np.ndarray, lam: float) -> WitnessReport:
    """Construct the witness for one realized instance."""
    return _build(m.spec.n, m.spec.p, m.row_blocks, s, w, lam)


@blas.single_threaded()
def build_sampled(spec: EnsembleSpec, seed: int, s: SignalSpec, w: np.ndarray, lam: float) -> WitnessReport:
    """build(sample_matrix(spec, seed), s, w, lam), bit for bit, from the
    matrix's entries drawn slab by slab (ensemble.sample_blocks): the
    support columns into X_S, then the off-support ones into the two
    products, so that the matrix itself is never held."""
    return _build(spec.n, spec.p, functools.partial(sample_blocks, spec, seed), s, w, lam)


@np.errstate(over="ignore", invalid="ignore")  # what overflows fails a finite_array check
def _build(n: int, p: int, blocks, s: SignalSpec, w: np.ndarray, lam: float) -> WitnessReport:
    """The witness of an n x p matrix whose entries in the columns [j0, j1)
    blocks(j0, j1) yields as row slabs (r0, indptr, indices, values)."""
    positive("lam", lam)
    w = vector("w", w, "n", n)
    signs = signal_signs(s)

    terms = _support_terms(n, p, blocks, s, w, lam, signs)
    if terms is None:
        return WitnessReport(invertible=False)

    u, hs, g = terms
    xh, vb = rmatvec(blocks, s.k, p, hs, g)
    va = lam * xh / n
    v = va + vb
    finite_array("off-support dual va + vb", v)

    margins = _margins(u, v, lam, s.beta_min, signs)
    events = _events(margins)
    return WitnessReport(invertible=True, u=u, va=va, vb=vb, margins=margins, **events._asdict())


@blas.single_threaded()
@np.errstate(over="ignore", invalid="ignore")  # an overflowed Gram fails _factor_gram's check
def h_vector(m: SparseMeasurementMatrix, s: SignalSpec) -> np.ndarray:
    """h = (1/n) X_S (X_S^T X_S / n)^{-1} 1 on the first-k support.

    With all-plus signs the signal part of the off-support dual is
    lam * X_j^T h, so ||h||^2 controls how much any single column can
    contribute.
    """
    Xs, fac = _support(m.spec.n, m.spec.p, m.row_blocks, s)
    if fac is None:
        raise ParameterError("support gram block is singular")
    return Xs @ blas.cholesky_solve(fac, np.ones(s.k)) / m.spec.n


@blas.single_threaded()
def singular_extremes(m: SparseMeasurementMatrix, k: int) -> tuple[float, float]:
    """(s_min, s_max) / sqrt(n) of the first k columns, k <= min(n, p).

    For the rescaled convention both stay near 1 as n grows with k fixed,
    so the scaled Gram X_S^T X_S / n of the support keeps its eigenvalues
    near 1.
    """
    n, p, k = m.spec.n, m.spec.p, integer("k", k, 1)
    if k > min(n, p):
        raise ParameterError(f"k must be at most min(n, p) = {min(n, p)}, got {k}")
    Xs = first_columns(m.row_blocks, n, k)
    finite_array("support block X_S", Xs)
    s = np.linalg.svd(Xs, compute_uv=False) / math.sqrt(n)
    return float(s[-1]), float(s[0])


def thinned_squared_norm(h: np.ndarray, gamma: float, seed: int) -> float:
    """||H||^2 after keeping each entry of h independently with probability gamma."""
    h = np.array(h, dtype=np.float64)
    if h.ndim != 1:
        raise ParameterError(f"h must be 1-D, got shape {h.shape}")
    finite_array("h", h)
    key = rng.derive_key(integer("seed", seed), rng.TAG_THIN)
    # A one-row grid is one block.
    [(_, _, flat)] = rng.kept_blocks(key, 1, 0, h.size, unit_interval("gamma", gamma))
    kept = h[flat]
    return float(kept @ kept)
