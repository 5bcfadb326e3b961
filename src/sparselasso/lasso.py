"""Lasso solver: cyclic coordinate descent with a maintained residual.

Minimizes (1/2n) ||y - X b||^2 + lam * ||b||_1.  The iterate is declared
converged when a full sweep moves no coordinate by more than `tol` and
the subgradient residual is within 10 * tol; hitting max_iter first
reports converged=False rather than raising.  An iterate or objective
that overflows raises DataError (errors.finite_array).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Union

import numpy as np

from . import blas
from .ensemble import SparseMeasurementMatrix
from .errors import finite_array, integer, non_negative, positive, vector


class SparseMatrix(Protocol):
    """A scipy.sparse matrix or array, which the solver reads through
    tocsc(); named by its method so that importing this module does not
    load scipy.sparse."""

    def tocsc(self): ...


MatrixLike = Union[SparseMeasurementMatrix, SparseMatrix, np.ndarray]


@dataclass(frozen=True)
class LassoConfig:
    lam: float
    tol: float = 1e-8
    max_iter: int = 10000
    zero_tol: float = 1e-8

    def __post_init__(self) -> None:
        positive("lam", self.lam)
        positive("tol", self.tol)
        integer("max_iter", self.max_iter, 1)
        non_negative("zero_tol", self.zero_tol)


@dataclass
class LassoSolution:
    beta_hat: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool


def soft_threshold(x, lam: float):
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def _as_csc(X: MatrixLike):
    """X as a scipy.sparse CSC matrix."""
    import scipy.sparse as sp

    if isinstance(X, SparseMeasurementMatrix):
        return X.to_csr().tocsc()
    if sp.issparse(X):
        return X.tocsc()
    return sp.csc_matrix(np.asarray(X, dtype=np.float64))


def _problem(X: MatrixLike, y: np.ndarray) -> tuple:
    """X as CSC and a float64 copy of y, a vector of length n; both finite."""
    Xc = _as_csc(X)
    y = vector("y", y, "n", Xc.shape[0])
    finite_array("X", Xc.data)
    return Xc, y


def kkt_residual(X: MatrixLike, y: np.ndarray, lam: float, beta: np.ndarray, zero_tol: float = LassoConfig.zero_tol) -> float:
    """Worst-coordinate violation of the stationarity conditions.

    With g = (1/n) X^T (X beta - y), an exact minimizer has
    g_i = -lam * sign(beta_i) on the active set and |g_i| <= lam off it.
    Entries within zero_tol of zero count as inactive.
    """
    lam = non_negative("lam", lam)
    zero_tol = non_negative("zero_tol", zero_tol)
    Xc, y = _problem(X, y)
    n, p = Xc.shape
    beta = vector("beta", beta, "p", p)
    g = Xc.T @ (Xc @ beta - y) / n
    active = np.abs(beta) > zero_tol
    viol = np.where(active, np.abs(g + lam * np.sign(beta)), np.maximum(np.abs(g) - lam, 0.0))
    return float(viol.max()) if viol.size else 0.0


def signed_support(beta: np.ndarray, zero_tol: float = LassoConfig.zero_tol) -> np.ndarray:
    """Entrywise sign in {-1, 0, +1}, zeroing anything within zero_tol."""
    zero_tol = non_negative("zero_tol", zero_tol)
    beta = np.asarray(beta)
    out = np.sign(beta).astype(np.int8)
    out[np.abs(beta) <= zero_tol] = 0
    return out


@blas.single_threaded()
@np.errstate(over="ignore", invalid="ignore")  # what overflows fails a finite_array check below
def solve(X: MatrixLike, y: np.ndarray, config: LassoConfig) -> LassoSolution:
    Xc, y = _problem(X, y)
    n, p = Xc.shape

    indptr, indices, data = Xc.indptr, Xc.indices, Xc.data
    col_scale = np.zeros(p)
    for j in range(p):
        seg = data[indptr[j] : indptr[j + 1]]
        col_scale[j] = seg @ seg / n
    finite_array("X^T X / n diagonal", col_scale)

    beta = np.zeros(p)
    r = y.copy()

    lam, tol = config.lam, config.tol
    converged = False
    it = 0
    for it in range(1, config.max_iter + 1):
        delta_max = 0.0
        for j in range(p):
            cj = col_scale[j]
            if cj == 0.0:
                continue
            lo, hi = indptr[j], indptr[j + 1]
            idx = indices[lo:hi]
            vals = data[lo:hi]
            bj = beta[j]
            rho = vals @ r[idx] / n + cj * bj
            bj_new = soft_threshold(rho, lam) / cj
            if bj_new != bj:
                r[idx] -= vals * (bj_new - bj)
                beta[j] = bj_new
                delta_max = max(delta_max, abs(bj_new - bj))
        finite_array("coordinate descent iterate", beta)
        if delta_max <= tol:
            kkt = kkt_residual(Xc, y, lam, beta, config.zero_tol)
            if kkt <= 10.0 * tol:
                converged = True
                break
    if not converged:
        kkt = kkt_residual(Xc, y, lam, beta, config.zero_tol)

    objective = 0.5 / n * (r @ r) + lam * np.abs(beta).sum()
    finite_array("objective", objective)
    return LassoSolution(
        beta_hat=beta,
        objective=objective,
        kkt_residual=kkt,
        iterations=it,
        converged=converged,
    )
