"""Lasso solver: cyclic coordinate descent with a maintained residual.

Minimizes (1/2n) ||y - X b||^2 + lam * ||b||_1 for a
SparseMeasurementMatrix X.  Coordinate descent reads X column by column
from `ensemble.columns`, the arrays of scipy's tocsc(), and the KKT
check forms its gradient X^T (X beta - y) / n with `ensemble.matvec` and
`ensemble.rmatvec` over the row slabs of every column, the product the
witness runs off the support; scipy.sparse is never loaded.  The iterate
is declared converged when a full sweep moves no coordinate by more than
`tol` and the subgradient residual is within 10 * tol; hitting max_iter
first reports converged=False rather than raising.  A non-finite entry
of X, or a column norm, iterate, gradient or objective that overflows,
raises DataError (errors.finite_array).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blas, ensemble
from .ensemble import SparseMeasurementMatrix
from .errors import finite_array, integer, non_negative, positive, vector


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


def kkt_residual(m: SparseMeasurementMatrix, y: np.ndarray, lam: float, beta: np.ndarray, zero_tol: float) -> float:
    """Worst-coordinate violation of the stationarity conditions.

    With g = (1/n) X^T (X beta - y), an exact minimizer has
    g_i = -lam * sign(beta_i) on the active set and |g_i| <= lam off it.
    Entries within zero_tol of zero count as inactive.
    """
    lam = non_negative("lam", lam)
    zero_tol = non_negative("zero_tol", zero_tol)
    y = vector("y", y, "n", m.spec.n)
    beta = vector("beta", beta, "p", m.spec.p)
    return _kkt(m, y, lam, beta, zero_tol)


@np.errstate(over="ignore", invalid="ignore")  # what overflows fails the finite_array check
def _kkt(m: SparseMeasurementMatrix, y: np.ndarray, lam: float, beta: np.ndarray, zero_tol: float) -> float:
    """kkt_residual on arguments already checked."""
    g = ensemble.rmatvec(m.row_blocks, 0, m.spec.p, ensemble.matvec(m, beta) - y)[0] / m.spec.n
    finite_array("gradient X^T (X beta - y) / n", g)
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
def solve(m: SparseMeasurementMatrix, y: np.ndarray, config: LassoConfig) -> LassoSolution:
    n, p = m.spec.n, m.spec.p
    y = vector("y", y, "n", n)

    indptr, indices, data = ensemble.columns(m)
    # Finite column norms mean finite entries, so this checks X too.
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
            kkt = _kkt(m, y, lam, beta, config.zero_tol)
            if kkt <= 10.0 * tol:
                converged = True
                break
    if not converged:
        kkt = _kkt(m, y, lam, beta, config.zero_tol)

    objective = 0.5 / n * (r @ r) + lam * np.abs(beta).sum()
    finite_array("objective", objective)
    return LassoSolution(
        beta_hat=beta,
        objective=objective,
        kkt_residual=kkt,
        iterations=it,
        converged=converged,
    )
