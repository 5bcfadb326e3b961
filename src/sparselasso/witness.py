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
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .ensemble import SignalSpec, SparseMeasurementMatrix, make_signal, signal_signs
from .errors import ParameterError
from .lasso import LassoSolution, signed_support
from . import blas, rng

# Relative floor on the restricted Gram's Cholesky pivots below which the
# support block is reported as numerically singular.
_SINGULAR_REL = 1e-10

Margins = namedtuple("Margins", ["dual", "magnitude", "sign"])

Events = namedtuple("Events", ["event_v", "event_u", "sign_consistent", "success"])


@dataclass
class WitnessReport:
    invertible: bool
    k: int
    lam: float
    success: bool = False
    beta_min: Optional[float] = None
    signs: Optional[np.ndarray] = None
    u: Optional[np.ndarray] = None
    va: Optional[np.ndarray] = None
    vb: Optional[np.ndarray] = None
    zhat_sc: Optional[np.ndarray] = None
    event_v: Optional[bool] = None
    event_u: Optional[bool] = None
    sign_consistent: Optional[bool] = None
    margins: Optional[Margins] = None


def _factor_gram(Xs: np.ndarray, n: int):
    G = Xs.T @ Xs / n
    gmax = float(G.diagonal().max(initial=0.0))
    if gmax <= 0.0:
        return None
    try:
        fac = scipy.linalg.cho_factor(G, lower=True)
    except scipy.linalg.LinAlgError:
        return None
    pivots = np.diagonal(fac[0])
    if float(pivots.min()) ** 2 <= _SINGULAR_REL * gmax:
        return None
    return fac


def _margins(u: np.ndarray, v: np.ndarray, lam: float, beta_min: float, signs: np.ndarray) -> Margins:
    dual = float(lam - (np.abs(v).max() if v.size else 0.0))
    magnitude = float(beta_min - np.abs(u).max())
    sign = float((beta_min + signs * u).min())
    return Margins(dual=dual, magnitude=magnitude, sign=sign)


def _events(margins: Margins) -> Events:
    event_v = margins.dual > 0.0
    event_u = margins.magnitude >= 0.0
    sign_consistent = margins.sign > 0.0
    return Events(event_v, event_u, sign_consistent, event_v and sign_consistent)


def check_events(r: WitnessReport, lam: float, beta_min: float) -> Events:
    """Re-evaluate the success events of a report at the given thresholds.

    The dual event is strict, the magnitude event is not, and success
    pairs the dual event with strict sign consistency.
    """
    if not r.invertible:
        raise ParameterError("events are undefined on a non-invertible report")
    if not beta_min > 0:
        raise ParameterError(f"beta_min must be positive, got {beta_min!r}")
    return _events(_margins(r.u, r.va + r.vb, lam, beta_min, r.signs))


@blas.single_threaded()
def build(m: SparseMeasurementMatrix, s: SignalSpec, w: np.ndarray, lam: float) -> WitnessReport:
    """Construct the witness for one realized instance."""
    if not lam > 0:
        raise ParameterError(f"lam must be positive, got {lam!r}")
    if m.spec.p != s.p:
        raise ParameterError(f"matrix has p={m.spec.p} but signal has p={s.p}")
    n = m.spec.n
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n,):
        raise ParameterError(f"w must have length n={n}")
    k = s.k
    signs = signal_signs(s)

    Xs = m.dense_columns(np.arange(k))
    fac = _factor_gram(Xs, n)
    if fac is None:
        return WitnessReport(invertible=False, k=k, lam=lam, success=False)

    xtw = Xs.T @ w / n
    u = scipy.linalg.cho_solve(fac, xtw - lam * signs)

    XT = m.to_csr().T
    hs = Xs @ scipy.linalg.cho_solve(fac, signs)
    va = lam * (XT @ hs)[k:] / n
    g = (w - Xs @ scipy.linalg.cho_solve(fac, xtw)) / n
    vb = (XT @ g)[k:]

    margins = _margins(u, va + vb, lam, s.beta_min, signs)
    events = _events(margins)
    return WitnessReport(
        invertible=True,
        k=k,
        lam=lam,
        success=events.success,
        beta_min=s.beta_min,
        signs=signs,
        u=u,
        va=va,
        vb=vb,
        zhat_sc=(va + vb) / lam,
        event_v=events.event_v,
        event_u=events.event_u,
        sign_consistent=events.sign_consistent,
        margins=margins,
    )


HVector = namedtuple("HVector", ["h", "squared_norm"])


@blas.single_threaded()
def h_vector(m: SparseMeasurementMatrix, s: SignalSpec) -> HVector:
    """h = (1/n) X_S (X_S^T X_S / n)^{-1} 1 on the first-k support.

    With all-plus signs the signal part of the off-support dual is
    lam * X_j^T h, so ||h||^2 controls how much any single column can
    contribute.
    """
    if m.spec.p != s.p:
        raise ParameterError(f"matrix has p={m.spec.p} but signal has p={s.p}")
    n = m.spec.n
    Xs = m.dense_columns(np.arange(s.k))
    fac = _factor_gram(Xs, n)
    if fac is None:
        raise ParameterError("support gram block is singular")
    h = Xs @ scipy.linalg.cho_solve(fac, np.ones(s.k)) / n
    return HVector(h=h, squared_norm=float(h @ h))


def thinned_squared_norm(h: np.ndarray, gamma: float, seed: int) -> float:
    """||H||^2 after keeping each entry of h independently with probability gamma."""
    if not 0.0 < gamma <= 1.0:
        raise ParameterError(f"gamma must lie in (0, 1], got {gamma!r}")
    h = np.asarray(h, dtype=np.float64)
    kept = h[rng.kept_entries(rng.derive_key(seed, rng.TAG_THIN), 1, h.size, gamma)]
    return float(kept @ kept)


@blas.single_threaded()
def dual_identity_check(
    m: SparseMeasurementMatrix,
    s: SignalSpec,
    w: np.ndarray,
    lam: float,
    full_solution: LassoSolution,
) -> float:
    """Cross-check the witness against independently computed counterparts.

    Requires an instance where the witness succeeded with all margins
    beyond 1e-6 and the solver converged; there the solver's optimum is
    unique with the true signed support, so the following must agree:

    * u against the solver's actual support error beta_hat_S - beta*_S,
    * vb against the noise projection computed through a QR factorization.

    Returns the largest absolute deviation across both comparisons.
    """
    report = build(m, s, w, lam)
    if not report.invertible:
        raise ParameterError("support gram block is singular")
    if not (report.success and min(report.margins) > 1e-6):
        raise ParameterError("witness must succeed with all margins above 1e-6")
    if not full_solution.converged:
        raise ParameterError("solution did not converge")
    if full_solution.kkt_residual > 10.0 * full_solution.config.tol:
        raise ParameterError("solution does not meet its own KKT tolerance")

    beta_star = make_signal(s)
    k = s.k
    dev_u = float(np.abs(report.u - (full_solution.beta_hat[:k] - beta_star[:k])).max())

    Xs = m.dense_columns(np.arange(k))
    Q, _ = np.linalg.qr(Xs)
    proj = w - Q @ (Q.T @ w)
    vb_qr = (m.to_csr().T @ proj / m.spec.n)[k:]
    dev_b = float(np.abs(report.vb - vb_qr).max())
    return max(dev_u, dev_b)
