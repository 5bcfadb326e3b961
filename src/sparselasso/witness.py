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

from .ensemble import SignalSpec, SparseMeasurementMatrix, signal_signs
from .errors import ParameterError, integer, positive, unit_interval, vector
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
    event_v: Optional[bool] = None
    event_u: Optional[bool] = None
    sign_consistent: Optional[bool] = None
    margins: Optional[Margins] = None


def _factor_gram(m: SparseMeasurementMatrix, s: SignalSpec) -> tuple:
    """The support columns X_S and the Cholesky factor of X_S^T X_S / n, or
    None in its place when that block is numerically singular."""
    if m.spec.p != s.p:
        raise ParameterError(f"matrix has p={m.spec.p} but signal has p={s.p}")
    Xs = m.dense_columns(np.arange(s.k))
    G = Xs.T @ Xs / m.spec.n
    try:
        fac = scipy.linalg.cho_factor(G, lower=True)
    except scipy.linalg.LinAlgError:
        return Xs, None
    singular = float(np.diagonal(fac[0]).min()) ** 2 <= _SINGULAR_REL * float(G.diagonal().max())
    return Xs, None if singular else fac


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
    positive("lam", lam)
    positive("beta_min", beta_min)
    return _events(_margins(r.u, r.va + r.vb, lam, beta_min, r.signs))


@blas.single_threaded()
def build(m: SparseMeasurementMatrix, s: SignalSpec, w: np.ndarray, lam: float) -> WitnessReport:
    """Construct the witness for one realized instance."""
    positive("lam", lam)
    n, k = m.spec.n, s.k
    w = vector("w", w, "n", n)
    signs = signal_signs(s)

    Xs, fac = _factor_gram(m, s)
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
    Xs, fac = _factor_gram(m, s)
    if fac is None:
        raise ParameterError("support gram block is singular")
    h = Xs @ scipy.linalg.cho_solve(fac, np.ones(s.k)) / m.spec.n
    return HVector(h=h, squared_norm=float(h @ h))


def thinned_squared_norm(h: np.ndarray, gamma: float, seed: int) -> float:
    """||H||^2 after keeping each entry of h independently with probability gamma."""
    h = vector("h", h, "h.size", np.size(h))
    key = rng.derive_key(integer("seed", seed), rng.TAG_THIN)
    kept = h[rng.kept_entries(key, 1, h.size, unit_interval("gamma", gamma))]
    return float(kept @ kept)
