"""Closed-form scalars for the recovery analysis.

Natural logarithms throughout.  Everything here is a deterministic
function of its arguments; the only sampling lives in
`run_bound_checks`, which estimates tail probabilities to confirm the
closed-form bounds dominate them.  Nothing here reads a matrix: the
singular values of the support block are `witness.singular_extremes`.

The asymptotic growth conditions are reported as raw scalars for trend
analysis, never as pass/fail booleans: they are limits statements and
have no finite-sample truth value.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import ParameterError, finite, integer, non_negative, one_of, positive, unit_interval

GAMMA_RULES = ("sixth_root", "log_over_sqrt")


def _log_gap(p: int, k: int) -> float:
    p, k = integer("p", p), integer("k", k, 1)
    if p - k < 2:
        raise ParameterError(f"need p - k >= 2 so log(p - k) is positive, got p - k = {p - k}")
    return math.log(p - k)


def _loglog_gap(p: int, k: int) -> float:
    log_gap = _log_gap(p, k)
    if log_gap <= 1.0:
        raise ParameterError(f"need p - k >= 3 so log log(p - k) is positive, got p - k = {p - k}")
    return math.log(log_gap)


def control_parameter(n: int, p: int, k: int) -> float:
    """theta = n / (2 k log(p - k)); recovery transitions near theta = 1."""
    return integer("n", n, 1) / (2.0 * k * _log_gap(p, k))


def sample_size(theta: float, p: int, k: int) -> int:
    """n = ceil(theta 2 k log(p - k)), the sample size at control parameter theta."""
    return math.ceil(positive("theta", theta) * 2.0 * k * _log_gap(p, k))


def required_sample_size(p: int, k: int, eps: float = 0.0) -> int:
    """Smallest n strictly greater than (2 + eps) k log(p - k)."""
    return math.floor((2.0 + non_negative("eps", eps)) * k * _log_gap(p, k)) + 1


def gamma_schedule(p: int, k: int, gamma_rule: str) -> float:
    """Sparsification level as a function of problem shape.

    * sixth_root: (log log(p-k) / log(p-k))^(1/6), the slowest decay the
      recovery guarantee tolerates.
    * log_over_sqrt: 0.5 log(p-k) / sqrt(p-k), a much more aggressive
      decay used for the phase-transition experiments.

    Since log(x) / x <= 1/e, both stay below 1: sixth_root at most
    e^(-1/6) ~ 0.846 and log_over_sqrt at most 1/e ~ 0.368.
    """
    if one_of("gamma_rule", gamma_rule, GAMMA_RULES) == "sixth_root":
        return (_loglog_gap(p, k) / _log_gap(p, k)) ** (1.0 / 6.0)
    return 0.5 * _log_gap(p, k) / math.sqrt(p - k)


def lambda_schedule(n: int, p: int, k: int) -> float:
    """Regularization weight sqrt((log(p-k)/n) * sqrt(log(p-k)/loglog(p-k)))."""
    integer("n", n, 1)
    log_gap = _log_gap(p, k)
    loglog_gap = _loglog_gap(p, k)
    return math.sqrt(log_gap / n * math.sqrt(log_gap / loglog_gap))


ConditionReport = namedtuple("ConditionReport", ["q1", "q2", "q3"])


def recovery_conditions(n: int, p: int, k: int, gamma: float, lam: float, beta_min: float) -> ConditionReport:
    """The three scalars whose joint divergence/vanishing drives recovery.

    q1 = n lam^2 gamma / log(p-k)                        (should diverge)
    q2 = (lam/beta_min)(1 + (sqrt(k)/gamma) sqrt(loglog/log))  (should vanish)
    q3 = gamma^3 min{k, log(p-k)/loglog(p-k)}            (should diverge)
    """
    integer("n", n, 1)
    unit_interval("gamma", gamma)
    positive("lam", lam)
    positive("beta_min", beta_min)
    log_gap = _log_gap(p, k)
    loglog_gap = _loglog_gap(p, k)
    q1 = n * lam * lam * gamma / log_gap
    q2 = lam / beta_min * (1.0 + math.sqrt(k) / gamma * math.sqrt(loglog_gap / log_gap))
    q3 = gamma**3 * min(k, log_gap / loglog_gap)
    return ConditionReport(q1=q1, q2=q2, q3=q3)


def snr_diagnostic(gamma: float, n: int, beta_min: float) -> float:
    """gamma * n * beta_min^2; when this stays bounded no method can recover."""
    unit_interval("gamma", gamma)
    integer("n", n, 1)
    positive("beta_min", beta_min)
    return gamma * n * beta_min * beta_min


def hoeffding_bound(n: int, delta: float) -> float:
    """2 exp(-2 n delta^2): two-sided deviation of a mean of n bounded variates."""
    integer("n", n, 1)
    non_negative("delta", delta)
    return 2.0 * math.exp(-2.0 * n * delta * delta)


def chi2_bound(m: int, delta: float) -> float:
    """exp(-3 m delta^2 / 16): upper tail P[X >= m(1 + delta)] for chi-squared with m dof.

    Valid only on 0 <= delta < 1/2.
    """
    integer("m", m, 1)
    if not 0.0 <= finite("delta", delta) < 0.5:
        raise ParameterError(f"delta must lie in [0, 1/2), got {delta!r}")
    return math.exp(-3.0 * m * delta * delta / 16.0)


def gaussian_bound(sigma2: float, delta: float) -> float:
    """2 exp(-delta^2 / (2 sigma^2)): two-sided tail of N(0, sigma^2)."""
    positive("sigma2", sigma2)
    non_negative("delta", delta)
    return 2.0 * math.exp(-delta * delta / (2.0 * sigma2))


BoundCheck = namedtuple("BoundCheck", ["kind", "params", "bound", "estimate", "limit", "ok"])

# Parameter grid chosen so every bound is informative (< 1) while the true
# probability sits well below it.
DOMINATION_GRID = (
    ("hoeffding", {"n": 1000, "prob": 0.5, "delta": 0.05}),
    ("hoeffding", {"n": 500, "prob": 0.3, "delta": 0.06}),
    ("hoeffding", {"n": 2000, "prob": 0.7, "delta": 0.03}),
    ("chi2", {"m": 100, "delta": 0.2}),
    ("chi2", {"m": 200, "delta": 0.3}),
    ("chi2", {"m": 400, "delta": 0.25}),
    ("gaussian", {"sigma2": 1.0, "delta": 2.0}),
    ("gaussian", {"sigma2": 4.0, "delta": 5.0}),
    ("gaussian", {"sigma2": 0.25, "delta": 1.5}),
)


def run_bound_checks(seed: int, samples: int) -> list[BoundCheck]:
    """Monte Carlo estimate of each tail probability against its bound.

    A check passes when the empirical exceedance is at most
    bound + 3 sqrt(bound (1 - bound) / samples).
    """
    integer("samples", samples, 1)
    gen = np.random.default_rng(integer("seed", seed, 0))
    out = []
    for kind, params in DOMINATION_GRID:
        if kind == "hoeffding":
            n, prob, delta = params["n"], params["prob"], params["delta"]
            bound = hoeffding_bound(n, delta)
            means = gen.binomial(n, prob, size=samples) / n
            exceed = np.abs(means - prob) >= delta
        elif kind == "chi2":
            m_dof, delta = params["m"], params["delta"]
            bound = chi2_bound(m_dof, delta)
            exceed = gen.chisquare(m_dof, size=samples) >= m_dof * (1.0 + delta)
        else:  # gaussian
            sigma2, delta = params["sigma2"], params["delta"]
            bound = gaussian_bound(sigma2, delta)
            exceed = np.abs(gen.normal(0.0, math.sqrt(sigma2), size=samples)) >= delta
        estimate = float(exceed.mean())
        limit = bound + 3.0 * math.sqrt(bound * (1.0 - bound) / samples)
        out.append(BoundCheck(kind=kind, params=dict(params), bound=bound, estimate=estimate, limit=limit, ok=estimate <= limit))
    return out
