import numpy as np
import pytest

from sparselasso import (
    DataError,
    EnsembleSpec,
    LassoConfig,
    ParameterError,
    kkt_residual,
    sample_matrix,
    signed_support,
    soft_threshold,
    solve,
)

from oracles import fista_kkt, fista_lasso


def _instance(seed, n, p, k=None, noise=0.1):
    """Dense random instance with a planted sparse signal."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta_star = np.zeros(p)
    if k is None:
        k = max(1, p // 4)
    beta_star[:k] = rng.choice([-1.0, 1.0], size=k) * (1.0 + rng.random(k))
    y = X @ beta_star + noise * rng.standard_normal(n)
    return X, y


def test_config_validation():
    with pytest.raises(ParameterError):
        LassoConfig(lam=0.0)
    with pytest.raises(ParameterError):
        LassoConfig(lam=-0.1)
    with pytest.raises(ParameterError):
        LassoConfig(lam=0.1, tol=0.0)
    with pytest.raises(ParameterError):
        LassoConfig(lam=0.1, max_iter=0)
    with pytest.raises(ParameterError):
        LassoConfig(lam=0.1, zero_tol=-1e-9)


def test_soft_threshold():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0
    x = np.array([-2.0, -0.3, 0.0, 0.3, 2.0])
    assert np.array_equal(soft_threshold(x, 0.5), [-1.5, 0.0, 0.0, 0.0, 1.5])


def test_identity_design_closed_form():
    # With X = I_3 each coordinate decouples and the minimizer is
    # soft(y_i, n * lam).
    X = np.eye(3)
    y = np.array([2.0, -0.5, 0.0])
    sol = solve(X, y, LassoConfig(lam=0.1))
    assert sol.converged
    assert np.allclose(sol.beta_hat, [1.7, -0.2, 0.0], rtol=0, atol=1e-12)


def test_large_lambda_gives_zero():
    X, y = _instance(0, 30, 8)
    lam_max = np.abs(X.T @ y).max() / X.shape[0]
    sol = solve(X, y, LassoConfig(lam=lam_max * 1.000001))
    assert np.array_equal(sol.beta_hat, np.zeros(8))
    assert sol.converged
    assert sol.iterations == 1


def test_tiny_lambda_approaches_least_squares():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((10, 5))
    y = rng.standard_normal(10)
    sol = solve(X, y, LassoConfig(lam=1e-10, tol=1e-12, max_iter=200000))
    ls = np.linalg.solve(X.T @ X, X.T @ y)
    assert np.abs(sol.beta_hat - ls).max() <= 1e-6


def test_objective_history_non_increasing():
    X, y = _instance(7, 60, 25)
    sol = solve(X, y, LassoConfig(lam=0.05))
    # CD is deterministic, so a run cut at max_iter=t reports the objective
    # after the t-th sweep of the full run.
    hist = [solve(X, y, LassoConfig(lam=0.05, max_iter=t)).objective for t in range(1, sol.iterations + 1)]
    assert sol.objective == hist[-1]
    assert np.all(np.diff(hist) <= 1e-12)
    # and the reported objective matches a from-scratch evaluation
    r = y - X @ sol.beta_hat
    objective = 0.5 / X.shape[0] * (r @ r) + 0.05 * np.abs(sol.beta_hat).sum()
    assert objective == pytest.approx(sol.objective, rel=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_kkt_soundness(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(20, 80))
    p = int(rng.integers(5, 30))
    X, y = _instance(seed, n, p)
    cfg = LassoConfig(lam=float(0.02 + 0.2 * rng.random()))
    sol = solve(X, y, cfg)
    assert sol.converged
    assert sol.kkt_residual <= 10.0 * cfg.tol
    # independent stationarity check on the same iterate
    assert fista_kkt(X, y, sol.beta_hat, cfg.lam) <= 10.0 * cfg.tol + 1e-12
    assert kkt_residual(X, y, cfg.lam, sol.beta_hat) == pytest.approx(
        fista_kkt(X, y, sol.beta_hat, cfg.lam), abs=1e-12
    )


def test_scale_covariance():
    # Scaling y and lam by the same c scales the solution path by c.
    X, y = _instance(11, 40, 12)
    c = 3.7
    cfg = LassoConfig(lam=0.08, tol=1e-12)
    a = solve(X, y, cfg)
    b = solve(X, c * y, LassoConfig(lam=c * 0.08, tol=1e-12))
    assert np.allclose(b.beta_hat, c * a.beta_hat, rtol=1e-8, atol=1e-10)


def test_perturbed_active_coordinate_breaks_stationarity():
    X, y = _instance(5, 20, 8)
    cfg = LassoConfig(lam=0.05)
    sol = solve(X, y, cfg)
    assert sol.converged
    j = int(np.argmax(np.abs(sol.beta_hat)))
    assert abs(sol.beta_hat[j]) > cfg.zero_tol
    bumped = sol.beta_hat.copy()
    bumped[j] += np.sign(bumped[j])  # keeps the sign, moves off the optimum
    cj = X[:, j] @ X[:, j] / X.shape[0]
    assert kkt_residual(X, y, cfg.lam, bumped) >= cj - 10.0 * cfg.tol


@pytest.mark.parametrize("seed", range(10))
def test_agrees_with_accelerated_gradient_oracle(seed):
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(15, 41))
    p = int(rng.integers(6, 13))
    X, y = _instance(2000 + seed, n, p)
    lam = float(0.03 + 0.15 * rng.random())
    ref = fista_lasso(X, y, lam)
    assert fista_kkt(X, y, ref, lam) <= 1e-7  # the oracle itself converged
    sol = solve(X, y, LassoConfig(lam=lam, tol=1e-10))
    assert sol.converged
    assert np.array_equal(signed_support(sol.beta_hat, 1e-6), signed_support(ref, 1e-6))
    assert np.abs(sol.beta_hat - ref).max() <= 1e-5


def test_sparse_input_matches_dense():
    m = sample_matrix(EnsembleSpec(n=50, p=20, gamma=0.5, convention="rescaled"), seed=21)
    X = m.to_csr().toarray()
    rng = np.random.default_rng(8)
    y = rng.standard_normal(50)
    cfg = LassoConfig(lam=0.1)
    a = solve(m, y, cfg)
    b = solve(X, y, cfg)
    assert np.array_equal(a.beta_hat, b.beta_hat)


def test_zero_column_stays_zero():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((25, 6))
    X[:, 2] = 0.0
    y = rng.standard_normal(25)
    sol = solve(X, y, LassoConfig(lam=0.05))
    assert sol.beta_hat[2] == 0.0
    assert np.all(np.isfinite(sol.beta_hat))


def test_max_iter_exhaustion_reports_not_converged():
    X, y = _instance(9, 50, 20)
    sol = solve(X, y, LassoConfig(lam=0.01, max_iter=1))
    assert not sol.converged
    assert sol.iterations == 1


def test_non_finite_inputs_rejected():
    X, y = _instance(2, 15, 5)
    Xbad = X.copy()
    Xbad[3, 1] = np.nan
    with pytest.raises(DataError):
        solve(Xbad, y, LassoConfig(lam=0.1))
    ybad = y.copy()
    ybad[0] = np.inf
    with pytest.raises(DataError):
        solve(X, ybad, LassoConfig(lam=0.1))
    with pytest.raises(ParameterError):
        solve(X, y[:-1], LassoConfig(lam=0.1))


def test_signed_support():
    beta = np.array([0.5, -2.0, 1e-12, 0.0, -1e-12])
    assert np.array_equal(signed_support(beta), [1, -1, 0, 0, 0])
    assert signed_support(beta).dtype == np.int8
    assert np.array_equal(signed_support(beta, zero_tol=0.6), [0, -1, 0, 0, 0])
