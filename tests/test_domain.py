"""The parameter domain at the library boundary: every float parameter of a
public constructor or entry point rejects NaN and +-inf with a
ParameterError that names it, and numpy scalars are accepted wherever
plain numbers are."""

import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselasso import (
    EnsembleSpec,
    LassoConfig,
    ParameterError,
    SignalSpec,
    SweepConfig,
    build,
    check_events,
    kkt_residual,
    make_signal,
    noise_vector,
    objective_value,
    observe,
    sample_matrix,
    signed_support,
    solve,
    thinned_squared_norm,
    theory,
)

_M = sample_matrix(EnsembleSpec(n=40, p=20, gamma=1.0), 3)
_S = SignalSpec(p=20, k=2)
_W = noise_vector(40, 0.01, 1)
_Y = _M.to_csr() @ make_signal(_S) + _W

# One valid call of each target, by keyword; the tests swap one float in.
_VALID_CALLS = {
    EnsembleSpec: dict(n=4, p=4, gamma=0.5),
    SignalSpec: dict(p=20, k=2),
    LassoConfig: dict(lam=0.1),
    SweepConfig: dict(p_list=(64,), theta_grid=(1.0,), trials=1, base_seed=1),
    noise_vector: dict(n=3, variance=1.0, noise_seed=1),
    observe: dict(m=_M, beta_star=make_signal(_S), sigma2=0.01, noise_seed=1),
    build: dict(m=_M, s=_S, w=_W, lam=0.1),
    check_events: dict(r=build(_M, _S, _W, 0.1), lam=0.1, beta_min=1.0),
    thinned_squared_norm: dict(h=np.ones(5), gamma=0.5, seed=1),
    objective_value: dict(X=_M, y=_Y, beta=make_signal(_S), lam=0.1),
    kkt_residual: dict(X=_M, y=_Y, lam=0.1, beta=make_signal(_S), zero_tol=1e-8),
    signed_support: dict(beta=make_signal(_S), zero_tol=1e-8),
    theory.sample_size: dict(theta=1.0, p=100, k=5),
    theory.required_sample_size: dict(p=100, k=5, eps=0.0),
    theory.recovery_conditions: dict(n=400, p=100, k=8, gamma=0.5, lam=0.1, beta_min=1.0),
    theory.snr_diagnostic: dict(gamma=0.5, n=100, beta_min=1.0),
    theory.hoeffding_bound: dict(n=10, delta=0.1),
    theory.chi2_bound: dict(m=10, delta=0.1),
    theory.gaussian_bound: dict(sigma2=1.0, delta=0.1),
    theory.sv_deviation: dict(gamma=0.5, k=40, p=1032, theta_frac=1.0, t=992.0),
}


def _float_params(target) -> list:
    """The parameters (or dataclass fields) of target annotated float or Optional[float]."""
    hints = typing.get_type_hints(target)
    return [name for name, hint in hints.items() if name != "return" and hint in (float, typing.Optional[float])]


_PAIRS = [(target, name) for target in _VALID_CALLS for name in _float_params(target)]
_FLOAT_PARAMS = [pytest.param(target, name, id=f"{target.__name__}.{name}") for target, name in _PAIRS]


def test_every_target_has_a_float_parameter():
    assert {target for target, _ in _PAIRS} == set(_VALID_CALLS)


@pytest.mark.parametrize("target", _VALID_CALLS, ids=lambda t: t.__name__)
def test_valid_call_succeeds(target):
    target(**_VALID_CALLS[target])


_NON_FINITE = st.tuples(st.sampled_from([math.nan, math.inf, -math.inf]), st.sampled_from([float, np.float64, np.float32]))


@pytest.mark.parametrize("target, name", _FLOAT_PARAMS)
@settings(max_examples=15, deadline=None)
@given(value=_NON_FINITE.map(lambda pair: pair[1](pair[0])))
def test_non_finite_float_is_a_parameter_error_naming_it(target, name, value):
    with pytest.raises(ParameterError, match=f"^{name} must be finite, got "):
        target(**{**_VALID_CALLS[target], name: value})


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 40),
    p=st.integers(1, 40),
    gamma=st.floats(0.0, 1.0, width=32, exclude_min=True),
    seed=st.integers(0, 2**32),
)
def test_numpy_scalars_sample_the_same_matrix_bytes(n, p, gamma, seed):
    plain = sample_matrix(EnsembleSpec(n=n, p=p, gamma=gamma), seed)
    scalars = sample_matrix(EnsembleSpec(n=np.int64(n), p=np.int32(p), gamma=np.float32(gamma)), seed)
    assert scalars.spec == plain.spec
    assert all(type(v) is t for v, t in zip((scalars.spec.n, scalars.spec.p, scalars.spec.gamma), (int, int, float)))
    for field in ("indptr", "indices", "values"):
        assert getattr(scalars, field).tobytes() == getattr(plain, field).tobytes()


def test_numpy_scalars_are_accepted_by_signal_and_solver_configs():
    s = SignalSpec(p=np.int64(20), k=np.int32(2), beta_min=np.float32(0.5))
    assert s == SignalSpec(p=20, k=2, beta_min=0.5) and type(s.p) is int and type(s.k) is int
    y = _M.to_csr() @ make_signal(_S) + _W
    plain = solve(_M, y, LassoConfig(lam=0.1, max_iter=50))
    scalars = solve(_M, y, LassoConfig(lam=np.float64(0.1), zero_tol=np.float32(1e-8), max_iter=np.int64(50)))
    assert scalars.beta_hat.tobytes() == plain.beta_hat.tobytes()


@pytest.mark.parametrize("target", [objective_value, kkt_residual, signed_support], ids=lambda t: t.__name__)
def test_lasso_helpers_accept_zero_and_reject_negative_penalty_and_tolerance(target):
    """lam = 0 is plain least squares and zero_tol = 0 an exact-zero test; both stay accepted."""
    call = _VALID_CALLS[target]
    for name in set(call) & {"lam", "zero_tol"}:
        target(**{**call, name: 0.0})
        with pytest.raises(ParameterError, match=f"^{name} must be non-negative, got "):
            target(**{**call, name: -1e-3})
