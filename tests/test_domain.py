"""The parameter domain at the library boundary: every float parameter of a
public constructor or entry point rejects NaN and +-inf with a
ParameterError that names it, every rule choice rejects a value outside
its tuple the same way, a value that only one rule choice reads is given
exactly under that choice, every data vector must have its length (or,
where any length is allowed, be 1-D) and finite entries, seeds must be
integers, and numpy scalars are accepted wherever plain numbers are."""

import functools
import math
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselasso import (
    DataError,
    EnsembleSpec,
    LassoConfig,
    ParameterError,
    SignalSpec,
    SweepConfig,
    build,
    kkt_residual,
    make_signal,
    noise_vector,
    observe,
    sample_matrix,
    signed_support,
    solve,
    thinned_squared_norm,
    theory,
)
from sparselasso.ensemble import sample_blocks
from sparselasso.sweep import derive_k

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
    thinned_squared_norm: dict(h=np.ones(5), gamma=0.5, seed=1),
    kkt_residual: dict(X=_M, y=_Y, lam=0.1, beta=make_signal(_S), zero_tol=1e-8),
    signed_support: dict(beta=make_signal(_S), zero_tol=1e-8),
    theory.sample_size: dict(theta=1.0, p=100, k=5),
    theory.required_sample_size: dict(p=100, k=5, eps=0.0),
    theory.recovery_conditions: dict(n=400, p=100, k=8, gamma=0.5, lam=0.1, beta_min=1.0),
    theory.snr_diagnostic: dict(gamma=0.5, n=100, beta_min=1.0),
    theory.hoeffding_bound: dict(n=10, delta=0.1),
    theory.chi2_bound: dict(m=10, delta=0.1),
    theory.gaussian_bound: dict(sigma2=1.0, delta=0.1),
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


@pytest.mark.parametrize("target", [kkt_residual, signed_support], ids=lambda t: t.__name__)
def test_lasso_helpers_accept_zero_and_reject_negative_penalty_and_tolerance(target):
    """lam = 0 is plain least squares and zero_tol = 0 an exact-zero test; both stay accepted."""
    call = _VALID_CALLS[target]
    for name in set(call) & {"lam", "zero_tol"}:
        target(**{**call, name: 0.0})
        with pytest.raises(ParameterError, match=f"^{name} must be non-negative, got "):
            target(**{**call, name: -1e-3})


_DERIVE_K = dict(p_list=(64,), sparsity_rule="polynomial", poly_exponent=0.5, linear_alpha=0.125, k_list=None)

# Every rule choice the library takes, with a valid call to swap "bogus" into.
_MEMBERSHIP = [
    (EnsembleSpec, "convention", _VALID_CALLS[EnsembleSpec]),
    (SignalSpec, "sign_pattern", _VALID_CALLS[SignalSpec]),
    (SweepConfig, "gamma_rule", _VALID_CALLS[SweepConfig]),
    (SweepConfig, "lambda_rule", _VALID_CALLS[SweepConfig]),
    (SweepConfig, "mode", _VALID_CALLS[SweepConfig]),
    (SweepConfig, "convention", _VALID_CALLS[SweepConfig]),
    (derive_k, "sparsity_rule", _DERIVE_K),
    (theory.gamma_schedule, "gamma_rule", dict(p=1024, k=32, gamma_rule="sixth_root")),
]


@pytest.mark.parametrize(
    "target, name, call", [pytest.param(*m, id=f"{m[0].__name__}.{m[1]}") for m in _MEMBERSHIP]
)
def test_value_outside_its_rule_choices_is_a_parameter_error_naming_it(target, name, call):
    target(**call)
    with pytest.raises(ParameterError, match=f"^{name} must be one of \\(.*\\), got 'bogus'$"):
        target(**{**call, name: "bogus"})


# Every value that only one rule choice reads: (target, value name, a valid
# value, rule name, the choice that reads it, a valid call under another choice).
_READ_ONLY_BY = [
    (SweepConfig, "gamma_value", 0.3, "gamma_rule", "constant", {**_VALID_CALLS[SweepConfig], "gamma_rule": "log_over_sqrt"}),
    (SweepConfig, "lambda_value", 0.3, "lambda_rule", "constant", {**_VALID_CALLS[SweepConfig], "lambda_rule": "scaled"}),
    (derive_k, "k_list", (4,), "sparsity_rule", "explicit", _DERIVE_K),
    (SignalSpec, "sign_seed", 5, "sign_pattern", "seeded_random", {**_VALID_CALLS[SignalSpec], "sign_pattern": "all_plus"}),
]


@pytest.mark.parametrize(
    "target, name, value, rule_name, reader, call", [pytest.param(*r, id=f"{r[0].__name__}.{r[1]}") for r in _READ_ONLY_BY]
)
def test_value_is_given_exactly_when_its_rule_choice_reads_it(target, name, value, rule_name, reader, call):
    target(**call)
    target(**{**call, rule_name: reader, name: value})
    with pytest.raises(ParameterError, match=f"^{name} is read only by {rule_name}='{reader}', not '{call[rule_name]}'$"):
        target(**{**call, name: value})
    with pytest.raises(ParameterError, match=f"^{rule_name}='{reader}' requires {name}$"):
        target(**{**call, rule_name: reader})


_SEEDED_CALLS = [
    (sample_matrix, "seed", dict(spec=EnsembleSpec(n=4, p=4, gamma=0.5), seed=1)),
    (noise_vector, "noise_seed", _VALID_CALLS[noise_vector]),
    (observe, "noise_seed", _VALID_CALLS[observe]),
    (thinned_squared_norm, "seed", _VALID_CALLS[thinned_squared_norm]),
    (SignalSpec, "sign_seed", dict(p=20, k=2, sign_pattern="seeded_random", sign_seed=4)),
    (theory.run_bound_checks, "seed", dict(seed=1, samples=10)),
]


@pytest.mark.parametrize(
    "target, name, call", [pytest.param(*c, id=f"{c[0].__name__}.{c[1]}") for c in _SEEDED_CALLS]
)
@pytest.mark.parametrize("seed", [1.5, np.float64(2.0), "3"])
def test_non_integer_seed_is_a_parameter_error_naming_it(target, name, call, seed):
    target(**{**call, name: np.int64(call[name])})
    with pytest.raises(ParameterError, match=f"^{name}: expected an integer, got "):
        target(**{**call, name: seed})


def test_negative_seeds_stay_masked_to_64_bits_except_for_the_bound_checks():
    spec = EnsembleSpec(n=6, p=5, gamma=0.5)
    a, b = sample_matrix(spec, -1), sample_matrix(spec, 2**64 - 1)
    for field in ("indptr", "indices", "values"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    assert noise_vector(3, 1.0, -5).tobytes() == noise_vector(3, 1.0, 2**64 - 5).tobytes()
    assert SignalSpec(p=20, k=2, sign_pattern="seeded_random", sign_seed=-1).sign_seed == -1
    with pytest.raises(ParameterError, match="^seed must be at least 0, got -1$"):
        theory.run_bound_checks(-1, 10)


@pytest.mark.parametrize("n, message", [(2.5, "^n: expected an integer"), (0, "^n must be at least 1"), (-1, "^n must be at least 1")])
def test_noise_vector_checks_its_length(n, message):
    with pytest.raises(ParameterError, match=message):
        noise_vector(n, 1.0, 1)


_SLAB_SPEC = EnsembleSpec(n=6, p=8, gamma=0.5)
_SLAB_SOURCES = {
    "sample_blocks": functools.partial(sample_blocks, _SLAB_SPEC, 3),
    "row_blocks": sample_matrix(_SLAB_SPEC, 3).row_blocks,
}


@pytest.mark.parametrize("source", _SLAB_SOURCES)
@pytest.mark.parametrize(
    "j0, j1, message",
    [
        (0, 9, "^column range needs 0 <= j0 <= j1 <= p = 8, got j0 = 0, j1 = 9$"),
        (5, 2, "^column range needs 0 <= j0 <= j1 <= p = 8, got j0 = 5, j1 = 2$"),
        (-1, 3, "^j0 must be at least 0, got -1$"),
        (0.5, 3, "^j0: expected an integer, got 0.5$"),
        (0, None, "^j1: expected an integer, got None$"),
    ],
    ids=["past_p", "reversed", "negative", "not_integer", "none"],
)
def test_slab_sources_check_their_column_range_when_called(source, j0, j1, message):
    with pytest.raises(ParameterError, match=message):
        _SLAB_SOURCES[source](j0, j1)


def test_snr_diagnostic_takes_gamma_in_the_unit_interval():
    assert theory.snr_diagnostic(1.0, 10, 1.0) == 10.0
    with pytest.raises(ParameterError, match="^gamma must lie in \\(0, 1\\], got 2.0$"):
        theory.snr_diagnostic(2.0, 10, 1.0)


# Every data vector an entry point takes: (target, vector name, its length
# as the error words it or None where any length is allowed, a valid call).
_VECTORS = [
    (observe, "beta_star", "p=20", _VALID_CALLS[observe]),
    (build, "w", "n=40", _VALID_CALLS[build]),
    (thinned_squared_norm, "h", None, _VALID_CALLS[thinned_squared_norm]),
    (kkt_residual, "y", "n=40", _VALID_CALLS[kkt_residual]),
    (kkt_residual, "beta", "p=20", _VALID_CALLS[kkt_residual]),
    (solve, "y", "n=40", dict(X=_M, y=_Y, config=LassoConfig(lam=0.1, max_iter=50))),
]


@pytest.mark.parametrize(
    "target, name, length, call", [pytest.param(*v, id=f"{v[0].__name__}.{v[1]}") for v in _VECTORS]
)
def test_data_vector_must_be_finite_with_its_length(target, name, length, call):
    """A 1 x length matrix and a vector one entry short are not vectors of
    a fixed length, a 1 x length matrix and a 0-d value are not vectors of
    any length, NaN and +-inf entries are bad data, and the caller's vector
    is left as it was."""
    valid = np.array(call[name], dtype=np.float64)
    if length is None:
        wrongs = [(wrong, f"{name} must be 1-D, got shape {wrong.shape}") for wrong in (valid.reshape(1, -1), valid[0])]
    else:
        wrongs = [(wrong, f"{name} must have length {length}") for wrong in (valid.reshape(1, -1), valid[:-1])]
    for wrong, message in wrongs:
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            target(**{**call, name: wrong})
    for bad in (math.nan, math.inf, -math.inf):
        values = valid.copy()
        values[1] = bad
        with pytest.raises(DataError, match=f"^{name} contains non-finite values$"):
            target(**{**call, name: values})
    target(**call)
    assert np.array_equal(call[name], valid)
