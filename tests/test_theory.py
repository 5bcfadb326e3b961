import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sparselasso import (
    EnsembleSpec,
    ParameterError,
    control_parameter,
    gamma_schedule,
    lambda_schedule,
    read_matrix,
    recovery_conditions,
    required_sample_size,
    run_bound_checks,
    sample_matrix,
    singular_extremes,
    snr_diagnostic,
)
from sparselasso.theory import (
    DOMINATION_GRID,
    GAMMA_RULES,
    chi2_bound,
    gaussian_bound,
    hoeffding_bound,
)

# Reference values below were computed by hand from the formulas with
# mpmath before the module existed.


def test_control_parameter():
    assert control_parameter(442, 1024, 32) == pytest.approx(1.0009459644, abs=1e-9)
    assert math.log(1024 - 32) == pytest.approx(6.8997231073, abs=1e-9)
    assert math.log(math.log(1024 - 32)) == pytest.approx(1.9314812814, abs=1e-9)
    # doubling n doubles theta
    assert control_parameter(884, 1024, 32) == pytest.approx(2 * control_parameter(442, 1024, 32), rel=1e-12)


def test_required_sample_size():
    assert required_sample_size(10, 2, 0.0) == 9
    assert required_sample_size(10, 2, 1.0) == 13
    # always lands strictly above the threshold it rounds
    for p, k, eps in [(50, 5, 0.0), (1024, 32, 0.5), (200, 3, 2.0)]:
        n = required_sample_size(p, k, eps)
        assert n > (2.0 + eps) * k * math.log(p - k)
        assert n - 1 <= (2.0 + eps) * k * math.log(p - k)
    with pytest.raises(ParameterError):
        required_sample_size(10, 2, -0.5)


def test_gamma_schedules():
    assert gamma_schedule(1024, 32, "sixth_root") == pytest.approx(0.8088037202, abs=1e-9)
    assert gamma_schedule(1024, 32, "log_over_sqrt") == pytest.approx(0.1095332139, abs=1e-9)
    with pytest.raises(ParameterError):
        gamma_schedule(1024, 32, "linear")
    # sixth_root needs log log > 0, i.e. p - k >= 3
    with pytest.raises(ParameterError):
        gamma_schedule(6, 4, "sixth_root")
    # log_over_sqrt only needs p - k >= 2
    assert gamma_schedule(6, 4, "log_over_sqrt") == pytest.approx(0.5 * math.log(2) / math.sqrt(2), rel=1e-12)


@given(gap=st.integers(2, 2**40), rule=st.sampled_from(GAMMA_RULES))
@example(gap=7, rule="log_over_sqrt")  # the integers nearest each maximum
@example(gap=15, rule="sixth_root")
def test_gamma_schedules_stay_below_one(gap, rule):
    # log(x) / x <= 1/e, at x = sqrt(p - k) for log_over_sqrt and at
    # x = log(p - k) for sixth_root, so neither rule ever reaches gamma = 1
    if rule == "sixth_root" and gap < 3:
        with pytest.raises(ParameterError):
            gamma_schedule(gap + 1, 1, rule)
        return
    bound = math.exp(-1.0 / 6.0) if rule == "sixth_root" else 1.0 / math.e
    assert 0.0 < gamma_schedule(gap + 1, 1, rule) <= bound


def test_lambda_schedule():
    lam = lambda_schedule(442, 1024, 32)
    assert lam == pytest.approx(0.1717671011, abs=1e-9)
    assert lam * lam == pytest.approx(0.0295039370, abs=1e-9)
    # decreases with n
    assert lambda_schedule(884, 1024, 32) < lam
    with pytest.raises(ParameterError):
        lambda_schedule(442, 6, 4)
    with pytest.raises(ParameterError):
        lambda_schedule(0, 1024, 32)


def test_domain_errors():
    with pytest.raises(ParameterError):
        control_parameter(100, 5, 4)  # p - k = 1
    with pytest.raises(ParameterError):
        control_parameter(100, 5, 0)  # k = 0
    with pytest.raises(ParameterError):
        control_parameter(0, 100, 5)


def test_recovery_conditions_values():
    # growth along p = 2^10, 2^14, 2^18 with k = ceil(sqrt(p)) and the
    # smallest admissible n: q1 and q3 rise, q2 falls, snr rises
    shapes = [(1 << 10, 32), (1 << 14, 128), (1 << 18, 512)]
    expected_q1 = [1.528670, 1.622114, 1.703455]
    expected_q2 = [0.807393, 0.716286, 0.665518]
    expected_q3 = [1.890038, 2.065962, 2.223289]
    expected_snr = [357.49, 1949.56, 9788.04]
    got = []
    for p, k in shapes:
        n = required_sample_size(p, k)
        gamma = gamma_schedule(p, k, "sixth_root")
        lam = lambda_schedule(n, p, k)
        cond = recovery_conditions(n, p, k, gamma, lam, beta_min=1.0)
        got.append((cond, snr_diagnostic(gamma, n, 1.0)))
    for (cond, snr), q1, q2, q3, s in zip(got, expected_q1, expected_q2, expected_q3, expected_snr):
        assert cond.q1 == pytest.approx(q1, abs=1e-5)
        assert cond.q2 == pytest.approx(q2, abs=1e-5)
        assert cond.q3 == pytest.approx(q3, abs=1e-5)
        assert snr == pytest.approx(s, abs=0.01)
    assert got[0][0].q1 < got[1][0].q1 < got[2][0].q1
    assert got[0][0].q2 > got[1][0].q2 > got[2][0].q2
    assert got[0][0].q3 < got[1][0].q3 < got[2][0].q3
    assert got[0][1] < got[1][1] < got[2][1]


def test_recovery_conditions_gamma_one():
    # with no sparsification q3 reduces to min(k, log/loglog)
    cond = recovery_conditions(400, 100, 8, 1.0, 0.1, 1.0)
    log_gap = math.log(92)
    assert cond.q3 == pytest.approx(min(8, log_gap / math.log(log_gap)), rel=1e-12)
    with pytest.raises(ParameterError):
        recovery_conditions(400, 100, 8, 0.0, 0.1, 1.0)
    with pytest.raises(ParameterError):
        recovery_conditions(400, 100, 8, 0.5, -0.1, 1.0)


def test_snr_diagnostic():
    assert snr_diagnostic(0.5, 100, 2.0) == pytest.approx(200.0, rel=1e-15)
    with pytest.raises(ParameterError):
        snr_diagnostic(0.0, 100, 1.0)


def test_tail_bounds():
    assert hoeffding_bound(100, 0.1) == pytest.approx(0.2706705665, abs=1e-9)
    assert hoeffding_bound(100, 0.0) == 2.0
    assert chi2_bound(100, 0.0) == 1.0
    assert chi2_bound(16, 0.25) == pytest.approx(math.exp(-3 * 16 * 0.0625 / 16), rel=1e-12)
    assert gaussian_bound(1.0, 0.0) == 2.0
    assert gaussian_bound(1.0, 2.0) == pytest.approx(2 * math.exp(-2.0), rel=1e-12)
    # bounds are reported unclamped
    assert hoeffding_bound(1, 0.1) > 1.0
    with pytest.raises(ParameterError):
        chi2_bound(100, 0.5)
    with pytest.raises(ParameterError):
        chi2_bound(100, -0.1)
    with pytest.raises(ParameterError):
        gaussian_bound(0.0, 1.0)
    with pytest.raises(ParameterError):
        hoeffding_bound(0, 0.1)


def test_singular_extremes():
    import io

    n = 16
    lines = [f"{n} 4 1.0 standard 0"]
    lines += [f"{j} {j} 4.0" for j in range(4)]
    m = read_matrix(io.StringIO("\n".join(lines) + "\n"))
    smin, smax = singular_extremes(m, 4)
    assert smin == pytest.approx(1.0, rel=1e-12)
    assert smax == pytest.approx(1.0, rel=1e-12)
    # k = 2.0 is not an integer, k = 0 is no column, and the n x p matrix has only p = 4 < n columns
    for k, message in ((2.0, "k: expected an integer, got 2.0"), (0, "k must be at least 1, got 0"),
                       (5, "k must be at most min(n, p) = 4, got 5")):
        with pytest.raises(ParameterError, match=re.escape(message)):
            singular_extremes(m, k)


def test_singular_extremes_concentrate():
    m = sample_matrix(EnsembleSpec(n=4000, p=30, gamma=0.5, convention="rescaled"), seed=5)
    smin, smax = singular_extremes(m, 30)
    assert abs(smin - 1.0) < 0.2
    assert abs(smax - 1.0) < 0.2


def test_run_bound_checks():
    checks = run_bound_checks(seed=123, samples=20000)
    assert len(checks) == len(DOMINATION_GRID)
    for c in checks:
        assert 0.0 <= c.estimate <= 1.0
        assert c.limit >= c.bound
        assert c.ok, f"{c.kind} {c.params}: estimate {c.estimate} above limit {c.limit}"
    # deterministic in the seed
    again = run_bound_checks(seed=123, samples=20000)
    assert [c.estimate for c in again] == [c.estimate for c in checks]
    with pytest.raises(ParameterError):
        run_bound_checks(seed=1, samples=0)
