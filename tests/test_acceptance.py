"""Acceptance suite: one test per shipping criterion.

Each test prints a single ACCEPTANCE line (visible under pytest -s) with
the measured quantities, then asserts.  These run the real experiment
protocols at full scale, so this module is the slow part of the suite.
"""

import io
import os
import pathlib

import numpy as np
import pytest

from sparselasso import (
    EnsembleSpec,
    LassoConfig,
    SignalSpec,
    SweepConfig,
    build,
    h_vector,
    lambda_schedule,
    make_signal,
    noise_vector,
    run_bound_checks,
    run_sweep,
    sample_matrix,
    signed_support,
    singular_extremes,
    solve,
    thinned_squared_norm,
)
from sparselasso.cli import main as cli_main
from sparselasso.sweep import write_csv

from oracles import fista_kkt, fista_lasso

GOLDEN_SWEEP = pathlib.Path(__file__).parent / "golden" / "sweep_p128.csv"

THETA_GRID = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _csv_text(table) -> str:
    buf = io.StringIO()
    write_csv(table, buf)
    return buf.getvalue()


def _crossing(thetas, rates):
    """First 50% crossing by linear interpolation; None if never reached."""
    for i, r in enumerate(rates):
        if r >= 0.5:
            if i == 0:
                return thetas[0]
            t0, t1 = thetas[i - 1], thetas[i]
            r0, r1 = rates[i - 1], rates[i]
            return t0 + (0.5 - r0) * (t1 - t0) / (r1 - r0)
    return None


def _phase_transition_check(num, name, cfg):
    # The table is identical for any worker count (criterion 9).
    table = run_sweep(cfg, workers=os.cpu_count() or 1)
    by_p = {}
    for row in table.rows:
        by_p.setdefault(row.p, []).append((row.theta, row.success_rate))
    ok = True
    details = []
    for p in cfg.p_list:
        pairs = sorted(by_p[p])
        thetas = [t for t, _ in pairs]
        rates = [r for _, r in pairs]
        low = max(r for t, r in pairs if t <= 0.4)
        high = min(r for t, r in pairs if t >= 1.8)
        cross = _crossing(thetas, rates)
        ok_p = low <= 0.2 and high >= 0.9 and cross is not None and 0.6 <= cross <= 1.4
        ok = ok and ok_p
        details.append(f"p={p}: low={low:.2f} high={high:.2f} cross={'none' if cross is None else f'{cross:.3f}'}")
    assert _report(num, name, ok, "; ".join(details))


def test_criterion_1_phase_transition_polynomial():
    cfg = SweepConfig(
        p_list=(512, 1024, 2048),
        theta_grid=THETA_GRID,
        trials=100,
        base_seed=1001,
        sparsity_rule="polynomial",
        poly_exponent=0.5,
        gamma_rule="log_over_sqrt",
        lambda_rule="scaled",
        sigma2=0.0625,
        beta_min=1.0,
        mode="witness",
        convention="rescaled",
    )
    _phase_transition_check(1, "phase transition, polynomial sparsity", cfg)


def test_criterion_2_phase_transition_linear():
    cfg = SweepConfig(
        p_list=(256, 512, 1024),
        theta_grid=THETA_GRID,
        trials=100,
        base_seed=1002,
        sparsity_rule="linear",
        linear_alpha=0.125,
        gamma_rule="log_over_sqrt",
        lambda_rule="scaled",
        sigma2=0.0625,
        beta_min=1.0,
        mode="witness",
        convention="rescaled",
    )
    _phase_transition_check(2, "phase transition, linear sparsity", cfg)


def test_criterion_3_witness_solver_equivalence():
    shapes = [(40, 16, 3), (60, 20, 4), (80, 24, 5), (100, 30, 6), (50, 30, 6), (100, 12, 2)]
    gammas = (0.3, 0.6, 1.0)
    patterns = ("all_plus", "alternating", "seeded_random")
    total = boundary = agree = checked = 0
    instance = 0
    for n, p, k in shapes:
        lam = lambda_schedule(n, p, k)
        for gamma in gammas:
            for rep in range(28):
                instance += 1
                convention = "rescaled" if instance % 2 else "standard"
                m = sample_matrix(
                    EnsembleSpec(n=n, p=p, gamma=gamma, convention=convention), seed=5000 + instance
                )
                pattern = patterns[instance % 3]
                sig = SignalSpec(
                    p=p,
                    k=k,
                    beta_min=1.0,
                    sign_pattern=pattern,
                    sign_seed=instance if pattern == "seeded_random" else None,
                )
                w = noise_vector(n, 0.0625, 9000 + instance)
                r = build(m, sig, w, lam)
                total += 1
                if not r.invertible or min(abs(r.margins.dual), abs(r.margins.sign)) <= 1e-6:
                    boundary += 1
                    continue
                y = m.to_csr() @ make_signal(sig) + w
                sol = solve(m, y, LassoConfig(lam=lam, tol=1e-10))
                recovered = bool(
                    sol.converged
                    and np.array_equal(
                        signed_support(sol.beta_hat, 1e-6), signed_support(make_signal(sig))
                    )
                )
                checked += 1
                agree += recovered == r.success
    ok = total >= 500 and boundary <= 0.02 * total and agree == checked
    assert _report(
        3,
        "witness/solver equivalence",
        ok,
        f"{agree}/{checked} agree, {boundary}/{total} boundary",
    )


def test_criterion_4_solver_soundness():
    gen = np.random.default_rng(41)
    converged = kkt_ok = 0
    for _ in range(100):
        n = int(gen.integers(20, 101))
        p = int(gen.integers(8, 41))
        k = max(1, p // 5)
        X = gen.standard_normal((n, p))
        beta_star = np.zeros(p)
        beta_star[:k] = gen.choice([-1.0, 1.0], size=k) * (1.0 + gen.random(k))
        y = X @ beta_star + 0.25 * gen.standard_normal(n)
        cfg = LassoConfig(lam=float(0.02 + 0.2 * gen.random()))
        sol = solve(X, y, cfg)
        if sol.converged:
            converged += 1
            kkt_ok += sol.kkt_residual <= 10.0 * cfg.tol

    gen = np.random.default_rng(42)
    oracle_ok = 0
    for _ in range(50):
        n = int(gen.integers(15, 41))
        p = int(gen.integers(6, 13))
        k = max(1, p // 4)
        X = gen.standard_normal((n, p))
        beta_star = np.zeros(p)
        beta_star[:k] = gen.choice([-1.0, 1.0], size=k) * (1.0 + gen.random(k))
        y = X @ beta_star + 0.1 * gen.standard_normal(n)
        lam = float(0.03 + 0.15 * gen.random())
        ref = fista_lasso(X, y, lam)
        assert fista_kkt(X, y, ref, lam) <= 1e-7
        sol = solve(X, y, LassoConfig(lam=lam, tol=1e-10))
        oracle_ok += bool(
            sol.converged
            and np.array_equal(signed_support(sol.beta_hat, 1e-6), signed_support(ref, 1e-6))
            and np.abs(sol.beta_hat - ref).max() <= 1e-5
        )
    ok = kkt_ok == converged and converged == 100 and oracle_ok == 50
    assert _report(
        4,
        "solver soundness",
        ok,
        f"{kkt_ok}/{converged} converged within KKT tolerance, {oracle_ok}/50 match oracle",
    )


def test_criterion_5_tail_bound_domination():
    checks = run_bound_checks(seed=2026, samples=100_000)
    ok = all(c.ok for c in checks) and all(c.bound < 1.0 for c in checks)
    worst = max(c.estimate - c.limit for c in checks)
    assert _report(
        5,
        "tail-bound domination",
        ok,
        f"{sum(c.ok for c in checks)}/{len(checks)} dominated, worst estimate-limit gap {worst:.2e}",
    )


def test_criterion_6_h_norm_concentration():
    n, p, k, gamma = 4000, 80, 40, 0.5
    cap = 1.5 * gamma * k / n
    sig = SignalSpec(p=p, k=k, beta_min=1.0)
    exceed = 0
    for s in range(200):
        m = sample_matrix(EnsembleSpec(n=n, p=p, gamma=gamma, convention="rescaled"), seed=3000 + s)
        h = h_vector(m, sig)
        if thinned_squared_norm(h, gamma, seed=3000 + s) > cap:
            exceed += 1
    ok = exceed <= 0.05 * 200
    assert _report(6, "support vector norm concentration", ok, f"{exceed}/200 above {cap:g}")


def test_criterion_7_singular_value_concentration():
    k = 40
    ok = True
    details = []
    for gamma in (0.25, 0.5, 1.0):
        medians = {}
        worst_small = 0.0
        for n in (4000, 16000):
            devs = []
            for s in range(50):
                m = sample_matrix(
                    EnsembleSpec(n=n, p=k, gamma=gamma, convention="rescaled"), seed=4000 + s
                )
                smin, smax = singular_extremes(m, k)
                devs.append(max(abs(smin - 1.0), abs(smax - 1.0)))
            medians[n] = float(np.median(devs))
            if n == 4000:
                worst_small = max(devs)
        ok_g = worst_small <= 0.5 and medians[16000] < medians[4000]
        ok = ok and ok_g
        details.append(
            f"gamma={gamma}: max@4000={worst_small:.3f} median 4000/16000={medians[4000]:.4f}/{medians[16000]:.4f}"
        )
    assert _report(7, "singular value concentration", ok, "; ".join(details))


def test_criterion_8_sparsification_degrades_matched_instance():
    base = dict(
        p_list=(50,),
        theta_grid=(5.25,),
        trials=500,
        base_seed=777,
        sparsity_rule="explicit",
        k_list=(5,),
        lambda_rule="scaled",
        sigma2=1.0,
        beta_min=1.0,
        mode="witness",
        convention="standard",
        gamma_rule="constant",
    )
    baseline = run_sweep(SweepConfig(gamma_value=1.0, **base)).rows[0]
    degraded = run_sweep(SweepConfig(gamma_value=5.0 / 200.0, **base)).rows[0]
    assert baseline.n == 200 and degraded.n == 200
    gap = baseline.success_rate - degraded.success_rate
    ok = gap >= 0.05
    assert _report(
        8,
        "sparsification degradation at fixed snr budget",
        ok,
        f"baseline {baseline.success_rate:.3f} vs gamma*n=5 {degraded.success_rate:.3f}, gap {gap:.3f}",
    )


def test_criterion_9_sweep_determinism(tmp_path):
    cfg = SweepConfig(
        p_list=(128,),
        theta_grid=(0.5, 1.5),
        trials=20,
        base_seed=42,
        sparsity_rule="explicit",
        k_list=(11,),
    )
    golden = GOLDEN_SWEEP.read_text()
    texts = {w: _csv_text(run_sweep(cfg, workers=w)) for w in (1, 4, 8)}
    rerun = _csv_text(run_sweep(cfg, workers=1))

    out = tmp_path / "cli.csv"
    rc = cli_main(
        [
            "sweep",
            "--p-list", "128",
            "--theta-grid", "0.5,1.5",
            "--trials", "20",
            "--base-seed", "42",
            "--sparsity-rule", "explicit",
            "--k-list", "11",
            "--out-csv", str(out),
        ]
    )
    ok = (
        rc == 0
        and all(t == golden for t in texts.values())
        and rerun == golden
        and out.read_text() == golden
    )
    assert _report(
        9,
        "sweep determinism",
        ok,
        f"workers {{1,4,8}} identical={len(set(texts.values())) == 1}, golden match={texts[1] == golden}, cli match={out.read_text() == golden}",
    )
