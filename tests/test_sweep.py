import csv
import dataclasses
import functools
import io
import json
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import numpy as np
import pytest

from sparselasso import (
    CapacityError,
    DataError,
    ParameterError,
    SweepConfig,
    SweepTable,
    control_parameter,
    grid_points,
    run_sweep,
    run_trial,
    write_outputs,
)
from sparselasso import blas, ensemble, lasso, sweep, witness
from sparselasso.sweep import CSV_HEADER, table_to_dict, trial_seed, write_csv, write_json

from oracles import run_fresh


def _small_cfg(**overrides):
    params = dict(
        p_list=(32, 64),
        theta_grid=(0.5, 1.0),
        trials=5,
        base_seed=11,
        gamma_rule="constant",
        gamma_value=0.5,
        mode="witness",
    )
    params.update(overrides)
    return SweepConfig(**params)


def _csv_of(table):
    buf = io.StringIO()
    write_csv(table, buf)
    return buf.getvalue()


def _fields(rec):
    return {k: v for k, v in dataclasses.asdict(rec).items() if k != "elapsed"}


def test_config_validation():
    with pytest.raises(ParameterError):
        _small_cfg(trials=0)
    with pytest.raises(ParameterError):
        _small_cfg(p_list=())
    with pytest.raises(ParameterError):
        _small_cfg(theta_grid=(0.5, -1.0))
    with pytest.raises(ParameterError):
        _small_cfg(gamma_rule="constant", gamma_value=None)
    with pytest.raises(ParameterError):
        _small_cfg(gamma_value=1.5)
    with pytest.raises(ParameterError):
        _small_cfg(lambda_rule="constant", lambda_value=None)
    with pytest.raises(ParameterError):
        _small_cfg(sparsity_rule="explicit", k_list=(3,))  # length mismatch
    with pytest.raises(ParameterError):
        _small_cfg(mode="dry")
    with pytest.raises(ParameterError):
        _small_cfg(base_seed=-1)
    with pytest.raises(ParameterError):
        _small_cfg(sigma2=-0.1)
    with pytest.raises(CapacityError):
        _small_cfg(trials=2**32 + 1)


@pytest.mark.parametrize(
    "overrides, name",
    [
        (dict(theta_grid=(0.5, float("nan"))), "theta_grid"),
        (dict(theta_grid=(float("inf"),)), "theta_grid"),
        (dict(sigma2=float("nan")), "sigma2"),
        (dict(sigma2=float("inf")), "sigma2"),
        (dict(beta_min=float("nan")), "beta_min"),
        (dict(beta_min=float("inf")), "beta_min"),
        (dict(gamma_value=float("nan")), "gamma_value"),
        (dict(lambda_rule="constant", lambda_value=float("inf")), "lambda_value"),
    ],
    ids=["theta_nan", "theta_inf", "sigma2_nan", "sigma2_inf", "beta_min_nan", "beta_min_inf", "gamma_value_nan", "lambda_value_inf"],
)
def test_config_rejects_non_finite_floats(overrides, name):
    with pytest.raises(ParameterError, match=f"^{name} (values )?must be finite"):
        _small_cfg(**overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(gamma_rule="log_over_sqrt", gamma_value=0.3),
        dict(lambda_rule="scaled", lambda_value=0.3),
        dict(sparsity_rule="polynomial", k_list=(4, 4)),
        dict(sparsity_rule="linear", k_list=(4, 4)),
    ],
    ids=["gamma_value", "lambda_value", "k_list_polynomial", "k_list_linear"],
)
def test_config_rejects_a_value_its_rule_does_not_read(overrides):
    with pytest.raises(ParameterError, match="is read only by"):
        _small_cfg(**overrides)


@pytest.mark.parametrize(
    "overrides, name",
    [(dict(p_list=(64, 64)), "p_list"), (dict(theta_grid=(1, 1.0)), "theta_grid")],
    ids=["p_list", "theta_grid"],
)
def test_config_rejects_a_repeated_grid_value(overrides, name):
    # run_trial finds a grid point by its value, so a repeated value would
    # name two points with different seeds.
    with pytest.raises(ParameterError, match=f"^{name} must not repeat a value"):
        _small_cfg(**overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(p_list=(64.7,)),
        dict(sparsity_rule="explicit", p_list=(64,), k_list=(4.9,)),
        dict(trials=2.5),
        dict(base_seed=1.5),
        dict(p_list=("64",)),
    ],
    ids=["p_list", "k_list", "trials", "base_seed", "p_list_str"],
)
def test_config_rejects_non_integer_counts(overrides):
    with pytest.raises(ParameterError, match="expected an integer"):
        _small_cfg(**overrides)


def test_config_accepts_numpy_integers():
    cfg = _small_cfg(
        p_list=(np.int64(64),), sparsity_rule="explicit", k_list=(np.int32(4),), trials=np.uint8(2), base_seed=np.uint64(3)
    )
    assert (cfg.p_list, cfg.k_list, cfg.trials, cfg.base_seed) == ((64,), (4,), 2, 3)
    assert all(type(v) is int for v in (*cfg.p_list, *cfg.k_list, cfg.trials, cfg.base_seed))


def test_grid_point_derivation():
    cfg = _small_cfg(sparsity_rule="polynomial", poly_exponent=0.5)
    points = grid_points(cfg)
    assert len(points) == 4
    for pt in points:
        assert pt.k == math.ceil(math.sqrt(pt.p))
        assert pt.n == math.ceil(pt.theta * 2.0 * pt.k * math.log(pt.p - pt.k))
        # n is the ceiling, so the realized control parameter can only overshoot
        assert control_parameter(pt.n, pt.p, pt.k) >= pt.theta
        assert pt.gamma == 0.5
        assert pt.spec.convention == "rescaled"


def test_grid_failure_carries_point_context():
    # k = ceil(sqrt(5)) = 3 exceeds p/2, caught before any trial runs
    cfg = _small_cfg(p_list=(5,))
    with pytest.raises(ParameterError, match=r"grid point p=5"):
        grid_points(cfg)
    with pytest.raises(ParameterError, match=r"grid point p=5"):
        run_sweep(cfg)
    # explicit k putting p - k at 2 breaks the scaled lambda rule
    cfg = _small_cfg(p_list=(4,), sparsity_rule="explicit", k_list=(2,), lambda_rule="scaled")
    with pytest.raises(ParameterError, match=r"grid point p=4"):
        grid_points(cfg)


def test_worker_count_does_not_change_results():
    cfg = _small_cfg(mode="both")
    t1 = run_sweep(cfg, workers=1)
    t2 = run_sweep(cfg, workers=2)
    assert _csv_of(t1) == _csv_of(t2)
    with pytest.raises(ParameterError):
        run_sweep(cfg, workers=0)


def test_results_do_not_depend_on_worker_count_record_by_record():
    # the points differ in n*p, so the workers claim them in another order than the grid's
    cfg = _small_cfg(mode="both", keep_trials=True)
    points = grid_points(cfg)
    assert sorted(points, key=lambda pt: -pt.n * pt.p) != points
    tables = {w: run_sweep(cfg, workers=w) for w in (1, 2, 3, 8)}  # 8 workers for 4 points
    records = {w: [_fields(r) for r in t.trial_records] for w, t in tables.items()}
    assert len(records[1]) == len(points) * cfg.trials
    for w in (2, 3, 8):
        assert records[w] == records[1]
        assert _csv_of(tables[w]) == _csv_of(tables[1])


class _PidRecordingProcess(multiprocessing.context.ForkProcess):
    """A forked process that records its pid in `started` when it starts."""

    started = []

    def start(self):
        super().start()
        self.started.append(self.pid)


@pytest.fixture
def worker_pids(monkeypatch):
    """The pids of the worker processes started during the test, which the
    sweep forks from the fork context."""
    _PidRecordingProcess.started = []
    monkeypatch.setattr(multiprocessing.get_context("fork"), "Process", _PidRecordingProcess)
    return _PidRecordingProcess.started


def test_pool_is_sized_to_the_grid(worker_pids):
    cfg = _small_cfg(p_list=(32,), trials=1)
    assert _csv_of(run_sweep(cfg, workers=8)) == _csv_of(run_sweep(cfg))
    assert len(worker_pids) == 2


# A caller that picks another start method still gets forked workers:
# spawned or forkserver ones would re-import numpy and scipy and start with
# unpinned OpenBLAS pools.  Run in a fresh interpreter, so that the start
# method of the test process stays as it is.
_START_METHOD_SCRIPT = """
import multiprocessing, multiprocessing.context, os, sys
from sparselasso import sweep

def refuse(process_obj):
    raise AssertionError(f"the sweep started a {type(process_obj).__name__}")

multiprocessing.context.SpawnProcess._Popen = staticmethod(refuse)
multiprocessing.context.ForkServerProcess._Popen = staticmethod(refuse)
cfg = sweep.SweepConfig(p_list=(32, 64), theta_grid=(0.5, 1.0), trials=2, base_seed=11)
d = sys.argv[1]
sweep.write_outputs(sweep.run_sweep(cfg), os.path.join(d, "serial.csv"))
for method in ("spawn", "forkserver"):
    multiprocessing.set_start_method(method, force=True)
    sweep.write_outputs(sweep.run_sweep(cfg, workers=2), os.path.join(d, method + ".csv"))
    with open(os.path.join(d, "serial.csv")) as a, open(os.path.join(d, method + ".csv")) as b:
        assert a.read() == b.read(), method
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sweeps fork their workers on Linux only")
def test_workers_fork_whatever_the_callers_start_method(tmp_path):
    run_fresh("-c", _START_METHOD_SCRIPT, str(tmp_path))


def test_run_trial_matches_sweep_records():
    cfg = _small_cfg(keep_trials=True)
    table = run_sweep(cfg)
    assert table.trial_records is not None
    assert len(table.trial_records) == 4 * cfg.trials
    for rec in table.trial_records[:: 3]:
        assert _fields(run_trial(cfg, rec.p, rec.theta, rec.trial_index)) == _fields(rec)
    # and the per-trial seeds really are distinct
    seeds = [r.seed for r in table.trial_records]
    assert len(set(seeds)) == len(seeds)


def test_run_trial_validates_coordinates():
    cfg = _small_cfg()
    with pytest.raises(ParameterError):
        run_trial(cfg, 33, 0.5, 0)
    with pytest.raises(ParameterError):
        run_trial(cfg, 32, 0.7, 0)
    with pytest.raises(ParameterError):
        run_trial(cfg, 32, 0.5, cfg.trials)
    with pytest.raises(ParameterError):
        run_trial(cfg, 64, None, 0)
    with pytest.raises(ParameterError):
        run_trial(cfg, 64, "1.0", 0)
    with pytest.raises(ParameterError):
        run_trial(cfg, 64.0, 1.0, 0)


def test_trial_seed_injective():
    seen = set()
    for p_idx in range(3):
        for theta_idx in range(3):
            for trial in range(4):
                seen.add(trial_seed(9, p_idx, theta_idx, trial))
    assert len(seen) == 36
    assert trial_seed(9, 1, 2, 3) != trial_seed(10, 1, 2, 3)


def test_convention_coupling_preserves_success_counts():
    # With a constant gamma the two ensembles are the same draw up to the
    # 1/sqrt(gamma) column scale, so sending (lambda, sigma2) ->
    # (lambda/gamma, sigma2/gamma) must reproduce the verdicts exactly.
    gamma = 0.25
    base = dict(
        p_list=(32,),
        theta_grid=(1.0, 3.0),
        trials=30,
        base_seed=17,
        gamma_rule="constant",
        gamma_value=gamma,
        lambda_rule="constant",
        mode="witness",
    )
    std = run_sweep(SweepConfig(convention="standard", lambda_value=0.12, sigma2=0.0625, **base))
    res = run_sweep(
        SweepConfig(convention="rescaled", lambda_value=0.12 / gamma, sigma2=0.0625 / gamma, **base)
    )
    assert [r.successes for r in std.rows] == [r.successes for r in res.rows]
    # the mix includes both failures and successes, so the equality is informative
    assert 0 < std.rows[0].successes < 30
    assert 0 < std.rows[1].successes < 30


def test_mode_both_aggregates():
    cfg = _small_cfg(mode="both", keep_trials=True)
    table = run_sweep(cfg)
    for row in table.rows:
        assert row.full_successes is not None
        assert row.agreements is not None
        assert row.invertible_trials is not None
        assert 0 <= row.agreements <= row.trials
    recs = table.trial_records
    first = table.rows[0]
    batch = [r for r in recs if r.p == first.p and r.theta == first.theta]
    # the successes column counts witness verdicts, not full solves
    assert first.successes == sum(1 for r in batch if r.witness_success)
    assert first.full_successes == sum(1 for r in batch if r.full_success)
    for r in batch:
        assert r.success == r.witness_success


def test_both_mode_records_the_witness_of_witness_mode():
    # witness mode draws the matrix column range by column range, both mode samples it whole
    witness_fields = ("p", "theta", "trial_index", "seed", "witness_success", "dual_ratio", "u_ratio", "invertible")
    tables = [run_sweep(_small_cfg(mode=mode, theta_grid=(0.1, 1.0), keep_trials=True)) for mode in ("witness", "both")]
    records = [[tuple(getattr(r, f) for f in witness_fields) for r in t.trial_records] for t in tables]
    assert records[0] == records[1]
    assert {r[-1] for r in records[0]} == {False, True}  # n < k at theta = 0.1: singular blocks


def test_mode_full_counts_full_solves():
    table = run_sweep(_small_cfg(mode="full", keep_trials=True))
    for row in table.rows:
        batch = [r for r in table.trial_records if (r.p, r.theta) == (row.p, row.theta)]
        assert row.successes == sum(1 for r in batch if r.full_success)
        assert (row.invertible_trials, row.mean_dual_ratio, row.mean_u_ratio) == (None, None, None)
    # both modes draw the same trial seeds, so full mode's successes are both mode's full_successes
    both = run_sweep(_small_cfg(mode="both"))
    assert [int(r["successes"]) for r in csv.DictReader(io.StringIO(_csv_of(table)))] == [r.full_successes for r in both.rows]


def test_nonconverged_solves_are_counted(monkeypatch):
    cfg = _small_cfg(mode="both", trials=2, keep_trials=True)
    table = run_sweep(cfg)
    assert {r.converged for r in table.trial_records} == {True}
    assert [row.nonconverged for row in table.rows] == [0] * 4
    # one coordinate sweep: no solve converges, and none counts as a recovery
    monkeypatch.setattr(lasso, "LassoConfig", functools.partial(lasso.LassoConfig, max_iter=1))
    for mode in ("both", "full"):
        table = run_sweep(_small_cfg(mode=mode, trials=2, keep_trials=True))
        assert {(r.converged, r.full_success) for r in table.trial_records} == {(False, False)}
        assert [row.nonconverged for row in table.rows] == [2] * 4
        payload = table_to_dict(table)
        assert [row["nonconverged"] for row in payload["rows"]] == [2] * 4
        assert {r["converged"] for r in payload["trials"]} == {False}
        assert _csv_of(table).splitlines()[0] == CSV_HEADER
    # witness mode solves nothing
    table = run_sweep(_small_cfg(keep_trials=True))
    assert {r.converged for r in table.trial_records} == {None}
    assert {row.nonconverged for row in table.rows} == {None}


def test_deep_success_region():
    # noiseless, unsparsified, far above the transition: the witness
    # should succeed essentially always
    cfg = SweepConfig(
        p_list=(64,),
        theta_grid=(4.0,),
        trials=100,
        base_seed=5,
        gamma_rule="constant",
        gamma_value=1.0,
        sigma2=0.0,
        mode="witness",
    )
    table = run_sweep(cfg)
    assert table.rows[0].successes >= 95


def test_csv_round_trip(tmp_path):
    cfg = _small_cfg()
    table = run_sweep(cfg)
    text = _csv_of(table)
    assert text.splitlines()[0] == CSV_HEADER
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(table.rows)
    for parsed, row in zip(rows, table.rows):
        assert int(parsed["n"]) == row.n
        assert int(parsed["p"]) == row.p
        assert int(parsed["k"]) == row.k
        assert int(parsed["trials"]) == row.trials
        assert int(parsed["successes"]) == row.successes
        assert int(parsed["base_seed"]) == cfg.base_seed
        assert parsed["mode"] == cfg.mode
        assert float(parsed["theta"]) == pytest.approx(row.theta, rel=1e-9)
        assert float(parsed["gamma"]) == pytest.approx(row.gamma, rel=1e-9)
        assert float(parsed["lambda"]) == pytest.approx(row.lam, rel=1e-9)
        assert float(parsed["sigma2"]) == pytest.approx(cfg.sigma2, rel=1e-9)
        assert float(parsed["success_rate"]) == pytest.approx(row.success_rate, rel=1e-9)


def test_empty_table_writes_header_only():
    cfg = _small_cfg()
    text = _csv_of(SweepTable(config=cfg, rows=[]))
    assert text == CSV_HEADER + "\n"


def test_write_outputs(tmp_path):
    cfg = _small_cfg(keep_trials=True)
    table = run_sweep(cfg)
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    write_outputs(table, csv_path, json_path)
    assert csv_path.read_text() == _csv_of(table)
    import json

    payload = json.loads(json_path.read_text())
    assert payload["config"]["base_seed"] == cfg.base_seed
    assert len(payload["rows"]) == len(table.rows)
    assert payload["rows"][0]["realized_theta"] >= payload["rows"][0]["theta"]
    assert len(payload["trials"]) == 4 * cfg.trials
    with pytest.raises(DataError):
        write_outputs(table, tmp_path / "missing" / "out.csv")


def test_table_to_dict_omits_trials_when_not_kept():
    cfg = _small_cfg()
    table = run_sweep(cfg)
    assert "trials" not in table_to_dict(table)


def test_write_json_provenance_is_optional():
    table = run_sweep(_small_cfg())
    plain, tagged = io.StringIO(), io.StringIO()
    write_json(table, plain)
    write_json(table, tagged, provenance={"trials": "flag"})
    payload = json.loads(tagged.getvalue())
    assert payload.pop("provenance") == {"trials": "flag"}
    assert payload == json.loads(plain.getvalue())


def test_write_outputs_leaves_earlier_files_intact_on_failure(tmp_path, monkeypatch):
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    write_outputs(run_sweep(_small_cfg()), csv_path, json_path)
    before = (csv_path.read_bytes(), json_path.read_bytes())

    def interrupted(table, fh, provenance=None):
        fh.write('{"config": ')
        raise KeyboardInterrupt

    monkeypatch.setattr(sweep, "write_json", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_outputs(run_sweep(_small_cfg(base_seed=12)), csv_path, json_path)
    assert (csv_path.read_bytes(), json_path.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.json"]


def test_write_outputs_rejects_one_file_for_both_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "X").write_text("earlier output\n")
    with pytest.raises(ParameterError, match="output paths X and ./X name the same file"):
        write_outputs(run_sweep(_small_cfg()), "X", "./X")
    assert [(f.name, f.read_text()) for f in tmp_path.iterdir()] == [("X", "earlier output\n")]


def test_write_outputs_rejects_a_directory_before_staging_anything(tmp_path):
    (tmp_path / "out.csv").write_text("earlier output\n")
    (tmp_path / "out.json").mkdir()
    with pytest.raises(DataError) as exc:
        write_outputs(run_sweep(_small_cfg()), tmp_path / "out.csv", tmp_path / "out.json")
    assert str(exc.value) == f"cannot write {tmp_path / 'out.json'}: is a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.json"]
    assert (tmp_path / "out.csv").read_text() == "earlier output\n"


def test_write_outputs_to_a_path_and_its_tmp_sibling_keeps_both(tmp_path):
    table = run_sweep(_small_cfg())
    write_outputs(table, tmp_path / "X.tmp", tmp_path / "X")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["X", "X.tmp"]
    assert (tmp_path / "X.tmp").read_text() == _csv_of(table)
    assert json.loads((tmp_path / "X").read_text())["config"]["base_seed"] == 11


def test_write_outputs_leaves_a_users_tmp_file_alone_and_keeps_the_open_mode(tmp_path):
    (tmp_path / "out.csv.tmp").write_text("my own file\n")
    umask = os.umask(0o027)
    try:
        write_outputs(run_sweep(_small_cfg()), tmp_path / "out.csv")
    finally:
        os.umask(umask)
    assert (tmp_path / "out.csv.tmp").read_text() == "my own file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]
    assert (tmp_path / "out.csv").stat().st_mode & 0o777 == 0o640


def test_write_outputs_never_changes_the_umask(tmp_path):
    # a thread's file created while the umask were 0 would get mode 0o666
    table = run_sweep(_small_cfg())
    umask = os.umask(0o002)
    try:
        with mock.patch.object(os, "umask", side_effect=AssertionError("write_files changed the umask")):
            write_outputs(table, tmp_path / "out.csv", tmp_path / "out.json")
    finally:
        os.umask(umask)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.json"]
    assert {p.stat().st_mode & 0o777 for p in tmp_path.iterdir()} == {0o664}
    assert (tmp_path / "out.csv").read_text() == _csv_of(table)


CRITERION_2 = dict(
    p_list=(256, 512, 1024),
    theta_grid=(0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0),
    trials=100,
    base_seed=1002,
    sparsity_rule="linear",
    linear_alpha=0.125,
)


def test_trial_floats_do_not_depend_on_caller_blas_threads(caller_blas):
    # n=3481, k=128: a support Gram large enough for threaded BLAS to sum differently
    cfg = SweepConfig(**CRITERION_2)
    results = []
    for counts in ((1,) * len(caller_blas), caller_blas):
        blas.set_thread_counts(counts)
        results.append(_fields(run_trial(cfg, 1024, 2.0, 0)))
        assert blas.thread_counts() == counts
    assert results[0] == results[1]
    assert results[0]["n"] == 3481 and results[0]["k"] == 128


def test_direct_calls_do_not_depend_on_caller_blas_threads(caller_blas):
    # the same trial, through witness.build and lasso.solve called directly
    cfg = SweepConfig(**CRITERION_2)
    pt = grid_points(cfg)[-1]
    assert (pt.p, pt.theta, pt.n, pt.k) == (1024, 2.0, 3481, 128)
    seed = trial_seed(cfg.base_seed, pt.p_idx, pt.theta_idx, 0)
    m = ensemble.sample_matrix(pt.spec, seed)
    sig = ensemble.SignalSpec(p=pt.p, k=pt.k, beta_min=cfg.beta_min)
    w = ensemble.noise_vector(pt.n, cfg.sigma2, seed)
    y = m.to_csr() @ ensemble.make_signal(sig) + w
    results = []
    # at least two threads on the second pass, also when the caller runs on one
    for counts in ((1,) * len(caller_blas), tuple(max(2, c) for c in caller_blas)):
        blas.set_thread_counts(counts)
        rep = witness.build(m, sig, w, pt.lam)
        sol = lasso.solve(m, y, lasso.LassoConfig(lam=pt.lam))
        assert blas.thread_counts() == counts
        results.append((
            rep.margins, rep.u.tobytes(), rep.va.tobytes(), rep.vb.tobytes(),
            sol.beta_hat.tobytes(), sol.objective, sol.kkt_residual, sol.iterations,
        ))
    assert results[0] == results[1]


def test_sweep_and_trial_restore_blas_threads_when_a_trial_raises(caller_blas, monkeypatch):
    cfg = _small_cfg()
    for counts in ((1,) * len(caller_blas), caller_blas):
        blas.set_thread_counts(counts)
        run_sweep(cfg)
        run_trial(cfg, 32, 0.5, 0)
        assert blas.thread_counts() == counts

    def failing_factor(*args):
        # raise inside the pinned scope of witness.build
        assert blas.thread_counts() == (1,) * len(caller_blas)
        raise ZeroDivisionError

    monkeypatch.setattr(witness, "_factor_gram", failing_factor)
    m = ensemble.sample_matrix(ensemble.EnsembleSpec(n=40, p=32, gamma=0.5), seed=1)
    for call in (
        lambda: run_trial(cfg, 32, 0.5, 0),
        lambda: run_sweep(cfg),
        lambda: witness.build(m, ensemble.SignalSpec(p=32, k=4), [0.0] * 40, 0.5),
    ):
        with pytest.raises(ZeroDivisionError):
            call()
        assert blas.thread_counts() == caller_blas


def test_sweep_without_openblas_matches_pinned_sweep(monkeypatch):
    cfg = SweepConfig(**dict(CRITERION_2, p_list=(256,), theta_grid=(1.0, 2.0), trials=8))
    pinned = _csv_of(run_sweep(cfg))
    monkeypatch.setattr(blas, "_libraries", lambda: ())
    assert _csv_of(run_sweep(cfg)) == pinned


_real_point_batch = sweep._point_batch


def _batch_starting_no_threads(cfg, point):
    before = len(os.listdir("/proc/self/task"))
    batch = _real_point_batch(cfg, point)
    after = len(os.listdir("/proc/self/task"))
    if after > before:
        raise RuntimeError(f"worker grew from {before} to {after} threads")
    return batch


def _exit_in_worker(cfg, point):
    os._exit(3)


class _TrialError(Exception):
    pass


def _sleep_at_theta_1(cfg, point):
    if point.theta == 1.0:
        time.sleep(30)
    return _real_point_batch(cfg, point)


def _exit_at_theta_1_5(cfg, point):
    if point.theta == 1.5:
        os._exit(3)
    return _sleep_at_theta_1(cfg, point)


def _raise_at_theta_1_5(cfg, point):
    if point.theta == 1.5:
        raise _TrialError("trial failed")
    return _sleep_at_theta_1(cfg, point)


class _UnpicklableError(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None  # pickle cannot send a lambda


def _raise_unpicklable_at_theta_1(cfg, point):
    if point.theta == 1.0:
        raise _UnpicklableError("trial failed")
    return _real_point_batch(cfg, point)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the patched batch must be inherited by fork")
def test_unpicklable_trial_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(sweep, "_point_batch", _raise_unpicklable_at_theta_1)
    cfg = SweepConfig(p_list=(32,), theta_grid=(0.5, 1.0), trials=1, base_seed=1)
    with pytest.raises(_UnpicklableError, match="trial failed"):
        run_sweep(cfg)
    with pytest.raises(RuntimeError, match=r"^_UnpicklableError: trial failed$") as info:
        run_sweep(cfg, workers=2)
    cause = str(info.value.__cause__)
    assert cause.startswith("raised in a sweep worker:\nTraceback")
    assert 'raise _UnpicklableError("trial failed")' in cause


_THREE_POINTS = dict(p_list=(32,), theta_grid=(0.5, 1.0, 1.5), trials=2, base_seed=7)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the patched batch must be inherited by fork")
@pytest.mark.parametrize("outcome", ["success", "trial raises", "worker exits"])
def test_no_worker_outlives_the_sweep(outcome, caller_blas, worker_pids, monkeypatch):
    counts = tuple(max(2, c) for c in caller_blas)
    blas.set_thread_counts(counts)
    cfg = _small_cfg(**_THREE_POINTS)
    started = time.monotonic()
    if outcome == "success":
        assert _csv_of(run_sweep(cfg, workers=2)) == _csv_of(run_sweep(cfg))
    elif outcome == "trial raises":
        monkeypatch.setattr(sweep, "_point_batch", _raise_at_theta_1_5)
        with pytest.raises(_TrialError, match="trial failed"):
            run_sweep(cfg, workers=2)
    else:
        monkeypatch.setattr(sweep, "_point_batch", _exit_at_theta_1_5)
        # named by the point the worker died at, not by the first grid point still missing
        with pytest.raises(BrokenProcessPool, match=r"^grid point p=32, theta=1\.5: worker exited with code 3$"):
            run_sweep(cfg, workers=2)
    # the worker sleeping at theta=1.0 was killed, not waited for
    assert time.monotonic() - started < 20
    assert len(worker_pids) == 2
    assert multiprocessing.active_children() == []
    for pid in worker_pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert blas.thread_counts() == counts


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="counts /proc/self/task in workers that inherit the patched batch by fork",
)
def test_forked_workers_start_no_blas_threads(caller_blas, monkeypatch):
    # a caller on more than one thread, so that pinning in a worker would be a change
    counts = tuple(max(2, c) for c in caller_blas)
    blas.set_thread_counts(counts)
    monkeypatch.setattr(sweep, "_point_batch", _batch_starting_no_threads)
    cfg = SweepConfig(**dict(CRITERION_2, p_list=(256,), theta_grid=(1.0, 2.0), trials=2))
    run_sweep(cfg, workers=2)
    assert blas.thread_counts() == counts
    monkeypatch.setattr(sweep, "_point_batch", _exit_in_worker)
    with pytest.raises(BrokenProcessPool):
        run_sweep(cfg, workers=2)
    assert blas.thread_counts() == counts
