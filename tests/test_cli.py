import contextlib
import dataclasses
import io
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparselasso
from sparselasso import EnsembleSpec, LassoConfig, ParameterError, SignalSpec, SweepConfig, grid_points, read_matrix
from sparselasso import cli, sample_matrix, sweep, write_matrix
from sparselasso.cli import main
from sparselasso.sweep import SPARSITY_RULES, _point_batch


def _gen_args(path, n=16, p=6, gamma=0.7, seed=3, convention="standard"):
    return [
        "gen",
        "--n", str(n),
        "--p", str(p),
        "--gamma", str(gamma),
        "--convention", convention,
        "--seed", str(seed),
        "--out", str(path),
    ]


def test_gen_writes_deterministic_file(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(_gen_args(a)) == 0
    out = capsys.readouterr().out
    assert "entries to" in out and str(a) in out
    assert main(_gen_args(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    m = read_matrix(io.StringIO(a.read_text()))
    assert (m.spec.n, m.spec.p) == (16, 6)


def test_gen_stdout_mode(tmp_path, capsys):
    f = tmp_path / "f.txt"
    assert main(_gen_args(f)) == 0
    capsys.readouterr()
    args = _gen_args(f)[:-2]  # drop --out PATH
    assert main(args) == 0
    streamed = capsys.readouterr().out
    assert streamed == f.read_text()


def test_gen_bad_value_exits_2(tmp_path, capsys):
    args = _gen_args(tmp_path / "x.txt")
    args[args.index("--n") + 1] = "abc"
    assert main(args) == 2
    assert "bad value for 'n'" in capsys.readouterr().err


def test_gen_unwritable_path_exits_1(tmp_path, capsys):
    assert main(_gen_args(tmp_path / "no" / "dir" / "x.txt")) == 1
    assert "error" in capsys.readouterr().err


def test_solve_round_trip(tmp_path, capsys):
    mat = tmp_path / "m.txt"
    assert main(_gen_args(mat, n=30, p=8, gamma=1.0, seed=5)) == 0
    m = read_matrix(io.StringIO(mat.read_text()))
    beta = np.zeros(8)
    beta[:2] = [1.5, -2.0]
    y = m.to_csr() @ beta
    yfile = tmp_path / "y.txt"
    yfile.write_text("".join(f"{float(v)!r}\n" for v in y))
    capsys.readouterr()
    rc = main(["solve", "--matrix", str(mat), "--y", str(yfile), "--lam", "0.01"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"beta_hat", "objective", "kkt_residual", "iterations", "converged", "config", "provenance"}
    assert payload["converged"] is True
    assert payload["kkt_residual"] <= 1e-7
    assert len(payload["beta_hat"]) == 8
    assert payload["provenance"]["lam"] == "flag"
    assert payload["provenance"]["tol"] == "default"


def test_solve_missing_matrix_exits_1(tmp_path, capsys):
    rc = main(["solve", "--matrix", str(tmp_path / "nope.txt"), "--y", "also-nope", "--lam", "0.1"])
    assert rc == 1
    assert "cannot read matrix file" in capsys.readouterr().err


def test_solve_wrong_length_observations_exit_1(tmp_path, capsys):
    mat, yfile = tmp_path / "m.txt", tmp_path / "y.txt"
    assert main(_gen_args(mat, n=8, p=4, seed=5)) == 0
    yfile.write_text("1.0\n" * 7)
    capsys.readouterr()
    assert main(["solve", "--matrix", str(mat), "--y", str(yfile), "--lam", "0.1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"sparselasso solve: error: observation file {yfile} has 7 values, but the matrix has n=8 rows\n"


def test_witness_report_fields(tmp_path, capsys):
    mat = tmp_path / "m.txt"
    assert main(_gen_args(mat, n=40, p=10, gamma=0.5, seed=101, convention="rescaled")) == 0
    capsys.readouterr()
    rc = main([
        "witness",
        "--matrix", str(mat),
        "--k", "3",
        "--lam", "0.25",
        "--noise-seed", "5",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    for field in ("invertible", "u", "va", "vb", "event_v", "event_u", "sign_consistent", "success", "margins"):
        assert field in payload
    assert payload["invertible"] is True
    assert len(payload["u"]) == 3
    assert len(payload["va"]) == 7
    assert set(payload["margins"]) == {"dual", "magnitude", "sign"}
    # rescaled matrices get the rescaled noise variance
    assert payload["noise_variance"] == pytest.approx(0.0625 / 0.5)


def _sweep_args(extra):
    return [
        "sweep",
        "--p-list", "32",
        "--theta-grid", "0.5,1.0",
        "--trials", "3",
        "--base-seed", "7",
        "--gamma-rule", "constant",
        "--gamma-value", "0.5",
    ] + extra


def test_sweep_dry_run_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(_sweep_args(["--dry-run"]))
    assert rc == 0
    out = capsys.readouterr().out
    assert "resolved parameters:" in out
    assert "grid:" in out
    assert "trials = 3  [flag]" in out
    assert list(tmp_path.iterdir()) == []


def test_sweep_dry_run_resolves_grid_before_printing(capsys):
    rc = main(["sweep", "--p-list", "128,4", "--theta-grid", "1.0", "--trials", "1", "--base-seed", "1", "--dry-run"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "grid point p=4" in err


_PLAIN_SWEEP = ["sweep", "--p-list", "64", "--theta-grid", "1", "--trials", "1", "--base-seed", "1", "--dry-run"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (_PLAIN_SWEEP + ["--gamma-value", "0.3"], "gamma_value"),
        (_PLAIN_SWEEP + ["--lambda-value", "0.3"], "lambda_value"),
        (_PLAIN_SWEEP + ["--k-list", "4"], "k_list"),
        (["check-conditions", "--p-list", "128", "--k-list", "4"], "k_list"),
    ],
    ids=["sweep_gamma_value", "sweep_lambda_value", "sweep_k_list", "check_conditions_k_list"],
)
def test_value_its_rule_does_not_read_exits_2(argv, name, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {name} is read only by " in err


@pytest.mark.parametrize(
    "extra, name",
    [
        (["--theta-grid", "nan"], "theta_grid"),
        (["--theta-grid", "1,inf"], "theta_grid"),
        (["--theta-grid", "1", "--sigma2", "nan"], "sigma2"),
        (["--theta-grid", "1", "--beta-min", "inf"], "beta_min"),
        (["--theta-grid", "1", "--gamma-rule", "constant", "--gamma-value", "nan"], "gamma_value"),
        (["--theta-grid", "1", "--lambda-rule", "constant", "--lambda-value", "inf"], "lambda_value"),
    ],
    ids=["theta_nan", "theta_inf", "sigma2_nan", "beta_min_inf", "gamma_value_nan", "lambda_value_inf"],
)
def test_sweep_non_finite_float_exits_2(extra, name, capsys):
    argv = ["sweep", "--p-list", "64", "--trials", "1", "--base-seed", "1", "--dry-run"] + extra
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {name} " in err and "must be finite, got " in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_sweep_outputs_are_reproducible(tmp_path, capsys):
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    j1 = tmp_path / "a.json"
    assert main(_sweep_args(["--out-csv", str(c1), "--out-json", str(j1)])) == 0
    assert "wrote" in capsys.readouterr().out
    assert main(_sweep_args(["--out-csv", str(c2)])) == 0
    assert c1.read_bytes() == c2.read_bytes()
    payload = json.loads(j1.read_text())
    assert "provenance" in payload
    assert payload["config"]["base_seed"] == 7
    assert len(payload["rows"]) == 2
    assert "trials" not in payload


def _die_at_first_point(args):
    cfg, point = args
    if point.theta == cfg.theta_grid[0]:
        os._exit(3)
    return _point_batch(args)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patched worker must be inherited by fork")
def test_sweep_crashed_worker_exits_1_naming_the_point(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sweep, "_point_batch", _die_at_first_point)
    csv, js = tmp_path / "s.csv", tmp_path / "s.json"
    rc = main(_sweep_args(["--threads", "2", "--out-csv", str(csv), "--out-json", str(js)]))
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith("sparselasso sweep: error: grid point p=32, theta=0.5: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_keep_trials_flag(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    jsn = tmp_path / "t.json"
    rc = main(_sweep_args(["--out-csv", str(csv), "--out-json", str(jsn), "--keep-trials"]))
    assert rc == 0
    assert "(6 trial records)" in capsys.readouterr().out
    payload = json.loads(jsn.read_text())
    assert len(payload["trials"]) == 6


def test_config_file_precedence(tmp_path, capsys):
    ini = tmp_path / "sweep.ini"
    ini.write_text(
        "[sweep]\n"
        "p_list = 32\n"
        "theta_grid = 0.5, 1.0\n"
        "trials = 5\n"
        "base_seed = 7\n"
        "gamma_rule = constant\n"
        "gamma_value = 0.5\n"
    )
    rc = main(["sweep", "--config", str(ini), "--trials", "2", "--dry-run"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trials = 2  [flag]" in out
    assert "base_seed = 7  [file]" in out
    assert "mode = 'witness'  [default]" in out


def test_config_unknown_key_suggests(tmp_path, capsys):
    ini = tmp_path / "c.ini"
    ini.write_text("[sweep]\nlamda_value = 0.3\n")
    rc = main(["sweep", "--config", str(ini), "--p-list", "32", "--theta-grid", "1.0", "--trials", "1", "--base-seed", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown key 'lamda_value'" in err
    assert "did you mean 'lambda_value'?" in err


def test_config_unknown_section(tmp_path, capsys):
    ini = tmp_path / "c.ini"
    ini.write_text("[sweeps]\ntrials = 2\n")
    rc = main(["sweep", "--config", str(ini), "--p-list", "32", "--theta-grid", "1.0", "--trials", "1", "--base-seed", "1"])
    assert rc == 2
    assert "unknown config section [sweeps]" in capsys.readouterr().err


def test_missing_required_parameter(capsys):
    rc = main(["sweep", "--p-list", "32"])
    assert rc == 2
    assert "missing required parameter 'theta_grid'" in capsys.readouterr().err


def test_missing_config_file(capsys):
    rc = main(["sweep", "--config", "/does/not/exist.ini", "--p-list", "32", "--theta-grid", "1.0", "--trials", "1", "--base-seed", "1"])
    assert rc == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_help_names_each_option_kind(capsys):
    assert main(["sweep", "--help"]) == 0
    out = capsys.readouterr().out
    for shown in ("--p-list INT_LIST", "--theta-grid FLOAT_LIST", "--trials INT", "--sigma2 FLOAT", "--mode STR",
                  "--keep-trials [BOOL]"):
        assert shown in out


def test_bounds_command(capsys):
    rc = main(["bounds", "--seed", "123", "--samples", "5000"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 10  # nine checks plus the summary
    assert all("PASS" in ln for ln in lines[:-1])
    assert "all bounds dominate" in lines[-1]


def test_check_conditions_table(capsys):
    rc = main(["check-conditions", "--p-list", "128,256"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 3
    header = lines[0].split()
    assert header == ["p", "k", "n", "gamma", "lambda", "q1", "q2", "q3", "snr"]
    first = lines[1].split()
    assert first[0] == "128"
    assert int(first[1]) == 12  # ceil(sqrt(128))


def test_check_conditions_explicit_k(capsys):
    rc = main([
        "check-conditions",
        "--p-list", "128",
        "--sparsity-rule", "explicit",
        "--k-list", "4",
    ])
    assert rc == 0
    assert main(["check-conditions", "--p-list", "128,256", "--sparsity-rule", "explicit", "--k-list", "4"]) == 2


@pytest.mark.parametrize(
    "extra",
    [
        ["--p-list", "128", "--sparsity-rule", "linear", "--linear-alpha", "0.9"],
        ["--p-list", "128", "--sparsity-rule", "explicit", "--k-list", "100"],
        ["--p-list", "128", "--poly-exponent", "0"],
        ["--p-list", "128", "--sparsity-rule", "explicit", "--k-list", "0"],
        ["--p-list", "128,4"],
        ["--p-list=-4"],
        ["--p-list", ","],
    ],
    ids=["linear_alpha", "k_above_half_p", "poly_exponent", "k_zero", "late_bad_p", "negative_p", "empty_p_list"],
)
def test_check_conditions_rejects_points_no_sweep_can_run(extra, capsys):
    assert main(["check-conditions", *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error" in err


def test_check_conditions_names_the_failing_p(capsys):
    assert main(["check-conditions", "--p-list", "128,4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: p=4: " in err


@settings(max_examples=200, deadline=None)
@given(
    rule=st.sampled_from(SPARSITY_RULES),
    p_list=st.lists(st.integers(-4, 4096), max_size=3),
    poly_exponent=st.floats(-0.5, 1.5),
    linear_alpha=st.floats(-0.5, 1.5),
    k_list=st.none() | st.lists(st.integers(-2, 2100), min_size=1, max_size=3),
)
def test_check_conditions_and_sweep_agree_on_k(rule, p_list, poly_exponent, linear_alpha, k_list):
    """Theory is tabulated exactly where a sweep runs: same k, or both reject."""
    try:
        cfg = SweepConfig(
            p_list=p_list,
            theta_grid=(1.0,),
            trials=1,
            base_seed=0,
            sparsity_rule=rule,
            poly_exponent=poly_exponent,
            linear_alpha=linear_alpha,
            k_list=k_list,
        )
        sweep_k = [pt.k for pt in grid_points(cfg)]
    except ParameterError:
        sweep_k = None

    argv = [
        "check-conditions",
        "--p-list", ",".join(map(str, p_list)),
        "--sparsity-rule", rule,
        f"--poly-exponent={poly_exponent!r}",
        f"--linear-alpha={linear_alpha!r}",
    ]
    if k_list is not None:
        argv.append("--k-list=" + ",".join(map(str, k_list)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if sweep_k is None:
        assert (rc, out.getvalue()) == (2, "")
    else:
        assert rc == 0, err.getvalue()
        assert [int(line.split()[1]) for line in out.getvalue().splitlines()[1:]] == sweep_k


_OPT_DEFAULTS = [
    pytest.param(opt, field, id=f"{cls.__name__}.{opt.name}")
    for opts, cls in (
        (cli._SWEEP_OPTS, SweepConfig),
        (cli._GEN_OPTS, EnsembleSpec),
        (cli._SOLVE_OPTS, LassoConfig),
        (cli._WITNESS_OPTS, SignalSpec),
    )
    for field in dataclasses.fields(cls)
    for opt in opts
    if opt.name == field.name and not opt.required
]


@pytest.mark.parametrize("opt, field", _OPT_DEFAULTS)
def test_cli_defaults_match_dataclass_defaults(opt, field):
    assert opt.default == field.default


def test_witness_output_does_not_depend_on_blas_threads(tmp_path):
    # The smallest criterion-2 shape whose witness differed between one and
    # two OpenBLAS threads while only sweep trials pinned BLAS: p=1024 at
    # theta=0.2, so n=349 and k=128.
    (pt,) = grid_points(SweepConfig(p_list=(1024,), theta_grid=(0.2,), trials=1, base_seed=0, sparsity_rule="linear"))
    assert (pt.n, pt.k) == (349, 128)
    path = tmp_path / "m.txt"
    with open(path, "w") as fh:
        write_matrix(sample_matrix(pt.spec, seed=1), fh)
    src = str(pathlib.Path(sparselasso.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "sparselasso.cli", "witness", "--matrix", str(path), "--k", str(pt.k),
             "--lam", repr(pt.lam), "--noise-seed", "2"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert json.loads(outputs[0])["invertible"] is True
    assert outputs[0] == outputs[1]
