import contextlib
import dataclasses
import io
import json
import os
import sys

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselasso import EnsembleSpec, LassoConfig, ParameterError, SignalSpec, SweepConfig, grid_points, read_matrix
from sparselasso import blas, cli, ensemble, sample_matrix, sweep, write_matrix
from sparselasso.cli import main
from sparselasso.sweep import SPARSITY_RULES, _point_batch

from oracles import run_fresh


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


def test_gen_failing_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    def partial(m, fh):
        fh.write("16 6 0.7 standard 3\n")
        raise OSError("disk full")

    monkeypatch.setattr(ensemble, "write_matrix", partial)
    assert main(_gen_args(tmp_path / "m.txt")) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "disk full" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["sweep", "--p-list", "32", "--theta-grid", "1", "--trials", "1", "--base-seed", "1", "--mode", "dry"],
         "mode must be one of"),
        (_gen_args("m.txt", convention="dense"), "convention must be one of"),
        (["sweep", "--p-list", "32", "--theta-grid", "1", "--trials", "1", "--base-seed", "1", "--keep-trials", "maybe"],
         "bad value for 'keep_trials'"),
    ],
    ids=["sweep_mode", "gen_convention", "keep_trials_word"],
)
def test_bad_option_value_exits_2(argv, fragment, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert fragment in err
    assert list(tmp_path.iterdir()) == []


def test_bad_choice_in_a_config_file_meets_the_library_rule(tmp_path, capsys):
    ini = tmp_path / "c.ini"
    ini.write_text("[check-conditions]\ngamma_rule = linear\n")
    assert main(["check-conditions", "--config", str(ini), "--p-list", "64,128"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "sparselasso check-conditions: error: gamma_rule must be one of "
        "('sixth_root', 'log_over_sqrt'), got 'linear'\n"
    )


def test_bounds_negative_seed_exits_2_with_one_line(capsys):
    assert main(["bounds", "--seed", "-1", "--samples", "10"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "sparselasso bounds: error: seed must be at least 0, got -1\n"


@pytest.mark.parametrize(
    "grid, err",
    [
        (["--p-list", "64,64", "--theta-grid", "1"], "p_list must not repeat a value, got (64, 64)"),
        (["--p-list", "64", "--theta-grid", "1,1.0"], "theta_grid must not repeat a value, got (1.0, 1.0)"),
    ],
    ids=["p_list", "theta_grid"],
)
def test_sweep_repeated_grid_value_exits_2_with_one_line(grid, err, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", *grid, "--trials", "2", "--base-seed", "3"]) == 2
    assert capsys.readouterr() == ("", f"sparselasso sweep: error: {err}\n")
    assert list(tmp_path.iterdir()) == []


def test_witness_sign_seed_without_seeded_random_exits_2(tmp_path, capsys):
    mat = tmp_path / "m.txt"
    assert main(_gen_args(mat, n=16, p=8)) == 0
    capsys.readouterr()
    argv = ["witness", "--matrix", str(mat), "--k", "4", "--lam", "0.2", "--noise-seed", "3", "--sign-seed", "5"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "sparselasso witness: error: sign_seed is read only by sign_pattern='seeded_random', not 'all_plus'\n"


def test_witness_reports_a_missing_matrix_before_a_bad_sign_pattern(tmp_path, capsys):
    argv = ["witness", "--k", "2", "--noise-seed", "1", "--lam", "0.1", "--sign-pattern", "bogus", "--matrix"]
    assert main([*argv, str(tmp_path / "nope.txt")]) == 1
    assert "cannot read matrix file" in capsys.readouterr().err
    mat = tmp_path / "m.txt"
    assert main(_gen_args(mat, n=16, p=6)) == 0
    capsys.readouterr()
    assert main([*argv, str(mat)]) == 2
    assert "sign_pattern must be one of" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "y_text, fragment",
    [(None, "cannot read observation file"), ("1.0\nabc\n", "bad observation file")],
    ids=["missing", "non_numeric"],
)
def test_solve_unreadable_observations_exit_1(y_text, fragment, tmp_path, capsys):
    mat, yfile = tmp_path / "m.txt", tmp_path / "y.txt"
    assert main(_gen_args(mat, n=8, p=4, seed=5)) == 0
    if y_text is not None:
        yfile.write_text(y_text)
    capsys.readouterr()
    assert main(["solve", "--matrix", str(mat), "--y", str(yfile), "--lam", "0.1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and fragment in err


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


def test_witness_and_solve_print_their_records_fields(tmp_path, capsys):
    mat, yfile = tmp_path / "m.txt", tmp_path / "y.txt"
    assert main(_gen_args(mat, n=40, p=10, gamma=0.5, seed=101)) == 0
    yfile.write_text("0.5\n" * 40)
    capsys.readouterr()
    assert main(["witness", "--matrix", str(mat), "--k", "3", "--lam", "0.25", "--noise-seed", "5"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {
        "invertible", "success", "u", "va", "vb", "event_v", "event_u", "sign_consistent", "margins",
        "noise_variance", "config", "provenance",
    }
    assert main(["solve", "--matrix", str(mat), "--y", str(yfile), "--lam", "0.1"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {
        "beta_hat", "objective", "kkt_residual", "iterations", "converged", "config", "provenance",
    }


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


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry_run"])
@pytest.mark.parametrize("threads", ["0", "-1"])
def test_sweep_rejects_a_thread_count_below_one_with_or_without_dry_run(threads, dry_run, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--p-list", "64", "--theta-grid", "1", "--trials", "1", "--base-seed", "1", "--threads", threads]
    assert main(argv + dry_run) == 2
    assert capsys.readouterr() == ("", f"sparselasso sweep: error: threads must be at least 1, got {threads}\n")
    assert list(tmp_path.iterdir()) == []


_PLAIN_SWEEP =["sweep", "--p-list", "64", "--theta-grid", "1", "--trials", "1", "--base-seed", "1", "--dry-run"]


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


_WITNESS = ["witness", "--matrix", "{m}", "--k", "3", "--noise-seed", "5"]
_SOLVE = ["solve", "--matrix", "{m}", "--y", "{y}"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (_WITNESS + ["--lam", "0.25", "--sigma2", "nan"], "sigma2"),
        (_WITNESS + ["--lam", "0.25", "--sigma2", "inf"], "sigma2"),
        (_WITNESS + ["--lam", "inf"], "lam"),
        (_WITNESS + ["--lam", "0.25", "--beta-min", "inf"], "beta_min"),
        (_SOLVE + ["--lam", "inf"], "lam"),
        (_SOLVE + ["--lam", "0.1", "--tol", "inf"], "tol"),
        (_SOLVE + ["--lam", "0.1", "--zero-tol", "inf"], "zero_tol"),
        (["check-conditions", "--p-list", "1024", "--eps", "nan"], "eps"),
        (["check-conditions", "--p-list", "1024", "--eps", "inf"], "eps"),
        (["check-conditions", "--p-list", "1024", "--beta-min", "inf"], "beta_min"),
    ],
    ids=["witness_sigma2_nan", "witness_sigma2_inf", "witness_lam_inf", "witness_beta_min_inf", "solve_lam_inf",
         "solve_tol_inf", "solve_zero_tol_inf", "check_eps_nan", "check_eps_inf", "check_beta_min_inf"],
)
def test_non_finite_float_exits_2_on_every_subcommand(argv, name, tmp_path, capsys):
    mat, yfile = tmp_path / "m.txt", tmp_path / "y.txt"
    assert main(["gen", "--n", "20", "--p", "40", "--gamma", "0.5", "--seed", "1", "--out", str(mat)]) == 0
    yfile.write_text("0.5\n" * 20)
    capsys.readouterr()
    assert main([a.format(m=mat, y=yfile) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {name} must be finite, got " in err
    assert err.count("\n") == 1 and "Traceback" not in err


# A valid call of every subcommand with a float option; the test below overrides one float.
_VALID_ARGV = {
    "gen": ["--n", "20", "--p", "40", "--gamma", "0.5", "--seed", "1", "--out", "{out}"],
    "solve": ["--matrix", "{m}", "--y", "{y}", "--lam", "0.1"],
    "witness": ["--matrix", "{m}", "--k", "3", "--noise-seed", "5", "--lam", "0.25"],
    "sweep": ["--p-list", "64", "--theta-grid", "1", "--trials", "1", "--base-seed", "1", "--dry-run"],
    "check-conditions": ["--p-list", "1024"],
}

# Every float and float-list option of every subcommand; the two sparsity
# exponents under both rules, so each is also given where its rule does not read it,
# and each list also with a bad entry after a good one.
_FLOAT_OPTIONS = [
    pytest.param(sub, opt, rule, value, id=f"{sub}-{opt.name}{'-' + rule if rule else ''}-{value}")
    for sub, (_, opts, _) in cli.SUBCOMMANDS.items()
    for opt in opts
    if opt.kind in (float, cli.float_list)
    for rule in (("polynomial", "linear") if opt.name in ("poly_exponent", "linear_alpha") else (None,))
    for value in ("nan", "inf", "-inf") + (("1,inf",) if opt.kind is cli.float_list else ())
]


@pytest.mark.parametrize("sub, opt, rule, value", _FLOAT_OPTIONS)
def test_every_float_option_rejects_non_finite_values(sub, opt, rule, value, tmp_path, capsys):
    mat, yfile, out_path = tmp_path / "m.txt", tmp_path / "y.txt", tmp_path / "out.txt"
    assert main(["gen", "--n", "20", "--p", "40", "--gamma", "0.5", "--seed", "1", "--out", str(mat)]) == 0
    yfile.write_text("0.5\n" * 20)
    capsys.readouterr()
    argv = [sub] + [a.format(m=mat, y=yfile, out=out_path) for a in _VALID_ARGV[sub]] + [f"{opt.flag}={value}"]
    if rule is not None:
        argv += ["--sparsity-rule", rule]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{cli.PROG} {sub}: error: {opt.name} must be finite, got {float(value.split(',')[-1])!r}\n"
    assert not out_path.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--lam", "inf"], "lam must be finite, got inf"),
        (["--lam", "0"], "lam must be positive, got 0.0"),
        (["--lam", "0.1", "--max-iter", "0"], "max_iter must be at least 1, got 0"),
    ],
    ids=["lam_inf", "lam_zero", "max_iter_zero"],
)
def test_solve_reports_a_bad_parameter_before_reading_files(extra, message, tmp_path, capsys):
    argv = ["solve", "--matrix", str(tmp_path / "nope.txt"), "--y", str(tmp_path / "nope-y.txt")] + extra
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{cli.PROG} solve: error: {message}\n"


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


def test_sweep_json_records_the_libraries(tmp_path, capsys):
    """The JSON mirror names numpy's and scipy's versions and each loaded
    OpenBLAS kernel; the CSV written with it is the CSV written alone."""
    alone, mirrored, jsn = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "b.json"
    assert main(_sweep_args(["--out-csv", str(alone)])) == 0
    assert main(_sweep_args(["--out-csv", str(mirrored), "--out-json", str(jsn)])) == 0
    assert alone.read_bytes() == mirrored.read_bytes()
    libraries = json.loads(jsn.read_text())["libraries"]
    assert libraries == {"numpy": np.__version__, "scipy": scipy.__version__, "openblas_cores": list(blas.core_names())}


def _die_at_first_point(cfg, point):
    if point.theta == cfg.theta_grid[0]:
        os._exit(3)
    return _point_batch(cfg, point)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the patched worker must be inherited by fork")
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


def test_sweep_keep_trials_no_keeps_none(tmp_path, capsys):
    jsn = tmp_path / "t.json"
    assert main(_sweep_args(["--out-csv", str(tmp_path / "t.csv"), "--out-json", str(jsn), "--keep-trials", "no"])) == 0
    assert "trial records" not in capsys.readouterr().out
    assert "trials" not in json.loads(jsn.read_text())


_ROW_KEYS = {
    "p", "k", "n", "theta", "realized_theta", "gamma", "lam", "trials", "successes", "success_rate",
    "invertible_trials", "mean_dual_ratio", "mean_u_ratio", "full_successes", "agreements", "nonconverged",
}
_TRIAL_KEYS = {
    "p", "k", "n", "theta", "gamma", "lam", "trial_index", "seed", "witness_success", "full_success",
    "agreement", "dual_ratio", "u_ratio", "invertible", "converged", "elapsed",
}


@pytest.mark.parametrize(
    "mode, row_nulls, trial_nulls",
    [
        ("witness", {"full_successes", "agreements", "nonconverged"}, {"full_success", "agreement", "converged"}),
        (
            "full",
            {"invertible_trials", "mean_dual_ratio", "mean_u_ratio", "full_successes", "agreements"},
            {"witness_success", "agreement", "dual_ratio", "u_ratio", "invertible"},
        ),
        ("both", set(), set()),
    ],
)
def test_sweep_json_rows_and_trials_have_fixed_keys_and_mode_nulls(mode, row_nulls, trial_nulls, tmp_path, capsys):
    """Every row and trial record of the sweep JSON has the same keys in
    every mode, and the mode decides which are null. So does a singular
    support block: at theta=0.25 every trial's block is singular, so those
    trials have no ratios and their row no mean ratios."""
    jsn = tmp_path / "s.json"
    argv = [
        "sweep", "--p-list", "32", "--theta-grid", "0.25,1.0", "--trials", "3", "--base-seed", "7",
        "--gamma-rule", "constant", "--gamma-value", "0.2", "--mode", mode, "--keep-trials",
        "--out-csv", str(tmp_path / "s.csv"), "--out-json", str(jsn),
    ]
    assert main(argv) == 0
    payload = json.loads(jsn.read_text())
    singular_row, singular_trial = {"mean_dual_ratio", "mean_u_ratio"}, {"dual_ratio", "u_ratio"}
    assert [set(r) for r in payload["rows"]] == [_ROW_KEYS] * 2
    assert [{key for key, v in r.items() if v is None} for r in payload["rows"]] == [row_nulls | singular_row, row_nulls]
    assert [set(t) for t in payload["trials"]] == [_TRIAL_KEYS] * 6
    assert [{key for key, v in t.items() if v is None} for t in payload["trials"]] == (
        [trial_nulls | singular_trial] * 3 + [trial_nulls] * 3
    )


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


@pytest.mark.parametrize("value", ["a%b.csv", "run-%(base_seed)s.csv"])
def test_config_values_are_taken_literally(value, tmp_path, capsys):
    ini = tmp_path / "c.ini"
    ini.write_text(f"[sweep]\nout_csv = {value}\n")
    rc = main(["sweep", "--config", str(ini), "--p-list", "32", "--theta-grid", "1.0", "--trials", "1", "--base-seed", "4",
               "--dry-run"])
    assert rc == 0
    assert f"out_csv = {value!r}  [file]" in capsys.readouterr().out


@pytest.mark.parametrize("sub, argv", [
    ("check-conditions", []),
    ("gen", ["--n", "4", "--p", "4", "--gamma", "1"]),
], ids=["check-conditions", "gen"])
def test_config_default_section_is_rejected(sub, argv, tmp_path, capsys):
    ini = tmp_path / "c.ini"
    ini.write_text("[DEFAULT]\nseed = 3\n[check-conditions]\np_list = 64\n")
    rc = main([sub, "--config", str(ini), *argv])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"sparselasso {sub}: error: unknown config section [DEFAULT]; valid sections: {', '.join(cli.SUBCOMMANDS)}\n"


def test_sweep_rejects_one_file_for_both_outputs_before_any_trial(tmp_path, monkeypatch, capsys):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sweep, "run_sweep", no_trials)
    (tmp_path / "X").write_text("earlier output\n")
    rc = main(_sweep_args(["--out-csv", "X", "--out-json", "./X"]))
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "sparselasso sweep: error: output paths X and ./X name the same file\n"
    assert [(f.name, f.read_text()) for f in tmp_path.iterdir()] == [("X", "earlier output\n")]


def test_sweep_rejects_a_directory_output_before_any_trial(tmp_path, monkeypatch, capsys):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sweep, "run_sweep", no_trials)
    (tmp_path / "out.csv").write_text("earlier output\n")
    (tmp_path / "out.json").mkdir()
    rc = main(_sweep_args(["--out-csv", "out.csv", "--out-json", "out.json"]))
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "sparselasso sweep: error: cannot write out.json: is a directory\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["out.csv", "out.json"]
    assert (tmp_path / "out.csv").read_text() == "earlier output\n"
    assert list((tmp_path / "out.json").iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        _sweep_args(["--out-csv", ""]),
        _sweep_args(["--out-json", ""]),
        ["gen", "--n", "20", "--p", "40", "--gamma", "0.5", "--seed", "1", "--out", ""],
    ],
    ids=["sweep_out_csv", "sweep_out_json", "gen_out"],
)
def test_empty_output_path_exits_2_before_any_work(argv, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sweep, "run_sweep", no_work)
    monkeypatch.setattr(ensemble, "sample_matrix", no_work)
    (tmp_path / "sweep.csv").write_text("earlier output\n")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"sparselasso {argv[0]}: error: output paths must not be empty\n"
    assert [(f.name, f.read_text()) for f in tmp_path.iterdir()] == [("sweep.csv", "earlier output\n")]


# The required parameters of each subcommand, and a value each kind of option converts.
_REQUIRED = {
    "gen": ("n", "p", "gamma", "seed"),
    "solve": ("matrix", "y", "lam"),
    "witness": ("matrix", "k", "noise_seed", "lam"),
    "sweep": ("p_list", "theta_grid", "trials", "base_seed"),
    "bounds": ("seed",),
    "check-conditions": ("p_list",),
}
_SAMPLE = {int: "1", float: "1.0", str: "x", cli.int_list: "32", cli.float_list: "1.0"}


@pytest.mark.parametrize("sub, name", [(sub, name) for sub, names in _REQUIRED.items() for name in names],
                         ids=lambda v: v)
def test_missing_required_parameter(sub, name, capsys):
    opts = {o.name: o for o in cli.SUBCOMMANDS[sub][1]}
    argv = [sub]
    for given in _REQUIRED[sub]:
        if given != name:
            argv += [opts[given].flag, _SAMPLE[opts[given].kind]]
    rc = main(argv)
    assert rc == 2
    assert f"missing required parameter '{name}'" in capsys.readouterr().err


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
    outputs = [
        run_fresh("-m", "sparselasso.cli", "witness", "--matrix", str(path), "--k", str(pt.k), "--lam", repr(pt.lam),
                  "--noise-seed", "2", OPENBLAS_NUM_THREADS=threads)
        for threads in ("1", "2")
    ]
    assert json.loads(outputs[0])["invertible"] is True
    assert outputs[0] == outputs[1]
