"""Command-line front end.

Each subcommand resolves its parameters from three layers: built-in
defaults, then an INI config file (one section per subcommand), then
flags.  Every value's source is recorded and echoed into the output
artifacts, and stochastic subcommands require an explicit seed: nothing
consults the wall clock or ambient entropy.

Exit codes: 0 success, 1 runtime/data error, 2 usage/parameter error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import difflib
import sys
# The base of the BrokenProcessPool a parallel sweep raises when a worker
# dies; concurrent.futures.process itself would load multiprocessing.
from concurrent.futures import BrokenExecutor
from typing import Callable

import numpy as np

from . import ensemble, lasso, sweep, theory, witness
from .errors import DataError, ParameterError, integer, non_negative, one_of, positive

PROG = "sparselasso"

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def boolean(raw: str) -> bool:
    low = raw.strip().lower()
    if low in _TRUE_WORDS:
        return True
    if low in _FALSE_WORDS:
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _items(raw: str) -> list:
    return [x.strip() for x in raw.split(",") if x.strip()]


def int_list(raw: str) -> tuple:
    return tuple(map(int, _items(raw)))


def float_list(raw: str) -> tuple:
    return tuple(map(float, _items(raw)))


@dataclasses.dataclass(frozen=True)
class Opt:
    name: str
    kind: Callable  # converts the raw flag or config string
    default: object = None
    required: bool = False
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _filling(cls, *opts: Opt) -> tuple:
    """The opts, each one named like a field of the dataclass cls taking
    that field's default, or required when the field has none."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return tuple(
        opt if opt.name not in defaults
        else dataclasses.replace(opt, required=True) if defaults[opt.name] is dataclasses.MISSING
        else dataclasses.replace(opt, default=defaults[opt.name])
        for opt in opts
    )


_GEN_OPTS = _filling(
    ensemble.EnsembleSpec,
    Opt("n", int, help="number of rows"),
    Opt("p", int, help="number of columns"),
    Opt("gamma", float, help="sparsification level in (0, 1]"),
    Opt("convention", str, help="entry variance convention"),
    Opt("seed", int, required=True, help="matrix seed"),
    Opt("out", str, help="output path (default: standard output)"),
)

_SOLVE_OPTS = _filling(
    lasso.LassoConfig,
    Opt("matrix", str, required=True, help="serialized matrix path"),
    Opt("y", str, required=True, help="observation vector path, one value per line"),
    Opt("lam", float, help="regularization weight"),
    Opt("tol", float, help="convergence tolerance"),
    Opt("max_iter", int, help="sweep cap"),
    Opt("zero_tol", float, help="support threshold"),
)

_WITNESS_OPTS = _filling(
    ensemble.SignalSpec,
    Opt("matrix", str, required=True, help="serialized matrix path"),
    Opt("k", int, help="support size (first k columns)"),
    Opt("beta_min", float, help="support magnitude"),
    Opt("sign_pattern", str, help="support sign pattern"),
    Opt("sign_seed", int, help="seed for sign_pattern=seeded_random"),
    *_filling(sweep.SweepConfig, Opt("sigma2", float, help="noise variance")),
    Opt("noise_seed", int, required=True, help="noise seed"),
    Opt("lam", float, required=True, help="regularization weight"),
)

# The parameters of sweep.derive_k, shared by every subcommand that resolves k.
_K_OPTS = _filling(
    sweep.SweepConfig,
    Opt("p_list", int_list, help="ambient dimensions, comma separated"),
    Opt("sparsity_rule", str, help="how k is derived from p"),
    Opt("poly_exponent", float, help="k = ceil(p^c) for the polynomial rule"),
    Opt("linear_alpha", float, help="k = ceil(alpha p) for the linear rule"),
    Opt("k_list", int_list, help="explicit k per p (sparsity_rule=explicit)"),
)

_SWEEP_OPTS = _filling(
    sweep.SweepConfig,
    *_K_OPTS,
    Opt("theta_grid", float_list, help="control parameter grid, comma separated"),
    Opt("trials", int, help="trials per grid point"),
    Opt("base_seed", int, help="sweep seed"),
    Opt("gamma_rule", str, help="sparsification schedule"),
    Opt("gamma_value", float, help="gamma for gamma_rule=constant"),
    Opt("lambda_rule", str, help="regularization schedule"),
    Opt("lambda_value", float, help="lambda for lambda_rule=constant"),
    Opt("sigma2", float, help="noise variance"),
    Opt("beta_min", float, help="support magnitude"),
    Opt("mode", str, help="trial evaluation mode"),
    Opt("convention", str, help="matrix ensemble convention"),
    Opt("keep_trials", boolean, help="retain per-trial records in the JSON output"),
    Opt("out_csv", str, default="sweep.csv", help="aggregate CSV path"),
    Opt("out_json", str, help="JSON mirror path (optional)"),
    Opt("threads", int, default=1, help="worker process cap"),
    Opt("dry_run", boolean, default=False, help="print the resolved grid and exit"),
)

_BOUNDS_OPTS = (
    Opt("seed", int, required=True, help="sampling seed"),
    Opt("samples", int, default=100_000, help="Monte Carlo samples per bound"),
)

_CHECK_OPTS = (
    *_K_OPTS,
    Opt("gamma_rule", str, default="sixth_root", help="sparsification schedule"),
    Opt("eps", float, default=0.0, help="sample-size slack"),
    *_filling(ensemble.SignalSpec, Opt("beta_min", float, help="support magnitude")),
)


def _convert(opt: Opt, raw: str, source: str):
    try:
        return opt.kind(raw)
    except ValueError as exc:
        raise ParameterError(f"bad value for '{opt.name}' (from {source}): {exc}") from exc


def _load_file_section(path: str, sub: str, opts: tuple) -> dict:
    parser = configparser.ConfigParser(interpolation=None, default_section="")  # values literal, no [DEFAULT]
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ParameterError(f"cannot parse config file {path}: {exc}") from exc
    for section in parser.sections():
        if section not in SUBCOMMANDS:
            raise ParameterError(f"unknown config section [{section}]; valid sections: {', '.join(SUBCOMMANDS)}")
    if not parser.has_section(sub):
        return {}
    valid = {o.name for o in opts}
    out = {}
    for key, raw in parser.items(sub):
        if key not in valid:
            hint = difflib.get_close_matches(key, sorted(valid), n=1)
            suggestion = f"; did you mean '{hint[0]}'?" if hint else ""
            raise ParameterError(f"unknown key '{key}' in [{sub}]{suggestion}")
        out[key] = raw
    return out


def _resolve(sub: str, args: argparse.Namespace) -> tuple[dict, dict]:
    opts = SUBCOMMANDS[sub][1]
    file_vals = _load_file_section(args.config, sub, opts) if args.config else {}
    resolved, provenance = {}, {}
    for opt in opts:
        raw = getattr(args, opt.name)
        if raw is not None:
            resolved[opt.name] = _convert(opt, raw, "flag")
            provenance[opt.name] = "flag"
        elif opt.name in file_vals:
            resolved[opt.name] = _convert(opt, file_vals[opt.name], "file")
            provenance[opt.name] = "file"
        elif opt.required:
            raise ParameterError(f"{sub}: missing required parameter '{opt.name}' (flag {opt.flag} or config key)")
        else:
            resolved[opt.name] = opt.default
            provenance[opt.name] = "default"
    return resolved, provenance


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=PROG, description="Lasso signed-support recovery toolkit")
    subs = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    for name, (desc, opts, _) in SUBCOMMANDS.items():
        sp = subs.add_parser(name, help=desc, description=desc)
        sp.add_argument("--config", help="INI config file; section [%s]" % name)
        for opt in opts:
            if opt.kind is boolean:  # a bare flag means true
                sp.add_argument(opt.flag, dest=opt.name, nargs="?", const="true", default=None, metavar="BOOL", help=opt.help)
            else:
                sp.add_argument(opt.flag, dest=opt.name, default=None, metavar=opt.kind.__name__.upper(), help=opt.help)
    return parser


def _build(cls, cfg: dict, **given):
    """An instance of the dataclass cls from the resolved parameters named like its fields."""
    return cls(**{f.name: given[f.name] if f.name in given else cfg[f.name] for f in dataclasses.fields(cls)})


def _cmd_gen(cfg: dict, prov: dict) -> int:
    spec = _build(ensemble.EnsembleSpec, cfg)
    sweep.check_outputs([cfg["out"]])
    m = ensemble.sample_matrix(spec, cfg["seed"])
    if cfg["out"] is None:
        ensemble.write_matrix(m, sys.stdout)
    else:
        sweep.write_files([(cfg["out"], lambda fh: ensemble.write_matrix(m, fh))])
        print(f"wrote {m.nnz} entries to {cfg['out']}")
    return 0


def _read_matrix_file(path: str) -> ensemble.SparseMeasurementMatrix:
    try:
        with open(path) as fh:
            return ensemble.read_matrix(fh)
    except OSError as exc:
        raise DataError(f"cannot read matrix file {path}: {exc}") from exc


def _cmd_solve(cfg: dict, prov: dict) -> int:
    config = _build(lasso.LassoConfig, cfg)  # a bad parameter is reported before any file is read
    m = _read_matrix_file(cfg["matrix"])
    try:
        with open(cfg["y"]) as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise DataError(f"cannot read observation file {cfg['y']}: {exc}") from exc
    try:
        y = np.array([float(ln) for ln in lines if ln], dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"bad observation file {cfg['y']}: {exc}") from exc
    if y.size != m.spec.n:
        raise DataError(f"observation file {cfg['y']} has {y.size} values, but the matrix has n={m.spec.n} rows")
    solution = lasso.solve(m, y, config)
    sweep.dump_json({**dataclasses.asdict(solution), "config": cfg, "provenance": prov}, sys.stdout)
    return 0


def _cmd_witness(cfg: dict, prov: dict) -> int:
    m = _read_matrix_file(cfg["matrix"])
    sig = _build(ensemble.SignalSpec, cfg, p=m.spec.p)
    obs = ensemble.observe(m, ensemble.make_signal(sig), cfg["sigma2"], cfg["noise_seed"])
    report = witness.build(m, sig, obs.w, cfg["lam"])
    out = dataclasses.asdict(report)
    # asdict keeps Margins a namedtuple, which JSON would write as a list.
    out["margins"] = None if report.margins is None else report.margins._asdict()
    sweep.dump_json({**out, "noise_variance": obs.noise_variance, "config": cfg, "provenance": prov}, sys.stdout)
    return 0


def _cmd_sweep(cfg: dict, prov: dict) -> int:
    scfg = _build(sweep.SweepConfig, cfg)
    threads = integer("threads", cfg["threads"], 1)  # before the dry run, which must reject what the run rejects
    sweep.check_outputs([cfg["out_csv"], cfg["out_json"]])
    if cfg["dry_run"]:
        points = sweep.grid_points(scfg)
        print("resolved parameters:")
        for key in sorted(cfg):
            print(f"  {key} = {cfg[key]!r}  [{prov[key]}]")
        print("grid:")
        print("  p      theta    k      n      gamma        lambda")
        for pt in points:
            print(f"  {pt.p:<6d} {pt.theta:<8.4g} {pt.k:<6d} {pt.n:<6d} {pt.gamma:<12.6g} {pt.lam:<.6g}")
        return 0
    table = sweep.run_sweep(scfg, workers=threads)
    sweep.write_outputs(table, cfg["out_csv"], cfg["out_json"], provenance=prov)
    done = f"wrote {cfg['out_csv']}"
    if cfg["out_json"] is not None:
        done += f" and {cfg['out_json']}"
    if table.trial_records is not None:
        done += f" ({len(table.trial_records)} trial records)"
    print(done)
    return 0


def _cmd_bounds(cfg: dict, prov: dict) -> int:
    checks = theory.run_bound_checks(cfg["seed"], cfg["samples"])
    all_ok = True
    for c in checks:
        params = " ".join(f"{k}={v:g}" for k, v in c.params.items())
        verdict = "PASS" if c.ok else "FAIL"
        all_ok &= c.ok
        print(f"{c.kind:<10s} {params:<28s} bound={c.bound:.6g} estimate={c.estimate:.6g} limit={c.limit:.6g} {verdict}")
    print(f"{'all bounds dominate' if all_ok else 'domination FAILED'} ({cfg['samples']} samples, seed {cfg['seed']})")
    return 0 if all_ok else 1


def _cmd_check_conditions(cfg: dict, prov: dict) -> int:
    rule = {o.name: cfg[o.name] for o in _K_OPTS}
    sweep.derive_k(**rule)
    one_of("gamma_rule", cfg["gamma_rule"], theory.GAMMA_RULES)  # once, so the error is not tied to one p
    non_negative("eps", cfg["eps"])
    positive("beta_min", cfg["beta_min"])
    lines = [f"{'p':>8s} {'k':>6s} {'n':>8s} {'gamma':>10s} {'lambda':>10s} {'q1':>10s} {'q2':>10s} {'q3':>10s} {'snr':>12s}"]
    for i, p in enumerate(cfg["p_list"]):
        try:
            k = sweep.derive_k(**rule, p_idx=i)
            n = theory.required_sample_size(p, k, cfg["eps"])
            gamma = theory.gamma_schedule(p, k, cfg["gamma_rule"])
            lam = theory.lambda_schedule(n, p, k)
            cond = theory.recovery_conditions(n, p, k, gamma, lam, cfg["beta_min"])
            snr = theory.snr_diagnostic(gamma, n, cfg["beta_min"])
        except ParameterError as exc:
            raise type(exc)(f"p={p}: {exc}") from exc
        lines.append(
            f"{p:>8d} {k:>6d} {n:>8d} {gamma:>10.5g} {lam:>10.5g} "
            f"{cond.q1:>10.5g} {cond.q2:>10.5g} {cond.q3:>10.5g} {snr:>12.6g}"
        )
    print("\n".join(lines))
    return 0


SUBCOMMANDS = {
    "gen": ("generate and serialize a measurement matrix", _GEN_OPTS, _cmd_gen),
    "solve": ("solve the Lasso on a matrix and observation file", _SOLVE_OPTS, _cmd_solve),
    "witness": ("build the recovery witness for a serialized matrix", _WITNESS_OPTS, _cmd_witness),
    "sweep": ("run a Monte Carlo phase-transition sweep", _SWEEP_OPTS, _cmd_sweep),
    "bounds": ("Monte Carlo domination check of the tail bounds", _BOUNDS_OPTS, _cmd_bounds),
    "check-conditions": ("tabulate schedules and recovery condition scalars", _CHECK_OPTS, _cmd_check_conditions),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg, prov = _resolve(args.subcommand, args)
        return SUBCOMMANDS[args.subcommand][2](cfg, prov)
    except ParameterError as exc:
        print(f"{PROG} {args.subcommand}: error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError, BrokenExecutor) as exc:
        print(f"{PROG} {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
