"""Monte Carlo phase-transition sweeps.

A sweep walks a (p, theta) grid, derives (k, n, gamma, lambda) per point
from the configured rules, runs independent trials at each point, and
aggregates success rates.  Per-trial randomness is keyed by
(base_seed, p index, theta index, trial index) through an avalanche mix,
so any trial can be regenerated in isolation and results are identical
for any worker count or execution order.

Trials draw a fresh matrix and a fresh noise vector each time.  The
noise is always N(0, sigma2 I): the convention choice selects the
matrix ensemble only, so success curves under the two conventions are
directly comparable at equal sigma2.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import blas, ensemble, lasso, rng, theory, witness
from .errors import CapacityError, DataError, ParameterError

SPARSITY_RULES = ("polynomial", "linear", "explicit")
GAMMA_RULES = ("constant",) + theory.GAMMA_RULES
LAMBDA_RULES = ("scaled", "constant")
MODES = ("witness", "full", "both")

CSV_HEADER = "theta,n,p,k,gamma,lambda,sigma2,mode,trials,successes,success_rate,base_seed"


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name}: expected an integer, got {value!r}") from None


@dataclass(frozen=True)
class SweepConfig:
    p_list: tuple
    theta_grid: tuple
    trials: int
    base_seed: int
    sparsity_rule: str = "polynomial"
    poly_exponent: float = 0.5
    linear_alpha: float = 0.125
    k_list: Optional[tuple] = None
    gamma_rule: str = "log_over_sqrt"
    gamma_value: Optional[float] = None
    lambda_rule: str = "scaled"
    lambda_value: Optional[float] = None
    sigma2: float = 0.0625
    beta_min: float = 1.0
    mode: str = "witness"
    convention: str = "rescaled"
    keep_trials: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_list", tuple(_integer("p_list", p) for p in self.p_list))
        object.__setattr__(self, "theta_grid", tuple(float(t) for t in self.theta_grid))
        if self.k_list is not None:
            object.__setattr__(self, "k_list", tuple(_integer("k_list", k) for k in self.k_list))
        object.__setattr__(self, "trials", _integer("trials", self.trials))
        object.__setattr__(self, "base_seed", _integer("base_seed", self.base_seed))
        if not self.theta_grid:
            raise ParameterError("theta_grid must be non-empty")
        if len(self.p_list) > 2**16 or len(self.theta_grid) > 2**16:
            raise CapacityError("at most 2^16 p values and 2^16 theta values per sweep")
        if not all(math.isfinite(t) for t in self.theta_grid):
            raise ParameterError(f"theta_grid values must be finite, got {self.theta_grid!r}")
        if any(t <= 0 for t in self.theta_grid):
            raise ParameterError("theta_grid values must be positive")
        for name in ("sigma2", "beta_min", "gamma_value", "lambda_value"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if self.trials < 1:
            raise ParameterError(f"trials must be at least 1, got {self.trials}")
        if self.trials > 2**32:
            raise CapacityError("at most 2^32 trials per grid point")
        if not 0 <= self.base_seed < 2**64:
            raise ParameterError(f"base_seed must be a 64-bit unsigned integer, got {self.base_seed}")
        derive_k(self.p_list, self.sparsity_rule, self.poly_exponent, self.linear_alpha, self.k_list)
        if self.gamma_rule not in GAMMA_RULES:
            raise ParameterError(f"gamma_rule must be one of {GAMMA_RULES}, got {self.gamma_rule!r}")
        if self.gamma_rule == "constant":
            if self.gamma_value is None or not 0.0 < self.gamma_value <= 1.0:
                raise ParameterError("gamma_rule='constant' requires gamma_value in (0, 1]")
        elif self.gamma_value is not None:
            raise ParameterError(f"gamma_value is read only by gamma_rule='constant', not {self.gamma_rule!r}")
        if self.lambda_rule not in LAMBDA_RULES:
            raise ParameterError(f"lambda_rule must be one of {LAMBDA_RULES}, got {self.lambda_rule!r}")
        if self.lambda_rule == "constant":
            if self.lambda_value is None or not self.lambda_value > 0:
                raise ParameterError("lambda_rule='constant' requires a positive lambda_value")
        elif self.lambda_value is not None:
            raise ParameterError(f"lambda_value is read only by lambda_rule='constant', not {self.lambda_rule!r}")
        if self.sigma2 < 0:
            raise ParameterError(f"sigma2 must be non-negative, got {self.sigma2!r}")
        if not self.beta_min > 0:
            raise ParameterError(f"beta_min must be positive, got {self.beta_min!r}")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.convention not in ensemble.CONVENTIONS:
            raise ParameterError(f"convention must be one of {ensemble.CONVENTIONS}, got {self.convention!r}")


@dataclass(frozen=True)
class GridPoint:
    p_idx: int
    theta_idx: int
    p: int
    theta: float
    k: int
    n: int
    gamma: float
    gamma_clamped: bool
    lam: float
    spec: ensemble.EnsembleSpec


@dataclass
class TrialRecord:
    p: int
    k: int
    n: int
    theta: float
    gamma: float
    lam: float
    trial_index: int
    seed: int
    witness_success: Optional[bool]
    full_success: Optional[bool]
    agreement: Optional[bool]
    dual_ratio: Optional[float]
    u_ratio: Optional[float]
    invertible: Optional[bool]
    elapsed: float

    @property
    def success(self) -> bool:
        if self.witness_success is not None:
            return self.witness_success
        return bool(self.full_success)


@dataclass
class SweepRow:
    p: int
    k: int
    n: int
    theta: float
    realized_theta: float
    gamma: float
    lam: float
    trials: int
    successes: int
    success_rate: float
    invertible_trials: Optional[int] = None
    mean_dual_ratio: Optional[float] = None
    mean_u_ratio: Optional[float] = None
    full_successes: Optional[int] = None
    agreements: Optional[int] = None


@dataclass
class SweepTable:
    config: SweepConfig
    rows: list
    trial_records: Optional[list] = None


def derive_k(p_list, sparsity_rule="polynomial", poly_exponent=0.5, linear_alpha=0.125, k_list=None, p_idx=None):
    """The sparsity rule: checks its parameters against p_list and, given
    p_idx, returns the k of p_list[p_idx], which must lie in [1, p/2].

    Sweeps and the tabulated recovery conditions both resolve k here, so
    theory and simulation are evaluated at the same (p, k) points.
    """
    if not p_list:
        raise ParameterError("p_list must be non-empty")
    if sparsity_rule not in SPARSITY_RULES:
        raise ParameterError(f"sparsity_rule must be one of {SPARSITY_RULES}, got {sparsity_rule!r}")
    if sparsity_rule == "explicit" and (k_list is None or len(k_list) != len(p_list)):
        raise ParameterError("sparsity_rule='explicit' requires k_list matching p_list in length")
    if sparsity_rule != "explicit" and k_list is not None:
        raise ParameterError(f"k_list is read only by sparsity_rule='explicit', not {sparsity_rule!r}")
    if sparsity_rule == "polynomial" and not 0 < poly_exponent <= 1:
        raise ParameterError(f"poly_exponent must lie in (0, 1], got {poly_exponent!r}")
    if sparsity_rule == "linear" and not 0 < linear_alpha <= 0.5:
        raise ParameterError(f"linear_alpha must lie in (0, 0.5], got {linear_alpha!r}")
    if p_idx is None:
        return None
    p = p_list[p_idx]
    if p < 1:
        raise ParameterError(f"p must be positive, got {p}")
    if sparsity_rule == "polynomial":
        k = math.ceil(p**poly_exponent)
    elif sparsity_rule == "linear":
        k = math.ceil(linear_alpha * p)
    else:
        k = k_list[p_idx]
    if not 1 <= k <= p // 2:
        raise ParameterError(f"derived k={k} outside [1, p/2] for p={p}")
    return k


def _point_for(cfg: SweepConfig, p_idx: int, theta_idx: int) -> GridPoint:
    p = cfg.p_list[p_idx]
    theta = cfg.theta_grid[theta_idx]
    try:
        k = derive_k(cfg.p_list, cfg.sparsity_rule, cfg.poly_exponent, cfg.linear_alpha, cfg.k_list, p_idx)
        n = math.ceil(theta * 2.0 * k * theory._log_gap(p, k))
        if cfg.gamma_rule == "constant":
            gamma, clamped = float(cfg.gamma_value), False
        else:
            gamma, clamped = theory.gamma_schedule(p, k, cfg.gamma_rule)
        lam = float(cfg.lambda_value) if cfg.lambda_rule == "constant" else theory.lambda_schedule(n, p, k)
        spec = ensemble.EnsembleSpec(n=n, p=p, gamma=gamma, convention=cfg.convention)
    except ParameterError as exc:
        raise type(exc)(f"grid point p={p}, theta={theta:g}: {exc}") from exc
    return GridPoint(
        p_idx=p_idx,
        theta_idx=theta_idx,
        p=p,
        theta=theta,
        k=k,
        n=n,
        gamma=gamma,
        gamma_clamped=clamped,
        lam=lam,
        spec=spec,
    )


def grid_points(cfg: SweepConfig) -> list:
    """Resolve and validate every grid point before any trial runs."""
    return [
        _point_for(cfg, p_idx, theta_idx)
        for p_idx in range(len(cfg.p_list))
        for theta_idx in range(len(cfg.theta_grid))
    ]


def trial_seed(base_seed: int, p_idx: int, theta_idx: int, trial_index: int) -> int:
    """Collision-free per-trial seed: indices are packed injectively, then mixed."""
    packed = (p_idx << 48) | (theta_idx << 32) | trial_index
    return rng.derive_key(base_seed, rng.TAG_TRIAL, packed)


def _execute(cfg: SweepConfig, point: GridPoint, trial_index: int) -> TrialRecord:
    t0 = time.perf_counter()
    seed = trial_seed(cfg.base_seed, point.p_idx, point.theta_idx, trial_index)
    m = ensemble.sample_matrix(point.spec, seed)
    w = ensemble.noise_vector(point.n, cfg.sigma2, seed)
    sig = ensemble.SignalSpec(p=point.p, k=point.k, beta_min=cfg.beta_min)

    witness_success = full_success = agreement = None
    dual_ratio = u_ratio = invertible = None
    if cfg.mode in ("witness", "both"):
        rep = witness.build(m, sig, w, point.lam)
        invertible = rep.invertible
        witness_success = bool(rep.success)
        if rep.invertible:
            dual_ratio = (point.lam - rep.margins.dual) / point.lam
            u_ratio = (cfg.beta_min - rep.margins.magnitude) / cfg.beta_min
    if cfg.mode in ("full", "both"):
        beta_star = ensemble.make_signal(sig)
        y = m.to_csr() @ beta_star + w
        sol = lasso.solve(m, y, lasso.LassoConfig(lam=point.lam))
        full_success = bool(
            sol.converged
            and np.array_equal(
                lasso.signed_support(sol.beta_hat, sol.config.zero_tol),
                lasso.signed_support(beta_star, 0.0),
            )
        )
    if cfg.mode == "both":
        agreement = witness_success == full_success

    return TrialRecord(
        p=point.p,
        k=point.k,
        n=point.n,
        theta=point.theta,
        gamma=point.gamma,
        lam=point.lam,
        trial_index=trial_index,
        seed=seed,
        witness_success=witness_success,
        full_success=full_success,
        agreement=agreement,
        dual_ratio=dual_ratio,
        u_ratio=u_ratio,
        invertible=invertible,
        elapsed=time.perf_counter() - t0,
    )


def run_trial(cfg: SweepConfig, p: int, theta: float, trial_index: int) -> TrialRecord:
    """Run one trial at the named grid point, reproducible in isolation."""
    try:
        p_idx = cfg.p_list.index(p)
    except ValueError:
        raise ParameterError(f"p={p} is not in the configured p_list") from None
    try:
        theta_idx = cfg.theta_grid.index(float(theta))
    except ValueError:
        raise ParameterError(f"theta={theta} is not in the configured theta_grid") from None
    if not 0 <= trial_index < cfg.trials:
        raise ParameterError(f"trial_index must lie in [0, {cfg.trials}), got {trial_index}")
    return _execute(cfg, _point_for(cfg, p_idx, theta_idx), trial_index)


def _point_batch(args) -> list:
    cfg, point = args
    return [_execute(cfg, point, t) for t in range(cfg.trials)]


def _aggregate(cfg: SweepConfig, point: GridPoint, records: list) -> SweepRow:
    successes = sum(1 for r in records if r.success)
    row = SweepRow(
        p=point.p,
        k=point.k,
        n=point.n,
        theta=point.theta,
        realized_theta=theory.control_parameter(point.n, point.p, point.k),
        gamma=point.gamma,
        lam=point.lam,
        trials=len(records),
        successes=successes,
        success_rate=successes / len(records),
    )
    if cfg.mode in ("witness", "both"):
        inv = [r for r in records if r.invertible]
        row.invertible_trials = len(inv)
        if inv:
            row.mean_dual_ratio = float(np.mean([r.dual_ratio for r in inv]))
            row.mean_u_ratio = float(np.mean([r.u_ratio for r in inv]))
    if cfg.mode == "both":
        row.full_successes = sum(1 for r in records if r.full_success)
        row.agreements = sum(1 for r in records if r.agreement)
    return row


def run_sweep(cfg: SweepConfig, workers: int = 1) -> SweepTable:
    """Execute the full grid; output is identical for any worker count."""
    if workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")
    points = grid_points(cfg)
    if workers == 1 or len(points) == 1:
        batches = [_point_batch((cfg, pt)) for pt in points]
    else:
        batches = []
        # Fork the workers with every OpenBLAS already on one thread, so
        # their pinned trials never call a setter (see the blas module).
        with blas.single_threaded(), ProcessPoolExecutor(max_workers=min(workers, len(points))) as pool:
            try:
                for batch in pool.map(_point_batch, [(cfg, pt) for pt in points]):
                    batches.append(batch)
            except BrokenProcessPool as exc:
                pt = points[len(batches)]
                raise BrokenProcessPool(f"grid point p={pt.p}, theta={pt.theta:g}: {exc}") from exc

    rows = [_aggregate(cfg, pt, recs) for pt, recs in zip(points, batches)]
    table = SweepTable(config=cfg, rows=rows)
    if cfg.keep_trials:
        table.trial_records = [r for batch in batches for r in batch]
    return table


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.10g" % value


def write_csv(table: SweepTable, fh) -> None:
    fh.write(CSV_HEADER + "\n")
    cfg = table.config
    for r in table.rows:
        cells = (
            _fmt(r.theta),
            _fmt(r.n),
            _fmt(r.p),
            _fmt(r.k),
            _fmt(r.gamma),
            _fmt(r.lam),
            _fmt(cfg.sigma2),
            cfg.mode,
            _fmt(r.trials),
            _fmt(r.successes),
            _fmt(r.success_rate),
            _fmt(cfg.base_seed),
        )
        fh.write(",".join(cells) + "\n")


def read_csv(fh) -> list:
    """Parse a sweep CSV back into per-row dictionaries (floats and ints)."""
    header = fh.readline().rstrip("\n")
    if header != CSV_HEADER:
        raise DataError(f"unexpected sweep CSV header: {header!r}")
    names = header.split(",")
    int_cols = {"n", "p", "k", "trials", "successes", "base_seed"}
    rows = []
    for lineno, line in enumerate(fh, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(names):
            raise DataError(f"line {lineno}: expected {len(names)} cells, got {len(parts)}")
        row = {}
        for name, cell in zip(names, parts):
            if name == "mode":
                row[name] = cell
            elif name in int_cols:
                row[name] = int(cell)
            else:
                row[name] = float(cell)
        rows.append(row)
    return rows


def table_to_dict(table: SweepTable) -> dict:
    out = {
        "config": asdict(table.config),
        "rows": [asdict(r) for r in table.rows],
    }
    if table.trial_records is not None:
        out["trials"] = [asdict(r) for r in table.trial_records]
    return out


def write_json(table: SweepTable, fh, provenance: Optional[dict] = None) -> None:
    """JSON mirror of the table; provenance, when given, records where each parameter came from."""
    out = table_to_dict(table)
    if provenance is not None:
        out["provenance"] = provenance
    dump_json(out, fh)


def dump_json(obj, fh) -> None:
    """The one JSON format of every output: indent 2, sorted keys, arrays as lists, trailing newline."""
    json.dump(obj, fh, indent=2, sort_keys=True, default=lambda o: o.tolist())
    fh.write("\n")


def write_outputs(table: SweepTable, path_csv, path_json=None, provenance: Optional[dict] = None) -> None:
    """Write each file to a temporary sibling, then move all of them into
    place, so a failure or interrupt leaves any earlier outputs intact."""
    jobs = [(path_csv, lambda fh: write_csv(table, fh))]
    if path_json is not None:
        jobs.append((path_json, lambda fh: write_json(table, fh, provenance)))
    staged = []
    try:
        for path, write in jobs:
            tmp = os.fspath(path) + ".tmp"
            try:
                with open(tmp, "w") as fh:
                    staged.append(tmp)
                    write(fh)
            except OSError as exc:
                raise DataError(f"cannot write {path}: {exc}") from exc
        for tmp, (path, _) in zip(staged, jobs):
            os.replace(tmp, path)
    finally:
        for tmp in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp)
