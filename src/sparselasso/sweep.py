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
import os
import pickle
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
import scipy

from . import blas, ensemble, lasso, rng, theory, witness
from .errors import CapacityError, DataError, ParameterError, distinct, finite, integer, non_negative, one_of, positive, read_only_by, unit_interval

SPARSITY_RULES = ("polynomial", "linear", "explicit")
GAMMA_RULES = ("constant",) + theory.GAMMA_RULES
LAMBDA_RULES = ("scaled", "constant")
MODES = ("witness", "full", "both")

# The sweep CSV, one entry per column: (header name, cell of a row and its config).
_CSV_COLUMNS = (
    ("theta", lambda r, cfg: r.theta),
    ("n", lambda r, cfg: r.n),
    ("p", lambda r, cfg: r.p),
    ("k", lambda r, cfg: r.k),
    ("gamma", lambda r, cfg: r.gamma),
    ("lambda", lambda r, cfg: r.lam),
    ("sigma2", lambda r, cfg: cfg.sigma2),
    ("mode", lambda r, cfg: cfg.mode),
    ("trials", lambda r, cfg: r.trials),
    ("successes", lambda r, cfg: r.successes),
    ("success_rate", lambda r, cfg: r.success_rate),
    ("base_seed", lambda r, cfg: cfg.base_seed),
)
CSV_HEADER = ",".join(name for name, _ in _CSV_COLUMNS)


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
        object.__setattr__(self, "p_list", tuple(integer("p_list", p) for p in self.p_list))
        object.__setattr__(self, "theta_grid", tuple(positive("theta_grid", t) for t in self.theta_grid))
        if self.k_list is not None:
            object.__setattr__(self, "k_list", tuple(integer("k_list", k) for k in self.k_list))
        object.__setattr__(self, "trials", integer("trials", self.trials, 1))
        object.__setattr__(self, "base_seed", integer("base_seed", self.base_seed))
        if not self.theta_grid:
            raise ParameterError("theta_grid must be non-empty")
        distinct("theta_grid", self.theta_grid)
        if len(self.p_list) > 2**16 or len(self.theta_grid) > 2**16:
            raise CapacityError("at most 2^16 p values and 2^16 theta values per sweep")
        non_negative("sigma2", self.sigma2)
        positive("beta_min", self.beta_min)
        if self.trials > 2**32:
            raise CapacityError("at most 2^32 trials per grid point")
        if not 0 <= self.base_seed < 2**64:
            raise ParameterError(f"base_seed must be a 64-bit unsigned integer, got {self.base_seed}")
        derive_k(self.p_list, self.sparsity_rule, self.poly_exponent, self.linear_alpha, self.k_list)
        one_of("gamma_rule", self.gamma_rule, GAMMA_RULES)
        if self.gamma_value is not None:
            unit_interval("gamma_value", self.gamma_value)
        read_only_by("gamma_value", self.gamma_value, "gamma_rule", self.gamma_rule, "constant")
        one_of("lambda_rule", self.lambda_rule, LAMBDA_RULES)
        if self.lambda_value is not None:
            positive("lambda_value", self.lambda_value)
        read_only_by("lambda_value", self.lambda_value, "lambda_rule", self.lambda_rule, "constant")
        one_of("mode", self.mode, MODES)
        one_of("convention", self.convention, ensemble.CONVENTIONS)


@dataclass(frozen=True)
class GridPoint:
    p_idx: int
    theta_idx: int
    p: int
    theta: float
    k: int
    n: int
    gamma: float
    lam: float
    spec: ensemble.EnsembleSpec


@dataclass(kw_only=True)
class TrialRecord:
    p: int
    k: int
    n: int
    theta: float
    gamma: float
    lam: float
    trial_index: int
    seed: int
    witness_success: Optional[bool] = None
    full_success: Optional[bool] = None
    agreement: Optional[bool] = None
    dual_ratio: Optional[float] = None
    u_ratio: Optional[float] = None
    invertible: Optional[bool] = None
    converged: Optional[bool] = None
    elapsed: float

    @property
    def success(self) -> bool:
        if self.witness_success is not None:
            return self.witness_success
        return bool(self.full_success)


@dataclass(kw_only=True)
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
    nonconverged: Optional[int] = None


@dataclass
class SweepTable:
    config: SweepConfig
    rows: list
    trial_records: Optional[list] = None


def derive_k(p_list, sparsity_rule, poly_exponent, linear_alpha, k_list, p_idx=None):
    """The sparsity rule: checks its parameters against p_list and, given
    p_idx, returns the k of p_list[p_idx], which must lie in [1, p/2].

    Sweeps and the tabulated recovery conditions both resolve k here, so
    theory and simulation are evaluated at the same (p, k) points.
    """
    if not p_list:
        raise ParameterError("p_list must be non-empty")
    distinct("p_list", p_list)
    one_of("sparsity_rule", sparsity_rule, SPARSITY_RULES)
    read_only_by("k_list", k_list, "sparsity_rule", sparsity_rule, "explicit")
    if k_list is not None and len(k_list) != len(p_list):
        raise ParameterError(f"k_list must match p_list in length, got {len(k_list)} and {len(p_list)}")
    finite("poly_exponent", poly_exponent)  # under every rule: the JSON mirror records both
    finite("linear_alpha", linear_alpha)
    if sparsity_rule == "polynomial":
        unit_interval("poly_exponent", poly_exponent)
    if sparsity_rule == "linear" and not 0 < linear_alpha <= 0.5:
        raise ParameterError(f"linear_alpha must lie in (0, 0.5], got {linear_alpha!r}")
    if p_idx is None:
        return None
    p = integer("p", p_list[p_idx], 1)
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
        n = theory.sample_size(theta, p, k)
        if cfg.gamma_rule == "constant":
            gamma = float(cfg.gamma_value)
        else:
            gamma = theory.gamma_schedule(p, k, cfg.gamma_rule)
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


def _coords(point: GridPoint) -> dict:
    """The grid coordinates that each trial record and row of a point repeats."""
    return dict(p=point.p, k=point.k, n=point.n, theta=point.theta, gamma=point.gamma, lam=point.lam)


def _execute(cfg: SweepConfig, point: GridPoint, trial_index: int) -> TrialRecord:
    t0 = time.perf_counter()
    seed = trial_seed(cfg.base_seed, point.p_idx, point.theta_idx, trial_index)
    # The witness alone never needs the whole matrix: build_sampled draws it
    # column range by column range.
    m = None if cfg.mode == "witness" else ensemble.sample_matrix(point.spec, seed)
    w = ensemble.noise_vector(point.n, cfg.sigma2, seed)
    sig = ensemble.SignalSpec(p=point.p, k=point.k, beta_min=cfg.beta_min)

    out = {}  # the outcomes this mode computes; the record's others stay None
    if cfg.mode in ("witness", "both"):
        if m is None:
            rep = witness.build_sampled(point.spec, seed, sig, w, point.lam)
        else:
            rep = witness.build(m, sig, w, point.lam)
        out["invertible"] = rep.invertible
        out["witness_success"] = bool(rep.success)
        if rep.invertible:
            out["dual_ratio"] = (point.lam - rep.margins.dual) / point.lam
            out["u_ratio"] = (cfg.beta_min - rep.margins.magnitude) / cfg.beta_min
    if cfg.mode in ("full", "both"):
        beta_star = ensemble.make_signal(sig)
        sol = lasso.solve(m, ensemble.matvec(m, beta_star) + w, lasso.LassoConfig(lam=point.lam))
        out["converged"] = bool(sol.converged)
        out["full_success"] = out["converged"] and np.array_equal(
            lasso.signed_support(sol.beta_hat), lasso.signed_support(beta_star, 0.0)
        )
    if cfg.mode == "both":
        out["agreement"] = out["witness_success"] == out["full_success"]
    return TrialRecord(**_coords(point), trial_index=trial_index, seed=seed, **out, elapsed=time.perf_counter() - t0)


def run_trial(cfg: SweepConfig, p: int, theta: float, trial_index: int) -> TrialRecord:
    """Run one trial at the named grid point, reproducible in isolation."""
    p = integer("p", p)
    if p not in cfg.p_list:
        raise ParameterError(f"p={p} is not in the configured p_list")
    theta = positive("theta", theta)
    if theta not in cfg.theta_grid:
        raise ParameterError(f"theta={theta} is not in the configured theta_grid")
    trial_index = integer("trial_index", trial_index, 0)
    if trial_index >= cfg.trials:
        raise ParameterError(f"trial_index must lie in [0, {cfg.trials}), got {trial_index}")
    return _execute(cfg, _point_for(cfg, cfg.p_list.index(p), cfg.theta_grid.index(theta)), trial_index)


def _point_batch(cfg: SweepConfig, point: GridPoint) -> list:
    return [_execute(cfg, point, t) for t in range(cfg.trials)]


def _aggregate(cfg: SweepConfig, point: GridPoint, records: list) -> SweepRow:
    successes = sum(1 for r in records if r.success)
    out = {}  # the counts this mode computes; the row's others stay None
    if cfg.mode in ("witness", "both"):
        inv = [r for r in records if r.invertible]
        out["invertible_trials"] = len(inv)
        if inv:
            out["mean_dual_ratio"] = float(np.mean([r.dual_ratio for r in inv]))
            out["mean_u_ratio"] = float(np.mean([r.u_ratio for r in inv]))
    if cfg.mode in ("full", "both"):
        out["nonconverged"] = sum(1 for r in records if not r.converged)
    if cfg.mode == "both":
        out["full_successes"] = sum(1 for r in records if r.full_success)
        out["agreements"] = sum(1 for r in records if r.agreement)
    return SweepRow(
        **_coords(point),
        realized_theta=theory.control_parameter(point.n, point.p, point.k),
        trials=len(records),
        successes=successes,
        success_rate=successes / len(records),
        **out,
    )


def _claim_points(cfg: SweepConfig, points: list, order: list, claimed, slots, slot: int, conn) -> None:
    """Worker body: claim the next point of `order` from the shared counter,
    record its index in slots[slot] and run its trials, until none is left.
    Then send one message over conn: (list of (point index, batch), None)
    when every trial ran, or (exception, traceback text) for the first
    trial that raised.  An exception that does not survive pickling is
    sent as a RuntimeError naming its type and message."""
    done = []
    try:
        while True:
            with claimed.get_lock():
                i = claimed.value
                claimed.value += 1
            if i >= len(order):
                break
            slots[slot] = order[i]
            done.append((order[i], _point_batch(cfg, points[order[i]])))
    except Exception as exc:
        trace = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__qualname__}: {exc}")
        conn.send((exc, trace))
    else:
        conn.send((done, None))
    finally:
        conn.close()


def _run_forked(cfg: SweepConfig, points: list, workers: int) -> list:
    """Every point's batch, in grid order, computed by min(workers, len(points))
    forked processes that claim the points largest first."""
    import multiprocessing.connection
    from concurrent.futures.process import BrokenProcessPool

    # Fork on Linux whatever the caller's start method: a spawned worker
    # would re-import numpy and scipy and start with unpinned OpenBLAS pools.
    ctx = multiprocessing.get_context("fork" if sys.platform.startswith("linux") else None)
    # Largest n*p first, so that no large point starts last and leaves one
    # worker running alone at the end (longest-processing-time-first).
    order = sorted(range(len(points)), key=lambda i: -points[i].n * points[i].p)
    claimed = ctx.Value("q", 0)
    slots = ctx.RawArray("q", [-1] * min(workers, len(points)))
    procs, conns = [], {}
    batches = [None] * len(points)
    try:
        # Each pipe's write end is closed here before the next worker forks,
        # so a dead worker's pipe reads as end-of-file.
        for slot in range(len(slots)):
            reader, writer = ctx.Pipe(duplex=False)
            conns[reader] = slot
            with writer:
                proc = ctx.Process(target=_claim_points, args=(cfg, points, order, claimed, slots, slot, writer))
                proc.start()
            procs.append(proc)
        while conns:
            for reader in multiprocessing.connection.wait(list(conns)):
                slot = conns.pop(reader)
                try:
                    done, trace = reader.recv()
                except EOFError:
                    procs[slot].join()
                    where = "before claiming a grid point"
                    if slots[slot] >= 0:
                        pt = points[slots[slot]]
                        where = f"grid point p={pt.p}, theta={pt.theta:g}"
                    raise BrokenProcessPool(f"{where}: worker exited with code {procs[slot].exitcode}") from None
                finally:
                    reader.close()
                if trace is not None:
                    raise done from RuntimeError(f"raised in a sweep worker:\n{trace}")
                for idx, batch in done:
                    batches[idx] = batch
                procs[slot].join()
    finally:
        for reader in conns:
            reader.close()
        for proc in procs:
            if proc.is_alive():
                proc.kill()
            proc.join()
            proc.close()
    return batches


def run_sweep(cfg: SweepConfig, workers: int = 1) -> SweepTable:
    """Execute the full grid; output is identical for any worker count.

    With more than one worker and grid point, min(workers, points) forked
    processes run the points, largest n*p first.  A trial's exception is
    re-raised here with its own type, and a worker that dies raises
    BrokenProcessPool naming the grid point it was running.
    """
    workers = integer("workers", workers, 1)
    points = grid_points(cfg)
    if workers == 1 or len(points) == 1:
        batches = [_point_batch(cfg, pt) for pt in points]
    else:
        # Fork the workers with every OpenBLAS already on one thread, so
        # their pinned trials never call a setter (see the blas module).
        with blas.single_threaded():
            batches = _run_forked(cfg, points, workers)

    rows = [_aggregate(cfg, pt, recs) for pt, recs in zip(points, batches)]
    table = SweepTable(config=cfg, rows=rows)
    if cfg.keep_trials:
        table.trial_records = [r for batch in batches for r in batch]
    return table


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.10g" % value


def write_csv(table: SweepTable, fh) -> None:
    fh.write(CSV_HEADER + "\n")
    for r in table.rows:
        fh.write(",".join(_fmt(cell(r, table.config)) for _, cell in _CSV_COLUMNS) + "\n")


def table_to_dict(table: SweepTable) -> dict:
    out = {
        "config": asdict(table.config),
        "rows": [asdict(r) for r in table.rows],
    }
    if table.trial_records is not None:
        out["trials"] = [asdict(r) for r in table.trial_records]
    return out


def write_json(table: SweepTable, fh, provenance: Optional[dict] = None) -> None:
    """JSON mirror of the table; provenance, when given, records where each
    parameter came from.  `libraries` names what the floats depend on beyond
    the seeds: numpy's and scipy's versions and each loaded OpenBLAS's kernel."""
    out = table_to_dict(table)
    out["libraries"] = {"numpy": np.__version__, "scipy": scipy.__version__, "openblas_cores": list(blas.core_names())}
    if provenance is not None:
        out["provenance"] = provenance
    dump_json(out, fh)


def dump_json(obj, fh) -> None:
    """The one JSON format of every output: indent 2, sorted keys, arrays as lists, trailing newline."""
    json.dump(obj, fh, indent=2, sort_keys=True, default=lambda o: o.tolist())
    fh.write("\n")


def check_outputs(paths) -> None:
    """Raise ParameterError when an output path not None is empty, or two
    name the same file, so that one output would replace the other, and
    DataError when one's directory is missing or not a directory, or when
    it names an existing directory, which no file can replace."""
    seen = {}
    for path in (p for p in paths if p is not None):
        if path == "":
            raise ParameterError("output paths must not be empty")
        real = os.path.realpath(path)
        if real in seen:
            raise ParameterError(f"output paths {seen[real]} and {path} name the same file")
        seen[real] = path
    for path in seen.values():
        head = os.path.dirname(path) or os.curdir
        if not os.path.isdir(head):
            raise DataError(f"cannot write {path}: no directory {head}")
        if os.path.isdir(path):
            raise DataError(f"cannot write {path}: is a directory")


def _create_staging(head: str, tail: str):
    """(fd, path) of a new file `.<stem>.<random>.tmp` in directory head,
    opened for writing with mode 0o666 less the umask, as open() applies it.
    The stem is tail's first 50 characters, at most 200 bytes, so the name
    stays within the 255 bytes a file name may have however long tail is."""
    for _ in range(100):
        tmp = os.path.join(head, f".{tail[:50]}.{os.urandom(6).hex()}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue
    raise FileExistsError(f"no free staging name for {tail} in {head}")


def write_files(jobs) -> None:
    """Write each (path, write) job to a fresh temporary file in the
    path's directory through write(fh), then move all of them into place,
    so a failure or interrupt leaves any earlier outputs intact and no
    partial file, and no existing file is staged over.  Outputs get the
    mode a plain open() would give them, 0o666 less the umask, which the
    kernel applies at creation; the process umask is never changed.
    Paths naming the same file or an existing directory are rejected
    before anything is staged (check_outputs)."""
    check_outputs([path for path, _ in jobs])
    staged = []
    try:
        for path, write in jobs:
            head, tail = os.path.split(os.fspath(path))
            try:
                fd, tmp = _create_staging(head or os.curdir, tail)
                staged.append(tmp)
                with open(fd, "w") as fh:
                    write(fh)
            except OSError as exc:
                raise DataError(f"cannot write {path}: {exc}") from exc
        for tmp, (path, _) in zip(staged, jobs):
            os.replace(tmp, path)
    finally:
        for tmp in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def write_outputs(table: SweepTable, path_csv, path_json=None, provenance: Optional[dict] = None) -> None:
    """The sweep CSV and, when path_json is given, its JSON mirror, written together by write_files."""
    jobs = [(path_csv, lambda fh: write_csv(table, fh))]
    if path_json is not None:
        jobs.append((path_json, lambda fh: write_json(table, fh, provenance)))
    write_files(jobs)
