"""Workloads of the sparselasso benchmark and the operations they repeat.

Each workload is a closed loop with one client: it runs one sweep and
starts the next only when the previous one has finished.  The program
receives only inputs generated from the workload seed.

Every operation's output is checked.  Inputs depend on the seed modulo
REFERENCE_SEEDS, so that each run can be compared with a digest recorded
from the seed commit in reference.json.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sparselasso import ensemble, lasso, sweep, witness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEEDS = 100

THETA_GRID = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)


@dataclass(frozen=True)
class Workload:
    """A grid (SweepConfig fields other than base_seed) swept with `workers` processes."""

    name: str
    workers: int
    grid: dict


# Why each workload exists:
# * witness_poly: criterion-1 grid in witness mode; about 90 % of its time
#   is pattern hashing and ndtri in ensemble.sample_matrix, so a sampler
#   change shows here and a solver change shows nothing.
# * witness_linear_par: criterion-2 grid at workers=2 (= nproc); the 128x128
#   support Gram and Cholesky give witness.build its largest share and expose
#   BLAS oversubscription; n runs from 70 to 3481, which exposes per-point
#   load imbalance in the process pool.
WORKLOADS = {
    "witness_poly": Workload(
        "witness_poly", 1,
        dict(p_list=(512, 1024, 2048), theta_grid=THETA_GRID, trials=1, sparsity_rule="polynomial", mode="witness"),
    ),
    "witness_linear_par": Workload(
        "witness_linear_par", 2,
        dict(p_list=(256, 512, 1024), theta_grid=THETA_GRID, trials=1, sparsity_rule="linear", linear_alpha=0.125, mode="witness"),
    ),
}

# Same kinds at tiny sizes, for the smoke mode.
TINY_WORKLOADS = {
    "witness_poly": dataclasses.replace(WORKLOADS["witness_poly"], grid=dict(WORKLOADS["witness_poly"].grid, p_list=(64, 128), theta_grid=(0.6, 1.4))),
    "witness_linear_par": dataclasses.replace(WORKLOADS["witness_linear_par"], grid=dict(WORKLOADS["witness_linear_par"].grid, p_list=(64, 96), theta_grid=(0.6, 1.4))),
}


def child_env() -> dict:
    """Environment for child interpreters: the package from src/, nothing else changed."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) if not path else f"{SRC}{os.pathsep}{path}")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_bytes(table: sweep.SweepTable) -> bytes:
    buf = io.StringIO()
    sweep.write_csv(table, buf)
    return buf.getvalue().encode()


def record_fields(rec: sweep.TrialRecord) -> dict:
    """Trial record fields that are a function of the seeds (wall time dropped)."""
    out = dataclasses.asdict(rec)
    out.pop("elapsed")
    return out


@dataclass
class Chain:
    """Inputs of one gen -> witness -> solve chain of CLI commands and the library's verdicts."""

    spec: ensemble.EnsembleSpec
    signal: ensemble.SignalSpec
    seed: int
    lam: float
    sigma2: float
    matrix: ensemble.SparseMeasurementMatrix
    obs: ensemble.ObservationSet
    verdict: dict


def witness_verdict(report) -> dict:
    return {
        "invertible": bool(report["invertible"]),
        "success": bool(report["success"]),
        "event_v": report["event_v"],
        "event_u": report["event_u"],
        "sign_consistent": report["sign_consistent"],
    }


def solve_verdict(beta_hat, converged: bool) -> dict:
    support = lasso.signed_support(np.asarray(beta_hat, dtype=np.float64))
    return {"converged": bool(converged), "support_sha256": digest(support.tobytes())}


def chain_problems(c: Chain, results: dict) -> list:
    """Commands that failed, and CLI verdicts that differ from the library's."""
    problems = [f"{name} exited {proc.returncode}: {proc.stderr.strip()[-200:]}" for name, proc in results.items() if proc.returncode != 0]
    problems += [f"{name} not run" for name in ("gen", "witness", "solve") if name not in results]
    if problems:
        return problems
    try:
        solved = json.loads(results["solve"].stdout)
        verdict = {
            "witness": witness_verdict(json.loads(results["witness"].stdout)),
            "solve": solve_verdict(solved["beta_hat"], solved["converged"]),
        }
    except (ValueError, KeyError) as exc:
        return [f"unreadable CLI output: {exc}"]
    return [f"{name} verdict differs from the library call" for name in ("witness", "solve") if verdict[name] != c.verdict[name]]


def run_chain(c: Chain, workdir: Path, timings: dict) -> dict:
    """gen -> witness -> solve as child processes on files in workdir; stops at the first failure.

    Appends each command's wall time to timings[name].
    """
    with open(workdir / "y.txt", "w") as fh:
        fh.writelines(f"{float(v)!r}\n" for v in c.obs.y)
    commands = {
        "gen": ["gen", "--n", str(c.spec.n), "--p", str(c.spec.p), "--gamma", repr(c.spec.gamma),
                "--convention", c.spec.convention, "--seed", str(c.seed), "--out", "matrix.txt"],
        "witness": ["witness", "--matrix", "matrix.txt", "--k", str(c.signal.k), "--lam", repr(c.lam),
                    "--sigma2", repr(c.sigma2), "--noise-seed", str(c.seed)],
        "solve": ["solve", "--matrix", "matrix.txt", "--y", "y.txt", "--lam", repr(c.lam)],
    }
    env = child_env()
    results = {}
    for name, args in commands.items():
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "sparselasso.cli", *args],
            cwd=workdir, env=env, capture_output=True, text=True,
        )
        timings.setdefault(name, []).append(time.perf_counter() - t0)
        results[name] = proc
        if proc.returncode != 0:
            break
    return results


class Instance:
    """A workload resolved at one seed: config, reference digest, operations."""

    def __init__(self, wl: Workload, seed: int, workdir: Path, tiny: bool = False):
        self.wl = wl
        self.tiny = tiny
        self.base_seed = seed % REFERENCE_SEEDS
        self.cfg = sweep.SweepConfig(base_seed=self.base_seed, **wl.grid)
        self.workdir = workdir
        self.points = sweep.grid_points(self.cfg)
        self.trials_per_op = len(self.points) * self.cfg.trials
        self._expected = None

    def expected(self) -> str:
        if self._expected is None:
            refs = json.loads(REFERENCE_FILE.read_text())
            self._expected = refs["tiny" if self.tiny else "full"][self.wl.name][self.base_seed]
        return self._expected

    def compute_reference(self) -> str:
        """The CSV digest the library gives for this instance (workers=1)."""
        return digest(csv_bytes(sweep.run_sweep(self.cfg)))

    def make_chain(self, pt: sweep.GridPoint, j: int) -> Chain:
        """Inputs of chain j at grid point pt and the verdicts the library gives on them."""
        s = sweep.trial_seed(self.base_seed, pt.p_idx, pt.theta_idx, j)
        sig = ensemble.SignalSpec(p=pt.p, k=pt.k, beta_min=self.cfg.beta_min)
        m = ensemble.sample_matrix(pt.spec, s)
        obs = ensemble.observe(m, ensemble.make_signal(sig), self.cfg.sigma2, s)
        rep = witness.build(m, sig, obs.w, pt.lam)
        sol = lasso.solve(m, obs.y, lasso.LassoConfig(lam=pt.lam))
        verdict = {
            "witness": witness_verdict(dataclasses.asdict(rep)),
            "solve": solve_verdict(sol.beta_hat, sol.converged),
        }
        return Chain(pt.spec, sig, s, pt.lam, self.cfg.sigma2, m, obs, verdict)

    def run(self) -> sweep.SweepTable:
        """One operation of the closed loop; only this part is timed."""
        return sweep.run_sweep(self.cfg, workers=self.wl.workers)

    def check(self, table: sweep.SweepTable) -> list:
        """Problems with one operation's output; empty when correct."""
        got = digest(csv_bytes(table))
        return [] if got == self.expected() else [f"sweep CSV digest {got[:12]} differs from reference"]

    def failed_ops(self, problems: list) -> int:
        """Failed trials implied by the problems found in one operation."""
        return self.trials_per_op if problems else 0

    def rerun_problems(self) -> list:
        """One operation that keeps its trial records; a few trials rerun alone
        through sweep.run_trial must match them."""
        table = sweep.run_sweep(dataclasses.replace(self.cfg, keep_trials=True))
        records = table.trial_records
        problems = self.check(table)
        if len(records) != self.trials_per_op:
            return problems + [f"{len(records)} trial records, expected {self.trials_per_op}"]
        cfg, first, last = self.cfg, self.points[0], self.points[-1]
        probes = [(first, 0), (self.points[len(self.points) // 2], cfg.trials // 2), (last, cfg.trials - 1)]
        for pt, t in probes:
            alone = record_fields(sweep.run_trial(cfg, pt.p, pt.theta, t))
            idx = (pt.p_idx * len(cfg.theta_grid) + pt.theta_idx) * cfg.trials + t
            if record_fields(records[idx]) != alone:
                problems.append(f"trial p={pt.p} theta={pt.theta} #{t} rerun alone differs from the sweep record")
        return problems
