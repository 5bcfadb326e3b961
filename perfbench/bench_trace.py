"""Traced replay of the trial pipeline and the per-layer metrics drawn from it.

The replay calls the library's public functions from outside, in the order
a witness-mode sweep trial does: sample_matrix -> noise_vector ->
witness.build.  Each call runs inside a span; spans of one trial share a
trial id and are kept in memory until the run ends.  The same replay runs
with tracing off to give the tracing overhead.

Layers a witness sweep does not reach (lasso.solve, text serialization, the
CLI gen/witness/solve subcommands) are probed on instances from one grid
point of the workload, so every workload reports every layer.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import tracemalloc

import numpy as np

from sparselasso import ensemble, lasso, rng, sweep, witness

from bench_workloads import Instance, chain_problems, run_chain

MB = 1024.0 * 1024.0

# name -> unit, in the order they are printed.
PER_LAYER_UNITS = {
    "rng.bits_ns_per_word": "ns/word",
    "rng.normals_ns_per_draw": "ns/draw",
    "ensemble.sample_s": "s",
    "ensemble.sample_ms_p50": "ms",
    "ensemble.sample_ms_p99": "ms",
    "ensemble.sample_ns_per_entry": "ns/entry",
    "ensemble.sample_peak_mb": "MB",
    "ensemble.nnz_total": "count",
    "ensemble.noise_s": "s",
    "ensemble.write_matrix_s": "s",
    "ensemble.read_matrix_s": "s",
    "ensemble.matrix_file_mb": "MB",
    "witness.build_s": "s",
    "witness.build_ms_p50": "ms",
    "witness.build_ms_p99": "ms",
    "witness.cpu_wall_ratio": "ratio",
    "witness.noninvertible_ratio": "ratio",
    "lasso.solve_s": "s",
    "lasso.solve_ms_p50": "ms",
    "lasso.solve_ms_p99": "ms",
    "lasso.iterations_total": "count",
    "lasso.coord_visits": "count",
    "lasso.nonconverged_ratio": "ratio",
    "trial.self_s": "s",
    "sweep.grid_s": "s",
    "sweep.parallel_efficiency": "ratio",
    "sweep.write_csv_ms": "ms",
    "sweep.write_json_ms": "ms",
    "sweep.json_mb": "MB",
    "cli.gen_s": "s",
    "cli.witness_s": "s",
    "cli.solve_s": "s",
    "trace_overhead_ratio": "ratio",
}


class Tracer:
    """Spans in memory: name, trial id, parent, start, end, process CPU, attributes."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trial: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        rec = {"id": len(self.spans), "name": name, "trial": trial, "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        c0 = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu"] = time.process_time() - c0
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_times(self) -> dict:
        """Span duration minus the part its child spans cover, summed per name."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        out = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"] - child.get(s["id"], 0.0)
        return out


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def replay_sweep(inst: Instance, tracer: Tracer) -> dict:
    """Every trial of the sweep, as sweep._execute runs it in witness mode; successes per point."""
    cfg = inst.cfg
    successes = {}
    for pt in inst.points:
        sig = ensemble.SignalSpec(p=pt.p, k=pt.k, beta_min=cfg.beta_min)
        successes[(pt.p, pt.theta)] = 0
        for t in range(cfg.trials):
            tid = f"{pt.p_idx}.{pt.theta_idx}.{t}"
            with tracer.span("trial", tid):
                seed = sweep.trial_seed(cfg.base_seed, pt.p_idx, pt.theta_idx, t)
                with tracer.span("ensemble.sample", tid, n=pt.n, p=pt.p) as s:
                    m = ensemble.sample_matrix(pt.spec, seed)
                    s["nnz"] = m.nnz
                with tracer.span("ensemble.noise", tid):
                    w = ensemble.noise_vector(pt.n, cfg.sigma2, seed)
                with tracer.span("witness.build", tid) as s:
                    rep = witness.build(m, sig, w, pt.lam)
                    s["invertible"] = rep.invertible
            successes[(pt.p, pt.theta)] += bool(rep.invertible and rep.success)
    return successes


def _timed(fn, *args, repeat: int = 1):
    """Median wall time of fn(*args) over `repeat` calls, and the last result."""
    times, result = [], None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def rng_probe(words: int, draws: int) -> dict:
    """bits_at over `words` counters and normals_at over `draws`, in 2^20 chunks."""
    chunk = 1 << 20
    key = rng.derive_key(12345, rng.TAG_PATTERN)
    out = {}
    for name, fn, total in (("bits", rng.bits_at, words), ("normals", rng.normals_at, draws)):
        spent = 0.0
        for lo in range(0, total, chunk):
            counters = np.arange(lo, min(lo + chunk, total), dtype=np.uint64)
            t0 = time.perf_counter()
            fn(key, counters)
            spent += time.perf_counter() - t0
        out[name] = spent * 1e9 / total
    return out


def layer_stats(tracer: Tracer, per: float) -> dict:
    """Metrics of the sample/noise/witness spans, sums divided by `per` replays."""
    m = {}
    sample = tracer.named("ensemble.sample")
    durs = [s["end"] - s["start"] for s in sample]
    m["ensemble.sample_s"] = sum(durs) / per
    m["ensemble.sample_ms_p50"] = _pct(durs, 50) * 1e3
    m["ensemble.sample_ms_p99"] = _pct(durs, 99) * 1e3
    m["ensemble.sample_ns_per_entry"] = sum(durs) * 1e9 / sum(s["n"] * s["p"] for s in sample)
    m["ensemble.nnz_total"] = sum(s["nnz"] for s in sample) / per
    m["ensemble.noise_s"] = sum(s["end"] - s["start"] for s in tracer.named("ensemble.noise")) / per
    build = tracer.named("witness.build")
    bd = [s["end"] - s["start"] for s in build]
    m["witness.build_s"] = sum(bd) / per
    m["witness.build_ms_p50"] = _pct(bd, 50) * 1e3
    m["witness.build_ms_p99"] = _pct(bd, 99) * 1e3
    m["witness.cpu_wall_ratio"] = sum(s["cpu"] for s in build) / sum(bd)
    m["witness.noninvertible_ratio"] = sum(not s["invertible"] for s in build) / len(build)
    m["trial.self_s"] = tracer.self_times().get("trial", 0.0) / per
    return m


def solver_stats(tracer: Tracer) -> dict:
    """Metrics of the lasso.solve spans (the solver probe)."""
    solves = tracer.named("lasso.solve")
    sd = [s["end"] - s["start"] for s in solves]
    return {
        "lasso.solve_s": sum(sd),
        "lasso.solve_ms_p50": _pct(sd, 50) * 1e3,
        "lasso.solve_ms_p99": _pct(sd, 99) * 1e3,
        "lasso.iterations_total": sum(s["iterations"] for s in solves),
        "lasso.coord_visits": sum(s["iterations"] * s["p"] for s in solves),
        "lasso.nonconverged_ratio": sum(not s["converged"] for s in solves) / len(solves),
    }


def probe_point(inst: Instance) -> sweep.GridPoint:
    """Smallest p at the theta nearest 1: where probes of unreached layers run."""
    p0 = inst.points[0].p
    return min((pt for pt in inst.points if pt.p == p0), key=lambda pt: abs(pt.theta - 1.0))


def trace_pass(inst: Instance, seconds: float, problems: list) -> tuple[dict, dict, list]:
    """Per-layer metrics of one workload; returns (metrics, counts, spans).

    counts holds "attempted" and "failed" operations; problems collects
    descriptions of what failed.
    """
    wl, cfg = inst.wl, inst.cfg
    counts = {"attempted": 0, "failed": 0}
    metrics = {}

    grid_s, _ = _timed(sweep.grid_points, cfg, repeat=50)
    metrics["sweep.grid_s"] = grid_s

    # The program's own operation, untraced: wall time and output check.  It
    # runs three times, so that its median is not the cold first call.
    op_walls, op_out = [], None
    for _ in range(3):
        t0 = time.perf_counter()
        op_out = inst.run()
        op_walls.append(time.perf_counter() - t0)
        found = inst.check(op_out)
        problems += found
        counts["attempted"] += inst.trials_per_op
        counts["failed"] += inst.failed_ops(found)
    op_wall = statistics.median(op_walls)
    want = {(r.p, r.theta): r.successes for r in op_out.rows}

    # Replays, untraced then traced, until the time is spent.
    tracer = Tracer()
    plain_s = traced_s = 0.0
    replays = 0
    started = time.perf_counter()
    while replays == 0 or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        got_plain = replay_sweep(inst, Tracer(enabled=False))
        t1 = time.perf_counter()
        got = replay_sweep(inst, tracer)
        traced_s += time.perf_counter() - t1
        plain_s += t1 - t0
        replays += 1
        for key, want_k in want.items():
            counts["attempted"] += cfg.trials
            if got.get(key) != want_k or got_plain.get(key) != want_k:
                counts["failed"] += cfg.trials
                problems.append(f"replay at {key}: {got.get(key)} differs from the program's {want_k}")
    metrics["trace_overhead_ratio"] = traced_s / plain_s
    metrics.update(layer_stats(tracer, replays))
    busy = sum(s["end"] - s["start"] for s in tracer.named("trial")) / replays
    metrics["sweep.parallel_efficiency"] = busy / (wl.workers * op_wall)

    largest = max(inst.points, key=lambda pt: pt.n * pt.p)
    tracemalloc.start()
    try:
        ensemble.sample_matrix(largest.spec, 1)
        metrics["ensemble.sample_peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()
    sample = tracer.named("ensemble.sample")
    per_rng = rng_probe(sum(s["n"] * s["p"] for s in sample) // replays, sum(s["nnz"] for s in sample) // replays)
    metrics["rng.bits_ns_per_word"] = per_rng["bits"]
    metrics["rng.normals_ns_per_draw"] = per_rng["normals"]

    # Layers the sweep does not reach, probed at one grid point.
    pt = probe_point(inst)
    chain = inst.make_chain(pt, 0)
    metrics.update(serialization_probe(chain.matrix, inst.workdir / "probe_matrix.txt", problems))
    cli_times: dict = {}
    found = chain_problems(chain, run_chain(chain, inst.workdir, cli_times))
    problems += found
    counts["attempted"] += 3
    counts["failed"] += min(len(found), 3)
    for name in ("gen", "witness", "solve"):
        metrics[f"cli.{name}_s"] = cli_times.get(name, [0.0])[0]  # 0 when an earlier command failed
    probe = Tracer()
    for t in range(3):
        c = chain if t == 0 else inst.make_chain(pt, t)
        with probe.span("lasso.solve", f"probe.{t}", p=pt.p) as s:
            sol = lasso.solve(c.matrix, c.obs.y, lasso.LassoConfig(lam=pt.lam))
            s.update(iterations=sol.iterations, converged=sol.converged)
    metrics.update(solver_stats(probe))
    metrics.update(output_probe(op_out, inst.workdir))
    return metrics, counts, tracer.spans + probe.spans


def serialization_probe(m: ensemble.SparseMeasurementMatrix, path, problems: list) -> dict:
    """write_matrix and read_matrix of one matrix through a file, median of three.

    read_matrix must return the matrix bit for bit.
    """

    def write():
        with open(path, "w") as fh:
            ensemble.write_matrix(m, fh)

    def read():
        with open(path) as fh:
            return ensemble.read_matrix(fh)

    write_s = _timed(write, repeat=3)[0]
    read_s, back = _timed(read, repeat=3)
    same = (
        back.spec == m.spec
        and np.array_equal(back.indptr, m.indptr)
        and np.array_equal(back.indices, m.indices)
        and np.array_equal(back.values.view(np.uint64), m.values.view(np.uint64))
    )
    if not same:
        problems.append("read_matrix does not return the written matrix bit for bit")
    return {
        "ensemble.write_matrix_s": write_s,
        "ensemble.read_matrix_s": read_s,
        "ensemble.matrix_file_mb": path.stat().st_size / MB,
    }


def output_probe(table: sweep.SweepTable, workdir) -> dict:
    """sweep.write_csv and sweep.write_json of one table to files, median of five."""
    csv_path, json_path = workdir / "probe.csv", workdir / "probe.json"

    def write_csv():
        with open(csv_path, "w") as fh:
            sweep.write_csv(table, fh)

    def write_json():
        with open(json_path, "w") as fh:
            sweep.write_json(table, fh)

    return {
        "sweep.write_csv_ms": _timed(write_csv, repeat=5)[0] * 1e3,
        "sweep.write_json_ms": _timed(write_json, repeat=5)[0] * 1e3,
        "sweep.json_mb": json_path.stat().st_size / MB,
    }
