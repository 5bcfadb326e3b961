"""sparselasso benchmark: closed-loop phase-transition sweeps, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-references [--workload NAME]

The package is imported from src/ next to this directory; nothing is
installed.  --trace 0 runs the workload's operation in a closed loop for S
seconds and reports the end-to-end metrics; --trace 1 reports per-layer
metrics from a traced replay of the same trials.  Every metric is printed by
name with its unit, then the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The environment, the
full result and the spans are written under .bench_build/perfbench/.

BLAS thread variables are recorded, never set: the default is what users
run, and oversubscription is a defect this benchmark has to show.

--smoke runs every workload at tiny sizes, traced and untraced, and checks
that every metric is printed.  --record-references rewrites reference.json,
the output digests that every run is checked against; run it only on a
commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

E2E_UNITS = {
    "trials_per_s": "trials/s",
    "cpu_s_per_trial": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_RUNS = 6
TINY_SETUP_RUNS = 2

# Run in a fresh interpreter: the time to import the package and resolve the
# grid (which evaluates the theory schedules) before the first trial.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
from sparselasso import sweep
sweep.grid_points(sweep.SweepConfig(**json.loads(sys.argv[1])))
print(time.perf_counter() - t0)
"""


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod) -> str:
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (AttributeError, KeyError, TypeError, ValueError):
            return "unknown"

    env = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def tail(values: list, lower_is_better: bool = True):
    """Most extreme percentile with at least ten worse samples beyond it: (percentile, value).

    None below 21 samples, where that percentile would fall short of the median.
    """
    xs = sorted(values)
    if len(xs) < 21:
        return None
    i = len(xs) - 11 if lower_is_better else 10
    return round(100.0 * (i + 1) / len(xs)), xs[i]


def setup_times(inst, runs: int, warm: bool) -> list:
    """`runs` fresh-interpreter set-up times; a first, discarded run warms caches when `warm`."""
    from bench_workloads import child_env

    grid = dict(inst.wl.grid, base_seed=inst.base_seed)
    cmd = [sys.executable, "-c", SETUP_CODE, json.dumps(grid)]
    times = []
    for _ in range(runs + warm):
        out = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, check=True, cwd=ROOT)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times[1:] if warm else times


def end_to_end(inst, seconds: float, problems: list):
    """Closed loop for `seconds`; returns (metrics, printed extras, attempted, failed).

    Set-up is timed in fresh interpreters, half before and half after the
    loop, so that a burst of load on the machine meets only some of them.
    """
    half = (TINY_SETUP_RUNS if inst.tiny else SETUP_RUNS) // 2
    setups = setup_times(inst, half, warm=True)

    found = inst.rerun_problems()  # warm-up operation plus once-per-run checks
    problems += found
    attempted = inst.trials_per_op
    failed = inst.failed_ops(found)

    walls, cpus = [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            out = inst.run()
        except Exception as exc:  # a failing operation is counted, and the loop goes on
            out, err = None, f"operation {len(walls)} raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        else:
            err = None
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        found = [err] if err else inst.check(out)
        problems += found
        attempted += inst.trials_per_op
        failed += inst.failed_ops(found)

    setups += setup_times(inst, half, warm=False)

    trials = inst.trials_per_op
    rates = [trials / w for w in walls]
    cpu = [c / trials for c in cpus]
    metrics = {
        "trials_per_s": statistics.median(rates),
        "cpu_s_per_trial": statistics.median(cpu),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    extras = {
        "trials_per_s": {"samples": len(rates), "tail": tail(rates, lower_is_better=False)},
        "cpu_s_per_trial": {"samples": len(cpu), "tail": tail(cpu)},
        "setup_s": {"samples": len(setups), "tail": tail(setups)},
        "peak_rss_mb": {"samples": 1, "tail": None},
        "fail_ratio": {"value": failed / attempted, "unit": "ratio", "failed": failed, "attempted": attempted},
        "trials_per_op": trials,
        "op_seconds": walls,
        "setup_seconds": setups,
    }
    return metrics, extras, attempted, failed


def print_metrics(metrics: dict, units: dict, extras: dict) -> None:
    for name, unit in units.items():
        line = f"{name:32s} {metrics[name]:.6g} {unit}"
        info = extras.get(name)
        if isinstance(info, dict) and "samples" in info:
            t = info["tail"]
            if info["samples"] == 1:
                line += "  (1 sample)"
            else:
                line += "  (median" + (f", p{t[0]} {t[1]:.6g}" if t else "") + f"; {info['samples']} samples)"
        print(line)
    if "fail_ratio" in extras:
        fr = extras["fail_ratio"]
        print(f"{'fail_ratio':32s} {fr['value']:.6g} ratio  ({fr['failed']} of {fr['attempted']} operations failed)")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> int:
    import bench_trace
    import bench_workloads

    table = bench_workloads.TINY_WORKLOADS if tiny else bench_workloads.WORKLOADS
    if name not in table:
        print(f"perfbench: unknown workload {name!r}; choose from {', '.join(table)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{name}-{seed}-{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inst = bench_workloads.Instance(table[name], seed, workdir, tiny=tiny)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {name} seed {seed} (base_seed {inst.base_seed}) seconds {seconds:g} trace {int(trace)}")

    problems: list = []
    spans: list = []
    if trace:
        metrics, counts, spans = bench_trace.trace_pass(inst, seconds, problems)
        units, extras = bench_trace.PER_LAYER_UNITS, {}
        attempted, failed = counts["attempted"], counts["failed"]
    else:
        metrics, extras, attempted, failed = end_to_end(inst, seconds, problems)
        units = E2E_UNITS
    print_metrics(metrics, units, extras)
    for p in problems:
        print(f"problem: {p}")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=int(trace), environment=env, extras=extras, problems=problems)
    (WORK / f"result-{name}-{seed}-{int(trace)}.json").write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    if trace:
        (WORK / f"spans-{name}-{seed}.json").write_text(json.dumps(spans) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def record_references(names: list) -> int:
    import bench_workloads

    path = bench_workloads.REFERENCE_FILE
    refs = json.loads(path.read_text()) if path.exists() else {"full": {}, "tiny": {}}
    for size, table in (("tiny", bench_workloads.TINY_WORKLOADS), ("full", bench_workloads.WORKLOADS)):
        for name in names:
            refs[size][name] = [
                bench_workloads.Instance(table[name], s, WORK, tiny=size == "tiny").compute_reference()
                for s in range(bench_workloads.REFERENCE_SEEDS)
            ]
            print(f"recorded {size} {name}", file=sys.stderr)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def smoke(seed: int) -> int:
    """Every workload at tiny size, untraced and traced; every metric must be printed."""
    spec = json.loads(BENCHMARK_FILE.read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]}, 1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"], "--seed", str(seed),
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = out.stdout.strip().splitlines()
            tag = f"{w['name']} trace {trace}"
            before = len(bad)
            if out.returncode != 0 or not lines:
                bad.append(f"{tag}: exit {out.returncode}: {out.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                bad.append(f"{tag}: incorrect output: {[ln for ln in lines if ln.startswith('problem')]}")
            if set(result["metrics"]) != set(wanted[trace]):
                bad.append(f"{tag}: metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
            names = wanted[trace] if trace else dict(wanted[0], fail_ratio="ratio")
            for name, unit in names.items():
                if not any(ln.split()[:1] == [name] and f" {unit}" in ln for ln in lines[:-1]):
                    bad.append(f"{tag}: {name} [{unit}] not printed")
            print(f"smoke {tag}: {'ok' if len(bad) == before else 'FAILED'}")
    for b in bad:
        print(f"smoke problem: {b}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny grids (used by --smoke)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "sparselasso" / "__init__.py").is_file():
        print(f"perfbench: sparselasso sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)

    if args.smoke:
        return smoke(args.seed)
    if args.record_references:
        import bench_workloads

        return record_references([args.workload] if args.workload else list(bench_workloads.WORKLOADS))
    if not args.workload:
        ap.error("--workload is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny)


if __name__ == "__main__":
    sys.exit(main())
