"""Tests of the benchmark itself: smoke mode, missing sources, the tail rule."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import tail  # noqa: E402


def test_smoke_runs_every_workload_and_prints_every_metric():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, out.stdout + out.stderr
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            assert f"smoke {w['name']} trace {trace}: ok" in out.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "witness_poly", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_tail_leaves_ten_worse_samples_beyond_it():
    assert tail(list(range(20))) is None
    assert tail(list(range(21))) == (52, 10)
    assert tail(list(range(100))) == (90, 89)
    assert tail(list(range(100)), lower_is_better=False) == (11, 10)
