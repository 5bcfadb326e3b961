"""Byte-level fingerprint of every benchmark grid point's first trial.

`golden/grid_fingerprint.json` holds, for trial 0 of each of the 60 grid
points of the two benchmark grids (the criterion-1 polynomial grid and
the criterion-2 linear grid), the dtype and SHA-256 of the indptr,
indices and values of the sampled matrix and of the noise vector, seeded
with `sweep.trial_seed` exactly as a sweep seeds them.  Two more shapes
cover a dense matrix (gamma = 1) and rows longer than
`rng.BLOCK_ENTRIES`, where the pattern is hashed one row per block.
Any rewrite of the sampler must reproduce the file unchanged.

Regenerate (only on a commit whose sampler output is known good) with

    PYTHONPATH=src python tests/test_grid_fingerprint.py --record
"""

import hashlib
import json
import pathlib
import sys

import pytest

from sparselasso import EnsembleSpec, SweepConfig, grid_points, noise_vector, rng, sample_matrix
from sparselasso.sweep import trial_seed

GOLDEN = pathlib.Path(__file__).parent / "golden" / "grid_fingerprint.json"

BASE_SEED = 0
THETA_GRID = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
GRIDS = {
    "poly": dict(p_list=(512, 1024, 2048), theta_grid=THETA_GRID, trials=1, sparsity_rule="polynomial", mode="witness"),
    "linear": dict(
        p_list=(256, 512, 1024), theta_grid=THETA_GRID, trials=1, sparsity_rule="linear", linear_alpha=0.125,
        mode="witness",
    ),
}
# name: (EnsembleSpec fields, seed)
SHAPES = {
    "gamma_1_n90_p300": (dict(n=90, p=300, gamma=1.0), 5),
    "wide_n5_p70001": (dict(n=5, p=70_001, gamma=0.02), 6),
}


def _digests(**arrays) -> dict:
    return {name: f"{a.dtype}:{hashlib.sha256(a.tobytes()).hexdigest()}" for name, a in arrays.items()}


def _matrix_digests(m, w) -> dict:
    return _digests(indptr=m.indptr, indices=m.indices, values=m.values, noise=w)


def fingerprints() -> dict:
    out = {}
    for grid, fields in GRIDS.items():
        cfg = SweepConfig(base_seed=BASE_SEED, **fields)
        for pt in grid_points(cfg):
            seed = trial_seed(cfg.base_seed, pt.p_idx, pt.theta_idx, 0)
            m = sample_matrix(pt.spec, seed)
            out[f"{grid}_p{pt.p}_theta{pt.theta}"] = _matrix_digests(m, noise_vector(pt.n, cfg.sigma2, seed))
    for name, (fields, seed) in SHAPES.items():
        m = sample_matrix(EnsembleSpec(**fields), seed)
        out[name] = _matrix_digests(m, noise_vector(m.spec.n, 1.0, seed))
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def computed():
    return fingerprints()


def test_golden_covers_every_grid_point_and_shape(recorded):
    assert len(recorded) == 60 + len(SHAPES)
    assert SHAPES["wide_n5_p70001"][0]["p"] > rng.BLOCK_ENTRIES


def test_every_grid_point_matches_recorded_bytes(recorded, computed):
    mismatched = sorted(name for name in recorded if computed.get(name) != recorded[name])
    assert sorted(computed) == sorted(recorded)
    assert mismatched == []


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(json.dumps(fingerprints(), indent=1, sort_keys=True) + "\n")
