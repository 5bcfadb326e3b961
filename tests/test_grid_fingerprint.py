"""Byte-level fingerprint of sampled trials, in three groups.

`golden/grid_fingerprint.json` holds, per instance, the dtype and
SHA-256 of the indptr, indices and values of the sampled matrix and of
the noise vector.  The instances are:

* trial 0 of each of the 60 grid points of the two benchmark grids (the
  criterion-1 polynomial grid and the criterion-2 linear grid), seeded
  with `sweep.trial_seed` exactly as a sweep seeds them;
* two shapes that cover a dense matrix (gamma = 1) and rows longer than
  `rng.BLOCK_ENTRIES`, where the pattern is hashed one row per block;
* five single trials of the acceptance sweeps (TRIALS), at their own
  base seeds, also seeded as a sweep seeds them: later trials than 0, a
  dense (gamma = 1) point and the standard convention.  They were first
  recorded from the one-shot sampler (2-D counter blocks of 2^24
  entries).

Any rewrite of the sampler must reproduce the file unchanged.  Its bytes
do not depend on the BLAS kernel.

`golden/witness_fingerprint.json` holds the primal-dual witness of the
same instances: the SHA-256 of u, va and vb, `invertible` and the
`repr` of the three margins.  Grid points and trials take the signal,
noise and lambda a sweep gives them; the two shapes take k = SHAPE_K,
unit-variance noise and lambda = SHAPE_LAM.  Both routes to the witness
must reproduce it unchanged: `build` on the sampled matrix, and
`build_sampled`, which a witness-mode sweep runs and which never builds
the matrix.  Both run their dense algebra on single-threaded BLAS, so
the margins are the ones a sweep records, whatever the caller's thread
count, but they were recorded on OpenBLAS's SkylakeX kernel and differ
in the last digits on others.

Regenerate both (only on a commit whose outputs are known good) with

    PYTHONPATH=src python tests/test_grid_fingerprint.py --record
"""

import hashlib
import json
import pathlib
import sys

import pytest

from sparselasso import EnsembleSpec, SignalSpec, SweepConfig, blas, build, grid_points, noise_vector, rng, sample_matrix
from sparselasso.sweep import trial_seed
from sparselasso.witness import build_sampled

GOLDEN = pathlib.Path(__file__).parent / "golden" / "grid_fingerprint.json"
WITNESS_GOLDEN = GOLDEN.with_name("witness_fingerprint.json")

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
SHAPE_K = 1
SHAPE_LAM = 0.5
ACCEPTANCE = dict(theta_grid=THETA_GRID, trials=100)
CRITERION_1 = dict(ACCEPTANCE, p_list=(512, 1024, 2048), base_seed=1001)
CRITERION_2 = dict(ACCEPTANCE, p_list=(256, 512, 1024), base_seed=1002, sparsity_rule="linear", linear_alpha=0.125)
# name: (SweepConfig fields, p, theta, trial index)
TRIALS = {
    "criterion_1_p512_theta1": (CRITERION_1, 512, 1.0, 0),
    "criterion_1_p2048_theta2": (CRITERION_1, 2048, 2.0, 7),
    "criterion_2_p1024_n3481": (CRITERION_2, 1024, 2.0, 0),
    "gamma_1_p256": (dict(CRITERION_2, gamma_rule="constant", gamma_value=1.0), 256, 1.4, 3),
    "standard_p1024": (dict(CRITERION_1, convention="standard"), 1024, 1.2, 5),
}


def _digests(**arrays) -> dict:
    return {name: f"{a.dtype}:{hashlib.sha256(a.tobytes()).hexdigest()}" for name, a in arrays.items()}


def _matrix_digests(m, w) -> dict:
    return _digests(indptr=m.indptr, indices=m.indices, values=m.values, noise=w)


def _trial(name, cfg, pt, trial):
    """The instance of one sweep trial, seeded as a sweep seeds it."""
    seed = trial_seed(cfg.base_seed, pt.p_idx, pt.theta_idx, trial)
    sig = SignalSpec(p=pt.p, k=pt.k, beta_min=cfg.beta_min)
    return name, pt.spec, seed, sig, noise_vector(pt.n, cfg.sigma2, seed), pt.lam


def instances():
    """(name, spec, seed, signal, noise, lambda) of every fingerprinted instance."""
    for grid, fields in GRIDS.items():
        cfg = SweepConfig(base_seed=BASE_SEED, **fields)
        for pt in grid_points(cfg):
            yield _trial(f"{grid}_p{pt.p}_theta{pt.theta}", cfg, pt, 0)
    for name, (fields, seed) in SHAPES.items():
        spec = EnsembleSpec(**fields)
        yield name, spec, seed, SignalSpec(p=spec.p, k=SHAPE_K), noise_vector(spec.n, 1.0, seed), SHAPE_LAM
    for name, (fields, p, theta, trial) in TRIALS.items():
        cfg = SweepConfig(**fields)
        (pt,) = [pt for pt in grid_points(cfg) if pt.p == p and pt.theta == theta]
        yield _trial(name, cfg, pt, trial)


def fingerprints() -> dict:
    return {name: _matrix_digests(sample_matrix(spec, seed), w) for name, spec, seed, _, w, _ in instances()}


def witness_fingerprint(rep) -> dict:
    out = {"invertible": rep.invertible, "margins": None, "u": None, "va": None, "vb": None}
    if rep.invertible:
        out.update(_digests(u=rep.u, va=rep.va, vb=rep.vb))
        out["margins"] = {name: repr(v) for name, v in rep.margins._asdict().items()}
    return out


ROUTES = {
    "matrix": lambda spec, seed, sig, w, lam: build(sample_matrix(spec, seed), sig, w, lam),
    "sampled": build_sampled,
}


def witness_fingerprints(route: str = "matrix") -> dict:
    return {
        name: witness_fingerprint(ROUTES[route](spec, seed, sig, w, lam))
        for name, spec, seed, sig, w, lam in instances()
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def computed():
    return fingerprints()


def test_golden_covers_every_grid_point_and_shape(recorded):
    assert len(recorded) == 60 + len(SHAPES) + len(TRIALS)
    assert SHAPES["wide_n5_p70001"][0]["p"] > rng.BLOCK_ENTRIES


def test_every_grid_point_matches_recorded_bytes(recorded, computed):
    mismatched = sorted(name for name in recorded if computed.get(name) != recorded[name])
    assert sorted(computed) == sorted(recorded)
    assert mismatched == []


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_instance_matches_recorded_witness(route):
    recorded = json.loads(WITNESS_GOLDEN.read_text())
    computed = witness_fingerprints(route)
    assert sorted(computed) == sorted(recorded)
    mismatched = sorted(name for name in recorded if computed[name] != recorded[name])
    assert mismatched == [], f"recorded on OpenBLAS's SkylakeX kernel; this process runs {blas.core_names()}"


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(json.dumps(fingerprints(), indent=1, sort_keys=True) + "\n")
    WITNESS_GOLDEN.write_text(json.dumps(witness_fingerprints(), indent=1, sort_keys=True) + "\n")
