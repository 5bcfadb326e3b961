"""Byte-level fingerprint of sample_matrix on the acceptance shapes.

`golden/sampler_fingerprint.json` holds, per instance, the SHA-256 of the
indptr/indices/values bytes of one sampled matrix, their dtypes, its
SeedInfo, and the witness margins on it (as `repr` floats).  The
instances are trials of the acceptance sweeps, drawn with
`sweep.trial_seed` exactly as a sweep draws them, plus a dense
(gamma = 1), a standard-convention and a `value_seed` instance.  The file
was recorded from the one-shot sampler (2-D counter blocks of 2^24
entries); any rewrite of the sampler must reproduce it unchanged.
"""

import dataclasses
import hashlib
import json
import pathlib

import pytest

from sparselasso import SignalSpec, SweepConfig, build, grid_points, noise_vector, sample_matrix
from sparselasso.sweep import trial_seed

GOLDEN = pathlib.Path(__file__).parent / "golden" / "sampler_fingerprint.json"

THETA_GRID = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
CRITERION_1 = dict(p_list=(512, 1024, 2048), theta_grid=THETA_GRID, trials=100, base_seed=1001)
CRITERION_2 = dict(
    p_list=(256, 512, 1024), theta_grid=THETA_GRID, trials=100, base_seed=1002,
    sparsity_rule="linear", linear_alpha=0.125,
)

# name: (SweepConfig fields, p, theta, trial index, value_seed)
INSTANCES = {
    "criterion_1_p512_theta1": (CRITERION_1, 512, 1.0, 0, None),
    "criterion_1_p2048_theta2": (CRITERION_1, 2048, 2.0, 7, None),
    "criterion_2_p1024_n3481": (CRITERION_2, 1024, 2.0, 0, None),
    "gamma_1_p256": (dict(CRITERION_2, gamma_rule="constant", gamma_value=1.0), 256, 1.4, 3, None),
    "standard_p1024": (dict(CRITERION_1, convention="standard"), 1024, 1.2, 5, None),
    "value_seed_p1024": (CRITERION_1, 1024, 0.8, 2, 123456789),
}


def fingerprint(fields: dict, p: int, theta: float, trial: int, value_seed) -> dict:
    cfg = SweepConfig(**fields)
    (pt,) = [pt for pt in grid_points(cfg) if pt.p == p and pt.theta == theta]
    seed = trial_seed(cfg.base_seed, pt.p_idx, pt.theta_idx, trial)
    m = sample_matrix(pt.spec, seed, value_seed=value_seed)
    rep = build(m, SignalSpec(p=pt.p, k=pt.k, beta_min=cfg.beta_min), noise_vector(pt.n, cfg.sigma2, seed), pt.lam)
    arrays = {"indptr": m.indptr, "indices": m.indices, "values": m.values}
    return {
        "n": pt.n,
        "p": pt.p,
        "gamma": repr(pt.gamma),
        "convention": pt.spec.convention,
        "nnz": m.nnz,
        "dtypes": {name: str(a.dtype) for name, a in arrays.items()},
        "sha256": {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in arrays.items()},
        "seed_info": dataclasses.asdict(m.seed_info),
        "margins": None if rep.margins is None else {k: repr(v) for k, v in rep.margins._asdict().items()},
    }


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_sampler_matches_recorded_fingerprint(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert fingerprint(*INSTANCES[name]) == expected


def test_fingerprint_golden_covers_every_instance():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(INSTANCES)
