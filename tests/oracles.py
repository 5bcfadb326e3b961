"""Reference implementations used only by the tests.

The Lasso oracle is accelerated proximal gradient (FISTA) on dense
arrays with its own step size, its own soft threshold, and its own
optimality check.  It shares no code with the production coordinate
descent path; agreement between the two is therefore meaningful.

The sampler oracle is the one-shot sampler that `ensemble.sample_matrix`
replaced: it materializes the 2-D counter array of each 2^24-entry row
block, hashes it with `rng.bits_at`, gathers the kept counters by a
boolean mask and draws their values block by block.

The witness oracle checks `witness.build` against a converged Lasso
solution and against a QR projection of the noise.

scipy.sparse stays the tests' oracle for the package's own CSR arrays:
`csr(m)` is the scipy matrix over a matrix's arrays, and `from_dense(X)`
the matrix that stores a dense test design's non-zero entries, as
scipy's csr_matrix(X) stores them.

`same_bytes` compares two arrays bit for bit: dtype, shape and bytes.
`strict_json` parses JSON that must hold no NaN or Infinity, which
`json.loads` alone accepts.

`run_fresh` runs Python in a fresh interpreter with this package on its
path, for the tests that need a sys.modules, a start method or an
environment that no other test has touched.  `witness_path_loads` runs
every witness route, both solves and a mode="both" sweep once in such an
interpreter and reports which of the watched packages each stage loaded;
the loading guards of test_blas and test_imports read that one run.
"""

import functools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import scipy.sparse as sp

import sparselasso
from sparselasso import blas, rng
from sparselasso.ensemble import EnsembleSpec, SignalSpec, SparseMeasurementMatrix, make_signal
from sparselasso.errors import ParameterError
from sparselasso.lasso import LassoSolution
from sparselasso.witness import build


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def csr(m: SparseMeasurementMatrix) -> sp.csr_matrix:
    """The scipy CSR matrix over m's arrays."""
    return sp.csr_matrix((m.values, m.indices, m.indptr), shape=(m.spec.n, m.spec.p))


def from_dense(X) -> SparseMeasurementMatrix:
    """The matrix that stores the non-zero entries of the dense design X,
    row by row in column order, as scipy's csr_matrix(X) stores them."""
    A = sp.csr_matrix(np.asarray(X, dtype=np.float64))
    spec = EnsembleSpec(n=A.shape[0], p=A.shape[1], gamma=1.0)
    return SparseMeasurementMatrix(spec=spec, indptr=A.indptr.astype(np.int64), indices=A.indices.astype(np.int64), values=A.data, seed=0)


def _non_finite_constant(name: str):
    raise ValueError(f"JSON holds the non-finite constant {name}")


def strict_json(text: str):
    """json.loads(text), refusing NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_non_finite_constant)


def run_fresh(*argv: str, **environ: str) -> str:
    """Standard output of `python *argv` run in a fresh interpreter, whose
    sys.modules no test has touched, with this package on its path and
    `environ` added to the environment."""
    src = str(pathlib.Path(sparselasso.__file__).parents[1])
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Every witness route a user reaches, the CLI's and the library's solve, a
# mode="both" sweep at 1 and 2 workers, then the scipy packages a user may
# import next.  After each stage it notes which watched packages are in
# sys.modules.
_WITNESS_PATH_SCRIPT = """
import contextlib, io, os, sys
import numpy as np
from sparselasso import EnsembleSpec, LassoConfig, SignalSpec, SweepConfig, blas, build, cli, h_vector, noise_vector
from sparselasso import observe, make_signal, rng, run_sweep, sample_matrix, singular_extremes, solve

WATCHED = ("multiprocessing", "scipy.linalg", "scipy.sparse", "scipy.special", "scipy._lib._array_api")
loaded = {}

def note(stage):
    loaded[stage] = [name for name in WATCHED if name in sys.modules]

def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

cfg = SweepConfig(p_list=(64, 128), theta_grid=(0.5, 1.5), trials=2, base_seed=3, mode="witness")
serial = run_sweep(cfg, workers=1)
note("serial sweep")
m = sample_matrix(EnsembleSpec(n=60, p=64, gamma=0.5), 1)
sig = SignalSpec(p=64, k=3)
assert build(m, sig, noise_vector(60, 0.1, 2), 0.2).invertible
h_vector(m, sig)
singular_extremes(m, 3)
obs = observe(m, make_signal(sig), 0.1, 2)
path, y = os.path.join(sys.argv[1], "m.txt"), os.path.join(sys.argv[1], "y.txt")
with open(y, "w") as fh:
    fh.write("".join(f"{float(v)!r}\\n" for v in obs.y))
run_cli("gen", "--n", "60", "--p", "64", "--gamma", "0.5", "--seed", "1", "--out", path)
run_cli("witness", "--matrix", path, "--k", "3", "--lam", "0.2", "--noise-seed", "2")
note("gen, witness")
assert run_sweep(cfg, workers=2) == serial
note("witness path")
lapack = blas._lapack() is not None

# The forked sweep has loaded multiprocessing.  The CLI's solve runs with it,
# its submodules and concurrent.futures' process pool taken out of sys.modules
# and of that package, so that reaching any of them by any route imports
# multiprocessing afresh.
futures = sys.modules["concurrent.futures"]
forked = {name: sys.modules.pop(name) for name in list(sys.modules)
          if name.partition(".")[0] == "multiprocessing" or name == "concurrent.futures.process"}
pool = {name: vars(futures).pop(name) for name in ("process", "ProcessPoolExecutor") if name in vars(futures)}
run_cli("solve", "--matrix", path, "--y", y, "--lam", "0.2")
note("CLI solve")
sys.modules.update(forked)
vars(futures).update(pool)
assert solve(m, obs.y, LassoConfig(lam=0.2)).converged
note("solve")
both = SweepConfig(p_list=(32,), theta_grid=(1.0, 2.0), trials=2, base_seed=3, mode="both")
assert run_sweep(both, workers=1) == run_sweep(both, workers=2)
note("both sweep")

import scipy.special, scipy.stats, scipy.linalg, scipy.sparse
assert scipy.special.ndtri is rng.ndtri
assert scipy.special.erf(0.0) == 0.0 and abs(scipy.special.erf(1.0) - 0.8427007929497149) < 1e-15

import json
print(json.dumps({**loaded, "lapack": lapack}))
"""


@functools.cache
def witness_path_loads() -> dict:
    """The watched packages loaded after each stage of `_WITNESS_PATH_SCRIPT`,
    keyed "serial sweep", "gen, witness", "witness path" (after the forked
    sweep), "CLI solve" (with multiprocessing unloaded for it), "solve" and
    "both sweep", and under "lapack" whether `blas._lapack()` found scipy's dpotrf and
    dpotrs, from one run in a fresh interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
        return json.loads(run_fresh("-c", _WITNESS_PATH_SCRIPT, tmp))


def sample_matrix_unblocked(spec, seed):
    """The matrix `ensemble.sample_matrix(spec, seed)` must equal byte for byte."""
    pattern_seed = rng.derive_key(seed, rng.TAG_PATTERN)
    value_seed = rng.derive_key(seed, rng.TAG_VALUE)

    n, p, gamma = spec.n, spec.p, spec.gamma
    dense = gamma == 1.0
    threshold = None if dense else np.uint64(rng.bernoulli_threshold(gamma))
    scale = 1.0 if spec.convention == "standard" else 1.0 / math.sqrt(gamma)

    rows_per_block = max(1, (1 << 24) // p)
    counts = np.zeros(n, dtype=np.int64)
    idx_parts = []
    val_parts = []
    cols = np.arange(p, dtype=np.uint64)
    for r0 in range(0, n, rows_per_block):
        r1 = min(n, r0 + rows_per_block)
        counters = (np.arange(r0, r1, dtype=np.uint64)[:, None] << np.uint64(32)) | cols[None, :]
        if dense:
            nz_counters = counters.ravel()
            counts[r0:r1] = p
            idx_parts.append(np.tile(np.arange(p, dtype=np.int64), r1 - r0))
        else:
            mask = rng.bits_at(pattern_seed, counters) < threshold
            counts[r0:r1] = mask.sum(axis=1)
            nz_counters = counters[mask]
            idx_parts.append(np.nonzero(mask)[1].astype(np.int64))
        draws = rng.normals_at(value_seed, nz_counters)
        val_parts.append(draws if scale == 1.0 else draws * scale)

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return SparseMeasurementMatrix(
        spec=spec, indptr=indptr, indices=np.concatenate(idx_parts), values=np.concatenate(val_parts), seed=seed,
    )


def _soft(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def fista_lasso(X, y, lam, max_iter=50000, tol=1e-12):
    """Minimize (1/2n)||y - Xb||^2 + lam ||b||_1 by accelerated proximal gradient."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    step = n / (np.linalg.norm(X, 2) ** 2 + 1e-30)
    beta = np.zeros(p)
    z = beta.copy()
    t = 1.0
    for _ in range(max_iter):
        grad = X.T @ (X @ z - y) / n
        beta_new = _soft(z - step * grad, step * lam)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = beta_new + ((t - 1.0) / t_new) * (beta_new - beta)
        done = np.abs(beta_new - beta).max() <= tol
        beta, t = beta_new, t_new
        if done:
            break
    return beta


def fista_kkt(X, y, beta, lam, zero_tol=1e-10):
    """Independent stationarity residual for the oracle's own output."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    g = X.T @ (X @ beta - y) / n
    res = 0.0
    for gi, bi in zip(g, beta):
        if abs(bi) > zero_tol:
            res = max(res, abs(gi + lam * np.sign(bi)))
        else:
            res = max(res, max(abs(gi) - lam, 0.0))
    return res


@blas.single_threaded()
def dual_identity_check(
    m: SparseMeasurementMatrix,
    s: SignalSpec,
    w: np.ndarray,
    lam: float,
    full_solution: LassoSolution,
) -> float:
    """Cross-check the witness against independently computed counterparts.

    Requires an instance where the witness succeeded with all margins
    beyond 1e-6 and the solver converged; there the solver's optimum is
    unique with the true signed support, so the following must agree:

    * u against the solver's actual support error beta_hat_S - beta*_S,
    * vb against the noise projection computed through a QR factorization.

    Returns the largest absolute deviation across both comparisons.
    """
    report = build(m, s, w, lam)
    if not report.invertible:
        raise ParameterError("support gram block is singular")
    if not (report.success and min(report.margins) > 1e-6):
        raise ParameterError("witness must succeed with all margins above 1e-6")
    # solve reports converged only when its KKT residual meets its own tolerance.
    if not full_solution.converged:
        raise ParameterError("solution did not converge")

    beta_star = make_signal(s)
    k = s.k
    dev_u = float(np.abs(report.u - (full_solution.beta_hat[:k] - beta_star[:k])).max())

    X = csr(m)
    Q, _ = np.linalg.qr(X[:, :k].toarray())
    proj = w - Q @ (Q.T @ w)
    vb_qr = (X.T @ proj / m.spec.n)[k:]
    dev_b = float(np.abs(report.vb - vb_qr).max())
    return max(dev_u, dev_b)
