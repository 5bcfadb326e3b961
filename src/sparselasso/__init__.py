"""Lasso signed-support recovery on sparsified Gaussian measurement ensembles.

The package covers the full experimental loop: drawing sparsified
matrices from seeded counter-based streams (`ensemble`), solving the
Lasso by coordinate descent (`lasso`), certifying recovery through the
primal-dual witness (`witness`), evaluating the closed-form schedules
and tail bounds (`theory`), and running reproducible Monte Carlo
phase-transition sweeps (`sweep`).
"""

from .errors import CapacityError, DataError, ParameterError
from .ensemble import (
    EnsembleSpec,
    ObservationSet,
    SignalSpec,
    SparseMeasurementMatrix,
    make_signal,
    noise_vector,
    observe,
    read_matrix,
    sample_matrix,
    signal_signs,
    write_matrix,
)
from .lasso import LassoConfig, LassoSolution, kkt_residual, signed_support, soft_threshold, solve
from .sweep import SweepConfig, SweepRow, SweepTable, TrialRecord, grid_points, run_sweep, run_trial, write_outputs
from .theory import (
    BoundCheck,
    ConditionReport,
    control_parameter,
    gamma_schedule,
    lambda_schedule,
    recovery_conditions,
    required_sample_size,
    run_bound_checks,
    singular_extremes,
    snr_diagnostic,
)
from .witness import Margins, WitnessReport, build, h_vector, thinned_squared_norm

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DataError",
    "ParameterError",
    "EnsembleSpec",
    "ObservationSet",
    "SignalSpec",
    "SparseMeasurementMatrix",
    "make_signal",
    "noise_vector",
    "observe",
    "read_matrix",
    "sample_matrix",
    "signal_signs",
    "write_matrix",
    "LassoConfig",
    "LassoSolution",
    "kkt_residual",
    "signed_support",
    "soft_threshold",
    "solve",
    "SweepConfig",
    "SweepRow",
    "SweepTable",
    "TrialRecord",
    "grid_points",
    "run_sweep",
    "run_trial",
    "write_outputs",
    "BoundCheck",
    "ConditionReport",
    "control_parameter",
    "gamma_schedule",
    "lambda_schedule",
    "recovery_conditions",
    "required_sample_size",
    "run_bound_checks",
    "singular_extremes",
    "snr_diagnostic",
    "Margins",
    "WitnessReport",
    "build",
    "h_vector",
    "thinned_squared_norm",
    "__version__",
]
