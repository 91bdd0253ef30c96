"""dmaxopt: single-loop stochastic optimization of difference-of-max and
weakly convex min-max objectives via envelope smoothing.

The public surface is re-exported here; submodules stay importable for the
less common pieces (harness internals, individual problem builders).
"""

from .core import (
    CapabilityError,
    ConstraintSet,
    DMaxProblem,
    DimensionError,
    ExactAux,
    FunctionOracle,
    NonFiniteError,
    ParameterError,
    ProblemConstants,
    RngStream,
    RunRecord,
    ball,
    box,
    project,
    token_generator,
    whole_space,
)
from .moreau import (
    CriticalityCertificate,
    ProxResult,
    check_nearly_critical,
    dmax_envelope_grad,
    envelope_prox_points,
    prox,
    smoothness_constant,
)
from .smag import (
    RunResult,
    Schedule,
    SmagState,
    initial_state,
    run,
    schedule_from_theory,
    step_diagnostics,
    validate_schedule,
)
from .baselines import BaselineResult, BaselineState, run_sgd, run_sgda

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "ConstraintSet",
    "DMaxProblem",
    "DimensionError",
    "ExactAux",
    "FunctionOracle",
    "NonFiniteError",
    "ParameterError",
    "ProblemConstants",
    "RngStream",
    "RunRecord",
    "ball",
    "box",
    "project",
    "token_generator",
    "whole_space",
    "CriticalityCertificate",
    "ProxResult",
    "check_nearly_critical",
    "dmax_envelope_grad",
    "envelope_prox_points",
    "prox",
    "smoothness_constant",
    "RunResult",
    "Schedule",
    "SmagState",
    "initial_state",
    "run",
    "schedule_from_theory",
    "step_diagnostics",
    "validate_schedule",
    "BaselineResult",
    "BaselineState",
    "run_sgd",
    "run_sgda",
    "__version__",
]
