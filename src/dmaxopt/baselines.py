"""Plain stochastic subgradient baselines for the same problem objects.

Two baselines: ``run_sgd`` applies x <- x - lr * (g_phi - g_psi) using the raw
component oracles (sensible for difference-of-convex instances), and
``run_sgda`` does simultaneous stochastic gradient descent-ascent on a
single component with a dual.  Both run on the main optimizer's driver
loop and share its token discipline: each step draws fresh tokens from the
caller's stream, so runs are reproducible bit for bit from (problem, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    CapabilityError,
    DMaxProblem,
    NonFiniteError,
    ParameterError,
    RngStream,
    _finite,
    project,
)
from .smag import _drive, _norm, _oracle_vec, initial_state

__all__ = [
    "BaselineState",
    "sgd_step",
    "sgda_step",
    "run_sgd",
    "run_sgda",
]


@dataclass
class BaselineState:
    x: np.ndarray
    y: Optional[np.ndarray]
    last_dir: np.ndarray
    t: int = 0


def sgd_step(problem: DMaxProblem, state: BaselineState, lr: float,
             rng: RngStream, *, shared_sample: bool = False) -> BaselineState:
    """One step of x <- x - lr (g_phi - g_psi) with independent samples per
    component (or one shared sample when ``shared_sample`` is set)."""
    if problem.psi_subgrad_x is None:
        raise CapabilityError("sgd baseline needs both component oracles")
    t0, t1 = rng.draw_many(2).tolist()
    if shared_sample:
        t1 = t0
    dim = problem.dim_x
    g_phi = _oracle_vec(problem.phi_subgrad_x(state.x, state.y, t0), dim,
                        "phi_subgrad_x")
    g_psi = _oracle_vec(problem.psi_subgrad_x(state.x, None, t1), dim,
                        "psi_subgrad_x")
    direction = g_phi - g_psi
    x_new = state.x - lr * direction
    if not _finite(x_new):
        raise NonFiniteError("sgd iterate became non-finite")
    return BaselineState(x=x_new, y=state.y, last_dir=direction,
                         t=state.t + 1)


def sgda_step(problem: DMaxProblem, state: BaselineState, lr_x: float,
              lr_y: float, rng: RngStream,
              *, shared_sample: bool = False) -> BaselineState:
    """One simultaneous descent-ascent step; both gradients are evaluated at
    the pre-update pair (x, y)."""
    if problem.phi_grad_y is None or problem.set_y is None:
        raise CapabilityError("sgda baseline needs a dual oracle and set")
    if state.y is None:
        raise ParameterError("sgda state has no dual iterate")
    t0, t1 = rng.draw_many(2).tolist()
    if shared_sample:
        t1 = t0
    dim = problem.dim_x
    g_x = _oracle_vec(problem.phi_subgrad_x(state.x, state.y, t0), dim,
                      "phi_subgrad_x")
    g_y = _oracle_vec(problem.phi_grad_y(state.x, state.y, t1),
                      state.y.shape[0], "phi_grad_y")
    x_new = state.x - lr_x * g_x
    y_new = project(problem.set_y, state.y + lr_y * g_y)
    if not _finite(x_new):
        raise NonFiniteError("sgda iterate became non-finite")
    return BaselineState(x=x_new, y=y_new, last_dir=g_x, t=state.t + 1)


@dataclass
class BaselineResult:
    records: list
    final_state: BaselineState
    aborted: bool = False
    abort_reason: str = ""


def _run(problem: DMaxProblem, advance, t_total: int, x0,
         **loop) -> BaselineResult:
    """Drive ``advance`` from ``x0`` and the projected dual origin."""
    start = initial_state(problem, x0)
    state, records, reason = _drive(
        problem, BaselineState(x=start.x, y=start.y, last_dir=start.last_g),
        t_total, advance, _direction_norm, **loop)
    return BaselineResult(records=records, final_state=state,
                          aborted=reason is not None,
                          abort_reason=reason or "")


def _direction_norm(prev: BaselineState, state: BaselineState):
    return _norm(state.last_dir), math.nan


def run_sgd(problem: DMaxProblem, lr: float, t_total: int, rng: RngStream,
            x0=None, *, trace_every: int = 1, seed_label: int = 0,
            decay_milestones: Sequence[int] = (), decay_factor: float = 10.0,
            shared_sample: bool = False) -> BaselineResult:
    """Run the difference-of-subgradients baseline for ``t_total`` steps."""
    if lr <= 0:
        raise ParameterError("lr must be positive")

    def stepper(state: BaselineState, scale: float) -> BaselineState:
        return sgd_step(problem, state, lr * scale, rng,
                        shared_sample=shared_sample)

    return _run(problem, stepper, t_total, x0, trace_every=trace_every,
                seed_label=seed_label, decay_milestones=decay_milestones,
                decay_factor=decay_factor)


def run_sgda(problem: DMaxProblem, lr_x: float, lr_y: float, t_total: int,
             rng: RngStream, x0=None, *, trace_every: int = 1,
             seed_label: int = 0, decay_milestones: Sequence[int] = (),
             decay_factor: float = 10.0,
             shared_sample: bool = False) -> BaselineResult:
    """Run simultaneous stochastic gradient descent-ascent."""
    if lr_x <= 0 or lr_y <= 0:
        raise ParameterError("step sizes must be positive")

    def stepper(state: BaselineState, scale: float) -> BaselineState:
        return sgda_step(problem, state, lr_x * scale, lr_y * scale, rng,
                         shared_sample=shared_sample)

    return _run(problem, stepper, t_total, x0, trace_every=trace_every,
                seed_label=seed_label, decay_milestones=decay_milestones,
                decay_factor=decay_factor)
