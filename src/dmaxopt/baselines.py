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
    ParameterError,
    RngStream,
    project,
)
from .smag import (
    _Feed,
    _drive,
    _norms,
    _one_step,
    _stack,
    _streams,
    initial_state,
)

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


def _sgd_kernel(problem: DMaxProblem, st: BaselineState, lr: float,
                feed) -> BaselineState:
    dim = problem.dim_x
    g_phi = feed.grad(0, st.x, st.y, dim, "phi_subgrad_x")
    g_psi = feed.grad(1, st.x, None, dim, "psi_subgrad_x")
    direction = g_phi - g_psi
    x_new = st.x - lr * direction
    feed.check(x_new, "sgd iterate became non-finite")
    return BaselineState(x=x_new, y=st.y, last_dir=direction, t=st.t + 1)


def _sgda_kernel(problem: DMaxProblem, st: BaselineState, lr_x: float,
                 lr_y: float, feed) -> BaselineState:
    x, y = st.x, st.y
    g_x = feed.grad(0, x, y, problem.dim_x, "phi_subgrad_x")
    g_y = feed.grad(1, x, y, y.shape[1], "phi_grad_y")
    x_new = x - lr_x * g_x
    y_new = feed.project(project, problem.set_y, y + lr_y * g_y, y)
    feed.check(x_new, "sgda iterate became non-finite")
    return BaselineState(x=x_new, y=y_new, last_dir=g_x, t=st.t + 1)


def _sgd_oracles(problem: DMaxProblem) -> list:
    if problem.psi_subgrad_x is None:
        raise CapabilityError("sgd baseline needs both component oracles")
    return [problem.phi_subgrad_x, problem.psi_subgrad_x]


def _sgda_oracles(problem: DMaxProblem, state: BaselineState) -> list:
    if problem.phi_grad_y is None or problem.set_y is None:
        raise CapabilityError("sgda baseline needs a dual oracle and set")
    if state.y is None:
        raise ParameterError("sgda state has no dual iterate")
    return [problem.phi_subgrad_x, problem.phi_grad_y]


def sgd_step(problem: DMaxProblem, state: BaselineState, lr: float,
             rng, *, shared_sample: bool = False) -> BaselineState:
    """One step of x <- x - lr (g_phi - g_psi) with independent samples per
    component (or one shared sample when ``shared_sample`` is set)."""
    return _one_step(lambda st, feed: _sgd_kernel(problem, st, lr, feed),
                     state, rng, _sgd_oracles(problem), shared_sample)


def sgda_step(problem: DMaxProblem, state: BaselineState, lr_x: float,
              lr_y: float, rng,
              *, shared_sample: bool = False) -> BaselineState:
    """One simultaneous descent-ascent step; both gradients are evaluated at
    the pre-update pair (x, y)."""
    return _one_step(
        lambda st, feed: _sgda_kernel(problem, st, lr_x, lr_y, feed),
        state, rng, _sgda_oracles(problem, state), shared_sample)


@dataclass
class BaselineResult:
    records: list
    final_state: BaselineState
    aborted: bool = False
    abort_reason: str = ""


def _run(problem: DMaxProblem, oracles, kernel, t_total: int, rng, x0, *,
         seed_label, shared_sample: bool, **loop):
    """Drive ``kernel`` from ``x0`` and the projected dual origin, for one
    stream or, in lockstep, for each stream of a sequence."""
    rngs, labels = _streams(rng, seed_label)
    start = initial_state(problem, x0)
    state = BaselineState(x=start.x, y=start.y, last_dir=start.last_g)
    feed = _Feed(rngs, oracles(state), shared_sample)
    finals, records, reasons = _drive(
        problem, _stack(state, len(rngs)), t_total,
        lambda st, scale: kernel(st, scale, feed), feed, _direction_norm,
        seed_labels=labels, **loop)
    res = [BaselineResult(records=rec, final_state=fs,
                          aborted=why is not None, abort_reason=why or "")
           for fs, rec, why in zip(finals, records, reasons)]
    return res[0] if isinstance(rng, RngStream) else res


def _direction_norm(prev_x: np.ndarray, state: BaselineState):
    return _norms(state.last_dir), [math.nan] * state.x.shape[0]


def run_sgd(problem: DMaxProblem, lr: float, t_total: int, rng,
            x0=None, *, trace_every: int = 1, seed_label=0,
            decay_milestones: Sequence[int] = (), decay_factor: float = 10.0,
            shared_sample: bool = False):
    """Run the difference-of-subgradients baseline for ``t_total`` steps.

    With a sequence of streams for ``rng`` (and of labels for
    ``seed_label``) the seeds run in lockstep, as in
    :func:`dmaxopt.smag.run`, and a list of results comes back.
    """
    if not (lr > 0 and math.isfinite(lr)):
        raise ParameterError("lr must be positive and finite")
    return _run(problem, lambda st: _sgd_oracles(problem),
                lambda st, scale, feed: _sgd_kernel(problem, st, lr * scale,
                                                    feed),
                t_total, rng, x0, seed_label=seed_label,
                shared_sample=shared_sample, trace_every=trace_every,
                decay_milestones=decay_milestones, decay_factor=decay_factor)


def run_sgda(problem: DMaxProblem, lr_x: float, lr_y: float, t_total: int,
             rng, x0=None, *, trace_every: int = 1,
             seed_label=0, decay_milestones: Sequence[int] = (),
             decay_factor: float = 10.0,
             shared_sample: bool = False):
    """Run simultaneous stochastic gradient descent-ascent; a sequence of
    streams runs in lockstep as in :func:`run_sgd`."""
    if not (lr_x > 0 and lr_y > 0 and math.isfinite(lr_x)
            and math.isfinite(lr_y)):
        raise ParameterError("step sizes must be positive and finite")
    return _run(problem, lambda st: _sgda_oracles(problem, st),
                lambda st, scale, feed: _sgda_kernel(
                    problem, st, lr_x * scale, lr_y * scale, feed),
                t_total, rng, x0, seed_label=seed_label,
                shared_sample=shared_sample, trace_every=trace_every,
                decay_milestones=decay_milestones, decay_factor=decay_factor)
