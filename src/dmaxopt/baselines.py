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
    _drive,
    _norms,
    _streams,
    initial_state,
)

__all__ = [
    "BaselineState",
    "BaselineResult",
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
                feed, n: int, held):
    """``n`` steps, run as :func:`smag._smag_kernel` runs them."""
    shape, y, grad = st.x.shape, st.y, feed.grad
    lr = np.array(lr)  # 0-d, as smag._smag_kernel keeps its steps
    x_new = st.x
    hold, due = held.hold, held.due
    for t in range(st.t, st.t + n):
        x = x_new
        feed.next_step(t)
        direction = (grad(0, x, y, shape, "phi_subgrad_x")
                     - grad(1, x, None, shape, "psi_subgrad_x"))
        x_new = x - lr * direction
        if t == due:
            if not hold(t, (x, x_new, y, direction)):
                break
            due = held.due
    return x, BaselineState(x_new, y, direction, t + 1)


def _sgda_kernel(problem: DMaxProblem, st: BaselineState, lr_x: float,
                 lr_y: float, feed, n: int, held):
    """``n`` steps, run as :func:`smag._smag_kernel` runs them."""
    shape, set_y, grad = st.x.shape, problem.set_y, feed.grad
    lr_x, lr_y = np.array(lr_x), np.array(lr_y)
    x_new, y_new = st.x, st.y
    hold, due = held.hold, held.due
    for t in range(st.t, st.t + n):
        x, y = x_new, y_new
        feed.next_step(t)
        g_x = grad(0, x, y, shape, "phi_subgrad_x")
        g_y = grad(1, x, y, y.shape, "phi_grad_y")
        x_new = x - lr_x * g_x
        y_new = project(set_y, y + lr_y * g_y)
        if t == due:
            if not hold(t, (x, x_new, y_new, g_x)):
                break
            due = held.due
    return x, BaselineState(x_new, y_new, g_x, t + 1)


def _sgd_oracles(problem: DMaxProblem) -> list:
    if problem.psi_subgrad_x is None:
        raise CapabilityError("sgd baseline needs both component oracles")
    return [problem.phi_subgrad_x, problem.psi_subgrad_x]


def _sgda_oracles(problem: DMaxProblem) -> list:
    if problem.phi_grad_y is None or problem.set_y is None:
        raise CapabilityError("sgda baseline needs a dual oracle and set")
    return [problem.phi_subgrad_x, problem.phi_grad_y]


@dataclass
class BaselineResult:
    records: list
    final_state: BaselineState
    aborted: bool = False
    abort_reason: str = ""


def _run(problem: DMaxProblem, oracles: list, kernel, t_total: int, rng, x0,
         *, seed_label, shared_sample: bool, **loop):
    """Drive ``kernel`` on the two token slots ``oracles`` from ``x0`` and
    the projected dual origin, for one stream or, in lockstep, for each
    stream of a sequence."""
    rngs, labels = _streams(rng, seed_label)
    start = initial_state(problem, x0)
    res = [BaselineResult(records=rec, final_state=fs,
                          aborted=why is not None, abort_reason=why or "")
           for fs, rec, why in _drive(
               problem, BaselineState(x=start.x, y=start.y,
                                      last_dir=start.last_g),
               t_total, rngs, oracles, kernel, _direction_norm,
               shared_sample=shared_sample, seed_labels=labels, **loop)]
    return res[0] if isinstance(rng, RngStream) else res


def _direction_norm(block):
    stat = _norms(block.last_dir).tolist()
    return stat, [math.nan] * len(stat)


def run_sgd(problem: DMaxProblem, lr: float, t_total: int, rng,
            x0=None, *, trace_every: int = 1, seed_label=0,
            decay_milestones: Sequence[int] = (), decay_factor: float = 10.0,
            shared_sample: bool = False):
    """Run the difference-of-subgradients baseline for ``t_total`` steps.

    With a sequence of streams for ``rng`` (and of labels for
    ``seed_label``) the seeds run in lockstep, as in
    :func:`dmaxopt.smag.run`, and a list of results comes back.  As
    there, a run is an attempt that tests its iterates at each traced step
    and segment end, and one that fails is replayed seed by seed: a seed
    stops at its first non-finite oracle value or iterate, with its solo
    run's message.
    A failing run does its work up to twice, and the replay needs each
    oracle to be a pure function of ``(x, dual, token)``.
    """
    if not (lr > 0 and math.isfinite(lr)):
        raise ParameterError("lr must be positive and finite")
    return _run(problem, _sgd_oracles(problem),
                lambda st, scale, feed, n, held: _sgd_kernel(
                    problem, st, lr * scale, feed, n, held),
                t_total, rng, x0, seed_label=seed_label,
                shared_sample=shared_sample, anchor="sgd iterate",
                trace_every=trace_every, decay_milestones=decay_milestones,
                decay_factor=decay_factor, steps={"lr": lr})


def run_sgda(problem: DMaxProblem, lr_x: float, lr_y: float, t_total: int,
             rng, x0=None, *, trace_every: int = 1,
             seed_label=0, decay_milestones: Sequence[int] = (),
             decay_factor: float = 10.0,
             shared_sample: bool = False):
    """Run simultaneous stochastic gradient descent-ascent; a sequence of
    streams runs in lockstep, and a failing run is replayed seed by seed,
    as in :func:`run_sgd` (a refused dual stops a seed with ``project``'s
    message)."""
    if not (lr_x > 0 and lr_y > 0 and math.isfinite(lr_x)
            and math.isfinite(lr_y)):
        raise ParameterError("step sizes must be positive and finite")
    return _run(problem, _sgda_oracles(problem),
                lambda st, scale, feed, n, held: _sgda_kernel(
                    problem, st, lr_x * scale, lr_y * scale, feed, n, held),
                t_total, rng, x0, seed_label=seed_label,
                shared_sample=shared_sample, anchor="sgda iterate",
                trace_every=trace_every, decay_milestones=decay_milestones,
                decay_factor=decay_factor, steps={"lr_x": lr_x, "lr_y": lr_y})
