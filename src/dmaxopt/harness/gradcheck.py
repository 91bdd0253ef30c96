"""Central-difference verification of envelope-difference gradients.

Points are sampled uniformly in a box and rejected when they sit too close
to a point where the smoothed objective loses second-order smoothness
(reported by the component ``kink_gap`` oracles); finite differences are
only trustworthy away from those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import DMaxProblem, ParameterError, token_generator
from ..moreau import dmax_envelope_grad, smoothed_objective

__all__ = ["GradCheckReport", "grad_check"]

_SAMPLE_SALT = 0x6C4D


@dataclass(frozen=True)
class GradCheckReport:
    """Worst relative finite-difference error over the accepted points.

    The error is relative to ``max(||g||, ||fd||, 1)``, which behaves like
    an absolute tolerance near flat regions and a relative one elsewhere.
    """

    max_rel_err: float
    n_checked: int
    n_rejected: int
    h: float
    gamma: float


def _kink_distance(problem: DMaxProblem, x: np.ndarray, gamma: float) -> float:
    gap = math.inf
    for fn in (problem.phi_fn, problem.psi_fn):
        if fn is not None and fn.kink_gap is not None:
            gap = min(gap, fn.kink_gap(x, gamma))
    return gap


def grad_check(problem: DMaxProblem, gamma: float, *, n_points: int = 20,
               h: float = 1e-5, tol: float = 1e-10,
               sample_box: tuple = (-3.0, 3.0),
               min_kink_gap: float | None = None,
               seed: int = 0) -> GradCheckReport:
    """Compare the prox-displacement gradient of the smoothed difference
    objective against central finite differences at random points.

    Points whose distance to the nearest envelope kink is below
    ``min_kink_gap`` (default ``10 h``) are rejected and resampled; if
    200 * n_points samples cannot produce enough clean points, a
    ``RuntimeError`` reports the resample failure.
    """
    if h <= 0:
        raise ParameterError("h must be positive")
    if n_points < 1:
        raise ParameterError("n_points must be >= 1")
    lo, hi = float(sample_box[0]), float(sample_box[1])
    if not lo < hi:
        raise ParameterError("sample_box must be an increasing pair")
    if min_kink_gap is None:
        min_kink_gap = 10.0 * h
    gen = token_generator(int(seed), salt=_SAMPLE_SALT)
    dim = problem.dim_x

    accepted = []
    rejected = 0
    budget = 200 * n_points
    while len(accepted) < n_points and budget > 0:
        budget -= 1
        x = gen.uniform(lo, hi, size=dim)
        if _kink_distance(problem, x, gamma) > min_kink_gap:
            accepted.append(x)
        else:
            rejected += 1
    if len(accepted) < n_points:
        raise RuntimeError(
            f"grad-check resample failure: only {len(accepted)}/{n_points} "
            f"points at least {min_kink_gap} away from envelope kinks in "
            f"[{lo}, {hi}]^{dim}")

    worst = 0.0
    for x in accepted:
        g = dmax_envelope_grad(problem, x, gamma, tol=tol)
        fd = np.empty(dim)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd[i] = (smoothed_objective(problem, x + e, gamma, tol=tol)
                     - smoothed_objective(problem, x - e, gamma, tol=tol)
                     ) / (2 * h)
        denom = max(float(np.linalg.norm(g)), float(np.linalg.norm(fd)), 1.0)
        worst = max(worst, float(np.linalg.norm(fd - g)) / denom)
    return GradCheckReport(max_rel_err=worst, n_checked=len(accepted),
                           n_rejected=rejected, h=h, gamma=gamma)
