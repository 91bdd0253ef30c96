"""Moreau envelopes, proximal points, and near-criticality certificates.

For a ``delta``-weakly-convex function ``f`` and ``0 < gamma < 1/delta`` the
envelope ``f_gamma(x) = min_u f(u) + ||u - x||^2 / (2 gamma)`` is smooth even
when ``f`` is not, and its gradient ``(x - prox(x)) / gamma`` measures how far
``x`` is from criticality.  This module computes proximal points (closed form
when a problem registers one, otherwise by projected subgradient descent on
the strongly convex subproblem), envelope values and gradients, the envelope
gradient of a difference of components, and the certificate that a candidate
point is nearly critical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (
    CapabilityError,
    DMaxProblem,
    FunctionOracle,
    ParameterError,
    as_vector,
    check_finite,
)

__all__ = [
    "ProxResult",
    "prox",
    "envelope_value",
    "envelope_grad",
    "smoothed_objective",
    "smoothness_constant",
    "dmax_envelope_grad",
    "envelope_prox_points",
    "CriticalityCertificate",
    "check_nearly_critical",
]


@dataclass(frozen=True)
class ProxResult:
    """Outcome of a proximal-point computation.

    ``residual`` certifies subproblem optimality: the subproblem gradient
    norm when the function is differentiable, and an optimality-gap bound or
    estimate (see :func:`prox`) otherwise.  ``exact`` marks closed-form
    evaluations, which carry ``residual == 0`` and ``inner_iters == 0``.
    Nonconvergence is flagged by ``residual > tol``, never by an exception.
    """

    point: np.ndarray
    residual: float
    inner_iters: int
    exact: bool


def _check_gamma(gamma: float, delta: float) -> None:
    if not (gamma > 0) or not math.isfinite(gamma):
        raise ParameterError("gamma must be positive and finite")
    if delta > 0 and gamma >= 1.0 / delta:
        raise ParameterError(
            f"gamma={gamma} must be < 1/delta={1.0 / delta} for a well-posed prox")


def _golden_refine(g, lo: float, hi: float, iters: int = 96) -> Tuple[float, float]:
    """Golden-section search on strictly unimodal ``g`` over ``[lo, hi]``.

    Returns the best abscissa and the final bracket width.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(iters):
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - invphi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + invphi * (b - a)
            gd = g(d)
        if b - a <= 1e-15 * (1.0 + abs(a) + abs(b)):
            break
    xm = (a + b) / 2.0
    return xm, b - a


def prox(f: FunctionOracle, x, gamma: float, tol: float = 1e-8,
         max_inner: int = 200_000) -> ProxResult:
    """Proximal point of ``f`` at ``x`` with parameter ``gamma``.

    When ``f`` registers a closed-form prox it is returned directly with
    ``exact=True``.  Otherwise the strongly convex subproblem ``min_u f(u)
    + ||u - x||^2/(2 gamma)`` is solved by subgradient descent with steps
    ``2 / (mu (k + 2))``, ``mu = 1/gamma - delta``, keeping the best
    suffix-averaged iterate.

    Residual semantics for iterative solves:

    - differentiable ``f``: norm of the subproblem gradient at the returned
      point (an exact certificate);
    - non-differentiable, 1-D: the suffix average is refined by a bracketed
      golden-section search (the bracket radius ``||s||/mu`` provably
      contains the minimizer), and the residual is the remaining optimality
      gap bound, typically at machine precision;
    - non-differentiable, multi-D: an optimality-gap *estimate*, the better
      of the subgradient bound ``||s||^2/mu`` and the improvement found by a
      continued solve with a 10x iteration budget.

    Nonconvergence within ``max_inner`` iterations is reported through a
    residual larger than ``tol``.
    """
    _check_gamma(gamma, f.delta)
    x = as_vector(x, name="x")
    if not (tol > 0):
        raise ParameterError("tol must be positive")

    if f.prox is not None:
        pt = as_vector(f.prox(x, gamma), dim=x.shape[0], name="prox point")
        return ProxResult(point=pt, residual=0.0, inner_iters=0, exact=True)

    mu = 1.0 / gamma - f.delta
    inv_gamma = 1.0 / gamma

    def subgrad(u: np.ndarray) -> np.ndarray:
        return f.subgrad(u) + (u - x) * inv_gamma

    def gval(u: np.ndarray) -> float:
        du = u - x
        return float(f.value(u)) + 0.5 * inv_gamma * float(du @ du)

    u = x.copy()
    g0 = subgrad(u)
    check_finite(g0, "subgradient")
    ghat = max(float(np.linalg.norm(g0)), 1e-12)
    guard = 10.0 * (gamma * ghat + 1.0)
    eta_cap = gamma

    best_pt = u.copy()
    best_val = gval(u)
    seg_sum = np.zeros_like(x)
    seg_n = 0
    next_check = 16
    k = 0
    residual = math.inf

    def consider(pt: np.ndarray) -> None:
        nonlocal best_pt, best_val
        v = gval(pt)
        if v < best_val:
            best_val = v
            best_pt = pt.copy()

    def certify(pt: np.ndarray) -> float:
        s = subgrad(pt)
        ns = float(np.linalg.norm(s))
        if f.differentiable:
            return ns
        if x.shape[0] == 1:
            # Bracket [c - r, c + r] is guaranteed to contain the minimizer.
            c = float(pt[0])
            r = ns / mu + 1e-12
            xm, width = _golden_refine(lambda t: gval(np.array([t])), c - r, c + r)
            consider(np.array([xm]))
            s_best = float(np.linalg.norm(subgrad(best_pt)))
            return s_best * width + 1e-15 * (1.0 + abs(best_val))
        return ns * ns / mu

    while k < max_inner:
        s = subgrad(u)
        ns = float(np.linalg.norm(s))
        if not math.isfinite(ns):
            eta_cap *= 0.5
            u = x.copy()
            seg_sum[:] = 0.0
            seg_n = 0
            k += 1
            continue
        ghat = max(ghat, ns)
        eta = min(2.0 / (mu * (k + 2)), eta_cap)
        u = u - eta * s
        if float(np.linalg.norm(u - x)) > guard:
            # Runaway step (curvature above what the schedule tolerates).
            eta_cap *= 0.5
            u = x.copy()
            seg_sum[:] = 0.0
            seg_n = 0
            k += 1
            continue
        seg_sum += u
        seg_n += 1
        k += 1
        if k >= next_check or k >= max_inner:
            if seg_n > 0:
                consider(seg_sum / seg_n)
            consider(u)
            residual = certify(best_pt)
            if residual <= tol:
                break
            seg_sum[:] = 0.0
            seg_n = 0
            next_check *= 2

    if residual > tol and not f.differentiable and x.shape[0] > 1:
        # Gap estimate from a continued solve with a 10x budget.
        extra = min(10 * k, 2_000_000)
        u2 = best_pt.copy()
        k2 = k
        for _ in range(extra):
            s = subgrad(u2)
            eta = min(2.0 / (mu * (k2 + 2)), eta_cap)
            u2 = u2 - eta * s
            k2 += 1
        val_before = best_val
        consider(u2)
        residual = min(residual, max(val_before - best_val, 0.0)
                       + mu * float(np.linalg.norm(u2 - best_pt)) ** 2)

    check_finite(best_pt, "prox point")
    return ProxResult(point=best_pt, residual=float(residual),
                      inner_iters=k, exact=False)


def envelope_value(f: FunctionOracle, x, gamma: float, tol: float = 1e-8,
                   **kwargs) -> float:
    """Moreau envelope value ``f_gamma(x)``."""
    x = as_vector(x, name="x")
    r = prox(f, x, gamma, tol=tol, **kwargs)
    d = r.point - x
    return float(f.value(r.point)) + float(d @ d) / (2.0 * gamma)


def envelope_grad(f: FunctionOracle, x, gamma: float, tol: float = 1e-8,
                  **kwargs) -> np.ndarray:
    """Envelope gradient ``(x - prox(x)) / gamma``."""
    x = as_vector(x, name="x")
    r = prox(f, x, gamma, tol=tol, **kwargs)
    return (x - r.point) / gamma


def smoothed_objective(problem: DMaxProblem, x: np.ndarray, gamma: float,
                       with_psi: bool = True, tol: float = 1e-8) -> float:
    """Smoothed objective ``F_gamma(x) = Phi_gamma(x) - Psi_gamma(x)``.

    A component with both an exact prox and an exact value map in
    ``exact_aux`` gives ``value(p) + ||p - x||^2 / (2 gamma)`` at ``p =
    prox(x)``; any other gives :func:`envelope_value` of its function
    oracle ``{phi,psi}_fn``.  With ``with_psi=False`` the second component
    is identically zero (min-max mode) and is not read.
    """
    val = _envelope(problem, "phi", x, gamma, tol)
    if with_psi:
        val -= _envelope(problem, "psi", x, gamma, tol)
    return val


def _envelope(problem: DMaxProblem, which: str, x: np.ndarray, gamma: float,
              tol: float) -> float:
    """Envelope value of Phi or Psi at ``x``: see :func:`smoothed_objective`."""
    aux = problem.exact_aux
    prox_map = getattr(aux, f"prox_{which}", None)
    value_map = getattr(aux, f"value_{which}", None)
    if prox_map is not None and value_map is not None:
        p = prox_map(x, gamma)
        return value_map(p) + float(np.sum((p - x) ** 2)) / (2.0 * gamma)
    fn = getattr(problem, f"{which}_fn")
    if fn is None:
        raise CapabilityError(
            f"the smoothed objective needs exact_aux prox_{which} and "
            f"value_{which}, or {which}_fn")
    return envelope_value(fn, x, gamma, tol=tol)


def smoothness_constant(gamma: float, delta_phi: float,
                        delta_psi: Optional[float] = None) -> float:
    """Gradient-Lipschitz constant of the envelope difference.

    ``L_F = 2 / (gamma - gamma^2 * d)`` with ``d`` the smaller declared
    weak-convexity modulus among the components present (``delta_psi=None``
    means the second component is absent, so ``d = delta_phi``).  With
    ``d = 0`` this degrades gracefully to ``2 / gamma``.
    """
    if not (gamma > 0) or not math.isfinite(gamma):
        raise ParameterError("gamma must be positive and finite")
    if delta_phi < 0 or (delta_psi is not None and delta_psi < 0):
        raise ParameterError("weak-convexity moduli must be nonnegative")
    d = delta_phi if delta_psi is None else min(delta_phi, delta_psi)
    denom = gamma - gamma * gamma * d
    if denom <= 0:
        raise ParameterError(
            f"gamma={gamma} must be < 1/delta={1.0 / d} for a finite constant")
    return 2.0 / denom


def _component_prox(problem: DMaxProblem, which: str, x: np.ndarray,
                    gamma: float, tol: float) -> Tuple[np.ndarray, bool]:
    """Proximal point of one component (Phi or Psi), preferring exact forms."""
    aux = problem.exact_aux
    closed = getattr(aux, f"prox_{which}", None) if aux is not None else None
    if closed is not None:
        return as_vector(closed(x, gamma), dim=x.shape[0],
                         name=f"prox_{which}"), True
    fn = getattr(problem, f"{which}_fn")
    if fn is not None:
        return prox(fn, x, gamma, tol=tol).point, False
    raise CapabilityError(
        f"problem registers neither exact_aux.prox_{which} nor {which}_fn; "
        "cannot compute envelope quantities")


def envelope_prox_points(problem: DMaxProblem, x, gamma: float,
                         tol: float = 1e-8) -> Tuple[np.ndarray, np.ndarray]:
    """Proximal points ``(prox_Phi(x), prox_Psi(x))`` of both components."""
    x = as_vector(x, dim=problem.dim_x, name="x")
    p_phi, _ = _component_prox(problem, "phi", x, gamma, tol)
    p_psi, _ = _component_prox(problem, "psi", x, gamma, tol)
    return p_phi, p_psi


def dmax_envelope_grad(problem: DMaxProblem, x, gamma: float,
                       tol: float = 1e-8) -> np.ndarray:
    """Gradient of ``F_gamma = Phi_gamma - Psi_gamma`` at ``x``.

    The two one-sided envelope gradients ``(x - prox)/gamma`` combine into
    ``(prox_Psi(x) - prox_Phi(x)) / gamma``.
    """
    x = as_vector(x, dim=problem.dim_x, name="x")
    p_phi, p_psi = envelope_prox_points(problem, x, gamma, tol=tol)
    return (p_psi - p_phi) / gamma


@dataclass(frozen=True)
class CriticalityCertificate:
    """Outcome of a near-criticality check at tolerance ``epsilon``.

    A candidate is certified when the envelope gradient at the anchor is
    small, ``||grad F_gamma(x)||^2 <= min(1, 1/gamma^2) epsilon^2 / 4``, and
    the candidate is within ``epsilon/2`` of at least one proximal point.
    """

    grad_env_norm_sq: float
    dist_phi_sq: float
    dist_psi_sq: float
    epsilon: float
    certified: bool


def check_nearly_critical(problem: DMaxProblem, x, x_candidate, gamma: float,
                          epsilon: float, tol: float = 1e-9) -> CriticalityCertificate:
    """Certify that ``x_candidate`` is a nearly epsilon-critical point.

    ``x`` is the anchor whose envelope gradient is measured;
    ``x_candidate`` (typically a prox-point estimator produced by a run)
    must approximate ``prox_Phi(x)`` or ``prox_Psi(x)``.
    """
    if not (epsilon > 0):
        raise ParameterError("epsilon must be positive")
    x = as_vector(x, dim=problem.dim_x, name="x")
    cand = as_vector(x_candidate, dim=problem.dim_x, name="x_candidate")
    p_phi, p_psi = envelope_prox_points(problem, x, gamma, tol=tol)
    g = (p_psi - p_phi) / gamma
    gn2 = float(g @ g)
    d_phi = cand - p_phi
    d_psi = cand - p_psi
    dphi2 = float(d_phi @ d_phi)
    dpsi2 = float(d_psi @ d_psi)
    quarter_eps2 = epsilon * epsilon / 4.0
    grad_thresh = min(1.0, 1.0 / (gamma * gamma)) * quarter_eps2
    certified = gn2 <= grad_thresh and (dphi2 <= quarter_eps2 or dpsi2 <= quarter_eps2)
    return CriticalityCertificate(grad_env_norm_sq=gn2, dist_phi_sq=dphi2,
                                  dist_psi_sq=dpsi2, epsilon=float(epsilon),
                                  certified=certified)
