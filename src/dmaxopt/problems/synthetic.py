"""Closed-form synthetic test problems with exact auxiliary oracles.

These instances exist so that envelope gradients, proximal points, best
responses, and potential diagnostics can be verified against closed forms.
Both builders accept optional additive Gaussian oracle noise; with
``noise_sigma=0`` the stochastic oracles coincide with the deterministic
subgradients.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core import (
    DMaxProblem,
    ExactAux,
    FunctionOracle,
    ParameterError,
    ProblemConstants,
    _clip,
    _normals,
    box,
    token_generator,
)

__all__ = [
    "piecewise_quadratic",
    "zero_function",
    "make_onedim_dwc",
    "make_quadratic_minmax",
]


def zero_function(dim: int = 1) -> FunctionOracle:
    """The zero function; its prox is the identity."""
    return FunctionOracle(
        value=lambda u: 0.0,
        subgrad=lambda u: np.zeros_like(u),
        delta=0.0,
        differentiable=True,
        prox=lambda v, gamma: np.asarray(v, dtype=np.float64).copy(),
        kink_gap=lambda v, gamma: math.inf,
    )


def _require_finite(**params: float) -> None:
    for name, v in params.items():
        if not math.isfinite(v):
            raise ParameterError(f"{name} must be finite, got {v!r}")


def _per_point(v):
    """A float for one point, the ``(S,)`` array for a stack of them."""
    return float(v) if v.ndim == 0 else v


def piecewise_quadratic(a: float = 1.0, center: float = 0.0,
                        curvature: float = 0.0) -> FunctionOracle:
    """Separable ``f(u) = a * sum_i |u_i - center| + (curvature/2) ||u||^2``.

    Negative ``curvature`` makes the function genuinely weakly convex with
    modulus ``-curvature``.  The proximal map is a shifted soft-threshold,
    exact in every dimension; ``kink_gap`` reports the distance to the
    nearest point where the Moreau envelope loses second-order smoothness
    (where the prox crosses the |.| kink).  ``value`` and the prox map
    also take an ``(S, dim)`` stack, row by row.
    """
    _require_finite(a=a, center=center, curvature=curvature)
    if a < 0:
        raise ParameterError("the |.| weight must be nonnegative")
    a = float(a)
    c = float(center)
    kappa = float(curvature)
    delta = max(0.0, -kappa)

    def value(u: np.ndarray):
        # vecdot calls the dot that ``u @ u`` calls, once per row
        return _per_point(a * np.add.reduce(np.abs(u - c), axis=-1)
                          + 0.5 * kappa * np.vecdot(u, u))

    # u - (+0.0) is u to the bit (also for u = -0.0), so a centre at +0.0
    # needs no shift; a centre at -0.0 would turn u = -0.0 into +0.0.
    unshifted = c == 0.0 and math.copysign(1.0, c) > 0.0
    # at kappa 0 a finite u makes kappa * u a signed zero, which leaves
    # a * sign (+-a, or +0.0 as np.sign(-0.0) is +0.0) as it is when a > 0
    flat = kappa == 0.0 and a > 0.0
    # the step's operands as 0-d float64 arrays: a ufunc takes one at a
    # lower call cost than a Python float, with the same bits
    a0, c0, kappa0 = np.array(a), np.array(c), np.array(kappa)

    def subgrad(u: np.ndarray) -> np.ndarray:
        s = a0 * np.sign(u if unshifted else u - c0)
        return s if flat else s + kappa0 * u

    def prox_map(v: np.ndarray, gamma: float) -> np.ndarray:
        big_a = kappa + 1.0 / gamma
        if big_a <= 0:
            raise ParameterError("prox undefined: gamma too large for curvature")
        m = ((v - c) / gamma - kappa * c) / big_a
        thr = a / big_a
        p = np.sign(m) * np.maximum(np.abs(m) - thr, 0.0)
        return c + p

    def kink_gap(v: np.ndarray, gamma: float) -> float:
        if a == 0.0:
            return math.inf
        center_v = c * (1.0 + gamma * kappa)
        return float(np.min(np.abs(np.abs(v - center_v) - gamma * a)))

    return FunctionOracle(value=value, subgrad=subgrad, delta=delta,
                          differentiable=(a == 0.0), prox=prox_map,
                          kink_gap=kink_gap)


class _NoisyOracle:
    """The stochastic oracle ``g(x, dual) + sigma * N(0, I_dim)``, its
    noise realized from the sample token (none when ``sigma`` is 0).

    Called as ``(x, dual, token)`` or in the batched form of
    :class:`DMaxProblem`, whose batch is the noise times ``sigma``,
    realized in bulk; both give the same bits.
    """

    def __init__(self, g, sigma: float, dim: int):
        self.g, self.sigma, self.dim = g, sigma, dim

    def __call__(self, x, dual, token):
        return self.grad(x, dual, None if self.sigma == 0.0 else self.sigma
                         * token_generator(token).standard_normal(self.dim))

    def sample(self, tokens) -> Optional[np.ndarray]:
        return (None if self.sigma == 0.0
                else self.sigma * _normals(tokens, self.dim))

    def grad(self, x, dual, noise):
        g = self.g(x, dual)
        return g if noise is None else g + noise


def make_onedim_dwc(a: float, b: float, kappa_phi: float = 0.0,
                    kappa_psi: float = 0.0, center_phi: float = 0.0,
                    center_psi: float = 0.0, noise_sigma: float = 0.0,
                    dim: int = 1, m_bound: Optional[float] = None
                    ) -> DMaxProblem:
    """Difference of shifted scaled |.| functions with optional curvature.

    ``phi(x) = a |x - c1| + (kappa_phi/2) x^2`` and
    ``psi(x) = b |x - c2| + (kappa_psi/2) x^2`` (summed coordinatewise for
    ``dim > 1``).  Neither component has an inner max, so the problem has
    no duals.  Exact soft-threshold prox maps and component values are
    registered in ``exact_aux``.  Combinations that make ``phi - psi``
    unbounded below (dominating psi curvature, or equal curvature with
    ``b > a``) are rejected, and so is any non-finite parameter.
    """
    _require_finite(a=a, b=b, kappa_phi=kappa_phi, kappa_psi=kappa_psi,
                    center_phi=center_phi, center_psi=center_psi,
                    noise_sigma=noise_sigma)
    if a < 0 or b < 0:
        raise ParameterError("a and b must be nonnegative")
    if noise_sigma < 0:
        raise ParameterError("noise_sigma must be nonnegative")
    if dim < 1:
        raise ParameterError("dim must be >= 1")
    if kappa_phi < kappa_psi or (kappa_phi == kappa_psi and b > a):
        raise ParameterError(
            "phi - psi is unbounded below for these parameters")

    phi = piecewise_quadratic(a, center_phi, kappa_phi)
    psi = piecewise_quadratic(b, center_psi, kappa_psi)
    sigma = float(noise_sigma)

    if m_bound is None:
        # Declared for a |x| <= 5 operating region, not verified globally.
        m_bound = math.sqrt(dim) * (max(a, b)
                                    + 5.0 * max(abs(kappa_phi), abs(kappa_psi))
                                    + sigma) + 1e-12

    constants = ProblemConstants(delta_phi=phi.delta, delta_psi=psi.delta,
                                 m_bound=float(m_bound))
    aux = ExactAux(
        prox_phi=phi.prox,
        prox_psi=psi.prox,
        value_phi=phi.value,
        value_psi=psi.value,
    )
    return DMaxProblem(
        dim_x=dim,
        constants=constants,
        phi_subgrad_x=_NoisyOracle(lambda x, y: phi.subgrad(x), sigma, dim),
        psi_subgrad_x=_NoisyOracle(lambda x, z: psi.subgrad(x), sigma, dim),
        exact_aux=aux,
        phi_fn=phi,
        psi_fn=psi,
        full_objective=lambda x: phi.value(x) - psi.value(x),
        name="onedim-dwc",
    )


def _huber_oracle(dim: int) -> FunctionOracle:
    """Coordinatewise Huber function: the exact max over y in [-1,1] of
    x*y - y^2/2, i.e. u^2/2 for |u| <= 1 and |u| - 1/2 outside.  ``value``
    and the prox map also take an ``(S, dim)`` stack, row by row."""

    def value(u: np.ndarray):
        au = np.abs(u)
        inner = au <= 1.0
        # np.add.reduce is what .sum() calls, without its wrappers
        return _per_point(np.add.reduce(
            np.where(inner, 0.5 * u * u, au - 0.5), axis=-1))

    def grad(u: np.ndarray) -> np.ndarray:
        return _clip(u, -1.0, 1.0)

    def prox_map(v: np.ndarray, gamma: float) -> np.ndarray:
        # Solve u + gamma * clip(u, -1, 1) = v coordinatewise.
        inner = np.abs(v) <= 1.0 + gamma
        return np.where(inner, v / (1.0 + gamma), v - gamma * np.sign(v))

    def kink_gap(v: np.ndarray, gamma: float) -> float:
        return float(np.min(np.abs(np.abs(v) - (1.0 + gamma))))

    return FunctionOracle(value=value, subgrad=grad, delta=0.0,
                          differentiable=True, prox=prox_map,
                          kink_gap=kink_gap)


def make_quadratic_minmax(dim: int = 1, noise_sigma: float = 0.0,
                          m_bound: Optional[float] = None) -> DMaxProblem:
    """Min-max test problem ``phi(x, y) = <x, y> - ||y||^2/2`` on ``[-1,1]^dim``.

    The inner max has the closed best response ``y*(x) = clip(x, -1, 1)``
    and value ``Phi(x) = sum_i huber(x_i)``; the second component is the
    zero function (its prox is the identity) with no inner max, so the
    same instance also runs in dmax/dwc modes.  Structural constants:
    ``delta_phi = 0``, ``mu_phi = 1``, ``L_{phi,yx} = 1``.
    """
    if dim < 1:
        raise ParameterError("dim must be >= 1")
    _require_finite(noise_sigma=noise_sigma)
    if noise_sigma < 0:
        raise ParameterError("noise_sigma must be nonnegative")
    sigma = float(noise_sigma)
    huber = _huber_oracle(dim)
    zero = zero_function(dim)

    if m_bound is None:
        m_bound = 2.0 * math.sqrt(dim) * (1.0 + sigma) + 1.0

    constants = ProblemConstants(delta_phi=0.0, delta_psi=0.0, mu_phi=1.0,
                                 l_phi_yx=1.0, m_bound=float(m_bound))
    aux = ExactAux(
        prox_phi=huber.prox,
        prox_psi=zero.prox,
        best_response_y=lambda x: _clip(x, -1.0, 1.0),
        value_phi=huber.value,
        value_psi=zero.value,
    )
    ybox = box(-np.ones(dim), np.ones(dim))
    return DMaxProblem(
        dim_x=dim,
        constants=constants,
        phi_subgrad_x=_NoisyOracle(lambda x, y: y.copy(), sigma, dim),
        phi_grad_y=_NoisyOracle(lambda x, y: x - y, sigma, dim),
        psi_subgrad_x=_NoisyOracle(lambda x, z: np.zeros(x.shape), 0.0, dim),
        set_y=ybox,
        exact_aux=aux,
        phi_fn=huber,
        psi_fn=zero,
        full_objective=huber.value,
        name="quadratic-minmax",
    )
