"""Positive-unlabeled linear classification as a difference of convex risks.

With hinge loss ``l(w; x, y) = max(0, 1 - y <w, x>)``, the unbiased
positive-unlabeled risk decomposes as ``phi(w) - psi(w)`` where both parts
are convex::

    phi(w) = pi_p * E_pos[l(w; x, +1)] + E_unl[l(w; x, -1)]
    psi(w) = pi_p * E_pos[l(w; x, -1)]

``pi_p`` is the (known) class prior of the positives among the unlabeled
pool.  Mini-batch oracles sample with replacement; the phi and psi oracles
consume their token so that equal tokens share the same positive batch,
which is what couples them in shared-sample mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core import (
    DMaxProblem,
    FunctionOracle,
    ParameterError,
    ProblemConstants,
    _IndexOracle,
    _each_row,
    token_generator,
)
from .data import LabeledDataset

__all__ = [
    "PuParams",
    "pu_full_subgrads",
    "make_pu_problem",
    "synth_gaussian_pu",
]

_DATA_SALT = 0xDA7A


@dataclass(frozen=True)
class PuParams:
    pi_p: float
    batch_pos: int = 64
    batch_unl: int = 64

    def __post_init__(self):
        if not 0.0 < self.pi_p < 1.0:
            raise ParameterError("pi_p must lie strictly between 0 and 1")
        if self.batch_pos < 1 or self.batch_unl < 1:
            raise ParameterError("batch sizes must be >= 1")


def _hinge(margins: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, 1.0 - margins)


def _phi_batch_grad(w, pos_x, unl_x, pi_p):
    # hinge l(w;x,+1) active strictly below margin 1 (zero at the kink)
    act_p = (pos_x @ w) < 1.0
    g = -pi_p * (pos_x.T @ act_p) / pos_x.shape[0]
    act_u = (unl_x @ w) > -1.0  # l(w;x,-1) = max(0, 1 + <w,x>)
    g += (unl_x.T @ act_u) / unl_x.shape[0]
    return g


def _psi_batch_grad(w, pos_x, pi_p):
    act = (pos_x @ w) > -1.0
    return pi_p * (pos_x.T @ act) / pos_x.shape[0]


def pu_full_subgrads(w: np.ndarray, positives: LabeledDataset,
                     unlabeled: LabeledDataset,
                     params: PuParams) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic full-data subgradients of the two convex components."""
    g_phi = _phi_batch_grad(w, positives.features, unlabeled.features,
                            params.pi_p)
    g_psi = _psi_batch_grad(w, positives.features, params.pi_p)
    return g_phi, g_psi


def make_pu_problem(positives: LabeledDataset, unlabeled: LabeledDataset,
                    params: PuParams,
                    m_bound: Optional[float] = None) -> DMaxProblem:
    """Wrap the PU risk as a difference-of-convex problem object.

    No closed-form prox exists, so ``exact_aux`` is not set; the full-data
    components are registered as deterministic function oracles, which is
    enough for iterative envelope evaluation on small datasets.
    """
    if len(positives) == 0 or len(unlabeled) == 0:
        raise ParameterError("positives and unlabeled sets must be non-empty")
    if positives.dimension != unlabeled.dimension:
        raise ParameterError("positive and unlabeled dimensions differ")
    dim = positives.dimension
    if dim < 1:
        raise ParameterError(f"dimension must be >= 1, got {dim}")
    pi_p = params.pi_p
    pos, unl = positives.features, unlabeled.features

    # the phi oracle draws ``batch_pos`` positives and then ``batch_unl``
    # unlabeled points with replacement, so that a token draws the
    # positives the psi oracle draws from it
    def phi_row(x, y, idx):
        idx_p, idx_u = idx
        return _phi_batch_grad(x, pos[idx_p], unl[idx_u], pi_p)

    def phi_value(x):
        mp = positives.features @ x
        mu = unlabeled.features @ x
        return (pi_p * float(np.mean(_hinge(mp)))
                + float(np.mean(_hinge(-mu))))

    def psi_value(x):
        mp = positives.features @ x
        return pi_p * float(np.mean(_hinge(-mp)))

    def risk(w):
        # the full-data unbiased PU hinge risk: the positives' risk labeled
        # +1 minus labeled -1, then the unlabeled points' labeled -1
        mp, mu = pos @ w, unl @ w
        return (pi_p * (float(np.mean(_hinge(mp)))
                        - float(np.mean(_hinge(-mp))))
                + float(np.mean(_hinge(-mu))))

    phi_fn = FunctionOracle(
        value=phi_value,
        subgrad=lambda x: _phi_batch_grad(x, positives.features,
                                          unlabeled.features, pi_p),
        delta=0.0, differentiable=False)
    psi_fn = FunctionOracle(
        value=psi_value,
        subgrad=lambda x: _psi_batch_grad(x, positives.features, pi_p),
        delta=0.0, differentiable=False)

    if m_bound is None:
        r_pos = float(np.linalg.norm(positives.features, axis=1).max())
        r_unl = float(np.linalg.norm(unlabeled.features, axis=1).max())
        m_bound = pi_p * r_pos + r_unl

    return DMaxProblem(
        dim_x=dim,
        constants=ProblemConstants(delta_phi=0.0, delta_psi=0.0,
                                   m_bound=float(m_bound)),
        phi_subgrad_x=_IndexOracle(((len(pos), params.batch_pos),
                                    (len(unl), params.batch_unl)), dim,
                                   phi_row),
        psi_subgrad_x=_IndexOracle(
            ((len(pos), params.batch_pos),), dim,
            lambda x, z, idx: _psi_batch_grad(x, pos[idx[0]], pi_p)),
        phi_fn=phi_fn,
        psi_fn=psi_fn,
        full_objective=lambda x: _each_row(risk, x),
        name="pu-hinge",
    )


def synth_gaussian_pu(n_pos: int, n_unl: int, dim: int, separation: float,
                      pi_p: float, seed: int
                      ) -> Tuple[LabeledDataset, LabeledDataset]:
    """Two-Gaussian PU data: class-conditional N(+/- separation * e1, I).

    Returns (positives, unlabeled); the unlabeled set keeps its hidden
    ground-truth labels (drawn +1 with probability ``pi_p``) for
    evaluation purposes.  Fully deterministic in ``seed``.
    """
    if n_pos < 1 or n_unl < 1 or dim < 1:
        raise ParameterError("n_pos, n_unl, dim must be >= 1")
    if not 0.0 < pi_p < 1.0:
        raise ParameterError("pi_p must lie strictly between 0 and 1")
    gen = token_generator(int(seed), salt=_DATA_SALT)
    shift = np.zeros(dim)
    shift[0] = separation
    pos = gen.standard_normal((n_pos, dim)) + shift
    true_unl = np.where(gen.random(n_unl) < pi_p, 1, -1).astype(np.int8)
    unl = gen.standard_normal((n_unl, dim)) + true_unl[:, None] * shift
    positives = LabeledDataset(pos, np.ones(n_pos, dtype=np.int8))
    unlabeled = LabeledDataset(unl, true_unl)
    return positives, unlabeled
