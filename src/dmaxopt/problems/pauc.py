"""Partial-AUC maximization with per-positive CVaR thresholds and an
adversarial group-fairness regularizer.

The primal variable stacks a linear scorer and one threshold per positive
example, ``x = [w, s]``.  With squared pairwise surrogate
``L_ij = (c - (h_i - h_j))^2`` on scores ``h = <w, feature>``, the task
loss restricted to the worst ``rho``-fraction of negatives is::

    F(w, s) = (1/n_pos) sum_i [ s_i + (1/(rho n_neg)) sum_j max(L_ij - s_i, 0) ]

which is jointly convex in (w, s).  The fairness adversary holds its own
linear head ``w_a`` and tries to predict the sensitive attribute from the
features; its payoff enters the objective as
``alpha * F_fair(w_a) - (lambda0/2) ||w_a||^2``, making the problem
lambda0-strongly concave in the dual.  Note the adversary head is
decoupled from the scorer: its payoff does not depend on ``w``, so the
regularizer shapes only the adversary while leaving the primal descent
direction unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core import (
    DMaxProblem,
    ParameterError,
    ProblemConstants,
    _each_row,
    ball,
    token_generator,
)
from .data import LabeledDataset

__all__ = [
    "PaucParams",
    "pauc_objective",
    "fairness_payoff",
    "pauc_full_subgrads",
    "fairness_dual_grad",
    "pauc_fair_problem",
    "split_scorer",
    "synth_biased_pauc",
]

_DATA_SALT = 0xFA1B


@dataclass(frozen=True)
class PaucParams:
    """Hyperparameters for the partial-AUC objective.

    ``rho`` is the FPR cap (fraction of hardest negatives), ``c`` the
    surrogate margin, ``alpha_fair`` the adversary weight, ``lambda0``
    the adversary's concavity modulus.
    """

    rho: float = 0.3
    c: float = 1.0
    alpha_fair: float = 0.0
    lambda0: float = 1.0
    batch_pos: int = 64
    batch_neg: int = 64
    batch_attr: int = 64

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ParameterError("rho must lie in (0, 1]")
        if self.c <= 0:
            raise ParameterError("margin c must be positive")
        if self.alpha_fair < 0:
            raise ParameterError("alpha_fair must be nonnegative")
        if self.lambda0 <= 0:
            raise ParameterError("lambda0 must be positive")
        if min(self.batch_pos, self.batch_neg, self.batch_attr) < 1:
            raise ParameterError("batch sizes must be >= 1")


def _split_counts(data: LabeledDataset) -> Tuple[np.ndarray, np.ndarray]:
    pos = data.features[data.labels == 1]
    neg = data.features[data.labels == -1]
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise ParameterError("need at least one positive and one negative")
    return pos, neg


def split_scorer(x: np.ndarray, dim: int, n_pos: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Split the stacked primal vector into (w, s)."""
    if x.shape != (dim + n_pos,):
        raise ParameterError(
            f"primal has shape {x.shape}, expected ({dim + n_pos},)")
    return x[:dim], x[dim:]


# Leaves of the blocked pair sum hold at most this many pair losses (512 KB
# of float64).  It must be at least 128, numpy's pairwise-sum leaf, so that
# every node split here is split the same way by numpy.
_PAIR_BLOCK = 1 << 16


def _hinged_pair_sum(hp: np.ndarray, hn: np.ndarray, s: np.ndarray,
                     c: float) -> float:
    """``np.maximum((c - (hp[:, None] - hn)) ** 2 - s[:, None], 0).sum()``,
    bit for bit, without the ``n_pos x n_neg`` temporaries.

    ``sum`` of a C-contiguous float64 array is numpy's pairwise sum over
    the flattened array: a node of more than 128 elements splits at
    ``n // 2`` rounded down to a multiple of 8.  This walks the same tree
    down to nodes of at most ``_PAIR_BLOCK`` pairs, fills each node's flat
    range into one reused buffer with the same ufuncs, sums it with numpy
    and adds the halves in tree order.
    """
    n_neg = hn.size
    buf = np.empty(min(hp.size * n_neg, _PAIR_BLOCK))

    def fill(out, i0, i1, j0, j1):
        # pairs (rows i0:i1, columns j0:j1) into the flat buffer slice ``out``
        out = out.reshape(i1 - i0, j1 - j0)
        np.subtract(hp[i0:i1, None], hn[j0:j1], out=out)
        np.subtract(c, out, out=out)
        np.square(out, out=out)
        np.subtract(out, s[i0:i1, None], out=out)
        np.maximum(out, 0.0, out=out)

    def node(lo: int, n: int) -> float:
        if n > _PAIR_BLOCK:
            half = n // 2
            half -= half % 8
            return node(lo, half) + node(lo + half, n - half)
        i0, j0 = divmod(lo, n_neg)
        i1, j1 = divmod(lo + n, n_neg)
        out = buf[:n]
        if i0 == i1:
            fill(out, i0, i0 + 1, j0, j1)
        else:
            # first row's tail, the full rows, then the last row's head
            head = n_neg - j0
            fill(out[:head], i0, i0 + 1, j0, n_neg)
            fill(out[head:n - j1], i0 + 1, i1, 0, n_neg)
            if j1:
                fill(out[n - j1:], i1, i1 + 1, 0, j1)
        return out.sum()

    try:
        return float(node(0, hp.size * n_neg))
    finally:
        del node  # ``node`` refers to itself through its closure cell


def _objective(x: np.ndarray, pos: np.ndarray, neg: np.ndarray,
               params: PaucParams) -> float:
    n_pos, n_neg = pos.shape[0], neg.shape[0]
    w, s = split_scorer(x, pos.shape[1], n_pos)
    pair_sum = _hinged_pair_sum(pos @ w, neg @ w, s, params.c)
    return float(np.mean(s)) + pair_sum / (n_pos * params.rho * n_neg)


def pauc_objective(x: np.ndarray, data: LabeledDataset,
                   params: PaucParams) -> float:
    """Full-data CVaR-thresholded partial-AUC surrogate at ``x = [w, s]``.

    The pair losses are summed in blocks, in the order of numpy's own
    ``sum`` over the dense ``n_pos x n_neg`` array, so the value is the
    dense formula's to the bit.
    """
    pos, neg = _split_counts(data)
    return _objective(x, pos, neg, params)


def fairness_payoff(w_a: np.ndarray, data: LabeledDataset) -> float:
    """Adversary log-likelihood of the sensitive attribute (no penalty term).

    Mean over the dataset of ``log sigma(<w_a,x>)`` on group +1 and
    ``log(1 - sigma(<w_a,x>))`` on group -1, computed stably.
    """
    if data.sensitive is None:
        raise ParameterError("dataset has no sensitive attributes")
    t = data.features @ w_a
    # log sigma(t) = -log1p(exp(-t)); log(1-sigma(t)) = -t - log1p(exp(-t))
    softplus = np.logaddexp(0.0, -t)
    vals = np.where(data.sensitive == 1, -softplus, -t - softplus)
    return float(np.mean(vals))


def _pair_subgrads(w, s_batch, pos_x, neg_x, rho, c):
    """Per-batch subgradients of the hinged pair losses.

    Returns (g_w, per_pos_s_grad) where the s entries are aligned with the
    rows of ``pos_x``.  The hinge kink takes subgradient zero (strict
    inequality activates a pair).

    The ``bp x bn`` pair arrays are built a block of rows at a time, at
    most ``_PAIR_BLOCK`` pairs each, and reduced as numpy reduces the dense
    arrays, so the result is the dense formula's to the bit: each row is
    summed on its own, and columns add the rows in order, from zero.  A
    single column is one contiguous (pairwise) sum, so it stays one block.
    """
    hp = pos_x @ w
    hn = neg_x @ w
    bp, bn = pos_x.shape[0], neg_x.shape[0]
    row_coef = np.empty(bp)
    n_active = np.empty(bp)
    rows = bp if bn == 1 else max(1, _PAIR_BLOCK // bn)
    for i0 in range(0, bp, rows):
        i1 = min(i0 + rows, bp)
        resid = np.subtract(hp[i0:i1, None], hn)
        np.subtract(c, resid, out=resid)
        margin = np.multiply(resid, resid)
        np.subtract(margin, s_batch[i0:i1, None], out=margin)
        active = np.greater(margin, 0.0)
        # d/d(h_i - h_j) of (c - d)^2 on active pairs
        coef = np.where(active, np.multiply(resid, -2.0, out=resid), 0.0)
        np.add.reduce(coef, axis=1, out=row_coef[i0:i1])
        # the float64 sum ``active.mean`` takes
        np.add.reduce(active, axis=1, dtype=np.float64, out=n_active[i0:i1])
        if i0 == 0:
            col_coef = np.add.reduce(coef, axis=0)
        else:
            for row in coef:
                np.add(col_coef, row, out=col_coef)
    scale = 1.0 / (bp * rho * bn)
    g_w = scale * (pos_x.T @ row_coef - neg_x.T @ col_coef)
    g_s = (1.0 - n_active / bn / rho) / bp
    return g_w, g_s


def pauc_full_subgrads(x: np.ndarray, data: LabeledDataset,
                       params: PaucParams) -> np.ndarray:
    """Deterministic full-data subgradient of the task loss in ``[w, s]``.

    Same pair formula as the batch oracle with the batches equal to the
    whole populations, so the stochastic oracle's expectation can be
    checked against it directly.  The pairs are processed in blocks, so
    memory stays small at any population size.
    """
    pos, neg = _split_counts(data)
    w, s = split_scorer(x, data.dimension, pos.shape[0])
    g_w, g_s = _pair_subgrads(w, s, pos, neg, params.rho, params.c)
    return np.concatenate([g_w, g_s])


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-t))`` for ``t >= 0`` and ``e / (1 + e)`` with
    ``e = exp(t)`` otherwise, so no ``exp`` overflows.  ``minimum(t, -t)``
    is ``-|t|`` and passes a NaN through with its sign bit."""
    e = np.exp(np.minimum(t, -t))
    d = 1.0 + e
    return np.where(t >= 0, 1.0 / d, e / d)


def fairness_dual_grad(w_a: np.ndarray, feats: np.ndarray,
                       attrs: np.ndarray, params: PaucParams) -> np.ndarray:
    """Gradient of ``alpha * F_fair(w_a) - (lambda0/2)||w_a||^2`` over the
    given sample block."""
    sig = _sigmoid(feats @ w_a)
    ind = (attrs == 1).astype(np.float64)
    g = (feats.T @ (ind - sig)) / feats.shape[0]
    return params.alpha_fair * g - params.lambda0 * w_a


def pauc_fair_problem(data: LabeledDataset, params: PaucParams,
                      m_bound: Optional[float] = None) -> DMaxProblem:
    """Wrap the fairness-regularized partial-AUC task as a min-max problem.

    Primal dimension is ``d + n_pos`` (scorer plus per-positive CVaR
    thresholds); the dual is the adversary head, constrained to a ball
    that provably contains the unconstrained best response.
    """
    if params.alpha_fair > 0 and data.sensitive is None:
        raise ParameterError(
            "alpha_fair > 0 requires sensitive attributes on the dataset")
    pos, neg = _split_counts(data)
    d = data.dimension
    n_pos, n_neg = pos.shape[0], neg.shape[0]
    dim_x = d + n_pos
    rho, c = params.rho, params.c

    r_max = float(np.linalg.norm(data.features, axis=1).max())
    dual_radius = 2.0 * params.alpha_fair * r_max / params.lambda0 + 1.0
    feats = data.features
    attrs = data.sensitive if data.sensitive is not None else np.ones(
        len(data), dtype=np.int8)

    def phi_subgrad_x(x, y, token):
        w, s = x[:d], x[d:]
        gen = token_generator(int(token))
        idx_p = gen.integers(0, n_pos, size=params.batch_pos)
        idx_n = gen.integers(0, n_neg, size=params.batch_neg)
        g_w, g_s_batch = _pair_subgrads(w, s[idx_p], pos[idx_p], neg[idx_n],
                                        rho, c)
        g_s = np.bincount(idx_p, weights=g_s_batch, minlength=n_pos)
        return np.concatenate([g_w, g_s])

    def phi_grad_y(x, y, token):
        gen = token_generator(int(token))
        idx = gen.integers(0, len(data), size=params.batch_attr)
        return fairness_dual_grad(y, feats[idx], attrs[idx], params)

    def full_objective(x):
        return _each_row(lambda row: _objective(row, pos, neg, params), x)

    if m_bound is None:
        # Declared for scores within +-5 of the margin; not verified.
        w_scale = 2.0 * (c + 5.0) * 2.0 * r_max / rho
        s_scale = 1.0 + 1.0 / rho
        dual_scale = params.alpha_fair * r_max + params.lambda0 * dual_radius
        m_bound = math.sqrt(w_scale ** 2 + s_scale ** 2 + dual_scale ** 2)

    return DMaxProblem(
        dim_x=dim_x,
        constants=ProblemConstants(delta_phi=0.0, delta_psi=0.0,
                                   mu_phi=params.lambda0, l_phi_yx=0.0,
                                   m_bound=float(m_bound)),
        phi_subgrad_x=phi_subgrad_x,
        phi_grad_y=phi_grad_y,
        psi_subgrad_x=None,
        psi_grad_z=None,
        set_y=ball(np.zeros(d), dual_radius),
        set_z=None,
        full_objective=full_objective,
        name="pauc-fair",
    )


def synth_biased_pauc(n: int, dim: int, seed: int, *,
                      sep_label: float = 1.0, sep_group: float = 1.0,
                      skew: float = 0.65) -> LabeledDataset:
    """Group-correlated binary data for fairness experiments.

    Sensitive attribute a is +-1 uniform; the label is +1 with probability
    ``skew`` in group +1 and ``1 - skew`` in group -1, so label and group
    are correlated.  Features shift by the label along e1 and by the group
    along e2, making group information linearly recoverable from scores.
    """
    if n < 4 or dim < 2:
        raise ParameterError("need n >= 4 and dim >= 2")
    if not 0.0 < skew < 1.0:
        raise ParameterError("skew must lie strictly between 0 and 1")
    gen = token_generator(int(seed), salt=_DATA_SALT)
    attrs = np.where(gen.random(n) < 0.5, 1, -1).astype(np.int8)
    p_pos = np.where(attrs == 1, skew, 1.0 - skew)
    labels = np.where(gen.random(n) < p_pos, 1, -1).astype(np.int8)
    x = gen.standard_normal((n, dim))
    x[:, 0] += sep_label * labels
    x[:, 1] += sep_group * attrs
    return LabeledDataset(x, labels, attrs)
