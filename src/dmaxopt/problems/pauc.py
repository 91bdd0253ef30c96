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
    _IndexOracle,
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


def _inactive_ends(hp: np.ndarray, h: np.ndarray, s: np.ndarray,
                   c: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per positive ``i``, the ends of its inactive pairs in the sorted
    negative scores ``h``: ``(c - (hp_i - h_j)) ** 2 - s_i <= 0`` exactly
    for ``lo_i <= j < hi_i``.  Rounding is monotone, so the residual
    ``c - (hp_i - h_j)`` does not fall as ``h_j`` rises, and "negative
    residual and active" and "negative residual or inactive" each hold on a
    prefix of ``h``.  One bisection over all positives finds both prefixes
    with the dense formula's own float operations."""
    bits = h.size.bit_length()
    # the padding's residual is +inf: both prefixes end before it
    h = np.concatenate([h, np.full((1 << bits) - h.size, np.inf)])
    lo = np.zeros(hp.size, dtype=np.intp)
    hi = lo.copy()
    for step in (1 << b for b in reversed(range(bits))):
        r = c - (hp - h[lo + (step - 1)])
        lo += step * ((r < 0.0) & (r * r - s > 0.0))
        r = c - (hp - h[hi + (step - 1)])
        hi += step * ((r < 0.0) | (r * r - s <= 0.0))
    return lo, hi


def _sorted_pairs(x: np.ndarray, pos: np.ndarray, neg: np.ndarray, c: float):
    """``s`` of ``x = [w, s]``, the sort order of the negative scores, their
    sorted values minus their median ``m`` as ``g``, ``e = c - hp + m``
    (pair ``(i, j)`` has residual ``e_i + g_j``) and the inactive ends."""
    w, s = split_scorer(x, pos.shape[1], pos.shape[0])
    hp = pos @ w
    h = neg @ w
    order = np.argsort(h)
    h = h[order]
    m = h[h.size // 2]
    return (s, order, h - m, (c - hp) + m) + _inactive_ends(hp, h, s, c)


def _active_sums(v: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Per positive, the sum of ``v`` (sorted positions on the last axis)
    over its active positions ``[0, lo)`` and ``[hi, n)``."""
    zero = np.zeros(v.shape[:-1] + (1,))
    head = np.concatenate([zero, v.cumsum(-1)], -1)
    tail = np.concatenate([v[..., ::-1].cumsum(-1)[..., ::-1], zero], -1)
    return head[..., lo] + tail[..., hi]


def _objective(x: np.ndarray, pos: np.ndarray, neg: np.ndarray,
               params: PaucParams) -> float:
    n_pos, n_neg = pos.shape[0], neg.shape[0]
    s, _, g, e, lo, hi = _sorted_pairs(x, pos, neg, params.c)
    s1, s2 = _active_sums(np.stack([g, g * g]), lo, hi)
    # sum over the active pairs of (e_i + g_j)^2 - s_i
    rows = (lo + (n_neg - hi)) * (e * e - s) + 2.0 * e * s1 + s2
    return float(np.mean(s)) + float(rows.sum()) / (n_pos * params.rho * n_neg)


def pauc_objective(x: np.ndarray, data: LabeledDataset,
                   params: PaucParams) -> float:
    """Full-data CVaR-thresholded partial-AUC surrogate at ``x = [w, s]``.

    The negative scores are sorted once; positive ``i``'s active pairs are
    two runs of them, and its pair sum ``cnt (e_i^2 - s_i) + 2 e_i sum(g) +
    sum(g^2)`` reads prefix sums (see :func:`_sorted_pairs`).  O(n log n)
    time, O(n) memory; equal to the dense formula up to rounding.
    """
    return _objective(x, *_split_counts(data), params)


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
    """Subgradients (g_w, s entries aligned with the rows of ``pos_x``) of
    the hinged pair losses of one mini-batch, from its whole ``bp x bn``
    pair arrays.  A pair is active strictly above its hinge, so a kink
    takes subgradient zero."""
    hp = pos_x @ w
    hn = neg_x @ w
    bp, bn = pos_x.shape[0], neg_x.shape[0]
    resid = np.subtract(hp[:, None], hn)
    np.subtract(c, resid, out=resid)
    margin = np.multiply(resid, resid)
    np.subtract(margin, s_batch[:, None], out=margin)
    active = np.greater(margin, 0.0)
    # d/d(h_i - h_j) of (c - d)^2 on active pairs
    coef = np.where(active, np.multiply(resid, -2.0, out=resid), 0.0)
    # the float64 sum ``active.mean`` takes
    n_active = np.add.reduce(active, axis=1, dtype=np.float64)
    scale = 1.0 / (bp * rho * bn)
    g_w = scale * (pos_x.T @ np.add.reduce(coef, axis=1)
                   - neg_x.T @ np.add.reduce(coef, axis=0))
    g_s = (1.0 - n_active / bn / rho) / bp
    return g_w, g_s


def pauc_full_subgrads(x: np.ndarray, data: LabeledDataset,
                       params: PaucParams) -> np.ndarray:
    """Deterministic full-data subgradient of the task loss in ``[w, s]``.

    The batch oracle's pair formula over the whole populations, so the
    oracle's expectation can be checked against it; it shares no code with
    the oracle.  As in :func:`pauc_objective`, positive ``i``'s coefficient
    ``-2 sum(e_i + g_j)`` reads prefix sums of ``g``.  Negative ``j``'s is
    ``-2 (E_j + m_j g_j)``, where ``E_j`` and ``m_j`` sum ``e_i`` and 1 over
    the positives it is active for: range adds over sorted positions.  The
    ``s`` entries (the active counts) equal the dense formula's bit for
    bit, the ``w`` entries up to rounding.  O(n log n) time, O(n) memory.
    """
    pos, neg = _split_counts(data)
    n_pos, n_neg = pos.shape[0], neg.shape[0]
    _, order, g, e, lo, hi = _sorted_pairs(x, pos, neg, params.c)
    cnt = lo + (n_neg - hi)
    row_coef = -2.0 * (cnt * e + _active_sums(g, lo, hi))

    def range_adds(v):
        # position j sums v_i over the positives with lo_i > j or hi_i <= j
        before = np.bincount(lo, v, n_neg + 1)[:0:-1].cumsum()[::-1]
        return before + np.bincount(hi, v, n_neg + 1)[:-1].cumsum()

    col_coef = np.empty(n_neg)
    col_coef[order] = -2.0 * (range_adds(e) + range_adds(np.ones(n_pos)) * g)
    scale = 1.0 / (n_pos * params.rho * n_neg)
    g_w = scale * (pos.T @ row_coef - neg.T @ col_coef)
    g_s = (1.0 - cnt / n_neg / params.rho) / n_pos
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
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    n_pos, rho, c = pos.shape[0], params.rho, params.c

    r_max = float(np.linalg.norm(data.features, axis=1).max())
    dual_radius = 2.0 * params.alpha_fair * r_max / params.lambda0 + 1.0
    attrs = data.sensitive if data.sensitive is not None else np.ones(
        len(data), dtype=np.int8)

    # the primal oracle draws ``batch_pos`` positives and then
    # ``batch_neg`` negatives with replacement and accumulates the
    # threshold entries of the drawn positives in batch order
    def pair_row(x, y, idx):
        idx_p, idx_n = idx
        out = np.empty(d + n_pos)
        out[:d], g_s = _pair_subgrads(x[:d], x[d:][idx_p], pos[idx_p],
                                      neg[idx_n], rho, c)
        out[d:] = np.bincount(idx_p, weights=g_s, minlength=n_pos)
        return out

    def full_objective(x):
        return _each_row(lambda row: _objective(row, pos, neg, params), x)

    if m_bound is None:
        # Declared for scores within +-5 of the margin; not verified.
        w_scale = 2.0 * (c + 5.0) * 2.0 * r_max / rho
        s_scale = 1.0 + 1.0 / rho
        dual_scale = params.alpha_fair * r_max + params.lambda0 * dual_radius
        m_bound = math.sqrt(w_scale ** 2 + s_scale ** 2 + dual_scale ** 2)

    return DMaxProblem(
        dim_x=d + n_pos,
        constants=ProblemConstants(delta_phi=0.0, delta_psi=0.0,
                                   mu_phi=params.lambda0, l_phi_yx=0.0,
                                   m_bound=float(m_bound)),
        phi_subgrad_x=_IndexOracle(((n_pos, params.batch_pos),
                                    (len(neg), params.batch_neg)),
                                   d + n_pos, pair_row),
        # the adversary gradient on ``batch_attr`` examples; it reads no ``x``
        phi_grad_y=_IndexOracle(
            ((len(data), params.batch_attr),), d,
            lambda x, y, idx: fairness_dual_grad(
                y, data.features[idx[0]], attrs[idx[0]], params)),
        psi_subgrad_x=None,
        psi_grad_z=None,
        set_y=ball(np.zeros(d), dual_radius),
        set_z=None,
        full_objective=full_objective,
        # 2: sorted full-data maps; trace objectives moved by ulps from 1
        name="pauc-fair/2",
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
