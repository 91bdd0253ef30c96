"""Group-fairness and ranking metrics for scored binary datasets.

All metrics operate on raw scores, hard thresholded at ``threshold``
(strictly greater means predicted positive).  Groups and labels are
encoded as {-1, +1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import ParameterError

__all__ = ["FairnessReport", "fairness_metrics", "partial_auc"]


@dataclass(frozen=True)
class FairnessReport:
    """Fairness gaps (each in [0, 1], smaller is fairer) plus ranking
    quality restricted to the hardest negatives."""

    dp: float
    eop: float
    eod: float
    pauc: float


def _rate(mask_num, mask_den, what: str) -> float:
    den = int(np.count_nonzero(mask_den))
    if den == 0:
        raise ParameterError(f"empty group: no examples with {what}")
    return float(np.count_nonzero(mask_num & mask_den)) / den


def partial_auc(scores: np.ndarray, labels: np.ndarray,
                rho: float = 0.3) -> float:
    """Pairwise AUC against the top ``floor(rho * n_neg)`` scoring negatives.

    A positive-negative pair counts 1 if the positive outranks the
    negative, 0.5 on ties.  With at least one negative, at least one pair
    is always formed (the fraction is clamped to one negative minimum).
    """
    if not 0.0 < rho <= 1.0:
        raise ParameterError("rho must lie in (0, 1]")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == -1]
    if pos.size == 0 or neg.size == 0:
        raise ParameterError("partial_auc needs both classes present")
    k = max(1, int(np.floor(rho * neg.size)))
    # The k largest negatives, ascending.  A pair with a NaN neither wins
    # nor ties.  NaN sorts last, so it is taken first here and lies above
    # every searched score; NaN positives are dropped before the search.
    hardest = np.sort(neg)[neg.size - k:]
    ranked = pos[~np.isnan(pos)]
    below = np.searchsorted(hardest, ranked, "left")
    wins = below.sum()
    ties = (np.searchsorted(hardest, ranked, "right") - below).sum()
    return float(wins + 0.5 * ties) / (pos.size * k)


def fairness_metrics(scores, labels, attrs, threshold: float = 0.0,
                     rho: float = 0.3) -> FairnessReport:
    """Demographic parity, equal opportunity, equalized odds, and pAUC.

    DP compares positive-prediction rates between groups; EOP compares
    true-positive rates; EOD takes the worse of the TPR and FPR gaps.
    Raises if a group (or a class within a group, for EOP/EOD) is empty,
    naming the missing slice.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    attrs = np.asarray(attrs)
    if not (scores.shape == labels.shape == attrs.shape) or scores.ndim != 1:
        raise ParameterError("scores, labels, attrs must be equal-length 1-D")
    if scores.size == 0:
        raise ParameterError("empty dataset")
    yhat = scores > threshold

    g_pos = attrs == 1
    g_neg = attrs == -1
    dp = abs(_rate(yhat, g_pos, "attribute +1")
             - _rate(yhat, g_neg, "attribute -1"))
    tpr_gap = abs(
        _rate(yhat, g_pos & (labels == 1), "attribute +1 and label +1")
        - _rate(yhat, g_neg & (labels == 1), "attribute -1 and label +1"))
    fpr_gap = abs(
        _rate(yhat, g_pos & (labels == -1), "attribute +1 and label -1")
        - _rate(yhat, g_neg & (labels == -1), "attribute -1 and label -1"))
    return FairnessReport(dp=dp, eop=tpr_gap, eod=max(tpr_gap, fpr_gap),
                          pauc=partial_auc(scores, labels, rho))
