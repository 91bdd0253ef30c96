"""Tests for the fairness and partial ranking metrics."""

import numpy as np
import pytest

from dmaxopt.core import ParameterError
from dmaxopt.harness import FairnessReport, fairness_metrics, partial_auc


def test_partial_auc_perfect_reversed_tied():
    labels = np.array([1, 1, -1, -1])
    assert partial_auc([4.0, 3.0, 2.0, 1.0], labels, rho=1.0) == 1.0
    assert partial_auc([1.0, 2.0, 3.0, 4.0], labels, rho=1.0) == 0.0
    assert partial_auc([1.0, 1.0, 1.0, 1.0], labels, rho=1.0) == 0.5


def test_partial_auc_restricts_to_hardest_negatives():
    # negatives scored 0,1,2,3 (4 of them), positives at 2.5
    scores = np.array([2.5, 0.0, 1.0, 2.0, 3.0])
    labels = np.array([1, -1, -1, -1, -1])
    # rho=1: positive beats 3 of 4 negatives -> 0.75
    assert partial_auc(scores, labels, rho=1.0) == pytest.approx(0.75)
    # rho=0.5: hardest two are 3,2 -> beats one -> 0.5
    assert partial_auc(scores, labels, rho=0.5) == pytest.approx(0.5)
    # rho=0.25: hardest is 3 -> loses -> 0
    assert partial_auc(scores, labels, rho=0.25) == 0.0


def test_partial_auc_clamps_to_one_negative():
    # floor(0.3 * 1) = 0 -> clamped to the single negative
    scores = np.array([1.0, 0.0])
    labels = np.array([1, -1])
    assert partial_auc(scores, labels, rho=0.3) == 1.0


def _dense_partial_auc(scores, labels, rho):
    """partial_auc as the dense pos x k comparison, for reference."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == -1]
    k = max(1, int(np.floor(rho * neg.size)))
    hardest = np.sort(neg)[::-1][:k]
    wins = (pos[:, None] > hardest[None, :]).sum()
    ties = (pos[:, None] == hardest[None, :]).sum()
    return float(wins + 0.5 * ties) / (pos.size * k)


def test_partial_auc_matches_the_dense_count_on_ties_nan_and_inf():
    rng = np.random.default_rng(0)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
    for _ in range(300):
        n = int(rng.integers(2, 40))
        scores = rng.integers(-3, 4, n).astype(np.float64)  # many ties
        hit = rng.random(n) < 0.3
        scores[hit] = rng.choice(special, size=int(hit.sum()))
        labels = np.where(rng.random(n) < 0.5, 1, -1)
        labels[:2] = [1, -1]
        rho = float(rng.choice([0.01, 0.3, 0.5, 1.0]))
        got = partial_auc(scores, labels, rho)
        want = _dense_partial_auc(scores, labels, rho)
        assert np.float64(got).view(np.uint64) == \
            np.float64(want).view(np.uint64)
    # NaN neither wins nor ties, on either side
    labels = np.array([1, 1, -1, -1])
    assert partial_auc([np.nan, 1.0, 1.0, np.nan], labels, rho=1.0) == 0.125
    assert partial_auc([np.inf, 0.0, np.inf, -np.inf], labels,
                       rho=1.0) == 0.625


def test_partial_auc_validation():
    with pytest.raises(ParameterError):
        partial_auc([1.0], [1], rho=0.3)  # no negatives
    with pytest.raises(ParameterError):
        partial_auc([1.0, 2.0], [1, -1], rho=0.0)


def test_fairness_metrics_hand_built():
    #                 g+:  yhat 1 1 0   g-: yhat 1 0 0 0
    scores = np.array([2.0, 1.0, -1.0, 3.0, -1.0, -2.0, -0.5])
    attrs = np.array([1, 1, 1, -1, -1, -1, -1])
    labels = np.array([1, -1, 1, 1, 1, -1, -1])
    rep = fairness_metrics(scores, labels, attrs, threshold=0.0, rho=1.0)
    # DP: 2/3 vs 1/4
    assert rep.dp == pytest.approx(abs(2 / 3 - 1 / 4))
    # TPR: g+ labels +1 at idx 0,2 -> 1/2; g- labels +1 at 3,4 -> 1/2
    assert rep.eop == pytest.approx(0.0)
    # FPR: g+ label -1 at idx 1 -> 1/1; g- label -1 at 5,6 -> 0/2
    assert rep.eod == pytest.approx(1.0)
    assert isinstance(rep, FairnessReport)


def test_threshold_is_strict():
    scores = np.array([0.0, 0.0, 1.0, 1.0])
    labels = np.array([1, -1, 1, -1])
    attrs = np.array([1, 1, -1, -1])
    rep = fairness_metrics(scores, labels, attrs, threshold=0.0, rho=1.0)
    # scores exactly at the threshold predict negative: g+ rate 0, g- rate 1
    assert rep.dp == pytest.approx(1.0)
    rep2 = fairness_metrics(scores, labels, attrs, threshold=1.0, rho=1.0)
    assert rep2.dp == pytest.approx(0.0)


def test_empty_slice_errors_name_the_group():
    scores = np.array([1.0, -1.0])
    with pytest.raises(ParameterError, match="attribute [+]1"):
        fairness_metrics(scores, [1, -1], [-1, -1])
    # group present but missing a label class (for EOP)
    scores3 = np.array([1.0, -1.0, 0.5])
    with pytest.raises(ParameterError, match="attribute -1 and label [+]1"):
        fairness_metrics(scores3, [1, 1, -1], [1, 1, -1])


def test_shape_validation():
    with pytest.raises(ParameterError):
        fairness_metrics([1.0, 2.0], [1], [1, -1])
    with pytest.raises(ParameterError):
        fairness_metrics([], [], [])
