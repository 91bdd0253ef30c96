"""Tests for the fairness-regularized partial-AUC problem."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from dmaxopt.core import ParameterError, RngStream, contains, token_generator
from dmaxopt.problems import (
    LabeledDataset,
    PaucParams,
    fairness_dual_grad,
    fairness_payoff,
    load_libsvm,
    pauc_fair_problem,
    pauc_full_subgrads,
    pauc_objective,
    split_scorer,
    synth_biased_pauc,
)
from dmaxopt.problems import pauc as pauc_module
from dmaxopt.smag import Schedule, run


def _dense_objective(x, data, params):
    """The objective as the dense n_pos x n_neg formula, for reference."""
    pos = data.features[data.labels == 1]
    neg = data.features[data.labels == -1]
    w, s = split_scorer(x, data.dimension, pos.shape[0])
    hp = pos @ w
    hn = neg @ w
    diffs = hp[:, None] - hn[None, :]
    losses = (params.c - diffs) ** 2
    hinged = np.maximum(losses - s[:, None], 0.0)
    n_pos, n_neg = pos.shape[0], neg.shape[0]
    return float(np.mean(s)) + float(hinged.sum()) / (n_pos * params.rho * n_neg)


# The sorted full-data maps sum in another order than the dense n_pos x
# n_neg formulas: the objective and the w entries of the subgradient must
# agree to this relative tolerance; the active sets, and so the s entries,
# agree bit for bit.
_DENSE_RTOL = 1e-12


def _pauc_data(n_pos, n_neg, dim, seed):
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat([1, -1], [n_pos, n_neg]))
    return LabeledDataset(rng.normal(size=(n_pos + n_neg, dim)), labels)


def _assert_dense_active_sets(x, data, params):
    """The inactive ends bound exactly the dense formula's inactive pairs
    of the sorted negative scores."""
    pos = data.features[data.labels == 1]
    neg = data.features[data.labels == -1]
    w, s = split_scorer(x, data.dimension, pos.shape[0])
    h = np.sort(neg @ w)
    resid = params.c - ((pos @ w)[:, None] - h)
    active = resid * resid - s[:, None] > 0.0
    lo, hi = pauc_module._inactive_ends(pos @ w, h, s, params.c)
    j = np.arange(h.size)
    assert np.array_equal(active, (j < lo[:, None]) | (j >= hi[:, None]))


def _tiny():
    # one positive [1, 0], one negative [0, 1]
    return LabeledDataset(np.array([[1.0, 0.0], [0.0, 1.0]]), [1, -1],
                          sensitive=[1, -1])


def test_objective_hand_computed():
    data = _tiny()
    params = PaucParams(rho=0.5, c=1.0)
    # w = [0.5, -0.5]: h_pos = 0.5, h_neg = -0.5, diff = 1 = c -> loss 0
    x = np.array([0.5, -0.5, 0.2])
    assert pauc_objective(x, data, params) == pytest.approx(0.2)
    # w = 0: loss (1-0)^2 = 1, hinged 1 - 0.2 = 0.8, / (1*0.5*1) = 1.6
    x0 = np.array([0.0, 0.0, 0.2])
    assert pauc_objective(x0, data, params) == pytest.approx(1.8)


def test_full_subgrads_hand_computed():
    data = _tiny()
    x = np.zeros(3)  # w = 0, s = 0: resid = 1, pair active
    g1 = pauc_full_subgrads(x, data, PaucParams(rho=1.0, c=1.0))
    assert np.allclose(g1, [-2.0, 2.0, 0.0])
    g2 = pauc_full_subgrads(x, data, PaucParams(rho=0.5, c=1.0))
    assert np.allclose(g2, [-4.0, 4.0, -1.0])


def test_pair_kink_takes_zero_subgradient():
    data = _tiny()
    params = PaucParams(rho=0.5, c=1.0)
    # s exactly equal to the loss: hinge at its kink -> inactive
    x = np.array([0.0, 0.0, 1.0])  # loss = 1, s = 1
    g = pauc_full_subgrads(x, data, params)
    assert np.allclose(g[:2], [0.0, 0.0])
    assert g[2] == pytest.approx((1.0 - 0.0) / 1.0)  # only the mean(s) term


def test_full_subgrads_match_central_differences():
    data = synth_biased_pauc(24, 3, seed=5)
    n_pos = data.n_pos
    params = PaucParams(rho=0.4, c=1.0)
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.normal(size=3) * 0.5,
                        rng.uniform(0.3, 1.5, size=n_pos)])
    # keep clear of hinge kinks so the objective is differentiable here
    pos = data.features[data.labels == 1]
    neg = data.features[data.labels == -1]
    hp = pos @ x[:3]
    hn = neg @ x[:3]
    losses = (params.c - (hp[:, None] - hn[None, :])) ** 2
    margins = np.abs(losses - x[3:][:, None])
    assert margins.min() > 1e-3, "test point accidentally sits on a kink"
    g = pauc_full_subgrads(x, data, params)
    h = 1e-6
    fd = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fd[i] = (pauc_objective(x + e, data, params)
                 - pauc_objective(x - e, data, params)) / (2 * h)
    assert np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0) < 1e-6


def test_fairness_payoff_frozen_at_zero():
    data = _tiny()
    assert fairness_payoff(np.zeros(2), data) == pytest.approx(math.log(0.5))


def test_fairness_payoff_requires_attributes():
    data = LabeledDataset(np.eye(2), [1, -1])
    with pytest.raises(ParameterError):
        fairness_payoff(np.zeros(2), data)


def test_fairness_dual_grad_matches_central_differences():
    data = synth_biased_pauc(30, 3, seed=9)
    params = PaucParams(alpha_fair=0.7, lambda0=0.9)
    rng = np.random.default_rng(3)
    w_a = rng.normal(size=3)

    def payoff(v):
        return (params.alpha_fair * fairness_payoff(v, data)
                - 0.5 * params.lambda0 * float(v @ v))

    g = fairness_dual_grad(w_a, data.features, data.sensitive, params)
    h = 1e-6
    fd = np.empty_like(w_a)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd[i] = (payoff(w_a + e) - payoff(w_a - e)) / (2 * h)
    assert np.linalg.norm(fd - g) < 1e-8


def test_dual_best_response_stays_inside_the_ball():
    data = synth_biased_pauc(60, 4, seed=21)
    params = PaucParams(alpha_fair=0.5, lambda0=1.0)
    prob = pauc_fair_problem(data, params)
    # ascent on the strongly concave payoff converges to the best response
    w_a = np.zeros(4)
    for _ in range(4000):
        g = fairness_dual_grad(w_a, data.features, data.sensitive, params)
        w_a = w_a + 0.1 * g
    assert float(np.linalg.norm(g)) < 1e-10
    assert contains(prob.set_y, w_a)
    # with strict slack: radius = 2 alpha R / lambda0 + 1
    assert float(np.linalg.norm(w_a)) < prob.set_y.radius - 0.5


def test_problem_wiring_and_constants():
    data = synth_biased_pauc(30, 3, seed=4)
    params = PaucParams(rho=0.4, alpha_fair=0.3, lambda0=1.2,
                        batch_pos=4, batch_neg=4, batch_attr=8)
    prob = pauc_fair_problem(data, params)
    assert prob.name == "pauc-fair/2"
    assert prob.dim_x == 3 + data.n_pos
    assert prob.psi_subgrad_x is None and prob.psi_grad_z is None
    assert prob.constants.mu_phi == params.lambda0
    assert prob.constants.l_phi_yx == 0.0
    assert prob.constants.m_bound > 0
    r_max = float(np.linalg.norm(data.features, axis=1).max())
    assert prob.set_y.kind == "ball"
    assert prob.set_y.radius == pytest.approx(
        2 * params.alpha_fair * r_max / params.lambda0 + 1.0)
    x = np.zeros(prob.dim_x)
    assert prob.full_objective(x) == pauc_objective(x, data, params)
    x = np.random.default_rng(6).normal(size=prob.dim_x)
    assert prob.full_objective(x) == pauc_objective(x, data, params)
    with pytest.raises(ParameterError):
        prob.full_objective(np.zeros(prob.dim_x + 1))


# (n_pos, n_neg, threshold range): shapes that once split the blocked pair
# sum into one node, leaves ending inside rows, several tree levels and a
# row wider than a leaf.  The sorted objective must match the dense formula
# within ``_DENSE_RTOL``; its active pairs must match bit for bit.
_BLOCKED_SHAPES = {
    "single-node": (40, 90, (0.2, 2.0)),
    "total-not-multiple-of-8": (37, 2003, (0.2, 2.0)),
    "multi-level": (301, 1499, (0.2, 2.0)),
    "one-positive-wider-than-block": (1, 70001, (0.2, 2.0)),
    "every-pair-active": (53, 1500, (-3.0, -1.0)),
    "no-pair-active": (53, 1500, (1e6, 2e6)),
}


@pytest.mark.parametrize("shape", sorted(_BLOCKED_SHAPES))
def test_blocked_objective_matches_the_dense_formula_bit_for_bit(shape):
    n_pos, n_neg, (s_lo, s_hi) = _BLOCKED_SHAPES[shape]
    data = _pauc_data(n_pos, n_neg, 3, seed=n_pos + n_neg)
    params = PaucParams(rho=0.3, c=1.0)
    prob = pauc_fair_problem(data, params)
    rng = np.random.default_rng(n_pos)
    for _ in range(3):
        x = np.concatenate([rng.normal(size=3),
                            rng.uniform(s_lo, s_hi, size=n_pos)])
        _assert_dense_active_sets(x, data, params)
        want = _dense_objective(x, data, params)
        got = pauc_objective(x, data, params)
        assert abs(got - want) <= _DENSE_RTOL * abs(want)
        assert _same_bits(prob.full_objective(x), got)
    if shape == "no-pair-active":
        assert pauc_objective(x, data, params) == float(np.mean(x[3:]))


def test_objective_memory_stays_blocked():
    data = synth_biased_pauc(4000, 20, seed=3)
    params = PaucParams(rho=0.3)
    x = np.concatenate([np.full(20, 0.1), np.ones(data.n_pos)])
    tracemalloc.start()
    try:
        pauc_objective(x, data, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense n_pos x n_neg temporaries took 123 MB here
    assert peak < 8 * 2 ** 20


def test_objective_leaves_no_reference_cycle():
    # a cycle would hold the pair buffer until the next full collection
    data = synth_biased_pauc(200, 4, seed=3)
    params = PaucParams(rho=0.3)
    x = np.concatenate([np.full(4, 0.1), np.ones(data.n_pos)])
    objective = pauc_fair_problem(data, params).full_objective
    gc.collect()
    gc.disable()
    try:
        pauc_objective(x, data, params)
        objective(x)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_trace_rows_record_the_dense_objective_at_their_anchor():
    data = synth_biased_pauc(600, 4, seed=11)
    params = PaucParams(rho=0.3, alpha_fair=0.5, batch_pos=8, batch_neg=8,
                        batch_attr=8)
    prob = pauc_fair_problem(data, params)
    sched = Schedule.from_manual(0.5, 0.002, 0.01, 30, prob.constants,
                                 mode="minmax")
    res = run(prob, "minmax", sched, RngStream(3),
              x0=np.zeros(prob.dim_x), trace_every=7, collect_states=True)
    assert [r.t for r in res.records] == [7, 14, 21, 28, 30]
    for rec in res.records:
        anchor = res.states[rec.t].x
        assert res.states[rec.t].t == rec.t
        want = _dense_objective(anchor, data, params)
        assert abs(rec.objective - want) <= _DENSE_RTOL * abs(want)


def _dense_pair_subgrads(w, s_batch, pos_x, neg_x, rho, c):
    """The pair subgradients as dense ``bp x bn`` formulas, for reference."""
    hp = pos_x @ w
    hn = neg_x @ w
    diffs = hp[:, None] - hn[None, :]
    resid = c - diffs
    active = (resid * resid - s_batch[:, None]) > 0.0
    bp, bn = pos_x.shape[0], neg_x.shape[0]
    scale = 1.0 / (bp * rho * bn)
    coef = np.where(active, -2.0 * resid, 0.0)
    g_w = scale * (pos_x.T @ coef.sum(axis=1) - neg_x.T @ (coef.sum(axis=0)))
    g_s = (1.0 - active.mean(axis=1) / rho) / bp
    return g_w, g_s


def _masked_sigmoid(t):
    """The sigmoid with one ``exp`` per sign class, for reference."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64),
                          np.asarray(b).view(np.uint64))


@pytest.mark.parametrize("scale", [0.1, 1.0, 30.0])
def test_pair_subgrads_match_the_dense_formula_bit_for_bit(scale):
    rng = np.random.default_rng(int(scale * 10))
    for k in range(300):
        bp, bn, dim = rng.integers(1, 80), rng.integers(1, 80), 3
        pos = rng.normal(size=(bp, dim)) * scale
        neg = rng.normal(size=(bn, dim)) * scale
        w = rng.normal(size=dim)
        if k % 4 == 0:
            s = np.full(bp, -1.0)        # every pair active
        elif k % 4 == 1:
            s = np.full(bp, 1e300)       # no pair active
        elif k % 4 == 2:
            # thresholds on a hinge kink: the first pair of each row
            r = 1.0 - ((pos @ w)[:, None] - (neg @ w)[None, :])
            s = (r * r)[:, 0].copy()
        else:
            s = rng.normal(size=bp) * scale ** 2
        got = pauc_module._pair_subgrads(w, s, pos, neg, 0.3, 1.0)
        want = _dense_pair_subgrads(w, s, pos, neg, 0.3, 1.0)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        if k % 4 == 1:
            assert np.all(got[0] == 0.0)


def test_sigmoid_matches_the_masked_formula_bit_for_bit():
    rng = np.random.default_rng(5)
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0,
                         745.0, -745.0, 1e308, -1e308])
    with np.errstate(invalid="ignore"):
        specials[1] = np.float64(np.inf) - np.inf   # the sign-set NaN
    for k in range(200):
        t = rng.normal(size=rng.integers(0, 300)) * 10.0 ** (k % 4)
        if k % 3 == 0:
            t = np.concatenate([specials, t])
            rng.shuffle(t)
        assert _same_bits(pauc_module._sigmoid(t), _masked_sigmoid(t))


@pytest.mark.parametrize("seed", [128, 1000, 1 << 16])
def test_full_subgrads_match_the_dense_formula_on_edge_shapes(seed):
    # one pair, one row, one column, and rows and columns of many sizes,
    # with some, every and no pair active
    params = PaucParams(rho=0.3, c=1.0)
    rng = np.random.default_rng(seed)
    for n_pos, n_neg in [(1, 1), (1, 3000), (3000, 1), (37, 2003),
                         (300, 129), (130, 1)]:
        data = _pauc_data(n_pos, n_neg, 3, seed=n_pos + n_neg)
        pos = data.features[data.labels == 1]
        neg = data.features[data.labels == -1]
        for s_lo, s_hi in [(0.2, 2.0), (-3.0, -1.0), (1e6, 2e6)]:
            x = np.concatenate([rng.normal(size=3),
                                rng.uniform(s_lo, s_hi, size=n_pos)])
            g_w, g_s = _dense_pair_subgrads(x[:3], x[3:], pos, neg,
                                            params.rho, params.c)
            g = pauc_full_subgrads(x, data, params)
            assert np.linalg.norm(g[:3] - g_w) <= \
                _DENSE_RTOL * np.linalg.norm(g_w)
            assert _same_bits(g[3:], g_s)


def test_full_subgrads_memory_stays_blocked():
    data = synth_biased_pauc(4000, 20, seed=3)
    params = PaucParams(rho=0.3)
    x = np.concatenate([np.full(20, 0.1), np.ones(data.n_pos)])
    tracemalloc.start()
    try:
        pauc_full_subgrads(x, data, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense n_pos x n_neg temporaries took 133 MB here
    assert peak < 8 * 2 ** 20


# (n_pos, n_neg, thresholds, tied scores)
_DENSE_SHAPES = {
    "random": (37, 53, "uniform", False),
    "tied-scores": (41, 29, "uniform", True),
    "negative-thresholds": (23, 31, "negative", False),
    "zero-thresholds": (31, 23, "zero", True),
    "mixed-sign-thresholds": (33, 35, "mixed", False),
    "thresholds-on-pair-losses": (29, 37, "pair-loss", False),
    "tied-thresholds-on-pair-losses": (29, 37, "pair-loss", True),
    "no-pair-active": (17, 19, "huge", False),
    "one-positive": (1, 60, "uniform", False),
    "one-negative": (60, 1, "pair-loss", False),
    "many-negatives": (7, 4001, "pair-loss", False),  # a 12-step bisection
}


def _dense_case(shape, scale, rng):
    """A small dataset and a point ``[w, s]`` of one ``_DENSE_SHAPES`` kind."""
    n_pos, n_neg, thresholds, tied = _DENSE_SHAPES[shape]
    n = n_pos + n_neg
    if tied:
        # five distinct rows: many scores tie, within and across the classes
        feats = rng.normal(size=(5, 3))[rng.integers(0, 5, size=n)]
    else:
        feats = rng.normal(size=(n, 3))
    labels = rng.permutation(np.repeat([1, -1], [n_pos, n_neg]))
    data = LabeledDataset(feats * scale, labels)
    w = rng.normal(size=3)
    pos = data.features[labels == 1]
    neg = data.features[labels == -1]
    loss = (1.0 - ((pos @ w)[:, None] - (neg @ w)[None, :])) ** 2
    if thresholds == "negative":
        s = -rng.uniform(0.1, 3.0, size=n_pos)
    elif thresholds == "zero":
        # a run's start: every pair whose residual is not 0 is active
        s = np.zeros(n_pos)
    elif thresholds == "mixed":
        s = rng.normal(size=n_pos) * float(loss.mean())
    elif thresholds == "huge":
        s = rng.uniform(1e6, 2e6, size=n_pos) * max(scale, 1.0) ** 2
    elif thresholds == "pair-loss":
        # each threshold exactly on one of its pairs' losses: a hinge kink
        s = loss[np.arange(n_pos), rng.integers(0, n_neg, size=n_pos)]
    else:
        s = rng.uniform(0.2, 2.0, size=n_pos) * float(loss.mean())
    return data, pos, neg, np.concatenate([w, s])


@pytest.mark.parametrize("shape", sorted(_DENSE_SHAPES))
def test_sorted_maps_match_the_dense_formula(shape):
    params = PaucParams(rho=0.3, c=1.0)
    rng = np.random.default_rng(len(shape))
    for scale in (0.1, 1.0, 30.0):
        for _ in range(4):
            data, pos, neg, x = _dense_case(shape, scale, rng)
            w, s = x[:3], x[3:]
            _assert_dense_active_sets(x, data, params)
            want = _dense_objective(x, data, params)
            got = pauc_objective(x, data, params)
            assert abs(got - want) <= _DENSE_RTOL * abs(want)
            g_w, g_s = _dense_pair_subgrads(w, s, pos, neg, params.rho,
                                            params.c)
            g = pauc_full_subgrads(x, data, params)
            assert np.linalg.norm(g[:3] - g_w) <= \
                _DENSE_RTOL * np.linalg.norm(g_w)
            assert _same_bits(g[3:], g_s)
            if shape == "no-pair-active":
                assert got == float(np.mean(s))
                assert np.all(g[:3] == 0.0)


def test_sorted_maps_are_bit_reproducible():
    data = synth_biased_pauc(600, 4, seed=12)
    params = PaucParams(rho=0.3)
    prob = pauc_fair_problem(data, params)
    rng = np.random.default_rng(12)
    xs = np.concatenate([rng.normal(size=(3, 4)),
                         rng.uniform(0.0, 2.0, size=(3, data.n_pos))], axis=1)
    # a fresh copy of the data holds no state of the first calls
    again = LabeledDataset(data.features.copy(), data.labels.copy(),
                           data.sensitive.copy())
    stacked = prob.full_objective(xs)
    for x, row in zip(xs, stacked):
        value = pauc_objective(x, data, params)
        assert _same_bits(value, pauc_objective(x, again, params))
        assert _same_bits(value, prob.full_objective(x))
        assert _same_bits(value, row)
        assert _same_bits(pauc_full_subgrads(x, data, params),
                          pauc_full_subgrads(x, again, params))


def test_sorted_maps_scale_to_billions_of_pairs():
    # about 2.5e9 pairs: the dense pair arrays would take 20 GB each
    data = synth_biased_pauc(100_000, 20, seed=3)
    params = PaucParams(rho=0.3)
    rng = np.random.default_rng(3)
    x = np.concatenate([0.3 * rng.normal(size=20),
                        rng.uniform(0.0, 2.0, size=data.n_pos)])
    for full_map in (pauc_objective, pauc_full_subgrads):
        tracemalloc.start()
        try:
            first = full_map(x, data, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(first))
        assert peak < 32 * 2 ** 20
        assert _same_bits(first, full_map(x, data, params))


def test_primal_oracle_reproduces_the_documented_sampling():
    data = synth_biased_pauc(20, 3, seed=8)
    n_pos = data.n_pos
    rng = np.random.default_rng(14)
    x = np.concatenate([rng.normal(size=3), rng.uniform(0.2, 1.0, n_pos)])
    token = 4242
    from dmaxopt.problems.pauc import _pair_subgrads
    pos = data.features[data.labels == 1]
    neg = data.features[data.labels == -1]
    # batch_pos > n_pos forces repeated positives into the batch
    for batch_pos in (3, 16, 64):
        params = PaucParams(rho=0.4, batch_pos=batch_pos, batch_neg=5)
        got = pauc_fair_problem(data, params).phi_subgrad_x(x, None, token)

        # replay: positives batch drawn first, then negatives; threshold
        # gradients accumulate per positive in batch order
        gen = token_generator(token)
        idx_p = gen.integers(0, n_pos, size=batch_pos)
        idx_n = gen.integers(0, data.n_neg, size=5)
        g_w, g_s_batch = _pair_subgrads(x[:3], x[3:][idx_p], pos[idx_p],
                                        neg[idx_n], params.rho, params.c)
        g_s = np.zeros(n_pos)
        np.add.at(g_s, idx_p, g_s_batch)
        want = np.concatenate([g_w, g_s])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # threshold gradient entries vanish off the sampled batch
        off = np.setdiff1d(np.arange(n_pos), idx_p)
        assert np.all(got[3:][off] == 0.0)


def test_dual_oracle_reproduces_the_documented_sampling():
    data = synth_biased_pauc(20, 3, seed=8)
    params = PaucParams(alpha_fair=0.4, batch_attr=6)
    prob = pauc_fair_problem(data, params)
    y = np.array([0.1, -0.2, 0.3])
    token = 777
    got = prob.phi_grad_y(None, y, token)
    gen = token_generator(token)
    idx = gen.integers(0, len(data), size=6)
    want = fairness_dual_grad(y, data.features[idx], data.sensitive[idx],
                              params)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("batches", [(8, 8, 8), (7, 9, 5), (1, 1, 1)])
def test_batched_oracles_equal_their_plain_calls(batches):
    """Each row of ``grad`` on the ``sample`` of a token equals the plain
    ``(x, y, token)`` call, bit for bit; the dual also takes ``x=None``."""
    bp, bn, ba = batches
    data = synth_biased_pauc(60, 4, seed=5)
    prob = pauc_fair_problem(data, PaucParams(
        alpha_fair=0.5, batch_pos=bp, batch_neg=bn, batch_attr=ba))
    rng = np.random.default_rng(sum(batches))
    seeds = 3
    x = np.concatenate([rng.normal(size=(seeds, 4)),
                        rng.uniform(0.2, 1.0, (seeds, prob.dim_x - 4))], 1)
    y = rng.normal(scale=0.3, size=(seeds, 4))
    # 150 tokens: sample realizes them in bulk
    tokens = rng.integers(0, 2 ** 64, size=(50, seeds), dtype=np.uint64)
    for oracle, dim in ((prob.phi_subgrad_x, prob.dim_x),
                        (prob.phi_grad_y, 4)):
        batch = oracle.sample(tokens.reshape(-1)).reshape(50, seeds, -1)
        for step, toks in enumerate(tokens.tolist()):
            got = oracle.grad(x, y, batch[step])
            assert got.shape == (seeds, dim)
            want = np.stack([oracle(x[j], y[j], t)
                             for j, t in enumerate(toks)])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(prob.phi_grad_y(None, y[0], 5),
                          prob.phi_grad_y(x[0], y[0], 5))


def test_plain_calls_draw_through_the_modules_token_generator(monkeypatch):
    # the traced benchmark rebinds pauc.token_generator to count its calls
    prob = pauc_fair_problem(synth_biased_pauc(60, 4, seed=5),
                             PaucParams(alpha_fair=0.5))
    calls = []

    def counted(token, *args):
        calls.append(token)
        return token_generator(token, *args)

    monkeypatch.setattr(pauc_module, "token_generator", counted)
    prob.phi_subgrad_x(np.zeros(prob.dim_x), np.zeros(4), 7)
    prob.phi_grad_y(None, np.zeros(4), 8)
    assert calls == [7, 8]


def test_data_without_feature_columns_is_refused_by_name(tmp_path):
    # a LibSVM file of labels only reads as features of shape (3, 0)
    path = tmp_path / "labels.svm"
    path.write_text("1\n-1\n1\n")
    data = load_libsvm(path)
    assert data.features.shape == (3, 0)
    with pytest.raises(ParameterError, match="dimension must be >= 1, got 0"):
        pauc_fair_problem(data, PaucParams())


def test_alpha_without_attributes_is_rejected():
    data = LabeledDataset(np.eye(2), [1, -1])
    with pytest.raises(ParameterError):
        pauc_fair_problem(data, PaucParams(alpha_fair=0.5))
    # alpha = 0 is fine without attributes
    prob = pauc_fair_problem(data, PaucParams(alpha_fair=0.0))
    assert prob.name == "pauc-fair/2"
    # and data of one class has no pairs to rank
    for labels in ([1, 1], [-1, -1]):
        with pytest.raises(ParameterError, match="one positive and one neg"):
            pauc_fair_problem(LabeledDataset(np.eye(2), labels),
                              PaucParams(alpha_fair=0.0))


def test_split_scorer_validates_shape():
    with pytest.raises(ParameterError):
        split_scorer(np.zeros(4), 3, 2)
    w, s = split_scorer(np.arange(5.0), 3, 2)
    assert np.array_equal(w, [0.0, 1.0, 2.0])
    assert np.array_equal(s, [3.0, 4.0])


def test_params_validation():
    with pytest.raises(ParameterError):
        PaucParams(rho=0.0)
    with pytest.raises(ParameterError):
        PaucParams(rho=1.5)
    with pytest.raises(ParameterError):
        PaucParams(c=-1.0)
    with pytest.raises(ParameterError):
        PaucParams(alpha_fair=-0.1)
    with pytest.raises(ParameterError):
        PaucParams(lambda0=0.0)
    with pytest.raises(ParameterError):
        PaucParams(batch_pos=0)


def test_synth_biased_pauc_structure():
    d1 = synth_biased_pauc(400, 5, seed=3)
    d2 = synth_biased_pauc(400, 5, seed=3)
    d3 = synth_biased_pauc(400, 5, seed=4)
    assert np.array_equal(d1.features, d2.features)
    assert np.array_equal(d1.labels, d2.labels)
    assert np.array_equal(d1.sensitive, d2.sensitive)
    assert not np.array_equal(d1.features, d3.features)
    # label/group correlation from the skewed conditional
    agree = float(np.mean(d1.labels == d1.sensitive))
    assert agree > 0.55
    # feature shifts along e1 (label) and e2 (group)
    assert d1.features[d1.labels == 1, 0].mean() > \
           d1.features[d1.labels == -1, 0].mean() + 1.0
    assert d1.features[d1.sensitive == 1, 1].mean() > \
           d1.features[d1.sensitive == -1, 1].mean() + 1.0
    with pytest.raises(ParameterError):
        synth_biased_pauc(2, 5, seed=0)
    with pytest.raises(ParameterError):
        synth_biased_pauc(100, 1, seed=0)
    with pytest.raises(ParameterError):
        synth_biased_pauc(100, 5, seed=0, skew=1.0)
