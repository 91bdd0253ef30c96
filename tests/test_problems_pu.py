"""Tests for the positive-unlabeled hinge problem."""

import numpy as np
import pytest

from dmaxopt.core import ParameterError, token_generator
from dmaxopt.problems import (
    LabeledDataset,
    PuParams,
    make_pu_problem,
    pu_full_subgrads,
    pu_objective,
    synth_gaussian_pu,
)
from dmaxopt.problems import pu as pu_module


def _single_point_sets():
    positives = LabeledDataset(np.array([[1.0]]), [1])
    unlabeled = LabeledDataset(np.array([[-1.0]]), [-1])
    return positives, unlabeled


def test_pu_objective_frozen_at_zero():
    # w = 0: every margin is 0, every hinge is 1
    # pi_p*(1 - 1) + 1 = 1 regardless of pi_p
    positives, unlabeled = _single_point_sets()
    params = PuParams(pi_p=0.5, batch_pos=1, batch_unl=1)
    w = np.zeros(1)
    assert pu_objective(w, positives, unlabeled, params) == pytest.approx(1.0)
    g_phi, g_psi = pu_full_subgrads(w, positives, unlabeled, params)
    # phi: -0.5*1 (pos active) + (-1) * ... unl margin 0 > -1 active: +(-1)
    assert np.allclose(g_phi, [-0.5 - 1.0])
    assert np.allclose(g_psi, [0.5])


def test_pu_objective_hand_computed():
    positives = LabeledDataset(np.array([[2.0], [0.5]]), [1, 1])
    unlabeled = LabeledDataset(np.array([[1.0], [-3.0]]), [1, -1])
    params = PuParams(pi_p=0.3, batch_pos=1, batch_unl=1)
    w = np.array([1.0])
    # margins pos: 2, 0.5 -> hinge(+1): 0, 0.5 -> mean 0.25
    # hinge(-1) on pos: 3, 1.5 -> mean 2.25
    # unl as -1: 1+1=2, 1-3=-2 -> hinge: 2, 0 -> mean 1
    want = 0.3 * (0.25 - 2.25) + 1.0
    assert pu_objective(w, positives, unlabeled, params) == pytest.approx(want)


def test_hinge_kink_uses_zero_subgradient():
    positives = LabeledDataset(np.array([[1.0]]), [1])
    unlabeled = LabeledDataset(np.array([[-1.0]]), [-1])
    params = PuParams(pi_p=0.5, batch_pos=1, batch_unl=1)
    # w=1 puts both phi hinges exactly at their kinks:
    # pos margin <w,x> = 1 (active needs < 1) and unl <w,x> = -1
    # (active needs > -1), so g_phi = 0; psi is genuinely active there.
    g_phi, g_psi = pu_full_subgrads(np.array([1.0]), positives, unlabeled,
                                    params)
    assert np.allclose(g_phi, [0.0])
    assert np.allclose(g_psi, [0.5])
    # w=-1 puts the psi hinge at its kink, <w,x_pos> = -1
    g_phi2, g_psi2 = pu_full_subgrads(np.array([-1.0]), positives, unlabeled,
                                      params)
    assert np.allclose(g_psi2, [0.0])
    assert np.allclose(g_phi2, [-0.5 - 1.0])  # both phi hinges active


def test_full_subgrads_match_central_differences_of_the_objective():
    # criterion 10's PU point: phi - psi must be the derivative of the risk
    positives, unlabeled = synth_gaussian_pu(60, 140, 5, 1.5, 0.5, seed=3)
    params = PuParams(pi_p=0.5)
    w = np.array([0.21, -0.13, 0.08, 0.33, -0.27])
    mp = positives.features @ w
    mu = unlabeled.features @ w
    kink_gap = min(np.abs(mp - 1.0).min(), np.abs(mp + 1.0).min(),
                   np.abs(mu + 1.0).min())
    assert kink_gap > 1e-3, "test point accidentally sits near a kink"
    g_phi, g_psi = pu_full_subgrads(w, positives, unlabeled, params)
    h = 1e-6
    fd = np.array([(pu_objective(w + h * e, positives, unlabeled, params)
                    - pu_objective(w - h * e, positives, unlabeled, params))
                   / (2 * h) for e in np.eye(5)])
    g = g_phi - g_psi
    assert np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0) < 1e-6


def test_component_subgrads_share_the_positive_batch():
    gen_data = np.random.default_rng(0)
    positives = LabeledDataset(gen_data.normal(size=(50, 3)), np.ones(50))
    unlabeled = LabeledDataset(gen_data.normal(size=(80, 3)),
                               np.ones(80))
    params = PuParams(pi_p=0.4, batch_pos=8, batch_unl=8)
    prob = make_pu_problem(positives, unlabeled, params)
    w = gen_data.normal(size=3)
    token = 1234
    # the batches a token draws: positives first, then unlabeled points
    gen = token_generator(token)
    idx_p = gen.integers(0, len(positives), size=params.batch_pos)
    idx_u = gen.integers(0, len(unlabeled), size=params.batch_unl)
    pair = pu_full_subgrads(w, positives.subset(idx_p),
                            unlabeled.subset(idx_u), params)
    assert np.array_equal(prob.phi_subgrad_x(w, None, token), pair[0])
    assert np.array_equal(prob.psi_subgrad_x(w, None, token), pair[1])


@pytest.mark.parametrize("sets", [(60, 140, 8, 8), (50, 80, 7, 3),
                                  (1, 1, 4, 4)])
def test_batched_oracles_equal_their_plain_calls(sets):
    """Each row of ``grad`` on the ``sample`` of a token equals the plain
    ``(x, None, token)`` call, bit for bit.  Under shared sampling phi and
    psi get the same token, and psi's batch is phi's positives."""
    n_pos, n_unl, bp, bu = sets
    positives, unlabeled = synth_gaussian_pu(n_pos, n_unl, 5, 1.5, 0.5,
                                             seed=3)
    prob = make_pu_problem(positives, unlabeled,
                           PuParams(pi_p=0.5, batch_pos=bp, batch_unl=bu))
    rng = np.random.default_rng(n_pos)
    seeds = 3
    x = rng.normal(size=(seeds, 5))
    tokens = rng.integers(0, 2 ** 64, size=(20, seeds), dtype=np.uint64)
    batches = [o.sample(tokens.reshape(-1)).reshape(20, seeds, -1)
               for o in (prob.phi_subgrad_x, prob.psi_subgrad_x)]
    assert np.array_equal(batches[1], batches[0][:, :, :bp])
    for oracle, batch in zip((prob.phi_subgrad_x, prob.psi_subgrad_x),
                             batches):
        for step, toks in enumerate(tokens.tolist()):
            got = oracle.grad(x, None, batch[step])
            want = np.stack([oracle(x[j], None, t)
                             for j, t in enumerate(toks)])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_minibatch_matches_full_when_batch_covers_singleton():
    positives, unlabeled = _single_point_sets()
    params = PuParams(pi_p=0.7, batch_pos=4, batch_unl=4)
    prob = make_pu_problem(positives, unlabeled, params)
    w = np.array([-0.2])
    f = pu_full_subgrads(w, positives, unlabeled, params)
    assert np.allclose(prob.phi_subgrad_x(w, None, 99), f[0])
    assert np.allclose(prob.psi_subgrad_x(w, None, 99), f[1])


def test_make_pu_problem_wiring():
    positives, unlabeled = synth_gaussian_pu(30, 50, 4, 1.0, 0.5, seed=1)
    params = PuParams(pi_p=0.5, batch_pos=8, batch_unl=8)
    prob = make_pu_problem(positives, unlabeled, params)
    assert prob.name == "pu-hinge"
    assert prob.dim_x == 4
    assert prob.exact_aux is None          # no closed prox
    assert prob.phi_fn is not None and prob.psi_fn is not None
    w = np.zeros(4)
    assert prob.full_objective(w) == pytest.approx(1.0)
    # value decomposition agrees with the full objective
    got = prob.phi_fn.value(w) - prob.psi_fn.value(w)
    assert got == pytest.approx(prob.full_objective(w), rel=1e-12)
    # full-data fn subgradients equal the deterministic pair
    f_phi, f_psi = pu_full_subgrads(w, positives, unlabeled, params)
    assert np.array_equal(prob.phi_fn.subgrad(w), f_phi)
    assert np.array_equal(prob.psi_fn.subgrad(w), f_psi)
    assert prob.constants.m_bound > 0


def test_make_pu_problem_validation():
    positives, unlabeled = _single_point_sets()
    params = PuParams(pi_p=0.5)
    empty = LabeledDataset(np.zeros((0, 1)), [])
    with pytest.raises(ParameterError):
        make_pu_problem(empty, unlabeled, params)
    with pytest.raises(ParameterError):
        make_pu_problem(positives, LabeledDataset(np.zeros((2, 3)),
                                                  [1, -1]), params)


def test_data_without_feature_columns_is_refused_by_name():
    positives = LabeledDataset(np.zeros((2, 0)), [1, 1])
    unlabeled = LabeledDataset(np.zeros((3, 0)), [1, -1, -1])
    with pytest.raises(ParameterError, match="dimension must be >= 1, got 0"):
        make_pu_problem(positives, unlabeled, PuParams(pi_p=0.5))


def test_plain_calls_draw_through_the_modules_token_generator(monkeypatch):
    # as for pAUC: a rebinding of pu.token_generator is seen
    prob = make_pu_problem(*synth_gaussian_pu(30, 50, 3, 1.5, 0.5, seed=2),
                           PuParams(pi_p=0.5))
    calls = []

    def counted(token, *args):
        calls.append(token)
        return token_generator(token, *args)

    monkeypatch.setattr(pu_module, "token_generator", counted)
    prob.phi_subgrad_x(np.zeros(3), None, 7)
    prob.psi_subgrad_x(np.zeros(3), None, 8)
    assert calls == [7, 8]


def test_pu_params_validation():
    with pytest.raises(ParameterError):
        PuParams(pi_p=0.0)
    with pytest.raises(ParameterError):
        PuParams(pi_p=1.0)
    with pytest.raises(ParameterError):
        PuParams(pi_p=0.5, batch_pos=0)


def test_synth_gaussian_pu_deterministic_and_separated():
    p1, u1 = synth_gaussian_pu(40, 60, 3, 2.0, 0.6, seed=7)
    p2, u2 = synth_gaussian_pu(40, 60, 3, 2.0, 0.6, seed=7)
    p3, _ = synth_gaussian_pu(40, 60, 3, 2.0, 0.6, seed=8)
    assert np.array_equal(p1.features, p2.features)
    assert np.array_equal(u1.features, u2.features)
    assert np.array_equal(u1.labels, u2.labels)
    assert not np.array_equal(p1.features, p3.features)
    # positives center near +2 e1; unlabeled mixture straddles the origin
    assert float(p1.features[:, 0].mean()) > 1.0
    assert u1.n_pos > 0 and u1.n_neg > 0
    hidden_pos = u1.features[u1.labels == 1, 0].mean()
    hidden_neg = u1.features[u1.labels == -1, 0].mean()
    assert hidden_pos > 0.5 > -0.5 > hidden_neg


def test_synth_gaussian_pu_validation():
    with pytest.raises(ParameterError):
        synth_gaussian_pu(0, 10, 2, 1.0, 0.5, seed=0)
    with pytest.raises(ParameterError):
        synth_gaussian_pu(10, 10, 2, 1.0, 1.5, seed=0)
