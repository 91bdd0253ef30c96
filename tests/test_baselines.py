"""Tests for the plain subgradient baselines."""

import math

import numpy as np
import pytest

from dmaxopt.baselines import (
    BaselineState,
    run_sgd,
    run_sgda,
    sgd_step,
    sgda_step,
)
from dmaxopt.core import (
    CapabilityError,
    DMaxProblem,
    NonFiniteError,
    ParameterError,
    ProblemConstants,
    RngStream,
    box,
)
from dmaxopt.problems import (
    PuParams,
    make_onedim_dwc,
    make_pu_problem,
    make_quadratic_minmax,
    synth_gaussian_pu,
)


def test_sgd_step_algebra():
    prob = make_onedim_dwc(1.0, 0.5)
    state = BaselineState(x=np.array([2.0]), y=None,
                          last_dir=np.zeros(1), t=0)
    nxt = sgd_step(prob, state, 0.1, RngStream(0))
    # direction = sign(2) - 0.5*sign(2) = 0.5
    assert np.allclose(nxt.x, [2.0 - 0.1 * 0.5], atol=1e-15)
    assert np.allclose(nxt.last_dir, [0.5], atol=1e-15)
    assert nxt.t == 1


def test_sgd_requires_both_components():
    prob = DMaxProblem(
        dim_x=1,
        constants=ProblemConstants(m_bound=1.0),
        phi_subgrad_x=lambda x, y, tok: np.zeros(1),
    )
    state = BaselineState(x=np.zeros(1), y=None, last_dir=np.zeros(1), t=0)
    with pytest.raises(CapabilityError):
        sgd_step(prob, state, 0.1, RngStream(0))


def test_sgd_token_usage():
    seen = []
    prob = DMaxProblem(
        dim_x=1,
        constants=ProblemConstants(m_bound=1.0),
        phi_subgrad_x=lambda x, y, tok: seen.append(("phi", int(tok)))
        or np.zeros(1),
        psi_subgrad_x=lambda x, z, tok: seen.append(("psi", int(tok)))
        or np.zeros(1),
    )
    state = BaselineState(x=np.zeros(1), y=None, last_dir=np.zeros(1), t=0)
    expect = [int(t) for t in RngStream(4).draw_many(2)]
    sgd_step(prob, state, 0.1, RngStream(4))
    assert seen == [("phi", expect[0]), ("psi", expect[1])]
    seen.clear()
    sgd_step(prob, state, 0.1, RngStream(4), shared_sample=True)
    assert seen == [("phi", expect[0]), ("psi", expect[0])]


def test_sgda_step_is_simultaneous():
    # phi(x, y) = <x, y> - |y|^2/2: both gradients must use the OLD pair
    prob = make_quadratic_minmax(dim=1)
    state = BaselineState(x=np.array([2.0]), y=np.array([0.5]),
                          last_dir=np.zeros(1), t=0)
    nxt = sgda_step(prob, state, 0.1, 0.2, RngStream(0))
    assert np.allclose(nxt.x, [2.0 - 0.1 * 0.5], atol=1e-15)   # g_x = y_old
    assert np.allclose(nxt.y, [0.5 + 0.2 * 1.5], atol=1e-15)   # g_y = x_old-y_old
    # a sequential (non-simultaneous) update would have used x_new in g_y
    assert not np.allclose(nxt.y, [0.5 + 0.2 * (float(nxt.x[0]) - 0.5)])


def test_sgda_projects_dual():
    prob = make_quadratic_minmax(dim=1)
    state = BaselineState(x=np.array([9.0]), y=np.array([0.9]),
                          last_dir=np.zeros(1), t=0)
    nxt = sgda_step(prob, state, 0.01, 1.0, RngStream(0))
    assert nxt.y[0] == 1.0  # clipped to the box


def test_sgda_requires_dual_machinery():
    prob = make_quadratic_minmax(dim=1)
    state = BaselineState(x=np.zeros(1), y=None, last_dir=np.zeros(1), t=0)
    with pytest.raises(ParameterError):
        sgda_step(prob, state, 0.1, 0.1, RngStream(0))  # no dual iterate
    bare = DMaxProblem(
        dim_x=1,
        constants=ProblemConstants(m_bound=1.0),
        phi_subgrad_x=lambda x, y, tok: np.zeros(1),
    )
    state2 = BaselineState(x=np.zeros(1), y=np.zeros(1),
                           last_dir=np.zeros(1), t=0)
    with pytest.raises(CapabilityError):
        sgda_step(bare, state2, 0.1, 0.1, RngStream(0))


def test_run_sgda_refuses_a_problem_without_a_dual():
    pos, unl = synth_gaussian_pu(20, 40, 3, 1.0, 0.4, seed=1)
    for prob in (make_onedim_dwc(1.0, 0.5),
                 make_pu_problem(pos, unl, PuParams(pi_p=0.4))):
        rng = RngStream(0)
        with pytest.raises(CapabilityError, match="dual"):
            run_sgda(prob, 0.1, 0.1, 5, rng)
        assert rng.counter == 0


def test_run_sgd_deterministic_and_traced():
    prob = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    r1 = run_sgd(prob, 0.05, 20, RngStream(9), x0=2.0, trace_every=7,
                 seed_label=3)
    r2 = run_sgd(prob, 0.05, 20, RngStream(9), x0=2.0, trace_every=7,
                 seed_label=3)
    assert np.array_equal(r1.final_state.x, r2.final_state.x)
    assert [r.t for r in r1.records] == [7, 14, 20]
    assert all(r.seed == 3 for r in r1.records)
    assert all(math.isnan(r.p_t) for r in r1.records)
    last = r1.records[-1]
    assert last.objective == pytest.approx(
        float(prob.full_objective(r1.final_state.x)), rel=1e-12)
    assert last.stationarity == pytest.approx(
        float(np.linalg.norm(r1.final_state.last_dir)), rel=1e-12)


def test_run_sgd_decay_matches_hand_loop():
    prob = make_onedim_dwc(1.0, 0.5)
    res = run_sgd(prob, 0.1, 5, RngStream(0), x0=2.0,
                  decay_milestones=(2,), decay_factor=2.0)
    x = 2.0
    for t in range(5):
        lr = 0.1 * (0.5 if t >= 2 else 1.0)
        x -= lr * 0.5 * math.copysign(1.0, x)
    assert np.allclose(res.final_state.x, [x], atol=1e-15)


def test_run_sgd_converges_on_the_toy_problem():
    prob = make_onedim_dwc(1.0, 0.5, noise_sigma=0.05)
    res = run_sgd(prob, 0.02, 500, RngStream(1), x0=2.0)
    # phi - psi = 0.5|x| is minimized at 0
    assert abs(float(res.final_state.x[0])) < 0.2


def test_run_sgda_converges_on_minmax():
    prob = make_quadratic_minmax(dim=2, noise_sigma=0.05)
    res = run_sgda(prob, 0.05, 0.05, 800, RngStream(2),
                   x0=np.array([1.5, -1.0]))
    # huber objective is minimized at the origin
    assert float(np.linalg.norm(res.final_state.x)) < 0.3
    assert not res.aborted


def test_run_loop_aborts_on_non_finite():
    calls = {"n": 0}

    def phi(x, y, tok):
        calls["n"] += 1
        return np.array([math.inf]) if calls["n"] > 2 else np.ones(1)

    prob = DMaxProblem(
        dim_x=1,
        constants=ProblemConstants(m_bound=1.0),
        phi_subgrad_x=phi,
        psi_subgrad_x=lambda x, z, tok: np.zeros(1),
    )
    res = run_sgd(prob, 0.1, 10, RngStream(0))
    assert res.aborted
    assert "phi_subgrad_x" in res.abort_reason
    assert res.final_state.t == 2


def _constant_problem(g_phi, g_psi=0.0):
    return DMaxProblem(
        dim_x=1, constants=ProblemConstants(m_bound=1.0),
        phi_subgrad_x=lambda x, y, tok: np.full(1, g_phi),
        phi_grad_y=lambda x, y, tok: np.zeros(1),
        psi_subgrad_x=lambda x, z, tok: np.full(1, g_psi),
        set_y=box([-1.0], [1.0]))


@pytest.mark.parametrize("x, g, lr", [(1e308, -1e308, 1.0),
                                      (-1e308, 1e308, 1.0),
                                      (1.0, 1.0, math.nan)],
                         ids=["+inf", "-inf", "nan"])
def test_non_finite_iterates_keep_their_error_and_message(x, g, lr):
    # +inf, -inf and NaN iterates from finite oracle values
    prob = _constant_problem(g)
    state = BaselineState(x=np.array([x]), y=np.zeros(1),
                          last_dir=np.zeros(1))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError,
                           match=r"^sgd iterate became non-finite$"):
            sgd_step(prob, state, lr, RngStream(0))
        with pytest.raises(NonFiniteError,
                           match=r"^sgda iterate became non-finite$"):
            sgda_step(prob, state, lr, 0.1, RngStream(0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_oracle_values_stop_the_baselines(bad):
    state = BaselineState(x=np.ones(1), y=np.zeros(1), last_dir=np.zeros(1))
    for prob, name in [(_constant_problem(bad), "phi_subgrad_x"),
                       (_constant_problem(1.0, bad), "psi_subgrad_x")]:
        with pytest.raises(NonFiniteError,
                           match=rf"^{name} returned a non-finite value$"):
            sgd_step(prob, state, 0.1, RngStream(0))


def test_large_finite_iterates_are_accepted():
    prob = _constant_problem(1e200, -1e200)
    state = BaselineState(x=np.array([1e200]), y=np.zeros(1),
                          last_dir=np.zeros(1))
    with np.errstate(all="raise"):
        assert sgd_step(prob, state, 0.1, RngStream(0)).x[0] == \
            1e200 - 0.1 * 2e200
        assert sgda_step(prob, state, 0.1, 0.1, RngStream(0)).x[0] == \
            1e200 - 0.1 * 1e200


def test_run_validation():
    prob = make_onedim_dwc(1.0, 0.5)
    with pytest.raises(ParameterError):
        run_sgd(prob, -0.1, 10, RngStream(0))
    with pytest.raises(ParameterError):
        run_sgd(prob, 0.1, 0, RngStream(0))
    with pytest.raises(ParameterError):
        run_sgd(prob, 0.1, 10, RngStream(0), trace_every=0)
    with pytest.raises(ParameterError):
        run_sgda(make_quadratic_minmax(), 0.1, 0.0, 10, RngStream(0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            run_sgd(prob, bad, 10, RngStream(0))
        with pytest.raises(ParameterError, match="finite"):
            run_sgda(make_quadratic_minmax(), bad, 0.1, 10, RngStream(0))
        with pytest.raises(ParameterError, match="finite"):
            run_sgda(make_quadratic_minmax(), 0.1, bad, 10, RngStream(0))
