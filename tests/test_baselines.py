"""Tests for the plain subgradient baselines."""

import dataclasses
import math

import numpy as np
import pytest

from dmaxopt.baselines import run_sgd, run_sgda
from dmaxopt.core import (
    CapabilityError,
    DMaxProblem,
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


def test_sgd_update_algebra():
    prob = make_onedim_dwc(1.0, 0.5)
    nxt = run_sgd(prob, 0.1, 1, RngStream(0), x0=2.0).final_state
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
    rng = RngStream(0)
    with pytest.raises(CapabilityError):
        run_sgd(prob, 0.1, 1, rng)
    assert rng.counter == 0


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
    expect = [int(t) for t in RngStream(4).draw_many(2)]
    run_sgd(prob, 0.1, 1, RngStream(4))
    assert seen == [("phi", expect[0]), ("psi", expect[1])]
    seen.clear()
    run_sgd(prob, 0.1, 1, RngStream(4), shared_sample=True)
    assert seen == [("phi", expect[0]), ("psi", expect[0])]


def test_sgda_update_is_simultaneous():
    # phi(x, y) = <x, y> - |y|^2/2: both gradients must use the OLD pair.
    # Step 1 from (2, 0) gives (2, 0.4); step 2 gives x = 2 - 0.1 * 0.4
    # (g_x = y_old) and y = 0.4 + 0.2 * (2 - 0.4) (g_y = x_old - y_old)
    prob = make_quadratic_minmax(dim=1)
    nxt = run_sgda(prob, 0.1, 0.2, 2, RngStream(0), x0=[2.0]).final_state
    assert np.allclose(nxt.x, [1.96], atol=1e-15)
    assert np.allclose(nxt.y, [0.72], atol=1e-15)
    # a sequential (non-simultaneous) update would have used x_new in g_y
    assert not np.allclose(nxt.y, [0.4 + 0.2 * (1.96 - 0.4)])  # 0.712


def test_sgda_projects_dual():
    prob = make_quadratic_minmax(dim=1)
    nxt = run_sgda(prob, 0.01, 1.0, 1, RngStream(0), x0=[9.0]).final_state
    assert nxt.y[0] == 1.0  # 0 + 1.0 * (9 - 0), clipped to the box


def test_sgda_requires_dual_machinery():
    bare = DMaxProblem(
        dim_x=1,
        constants=ProblemConstants(m_bound=1.0),
        phi_subgrad_x=lambda x, y, tok: np.zeros(1),
    )
    no_oracle = dataclasses.replace(make_quadratic_minmax(dim=1),
                                    phi_grad_y=None)
    for prob in (bare, no_oracle):
        rng = RngStream(0)
        with pytest.raises(CapabilityError, match="dual oracle and set"):
            run_sgda(prob, 0.1, 0.1, 1, rng)
        assert rng.counter == 0


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
    # the phi token of step 3: the fifth of the stream, at two a step
    bad = int(RngStream(0).draw_many(6)[4])

    def phi(x, y, tok):
        return np.array([math.inf]) if tok == bad else np.ones(1)

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


@pytest.mark.parametrize("x, g, lr, factor", [(1e308, -1e308, 1.0, 1.0),
                                              (-1e308, 1e308, 1.0, 1.0)],
                         ids=["+inf", "-inf"])
def test_non_finite_iterates_keep_their_error_and_message(x, g, lr, factor):
    # +inf and -inf iterates from finite oracle values.  A NaN iterate
    # needs a step size of inf (1e300 * 1e-300 ** -1), which every run now
    # refuses up front
    prob = _constant_problem(g)
    kw = dict(x0=[x], decay_milestones=(0,), decay_factor=factor)
    with np.errstate(over="ignore"):
        sgd = run_sgd(prob, lr, 1, RngStream(0), **kw)
        sgda = run_sgda(prob, lr, 0.1, 1, RngStream(0), **kw)
    assert (sgd.aborted, sgd.abort_reason) == (
        True, "sgd iterate became non-finite")
    assert (sgda.aborted, sgda.abort_reason) == (
        True, "sgda iterate became non-finite")
    assert sgd.final_state.x[0] == sgda.final_state.x[0] == x


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_oracle_values_stop_the_baselines(bad):
    for prob, name in [(_constant_problem(bad), "phi_subgrad_x"),
                       (_constant_problem(1.0, bad), "psi_subgrad_x")]:
        res = run_sgd(prob, 0.1, 1, RngStream(0), x0=[1.0])
        assert (res.aborted, res.abort_reason) == (
            True, f"{name} returned a non-finite value")
        assert res.final_state.t == 0


def test_large_finite_iterates_are_accepted():
    # squares of iterates near 1e200 overflow; the runs must still take
    # them (the traced direction norms, of 2e150 and 1e150, do not)
    prob = _constant_problem(1e150, -1e150)
    with np.errstate(all="raise"):
        sgd = run_sgd(prob, 1e49, 1, RngStream(0), x0=[1e200])
        sgda = run_sgda(prob, 1e49, 0.1, 1, RngStream(0), x0=[1e200])
    assert not sgd.aborted and not sgda.aborted
    assert sgd.final_state.x[0] == 1e200 - 1e49 * 2e150
    assert sgda.final_state.x[0] == 1e200 - 1e49 * 1e150


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
