"""Tests for the single-loop optimizer: schedules, step kernel, driver,
and the potential/descent diagnostics."""

import dataclasses
import hashlib
import math
import struct
import time
import warnings

import numpy as np
import pytest

import dmaxopt.core as core
import dmaxopt.smag as smag
from dmaxopt.baselines import run_sgd, run_sgda
from dmaxopt.core import (
    CapabilityError,
    DMaxProblem,
    DimensionError,
    ExactAux,
    NonFiniteError,
    ParameterError,
    ProblemConstants,
    RngStream,
    box,
)
from dmaxopt.moreau import smoothed_objective
from dmaxopt.problems import (
    PaucParams,
    PuParams,
    make_onedim_dwc,
    make_pu_problem,
    make_quadratic_minmax,
    pauc_fair_problem,
    synth_biased_pauc,
    synth_gaussian_pu,
)
from dmaxopt.smag import (
    _CHUNK,
    _TRACE_BLOCK,
    _norms,
    RunResult,
    Schedule,
    SmagState,
    initial_state,
    run,
    schedule_from_theory,
    step_diagnostics,
    validate_schedule,
)

ALL_ONES = ProblemConstants(delta_phi=1.0, delta_psi=1.0, mu_phi=1.0,
                            mu_psi=1.0, l_phi_yx=1.0, l_psi_zx=1.0,
                            m_bound=1.0)


# ---------------------------------------------------------------------------
# schedules: frozen worked examples (gamma=0.5, every constant 1, eps=0.1)


def test_theory_schedule_dmax_frozen():
    s = schedule_from_theory(ALL_ONES, 0.5, 0.1, "dmax")
    assert s.alpha == pytest.approx(0.25, rel=1e-15)
    assert s.tau == pytest.approx(0.00390625, rel=1e-15)
    assert s.nu == pytest.approx(0.125, rel=1e-15)
    assert s.l_f == pytest.approx(8.0, rel=1e-15)
    assert s.eta1 == pytest.approx(1.0172526041666669e-07, rel=1e-12)
    assert s.eta0 == pytest.approx(3.9736429850260424e-10, rel=1e-12)
    assert s.t_total == 32212254720000
    assert s.eta0 == s.tau * s.eta1  # exact coupling


def test_theory_schedule_dwc_frozen():
    s = schedule_from_theory(ALL_ONES, 0.5, 0.1, "dwc")
    assert s.alpha == pytest.approx(0.5, rel=1e-15)
    assert s.tau == pytest.approx(0.015625, rel=1e-15)
    assert s.nu == pytest.approx(0.25, rel=1e-15)
    assert s.l_f == pytest.approx(8.0, rel=1e-15)
    assert s.eta1 == pytest.approx(4.0690104166666675e-07, rel=1e-12)
    assert s.eta0 == pytest.approx(6.357828776041668e-09, rel=1e-12)
    assert s.t_total == 1006632960000


def test_theory_schedule_minmax_frozen():
    s = schedule_from_theory(ALL_ONES, 0.5, 0.1, "minmax")
    assert s.alpha == pytest.approx(0.5, rel=1e-15)
    assert s.tau == pytest.approx(0.015625, rel=1e-15)
    assert s.nu == pytest.approx(0.25, rel=1e-15)
    assert s.l_f == pytest.approx(8.0, rel=1e-15)
    assert s.eta1 == pytest.approx(8.138020833333335e-07, rel=1e-12)
    assert s.t_total == 503316480000


def test_theory_schedule_satisfies_its_own_invariants():
    for mode in ("dmax", "dwc", "minmax"):
        s = schedule_from_theory(ALL_ONES, 0.5, 0.1, mode)
        validate_schedule(s, ALL_ONES, mode)  # must not raise


def test_theory_schedule_scaling():
    # halving epsilon must not increase step sizes and must increase T
    s1 = schedule_from_theory(ALL_ONES, 0.5, 0.1, "dmax")
    s2 = schedule_from_theory(ALL_ONES, 0.5, 0.05, "dmax")
    assert s2.eta1 <= s1.eta1 and s2.eta0 <= s1.eta0
    assert s2.t_total > s1.t_total
    # gap_plus_p0 scales only the iteration count
    s3 = schedule_from_theory(ALL_ONES, 0.5, 0.1, "dmax", gap_plus_p0=2.0)
    assert s3.eta1 == s1.eta1 and s3.eta0 == s1.eta0
    assert s3.t_total == pytest.approx(2 * s1.t_total, rel=1e-12)


def test_theory_schedule_skips_zero_coupling_terms():
    c = ProblemConstants(delta_phi=1.0, delta_psi=1.0, mu_phi=1.0, mu_psi=1.0,
                         l_phi_yx=0.0, l_psi_zx=0.0, m_bound=1.0)
    s = schedule_from_theory(c, 0.5, 0.1, "dmax")
    # tau = gamma^2 alpha^2 / 4 alone
    assert s.tau == pytest.approx(0.25 * 0.0625 / 4.0, rel=1e-15)


def test_theory_schedule_missing_constants():
    # without a mu the dual is absent and its terms drop: dual-less dmax
    # keeps only the strong-convexity rates, each quartered
    c = ProblemConstants(delta_phi=1.0, delta_psi=0.5, m_bound=1.0)
    s = schedule_from_theory(c, 0.5, 0.1, "dmax")
    rate_phi, rate_psi = 1.0 / 0.5 - 1.0, 1.0 / 0.5 - 0.5
    assert s.alpha == min(rate_phi, rate_psi) / 4.0
    assert s.tau == 0.5 ** 2 * s.alpha ** 2 / 4.0
    validate_schedule(s, c, "dmax")
    schedule_from_theory(c, 0.5, 0.1, "dwc")
    c2 = ProblemConstants(delta_phi=1.0, delta_psi=1.0, mu_phi=1.0,
                          mu_psi=1.0, m_bound=1.0)
    with pytest.raises(ParameterError):
        schedule_from_theory(c2, 0.5, 0.1, "dmax")  # needs coupling L's


def test_dmax_schedules_build_on_every_two_component_problem():
    # the schedule reads the duals a problem declares, as the step does:
    # the quadratic problem's mu_phi enters, the absent duals drop out
    pos, unl = synth_gaussian_pu(20, 40, 3, 1.0, 0.4, seed=1)
    for prob in (make_onedim_dwc(1.0, 0.5), make_quadratic_minmax(dim=3),
                 make_pu_problem(pos, unl, PuParams(pi_p=0.4))):
        c = prob.constants
        manual = Schedule.from_manual(0.5, 0.005, 0.01, 100, c, mode="dmax")
        theory = schedule_from_theory(c, 0.5, 0.1, "dmax")
        validate_schedule(theory, c, "dmax")
        alpha = min([2.0 / 4.0] + ([c.mu_phi] if c.mu_phi else []))
        assert manual.alpha == theory.alpha == alpha, prob.name


def test_theory_schedule_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        schedule_from_theory(ALL_ONES, 0.5, 0.0, "dmax")
    with pytest.raises(ParameterError):
        schedule_from_theory(ALL_ONES, 0.0, 0.1, "dmax")
    with pytest.raises(ParameterError):
        schedule_from_theory(ALL_ONES, 1.5, 0.1, "dmax")  # gamma >= 1/delta
    with pytest.raises(ParameterError):
        schedule_from_theory(ALL_ONES, 0.5, 0.1, "dmax", gap_plus_p0=0.0)
    with pytest.raises(ParameterError):
        schedule_from_theory(ALL_ONES, 0.5, 0.1, "bogus")


def test_from_manual_recouples_eta0():
    c = ProblemConstants(m_bound=1.0)
    s = Schedule.from_manual(0.5, 0.005, 0.01, 100, c, mode="dwc")
    assert s.eta0 == s.tau * s.eta1
    assert s.tau == pytest.approx(0.5, rel=1e-15)
    assert s.t_total == 100


def test_from_manual_enforces_caps():
    c = ProblemConstants(m_bound=1.0)
    # eta1 cap: gamma^2 (1/gamma - delta)/2 = 0.25 with gamma=0.5
    with pytest.raises(ParameterError):
        Schedule.from_manual(0.5, 0.01, 0.3, 100, c, mode="dwc")
    # eta0 cap: 1/(2 L_F) = 0.125 with gamma=0.5, deltas 0
    with pytest.raises(ParameterError):
        Schedule.from_manual(0.5, 0.15, 0.2, 100, c, mode="dwc")
    # both pass when check_feasible=False
    s = Schedule.from_manual(0.5, 0.15, 0.3, 100, c, mode="dwc",
                             check_feasible=False)
    assert s.eta1 == 0.3


def test_from_manual_rejects_bad_inputs():
    c = ProblemConstants(m_bound=1.0)
    with pytest.raises(ParameterError):
        Schedule.from_manual(0.5, -0.01, 0.01, 100, c, mode="dwc")
    with pytest.raises(ParameterError):
        Schedule.from_manual(0.5, 0.01, 0.01, 0, c, mode="dwc")
    with pytest.raises(ParameterError):
        Schedule.from_manual(2.0, 0.001, 0.01, 100,
                             ProblemConstants(delta_phi=1.0, m_bound=1.0),
                             mode="dwc")  # gamma beyond 1/delta


@pytest.mark.parametrize("gamma, eta0, eta1", [
    (1e-200, 0.005, 0.01),                # gamma ** 2 underflows to 0
    (0.5, 1e300, 1e-300),                 # tau overflows
    (0.5, 1e-300, 1e300),                 # tau underflows to 0
    (math.nan, 0.005, 0.01), (math.inf, 0.005, 0.01),
    (0.5, math.nan, 0.01), (0.5, math.inf, 0.01),
    (0.5, 0.005, math.nan), (0.5, 0.005, math.inf)])
@pytest.mark.parametrize("check_feasible", [True, False])
def test_from_manual_refuses_non_finite_and_out_of_range_inputs(
        gamma, eta0, eta1, check_feasible):
    c = ProblemConstants(m_bound=1.0)
    with pytest.raises(ParameterError):
        Schedule.from_manual(gamma, eta0, eta1, 100, c, mode="dwc",
                             check_feasible=check_feasible)


@pytest.mark.parametrize("field", ["gamma", "eta0", "eta1"])
def test_validate_schedule_refuses_non_finite_steps(field):
    c = ProblemConstants(m_bound=1.0)
    good = Schedule.from_manual(0.5, 0.005, 0.01, 10, c, mode="dwc")
    with pytest.raises(ParameterError, match=f"{field} must be positive"):
        validate_schedule(dataclasses.replace(good, **{field: math.nan}), c,
                          "dwc")


def test_validate_schedule_coupling_and_nu():
    c = ProblemConstants(m_bound=1.0)
    good = Schedule.from_manual(0.5, 0.005, 0.01, 10, c, mode="dwc")
    bad = Schedule(gamma=good.gamma, eta0=good.eta0 * (1 + 1e-9),
                   eta1=good.eta1, alpha=good.alpha, tau=good.tau,
                   nu=good.nu, l_f=good.l_f, t_total=10)
    with pytest.raises(ParameterError):
        validate_schedule(bad, c, "dwc")
    bad_nu = Schedule(gamma=good.gamma, eta0=good.eta0, eta1=good.eta1,
                      alpha=good.alpha, tau=good.tau, nu=1.5, l_f=good.l_f,
                      t_total=10)
    with pytest.raises(ParameterError):
        validate_schedule(bad_nu, c, "dwc")
    with pytest.raises(ParameterError, match="t_total must be >= 1"):
        validate_schedule(dataclasses.replace(good, t_total=0), c, "dwc")


# ---------------------------------------------------------------------------
# the step kernel


def _manual_sched(gamma, eta0, eta1, constants, mode):
    return Schedule.from_manual(gamma, eta0, eta1, 10, constants, mode=mode)


def _states(prob, mode, sched, rng, x0=None, t_total=2, **kw):
    """The states of a run of ``t_total`` steps on ``sched``'s step sizes,
    the start first: its steps take the tokens that steps taken one at a
    time would, since the output index comes from a child stream."""
    return run(prob, mode, dataclasses.replace(sched, t_total=t_total), rng,
               x0=x0, collect_states=True, **kw).states


def test_single_steps_match_hand_rolled_updates():
    prob = make_onedim_dwc(1.0, 0.5)  # deterministic
    sched = _manual_sched(0.5, 0.005, 0.01, prob.constants, "dwc")
    _, nxt, nxt2 = _states(prob, "dwc", sched, RngStream(0), 2.0)
    # x_phi: 2 - 0.01*(1 + (2-2)/0.5) = 1.99 ; x_psi: 2 - 0.01*0.5 = 1.995
    assert np.allclose(nxt.x_phi, [1.99], atol=1e-15)
    assert np.allclose(nxt.x_psi, [1.995], atol=1e-15)
    # G = (1.995 - 1.99)/0.5 = 0.01 ; x = 2 - 0.005*0.01
    assert np.allclose(nxt.last_g, [0.01], atol=1e-15)
    assert np.allclose(nxt.x, [1.99995], atol=1e-15)
    assert nxt.t == 1

    # second step exercises the proximal pull (x_phi != x)
    want_phi = 1.99 - 0.01 * (1.0 + (1.99 - 1.99995) / 0.5)
    want_psi = 1.995 - 0.01 * (0.5 + (1.995 - 1.99995) / 0.5)
    assert np.allclose(nxt2.x_phi, [want_phi], atol=1e-15)
    assert np.allclose(nxt2.x_psi, [want_psi], atol=1e-15)
    want_g = (want_psi - want_phi) / 0.5
    assert np.allclose(nxt2.x, [1.99995 - 0.005 * want_g], atol=1e-15)


def test_dmax_step_equals_dwc_step_with_degenerate_duals():
    prob = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    sched = _manual_sched(0.5, 0.005, 0.01, prob.constants, "dwc")
    for sa, sb in zip(_states(prob, "dmax", sched, RngStream(42), 2.0),
                      _states(prob, "dwc", sched, RngStream(42), 2.0)):
        assert np.array_equal(sa.x, sb.x)
        assert np.array_equal(sa.x_phi, sb.x_phi)
        assert np.array_equal(sa.x_psi, sb.x_psi)


def test_lr_scale_shrinks_the_step():
    prob = make_onedim_dwc(1.0, 0.5)
    sched = _manual_sched(0.5, 0.005, 0.01, prob.constants, "dwc")
    # a milestone at step 0 halves both step sizes from the first step on
    _, half = _states(prob, "dwc", sched, RngStream(0), 2.0, t_total=1,
                      decay_milestones=(0,), decay_factor=2.0)
    # eta1 -> 0.005: x_phi = 2 - 0.005*1
    assert np.allclose(half.x_phi, [1.995], atol=1e-15)


def test_minmax_step_algebra_and_stale_dual_anchor():
    # phi(x, y) = <x, y> - |y|^2/2 on the box [-1, 1]^2, deterministic: the
    # first step moves only y, so from the third state on x_phi != x and
    # y != 0, and every step is checked against the update written out
    prob = make_quadratic_minmax(dim=2)
    sched = _manual_sched(0.5, 0.01, 0.05, prob.constants, "minmax")
    x0 = np.array([1.0, -1.0])
    states = _states(prob, "minmax", sched, RngStream(1), x0, t_total=6)
    assert not np.array_equal(states[2].x_phi, states[2].x)
    assert np.all(states[2].y != 0.0)
    for t, (s, nxt) in enumerate(zip(states[:-1], states[1:])):
        want_phi = s.x_phi - 0.05 * (s.y + 2.0 * (s.x_phi - s.x))
        assert np.allclose(nxt.x_phi, want_phi, atol=1e-15)
        # dual ascent must use the PRE-update x_phi
        want_y = np.clip(s.y + 0.05 * (s.x_phi - s.y), -1.0, 1.0)
        assert np.allclose(nxt.y, want_y, atol=1e-15)
        if t >= 1:
            stale_wrong = s.y + 0.05 * (nxt.x_phi - s.y)
            assert not np.allclose(nxt.y, stale_wrong)
        # anchor moves along (x_t - x_phi_new)/gamma
        want_g = (s.x - want_phi) / 0.5
        assert np.allclose(nxt.last_g, want_g, atol=1e-15)
        assert np.allclose(nxt.x, s.x - 0.01 * want_g, atol=1e-15)
        # the unused second component never moves
        assert np.array_equal(nxt.x_psi, x0)


def test_dual_projection_clips_to_box():
    prob = make_quadratic_minmax(dim=1)
    sched = _manual_sched(0.5, 0.01, 0.2, prob.constants, "minmax")
    _, nxt = _states(prob, "minmax", sched, RngStream(1), [50.0], t_total=1)
    # unclipped: 0 + 0.2*(50-0) = 10 >> 1
    assert nxt.y[0] == 1.0


def test_step_token_order_and_shared_sample():
    calls = []

    def mk(name):
        def oracle(xv, dual, token):
            calls.append((name, int(token)))
            return np.zeros(xv.shape[0] if name.endswith("_x") else 1)
        return oracle

    prob = DMaxProblem(
        dim_x=1,
        constants=ProblemConstants(mu_phi=1.0, mu_psi=1.0, m_bound=1.0),
        phi_subgrad_x=mk("phi_x"),
        phi_grad_y=mk("phi_y"),
        psi_subgrad_x=mk("psi_x"),
        psi_grad_z=mk("psi_z"),
        set_y=box([-1.0], [1.0]),
        set_z=box([-1.0], [1.0]),
    )
    sched = _manual_sched(0.5, 0.005, 0.01, prob.constants, "dwc")

    rng = RngStream(3)
    expect = [int(t) for t in RngStream(3).draw_many(4)]
    _states(prob, "dmax", sched, rng, t_total=1)
    assert [name for name, _ in calls] == ["phi_x", "phi_y", "psi_x", "psi_z"]
    assert [tok for _, tok in calls] == expect

    calls.clear()
    _states(prob, "dmax", sched, RngStream(3), t_total=1, shared_sample=True)
    assert [tok for _, tok in calls] == [expect[0]] * 4

    # dwc skips the dual oracles but still consumes four tokens,
    # feeding phi/psi the same tokens as dmax does
    calls.clear()
    rng2 = RngStream(3)
    _states(prob, "dwc", sched, rng2, t_total=1)
    assert [(n, t) for n, t in calls] == [("phi_x", expect[0]),
                                          ("psi_x", expect[2])]
    assert int(rng2.draw()) == int(rng.draw())  # streams stay aligned


def test_dwc_step_requires_psi_oracle():
    prob = DMaxProblem(
        dim_x=1,
        constants=ProblemConstants(mu_phi=1.0, m_bound=1.0),
        phi_subgrad_x=lambda x, y, tok: np.zeros(1),
    )
    sched = _manual_sched(0.5, 0.005, 0.01, prob.constants, "minmax")
    with pytest.raises(CapabilityError):
        run(prob, "dwc", sched, RngStream(0))
    # minmax mode is fine without psi
    assert not run(prob, "minmax", sched, RngStream(0)).aborted


def test_a_shipped_problem_has_each_dual_whole_or_not_at_all():
    # a dual set, its oracle and its best response (on a problem with exact
    # maps; pAUC has none) are there together or not at all
    pos, unl = synth_gaussian_pu(20, 40, 3, 1.0, 0.4, seed=1)
    shipped = {
        "onedim": (make_onedim_dwc(1.0, 0.5, dim=2), False),
        "quadratic": (make_quadratic_minmax(dim=3), True),
        "pu": (make_pu_problem(pos, unl, PuParams(pi_p=0.4)), False),
        "pauc": (pauc_fair_problem(synth_biased_pauc(60, 4, seed=5),
                                   PaucParams(alpha_fair=0.5)), True),
    }
    for name, (prob, has_y) in shipped.items():
        aux = prob.exact_aux
        for has, cset, oracle, response in (
                (has_y, prob.set_y, prob.phi_grad_y, "best_response_y"),
                (False, prob.set_z, prob.psi_grad_z, "best_response_z")):
            assert (cset is not None) == has, (name, response)
            assert (oracle is not None) == has, (name, response)
            if aux is not None:
                assert (getattr(aux, response) is not None) == has, \
                    (name, response)


def test_dmax_steps_and_traces_only_the_parts_a_problem_has():
    # the 1-d problem has no duals: dmax calls its two primal oracles, still
    # draws four tokens a step, and traces the potential without best
    # responses
    base = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    calls = []

    def recorded(name):
        oracle = getattr(base, name)
        return lambda x, dual, tok: calls.append(name) or oracle(x, dual, tok)

    prob = dataclasses.replace(base, **{
        name: recorded(name) for name in ("phi_subgrad_x", "psi_subgrad_x")})
    sched = _manual_sched(0.5, 0.005, 0.01, prob.constants, "dwc")
    rng = RngStream(2)
    res = run(prob, "dmax", sched, rng, x0=2.0)
    assert calls == ["phi_subgrad_x", "psi_subgrad_x"] * 10
    assert rng.counter == 4 * 10
    assert res.final_state.y is None and res.final_state.z is None
    assert all(math.isfinite(r.p_t) for r in res.records)


def test_oracle_shape_is_validated():
    prob = DMaxProblem(
        dim_x=2,
        constants=ProblemConstants(m_bound=1.0),
        phi_subgrad_x=lambda x, y, tok: np.zeros(3),  # wrong shape
        psi_subgrad_x=lambda x, z, tok: np.zeros(2),
    )
    sched = _manual_sched(0.5, 0.005, 0.01, prob.constants, "dwc")
    with pytest.raises(ParameterError):
        run(prob, "dwc", sched, RngStream(0))


# ---------------------------------------------------------------------------
# the driver


@pytest.mark.parametrize("abort", ["none", "before", "at"])
@pytest.mark.parametrize("mode", ["dmax", "dwc", "minmax"])
def test_run_output_index_relationships(mode, abort):
    # every mode draws s from {0..T-1} and keeps the anchor after s steps
    # and the inner iterates after s + 1; a run that stops first keeps its
    # final ones.  The seed aborts before step s + 1, at it, or not at all.
    quad = make_quadratic_minmax(dim=3, noise_sigma=0.1)
    seed, t_total = 13, 40
    s = int(RngStream(seed).child(1).integers(0, t_total))
    assert 1 <= s < t_total - 1
    fail_at = {"none": None, "before": s, "at": s + 1}[abort]
    bad = None if fail_at is None else _token_of(seed, fail_at, 0)
    prob = dataclasses.replace(quad, phi_subgrad_x=_NanAt(
        quad.phi_subgrad_x, bad))
    sched = Schedule.from_manual(0.5, 0.01, 0.05, t_total, prob.constants,
                                 mode=mode)
    res = run(prob, mode, sched, RngStream(seed), x0=np.full(3, 1.0),
              collect_states=True)
    last = len(res.states) - 1
    assert res.aborted == (fail_at is not None)
    assert res.final_state.t == last == (t_total if fail_at is None
                                         else fail_at - 1)
    assert res.t_bar == (s if mode == "minmax" else s + 1)
    assert np.array_equal(res.x_bar, res.states[min(s, last)].x)
    inner = res.states[min(s + 1, last)]
    assert np.array_equal(res.candidate, inner.x_phi)
    if mode == "minmax":
        assert res.x_psi_bar is None
        assert np.array_equal(res.returned, res.x_bar)
    else:
        assert np.array_equal(res.x_psi_bar, inner.x_psi)
        assert np.array_equal(res.returned, res.candidate)


def test_dmax_on_its_own_schedule_steps_as_on_a_dwc_schedule():
    # the golden dmax run on the quadratic problem takes a dwc schedule;
    # its own dmax schedule has the same step sizes, so only the potential
    # differs, by the ratio of the two alphas
    quad = make_quadratic_minmax(dim=3, noise_sigma=0.1)
    golden = _golden_runs()["dmax-quadratic"]()
    own, dwc = (Schedule.from_manual(0.5, 0.01, 0.05, 300, quad.constants,
                                     mode=mode) for mode in ("dmax", "dwc"))
    assert own.alpha != dwc.alpha
    res = run(quad, "dmax", own, RngStream(10), x0=np.full(3, 1.5),
              trace_every=1)
    for name in ("x", "x_phi", "x_psi", "y"):
        assert np.array_equal(getattr(res.final_state, name),
                              getattr(golden.final_state, name)), name
    assert res.t_bar == golden.t_bar
    assert np.array_equal(res.returned, golden.returned)
    assert [(r.t, r.objective, r.stationarity) for r in res.records] == \
           [(r.t, r.objective, r.stationarity) for r in golden.records]
    ratio = dwc.alpha / own.alpha
    assert [r.p_t for r in res.records] == pytest.approx(
        [r.p_t * ratio for r in golden.records], rel=1e-15)


def test_run_is_deterministic_in_the_seed():
    prob = make_onedim_dwc(1.0, 0.5, noise_sigma=0.2)
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 30, prob.constants,
                                 mode="dwc")
    r1 = run(prob, "dwc", sched, RngStream(5), x0=2.0)
    r2 = run(prob, "dwc", sched, RngStream(5), x0=2.0)
    r3 = run(prob, "dwc", sched, RngStream(6), x0=2.0)
    assert np.array_equal(r1.final_state.x, r2.final_state.x)
    assert r1.t_bar == r2.t_bar
    assert [(r.t, r.objective, r.stationarity) for r in r1.records] == \
           [(r.t, r.objective, r.stationarity) for r in r2.records]
    assert not np.array_equal(r1.final_state.x, r3.final_state.x)


def test_run_trace_cadence_and_content():
    prob = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 10, prob.constants,
                                 mode="dwc")
    res = run(prob, "dwc", sched, RngStream(2), x0=2.0, trace_every=3,
              seed_label=77)
    assert [r.t for r in res.records] == [3, 6, 9, 10]
    assert all(r.seed == 77 for r in res.records)
    last = res.records[-1]
    # exact stationarity column: |ST(x, 0.25) - ST(x, 0.5)| / 0.5 at gamma=.5
    x = float(res.final_state.x[0])
    st = lambda v, t: math.copysign(max(abs(v) - t, 0.0), v)
    assert last.stationarity == pytest.approx(
        abs(st(x, 0.25) - st(x, 0.5)) / 0.5, rel=1e-12)
    assert last.objective == pytest.approx(prob.full_objective(
        res.final_state.x), rel=1e-12)
    assert not math.isnan(last.p_t)  # exact aux present -> online potential


def test_run_stationarity_falls_back_to_step_estimate():
    prob = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 5, prob.constants,
                                 mode="dwc")
    res = run(dataclasses.replace(prob, exact_aux=None), "dwc", sched,
              RngStream(2), x0=2.0)
    last = res.records[-1]
    assert last.stationarity == pytest.approx(
        float(np.linalg.norm(res.final_state.last_g)), rel=1e-12)
    assert math.isnan(last.p_t)


def test_run_exact_metrics_requires_aux():
    prob = DMaxProblem(
        dim_x=1,
        constants=ProblemConstants(m_bound=1.0),
        phi_subgrad_x=lambda x, y, tok: np.full(1, 0.5),
        psi_subgrad_x=lambda x, z, tok: np.full(1, 0.25),
    )
    sched = _manual_sched(0.5, 0.005, 0.01, prob.constants, "dwc")
    res = run(prob, "dwc", sched, RngStream(0))  # no exact_aux
    assert not res.aborted and not res.exact_metrics
    assert [r.stationarity for r in res.records] == [
        float(np.linalg.norm(s.last_g)) for s in run(
            prob, "dwc", sched, RngStream(0), collect_states=True).states[1:]]
    assert all(math.isnan(r.p_t) for r in res.records)

    # prox_phi alone does not give the dwc envelope gradient: the run falls
    # back to the step estimate
    base = make_onedim_dwc(1.0, 0.5)
    phi_only = DMaxProblem(
        dim_x=1,
        constants=base.constants,
        phi_subgrad_x=base.phi_subgrad_x,
        psi_subgrad_x=base.psi_subgrad_x,
        exact_aux=ExactAux(prox_phi=base.exact_aux.prox_phi),
    )
    res = run(phi_only, "dwc", sched, RngStream(0), x0=2.0)
    assert not res.exact_metrics
    assert res.records[-1].stationarity == pytest.approx(
        float(np.linalg.norm(res.final_state.last_g)), rel=1e-12)
    assert math.isnan(res.records[-1].p_t)


def test_run_decay_milestones_match_hand_rolled_loop():
    prob = make_onedim_dwc(1.0, 0.5)
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 6, prob.constants,
                                 mode="dwc")
    res = run(prob, "dwc", sched, RngStream(1), x0=2.0,
              decay_milestones=(2, 4), decay_factor=2.0, collect_states=True)
    x = x_phi = x_psi = 2.0
    # milestones at steps 2 and 4 (from 0) each halve both step sizes
    for scale in (1.0, 1.0, 0.5, 0.5, 0.25, 0.25):
        e1, e0 = 0.01 * scale, 0.005 * scale
        nphi = x_phi - e1 * (math.copysign(1.0, x_phi) + (x_phi - x) / 0.5)
        npsi = x_psi - e1 * (0.5 * math.copysign(1.0, x_psi)
                             + (x_psi - x) / 0.5)
        x = x - e0 * (npsi - nphi) / 0.5
        x_phi, x_psi = nphi, npsi
    assert np.allclose(res.final_state.x, [x], atol=1e-14)
    assert np.allclose(res.final_state.x_phi, [x_phi], atol=1e-14)


@pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, math.inf])
def test_every_run_refuses_a_decay_factor_not_positive_and_finite(factor):
    # NaN used to abort at the milestone as a non-finite anchor, and inf to
    # freeze every iterate after it
    dwc = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    quad = make_quadratic_minmax(dim=2, noise_sigma=0.1)
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 10, dwc.constants,
                                 mode="dwc")
    decay = dict(decay_milestones=(5,), decay_factor=factor)
    for start in (lambda rng: run(dwc, "dwc", sched, rng, x0=2.0, **decay),
                  lambda rng: run_sgd(dwc, 0.1, 10, rng, x0=2.0, **decay),
                  lambda rng: run_sgda(quad, 0.1, 0.1, 10, rng, **decay)):
        rng = RngStream(0)
        with pytest.raises(ParameterError,
                           match="^decay_factor must be positive and finite$"):
            start(rng)
        assert rng.counter == 0


def test_every_run_refuses_a_decay_scale_that_overflows():
    # the scale after milestones 0 and 1 is 1e-200 ** -2: it used to end the
    # run at step 1 in a bare OverflowError
    dwc = make_onedim_dwc(1.0, 0.5)
    quad = make_quadratic_minmax(dim=2)
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 10, dwc.constants,
                                 mode="dwc")
    decay = dict(decay_milestones=(0, 1), decay_factor=1e-200)
    for start in (lambda rng: run(dwc, "dwc", sched, rng, x0=2.0, **decay),
                  lambda rng: run_sgd(dwc, 0.1, 10, rng, x0=2.0, **decay),
                  lambda rng: run_sgda(quad, 0.1, 0.1, 10, rng, **decay)):
        rng = RngStream(0)
        with pytest.raises(ParameterError, match=r"^decay_factor \*\* -2 "):
            start(rng)
        assert rng.counter == 0
    # a milestone at or past t_total never scales a step
    res = run_sgd(dwc, 1e-201, 1, RngStream(0), x0=2.0, **decay)
    assert res.final_state.t == 1 and not res.aborted


def test_every_run_refuses_a_step_size_that_the_decay_takes_to_zero():
    # 1e200 ** -2 is 0.0, and 1e161 ** -2 is a subnormal that takes a step
    # of 0.01 to 0.0: such a run would freeze after the milestones, and an
    # unchecked oracle's inf times the zero step would be NaN
    dwc = make_onedim_dwc(1.0, 0.5)
    quad = make_quadratic_minmax(dim=2)
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 10, dwc.constants,
                                 mode="dwc")
    for factor in (1e200, 1e161):
        decay = dict(decay_milestones=(0, 1), decay_factor=factor)
        for start, name in (
                (lambda rng: run(dwc, "dwc", sched, rng, x0=2.0, **decay),
                 "eta0"),
                (lambda rng: run_sgd(dwc, 0.01, 10, rng, x0=2.0, **decay),
                 "lr"),
                (lambda rng: run_sgda(quad, 0.01, 0.01, 10, rng, **decay),
                 "lr_x")):
            rng = RngStream(0)
            with pytest.raises(ParameterError, match=(
                    rf"^{name} \* decay_factor \*\* -2 underflows to 0")):
                start(rng)
            assert rng.counter == 0
    # a subnormal step (0.1 * 1e160 ** -2) is taken, and a milestone at or
    # past t_total never scales a step
    for factor, t_total in ((1e160, 10), (1e200, 1)):
        res = run_sgd(dwc, 0.1, t_total, RngStream(0), x0=2.0,
                      decay_milestones=(0, 1), decay_factor=factor)
        assert res.final_state.t == t_total and not res.aborted


def test_every_run_refuses_a_step_size_that_the_decay_takes_to_inf():
    # 1e300 * 1e-300 ** -1 is inf: SGD on zero oracles used to step by inf
    # * 0 = NaN, with numpy's "invalid value" warning
    quad = make_quadratic_minmax(dim=2)
    zero = DMaxProblem(dim_x=1, constants=ProblemConstants(m_bound=1.0),
                       phi_subgrad_x=lambda x, y, tok: np.zeros(1),
                       psi_subgrad_x=lambda x, z, tok: np.zeros(1))
    sched = Schedule.from_manual(0.5, 1e299, 2e299, 10, quad.constants,
                                 mode="minmax", check_feasible=False)
    decay = dict(decay_milestones=(0,), decay_factor=1e-300)
    for start, name in (
            (lambda rng: run(quad, "minmax", sched, rng, **decay), "eta0"),
            (lambda rng: run_sgd(zero, 1e300, 1, rng, x0=[1.0], **decay),
             "lr"),
            (lambda rng: run_sgda(quad, 0.1, 1e300, 10, rng, **decay),
             "lr_y")):
        rng = RngStream(0)
        with pytest.raises(ParameterError, match=(
                rf"^{name} \* decay_factor \*\* -1 overflows to inf")):
            start(rng)
        assert rng.counter == 0


def test_run_aborts_on_non_finite_oracle():
    bad = _token_of(0, 4, 0)

    def bad_phi(xv, y, tok):
        return np.array([math.nan]) if tok == bad else np.ones(1)

    prob = DMaxProblem(
        dim_x=1,
        constants=ProblemConstants(m_bound=1.0),
        phi_subgrad_x=bad_phi,
        psi_subgrad_x=lambda x, z, tok: np.zeros(1),
    )
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 10, prob.constants,
                                 mode="dwc")
    res = run(prob, "dwc", sched, RngStream(0), trace_every=1)
    assert res.aborted
    assert "phi_subgrad_x" in res.abort_reason
    assert res.final_state.t == 3          # three clean steps landed
    assert [r.t for r in res.records] == [1, 2, 3]


def test_run_rejects_bad_mode_and_cadence():
    prob = make_onedim_dwc(1.0, 0.5)
    sched = _manual_sched(0.5, 0.005, 0.01, prob.constants, "dwc")
    with pytest.raises(ParameterError):
        run(prob, "bogus", sched, RngStream(0))
    with pytest.raises(ParameterError):
        run(prob, "dwc", sched, RngStream(0), trace_every=0)


# ---------------------------------------------------------------------------
# diagnostics


def _potential_reference(prob, mode, sched, states):
    """The traced ``p_t`` column rebuilt from consecutive states ``(s_t,
    s_{t+1})``, one point at a time: the squared distances of the inner
    iterates of ``s_{t+1}`` from the exact prox points of the anchor of
    ``s_t`` (in minmax mode, of the dual from its best response at the
    Phi prox point), times ``2 eta0 / (eta1 gamma^2 alpha)``.  Minmax runs
    Phi and its dual, dwc both components without duals."""
    aux, gamma = prob.exact_aux, sched.gamma
    coef = 2.0 * sched.eta0 / (sched.eta1 * gamma ** 2 * sched.alpha)
    p_t = []
    for before, after in zip(states[:-1], states[1:]):
        p_phi = aux.prox_phi(before.x, gamma)
        total = float(np.sum((after.x_phi - p_phi) ** 2))
        if mode == "minmax":
            total += float(np.sum((after.y - aux.best_response_y(p_phi))
                                  ** 2))
        else:
            total += float(np.sum((after.x_psi
                                   - aux.prox_psi(before.x, gamma)) ** 2))
        p_t.append(coef * total)
    return p_t


def test_traced_potential_frozen_value():
    prob = make_onedim_dwc(1.0, 0.5)  # deterministic
    # coefficient = 2 eta0/(eta1 gamma^2 alpha) = 2*0.25/(0.5*1*0.25) = 4
    sched = Schedule(gamma=1.0, eta0=0.25, eta1=0.5, alpha=0.25, tau=0.5,
                     nu=1.0, l_f=2.0, t_total=1)
    res = run(prob, "dwc", sched, RngStream(0), x0=3.0)
    # prox points of x0 = 3: ST(3, 1) = 2 and ST(3, .5) = 2.5; one step
    # takes x_phi to 3 - 0.5*1 = 2.5 and x_psi to 3 - 0.5*0.5 = 2.75
    assert [r.p_t for r in res.records] == [4.0 * (0.5 ** 2 + 0.25 ** 2)]
    # f_gamma at x0: phi_1(x0) - psi_1(x0) with the envelope closed forms
    f_phi = 2.0 + 0.5 * (2.0 - 3.0) ** 2
    f_psi = 0.5 * 2.5 + 0.5 * (2.5 - 3.0) ** 2
    assert smoothed_objective(prob, np.array([3.0]), 1.0) == pytest.approx(
        f_phi - f_psi, rel=1e-12)


def test_traced_potential_shrinks_along_a_real_run():
    # noiseless: while the anchor travels, the tracking error holds a
    # steady floor (target speed / contraction rate); once the anchor
    # parks in the flat region the inner iterates limit-cycle around the
    # kink with amplitude O(eta1), so the potential drops to O(eta1^2).
    prob = make_onedim_dwc(1.0, 0.5)
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 2500, prob.constants,
                                 mode="dwc")
    res = run(prob, "dwc", sched, RngStream(3), x0=2.0)
    p_t = np.array([r.p_t for r in res.records])
    assert p_t.shape == (2500,)
    assert np.mean(p_t[:50]) > 0.1
    assert np.mean(p_t[-50:]) < 2e-3  # ~ coef * 2 * (1.5 eta1)^2

    # with noise the potential only decays to a noise floor, but the
    # column traced online must equal its recomputation from the states
    noisy = make_onedim_dwc(1.0, 0.5, noise_sigma=0.05)
    res_n = run(noisy, "dwc", sched, RngStream(3), x0=2.0,
                collect_states=True)
    assert [r.p_t for r in res_n.records] == _potential_reference(
        noisy, "dwc", sched, res_n.states)


def test_traced_potential_needs_every_map_it_reads():
    # without the dual's best response a minmax run keeps its exact
    # stationarity and traces no potential (a dwc run without prox_psi has
    # neither: see test_run_exact_metrics_requires_aux)
    quad = make_quadratic_minmax(dim=2)
    no_response = dataclasses.replace(quad, exact_aux=dataclasses.replace(
        quad.exact_aux, best_response_y=None))
    sched = _manual_sched(0.5, 0.01, 0.05, quad.constants, "minmax")
    res = run(no_response, "minmax", sched, RngStream(0), x0=[1.0, -1.0])
    full = run(quad, "minmax", sched, RngStream(0), x0=[1.0, -1.0])
    assert res.exact_metrics
    assert [r.stationarity for r in res.records] == \
           [r.stationarity for r in full.records]
    assert all(math.isnan(r.p_t) for r in res.records)
    assert all(math.isfinite(r.p_t) for r in full.records)


def test_traced_potential_minmax_reads_no_psi_maps():
    # Psi is identically zero in minmax mode: a registered prox_psi without
    # value_psi must not be read for the smoothed objective or the potential
    base = make_quadratic_minmax(dim=2)
    aux = base.exact_aux
    prob = DMaxProblem(
        dim_x=2,
        constants=base.constants,
        phi_subgrad_x=base.phi_subgrad_x,
        phi_grad_y=base.phi_grad_y,
        set_y=base.set_y,
        exact_aux=ExactAux(prox_phi=aux.prox_phi, prox_psi=aux.prox_psi,
                           best_response_y=aux.best_response_y,
                           value_phi=aux.value_phi),
    )
    sched = Schedule.from_manual(0.5, 0.01, 0.05, 5, prob.constants,
                                 mode="minmax")
    res, full = (run(p, "minmax", sched, RngStream(4),
                     x0=np.array([1.5, -0.5]), collect_states=True)
                 for p in (prob, base))
    assert [r.p_t for r in res.records] == [r.p_t for r in full.records]
    assert all(math.isfinite(r.p_t) for r in res.records)
    for s in res.states[:-1]:
        assert smoothed_objective(prob, s.x, 0.5) == \
               smoothed_objective(base, s.x, 0.5)


def test_step_diagnostics_inequalities_hold_deterministically():
    prob = make_onedim_dwc(1.0, 0.5)
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 200, prob.constants,
                                 mode="dwc")
    res = run(prob, "dwc", sched, RngStream(0), x0=2.0, collect_states=True)
    held = 0
    for before, after in zip(res.states[:-1], res.states[1:]):
        d = step_diagnostics(prob, before, after, sched)
        assert d["error_sq"] <= d["tracking_bound"] + 1e-12
        if d["descent_lhs"] <= d["descent_rhs"] + 1e-12:
            held += 1
    assert held == 200  # noiseless: the descent bound holds at every step


def test_step_diagnostics_requires_exact_aux():
    prob = DMaxProblem(
        dim_x=1,
        constants=ProblemConstants(m_bound=1.0),
        phi_subgrad_x=lambda x, y, tok: np.zeros(1),
        psi_subgrad_x=lambda x, z, tok: np.zeros(1),
    )
    sched = _manual_sched(0.5, 0.005, 0.01, prob.constants, "dwc")
    s = initial_state(prob)
    with pytest.raises(CapabilityError):
        step_diagnostics(prob, s, s, sched)


def test_step_diagnostics_read_psi_from_its_function_oracle():
    # without Psi's exact maps its prox point and envelope come from psi_fn,
    # as for the full maps, rather than from a Psi read as 0
    full = make_onedim_dwc(1.0, 0.5, kappa_phi=0.5, kappa_psi=0.2,
                           center_phi=0.3)
    aux = full.exact_aux
    phi_only = dataclasses.replace(full, exact_aux=ExactAux(
        prox_phi=aux.prox_phi, value_phi=aux.value_phi))
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 1, full.constants,
                                 mode="dwc")
    before, after = _states(full, "dwc", sched, RngStream(0), 2.0, t_total=1)
    want = step_diagnostics(full, before, after, sched)
    assert want["grad_env_norm"] == pytest.approx(0.7818181818, rel=1e-9)
    got = step_diagnostics(phi_only, before, after, sched)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_initial_state_shapes_and_duals():
    prob = make_quadratic_minmax(dim=4)
    s = initial_state(prob, np.full(4, 1.5))
    assert np.allclose(s.x, np.full(4, 1.5))
    assert np.array_equal(s.x, s.x_phi) and np.array_equal(s.x, s.x_psi)
    assert np.allclose(s.y, np.zeros(4))  # projected origin
    assert s.t == 0
    vec = initial_state(prob, [1.0, 2.0, 3.0, 4.0])
    assert np.allclose(vec.x, [1.0, 2.0, 3.0, 4.0])
    # x0 must be explicitly shaped: no silent scalar broadcast
    with pytest.raises(DimensionError):
        initial_state(prob, 1.5)


def _constant_oracle_problem(g_phi, g_psi=0.0, g_y=0.0, dim=1):
    return DMaxProblem(
        dim_x=dim, constants=ProblemConstants(m_bound=1.0),
        phi_subgrad_x=lambda x, y, tok: np.full(dim, g_phi),
        phi_grad_y=lambda x, y, tok: np.full(dim, g_y),
        psi_subgrad_x=lambda x, z, tok: np.full(dim, g_psi),
        set_y=box(-np.ones(dim), np.ones(dim)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_oracle_values_keep_their_error_and_message(bad):
    sched = _manual_sched(0.5, 0.005, 0.01, ALL_ONES, "dwc")
    for dim in (1, 3):
        for mode, prob, name in [
                ("dwc", _constant_oracle_problem(bad, dim=dim),
                 "phi_subgrad_x"),
                ("dwc", _constant_oracle_problem(1.0, bad, dim=dim),
                 "psi_subgrad_x"),
                ("minmax", _constant_oracle_problem(1.0, g_y=bad, dim=dim),
                 "phi_grad_y")]:
            res = run(prob, mode, dataclasses.replace(sched, t_total=1),
                      RngStream(0), x0=np.ones(dim))
            assert (res.aborted, res.abort_reason) == (
                True, f"{name} returned a non-finite value")
            assert res.final_state.t == 0 and res.records == []


class _OneTooLong:
    """A batched oracle whose rows have one entry too many."""

    def sample(self, tokens):
        return None

    def grad(self, x, dual, batch):
        return np.ones((x.shape[0], x.shape[1] + 1))


@pytest.mark.parametrize("batched", [False, True], ids=["plain", "batched"])
@pytest.mark.parametrize("name", ["phi_subgrad_x", "psi_subgrad_x"])
def test_an_oracle_of_the_wrong_shape_is_named(name, batched):
    dim = 3
    plain = lambda x, dual, tok: np.ones(dim + 1)  # noqa: E731
    prob = dataclasses.replace(_constant_oracle_problem(1.0, dim=dim), **{
        name: _OneTooLong() if batched else plain})
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 5, ALL_ONES, mode="dwc")
    want = rf"^{name} returned shape \({dim + 1},\), expected \({dim},\)$"
    with pytest.raises(ParameterError, match=want):
        run(prob, "dwc", sched, RngStream(0), x0=np.ones(dim))
    with pytest.raises(ParameterError, match=want):
        run(prob, "dwc", sched, [RngStream(s) for s in (1, 2, 3)],
            x0=np.ones(dim))


@pytest.mark.parametrize("x0, g_psi", [(1e308, 0.0), (-1e308, 0.0),
                                       (1e308, -1e308)],
                         ids=["+inf", "-inf", "nan"])
def test_non_finite_anchor_keeps_its_error_and_message(x0, g_psi):
    # +inf, -inf and NaN anchors from finite oracle values: step sizes
    # scaled by 1e10 take x_phi (and, for NaN, x_psi too) to +-inf
    prob = _constant_oracle_problem(-x0, g_psi)
    sched = _manual_sched(0.5, 0.005, 0.01, ALL_ONES, "dwc")
    with np.errstate(over="ignore", invalid="ignore"):
        res = run(prob, "dwc", dataclasses.replace(sched, t_total=1),
                  RngStream(0), x0=x0, decay_milestones=(0,),
                  decay_factor=1e-10)
    assert (res.aborted, res.abort_reason) == (
        True, "anchor iterate became non-finite")
    assert res.final_state.x[0] == x0


def test_large_finite_oracle_values_and_anchors_are_accepted():
    # squares of 1e200 overflow; the step must still take them.  Equal
    # oracle values keep the traced step estimate (and its norm) at 0
    prob = _constant_oracle_problem(1e200, 1e200, dim=2)
    sched = _manual_sched(0.5, 0.005, 0.01, ALL_ONES, "dwc")
    with np.errstate(all="raise"):
        _, nxt = _states(prob, "dwc", sched, RngStream(0), [1e200, 0.0],
                         t_total=1)
    assert np.array_equal(nxt.x, [1e200, 0.0])
    assert np.array_equal(nxt.x_phi, [1e200 - 0.01 * 1e200, -0.01 * 1e200])
    assert np.array_equal(nxt.x_psi, nxt.x_phi)


def test_norms_of_large_finite_rows_stay_finite():
    # squared sums above the float range: such a finite row takes the norm
    # of the row scaled by its largest magnitude, with no warning
    assert _norms(np.array([[3.66e199]])).tolist() == [3.66e199]
    (norm,) = _norms(np.array([[3e200, 4e200]]))
    assert abs(norm - 5e200) <= 1e-15 * 5e200
    assert _norms(np.array([[3.0, 4.0], [math.inf, 1.0], [1e-200, 0.0]])
                  ).tolist() == [5.0, math.inf, 0.0]
    # a random stack, over scales where the squared sums stay in range,
    # against np.linalg.norm of each row alone, bit for bit
    gen = np.random.default_rng(5)
    for n, dim in ((1, 1), (7, 3), (64, 10), (5, 2005)):
        v = gen.standard_normal((n, dim)) * 10.0 ** gen.uniform(
            -150, 150, (n, 1))
        got = _norms(v)
        assert got.shape == (n,) and got.dtype == np.float64
        assert got.tobytes() == np.array(
            [np.linalg.norm(row) for row in v]).tobytes()
    # a run's traced step estimate of that size, which read inf
    prob = _constant_oracle_problem(1e200, -1e200)
    sched = _manual_sched(0.5, 0.005, 0.01, ALL_ONES, "dwc")
    res = run(prob, "dwc", dataclasses.replace(sched, t_total=10),
              RngStream(0), x0=1e200)
    assert res.records[-1].stationarity == abs(res.final_state.last_g[0])
    assert 3.6e199 < res.records[-1].stationarity < 3.7e199


# ---------------------------------------------------------------------------
# golden digests: whole runs pinned to the bit


def _digest(res) -> str:
    """sha256 of everything deterministic a run returns: each trace row
    but its wall time, the final state, the output iterates and the abort
    reason."""
    h = hashlib.sha256()

    def arr(v):
        if v is None:
            h.update(b"None")
            return
        v = np.asarray(v)
        h.update(f"{v.dtype.str}{v.shape}".encode())
        h.update(v.tobytes())

    for r in res.records:
        h.update(struct.pack("<qdddq", r.t, r.objective, r.stationarity,
                             r.p_t, r.seed))
    fs = res.final_state
    for name in ("x", "x_phi", "x_psi", "y", "z", "last_g", "last_dir"):
        if hasattr(fs, name):
            arr(getattr(fs, name))
    h.update(repr((fs.t, res.aborted, res.abort_reason)).encode())
    for name in ("t_bar", "x_bar", "candidate", "returned", "x_psi_bar"):
        if hasattr(res, name):
            v = getattr(res, name)
            arr(v) if not isinstance(v, int) else h.update(repr(v).encode())
    return h.hexdigest()


def _golden_runs():
    dwc = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    dwc3 = make_onedim_dwc(1.0, 0.5, kappa_phi=0.2, center_psi=0.3,
                           noise_sigma=0.2, dim=3)
    quad = make_quadratic_minmax(dim=3, noise_sigma=0.1)
    pauc_data = synth_biased_pauc(60, 4, seed=5)
    pauc = pauc_fair_problem(pauc_data, PaucParams(
        alpha_fair=0.5, batch_pos=8, batch_neg=8, batch_attr=8))

    def sched(prob, mode, t_total, eta0=0.005, eta1=0.01):
        return Schedule.from_manual(0.5, eta0, eta1, t_total,
                                    prob.constants, mode=mode)

    def anchor_blows_up():
        # finite oracles near the top of the float range: the inner
        # iterates overflow on the second step, then the anchor follows
        prob = DMaxProblem(
            dim_x=1, constants=ProblemConstants(m_bound=1.0),
            phi_subgrad_x=lambda x, y, tok: np.full(1, -1e308),
            psi_subgrad_x=lambda x, z, tok: np.full(1, 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            return run(prob, "dwc", sched(prob, "dwc", 10, 0.05, 0.2),
                       RngStream(0), x0=1.5e308)

    def oracle_goes_nan():
        bad = _token_of(4, 8, 0)

        def phi(x, y, tok):
            return np.array([math.nan if tok == bad else 1.0, 0.5])

        prob = DMaxProblem(
            dim_x=2, constants=ProblemConstants(m_bound=1.0),
            phi_subgrad_x=phi, psi_subgrad_x=lambda x, z, tok: np.zeros(2))
        return run(prob, "dwc", sched(prob, "dwc", 20), RngStream(4))

    return {
        "dwc-exact-decay": lambda: run(
            dwc, "dwc", sched(dwc, "dwc", 400), RngStream(7), x0=2.0,
            trace_every=1, decay_milestones=(100, 250), decay_factor=3.0),
        "dwc-estimate-shared": lambda: run(
            dataclasses.replace(dwc3, exact_aux=None), "dwc",
            sched(dwc3, "dwc", 300), RngStream(8),
            x0=np.array([2.0, -1.0, 0.5]), trace_every=1,
            shared_sample=True),
        "dmax-onedim": lambda: run(
            dwc3, "dmax", sched(dwc3, "dwc", 300), RngStream(9),
            x0=np.array([1.0, -2.0, 0.25]), trace_every=1,
            decay_milestones=(50,)),
        "dmax-quadratic": lambda: run(
            quad, "dmax", sched(quad, "dwc", 300, 0.01, 0.05), RngStream(10),
            x0=np.full(3, 1.5), trace_every=1),
        "minmax-exact-decay": lambda: run(
            quad, "minmax", sched(quad, "minmax", 400, 0.01, 0.05),
            RngStream(11), x0=np.array([1.5, -0.5, 3.0]), trace_every=1,
            decay_milestones=(150, 300), decay_factor=2.0),
        "minmax-pauc": lambda: run(
            pauc, "minmax", sched(pauc, "minmax", 60, 0.005, 0.02),
            RngStream(12), trace_every=1),
        "abort-anchor": anchor_blows_up,
        "abort-oracle": oracle_goes_nan,
        "sgd-decay": lambda: run_sgd(
            dwc3, 0.01, 300, RngStream(13), x0=np.array([2.0, 0.0, -1.0]),
            trace_every=1, decay_milestones=(100, 200), decay_factor=2.0),
        "sgda-shared": lambda: run_sgda(
            quad, 0.02, 0.05, 300, RngStream(14), x0=np.full(3, -1.0),
            trace_every=1, decay_milestones=(120,), shared_sample=True),
    }


# sha256 of each run in ``_golden_runs``, recorded before the step kernel,
# driver loop and trace rows were trimmed for speed; any change to a bit of
# a trajectory, a trace row or an abort reason changes them.  The six runs
# on the 1-d and quadratic problems were re-recorded when those problems
# lost their frozen dummy duals: their final ``y``/``z`` became ``None``,
# and everything else hashed the same as before.  ``minmax-pauc`` was
# re-recorded for ``pauc-fair/2``, whose full-data objective sums sorted
# scores: its objective column moved by ulps, and with that column left
# out the run hashed the same as before.  ``abort-anchor`` was re-recorded
# when a step estimate whose squared sum overflows got a finite norm: its
# one trace row read stationarity inf and now reads |last_g| = 8e307, and
# everything else hashed the same as before.
GOLDEN = {
    "abort-anchor":
        "b9926a1a13e1bf1e0ce087917a1f420da3531fc06f47067cf227fcbb5c786a80",
    "abort-oracle":
        "5a4fe189a9eef0ecc451a2250abd447947188198a35ac150d89a782cdc3a07a1",
    "dmax-onedim":
        "0c9f275439ad41a699f7dc3115a86a43a8a88aa421cd66665058be738c647502",
    "dmax-quadratic":
        "b16a5f5fb17e4d19a3ca858da865c5925171da0ced6949114d7551503fa5acf3",
    "dwc-estimate-shared":
        "5b7b5708956c846523b12f02982c854cae35a93b0604dfea334667212b8d28b6",
    "dwc-exact-decay":
        "140c51b5fe6323c0868319917577d7f031ac7cec242d6a397d5f6c15bb295331",
    "minmax-exact-decay":
        "37e5f1a3660793c8188749dde331720bdfe986169cfb6352e2677da53b4098ed",
    "minmax-pauc":
        "16438d8bd55e7e785b8034b0d924d6d59639b9599d28e8d9da74c0887d329e70",
    "sgd-decay":
        "82bc7a77e82aad7e037f48078866fda3326ff9afa4e12da14ed8155e5ef20035",
    "sgda-shared":
        "503d678c337e62333127ef7da03347d52bf1d80d02512c58fb80208f5b80cc99",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_runs_match_their_golden_digests(case):
    assert _digest(_golden_runs()[case]()) == GOLDEN[case]


# ---------------------------------------------------------------------------
# seeds in lockstep


def _state_bits(state):
    return [(name, None if v is None else np.asarray(v).tobytes())
            for name, v in sorted(vars(state).items())]


def _lockstep_cases():
    dwc = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    dwc3 = make_onedim_dwc(1.0, 0.5, kappa_phi=0.2, center_psi=0.3,
                           noise_sigma=0.2, dim=3)
    quad = make_quadratic_minmax(dim=3, noise_sigma=0.1)
    pauc = pauc_fair_problem(synth_biased_pauc(60, 4, seed=5), PaucParams(
        alpha_fair=0.5, batch_pos=8, batch_neg=8, batch_attr=8))
    pu = make_pu_problem(*synth_gaussian_pu(30, 50, 3, 1.5, 0.5, seed=2),
                         PuParams(pi_p=0.5, batch_pos=7, batch_unl=5))
    blow_up = DMaxProblem(
        dim_x=1, constants=ProblemConstants(m_bound=1.0),
        phi_subgrad_x=lambda x, y, tok: np.full(1, -1e308),
        psi_subgrad_x=lambda x, z, tok: np.full(1, 1e308))

    def sched(prob, mode, t_total, eta0=0.005, eta1=0.01):
        return Schedule.from_manual(0.5, eta0, eta1, t_total,
                                    prob.constants, mode=mode)

    return {
        "dwc-exact-decay-states": lambda rng, label: run(
            dwc, "dwc", sched(dwc, "dwc", 300), rng, x0=2.0,
            trace_every=7, seed_label=label, decay_milestones=(100, 250),
            decay_factor=3.0, collect_states=True),
        "dwc-exact-every-step": lambda rng, label: run(
            dwc3, "dwc", sched(dwc3, "dwc", 200), rng,
            x0=np.array([2.0, -1.0, 0.5]), trace_every=1, seed_label=label),
        "dwc-estimate-shared": lambda rng, label: run(
            dataclasses.replace(dwc3, exact_aux=None), "dwc",
            sched(dwc3, "dwc", 200), rng,
            x0=np.array([2.0, -1.0, 0.5]), seed_label=label,
            shared_sample=True),
        "dmax-quadratic": lambda rng, label: run(
            quad, "dmax", sched(quad, "dwc", 200, 0.01, 0.05), rng,
            x0=np.full(3, 1.5), seed_label=label),
        "minmax-decay-states": lambda rng, label: run(
            quad, "minmax", sched(quad, "minmax", 250, 0.01, 0.05), rng,
            x0=np.array([1.5, -0.5, 3.0]), seed_label=label,
            decay_milestones=(100, 200), decay_factor=2.0,
            collect_states=True),
        "minmax-pauc": lambda rng, label: run(
            pauc, "minmax", sched(pauc, "minmax", 40, 0.005, 0.02), rng,
            seed_label=label),
        "dwc-pu-shared": lambda rng, label: run(
            pu, "dwc", sched(pu, "dwc", 60, 0.01, 0.05), rng,
            x0=np.array([0.5, -0.5, 0.2]), seed_label=label,
            shared_sample=True),
        "all-abort-anchor": lambda rng, label: run(
            blow_up, "dwc", sched(blow_up, "dwc", 10, 0.05, 0.2), rng,
            x0=1.5e308, seed_label=label),
        "sgd-decay": lambda rng, label: run_sgd(
            dwc3, 0.01, 200, rng, x0=np.array([2.0, 0.0, -1.0]),
            seed_label=label, decay_milestones=(100,), decay_factor=2.0),
        "sgda-shared": lambda rng, label: run_sgda(
            quad, 0.02, 0.05, 200, rng, x0=np.full(3, -1.0),
            seed_label=label, decay_milestones=(120,), shared_sample=True),
    }


@pytest.mark.parametrize("case", sorted(_lockstep_cases()))
def test_seeds_in_lockstep_equal_their_solo_runs(case):
    runner = _lockstep_cases()[case]
    seeds = [21, 22, 23]
    solo_rngs = [RngStream(s) for s in seeds]
    batch_rngs = [RngStream(s) for s in seeds]
    with np.errstate(over="ignore", invalid="ignore"):
        solo = [runner(r, s) for r, s in zip(solo_rngs, seeds)]
        batch = runner(batch_rngs, seeds)
    assert len(batch) == len(seeds)
    for a, b, ra, rb in zip(solo, batch, solo_rngs, batch_rngs):
        assert _digest(b) == _digest(a)
        # the streams end where the solo runs left theirs: four tokens per
        # SMAG step, two per baseline step, the aborted step included
        per_step = 4 if isinstance(a, RunResult) else 2
        assert rb.counter == per_step * (a.final_state.t + a.aborted)
        assert (rb.counter, rb.draw()) == (ra.counter, ra.draw())
        assert [r.seed for r in b.records] == [r.seed for r in a.records]
        if getattr(a, "states", None) is not None:
            assert [_state_bits(s) for s in b.states] == \
                   [_state_bits(s) for s in a.states]
    if case == "all-abort-anchor":
        assert all(r.aborted for r in batch)
    if case == "dwc-exact-every-step":
        # every row carries the potential, from the stacked prox cache
        assert all(math.isfinite(rec.p_t) for r in batch for rec in r.records)


def test_maps_that_take_one_point_fail_on_a_stack_of_seeds():
    dwc = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1, dim=3)
    quad = make_quadratic_minmax(dim=3, noise_sigma=0.1)
    one_point = {
        "full_objective": (dataclasses.replace(
            dwc, full_objective=lambda x: float(x.sum())), "dwc"),
        "exact_aux.best_response_y": (dataclasses.replace(
            quad, exact_aux=dataclasses.replace(
                quad.exact_aux, best_response_y=lambda x: np.zeros(3))),
            "minmax"),
    }
    for name, (prob, mode) in one_point.items():
        sched = Schedule.from_manual(0.5, 0.005, 0.01, 20, prob.constants,
                                     mode=mode)
        with pytest.raises(ParameterError, match=name):
            run(prob, mode, sched, [RngStream(1), RngStream(2)],
                x0=np.ones(3))


@pytest.mark.parametrize("dim, n_seeds", [(10, 4), (1, 1)])
def test_a_map_that_takes_one_point_fails_at_the_first_traced_step(
        dim, n_seeds):
    quad = make_quadratic_minmax(dim=dim)
    tokens = []

    def phi_x(x, y, token):
        tokens.append(token)
        return quad.phi_subgrad_x(x, y, token)

    prob = dataclasses.replace(quad, phi_subgrad_x=phi_x,
                               full_objective=lambda x: float(x.sum()))
    sched = Schedule.from_manual(0.5, 0.01, 0.05, 5000, prob.constants,
                                 mode="minmax")
    with pytest.raises(ParameterError, match="full_objective"):
        run(prob, "minmax", sched, [RngStream(s) for s in range(n_seeds)],
            x0=np.ones(dim))
    assert len(tokens) == n_seeds  # one step of each seed


@pytest.mark.parametrize("dim", (1, 7, 8, 9, 128, 129, 2005))
def test_stacked_trace_reductions_equal_their_rows_bit_for_bit(dim):
    from dmaxopt.smag import _norms, _pick, _potential_terms, _prox_pair, _sq
    gen = core.token_generator(dim)
    v = gen.standard_normal((3, dim)) * np.array([[1e-3], [1.0], [1e5]])
    for j in range(3):
        assert _norms(v)[j] == float(np.linalg.norm(v[j]))
        assert _sq(v)[j] == float(np.sum(v[j] ** 2))
    # the potential of a stacked state, against each row's own; the
    # quadratic problem has no second dual, so z gets a test-local one.
    # The terms read only which token slots have an oracle: these are the
    # slots of dmax on a problem with both duals, of dwc and of minmax.
    aux = dataclasses.replace(make_quadratic_minmax(dim=dim).exact_aux,
                              best_response_z=lambda p: np.clip(p, -0.5, 0.5))
    x, x_phi, x_psi, y, z = 2.0 * gen.standard_normal((5, 3, dim))
    st = SmagState(x=x, x_phi=x_phi, x_psi=x_psi, y=y, z=z, last_g=v, t=1)
    for slots in ([1, 1, 1, 1], [1, None, 1, None], [1, 1, None, None]):
        stacked = _potential_terms(aux, *_prox_pair(aux, st.x, 0.5, slots),
                                   st, slots)
        for j in range(3):
            row = _pick(st, j)
            assert stacked[j] == _potential_terms(
                aux, *_prox_pair(aux, row.x, 0.5, slots), row, slots)


def test_run_of_a_list_of_one_stream_is_run():
    dwc = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    quad = make_quadratic_minmax(dim=3, noise_sigma=0.1)
    [a] = run(dwc, "dwc", Schedule.from_manual(
        0.5, 0.005, 0.01, 400, dwc.constants, mode="dwc"), [RngStream(7)],
        x0=2.0, trace_every=1, decay_milestones=(100, 250),
        decay_factor=3.0)
    assert _digest(a) == GOLDEN["dwc-exact-decay"]
    [b] = run(quad, "minmax", Schedule.from_manual(
        0.5, 0.01, 0.05, 400, quad.constants, mode="minmax"),
        [RngStream(11)], x0=np.array([1.5, -0.5, 3.0]), trace_every=1,
        decay_milestones=(150, 300), decay_factor=2.0)
    assert _digest(b) == GOLDEN["minmax-exact-decay"]


class _NanAt:
    """An oracle that returns ``value`` (NaN by default) in every entry for
    one token, with or without the bulk ``sample`` / ``grad`` split."""

    def __init__(self, oracle, bad, value=math.nan):
        self.oracle, self.bad, self.value = oracle, bad, value

    def __call__(self, x, dual, token):
        g = self.oracle(x, dual, token)
        return np.full_like(g, self.value) if token == self.bad else g


class _BulkNanAt(_NanAt):
    def sample(self, tokens):
        flag = (tokens == np.uint64(self.bad)).astype(np.float64)
        return np.column_stack([self.oracle.sample(tokens), flag])

    def grad(self, x, dual, z):
        g = self.oracle.grad(x, dual, z[:, :-1])
        return np.where(z[:, -1:] == 1.0, self.value, g)


def _token_of(seed, step_no, slot, per_step=4):
    """``seed``'s token for the oracle of ``slot`` at step ``step_no`` of
    a run that draws ``per_step`` tokens a step (four for SMAG)."""
    return int(RngStream(seed).draw_many(per_step * step_no)[
        per_step * (step_no - 1) + slot])


def _one_seed_fails(slot, step_no, seed, kind, dim=3):
    """The quadratic problem, with the oracle of token slot ``slot``
    failing on ``seed``'s token of step ``step_no``: NaN from a batched or
    a plain oracle, a plain oracle that raises :class:`NonFiniteError`, or
    a finite 1e308 whose dual ascent step overflows."""
    quad = make_quadratic_minmax(dim=dim, noise_sigma=0.1)
    bad = _token_of(seed, step_no, slot)
    field = ("phi_subgrad_x", "phi_grad_y")[slot]
    base = getattr(quad, field)
    if kind == "overflow":
        def oracle(x, y, tok):
            return np.full(dim, 1e308) if tok == bad else base(x, y, tok)
    elif kind == "raise":
        def oracle(x, y, tok):
            if tok == bad:
                raise NonFiniteError(f"{field} refused token {tok}")
            return base(x, y, tok)
    else:
        oracle = (_BulkNanAt if kind == "bulk" else _NanAt)(base, bad)
    return dataclasses.replace(quad, **{field: oracle})


@pytest.mark.parametrize("slot, kind, why", [
    (0, "bulk", "phi_subgrad_x returned a non-finite value"),
    (0, "per-seed", "phi_subgrad_x returned a non-finite value"),
    (1, "bulk", "phi_grad_y returned a non-finite value"),
    (1, "per-seed", "phi_grad_y returned a non-finite value"),
    (1, "overflow", "point contains non-finite entries"),
    (0, "raise", "phi_subgrad_x refused token {bad}"),
    (1, "raise", "phi_grad_y refused token {bad}")])
def test_a_seed_that_aborts_mid_chunk_stops_alone(slot, kind, why):
    seeds, failing, step_no = [31, 32, 33], 32, 40
    prob = _one_seed_fails(slot, step_no, failing, kind)
    why = why.format(bad=_token_of(failing, step_no, slot))
    # eta1 = 2 lets a dual ascent step of 2e308 overflow
    sched = Schedule.from_manual(
        0.5, 0.01, 2.0 if kind == "overflow" else 0.05, 60, prob.constants,
        mode="minmax", check_feasible=False)
    solo_rngs = [RngStream(s) for s in seeds]
    batch_rngs = [RngStream(s) for s in seeds]
    with np.errstate(over="ignore"):
        solo = [run(prob, "minmax", sched, r, x0=np.full(3, 0.5),
                    seed_label=s) for r, s in zip(solo_rngs, seeds)]
        batch = run(prob, "minmax", sched, batch_rngs, x0=np.full(3, 0.5),
                    seed_label=seeds)
    for s, a, b, ra, rb in zip(seeds, solo, batch, solo_rngs, batch_rngs):
        assert _digest(b) == _digest(a)
        assert b.aborted == (s == failing)
        assert rb.counter == ra.counter
        assert rb.draw() == ra.draw()
        assert rb.integers(0, 10 ** 9) == ra.integers(0, 10 ** 9)
    lost = batch[seeds.index(failing)]
    assert lost.abort_reason == why
    assert lost.final_state.t == step_no - 1
    assert solo_rngs[seeds.index(failing)].counter == 4 * step_no + 2


def test_every_token_on_the_scalar_fallback_keeps_the_golden_digests(
        monkeypatch):
    # zero tables: no draw passes the bulk fast path, and one that did
    # would read 0
    monkeypatch.setattr(core, "_zig", (np.zeros(256),
                                       np.zeros(256, dtype=np.uint64)))
    # the pAUC run's chunks of 60 tokens per oracle are below the bulk
    # cutoff: its indices are realized token by token
    realized = []
    plain = core._scalar_rows

    def counted(out, keys, rows, draw):
        rows = list(rows)
        realized.extend(rows)
        plain(out, keys, rows, draw)

    monkeypatch.setattr(core, "_scalar_rows", counted)
    for case, make in _golden_runs().items():
        n = len(realized)
        assert _digest(make()) == GOLDEN[case], case
        if case == "minmax-pauc":
            assert len(realized) - n == 2 * 60
    assert len(realized) > 1000


def test_data_oracles_run_as_their_plain_calls():
    """Runs on the batched pAUC and PU oracles equal runs on the same
    oracles wrapped as plain callables, which a run calls token by
    token: SMAG's runs, and the baselines' runs on their two token
    slots (SGDA on pAUC, SGD on PU)."""
    pauc = pauc_fair_problem(synth_biased_pauc(60, 4, seed=5), PaucParams(
        alpha_fair=0.5, batch_pos=5, batch_neg=9, batch_attr=7))
    pu = make_pu_problem(*synth_gaussian_pu(30, 50, 3, 1.5, 0.5, seed=2),
                         PuParams(pi_p=0.5, batch_pos=7, batch_unl=5))
    seeds = [41, 42]

    def smag(mode):
        def go(p, **kw):
            sched = Schedule.from_manual(
                0.5, 0.01, 0.05, 50, p.constants,
                mode="dwc" if mode == "dmax" else mode)
            return run(p, mode, sched, **kw)
        return go

    for prob, go in ((pauc, smag("minmax")), (pu, smag("dwc")),
                     (pu, smag("dmax")),
                     (pauc, lambda p, **kw: run_sgda(p, 0.01, 0.05, 50,
                                                     **kw)),
                     (pu, lambda p, **kw: run_sgd(p, 0.01, 50, **kw))):
        plain = dataclasses.replace(prob, **{
            name: (lambda o: lambda x, dual, tok: o(x, dual, tok))(o)
            for name in ("phi_subgrad_x", "phi_grad_y", "psi_subgrad_x")
            if (o := getattr(prob, name)) is not None})
        for shared in (False, True):
            got, want = (go(p, rng=[RngStream(s) for s in seeds],
                            x0=np.full(prob.dim_x, 0.1), seed_label=seeds,
                            shared_sample=shared) for p in (prob, plain))
            assert [_digest(r) for r in got] == [_digest(r) for r in want]


def test_an_error_raised_in_the_attempt_reaches_no_caller():
    # phi and psi both return +inf for one seed in one step: the attempt's
    # move takes inf - inf, which raises under invalid="raise" and ends
    # it, and the replay stops the seed at phi's value before any move
    seeds, failing, step_no = [31, 32, 33], 32, 40
    dwc = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    prob = dataclasses.replace(dwc, **{
        name: _BulkNanAt(getattr(dwc, name),
                         _token_of(failing, step_no, slot), math.inf)
        for slot, name in ((0, "phi_subgrad_x"), (2, "psi_subgrad_x"))})
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 60, prob.constants,
                                 mode="dwc")
    solo_rngs = [RngStream(s) for s in seeds]
    batch_rngs = [RngStream(s) for s in seeds]
    with np.errstate(invalid="raise"):
        solo = [run(prob, "dwc", sched, r, x0=2.0, seed_label=s)
                for r, s in zip(solo_rngs, seeds)]
        batch = run(prob, "dwc", sched, batch_rngs, x0=2.0, seed_label=seeds)
    for s, a, b, ra, rb in zip(seeds, solo, batch, solo_rngs, batch_rngs):
        assert _digest(b) == _digest(a)
        assert b.aborted == (s == failing)
        assert (rb.counter, rb.draw()) == (ra.counter, ra.draw())
    lost = batch[seeds.index(failing)]
    assert lost.abort_reason == "phi_subgrad_x returned a non-finite value"
    assert lost.final_state.t == step_no - 1


class _RecordRows:
    """A batched ``oracle`` that records the token of every row its
    ``grad`` is passed (carried bit for bit as a last column)."""

    def __init__(self, oracle, calls):
        self.oracle, self.calls = oracle, calls

    def sample(self, tokens):
        return np.column_stack([self.oracle.sample(tokens),
                                tokens.view(np.float64)])

    def grad(self, x, dual, z):
        self.calls.extend(z[:, -1].copy().view(np.uint64).tolist())
        return self.oracle.grad(x, dual, z[:, :-1])


def test_a_failing_seed_is_replayed_with_its_solo_error():
    # phi fails one seed at one step, by raising NonFiniteError or by
    # returning NaN, which nothing tests until the anchor; psi, plain or
    # batched, records the tokens of the rows it is passed.  The failing
    # seed stops with phi's error, its stream where its solo run leaves
    # it, and psi is passed no token that the solo runs do not pass it
    seeds, failing, step_no = [31, 32, 33], 32, 40
    dwc = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    bad = _token_of(failing, step_no, 0)
    calls = []

    def psi(x, z, tok):
        calls.append(tok)
        return dwc.psi_subgrad_x(x, z, tok)

    def raising_phi(x, y, tok):
        if tok == bad:
            raise NonFiniteError("phi_subgrad_x refused its token")
        return dwc.phi_subgrad_x(x, y, tok)

    for phi, why in (
            (raising_phi, "phi_subgrad_x refused its token"),
            (_NanAt(dwc.phi_subgrad_x, bad),
             "phi_subgrad_x returned a non-finite value")):
        for oracle in (psi, _RecordRows(dwc.psi_subgrad_x, calls)):
            prob = dataclasses.replace(dwc, psi_subgrad_x=oracle,
                                       phi_subgrad_x=phi)
            sched = Schedule.from_manual(0.5, 0.005, 0.01, 60,
                                         prob.constants, mode="dwc")
            calls.clear()
            solo_rngs = [RngStream(s) for s in seeds]
            solo = [run(prob, "dwc", sched, r, x0=2.0) for r in solo_rngs]
            solo_calls = set(calls)
            calls.clear()
            batch_rngs = [RngStream(s) for s in seeds]
            batch = run(prob, "dwc", sched, batch_rngs, x0=2.0)
            assert set(calls) == solo_calls
            assert [r.aborted for r in batch] == [s == failing for s in seeds]
            assert [_digest(r) for r in batch] == [_digest(r) for r in solo]
            assert [r.counter for r in batch_rngs] == [
                r.counter for r in solo_rngs] == [
                4 * step_no if s == failing else 4 * 60 for s in seeds]
            assert [r.draw() for r in batch_rngs] == [
                r.draw() for r in solo_rngs]
            lost = batch[seeds.index(failing)]
            assert (lost.abort_reason, lost.final_state.t) == (
                why, step_no - 1)


class _CallLog:
    """A batched ``oracle`` that logs the tokens of each ``grad`` call as a
    tuple.  A call passed token ``bad`` raises :class:`NonFiniteError`,
    one passed token ``wide`` returns rows one entry too long and one
    passed token ``tall`` returns one row too many."""

    def __init__(self, oracle, log, bad=None, wide=None, tall=None):
        self.oracle, self.log, self.bad = oracle, log, bad
        self.wide, self.tall = wide, tall

    def sample(self, tokens):
        return np.column_stack([self.oracle.sample(tokens),
                                tokens.view(np.float64)])

    def grad(self, x, dual, z):
        toks = tuple(z[:, -1].copy().view(np.uint64).tolist())
        self.log.append(toks)
        if self.bad in toks:
            raise NonFiniteError("phi_subgrad_x refused its token")
        g = self.oracle.grad(x, dual, z[:, :-1])
        if self.tall in toks:
            return np.vstack([g, g[:1]])
        return np.hstack([g, g[:, :1]]) if self.wide in toks else g


def test_a_batched_call_that_raises_ends_the_attempt():
    # phi raises for seed 32's row at step 40: the log reads the attempt's
    # batched call, then each seed's replay alone, where seed 32 stops at
    # phi and the others call phi and psi
    seeds, step_no = [31, 32, 33], 40
    dwc = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    phi = [_token_of(s, step_no, 0) for s in seeds]
    psi = [_token_of(s, step_no, 2) for s in seeds]
    log = []
    prob = dataclasses.replace(
        dwc, phi_subgrad_x=_CallLog(dwc.phi_subgrad_x, log, bad=phi[1]),
        psi_subgrad_x=_CallLog(dwc.psi_subgrad_x, log))
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 60, prob.constants,
                                 mode="dwc")
    rngs = [RngStream(s) for s in seeds]
    res = run(prob, "dwc", sched, rngs, x0=2.0)
    step = [c for c in log if set(c) & {*phi, *psi}]
    assert step == [tuple(phi), (phi[0],), (psi[0],), (phi[1],), (phi[2],),
                    (psi[2],)]
    assert [r.aborted for r in res] == [False, True, False]
    assert (res[1].abort_reason, res[1].final_state.t) == (
        "phi_subgrad_x refused its token", step_no - 1)
    assert [r.counter for r in rngs] == [4 * 60, 4 * step_no, 4 * 60]


def test_the_attempt_adds_nothing_and_hides_nothing():
    # a healthy run whose phi evaluates and discards log(0.0) on every
    # call: the caller's "warn" becomes a replay that warns as the solo
    # runs do, "ignore" stays ignored with nothing replayed, and "raise"
    # reaches the caller
    seeds, t_total = [71, 72, 73], 50
    dwc = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    calls = []

    def phi(x, y, tok):
        calls.append(tok)
        np.log(0.0)
        return dwc.phi_subgrad_x(x, y, tok)

    prob = dataclasses.replace(dwc, phi_subgrad_x=phi)
    sched = Schedule.from_manual(0.5, 0.005, 0.01, t_total, prob.constants,
                                 mode="dwc")

    def solo():
        return [run(prob, "dwc", sched, RngStream(s), x0=2.0,
                    trace_every=10, seed_label=s) for s in seeds]

    def batch():
        return run(prob, "dwc", sched, [RngStream(s) for s in seeds],
                   x0=2.0, trace_every=10, seed_label=seeds)

    digests, messages = [], []
    for go in (solo, batch):
        calls.clear()
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(divide="warn"):
            warnings.simplefilter("always")
            digests.append([_digest(r) for r in go()])
        messages.append([str(w.message) for w in caught
                         if w.category is RuntimeWarning])
        # the recorded warning ends the attempt at its first segment's
        # end, and the replay makes every call again
        assert 3 * t_total < len(calls) < 2 * 3 * t_total
    assert digests[0] == digests[1]
    assert messages[0] == messages[1] == (
        ["divide by zero encountered in log"] * 3 * t_total)
    with np.errstate(divide="ignore"):
        for go in (solo, batch):
            calls.clear()
            assert [_digest(r) for r in go()] == digests[0]
            assert len(calls) == 3 * t_total
    with np.errstate(divide="raise"), pytest.raises(
            FloatingPointError, match="divide by zero") as err:
        batch()
    assert type(err.value) is FloatingPointError


@pytest.mark.parametrize("retry", [False, True], ids=["batched", "retry"])
def test_an_oracle_of_the_wrong_shape_stops_the_run_at_its_step(retry):
    # at step 40 phi's row for seed 33 is one entry too long, or comes
    # with one row too many, in the batched call or, after seed 32's row
    # raised there, in seed 33's replay
    seeds, step_no = [31, 32, 33], 40
    dwc = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    phi = [_token_of(s, step_no, 0) for s in seeds]
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 60, dwc.constants,
                                 mode="dwc")
    # the batched call returns four rows for three, the replay two for one
    tall = rf"\({2 if retry else 4}, 1\), expected one row per point"
    for kind, want in (("wide", r"\(2,\), expected \(1,\)"),
                       ("tall", tall)):
        log = []
        prob = dataclasses.replace(dwc, phi_subgrad_x=_CallLog(
            dwc.phi_subgrad_x, log, bad=phi[1] if retry else None,
            **{kind: phi[2]}))
        with pytest.raises(ParameterError,
                           match=rf"^phi_subgrad_x returned shape {want}$"):
            run(prob, "dwc", sched, [RngStream(s) for s in seeds], x0=2.0)
        assert log[-1] == ((phi[2],) if retry else tuple(phi))
        assert sum(phi[0] in c for c in log) == (2 if retry else 1)


def test_a_plain_oracle_with_one_row_of_the_wrong_length_is_named():
    # seed 32's phi value at step 40 is one entry too long: the lockstep
    # run raises the error of that seed's solo run
    seeds, failing, step_no, dim = [31, 32, 33], 32, 40, 3
    quad = make_quadratic_minmax(dim=dim, noise_sigma=0.1)
    bad = _token_of(failing, step_no, 0)

    def phi(x, y, tok):
        g = quad.phi_subgrad_x(x, y, tok)
        return np.append(g, 0.0) if tok == bad else g

    prob = dataclasses.replace(quad, phi_subgrad_x=phi)
    sched = Schedule.from_manual(0.5, 0.01, 0.05, 60, prob.constants,
                                 mode="minmax")
    want = (rf"^phi_subgrad_x returned shape \({dim + 1},\), "
            rf"expected \({dim},\)$")
    for rng in [RngStream(failing), [RngStream(s) for s in seeds]]:
        with pytest.raises(ParameterError, match=want):
            run(prob, "minmax", sched, rng, x0=np.full(dim, 0.5))


def test_a_dual_refused_for_two_rows_gives_each_its_solo_error():
    # phi_grad_y returns 1e308 for seeds 31 and 33 at step 40: the dual
    # ascent step of eta1 = 2 overflows on both rows, and each stops with
    # the error the projection gives that row alone
    seeds, failing, step_no = [31, 32, 33], (31, 33), 40
    quad = make_quadratic_minmax(dim=3, noise_sigma=0.1)
    bad = {_token_of(s, step_no, 1) for s in failing}

    def phi_grad_y(x, y, tok):
        return np.full(3, 1e308) if tok in bad else quad.phi_grad_y(x, y, tok)

    prob = dataclasses.replace(quad, phi_grad_y=phi_grad_y)
    sched = Schedule.from_manual(0.5, 0.01, 2.0, 60, prob.constants,
                                 mode="minmax", check_feasible=False)
    with np.errstate(over="ignore"):
        solo = [run(prob, "minmax", sched, RngStream(s), x0=np.full(3, 0.5),
                    seed_label=s) for s in seeds]
        batch = run(prob, "minmax", sched, [RngStream(s) for s in seeds],
                    x0=np.full(3, 0.5), seed_label=seeds)
    assert [_digest(r) for r in batch] == [_digest(r) for r in solo]
    for s, res in zip(seeds, batch):
        assert (res.aborted, res.abort_reason) == (
            (True, "point contains non-finite entries") if s in failing
            else (False, ""))
        assert res.final_state.t == (step_no - 1 if s in failing else 60)


@pytest.mark.parametrize("algorithm", ["dmax", "dwc", "minmax", "sgd",
                                       "sgda"])
def test_segment_boundaries_never_change_bits(algorithm):
    # the default run steps in segments that end only at events; the cut
    # run ends one at every step (collect_states, or trace_every=1 for the
    # baselines).  T spans more than one chunk, milestones sit at 0, mid-run
    # and T - 1, trace_every does not divide T, and seed 62's phi goes NaN
    # at step 500, inside a segment of the default run
    t_total, every, step_no = _CHUNK + 76, 400, 500
    seeds, failing = [61, 62, 63], 62
    baseline = algorithm.startswith("sgd")
    quad = make_quadratic_minmax(dim=3, noise_sigma=0.1)
    base = {"dmax": _four_part_problem(3), "minmax": quad, "sgda": quad}.get(
        algorithm) or make_onedim_dwc(1.0, 0.5, kappa_phi=0.2,
                                      center_psi=0.3, noise_sigma=0.2, dim=3)
    prob = dataclasses.replace(base, phi_subgrad_x=_BulkNanAt(
        base.phi_subgrad_x,
        _token_of(failing, step_no, 0, 2 if baseline else 4)))
    sched = Schedule.from_manual(
        0.5, 0.01, 0.05, t_total, ALL_ONES,
        mode="minmax" if algorithm == "minmax" else "dwc")

    def go(cut):
        rngs = [RngStream(s) for s in seeds]
        kw = dict(x0=np.full(3, 0.5), seed_label=seeds, decay_factor=2.0,
                  decay_milestones=(0, t_total // 2, t_total - 1))
        if algorithm == "sgd":
            res = run_sgd(prob, 0.01, t_total, rngs,
                          trace_every=1 if cut else every, **kw)
        elif algorithm == "sgda":
            res = run_sgda(prob, 0.02, 0.05, t_total, rngs,
                           trace_every=1 if cut else every, **kw)
        else:
            res = run(prob, algorithm, sched, rngs, trace_every=every,
                      collect_states=cut, **kw)
        return res, [r.counter for r in rngs]

    (want, want_counts), (got, got_counts) = go(False), go(True)
    assert got_counts == want_counts
    assert [r.aborted for r in want] == [s == failing for s in seeds]
    assert want[1].final_state.t == step_no - 1
    for a, b in zip(want, got):
        assert (b.aborted, b.abort_reason) == (a.aborted, a.abort_reason)
        assert _state_bits(b.final_state) == _state_bits(a.final_state)
        assert [r.t for r in a.records] == [
            t for t in (every, 2 * every, t_total) if t <= a.final_state.t]
        assert _record_bits([r for r in b.records if r.t % every == 0
                             or r.t == t_total]) == _record_bits(a.records)
        if not baseline:
            assert step_no not in (a.t_bar, a.t_bar + 1)
            assert b.t_bar == a.t_bar
            for name in ("returned", "x_bar"):
                assert getattr(b, name).tobytes() == (
                    getattr(a, name).tobytes())


@pytest.mark.parametrize("case", ["dwc1", "dwc3", "minmax", "sgda"])
def test_refill_width_never_changes_bits(case, monkeypatch):
    # the default feed refills 1024 tokens per oracle, then up to 4096
    # values for rows of 1 or 3; the cut feed refills one step at a time.
    # T spans several refills of three seeds in lockstep
    t_total, seeds = 2000, [71, 72, 73]
    dim = 1 if case == "dwc1" else 3
    mode = "minmax" if case == "minmax" else "dwc"
    prob = (make_quadratic_minmax(dim=3, noise_sigma=0.1)
            if case in ("minmax", "sgda") else
            make_onedim_dwc(1.0, 0.5, kappa_phi=0.2, center_psi=0.3,
                            noise_sigma=0.2, dim=dim))
    sched = Schedule.from_manual(0.5, 0.01, 0.05, t_total, ALL_ONES,
                                 mode=mode)

    def go():
        rngs = [RngStream(s) for s in seeds]
        kw = dict(x0=np.full(dim, 0.5), seed_label=seeds, trace_every=300,
                  decay_milestones=(900,), decay_factor=2.0)
        res = (run_sgda(prob, 0.02, 0.05, t_total, rngs, **kw)
               if case == "sgda" else
               run(prob, mode, sched, rngs, **kw))
        return res, [r.counter for r in rngs]

    want, want_counts = go()
    monkeypatch.setattr(smag, "_CHUNK", 1)
    monkeypatch.setattr(smag, "_CHUNK_VALUES", 1)
    got, got_counts = go()
    assert got_counts == want_counts == [4 * t_total if case != "sgda"
                                         else 2 * t_total] * 3
    for a, b in zip(want, got):
        assert _digest(b) == _digest(a)
        assert _record_bits(b.records) == _record_bits(a.records)
        assert len(a.records) == 7


@pytest.mark.parametrize("seeds", [1, 2])
def test_narrow_rows_refill_more_tokens(seeds):
    # after the first refill of 1024 tokens per oracle, a feed whose widest
    # batch row held fewer than 4 values refills 4096 values per oracle
    # (so 4096 tokens of 1-d noise, or of an oracle with no batch), and
    # one of width 10 keeps refilling 1024 tokens
    narrow = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    wide = make_quadratic_minmax(dim=10, noise_sigma=0.1)
    quiet = make_onedim_dwc(1.0, 0.5)
    for oracles, tokens in (
            ([narrow.phi_subgrad_x, None, narrow.psi_subgrad_x], 4096),
            ([wide.phi_subgrad_x, wide.phi_grad_y, wide.psi_subgrad_x], 1024),
            ([quiet.phi_subgrad_x, quiet.psi_subgrad_x], 4096)):
        feed = smag._Feed([RngStream(s) for s in range(seeds)], oracles,
                          False, 10 ** 6, False)
        sizes = []
        for t in range((1024 + 2 * tokens) // seeds):
            feed.next_step(t)
            if feed.c == 0:
                sizes.append(feed.steps * seeds)
                z = feed.inputs[0]
                assert z is None or z.shape[:2] == (feed.steps, seeds)
        assert sizes == [1024, tokens, tokens]


# Each algorithm's oracles in token-slot order, so in call order.
_SLOTS = {"dmax": ("phi_subgrad_x", "phi_grad_y", "psi_subgrad_x",
                   "psi_grad_z"),
          "dwc": ("phi_subgrad_x", None, "psi_subgrad_x", None),
          "minmax": ("phi_subgrad_x", "phi_grad_y", None, None),
          "sgd": ("phi_subgrad_x", "psi_subgrad_x"),
          "sgda": ("phi_subgrad_x", "phi_grad_y")}


def _four_part_problem(dim=2):
    """Both components with a dual: the quadratic minmax oracles for Phi,
    the 1-d dwc problem's Psi, and a dual ``z`` stepped as ``y`` is."""
    quad = make_quadratic_minmax(dim=dim, noise_sigma=0.1)
    dwc = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1, dim=dim)
    return DMaxProblem(
        dim_x=dim, constants=ALL_ONES, phi_subgrad_x=quad.phi_subgrad_x,
        phi_grad_y=quad.phi_grad_y, psi_subgrad_x=dwc.psi_subgrad_x,
        psi_grad_z=quad.phi_grad_y, set_y=quad.set_y, set_z=quad.set_y)


def _run_algorithm(algorithm, prob, rng, label):
    t_total, x0 = 60, np.full(prob.dim_x, 0.5)
    if algorithm == "sgd":
        return run_sgd(prob, 0.02, t_total, rng, x0=x0, seed_label=label)
    if algorithm == "sgda":
        return run_sgda(prob, 0.02, 0.05, t_total, rng, x0=x0,
                        seed_label=label)
    sched = Schedule.from_manual(
        0.5, 0.01, 0.05, t_total, ALL_ONES,
        mode="minmax" if algorithm == "minmax" else "dwc")
    return run(prob, algorithm, sched, rng, x0=x0, seed_label=label)


_VALUES = {"inf": {"phi": math.inf, "psi": math.inf},
           "nan": {"phi": math.nan, "psi": math.nan},
           "-inf+inf": {"phi": -math.inf, "psi": math.inf},
           "y": {"phi_grad_y": math.inf}, "z": {"psi_grad_z": math.inf}}


@pytest.mark.parametrize("algorithm, values", [
    (a, v) for a in sorted(_SLOTS) for v in _VALUES
    if any(n and n.startswith(c) for n in _SLOTS[a] for c in _VALUES[v])])
def test_a_seed_whose_oracles_go_non_finite_aborts_alone_and_quietly(
        algorithm, values):
    # at one step every oracle of one seed returns its component's value
    # (or, for "y" and "z", only that dual oracle returns inf): under
    # errstate(all="raise") no error reaches the caller, as the replay
    # tests each value before a move reads it; the seed stops with the
    # first non-finite oracle in call order, never with project's
    # message, and the others run as alone.
    # The attempt and the replay of each run pass the seed's token of that
    # step to every oracle up to the first failing one; the replay passes
    # it to no later one
    slots = _SLOTS[algorithm]
    value = {n: next((v for c, v in _VALUES[values].items()
                      if n.startswith(c)), None) for n in slots if n}
    names = [n for n in slots if n and value[n] is not None]
    seeds, failing, step_no = [51, 52, 53], 52, 30
    bad = [_token_of(failing, step_no, k, len(slots))
           for k in range(len(slots))]
    prob = _four_part_problem()
    calls = []

    def recorded(oracle):
        return lambda x, dual, tok: calls.append(tok) or oracle(x, dual, tok)

    prob = dataclasses.replace(prob, **{n: recorded(
        getattr(prob, n) if value[n] is None
        else _NanAt(getattr(prob, n), bad[k], value[n]))
        for k, n in enumerate(slots) if n})
    with np.errstate(all="raise"):
        solo = [_run_algorithm(algorithm, prob, RngStream(s), s)
                for s in seeds]
        batch = _run_algorithm(algorithm, prob,
                               [RngStream(s) for s in seeds], seeds)
    assert [_digest(r) for r in batch] == [_digest(r) for r in solo]
    assert [r.aborted for r in batch] == [s == failing for s in seeds]
    lost = batch[seeds.index(failing)]
    assert (lost.abort_reason, lost.final_state.t) == (
        f"{names[0]} returned a non-finite value", step_no - 1)
    first = slots.index(names[0])
    for k, name in enumerate(slots):
        if name is not None:
            count = calls.count(bad[k])
            assert count == 4 if k <= first else count <= 2, name


def test_a_run_reports_whether_its_stationarity_is_exact():
    dwc = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    sched = _manual_sched(0.5, 0.005, 0.01, dwc.constants, "dwc")
    assert run(dwc, "dwc", sched, RngStream(1), x0=2.0).exact_metrics
    assert not run(dataclasses.replace(dwc, exact_aux=None), "dwc", sched,
                   RngStream(1), x0=2.0).exact_metrics
    bare = _constant_oracle_problem(1.0)  # no exact maps
    assert not any(r.exact_metrics for r in run(
        bare, "dwc", sched, [RngStream(1), RngStream(2)], x0=1.0))


def test_steps_take_a_one_dimensional_state():
    # a run starts every seed from one 1-D x0; a stack of starts is refused
    # before a token is drawn
    quad = make_quadratic_minmax(dim=3, noise_sigma=0.1)
    sched = _manual_sched(0.5, 0.01, 0.05, quad.constants, "minmax")
    stacked = np.stack([np.full(3, 1.5)] * 2)
    for start in (lambda rng: run(quad, "minmax", sched, rng, x0=stacked),
                  lambda rng: run_sgda(quad, 0.1, 0.1, 10, rng, x0=stacked)):
        rng = RngStream(1)
        with pytest.raises(DimensionError):
            start(rng)
        assert rng.counter == 0


def test_run_needs_a_stream_and_a_label_per_stream():
    prob = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    sched = _manual_sched(0.5, 0.005, 0.01, prob.constants, "dwc")
    for rngs, labels in (([], 0), ([RngStream(1)], [1, 2])):
        with pytest.raises(ParameterError, match="one seed label"):
            run(prob, "dwc", sched, rngs, seed_label=labels)


# ---------------------------------------------------------------------------
# trace rows in blocks


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


def _record_bits(records):
    return [(r.t, _bits(r.objective), _bits(r.stationarity), _bits(r.p_t),
             r.seed) for r in records]


def _smag_reference(prob, mode, sched, res, label):
    """The records of ``res`` rebuilt from its states one at a time:
    ``full_objective``, the prox maps and the potential each take one
    point."""
    aux, gamma, states = prob.exact_aux, sched.gamma, res.states
    p_t = _potential_reference(prob, mode, sched, states)
    rows = []
    for t, s in enumerate(states[1:], start=1):
        p_phi = aux.prox_phi(s.x, gamma)
        p_psi = s.x if mode == "minmax" else aux.prox_psi(s.x, gamma)
        rows.append((t, _bits(prob.full_objective(s.x)),
                     _bits(float(np.linalg.norm(p_psi - p_phi)) / gamma),
                     _bits(p_t[t - 1]), label))
    return rows


def _sgda_reference(prob, lr_x, lr_y, t_total, seed, x0):
    """An SGDA run's records on the quadratic problem (dual box [-1, 1])
    rebuilt from a loop of simultaneous updates written out, one point at a
    time: step ``t`` feeds the oracles the tokens ``2 (t - 1)`` and
    ``2 t - 1`` of the seed's stream."""
    tokens = RngStream(seed).draw_many(2 * t_total).tolist()
    x, y = np.asarray(x0, dtype=np.float64), np.zeros(prob.set_y.dim)
    rows = []
    for t in range(1, t_total + 1):
        g_x = prob.phi_subgrad_x(x, y, tokens[2 * t - 2])
        g_y = prob.phi_grad_y(x, y, tokens[2 * t - 1])
        x, y = x - lr_x * g_x, np.clip(y + lr_y * g_y, -1.0, 1.0)
        rows.append((t, _bits(prob.full_objective(x)),
                     _bits(float(np.linalg.norm(g_x))),
                     _bits(math.nan), seed))
    return rows


@pytest.mark.parametrize("seeds", [[41], [41, 42, 43]])
def test_blocked_trace_rows_equal_rows_taken_one_state_at_a_time(seeds):
    # dim 64: a block is 64 steps of one seed or 22 steps of three, so 273
    # steps make more than three blocks and a partial one
    dim, t_total = 64, 273
    assert t_total > 3 * _TRACE_BLOCK // dim + 1
    quad = make_quadratic_minmax(dim=dim, noise_sigma=0.1)
    dwc = make_onedim_dwc(1.0, 0.5, kappa_phi=0.2, center_psi=0.3,
                          noise_sigma=0.2, dim=dim)
    x0 = np.linspace(-2.0, 2.0, dim)
    for prob, mode, eta0, eta1 in ((quad, "minmax", 0.01, 0.05),
                                   (dwc, "dwc", 0.005, 0.01)):
        sched = Schedule.from_manual(0.5, eta0, eta1, t_total,
                                     prob.constants, mode=mode)
        batch = run(prob, mode, sched, [RngStream(s) for s in seeds], x0=x0,
                    trace_every=1, seed_label=seeds, collect_states=True)
        for s, res in zip(seeds, batch):
            assert len(res.records) == t_total
            assert _record_bits(res.records) == _smag_reference(
                prob, mode, sched, res, s), (mode, s)
    batch = run_sgda(quad, 0.02, 0.05, t_total,
                     [RngStream(s) for s in seeds], x0=x0, seed_label=seeds)
    for s, res in zip(seeds, batch):
        assert _record_bits(res.records) == _sgda_reference(
            quad, 0.02, 0.05, t_total, s, x0)


def test_a_seed_that_aborts_mid_block_keeps_its_rows_up_to_its_last_step():
    # dim 64 and three seeds: blocks of 22 steps, so step 50 fails in the
    # middle of the third
    seeds, failing, step_no, dim = [31, 32, 33], 32, 50, 64
    assert (step_no - 1) % (_TRACE_BLOCK // (len(seeds) * dim) + 1) != 0
    prob = _one_seed_fails(0, step_no, failing, "bulk", dim=dim)
    sched = Schedule.from_manual(0.5, 0.01, 0.05, 120, prob.constants,
                                 mode="minmax")
    x0 = np.full(dim, 0.5)
    solo = [run(prob, "minmax", sched, RngStream(s), x0=x0, seed_label=s)
            for s in seeds]
    batch = run(prob, "minmax", sched, [RngStream(s) for s in seeds], x0=x0,
                seed_label=seeds)
    for s, a, b in zip(seeds, solo, batch):
        assert _digest(b) == _digest(a)
        assert b.aborted == (s == failing)
        want = range(1, step_no) if s == failing else range(1, 121)
        assert [r.t for r in b.records] == list(want)


@pytest.mark.parametrize("dim, n_seeds", [(10, 1), (10, 4), (64, 3),
                                          (2005, 1), (2005, 3)])
def test_a_block_of_trace_rows_holds_a_bounded_number_of_floats(dim,
                                                                n_seeds):
    prob = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1, dim=dim)
    seen = []

    def objective(x):
        seen.append(x.shape[0])
        return prob.full_objective(x)

    t_total = 60
    sched = Schedule.from_manual(0.5, 0.005, 0.01, t_total, prob.constants,
                                 mode="dwc")
    run(dataclasses.replace(prob, full_objective=objective), "dwc", sched,
        [RngStream(s) for s in range(n_seeds)], x0=np.ones(dim),
        trace_every=1, seed_label=list(range(n_seeds)))
    bound = max(n_seeds, n_seeds * -(-_TRACE_BLOCK // (n_seeds * dim)))
    # the first traced step is a block of its own, then blocks fill up
    assert seen[0] == n_seeds
    assert max(seen) <= bound
    assert sum(seen) == t_total * n_seeds
    assert len(seen) == 1 + -(-(t_total - 1) * n_seeds // bound)


def test_an_event_in_the_last_block_of_trace_rows_replays_the_run():
    # the last block of rows is taken after the loop: a floating-point
    # event there ends the attempt as one inside the loop would
    prob = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    calls = []

    def objective(x):
        calls.append(len(x))
        if len(calls) == 2:  # the attempt's rows of step 10
            np.float64(1e308) * 10.0
        return prob.full_objective(x)

    sched = Schedule.from_manual(0.5, 0.005, 0.01, 10, prob.constants,
                                 mode="dwc")
    want = run(prob, "dwc", sched, RngStream(3), x0=2.0, trace_every=5)
    got = run(dataclasses.replace(prob, full_objective=objective), "dwc",
              sched, RngStream(3), x0=2.0, trace_every=5)
    # the attempt's two blocks (steps 5 and 10), then the replay's
    assert calls == [1, 1, 1, 1]
    assert _digest(got) == _digest(want)


def test_elapsed_ms_leaves_out_the_time_of_trace_rows():
    # dim 2048: one seed's block is two steps, so rows are computed all
    # along the run, and each computation sleeps 1 ms a row
    dim, t_total = 2048, 50
    prob = make_quadratic_minmax(dim=dim)

    def slow(x):
        time.sleep(1e-3 * len(x))
        return prob.full_objective(x)

    sched = Schedule.from_manual(0.5, 0.01, 0.05, t_total, prob.constants,
                                 mode="minmax")
    res = run(dataclasses.replace(prob, full_objective=slow), "minmax",
              sched, RngStream(5), x0=np.ones(dim), trace_every=1)
    assert len(res.records) == t_total
    assert res.records[-1].elapsed_ms < 0.5 * t_total * 1e-3 * 1e3
