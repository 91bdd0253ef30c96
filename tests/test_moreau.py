import dataclasses

import numpy as np
import pytest

from dmaxopt.core import (
    CapabilityError,
    DMaxProblem,
    ExactAux,
    FunctionOracle,
    ParameterError,
    ProblemConstants,
    RngStream,
)
from dmaxopt.moreau import (
    check_nearly_critical,
    dmax_envelope_grad,
    envelope_prox_points,
    prox,
    smoothed_objective,
    smoothness_constant,
)
from dmaxopt.problems import (
    make_onedim_dwc,
    make_quadratic_minmax,
    piecewise_quadratic,
)
from dmaxopt.smag import Schedule, run, step_diagnostics


# ---------------------------------------------------------------------------
# prox: closed forms


def test_prox_abs_frozen():
    # soft threshold: prox of |.| at 2 with gamma 1 is 1
    f = piecewise_quadratic(1.0)
    r = prox(f, [2.0], 1.0)
    assert r.exact and r.residual == 0.0 and r.inner_iters == 0
    assert r.point.tolist() == [1.0]
    # inside the dead zone everything maps to the kink
    assert prox(f, [0.4], 1.0).point.tolist() == [0.0]
    assert prox(f, [-2.0], 1.0).point.tolist() == [-1.0]


def test_prox_quadratic_frozen():
    # f(u) = u^2 (curvature 2): prox(v) = v / (1 + 2 gamma)
    f = piecewise_quadratic(0.0, 0.0, 2.0)
    assert prox(f, [3.0], 0.5).point.tolist() == [1.5]


def test_one_component_envelope_and_gradient_frozen():
    # a problem whose only component is |.|, read from its function oracle
    f = piecewise_quadratic(1.0)
    prob = DMaxProblem(dim_x=1, constants=ProblemConstants(m_bound=1.0),
                       phi_subgrad_x=lambda x, y, tok: f.subgrad(x), phi_fn=f)
    # at x=2, gamma=1: prox=1, value = |1| + 1/2 = 1.5, grad = (2-1)/1 = 1
    assert smoothed_objective(prob, [2.0], 1.0) == pytest.approx(1.5, abs=1e-15)
    assert dmax_envelope_grad(prob, [2.0], 1.0).tolist() == [1.0]
    # inside |x| <= gamma the envelope is x^2 / (2 gamma)
    assert smoothed_objective(prob, [0.5], 1.0) == pytest.approx(0.125,
                                                                  abs=1e-15)
    assert dmax_envelope_grad(prob, [0.5], 1.0).tolist() == [0.5]


def test_prox_lipschitz_in_anchor():
    # prox of a delta-weakly-convex f is 1/(1 - gamma delta)-Lipschitz
    f = piecewise_quadratic(0.8, 0.1, -0.5)
    gamma = 1.0  # < 1/delta = 2
    lip = 1.0 / (1.0 - gamma * f.delta)
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = rng.normal(scale=2.0, size=2)
        pa = prox(f, [a], gamma).point
        pb = prox(f, [b], gamma).point
        assert abs(pa[0] - pb[0]) <= lip * abs(a - b) + 1e-10


def test_prox_gamma_range_errors():
    f = piecewise_quadratic(1.0, 0.0, -1.0)  # delta = 1
    with pytest.raises(ParameterError):
        prox(f, [0.0], 1.0)  # gamma must be < 1/delta
    with pytest.raises(ParameterError):
        prox(f, [0.0], -0.5)
    with pytest.raises(ParameterError):
        prox(f, [0.0], 0.5, tol=0.0)


# ---------------------------------------------------------------------------
# prox: iterative path


ITERATIVE_CASES = [
    (dict(a=1.0), 2.0, 1.0),
    (dict(a=1.0), 0.3, 0.7),
    (dict(a=1.3, center=0.4, curvature=0.8), -1.7, 0.9),
    (dict(a=0.7, center=-0.2, curvature=-0.5), 1.1, 1.2),
    (dict(a=0.0, curvature=2.0), 3.0, 0.5),
]


@pytest.mark.parametrize("kwargs,x,gamma", ITERATIVE_CASES)
def test_iterative_prox_matches_closed_form(kwargs, x, gamma):
    f = piecewise_quadratic(**kwargs)
    exact = f.prox(np.array([x]), gamma)
    r = prox(dataclasses.replace(f, prox=None), [x], gamma)
    assert not r.exact
    assert abs(r.point[0] - exact[0]) < 1e-6
    assert r.residual <= 1e-8


def test_iterative_prox_multidim():
    f = piecewise_quadratic(1.0, 0.3, 0.5)
    x = np.array([2.0, -1.0, 0.35, 0.0])
    exact = f.prox(x, 0.8)
    r = prox(dataclasses.replace(f, prox=None), x, 0.8)
    assert np.abs(r.point - exact).max() < 1e-4
    assert r.residual <= 1e-5  # honest gap estimate, not a false certificate


def test_iterative_prox_blind_oracle():
    """No closed form registered at all: the solver must still converge."""
    f = piecewise_quadratic(1.1, -0.6, 0.3)
    blind = type(f)(value=f.value, subgrad=f.subgrad, delta=f.delta,
                    differentiable=False)
    x = np.array([1.9])
    r = prox(blind, x, 0.7)
    assert abs(r.point[0] - f.prox(x, 0.7)[0]) < 1e-6


def test_prox_restarts_runaway_steps_and_still_converges():
    # f = u**4 / 4 at x = 3: the first steps overshoot past the guard, and
    # each restart halves the step cap until the steps settle
    f = FunctionOracle(value=lambda u: float(np.sum(u ** 4)) / 4.0,
                       subgrad=lambda u: u ** 3, differentiable=True)
    r = prox(f, [3.0], 1.0)
    # the prox point solves u**3 + u - 3 = 0
    root = next(z.real for z in np.roots([1.0, 0.0, 1.0, -3.0])
                if abs(z.imag) < 1e-12)
    assert r.residual <= 1e-8 and not r.exact
    assert abs(r.point[0] - root) < 1e-8


def test_prox_nonconvergence_is_flagged_not_raised():
    # multi-D (no 1-D polish available) with curvature so the first
    # subgradient step does not land on the answer: 4 iterations cannot
    # certify 1e-14 and the residual must say so rather than raise.
    f = piecewise_quadratic(1.0, 0.0, 0.7)
    blind = type(f)(value=f.value, subgrad=f.subgrad, delta=0.0,
                    differentiable=False)
    r = prox(blind, [2.0, -3.0, 1.5], 1.0, tol=1e-14, max_inner=4)
    assert r.residual > 1e-14  # did not converge, reported honestly
    assert not r.exact


def test_prox_vs_grid_search_bruteforce():
    """Independent brute-force check on a coarse grid (tighter version of
    the 1e-4-step acceptance sweep, on a few fixed cases)."""
    for kwargs, x, gamma in ITERATIVE_CASES[:3]:
        f = piecewise_quadratic(**kwargs)
        grid = np.arange(x - 5.0, x + 5.0, 1e-4)
        vals = np.array([f.value(np.array([u])) for u in grid])
        vals += (grid - x) ** 2 / (2 * gamma)
        best = grid[np.argmin(vals)]
        r = prox(dataclasses.replace(f, prox=None), [x], gamma)
        assert abs(r.point[0] - best) < 1e-3


# ---------------------------------------------------------------------------
# smoothness constant


def test_smoothness_constant_frozen():
    # gamma=0.5 and min delta 1: 2 / (0.5 - 0.25) = 8
    assert smoothness_constant(0.5, 1.0, 1.0) == pytest.approx(8.0)
    # convex case degrades to 2/gamma
    assert smoothness_constant(0.5, 0.0, 0.0) == pytest.approx(4.0)
    # single-component variant uses the component present
    assert smoothness_constant(0.5, 1.0) == pytest.approx(8.0)
    # the smaller modulus governs
    assert smoothness_constant(0.5, 1.0, 0.0) == pytest.approx(4.0)


def test_smoothness_constant_errors():
    with pytest.raises(ParameterError):
        smoothness_constant(1.0, 1.0)  # gamma == 1/delta
    with pytest.raises(ParameterError):
        smoothness_constant(-1.0, 0.0)
    with pytest.raises(ParameterError):
        smoothness_constant(0.5, -0.2)


# ---------------------------------------------------------------------------
# difference-of-envelopes machinery


def test_dmax_envelope_grad_frozen():
    prob = make_onedim_dwc(1.0, 0.5)
    # at x=2, gamma=1: prox_phi = 1, prox_psi = 1.5, grad = 0.5
    g = dmax_envelope_grad(prob, [2.0], 1.0)
    assert g.tolist() == [0.5]
    p_phi, p_psi = envelope_prox_points(prob, [2.0], 1.0)
    assert (p_phi.tolist(), p_psi.tolist()) == ([1.0], [1.5])


def test_envelope_grad_matches_component_difference():
    prob = make_onedim_dwc(1.2, 0.3, kappa_phi=0.5, center_psi=0.2, dim=3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(scale=2.0, size=3)
        g = dmax_envelope_grad(prob, x, 0.6)
        g_phi = (x - prox(prob.phi_fn, x, 0.6).point) / 0.6
        g_psi = (x - prox(prob.psi_fn, x, 0.6).point) / 0.6
        assert np.allclose(g, g_phi - g_psi, atol=1e-12)


def test_envelope_prox_needs_some_oracle():
    prob = make_onedim_dwc(1.0, 0.5)
    prob.exact_aux = None
    prob.phi_fn = None
    with pytest.raises(CapabilityError):
        envelope_prox_points(prob, [1.0], 0.5)


def test_each_map_comes_from_exact_aux_or_the_function_oracle():
    # prox_phi alone in exact_aux: Phi's value and all of Psi come from the
    # function oracles, which are the same maps, so nothing moves a bit
    full = make_onedim_dwc(1.0, 0.5, kappa_phi=0.5, kappa_psi=0.2,
                           center_phi=0.3, dim=2)
    part = dataclasses.replace(full, exact_aux=ExactAux(
        prox_phi=full.exact_aux.prox_phi))
    x = np.array([1.7, -0.4])
    assert smoothed_objective(part, x, 0.5) == smoothed_objective(full, x, 0.5)
    for want, got in zip(envelope_prox_points(full, x, 0.5),
                         envelope_prox_points(part, x, 0.5)):
        assert np.array_equal(want, got)


@pytest.mark.parametrize("which", ["phi", "psi"])
def test_a_component_without_a_value_map_is_refused(which):
    full = make_onedim_dwc(1.0, 0.5)
    aux = full.exact_aux
    prob = dataclasses.replace(
        full, exact_aux=ExactAux(prox_phi=aux.prox_phi, prox_psi=aux.prox_psi,
                                 **{f"value_{o}": getattr(aux, f"value_{o}")
                                    for o in ("phi", "psi") if o != which}),
        **{f"{which}_fn": None})
    for f in (smoothed_objective, envelope_prox_points, dmax_envelope_grad):
        with pytest.raises(CapabilityError, match=f"value_{which}"):
            f(prob, [1.0], 0.5)


def test_minmax_problem_envelope():
    prob = make_quadratic_minmax(dim=2)
    # Psi == 0 so its prox is the identity and the envelope gradient is
    # (x - prox_Phi(x)) / gamma.  Phi is the Huber sum; at x=(2,0), gamma=1
    # the first coordinate sits exactly on the quadratic/linear boundary
    # |v| = 1 + gamma and both branches give prox = 1, so g = (1, 0).
    g = dmax_envelope_grad(prob, [2.0, 0.0], 1.0)
    assert np.allclose(g, [1.0, 0.0], atol=1e-12)
    # strictly inside the quadratic region: prox = v/(1+gamma)
    g2 = dmax_envelope_grad(prob, [0.5, -0.8], 1.0)
    assert np.allclose(g2, [0.25, -0.4], atol=1e-12)


def test_a_problem_without_psi_reads_psi_as_zero():
    # The quadratic minmax problem carries Psi = 0; without it every
    # envelope quantity must come out the same, bit for bit.
    zero_psi = make_quadratic_minmax(dim=3)
    no_psi = dataclasses.replace(
        zero_psi, psi_subgrad_x=None, psi_fn=None,
        exact_aux=dataclasses.replace(zero_psi.exact_aux, prox_psi=None,
                                      value_psi=None))
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 1, zero_psi.constants,
                                 mode="minmax")
    before, after = run(zero_psi, "minmax", sched, RngStream(0),
                        x0=[0.3, -2.0, 1.5], collect_states=True).states
    x, cand = np.array([0.3, -2.0, 1.5]), np.array([0.2, -1.0, 1.0])
    for f in (lambda p: envelope_prox_points(p, x, 0.5),
              lambda p: dmax_envelope_grad(p, x, 0.5),
              lambda p: check_nearly_critical(p, x, cand, 0.5, 0.1),
              lambda p: smoothed_objective(p, x, 0.5),
              lambda p: step_diagnostics(p, before, after, sched)):
        want, got = f(zero_psi), f(no_psi)
        assert np.array_equal(want, got) if isinstance(want, (
            np.ndarray, tuple)) else want == got


# ---------------------------------------------------------------------------
# near-criticality certificate


def test_certificate_certifies_true_critical_point():
    prob = make_onedim_dwc(1.0, 0.5)
    # x = 0 is genuinely critical: both prox points are 0
    cert = check_nearly_critical(prob, [0.0], [0.0], 0.5, 0.1)
    assert cert.certified
    assert cert.grad_env_norm_sq == 0.0
    assert cert.dist_phi_sq == 0.0


def test_certificate_rejects_large_gradient():
    prob = make_onedim_dwc(1.0, 0.5)
    # at x=2 the envelope gradient is 0.5, far above the eps=0.1 threshold
    cert = check_nearly_critical(prob, [2.0], [1.0], 1.0, 0.1)
    assert not cert.certified
    assert cert.grad_env_norm_sq == pytest.approx(0.25)


def test_certificate_rejects_distant_candidate():
    prob = make_onedim_dwc(1.0, 0.5)
    # zero gradient at the anchor but the candidate is nowhere near the prox
    cert = check_nearly_critical(prob, [0.0], [3.0], 0.5, 0.1)
    assert not cert.certified
    assert cert.dist_phi_sq == pytest.approx(9.0)


def test_certificate_threshold_scaling_small_gamma():
    # gamma > 1 tightens the gradient threshold by 1/gamma^2
    prob = make_onedim_dwc(1.0, 0.5)
    eps = 0.1
    cert = check_nearly_critical(prob, [0.0], [0.0], 2.0, eps)
    assert cert.certified
    with pytest.raises(ParameterError):
        check_nearly_critical(prob, [0.0], [0.0], 0.5, 0.0)
