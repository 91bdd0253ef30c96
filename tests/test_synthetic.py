"""Tests for the closed-form synthetic problem builders."""

import math

import numpy as np
import pytest

from dmaxopt.core import ParameterError, RngStream, token_generator
from dmaxopt.problems import (
    make_onedim_dwc,
    make_quadratic_minmax,
    piecewise_quadratic,
)


# ---------------------------------------------------------------------------
# piecewise_quadratic


def test_piecewise_quadratic_value_and_subgrad():
    f = piecewise_quadratic(2.0, 1.0, 0.5)
    u = np.array([3.0, -1.0])
    # 2*(|3-1| + |-1-1|) + 0.25*(9+1) = 8 + 2.5
    assert f.value(u) == pytest.approx(10.5)
    assert np.allclose(f.subgrad(u), [2.0 + 1.5, -2.0 - 0.5])


@pytest.mark.parametrize("curvature", [0.0, -0.0])
@pytest.mark.parametrize("center", [0.0, -0.0, 0.3])
@pytest.mark.parametrize("a", [1.0, 0.5, 0.0])
def test_piecewise_quadratic_flat_subgrad_keeps_the_curvature_terms_bits(
        a, center, curvature):
    # without curvature the subgradient skips ``+ kappa * u``: for finite
    # u that term is a signed zero, and np.sign(-0.0) is +0.0
    up, down = np.nextafter(center, math.inf), np.nextafter(center, -math.inf)
    u = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, up, down])
    got = piecewise_quadratic(a, center, curvature).subgrad(u)
    want = a * np.sign(u - center) + curvature * u
    assert got.tobytes() == want.tobytes()
    stack = u.reshape(2, 4)
    assert piecewise_quadratic(a, center, curvature).subgrad(
        stack).tobytes() == want.tobytes()


@pytest.mark.parametrize("a, center, curvature", [
    (1.0, 0.0, 0.0), (0.7, 0.3, 0.0), (2.0, -0.7, 0.3), (1.5, 0.2, -0.4)])
def test_piecewise_quadratic_subgrad_keeps_the_python_float_formula(
        a, center, curvature):
    # the subgradient holds a, center and curvature as 0-d float64 arrays:
    # flat, shifted and curved, on a point, a stack and a scalar, each
    # value and its type are those of the formula on Python floats
    f = piecewise_quadratic(a, center, curvature)
    gen = np.random.default_rng(11)
    for u in (3.0 * gen.standard_normal(5), 3.0 * gen.standard_normal((4, 3)),
              np.float64(-1.25), np.float64(center)):
        got = f.subgrad(u)
        want = a * np.sign(u - center) + curvature * u
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # a float32 point now gives float64, as the run's iterates are
    assert f.subgrad(np.ones(2, dtype=np.float32)).dtype == np.float64


def test_piecewise_quadratic_prox_is_shifted_soft_threshold():
    f = piecewise_quadratic(1.0, 0.0, 0.0)
    v = np.array([2.0, -0.3, 0.75, -5.0])
    got = f.prox(v, 0.5)
    want = np.sign(v) * np.maximum(np.abs(v) - 0.5, 0.0)
    assert np.allclose(got, want, atol=1e-15)


def test_piecewise_quadratic_prox_with_center_and_curvature():
    # frozen case: a=1, c=2, kappa=1, gamma=0.5
    # A = 1 + 2 = 3; m = ((v-2)/0.5 - 2)/3; u* = 2 + ST(m, 1/3)
    f = piecewise_quadratic(1.0, 2.0, 1.0)
    v = np.array([4.0])
    m = ((4.0 - 2.0) / 0.5 - 2.0) / 3.0  # = 2/3
    want = 2.0 + (m - 1.0 / 3.0)         # = 2 + 1/3
    assert np.allclose(f.prox(v, 0.5), [want], atol=1e-15)
    # and the prox point must satisfy first-order optimality
    u = f.prox(v, 0.5)
    s = f.subgrad(u) + (u - v) / 0.5
    assert abs(float(s[0])) < 1e-12
    # curvature -2 leaves 1/gamma - 2 <= 0 at gamma 0.5: no prox
    with pytest.raises(ParameterError, match="prox undefined"):
        piecewise_quadratic(1.0, 2.0, -2.0).prox(v, 0.5)


def test_piecewise_quadratic_prox_stationarity_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = float(rng.uniform(0.1, 3.0))
        c = float(rng.uniform(-2.0, 2.0))
        kappa = float(rng.uniform(-0.4, 2.0))
        gamma = float(rng.uniform(0.05, 1.0))
        if kappa + 1.0 / gamma <= 1e-6:
            continue
        f = piecewise_quadratic(a, c, kappa)
        v = rng.normal(size=3) * 3.0
        u = f.prox(v, gamma)
        # optimality: 0 in a*sign(u-c) + kappa*u + (u-v)/gamma, with the
        # sign relaxed to [-1, 1] at the kink
        g_smooth = kappa * u + (u - v) / gamma
        at_kink = np.isclose(u, c, atol=1e-12)
        ok = np.where(at_kink, np.abs(g_smooth) <= a + 1e-9,
                      np.abs(a * np.sign(u - c) + g_smooth) <= 1e-9)
        assert ok.all()


def test_piecewise_quadratic_kink_gap():
    f = piecewise_quadratic(1.0, 0.0, 0.0)
    # kinks of the envelope at |v| = gamma*a = 0.5
    assert f.kink_gap(np.array([0.5]), 0.5) == pytest.approx(0.0, abs=1e-15)
    assert f.kink_gap(np.array([2.0]), 0.5) == pytest.approx(1.5)
    assert f.kink_gap(np.array([0.1]), 0.5) == pytest.approx(0.4)
    # with center+curvature the kink center shifts to c*(1 + gamma*kappa)
    g = piecewise_quadratic(1.0, 2.0, 1.0)
    assert g.kink_gap(np.array([3.0 + 0.5]), 0.5) == pytest.approx(0.0, abs=1e-15)
    # without the |.| term the envelope has no kink
    assert piecewise_quadratic(0.0, 2.0, 1.0).kink_gap(
        np.array([3.5]), 0.5) == math.inf


def test_piecewise_quadratic_weak_convexity_modulus():
    assert piecewise_quadratic(1.0, 0.0, -0.25).delta == pytest.approx(0.25)
    assert piecewise_quadratic(1.0, 0.0, 0.25).delta == 0.0
    assert piecewise_quadratic(0.0, 0.0, 1.0).differentiable
    assert not piecewise_quadratic(1.0, 0.0, 1.0).differentiable


def test_piecewise_quadratic_rejects_negative_weight():
    with pytest.raises(ParameterError):
        piecewise_quadratic(-1.0)


def test_zero_function_prox_is_identity():
    # the second component of the quadratic min-max instance
    z = make_quadratic_minmax(3).psi_fn
    v = np.array([1.0, -2.0, 0.5])
    assert z.value(v) == 0.0
    assert np.array_equal(z.prox(v, 0.7), v)
    assert z.kink_gap(v, 0.7) == math.inf
    out = z.prox(v, 0.7)
    out[0] = 99.0
    assert v[0] == 1.0  # prox returned a copy


# ---------------------------------------------------------------------------
# make_onedim_dwc


def test_onedim_rejects_unbounded_combinations():
    with pytest.raises(ParameterError):
        make_onedim_dwc(1.0, 2.0)  # b > a, equal curvature
    with pytest.raises(ParameterError):
        make_onedim_dwc(1.0, 0.5, kappa_phi=0.0, kappa_psi=0.5)


def test_onedim_accepts_bounded_combinations():
    make_onedim_dwc(1.0, 1.0)                      # b == a is fine
    make_onedim_dwc(1.0, 0.5)
    make_onedim_dwc(0.5, 2.0, kappa_phi=1.0)       # phi curvature dominates


def test_onedim_objective_and_oracles_deterministic():
    prob = make_onedim_dwc(1.0, 0.5, dim=2)
    x = np.array([2.0, -1.0])
    assert prob.full_objective(x) == pytest.approx(0.5 * 3.0)
    g_phi = prob.phi_subgrad_x(x, np.zeros(1), 3)
    g_psi = prob.psi_subgrad_x(x, np.zeros(1), 4)
    assert np.allclose(g_phi, [1.0, -1.0])
    assert np.allclose(g_psi, [0.5, -0.5])


def test_onedim_noise_is_token_keyed():
    prob = make_onedim_dwc(1.0, 0.5, noise_sigma=0.3)
    x = np.array([2.0])
    a1 = prob.phi_subgrad_x(x, np.zeros(1), 7)
    a2 = prob.phi_subgrad_x(x, np.zeros(1), 7)
    b = prob.phi_subgrad_x(x, np.zeros(1), 8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    want = 1.0 + 0.3 * token_generator(7).standard_normal(1)
    assert np.allclose(a1, want)


@pytest.mark.parametrize("dim", [1, 10])
@pytest.mark.parametrize("sigma", [0.1, 0.3, 1.0])
def test_noisy_oracle_plain_call_equals_grad_on_its_sample(sigma, dim):
    # the batch is the noise times sigma, and grad adds it; 200 tokens
    # take the bulk noise path, and each plain call token_generator
    oracle = make_onedim_dwc(1.0, 0.5, noise_sigma=sigma,
                             dim=dim).phi_subgrad_x
    tokens = RngStream(3).draw_many(200)
    x = np.linspace(-2.0, 2.0, 200 * dim).reshape(200, dim)
    batch = oracle.grad(x, None, oracle.sample(tokens))
    plain = np.array([oracle(x[j], None, t)
                      for j, t in enumerate(tokens.tolist())])
    want = np.array([np.sign(x[j]) + sigma
                     * token_generator(t).standard_normal(dim)
                     for j, t in enumerate(tokens.tolist())])
    assert batch.tobytes() == plain.tobytes() == want.tobytes()


def test_onedim_exact_aux_matches_components():
    prob = make_onedim_dwc(1.5, 0.5, center_phi=1.0)
    aux = prob.exact_aux
    v = np.array([3.0])
    assert np.allclose(aux.prox_phi(v, 0.5),
                       prob.phi_fn.prox(v, 0.5))
    assert aux.value_phi(v) == pytest.approx(1.5 * 2.0)
    assert aux.value_psi(v) == pytest.approx(0.5 * 3.0)
    assert np.allclose(aux.prox_psi(v, 0.5), prob.psi_fn.prox(v, 0.5))


def test_onedim_constants():
    prob = make_onedim_dwc(1.0, 0.5, kappa_phi=-0.2, kappa_psi=-0.3)
    assert prob.constants.delta_phi == pytest.approx(0.2)
    assert prob.constants.delta_psi == pytest.approx(0.3)
    assert prob.constants.m_bound > 0


def test_onedim_validation_errors():
    with pytest.raises(ParameterError):
        make_onedim_dwc(-1.0, 0.5)
    with pytest.raises(ParameterError):
        make_onedim_dwc(1.0, 0.5, noise_sigma=-0.1)
    with pytest.raises(ParameterError):
        make_onedim_dwc(1.0, 0.5, dim=0)


# ---------------------------------------------------------------------------
# make_quadratic_minmax


def test_quadratic_minmax_huber_value():
    prob = make_quadratic_minmax(dim=3)
    x = np.array([0.5, 2.0, -3.0])
    # huber: 0.125 + 1.5 + 2.5
    assert prob.full_objective(x) == pytest.approx(4.125)
    assert prob.exact_aux.value_phi(x) == pytest.approx(4.125)
    assert prob.exact_aux.value_psi(x) == 0.0


def test_quadratic_minmax_best_response_is_clip():
    prob = make_quadratic_minmax(dim=3)
    x = np.array([0.5, 2.0, -3.0])
    assert np.allclose(prob.exact_aux.best_response_y(x), [0.5, 1.0, -1.0])
    # Danskin: the gradient of Phi = huber is the best response
    assert np.array_equal(prob.phi_fn.subgrad(x),
                          prob.exact_aux.best_response_y(x))


def test_quadratic_minmax_best_response_maximizes():
    # y*(x) must beat random feasible y in <x,y> - ||y||^2/2
    prob = make_quadratic_minmax(dim=4)
    rng = np.random.default_rng(11)
    payoff = lambda x, y: float(x @ y - 0.5 * y @ y)
    for _ in range(25):
        x = rng.normal(size=4) * 2.0
        y_star = prob.exact_aux.best_response_y(x)
        best = payoff(x, y_star)
        for _ in range(20):
            y = rng.uniform(-1.0, 1.0, size=4)
            assert payoff(x, y) <= best + 1e-12


def test_quadratic_minmax_oracles():
    prob = make_quadratic_minmax(dim=2)
    x = np.array([0.3, -0.7])
    y = np.array([0.1, 0.2])
    assert np.allclose(prob.phi_subgrad_x(x, y, 0), y)
    assert np.allclose(prob.phi_grad_y(x, y, 0), x - y)
    assert np.allclose(prob.psi_subgrad_x(x, None, 0), [0.0, 0.0])


def test_quadratic_minmax_constants_and_sets():
    prob = make_quadratic_minmax(dim=5)
    assert prob.constants.mu_phi == 1.0
    assert prob.constants.l_phi_yx == 1.0
    assert prob.constants.delta_phi == 0.0
    assert prob.set_y.kind == "box"
    assert prob.set_y.dim == 5


def test_quadratic_minmax_huber_prox_continuity_at_boundary():
    prob = make_quadratic_minmax(dim=1)
    p = prob.phi_fn.prox
    gamma = 0.7
    v = np.array([1.0 + gamma])
    lo = p(v - 1e-12, gamma)
    hi = p(v + 1e-12, gamma)
    assert np.allclose(lo, hi, atol=1e-9)
    assert np.allclose(p(v, gamma), [1.0], atol=1e-12)


def test_quadratic_minmax_rejects_bad_args():
    with pytest.raises(ParameterError):
        make_quadratic_minmax(dim=0)
    with pytest.raises(ParameterError):
        make_quadratic_minmax(noise_sigma=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_builders_refuse_a_non_finite_parameter_by_name(bad):
    cases = [(piecewise_quadratic, {}, name)
             for name in ("a", "center", "curvature")]
    cases += [(make_onedim_dwc, {"a": 1.0, "b": 0.5}, name)
              for name in ("a", "b", "kappa_phi", "kappa_psi", "center_phi",
                           "center_psi", "noise_sigma")]
    # an explicit m_bound leaves no derived constant to trip over
    cases += [(make_quadratic_minmax, {}, "noise_sigma"),
              (make_quadratic_minmax, {"m_bound": 5.0}, "noise_sigma")]
    for build, kwargs, name in cases:
        with pytest.raises(ParameterError,
                           match=rf"^{name} must be finite, got {bad!r}$"):
            build(**{**kwargs, name: bad})


# ---------------------------------------------------------------------------
# trace maps on stacks of points

# Dimensions around numpy's pairwise-sum blocks (8 lanes, 128-entry leaves)
# and one of pAUC size.
STACK_DIMS = (1, 7, 8, 9, 128, 129, 2005)


def _stack(dim: int, n: int = 3) -> np.ndarray:
    """``n`` points: random ones and one with entries on kinks and zeros."""
    x = 2.0 * token_generator(dim).standard_normal((n, dim))
    x[1, ::2] = 0.2
    x[1, 1::3] = -0.0
    return x


def _trace_maps(dim: int) -> dict:
    """The maps a traced run calls on a stack, by name."""
    maps = {}
    for name, prob in (
            ("onedim", make_onedim_dwc(1.0, 0.5, kappa_phi=0.3,
                                       kappa_psi=0.1, center_phi=0.2,
                                       center_psi=-0.4, dim=dim)),
            ("quadratic", make_quadratic_minmax(dim=dim))):
        aux = prob.exact_aux
        maps.update({
            f"{name}.full_objective": prob.full_objective,
            f"{name}.prox_phi": lambda x, aux=aux: aux.prox_phi(x, 0.5),
            f"{name}.prox_psi": lambda x, aux=aux: aux.prox_psi(x, 0.5),
        })
        if aux.best_response_y is not None:
            maps[f"{name}.best_response_y"] = aux.best_response_y
    return maps


@pytest.mark.parametrize("dim", STACK_DIMS)
def test_trace_maps_on_a_stack_equal_their_rows_bit_for_bit(dim):
    # three points, and a stack as tall as the largest block of trace rows
    # (``smag._TRACE_BLOCK`` floats, at dim 1)
    for n in (3, 4096):
        x = _stack(dim, n)
        for name, f in _trace_maps(dim).items():
            got = np.asarray(f(x))
            assert got.shape == (n,) + np.shape(f(x[0])), name
            for j, row in enumerate(x):
                assert got[j].tobytes() == np.asarray(f(row)).tobytes(), \
                    (name, j)


@pytest.mark.parametrize("dim", STACK_DIMS)
def test_values_of_one_point_keep_their_reductions(dim):
    # vecdot is the dot that ``u @ u`` calls, and a row reduction the sum
    # of the whole vector.
    f = piecewise_quadratic(1.5, 0.2, -0.3)
    huber = make_quadratic_minmax(dim=dim).full_objective
    for u in _stack(dim):
        assert np.vecdot(u, u) == u @ u == u.dot(u)
        assert f.value(u) == (
            1.5 * float(np.add.reduce(np.abs(u - 0.2), axis=None))
            + 0.5 * -0.3 * float(u @ u))
        assert huber(u) == float(np.sum(np.where(
            np.abs(u) <= 1.0, 0.5 * u * u, np.abs(u) - 0.5)))
