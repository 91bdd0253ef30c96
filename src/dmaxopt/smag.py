"""Single-loop stochastic envelope-smoothing optimizer and its diagnostics.

The optimizer maintains an anchor iterate ``x`` together with inner
estimates ``x_phi``/``x_psi`` of the two proximal points and dual ascent
iterates ``y``/``z``.  Every step updates the inner estimates by one
stochastic (sub)gradient step on the strongly convex proximal subproblems,
updates the duals by one projected ascent step, and moves the anchor along
``G = (x_psi - x_phi) / gamma``, the natural estimate of the negative
smoothed-objective gradient direction.

Three modes share one step kernel:

- ``"dmax"``  two components, each with a dual maximization;
- ``"dwc"``   two components, no duals (difference of convex-like);
- ``"minmax"`` one component with a dual, second component identically 0.

All modes draw four RNG tokens per step in a fixed order so that
trajectories stay aligned across modes on problems where the extra
oracles are degenerate (this is what makes the dwc reduction bit-identical
to dmax on problems with frozen duals).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np

from .core import (
    CapabilityError,
    DMaxProblem,
    ExactAux,
    NonFiniteError,
    ParameterError,
    ProblemConstants,
    RngStream,
    RunRecord,
    _finite,
    as_vector,
    project,
)
from .moreau import smoothed_objective, smoothness_constant

__all__ = [
    "Mode",
    "SmagState",
    "Schedule",
    "schedule_from_theory",
    "validate_schedule",
    "initial_state",
    "step",
    "RunResult",
    "run",
    "PotentialTrace",
    "potential_diagnostic",
    "step_diagnostics",
    "lr_scale_at",
]

Mode = Literal["dmax", "dwc", "minmax"]

_MODES = ("dmax", "dwc", "minmax")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ParameterError(f"unknown mode {mode!r}; expected one of {_MODES}")


# ---------------------------------------------------------------------------
# state


@dataclass
class SmagState:
    """One algorithm state: anchor, inner prox estimates, duals, last move."""

    x: np.ndarray
    x_phi: np.ndarray
    x_psi: np.ndarray
    y: Optional[np.ndarray]
    z: Optional[np.ndarray]
    last_g: np.ndarray
    t: int = 0


def initial_state(problem: DMaxProblem, x0=None) -> SmagState:
    """Start with all primal iterates at ``x0`` (default: origin) and duals
    at the projection of the origin onto their sets."""
    if x0 is None:
        x = np.zeros(problem.dim_x)
    else:
        x = as_vector(x0, dim=problem.dim_x, name="x0")
    y = None
    if problem.set_y is not None:
        y = project(problem.set_y, np.zeros(problem.set_y.dim))
    z = None
    if problem.set_z is not None:
        z = project(problem.set_z, np.zeros(problem.set_z.dim))
    return SmagState(x=x.copy(), x_phi=x.copy(), x_psi=x.copy(), y=y, z=z,
                     last_g=np.zeros(problem.dim_x), t=0)


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class Schedule:
    """Step-size schedule and the constants the convergence analysis uses.

    ``eta0`` is the anchor step, ``eta1`` the inner step; the analysis
    requires ``eta0 == tau * eta1`` exactly, ``nu in (0, 1]``, and
    ``eta0 <= 1/(2 l_f)``.  ``epsilon`` records the target accuracy the
    schedule was derived for (1.0 for hand-picked schedules).
    """

    gamma: float
    eta0: float
    eta1: float
    alpha: float
    tau: float
    nu: float
    l_f: float
    t_total: int
    epsilon: float = 1.0

    @staticmethod
    def from_manual(gamma: float, eta0: float, eta1: float, t_total: int,
                    constants: ProblemConstants, mode: Mode = "dwc",
                    epsilon: float = 1.0,
                    check_feasible: bool = True) -> "Schedule":
        """Build a schedule from hand-picked step sizes.

        ``alpha``/``tau``/``nu``/``l_f`` are filled in from the problem
        constants so the potential and descent diagnostics stay meaningful.
        ``eta0`` is recomputed as ``tau * eta1`` (at most one ulp from the
        requested value) so the coupling invariant holds exactly.
        """
        _check_mode(mode)
        if eta0 <= 0 or eta1 <= 0:
            raise ParameterError("step sizes must be positive")
        if t_total < 1:
            raise ParameterError("t_total must be >= 1")
        alpha = _alpha_for(constants, gamma, mode)
        tau = eta0 / eta1
        l_f = _l_f_for(constants, gamma, mode)
        nu = min(1.0, 2.0 * tau / (gamma * gamma * alpha))
        sched = Schedule(gamma=gamma, eta0=tau * eta1, eta1=eta1, alpha=alpha,
                         tau=tau, nu=nu, l_f=l_f, t_total=int(t_total),
                         epsilon=float(epsilon))
        if check_feasible:
            validate_schedule(sched, constants, mode)
        return sched


def _rate(gamma: float, delta: float) -> float:
    r = 1.0 / gamma - delta
    if r <= 0:
        raise ParameterError(
            f"gamma={gamma} is not below 1/delta for delta={delta}")
    return r


def _alpha_for(constants: ProblemConstants, gamma: float, mode: Mode) -> float:
    c = constants
    if mode == "dmax":
        if c.mu_phi is None or c.mu_psi is None:
            raise ParameterError("dmax mode needs mu_phi and mu_psi")
        return min(_rate(gamma, c.delta_phi) / 4.0,
                   _rate(gamma, c.delta_psi) / 4.0, c.mu_phi, c.mu_psi)
    if mode == "dwc":
        return min(_rate(gamma, c.delta_phi) / 2.0,
                   _rate(gamma, c.delta_psi) / 2.0)
    if c.mu_phi is None:
        raise ParameterError("minmax mode needs mu_phi")
    return min(_rate(gamma, c.delta_phi) / 2.0, c.mu_phi)


def _l_f_for(constants: ProblemConstants, gamma: float, mode: Mode) -> float:
    if mode == "minmax":
        return smoothness_constant(gamma, constants.delta_phi)
    return smoothness_constant(gamma, constants.delta_phi, constants.delta_psi)


def _tau_for(constants: ProblemConstants, gamma: float, alpha: float,
             mode: Mode) -> float:
    c = constants
    g2 = gamma * gamma
    terms = [g2 * alpha * alpha / 4.0]
    if mode == "dmax":
        if c.l_phi_yx is None or c.l_psi_zx is None:
            raise ParameterError("dmax mode needs l_phi_yx and l_psi_zx")
        if c.l_phi_yx > 0:
            terms.append(c.mu_phi ** 1.5 * g2 * alpha ** 1.5 / (4.0 * c.l_phi_yx))
        if c.l_psi_zx > 0:
            terms.append(c.mu_psi ** 1.5 * g2 * alpha ** 1.5 / (4.0 * c.l_psi_zx))
    elif mode == "minmax":
        if c.l_phi_yx is None:
            raise ParameterError("minmax mode needs l_phi_yx")
        if c.l_phi_yx > 0:
            terms.append(c.mu_phi ** 1.5 * g2 * alpha ** 1.5 / (4.0 * c.l_phi_yx))
    return min(terms)


def schedule_from_theory(constants: ProblemConstants, gamma: float,
                         epsilon: float, mode: Mode = "dmax",
                         gap_plus_p0: float = 1.0) -> Schedule:
    """Derive the full step-size schedule and iteration budget that the
    convergence analysis prescribes for target accuracy ``epsilon``.

    ``gap_plus_p0`` is the (user-supplied) bound on the initial smoothed
    suboptimality plus the initial potential; it only scales the iteration
    count ``t_total``, never the step sizes.
    """
    _check_mode(mode)
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    if gap_plus_p0 <= 0:
        raise ParameterError("gap_plus_p0 must be positive")
    if gamma <= 0:
        raise ParameterError("gamma must be positive")
    c = constants
    noise_coef = 384.0 if mode == "minmax" else 768.0
    g2 = gamma * gamma

    alpha = _alpha_for(c, gamma, mode)
    tau = _tau_for(c, gamma, alpha, mode)
    nu = min(1.0, 2.0 * tau / (g2 * alpha))
    l_f = _l_f_for(c, gamma, mode)
    m2 = c.m_bound * c.m_bound
    min_at = min(alpha, tau)
    min_g = min(1.0, g2)

    eta1_terms = [g2 * _rate(gamma, c.delta_phi) / 2.0,
                  1.0 / (2.0 * l_f * tau),
                  min_g * min_at * nu * alpha * epsilon * epsilon
                  / (noise_coef * tau * m2)]
    t_terms = [2.0 / (g2 * _rate(gamma, c.delta_phi)),
               2.0 * l_f * tau,
               noise_coef * tau * m2
               / (min_g * min_at * nu * alpha * epsilon * epsilon)]
    if mode != "minmax":
        eta1_terms.insert(1, g2 * _rate(gamma, c.delta_psi) / 2.0)
        t_terms.insert(1, 2.0 / (g2 * _rate(gamma, c.delta_psi)))

    eta1 = min(eta1_terms)
    eta0 = tau * eta1
    min_ig = min(1.0, 1.0 / g2)
    t_bound = (16.0 * gap_plus_p0 / (min_ig * min_at * nu * epsilon * epsilon)
               * max(t_terms))
    t_total = max(1, math.ceil(t_bound))
    return Schedule(gamma=gamma, eta0=eta0, eta1=eta1, alpha=alpha, tau=tau,
                    nu=nu, l_f=l_f, t_total=t_total, epsilon=float(epsilon))


def validate_schedule(sched: Schedule, constants: ProblemConstants,
                      mode: Mode = "dmax") -> None:
    """Raise ParameterError if the schedule violates an analysis invariant."""
    _check_mode(mode)
    s = sched
    if s.gamma <= 0:
        raise ParameterError("gamma must be positive")
    _rate(s.gamma, constants.delta_phi)
    if mode != "minmax":
        _rate(s.gamma, constants.delta_psi)
    if s.eta0 <= 0 or s.eta1 <= 0:
        raise ParameterError("step sizes must be positive")
    if s.eta0 != s.tau * s.eta1:
        raise ParameterError("eta0 must equal tau * eta1 exactly")
    if not (0.0 < s.nu <= 1.0):
        raise ParameterError("nu must lie in (0, 1]")
    if s.t_total < 1:
        raise ParameterError("t_total must be >= 1")
    g2 = s.gamma * s.gamma
    cap = g2 * _rate(s.gamma, constants.delta_phi) / 2.0
    if mode != "minmax":
        cap = min(cap, g2 * _rate(s.gamma, constants.delta_psi) / 2.0)
    if s.eta1 > cap * (1.0 + 1e-12):
        raise ParameterError(
            f"eta1={s.eta1} exceeds the strong-convexity cap {cap}")
    if s.eta0 > 0.5 / s.l_f * (1.0 + 1e-12):
        raise ParameterError(
            f"eta0={s.eta0} exceeds the smoothness cap {0.5 / s.l_f}")


def lr_scale_at(t: int, milestones: Sequence[int], factor: float) -> float:
    """Multiplicative step-size scale at step ``t`` given decay milestones.

    Each milestone ``m`` with ``m <= t`` divides both step sizes by
    ``factor``.  An empty milestone list keeps the schedule constant.
    """
    if factor <= 0:
        raise ParameterError("decay factor must be positive")
    hits = sum(1 for m in milestones if m <= t)
    return factor ** (-hits)


# ---------------------------------------------------------------------------
# the step kernel


def _oracle_vec(raw, dim: int, what: str) -> np.ndarray:
    g = np.asarray(raw, dtype=np.float64)
    if g.shape != (dim,):
        raise ParameterError(
            f"{what} returned shape {g.shape}, expected ({dim},)")
    if not _finite(g):
        raise NonFiniteError(f"{what} returned a non-finite value")
    return g


def _norm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` of a 1-D array, bit for bit: for a
    contiguous float64 vector numpy computes ``sqrt(v.dot(v))``."""
    if v.dtype == np.float64 and v.flags.c_contiguous:
        return math.sqrt(v.dot(v))
    return float(np.linalg.norm(v))


def step(problem: DMaxProblem, state: SmagState, sched: Schedule,
         rng: RngStream, mode: Mode, *, shared_sample: bool = False,
         lr_scale: float = 1.0) -> SmagState:
    """One step in ``mode``.

    Draws four tokens from ``rng`` for the phi_x, phi_y, psi_x and psi_z
    oracles, in that order, whatever the mode; ``shared_sample`` feeds the
    first token to all four.  ``lr_scale`` multiplies both step sizes.
    """
    _check_mode(mode)
    t0, t1, t2, t3 = rng.draw_many(4).tolist()
    if shared_sample:
        t1 = t2 = t3 = t0
    eta1 = sched.eta1 * lr_scale
    eta0 = sched.eta0 * lr_scale
    inv_gamma = 1.0 / sched.gamma
    dim = problem.dim_x
    x_t = state.x

    g_phi = _oracle_vec(problem.phi_subgrad_x(state.x_phi, state.y, t0),
                        dim, "phi_subgrad_x")
    x_phi_new = state.x_phi - eta1 * (g_phi + inv_gamma * (state.x_phi - x_t))

    y_new = state.y
    if mode != "dwc" and problem.phi_grad_y is not None and state.y is not None:
        # Dual ascent evaluates at the *previous* x_phi on purpose.
        g_y = _oracle_vec(problem.phi_grad_y(state.x_phi, state.y, t1),
                          state.y.shape[0], "phi_grad_y")
        y_new = project(problem.set_y, state.y + eta1 * g_y)

    if mode == "minmax":
        x_psi_new = state.x_psi
        z_new = state.z
        g_vec = (x_t - x_phi_new) * inv_gamma
    else:
        if problem.psi_subgrad_x is None:
            raise CapabilityError(
                f"mode {mode!r} needs a psi_subgrad_x oracle")
        g_psi = _oracle_vec(problem.psi_subgrad_x(state.x_psi, state.z, t2),
                            dim, "psi_subgrad_x")
        x_psi_new = state.x_psi - eta1 * (g_psi
                                          + inv_gamma * (state.x_psi - x_t))
        z_new = state.z
        if (mode == "dmax" and problem.psi_grad_z is not None
                and state.z is not None):
            g_z = _oracle_vec(problem.psi_grad_z(state.x_psi, state.z, t3),
                              state.z.shape[0], "psi_grad_z")
            z_new = project(problem.set_z, state.z + eta1 * g_z)
        g_vec = (x_psi_new - x_phi_new) * inv_gamma

    x_new = x_t - eta0 * g_vec
    if not _finite(x_new):
        raise NonFiniteError("anchor iterate became non-finite")
    return SmagState(x=x_new, x_phi=x_phi_new, x_psi=x_psi_new, y=y_new,
                     z=z_new, last_g=g_vec, t=state.t + 1)


# ---------------------------------------------------------------------------
# the driver


@dataclass
class RunResult:
    """Everything a run produces.

    ``t_bar`` is the uniformly drawn output index; ``returned`` is the
    mode-appropriate output iterate (the phi prox estimate at ``t_bar`` for
    dmax/dwc, the anchor at ``t_bar`` for minmax).  ``x_bar`` is the anchor
    the output certificate should be checked against, and ``candidate`` the
    matching near-prox candidate point.
    """

    records: list
    final_state: SmagState
    t_bar: int
    x_bar: np.ndarray
    candidate: np.ndarray
    returned: np.ndarray
    x_psi_bar: Optional[np.ndarray] = None
    aborted: bool = False
    abort_reason: str = ""
    states: Optional[list] = None


def _missing_maps(problem: DMaxProblem, mode: Mode,
                  potential: bool = False) -> list:
    """Names of the ``exact_aux`` maps that exact stationarity in ``mode``
    (and, with ``potential``, the potential) needs but ``problem`` lacks.
    Psi is identically zero in minmax mode, so its prox is never needed
    there."""
    names = ["prox_phi"] if mode == "minmax" else ["prox_phi", "prox_psi"]
    if potential and mode != "dwc":
        names.append("best_response_y")
    if potential and mode == "dmax":
        names.append("best_response_z")
    aux = problem.exact_aux
    return [n for n in names if getattr(aux, n, None) is None]


def _prox_pair(aux: ExactAux, x: np.ndarray, gamma: float, mode: Mode):
    """``(prox_phi(x), prox_psi(x))``; Psi is identically zero in minmax
    mode, so its prox is ``x`` itself."""
    p_phi = aux.prox_phi(x, gamma)
    return p_phi, (x if mode == "minmax" else aux.prox_psi(x, gamma))


def _sq(d: np.ndarray) -> float:
    """``float(np.sum(d ** 2))``, calling the reduction directly."""
    return float(np.add.reduce(d ** 2, axis=None))


def _potential_terms(aux: ExactAux, p_phi: np.ndarray, p_psi: np.ndarray,
                     s_next: SmagState, mode: Mode) -> float:
    """Unscaled sum of squared tracking errors for the potential at the
    anchor whose prox points are ``p_phi`` and ``p_psi``."""
    total = _sq(s_next.x_phi - p_phi)
    if mode != "dwc" and s_next.y is not None:
        total += _sq(s_next.y - aux.best_response_y(p_phi))
    if mode != "minmax":
        total += _sq(s_next.x_psi - p_psi)
        if mode == "dmax" and s_next.z is not None:
            total += _sq(s_next.z - aux.best_response_z(p_psi))
    return total


def run(problem: DMaxProblem, mode: Mode, sched: Schedule, rng: RngStream,
        x0=None, *, trace_every: int = 1, seed_label: int = 0,
        decay_milestones: Sequence[int] = (), decay_factor: float = 10.0,
        shared_sample: bool = False, exact_metrics: Optional[bool] = None,
        collect_states: bool = False) -> RunResult:
    """Run ``sched.t_total`` steps and return traces plus the output iterate.

    The output index ``t_bar`` is drawn up front from a child stream of
    ``rng`` (uniform over ``{1..T}`` for dmax/dwc where the output is an
    inner iterate, uniform over ``{0..T-1}`` for minmax where it is an
    anchor).  A non-finite oracle value aborts the run; the partial trace
    is kept and the result flagged rather than raised.
    """
    _check_mode(mode)
    missing = _missing_maps(problem, mode)
    if exact_metrics is None:
        exact_metrics = not missing
    if exact_metrics and missing:
        raise CapabilityError(
            f"exact metrics in {mode} mode need exact_aux.{missing[0]}")
    trace_potential = exact_metrics and not _missing_maps(problem, mode,
                                                          potential=True)
    pot_coef = 2.0 * sched.eta0 / (sched.eta1 * sched.gamma ** 2 * sched.alpha)

    t_total = sched.t_total
    pick = rng.child(1)
    if mode == "minmax":
        t_bar = int(pick.integers(0, t_total))
    else:
        t_bar = int(pick.integers(1, t_total + 1))

    state = initial_state(problem, x0)
    states = [state] if collect_states else None
    x_bar: Optional[np.ndarray] = None
    candidate: Optional[np.ndarray] = None
    x_psi_bar: Optional[np.ndarray] = None
    if mode == "minmax" and t_bar == 0:
        x_bar = state.x.copy()

    def advance(prev: SmagState, scale: float) -> SmagState:
        nonlocal x_bar, candidate, x_psi_bar
        nxt = step(problem, prev, sched, rng, mode,
                   shared_sample=shared_sample, lr_scale=scale)
        if states is not None:
            states.append(nxt)
        if mode == "minmax":
            if nxt.t == t_bar:
                x_bar = nxt.x.copy()
            if nxt.t == t_bar + 1:
                candidate = nxt.x_phi.copy()
        elif nxt.t == t_bar:
            x_bar = prev.x.copy()
            candidate = nxt.x_phi.copy()
            x_psi_bar = nxt.x_psi.copy()
        return nxt

    aux = problem.exact_aux
    last_prox = (None, None, None)  # an anchor and its two prox points

    def prox_at(x: np.ndarray):
        # With trace_every=1 a row's potential is taken at the anchor whose
        # prox points the previous row's stationarity already computed.
        nonlocal last_prox
        if last_prox[0] is not x:
            last_prox = (x, *_prox_pair(aux, x, sched.gamma, mode))
        return last_prox[1:]

    def row(prev: SmagState, cur: SmagState):
        p_t = math.nan
        if trace_potential:
            p_t = pot_coef * _potential_terms(aux, *prox_at(prev.x), cur, mode)
        if exact_metrics:
            p_phi, p_psi = prox_at(cur.x)
            stat = _norm(p_psi - p_phi) / sched.gamma
        else:
            stat = _norm(cur.last_g)
        return stat, p_t

    state, records, reason = _drive(
        problem, state, t_total, advance, row, trace_every=trace_every,
        seed_label=seed_label, decay_milestones=decay_milestones,
        decay_factor=decay_factor)

    if mode == "minmax":
        returned = x_bar if x_bar is not None else state.x.copy()
        if candidate is None:
            candidate = state.x_phi.copy()
    else:
        returned = candidate if candidate is not None else state.x_phi.copy()
        if x_bar is None:
            x_bar = state.x.copy()
        if candidate is None:
            candidate = state.x_phi.copy()
        if x_psi_bar is None:
            x_psi_bar = state.x_psi.copy()
    return RunResult(records=records, final_state=state, t_bar=t_bar,
                     x_bar=x_bar, candidate=candidate, returned=returned,
                     x_psi_bar=x_psi_bar, aborted=reason is not None,
                     abort_reason=reason or "", states=states)


def _drive(problem: DMaxProblem, state, t_total: int, advance, row, *,
           trace_every: int, seed_label: int,
           decay_milestones: Sequence[int], decay_factor: float):
    """The step loop shared by :func:`run` and the baselines.

    Advances ``state`` (any state with ``x`` and ``t``) by
    ``advance(state, lr_scale)`` for ``t_total`` steps and traces a
    :class:`RunRecord` every ``trace_every`` steps and at the last one;
    ``row(prev, state)`` gives the record's ``(stationarity, p_t)``.  A
    :class:`NonFiniteError` ends the loop and keeps the rows traced so far.
    Returns ``(final state, records, abort reason or None)``.
    """
    if t_total < 1:
        raise ParameterError("t_total must be >= 1")
    if trace_every < 1:
        raise ParameterError("trace_every must be >= 1")
    if decay_factor <= 0:
        raise ParameterError("decay factor must be positive")
    milestones = tuple(decay_milestones)
    records: list = []
    reason = None
    start = time.perf_counter()
    for t in range(t_total):
        scale = lr_scale_at(t, milestones, decay_factor) if milestones else 1.0
        prev = state
        try:
            state = advance(prev, scale)
        except NonFiniteError as exc:
            reason = str(exc)
            break
        if state.t % trace_every == 0 or state.t == t_total:
            obj = math.nan
            if problem.full_objective is not None:
                obj = float(problem.full_objective(state.x))
            stat, p_t = row(prev, state)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            records.append(RunRecord(t=state.t, objective=obj,
                                     stationarity=stat, p_t=p_t,
                                     elapsed_ms=elapsed_ms,
                                     seed=seed_label))
    return state, records, reason


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class PotentialTrace:
    """Per-step potential values and (when value oracles exist) the smoothed
    objective along the anchors."""

    p_t: np.ndarray
    f_gamma: Optional[np.ndarray]
    coefficient: float


def potential_diagnostic(problem: DMaxProblem, states: Sequence[SmagState],
                         sched: Schedule, mode: Mode = "dmax") -> PotentialTrace:
    """Evaluate the analysis potential along a recorded trajectory.

    For consecutive states ``(s_t, s_{t+1})`` the potential at step ``t``
    measures how far the inner iterates at ``t+1`` sit from the exact
    proximal points of the anchor ``x_t`` (and the duals from the exact
    best responses at those proximal points), scaled by
    ``2 eta0 / (eta1 gamma^2 alpha)``.  Modes drop the terms their
    reduction does not carry.
    """
    _check_mode(mode)
    if len(states) < 2:
        raise ParameterError("need at least two consecutive states")
    gamma = sched.gamma
    coef = 2.0 * sched.eta0 / (sched.eta1 * gamma * gamma * sched.alpha)
    missing = _missing_maps(problem, mode, potential=True)
    if missing:
        raise CapabilityError(
            f"potential diagnostic needs exact_aux.{missing[0]}")
    aux = problem.exact_aux
    with_psi = mode != "minmax"
    have_values = aux.value_phi is not None and (
        not with_psi or aux.value_psi is not None)

    p_vals = np.empty(len(states) - 1)
    f_vals = np.empty(len(states) - 1) if have_values else None
    for i in range(len(states) - 1):
        x_t = states[i].x
        p_vals[i] = coef * _potential_terms(
            aux, *_prox_pair(aux, x_t, gamma, mode), states[i + 1], mode)
        if f_vals is not None:
            f_vals[i] = smoothed_objective(aux, x_t, gamma, with_psi)
    return PotentialTrace(p_t=p_vals, f_gamma=f_vals, coefficient=coef)


def step_diagnostics(problem: DMaxProblem, before: SmagState,
                     after: SmagState, sched: Schedule) -> dict:
    """Check one transition against the two inequalities the analysis rests
    on: the approximate-descent bound for the smoothed objective, and the
    bound of the gradient-estimate error by the inner tracking error.

    Returns both sides of each inequality; callers assert
    ``lhs <= rhs + slack``.  Requires exact component prox and value maps.
    """
    aux = problem.exact_aux
    if aux is None or aux.prox_phi is None or aux.value_phi is None:
        raise CapabilityError("step diagnostics need exact prox/value maps")
    gamma = sched.gamma
    eta0 = sched.eta0

    x_t = before.x
    p_phi = aux.prox_phi(x_t, gamma)
    p_psi = aux.prox_psi(x_t, gamma) if aux.prox_psi is not None else x_t
    grad_env = (p_psi - p_phi) / gamma
    g_vec = after.last_g
    err_sq = float(np.sum((grad_env - g_vec) ** 2))

    with_psi = aux.prox_psi is not None and aux.value_psi is not None
    descent_lhs = smoothed_objective(aux, after.x, gamma, with_psi)
    descent_rhs = (smoothed_objective(aux, x_t, gamma, with_psi)
                   + 0.5 * eta0 * err_sq
                   - 0.5 * eta0 * float(np.sum(grad_env ** 2))
                   - 0.25 * eta0 * float(np.sum(g_vec ** 2)))
    track_rhs = (2.0 / (gamma * gamma)) * (
        float(np.sum((after.x_phi - p_phi) ** 2))
        + float(np.sum((after.x_psi - p_psi) ** 2)))
    return {
        "descent_lhs": descent_lhs,
        "descent_rhs": descent_rhs,
        "error_sq": err_sq,
        "tracking_bound": track_rhs,
        "grad_env_norm": float(np.linalg.norm(grad_env)),
    }
