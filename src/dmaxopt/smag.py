"""Single-loop stochastic envelope-smoothing optimizer and its diagnostics.

The optimizer maintains an anchor iterate ``x`` together with inner
estimates ``x_phi``/``x_psi`` of the two proximal points and dual ascent
iterates ``y``/``z``.  Every step updates the inner estimates by one
stochastic (sub)gradient step on the strongly convex proximal subproblems,
updates the duals by one projected ascent step, and moves the anchor along
``G = (x_psi - x_phi) / gamma``, the natural estimate of the negative
smoothed-objective gradient direction.

Three modes share one step kernel:

- ``"dmax"``  two components, each with the dual maximization it has;
- ``"dwc"``   two components, no duals (difference of convex-like);
- ``"minmax"`` one component with a dual, second component identically 0.

A mode names the parts a run may step, and the problem decides which of
them it has: a dual without a set and an oracle is not there, and is
neither stepped nor traced.  The schedule reads the constants of the
components a mode runs and drops the terms of a dual whose ``mu`` is
``None``, so dmax runs on every problem with two components.  All modes
draw four RNG tokens per step in a fixed order, so trajectories stay
aligned across modes: on a problem without duals, dmax and dwc runs with
the same step sizes are bit-identical.  All modes take their output
iterates by one rule (see :class:`RunResult`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
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
    _PerToken,
    as_vector,
    project,
)
from .moreau import (
    envelope_prox_points,
    smoothed_objective,
    smoothness_constant,
)

__all__ = [
    "Mode",
    "SmagState",
    "Schedule",
    "schedule_from_theory",
    "validate_schedule",
    "initial_state",
    "RunResult",
    "run",
    "step_diagnostics",
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
                    check_feasible: bool = True) -> "Schedule":
        """Build a schedule from hand-picked step sizes.

        ``alpha``/``tau``/``nu``/``l_f`` are filled in from the problem
        constants so the potential and descent diagnostics stay meaningful.
        ``eta0`` is recomputed as ``tau * eta1`` (at most one ulp from the
        requested value) so the coupling invariant holds exactly.
        """
        _check_mode(mode)
        _check_positive(gamma=gamma, eta0=eta0, eta1=eta1)
        if t_total < 1:
            raise ParameterError("t_total must be >= 1")
        parts = _parts(constants, mode)
        try:
            alpha = _alpha(parts, gamma, mode)
            tau = eta0 / eta1
            l_f = smoothness_constant(gamma, *[d for d, _, _ in parts])
            nu = min(1.0, 2.0 * tau / (gamma * gamma * alpha))
        except (OverflowError, ZeroDivisionError):
            raise ParameterError(
                "the manual schedule leaves the float range") from None
        if not (0.0 < tau * eta1 < math.inf and 0.0 < nu):
            raise ParameterError(
                f"the manual schedule's eta0 {tau * eta1} or nu {nu} is not "
                "a finite positive number")
        sched = Schedule(gamma=gamma, eta0=tau * eta1, eta1=eta1, alpha=alpha,
                         tau=tau, nu=nu, l_f=l_f, t_total=int(t_total))
        if check_feasible:
            validate_schedule(sched, constants, mode)
        return sched


def _check_positive(**values: float) -> None:
    for name, v in values.items():
        if not 0.0 < v < math.inf:
            raise ParameterError(f"{name} must be positive and finite")


def _rate(gamma: float, delta: float) -> float:
    r = 1.0 / gamma - delta
    if r <= 0:
        raise ParameterError(
            f"gamma={gamma} is not below 1/delta for delta={delta}")
    return r


def _parts(constants: ProblemConstants, mode: Mode) -> list:
    """The components a run in ``mode`` steps, Phi first, each as ``(delta,
    mu, l_yx)``: its weak-convexity modulus, the strong-concavity modulus
    of its dual (``None`` for a dual the mode drops or the constants do not
    declare) and that dual's coupling constant.  Minmax mode runs Phi
    alone."""
    c = constants
    phi = (c.delta_phi, c.mu_phi if mode != "dwc" else None, c.l_phi_yx)
    psi = (c.delta_psi, c.mu_psi if mode == "dmax" else None, c.l_psi_zx)
    return [phi] if mode == "minmax" else [phi, psi]


def _alpha(parts: list, gamma: float, mode: Mode) -> float:
    div = 4.0 if mode == "dmax" else 2.0
    return min([_rate(gamma, delta) / div for delta, _, _ in parts]
               + [mu for _, mu, _ in parts if mu is not None])


def schedule_from_theory(constants: ProblemConstants, gamma: float,
                         epsilon: float, mode: Mode = "dmax",
                         gap_plus_p0: float = 1.0) -> Schedule:
    """Derive the full step-size schedule and iteration budget that the
    convergence analysis prescribes for target accuracy ``epsilon``.

    The terms come from the components ``mode`` runs: each gives its
    strong-convexity caps, and each dual it keeps its ``mu`` bound on
    ``alpha`` and, with its coupling constant, a bound on ``tau``.
    ``gap_plus_p0`` is the (user-supplied) bound on the initial smoothed
    suboptimality plus the initial potential; it only scales the iteration
    count ``t_total``, never the step sizes.  A schedule whose step size or
    iteration count leaves the float range raises ParameterError.
    """
    _check_mode(mode)
    _check_positive(epsilon=epsilon, gap_plus_p0=gap_plus_p0, gamma=gamma)
    parts = _parts(constants, mode)
    noise_coef = 384.0 * len(parts)
    g2 = gamma * gamma
    try:
        alpha = _alpha(parts, gamma, mode)
        tau_terms = [g2 * alpha * alpha / 4.0]
        for name, (_, mu, l_yx) in zip(("l_phi_yx", "l_psi_zx"), parts):
            if mu is not None and l_yx is None:
                raise ParameterError(f"{mode} mode needs {name} with its mu")
            if mu is not None and l_yx > 0:
                tau_terms.append(mu ** 1.5 * g2 * alpha ** 1.5 / (4.0 * l_yx))
        tau = min(tau_terms)
        nu = min(1.0, 2.0 * tau / (g2 * alpha))
        l_f = smoothness_constant(gamma, *[d for d, _, _ in parts])
        m2 = constants.m_bound * constants.m_bound
        min_at = min(alpha, tau)
        min_g = min(1.0, g2)
        noise = min_g * min_at * nu * alpha * epsilon * epsilon
        eta1 = min([g2 * _rate(gamma, delta) / 2.0 for delta, _, _ in parts]
                   + [1.0 / (2.0 * l_f * tau),
                      noise / (noise_coef * tau * m2)])
        t_terms = ([2.0 / (g2 * _rate(gamma, delta)) for delta, _, _ in parts]
                   + [2.0 * l_f * tau, noise_coef * tau * m2 / noise])
        min_ig = min(1.0, 1.0 / g2)
        t_bound = (16.0 * gap_plus_p0
                   / (min_ig * min_at * nu * epsilon * epsilon)
                   * max(t_terms))
    except (OverflowError, ZeroDivisionError):
        raise ParameterError(
            f"the {mode} schedule of these constants leaves the float "
            "range") from None
    if not (0.0 < eta1 < math.inf and 0.0 < t_bound < math.inf):
        raise ParameterError(
            f"the prescribed step size {eta1} or iteration count {t_bound} "
            "is not a finite positive number")
    return Schedule(gamma=gamma, eta0=tau * eta1, eta1=eta1, alpha=alpha,
                    tau=tau, nu=nu, l_f=l_f,
                    t_total=max(1, math.ceil(t_bound)),
                    epsilon=float(epsilon))


def validate_schedule(sched: Schedule, constants: ProblemConstants,
                      mode: Mode = "dmax") -> None:
    """Raise ParameterError if the schedule violates an analysis invariant."""
    _check_mode(mode)
    s = sched
    _check_positive(gamma=s.gamma, eta0=s.eta0, eta1=s.eta1)
    g2 = s.gamma * s.gamma
    cap = min(g2 * _rate(s.gamma, delta) / 2.0
              for delta, _, _ in _parts(constants, mode))
    if s.eta0 != s.tau * s.eta1:
        raise ParameterError("eta0 must equal tau * eta1 exactly")
    if not (0.0 < s.nu <= 1.0):
        raise ParameterError("nu must lie in (0, 1]")
    if s.t_total < 1:
        raise ParameterError("t_total must be >= 1")
    if s.eta1 > cap * (1.0 + 1e-12):
        raise ParameterError(
            f"eta1={s.eta1} exceeds the strong-convexity cap {cap}")
    if s.eta0 > 0.5 / s.l_f * (1.0 + 1e-12):
        raise ParameterError(
            f"eta0={s.eta0} exceeds the smoothness cap {0.5 / s.l_f}")


# ---------------------------------------------------------------------------
# lockstep seeds

# Tokens per oracle that one refill of a lockstep batch realizes (never
# past ``t_total``): at least ``_CHUNK``, and up to ``_CHUNK_VALUES``
# values when the widest batch row of the previous refill held fewer than
# 4.  That bounds the memory of bulk-realized noise and index batches, and
# 1-d noise spreads a bulk call's fixed cost (~350 ufunc calls) over 4096
# tokens.
_CHUNK = 1024
_CHUNK_VALUES = 4 * _CHUNK
# Anchor floats of the traced steps whose rows one call computes: bounds
# the stacked states and temporaries of a block of trace rows.
_TRACE_BLOCK = 1 << 12
_F64 = np.dtype(np.float64)


def _arrays(state) -> dict:
    """The array fields of a state dataclass, by name."""
    return {f.name: getattr(state, f.name) for f in fields(state)
            if isinstance(getattr(state, f.name), np.ndarray)}


def _pick(state, j: int):
    """Row ``j`` of the stacked ``state``, as 1-D views."""
    return replace(state, **{k: v[j] for k, v in _arrays(state).items()})


def _stack(state, n: int):
    """``n`` copies of the 1-D ``state`` as the rows of one stacked state."""
    return replace(state, **{k: np.repeat(v[None], n, axis=0)
                             for k, v in _arrays(state).items()})


def _concat(states: list):
    """The rows of the stacked ``states``, in order, as one stacked state
    (whose ``t`` is the first one's)."""
    return replace(states[0], **{
        k: np.concatenate([getattr(s, k) for s in states])
        for k in _arrays(states[0])})


class _Feed:
    """Oracle inputs for seeds that step in lockstep, one row per seed.

    Each token slot of a step (four for SMAG, two for the baselines) has
    one oracle, or ``None`` when the run never calls it.  The feed draws
    every seed's tokens for a chunk of steps at once (never past
    ``t_total``), which are the tokens per-step draws would give, and
    evaluates each oracle in the batched form of :class:`DMaxProblem`, a
    plain callable wrapped to it.  Kernels call :meth:`next_step` per step.

    The feed of an attempt (see :func:`_drive`) tests no value: each
    oracle output reaches the anchor, which :func:`_drive` tests at each
    segment's end, or a dual, whose projection refuses a non-finite one,
    within its own step.  A ``strict`` feed, a replay's, raises
    :class:`NonFiniteError` on a non-finite output as it returns.
    """

    def __init__(self, rngs, oracles, shared_sample: bool, t_total: int,
                 strict: bool):
        self.rngs, self.t_total, self.strict = list(rngs), t_total, strict
        self.oracles = [o if o is None or hasattr(o, "grad") else
                        _PerToken(o) for o in oracles]
        self.slot = [0 if shared_sample else k for k in range(len(oracles))]
        self.c = self.steps = 0  # step within the chunk, chunk length
        self.width = math.inf  # widest batch row of the last refill

    def next_step(self, t: int) -> None:
        self.c += 1
        if self.c < self.steps:
            return
        n, rngs = len(self.oracles), self.rngs
        per = max(_CHUNK, _CHUNK_VALUES // max(1, self.width))
        self.steps = min(self.t_total - t, max(1, per // len(rngs)))
        self.c = 0
        toks = np.stack([r.draw_many(n * self.steps)
                         for r in rngs]).reshape(len(rngs), self.steps, n)
        self.inputs = []
        for oracle, s in zip(self.oracles, self.slot):
            t = toks[:, :, s].T  # (steps, seeds)
            z = None if oracle is None else oracle.sample(t.reshape(-1))
            self.inputs.append(z if z is None else z.reshape(*t.shape, -1))
        self.width = max([z.shape[-1] for z in self.inputs if z is not None],
                         default=0)

    def grad(self, k: int, x: np.ndarray, dual, shape: tuple, what: str):
        """Oracle ``k`` at the rows of ``x`` and ``dual``, as float64
        values of ``shape``, ``(rows, dim)``, in one call; a value of
        another shape raises :class:`ParameterError`, and on a strict
        feed a non-finite one raises :class:`NonFiniteError`."""
        z = self.inputs[k]
        g = self.oracles[k].grad(x, dual, z if z is None else z[self.c])
        # np.asarray returns a float64 ndarray itself: no call needed
        if type(g) is not np.ndarray or g.dtype is not _F64:
            try:
                g = np.asarray(g, dtype=np.float64)
            except ValueError:  # rows of unequal lengths: the first wrong one
                g = np.asarray([next((r for r in g
                                      if np.shape(r) != shape[1:]), g)],
                               dtype=np.float64)
        if g.shape != shape:
            raise ParameterError(
                f"{what} returned shape {g.shape[1:]}, expected {shape[1:]}"
                if g.shape[1:] != shape[1:] else
                f"{what} returned shape {g.shape}, expected one row per point")
        if self.strict and not _finite(g):
            raise NonFiniteError(f"{what} returned a non-finite value")
        return g


def _streams(rng, seed_label):
    """The streams and labels of a run: ``rng`` is one stream or a
    sequence of them, and an int label applies to every stream."""
    rngs = [rng] if isinstance(rng, RngStream) else list(rng)
    if isinstance(seed_label, int):
        return rngs, [seed_label] * len(rngs)
    return rngs, list(seed_label)


# ---------------------------------------------------------------------------
# the step kernel


def _smag_oracles(problem: DMaxProblem, mode: Mode):
    """The oracle of each of the four token slots that a run in ``mode``
    steps on ``problem``, ``None`` for a part it does not step: a dual the
    mode drops or the problem lacks, and Psi in minmax mode.  The step and
    the trace rows read what a run steps from these slots."""
    p = problem
    if mode != "minmax" and p.psi_subgrad_x is None:
        raise CapabilityError(f"mode {mode!r} needs a psi_subgrad_x oracle")
    return [p.phi_subgrad_x,
            p.phi_grad_y if mode != "dwc" and p.set_y is not None else None,
            p.psi_subgrad_x if mode != "minmax" else None,
            p.psi_grad_z if mode == "dmax" and p.set_z is not None else None]


def _smag_kernel(problem: DMaxProblem, st: SmagState, sched: Schedule,
                 lr_scale: float, feed: _Feed, n: int):
    """``n`` steps of the stacked seeds ``st``: the anchors before the last
    and the state after it.  A part steps when its token slot has an
    oracle (:func:`_smag_oracles`).  With Psi, ``x_phi`` and ``x_psi``
    step as the two rows of one ``(2, S, dim)`` stack, and are its rows:
    each number is the one their separate updates give."""
    # 0-d float64 arrays: a ufunc takes one at a lower call cost than a
    # Python float, with the same bits
    eta1 = np.array(sched.eta1 * lr_scale)
    eta0 = np.array(sched.eta0 * lr_scale)
    inv_gamma = np.array(1.0 / sched.gamma)
    set_y, set_z, grad = problem.set_y, problem.set_z, feed.grad
    _, oracle_y, oracle_psi, oracle_z = feed.oracles
    shape = st.x.shape
    x_new, x_phi_new, x_psi_new = st.x, st.x_phi, st.x_psi
    y_new, z_new, g_vec = st.y, st.z, st.last_g
    if oracle_psi is not None:
        inner = np.stack([x_phi_new, x_psi_new])
        g_inner = np.empty_like(inner)
    for t in range(st.t, st.t + n):
        x_t, x_phi, x_psi, y, z = x_new, x_phi_new, x_psi_new, y_new, z_new
        feed.next_step(t)
        g_phi = grad(0, x_phi, y, shape, "phi_subgrad_x")
        if oracle_y is not None:
            # Dual ascent evaluates at the *previous* x_phi on purpose.
            y_new = project(set_y, y + eta1 * grad(1, x_phi, y, y.shape,
                                                   "phi_grad_y"))
        if oracle_psi is None:
            x_phi_new = x_phi - eta1 * (g_phi + inv_gamma * (x_phi - x_t))
            g_vec = (x_t - x_phi_new) * inv_gamma
        else:
            g_inner[0] = g_phi
            g_inner[1] = grad(2, x_psi, z, shape, "psi_subgrad_x")
            if oracle_z is not None:
                z_new = project(set_z, z + eta1 * grad(3, x_psi, z, z.shape,
                                                       "psi_grad_z"))
            # eta1 * (g + inv_gamma * (v - x_t)) of each row, in place
            d = inner - x_t
            d *= inv_gamma
            d += g_inner
            d *= eta1
            inner = inner - d
            x_phi_new, x_psi_new = inner[0], inner[1]
            g_vec = (x_psi_new - x_phi_new) * inv_gamma
        x_new = x_t - eta0 * g_vec
    return x_t, SmagState(x=x_new, x_phi=x_phi_new, x_psi=x_psi_new,
                          y=y_new, z=z_new, last_g=g_vec, t=t + 1)


# ---------------------------------------------------------------------------
# the driver


@dataclass
class RunResult:
    """Everything a run produces.

    Every mode draws ``s`` uniformly from ``{0..T-1}``.  ``x_bar`` is the
    anchor after ``s`` steps, the one the output certificate should be
    checked against, and ``candidate`` and ``x_psi_bar`` are the inner
    iterates after ``s + 1`` steps, the matching near-prox points; a run
    that stops before step ``s + 1`` keeps its final iterates instead.
    dmax/dwc return ``candidate`` and report ``t_bar = s + 1``; minmax
    returns ``x_bar``, reports ``t_bar = s`` and has no ``x_psi_bar``.
    ``exact_metrics`` tells whether the trace's stationarity is the exact
    envelope-gradient norm, rather than the norm of the step's estimate:
    what the problem's maps gave (see :func:`run`).
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
    exact_metrics: bool = False


def _has_maps(aux: Optional[ExactAux], oracles: list,
              potential: bool = False) -> bool:
    """Whether ``aux`` has every map that exact stationarity (and, with
    ``potential``, the potential) reads in a run that steps the parts of
    :func:`_smag_oracles` ``oracles``: the prox of each component it
    steps and the best response of each dual."""
    needs = [("prox_phi", True), ("prox_psi", oracles[2] is not None),
             ("best_response_y", potential and oracles[1] is not None),
             ("best_response_z", potential and oracles[3] is not None)]
    return all(getattr(aux, n, None) is not None for n, needed in needs
               if needed)


def _shaped(value, shape: tuple, name: str) -> np.ndarray:
    """``value`` as a float64 array, which a map ``name`` must return with
    ``shape``: a map that only takes one point fails here on a stack."""
    v = np.asarray(value, dtype=np.float64)
    if v.shape != shape:
        raise ParameterError(f"{name} returned shape {v.shape}, expected "
                             f"{shape}; on an (n, dim) stack it must "
                             "return one row per point")
    return v


def _norms(v: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of ``v``, as an array whose entries
    are bit for bit ``np.linalg.norm`` of the row alone: numpy takes that
    as the square root of the row's ``dot`` with itself, and ``vecdot``
    calls that dot once per row.  A finite row whose squared sum overflows
    (entries above ~1.3e154) takes the norm of the row scaled by its
    largest magnitude."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):
        out = np.sqrt(np.vecdot(v, v))
    if math.inf in out:
        for i in np.flatnonzero(np.isinf(out) & np.isfinite(v).all(axis=-1)):
            top = float(np.abs(v[i]).max())
            out[i] = top * math.sqrt(float(np.vecdot(v[i] / top, v[i] / top)))
    return out


def _sq(d: np.ndarray):
    """``np.sum(d ** 2)`` of a point, or of each row of a stack, calling
    the reduction directly."""
    return np.add.reduce(d ** 2, axis=-1)


def _prox_pair(aux: ExactAux, x: np.ndarray, gamma: float, oracles: list):
    """``(prox_phi(x), prox_psi(x))`` at a point or at each row of a stack;
    a run that does not step Psi reads it as zero, whose prox is ``x``."""
    p_phi = _shaped(aux.prox_phi(x, gamma), x.shape, "exact_aux.prox_phi")
    if oracles[2] is None:
        return p_phi, x
    return p_phi, _shaped(aux.prox_psi(x, gamma), x.shape,
                          "exact_aux.prox_psi")


def _potential_terms(aux: ExactAux, p_phi: np.ndarray, p_psi: np.ndarray,
                     s_next: SmagState, oracles: list):
    """Unscaled sum of squared tracking errors of the parts ``oracles``
    steps, for the potential at the anchor whose prox points are ``p_phi``
    and ``p_psi``: a float64 for a 1-D ``s_next``, one entry per row for a
    stacked one."""
    total = _sq(s_next.x_phi - p_phi)
    if oracles[1] is not None:
        total += _sq(s_next.y - _shaped(aux.best_response_y(p_phi),
                                        s_next.y.shape,
                                        "exact_aux.best_response_y"))
    if oracles[2] is not None:
        total += _sq(s_next.x_psi - p_psi)
    if oracles[3] is not None:
        total += _sq(s_next.z - _shaped(aux.best_response_z(p_psi),
                                        s_next.z.shape,
                                        "exact_aux.best_response_z"))
    return total


def run(problem: DMaxProblem, mode: Mode, sched: Schedule, rng,
        x0=None, *, trace_every: int = 1, seed_label=0,
        decay_milestones: Sequence[int] = (), decay_factor: float = 10.0,
        shared_sample: bool = False, collect_states: bool = False):
    """Run ``sched.t_total`` steps and return traces plus the output iterate.

    The output index is drawn up front from a child stream of ``rng`` (see
    :class:`RunResult`).  A non-finite oracle value or iterate aborts the
    run with the first such value's message; the partial trace is kept
    and the result flagged rather than raised; an oracle value whose
    shape is not one row of the part's dimension per point raises
    ParameterError naming the oracle.  Each step draws four
    tokens, for the phi_x, phi_y, psi_x and psi_z oracles in that order
    whatever the mode; ``shared_sample`` feeds the first to all four.
    Each milestone ``m`` of ``decay_milestones`` divides both step sizes
    by ``decay_factor`` from step ``m`` (counted from 0) on; a factor
    that takes one to 0.0 or inf is refused.  A row's ``p_t`` is the
    analysis potential of the step into it: the squared distances of the
    inner iterates after the step from the exact prox points of the anchor
    before it (and of each dual from its best response there), times
    ``2 eta0 / (eta1 gamma^2 alpha)``.  The problem's maps decide each
    row: its stationarity is the exact envelope-gradient norm when
    ``exact_aux`` has the prox map of each component the mode steps (else
    the step estimate's norm), and ``p_t`` needs also each stepped dual's
    best response (else NaN).

    With a sequence of streams for ``rng`` (and of labels for
    ``seed_label``, or one int label for all) the seeds step in lockstep
    as the rows of ``(S, dim)`` arrays, and one :class:`RunResult` per
    stream comes back, each equal bit for bit to a solo run of that
    stream.  Every oracle runs in the batched form of
    :class:`DMaxProblem`: it samples a chunk of steps for all seeds at
    once, and one ``grad`` call takes a step's stacked seeds (a plain
    callable is called per seed inside it).  Trace rows are computed on
    the stack of a block of traced steps, one call of ``full_objective``
    and of each exact map per block, and reduced row by row.  ``t_bar``
    and aborts stay per seed.  A run, of one stream or of many, is first
    an attempt that tests the anchors only at the end of each segment of
    steps (see :func:`_drive`).  A non-finite value, or a floating-point
    warning or error, ends it, and every seed is then replayed alone,
    testing each value as it comes: a seed stops at its first error in
    call order, with its solo run's message, step, partial trace, final
    state and stream position, and the others run as alone.  So a failing
    run does its work up to twice, and the replay needs each oracle to be
    a pure function of ``(x, dual, token)``.  ``elapsed_ms`` is the
    seeds' shared clock at the traced step (a replayed seed's own), net
    of the time spent computing trace rows.
    """
    rngs, labels = _streams(rng, seed_label)
    _check_mode(mode)
    oracles = _smag_oracles(problem, mode)
    aux = problem.exact_aux
    exact_metrics = _has_maps(aux, oracles)
    trace_potential = exact_metrics and _has_maps(aux, oracles, True)
    pot_coef = 2.0 * sched.eta0 / (sched.eta1 * sched.gamma ** 2 * sched.alpha)

    t_total = sched.t_total
    # Each seed keeps the anchor after s steps and the inner iterates after
    # s + 1, for s uniform over {0..T-1}.
    s_out = [int(r.child(1).integers(0, t_total)) for r in rngs]
    start = initial_state(problem, x0)
    states = [[start] for _ in rngs] if collect_states else None
    kept: dict = {}  # seed -> (x_bar, candidate, x_psi_bar)
    marks: dict = {}  # step -> the seeds that keep their iterates there
    for i, s in enumerate(s_out):
        marks.setdefault(s + 1, []).append(i)

    def on_step(prev_x: np.ndarray, nxt: SmagState, seeds: list) -> None:
        # a replay starts at step 1, so it writes over the attempt's states
        if states is not None:
            for j, i in enumerate(seeds):
                states[i][nxt.t:] = [_pick(nxt, j)]
        for i in marks.get(nxt.t, ()):
            if i in seeds:
                j = seeds.index(i)
                kept[i] = (prev_x[j].copy(), nxt.x_phi[j].copy(),
                           nxt.x_psi[j].copy())

    def rows(prev_x: np.ndarray, cur: SmagState):
        if trace_potential:
            p_t = (pot_coef * _potential_terms(
                aux, *_prox_pair(aux, prev_x, sched.gamma, oracles), cur,
                oracles)).tolist()
        else:
            p_t = [math.nan] * cur.x.shape[0]
        if exact_metrics:
            p_phi, p_psi = _prox_pair(aux, cur.x, sched.gamma, oracles)
            # as quiet on over- and underflow as a Python float division
            with np.errstate(over="ignore", under="ignore"):
                return (_norms(p_psi - p_phi) / sched.gamma).tolist(), p_t
        return _norms(cur.last_g).tolist(), p_t

    ran = _drive(
        problem, start, t_total, rngs, oracles,
        lambda st, scale, feed, n: _smag_kernel(problem, st, sched, scale,
                                                feed, n),
        rows, anchor="anchor iterate", shared_sample=shared_sample,
        on_step=on_step, trace_every=trace_every,
        events=range(1, t_total) if collect_states else list(marks),
        seed_labels=labels, decay_milestones=decay_milestones,
        decay_factor=decay_factor, steps={"eta0": sched.eta0,
                                          "eta1": sched.eta1})

    # A seed that stops before step s + 1 keeps its final iterates.
    anchor_out = mode == "minmax"
    results = []
    for i, (state, records, why) in enumerate(ran):
        xb, cand, xpb = kept[i] if state.t > s_out[i] else (
            state.x.copy(), state.x_phi.copy(), state.x_psi.copy())
        results.append(RunResult(
            records=records, final_state=state,
            t_bar=s_out[i] + (0 if anchor_out else 1), x_bar=xb,
            candidate=cand, returned=xb if anchor_out else cand,
            x_psi_bar=None if anchor_out else xpb,
            aborted=why is not None, abort_reason=why or "",
            states=None if states is None else states[i],
            exact_metrics=exact_metrics))
    return results[0] if isinstance(rng, RngStream) else results


def _check_decay(decay_milestones: Sequence[int], decay_factor: float,
                 t_total: int, **steps: float) -> None:
    """Refuse a decay factor that is not positive and finite, whose
    largest scale ``decay_factor ** -k`` (``k`` milestones below
    ``t_total``) overflows, or that takes a step of ``steps`` to 0 or inf."""
    if not 0.0 < decay_factor < math.inf:
        raise ParameterError("decay_factor must be positive and finite")
    k = sum(m < t_total for m in decay_milestones)
    try:
        scale = decay_factor ** -k
    except OverflowError:
        raise ParameterError(f"decay_factor ** -{k} overflows: the step "
                             "sizes after the milestones are out of "
                             "float range") from None
    for name, step in steps.items():
        if not 0.0 < step * scale < math.inf:
            raise ParameterError(f"{name} * decay_factor ** -{k} " + (
                "underflows to 0: the run would stop moving" if scale < 1
                else "overflows to inf: the run would step by inf"))


def _drive(problem: DMaxProblem, start, t_total: int, rngs: list,
           oracles: list, kernel, rows, *, anchor: str, shared_sample: bool,
           on_step=None, events: Sequence[int] = (), trace_every: int,
           seed_labels: list, decay_milestones: Sequence[int],
           decay_factor: float, steps: dict):
    """The lockstep loop shared by :func:`run` and the baselines.

    Every stream of ``rngs`` starts from the 1-D ``start`` (any state
    dataclass with ``x`` and ``t``) and feeds the oracles of the token
    slots ``oracles`` through a :class:`_Feed`.  ``kernel(state,
    lr_scale, feed, n)`` runs ``n`` steps of a stacked state, one row per
    seed, and returns the anchors before its last step and the state
    after it.  At step ``t`` (from 0) each milestone ``m <= t`` divides
    ``lr_scale`` by ``decay_factor``, which must be positive and finite;
    the largest such scale stays in float range and keeps each of
    ``steps`` in (0, inf).

    A run is first an attempt: all seeds step as one stack, a segment of
    steps per kernel call, from one event to the next (traced step, step
    count in ``events``, milestone or ``t_total``), and no value is
    tested inside a segment.  It runs under one ``np.errstate`` that keeps
    the caller's ``ignore`` and ``raise`` and records each floating-point
    event the caller would otherwise see.  At each segment's end the
    anchors are tested: every oracle output reaches them or a projected
    dual within its step, and a non-finite anchor stays non-finite.  A
    non-finite anchor, a recorded event or a ``FloatingPointError``
    (``NonFiniteError`` included) ends the attempt, and each seed is then
    replayed alone under the caller's errstate from its stream's start,
    one step per segment, on a strict feed.  There the first non-finite
    oracle output, dual refused by ``project`` or non-finite anchor
    (``f"{anchor} became non-finite"``) stops the seed with its message,
    keeping the state before its step, and its stream is set to its start
    advanced by the tokens of its steps.  So a failing run does its work
    up to twice, and the replay needs each oracle to be a pure function of
    its inputs.  ``on_step(prev_x, state, seeds)`` sees the end of each
    segment that passed, ``seeds`` being the indices of its rows.

    Every ``trace_every`` steps and at the last one each seed gets a
    :class:`RunRecord`.  Such a step only reads the clock and holds its
    previous anchors and its state; the rows are computed a block at a
    time, once the held anchors reach ``_TRACE_BLOCK`` floats and after
    the loop.  The first traced step is a block of its own, so a map that
    cannot take a stack fails there.  A block stacks its steps' states
    and previous anchors in step order, ``full_objective`` takes the
    block's anchors once, and ``rows(prev_x, state)`` gives the lists of
    the rows' stationarity and ``p_t``, as floats.  ``elapsed_ms`` is the
    clock at the traced step, less the time spent computing rows before
    it.  Returns per seed its final state (1-D), its records and its abort
    reason (``None`` if it did not abort), as a tuple.
    """
    if t_total < 1:
        raise ParameterError("t_total must be >= 1")
    if trace_every < 1:
        raise ParameterError("trace_every must be >= 1")
    _check_decay(decay_milestones, decay_factor, t_total, **steps)
    if not rngs or len(seed_labels) != len(rngs):
        raise ParameterError(
            "need at least one stream and one seed label per stream")
    milestones = tuple(decay_milestones)
    # the step counts that end a segment besides the traced ones
    stops = sorted({*(e for e in (*events, *milestones) if 0 < e < t_total),
                    t_total})
    objective = problem.full_objective

    def lockstep(seeds: list, strict: bool, warned) -> list:
        feed = _Feed([rngs[i] for i in seeds], oracles, shared_sample,
                     t_total, strict)
        state = _stack(start, len(seeds))
        records: list = [[] for _ in seeds]
        reason = None
        pending: list = []  # (prev_x, state, elapsed_ms) of the traced steps
        block = 0  # anchor floats that make a block: none for the first one
        spent = 0.0  # seconds spent computing rows

        def flush() -> None:
            nonlocal spent
            t0 = time.perf_counter()
            cur = _concat([p[1] for p in pending])
            n = cur.x.shape[0]
            obj = ([math.nan] * n if objective is None else _shaped(
                objective(cur.x), (n,), "full_objective").tolist())
            stat, p_t = rows(np.concatenate([p[0] for p in pending]), cur)
            k = 0
            for _, st, elapsed_ms in pending:
                for j, i in enumerate(seeds):
                    records[j].append(RunRecord(st.t, obj[k], stat[k], p_t[k],
                                                elapsed_ms, seed_labels[i]))
                    k += 1
            pending.clear()
            spent += time.perf_counter() - t0

        began = time.perf_counter()
        t = ev = 0
        while t < t_total:
            ev += stops[ev] == t  # past the event that ended the last segment
            scale = (decay_factor ** -sum(m <= t for m in milestones)
                     if milestones else 1.0)
            n = 1 if strict else min(
                stops[ev], (t // trace_every + 1) * trace_every) - t
            try:
                prev_x, nxt = kernel(state, scale, feed, n)
                if not _finite(nxt.x):
                    raise NonFiniteError(f"{anchor} became non-finite")
            except NonFiniteError as exc:
                if not strict:
                    raise
                reason = str(exc)
                rngs[seeds[0]]._seek(starts[seeds[0]],
                                     len(oracles) * (t + 1))
                break
            if warned:
                raise FloatingPointError(warned[0])
            state = nxt
            t = state.t
            if on_step is not None:
                on_step(prev_x, state, seeds)
            if t % trace_every == 0 or t == t_total:
                pending.append((prev_x, state,
                                (time.perf_counter() - began - spent) * 1e3))
                # a block has one row set, so its anchors hold this many
                if len(pending) * state.x.size >= block:
                    flush()
                    block = _TRACE_BLOCK
        if pending:
            flush()
        if warned:
            raise FloatingPointError(warned[0])
        return [(_pick(state, j), records[j], reason)
                for j in range(len(seeds))]

    starts = [r._tell() for r in rngs]
    warned: list = []
    record = {k: "call" for k, v in np.geterr().items()
              if v not in ("ignore", "raise")}
    try:
        with np.errstate(call=lambda kind, flag: warned.append(kind),
                         **record):
            return lockstep(list(range(len(rngs))), False, warned)
    except FloatingPointError:
        pass
    replayed = []
    for i, r in enumerate(rngs):
        r._seek(starts[i])
        replayed += lockstep([i], True, ())
    return replayed


# ---------------------------------------------------------------------------
# diagnostics


def step_diagnostics(problem: DMaxProblem, before: SmagState,
                     after: SmagState, sched: Schedule) -> dict:
    """Check one transition against the two inequalities the analysis rests
    on: the approximate-descent bound for the smoothed objective, and the
    bound of the gradient-estimate error by the inner tracking error.

    Returns both sides of each inequality; callers assert
    ``lhs <= rhs + slack``.  Each component's prox point and envelope come
    from its exact maps when ``exact_aux`` has them and from its function
    oracle otherwise; Psi reads as 0 only on a problem without a second
    component (no ``psi_subgrad_x``).
    """
    gamma = sched.gamma
    eta0 = sched.eta0

    x_t = before.x
    p_phi, p_psi = envelope_prox_points(problem, x_t, gamma)
    grad_env = (p_psi - p_phi) / gamma
    g_vec = after.last_g
    err_sq = float(np.sum((grad_env - g_vec) ** 2))

    descent_lhs = smoothed_objective(problem, after.x, gamma)
    descent_rhs = (smoothed_objective(problem, x_t, gamma)
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
