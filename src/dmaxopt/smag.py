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
    ConstraintSet,
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
                    epsilon: float = 1.0,
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
                         tau=tau, nu=nu, l_f=l_f, t_total=int(t_total),
                         epsilon=float(epsilon))
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

# Tokens per oracle that one refill of a lockstep batch realizes at most;
# bounds the memory of bulk-realized noise.
_CHUNK = 1024
# Anchor floats of the traced steps whose rows one call computes: bounds
# the stacked states and temporaries of a block of trace rows.
_TRACE_BLOCK = 1 << 12


def _arrays(state) -> dict:
    """The array fields of a state dataclass, by name."""
    return {f.name: getattr(state, f.name) for f in fields(state)
            if isinstance(getattr(state, f.name), np.ndarray)}


def _pick(state, idx):
    """``state`` with every array indexed by ``idx`` along the seed axis: a
    row (1-D views), a boolean mask of rows, or ``None`` (a new seed axis of
    length 1)."""
    return replace(state, **{k: v[idx] for k, v in _arrays(state).items()})


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


class _PerToken:
    """A plain ``(x, dual, token)`` oracle in batched form: a batch is its
    tokens (an ``(S, 1)`` column in ``grad``), and ``grad`` calls the
    oracle once per row."""

    def __init__(self, oracle):
        self.oracle = oracle

    def sample(self, tokens):
        return tokens

    def grad(self, x, dual, tokens):
        duals = [None] * len(x) if dual is None else dual
        return np.array([self.oracle(x[j], duals[j], tok) for j, tok in
                         enumerate(tokens[:, 0].tolist())], dtype=np.float64)


class _Feed:
    """Oracle inputs for seeds that step in lockstep, one row per seed.

    Each token slot of a step (four for SMAG, two for the baselines) has
    one oracle, or ``None`` when the run never calls it.  The feed draws
    every live seed's tokens for a chunk of steps at once, which are the
    tokens per-step draws would give, and evaluates each oracle in the
    batched form of :class:`DMaxProblem`, a plain callable wrapped to it.

    A row whose step fails is marked in ``failed`` with its first
    :class:`NonFiniteError`, and reads finite values for the rest of the
    step.  :meth:`drop` removes the marked rows at the end of the step.
    """

    def __init__(self, rngs, oracles, shared_sample: bool):
        self.rngs = list(rngs)
        self.oracles = [o if o is None or hasattr(o, "grad") else
                        _PerToken(o) for o in oracles]
        self.slot = [0 if shared_sample else k for k in range(len(oracles))]
        self.rows = list(range(len(self.rngs)))  # live seeds, in row order
        self.failed: dict = {}  # row -> its error, within the step
        self.lost: dict = {}  # seed -> its error
        self.c = self.steps = 0  # step within the chunk, chunk length

    def next_step(self, remaining: int) -> None:
        self.c += 1
        if self.c < self.steps:
            return
        n, live = len(self.oracles), self.rows
        self.steps = min(remaining, max(1, _CHUNK // len(live)))
        self.c = 0
        toks = np.stack([self.rngs[i].draw_many(n * self.steps)
                         for i in live]).reshape(len(live), self.steps, n)
        self.inputs = []
        for oracle, s in zip(self.oracles, self.slot):
            t = toks[:, :, s].T  # (steps, seeds)
            z = None if oracle is None else oracle.sample(t.reshape(-1))
            self.inputs.append(z if z is None else z.reshape(*t.shape, -1))

    def drop(self, keep: np.ndarray) -> None:
        """Drop the rows marked in ``failed``, ``keep`` being the mask of
        the others: their errors go to ``lost``, and the tokens drawn for
        their later steps go back to their streams, so each stream ends
        where a solo run would leave it."""
        give_back = len(self.oracles) * (self.steps - self.c - 1)
        for j, err in self.failed.items():
            self.lost[self.rows[j]] = err
            self.rngs[self.rows[j]]._put_back(give_back)
        self.failed = {}
        self.rows = [i for i, kept in zip(self.rows, keep.tolist()) if kept]
        self.inputs = [z if z is None else z[:, keep] for z in self.inputs]

    def grad(self, k: int, x: np.ndarray, dual, dim: int, what: str):
        """Oracle ``k`` at the rows of ``x`` and ``dual``, as ``(rows,
        dim)`` values.  Rows failed earlier in the step are not passed and
        read 0, as do rows that fail here: a non-finite value, or a
        :class:`NonFiniteError` raised on the row alone (a call that
        raises is made again row by row)."""
        z = self.inputs[k]
        args = (x, dual, z if z is None else z[self.c])
        if not self.failed:
            return self._grad(k, args, range(x.shape[0]), dim, what)
        live = [j for j in range(x.shape[0]) if j not in self.failed]
        g = np.zeros((x.shape[0], dim))
        if live:
            g[live] = self._grad(k, [a if a is None else a[live]
                                     for a in args], live, dim, what)
        return g

    def _grad(self, k: int, args, rows, dim: int, what: str):
        try:
            g = np.asarray(self.oracles[k].grad(*args), dtype=np.float64)
        except NonFiniteError as exc:
            if len(rows) > 1:
                return np.concatenate([
                    self._grad(k, [a if a is None else a[[i]] for a in args],
                               [j], dim, what) for i, j in enumerate(rows)])
            self.failed[rows[0]] = exc
            return np.zeros((1, dim))
        if g.shape[1:] != (dim,):
            raise ParameterError(f"{what} returned shape {g.shape[1:]}, "
                                 f"expected ({dim},)")
        if _finite(g):
            return g
        bad = ~np.isfinite(g).all(axis=1)
        err = NonFiniteError(f"{what} returned a non-finite value")
        for i in np.flatnonzero(bad).tolist():
            self.failed.setdefault(rows[i], err)
        return np.where(bad[:, None], 0.0, g)

    def project(self, proj, cset: ConstraintSet, v: np.ndarray,
                old: np.ndarray) -> np.ndarray:
        """``proj(cset, v)`` on the rows of ``v``.  A row it refuses fails
        with the error ``proj`` raises for it, and its old dual ``old`` is
        projected in its place."""
        try:
            return proj(cset, v)
        except NonFiniteError:
            bad = ~np.isfinite(v).all(axis=1)
        for j in np.flatnonzero(bad).tolist():
            try:
                proj(cset, v[j])
            except NonFiniteError as exc:
                self.failed.setdefault(j, exc)
        return proj(cset, np.where(bad[:, None], old, v))

    def check(self, x: np.ndarray, message: str) -> None:
        """Fail the rows of ``x`` with a non-finite entry."""
        if not _finite(x):
            for j in np.flatnonzero(~np.isfinite(x).all(axis=1)).tolist():
                self.failed.setdefault(j, NonFiniteError(message))


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
                 mode: Mode, lr_scale: float, feed: _Feed) -> SmagState:
    """One step of the stacked seeds ``st``; rows that fail are marked in
    ``feed``.  A part steps when ``feed`` has an oracle in its token slot
    (see :func:`_smag_oracles`)."""
    eta1 = sched.eta1 * lr_scale
    eta0 = sched.eta0 * lr_scale
    inv_gamma = 1.0 / sched.gamma
    dim = problem.dim_x
    x_t, x_phi, x_psi, y, z = st.x, st.x_phi, st.x_psi, st.y, st.z

    g_phi = feed.grad(0, x_phi, y, dim, "phi_subgrad_x")
    x_phi_new = x_phi - eta1 * (g_phi + inv_gamma * (x_phi - x_t))

    y_new = y
    if feed.oracles[1] is not None:
        # Dual ascent evaluates at the *previous* x_phi on purpose.
        g_y = feed.grad(1, x_phi, y, y.shape[1], "phi_grad_y")
        y_new = feed.project(project, problem.set_y, y + eta1 * g_y, y)

    x_psi_new, z_new = x_psi, z
    if feed.oracles[2] is None:
        g_vec = (x_t - x_phi_new) * inv_gamma
    else:
        g_psi = feed.grad(2, x_psi, z, dim, "psi_subgrad_x")
        x_psi_new = x_psi - eta1 * (g_psi + inv_gamma * (x_psi - x_t))
        if feed.oracles[3] is not None:
            g_z = feed.grad(3, x_psi, z, z.shape[1], "psi_grad_z")
            z_new = feed.project(project, problem.set_z, z + eta1 * g_z, z)
        g_vec = (x_psi_new - x_phi_new) * inv_gamma

    x_new = x_t - eta0 * g_vec
    feed.check(x_new, "anchor iterate became non-finite")
    return SmagState(x=x_new, x_phi=x_phi_new, x_psi=x_psi_new, y=y_new,
                     z=z_new, last_g=g_vec, t=st.t + 1)


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
    envelope-gradient norm, rather than the norm of the step's estimate.
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


def _missing_maps(aux: Optional[ExactAux], oracles: list,
                  potential: bool = False) -> list:
    """Names of the ``exact_aux`` maps that exact stationarity (and, with
    ``potential``, the potential) needs but ``aux`` lacks, for a run that
    steps the parts of :func:`_smag_oracles` ``oracles``: the prox of each
    component it steps and the best response of each dual."""
    needs = [("prox_phi", True), ("prox_psi", oracles[2] is not None),
             ("best_response_y", potential and oracles[1] is not None),
             ("best_response_z", potential and oracles[3] is not None)]
    return [n for n, needed in needs
            if needed and getattr(aux, n, None) is None]


def _shaped(value, shape: tuple, name: str) -> np.ndarray:
    """``value`` as a float64 array, which a map ``name`` must return with
    ``shape``: a map that only takes one point fails here on a stack."""
    v = np.asarray(value, dtype=np.float64)
    if v.shape != shape:
        raise ParameterError(f"{name} returned shape {v.shape}, expected "
                             f"{shape}; on an (n, dim) stack it must "
                             "return one row per point")
    return v


def _norms(v: np.ndarray) -> list:
    """The Euclidean norm of each row of ``v``, as floats bit for bit
    ``np.linalg.norm`` of the row alone: numpy takes that as the square
    root of the row's ``dot`` with itself, and ``vecdot`` calls that dot
    once per row.  A finite row whose squared sum overflows (entries above
    ~1.3e154) takes the norm of the row scaled by its largest magnitude."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):
        out = [math.sqrt(q) for q in np.vecdot(v, v).tolist()]
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
        shared_sample: bool = False, exact_metrics: Optional[bool] = None,
        collect_states: bool = False):
    """Run ``sched.t_total`` steps and return traces plus the output iterate.

    The output index is drawn up front from a child stream of ``rng`` (see
    :class:`RunResult`).  A non-finite oracle value aborts the run; the
    partial trace is kept and the result flagged rather than raised.
    Each step draws four tokens, for the phi_x, phi_y, psi_x and psi_z
    oracles in that order whatever the mode; ``shared_sample`` feeds the
    first to all four.  Each milestone ``m`` of ``decay_milestones``
    divides both step sizes by ``decay_factor`` from step ``m`` (counted
    from 0) on.  A row's ``p_t`` is the analysis potential of the step
    into it: the squared distances of the inner iterates after the step
    from the exact prox points of the anchor before it (and of each dual
    from its best response there), times ``2 eta0 / (eta1 gamma^2
    alpha)``; it is NaN unless exact metrics are on and ``exact_aux`` has
    the best response of each dual the run steps.

    With a sequence of streams for ``rng`` (and of labels for
    ``seed_label``, or one int label for all) the seeds step in lockstep
    as the rows of ``(S, dim)`` arrays, and one :class:`RunResult` per
    stream comes back, each equal bit for bit to a solo run of that
    stream.  Every oracle runs in the batched form of
    :class:`DMaxProblem`: it samples a chunk of steps for all seeds at
    once, and one ``grad`` call takes a step's stacked seeds (a plain
    callable is called per seed inside it).  Trace rows are computed on
    the stack of a block of traced steps, one call of ``full_objective``
    and of each exact map per block, and reduced row by row.  ``t_bar``,
    finiteness checks and aborts stay per seed: a seed that aborts stops
    there, and the others go on.  ``elapsed_ms`` is the seeds' shared
    clock at the traced step, net of the time spent computing trace rows.
    """
    rngs, labels = _streams(rng, seed_label)
    _check_mode(mode)
    oracles = _smag_oracles(problem, mode)
    aux = problem.exact_aux
    missing = _missing_maps(aux, oracles)
    if exact_metrics is None:
        exact_metrics = not missing
    if exact_metrics and missing:
        raise CapabilityError(
            f"exact metrics in {mode} mode need exact_aux.{missing[0]}")
    trace_potential = exact_metrics and not _missing_maps(aux, oracles,
                                                          potential=True)
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

    def on_step(prev: SmagState, nxt: SmagState, rows: list) -> None:
        if states is not None:
            for j, i in enumerate(rows):
                states[i].append(_pick(nxt, j))
        for i in marks.get(nxt.t, ()):
            if i in rows:
                j = rows.index(i)
                kept[i] = (prev.x[j].copy(), nxt.x_phi[j].copy(),
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
            return [s / sched.gamma for s in _norms(p_psi - p_phi)], p_t
        return _norms(cur.last_g), p_t

    feed = _Feed(rngs, oracles, shared_sample)
    finals, records, reasons = _drive(
        problem, _stack(start, len(rngs)), t_total,
        lambda st, scale: _smag_kernel(problem, st, sched, mode, scale, feed),
        feed, rows, on_step=on_step, trace_every=trace_every,
        seed_labels=labels, decay_milestones=decay_milestones,
        decay_factor=decay_factor)

    # A seed that stops before step s + 1 keeps its final iterates.
    anchor_out = mode == "minmax"
    results = []
    for i, state in enumerate(finals):
        xb, cand, xpb = kept.get(i) or (state.x.copy(), state.x_phi.copy(),
                                        state.x_psi.copy())
        results.append(RunResult(
            records=records[i], final_state=state,
            t_bar=s_out[i] + (0 if anchor_out else 1), x_bar=xb,
            candidate=cand, returned=xb if anchor_out else cand,
            x_psi_bar=None if anchor_out else xpb,
            aborted=reasons[i] is not None, abort_reason=reasons[i] or "",
            states=None if states is None else states[i],
            exact_metrics=exact_metrics))
    return results[0] if isinstance(rng, RngStream) else results


def _check_decay(decay_milestones: Sequence[int], decay_factor: float,
                 t_total: int) -> None:
    """Refuse a decay factor that is not positive and finite, or whose
    largest step-size scale overflows: ``decay_factor ** -k`` over the
    ``k`` milestones below ``t_total``."""
    if not 0.0 < decay_factor < math.inf:
        raise ParameterError("decay_factor must be positive and finite")
    k = sum(m < t_total for m in decay_milestones)
    try:
        decay_factor ** -k
    except OverflowError:
        raise ParameterError(f"decay_factor ** -{k} overflows: the step "
                             "sizes after the milestones are out of "
                             "float range") from None


def _drive(problem: DMaxProblem, state, t_total: int, kernel, feed: _Feed,
           rows, *, on_step=None, trace_every: int, seed_labels: list,
           decay_milestones: Sequence[int], decay_factor: float):
    """The lockstep loop shared by :func:`run` and the baselines.

    ``state`` stacks one row per seed of ``feed`` (any state dataclass with
    ``x`` and ``t``).  Each step is ``kernel(state, lr_scale)``, which
    marks the rows whose step failed in ``feed``; those rows are dropped
    here, their seeds keeping the state before the step.  ``on_step(prev,
    state, rows)`` then sees the surviving rows, whose seeds are ``rows``.
    At step ``t`` (from 0) each milestone ``m <= t`` divides ``lr_scale``
    by ``decay_factor``, which must be positive and finite, with the
    largest such scale in float range.

    Every ``trace_every`` steps and at the last one each live seed gets a
    :class:`RunRecord`.  Such a step only reads the clock and holds its
    previous anchors ``prev.x`` and its ``state``; the rows are computed a
    block at a time, once the held anchors reach ``_TRACE_BLOCK`` floats,
    before seeds are dropped and after the loop.  The first traced step is
    a block of its own, so a map that cannot take a stack fails there.  A
    block stacks its steps' states and previous anchors in step order,
    ``full_objective`` takes the block's anchors once, and ``rows(prev_x,
    state)`` gives the lists of the rows' stationarity and ``p_t``, as
    floats.
    ``elapsed_ms`` is the clock at the traced step, less the time spent
    computing rows before it.  Returns per seed its final state (1-D), its
    records and its abort reason (``None`` if it did not abort).
    """
    if t_total < 1:
        raise ParameterError("t_total must be >= 1")
    if trace_every < 1:
        raise ParameterError("trace_every must be >= 1")
    _check_decay(decay_milestones, decay_factor, t_total)
    if not feed.rngs or len(seed_labels) != len(feed.rngs):
        raise ParameterError(
            "need at least one stream and one seed label per stream")
    milestones = tuple(decay_milestones)
    finals: list = [None] * len(feed.rngs)
    records: list = [[] for _ in feed.rngs]
    objective = problem.full_objective
    pending: list = []  # (prev.x, state, elapsed_ms) of the traced steps
    block = 0  # anchor floats that make a block: none for the first one
    spent = 0.0  # seconds spent computing rows

    def flush() -> None:
        nonlocal spent
        t0 = time.perf_counter()
        cur = _concat([p[1] for p in pending])
        n = cur.x.shape[0]
        obj = ([math.nan] * n if objective is None
               else _shaped(objective(cur.x), (n,), "full_objective").tolist())
        stat, p_t = rows(np.concatenate([p[0] for p in pending]), cur)
        k = 0
        for _, st, elapsed_ms in pending:
            for i in feed.rows:
                records[i].append(RunRecord(st.t, obj[k], stat[k], p_t[k],
                                            elapsed_ms, seed_labels[i]))
                k += 1
        pending.clear()
        spent += time.perf_counter() - t0

    start = time.perf_counter()
    for t in range(t_total):
        scale = (decay_factor ** -sum(m <= t for m in milestones)
                 if milestones else 1.0)
        feed.next_step(t_total - t)
        prev = state
        state = kernel(prev, scale)
        if feed.failed:
            if pending:
                flush()
            keep = np.ones(len(feed.rows), dtype=bool)
            keep[list(feed.failed)] = False
            for j in feed.failed:
                finals[feed.rows[j]] = _pick(prev, j)
            feed.drop(keep)
            if not feed.rows:
                break
            prev, state = _pick(prev, keep), _pick(state, keep)
        if on_step is not None:
            on_step(prev, state, feed.rows)
        if state.t % trace_every == 0 or state.t == t_total:
            pending.append((prev.x, state,
                            (time.perf_counter() - start - spent) * 1e3))
            # a block has one row set, so its anchors hold this many floats
            if len(pending) * state.x.size >= block:
                flush()
                block = _TRACE_BLOCK
    if pending:
        flush()
    for j, i in enumerate(feed.rows):
        finals[i] = _pick(state, j)
    reasons = [str(feed.lost[i]) if i in feed.lost else None
               for i in range(len(feed.rngs))]
    return finals, records, reasons


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
