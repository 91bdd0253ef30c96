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


def _oracle_vec(raw, dim: int, what: str) -> np.ndarray:
    g = np.asarray(raw, dtype=np.float64)
    if g.shape != (dim,):
        raise ParameterError(
            f"{what} returned shape {g.shape}, expected ({dim},)")
    if not _finite(g):
        raise NonFiniteError(f"{what} returned a non-finite value")
    return g


class _Feed:
    """Oracle inputs for seeds that step in lockstep, one row per seed.

    Each token slot of a step (four for SMAG, two for the baselines) has
    one oracle, or ``None`` when the run never calls it.  The feed draws
    every live seed's tokens for a chunk of steps at once, which are the
    tokens per-step draws would give.  An oracle with ``sample`` /
    ``grad`` gets the chunk's noise realized in bulk and is evaluated on
    the stacked rows; any other oracle is called per seed with its token.

    A row whose step fails is marked in ``failed`` with its first
    :class:`NonFiniteError`, and reads finite values for the rest of the
    step.  :meth:`drop` removes the marked rows at the end of the step.
    """

    def __init__(self, rngs, oracles, shared_sample: bool):
        self.rngs = list(rngs)
        self.oracles = oracles
        self.slot = [0 if shared_sample else k for k in range(len(oracles))]
        self.bulk = [hasattr(o, "sample") and hasattr(o, "grad")
                     for o in oracles]
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
        for k, oracle in enumerate(self.oracles):
            t = toks[:, :, self.slot[k]].T  # (steps, seeds)
            if oracle is None:
                self.inputs.append(None)
            elif self.bulk[k]:
                z = oracle.sample(t.reshape(-1))
                self.inputs.append(
                    None if z is None else z.reshape(*t.shape, -1))
            else:
                self.inputs.append(t.T.tolist())  # per seed, per step

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
        self.inputs = [
            z if z is None else z[:, keep] if self.bulk[k]
            else [toks for toks, kept in zip(z, keep.tolist()) if kept]
            for k, z in enumerate(self.inputs)]

    def _mark(self, bad: np.ndarray, err: NonFiniteError) -> None:
        for j in np.flatnonzero(bad).tolist():
            self.failed.setdefault(j, err)

    def grad(self, k: int, x: np.ndarray, dual, dim: int, what: str):
        """Oracle ``k`` at the rows of ``x`` and ``dual``, as ``(rows,
        dim)`` values.  A row whose value is not finite fails and reads 0;
        a per-seed oracle skips the rows that already failed."""
        oracle, inputs = self.oracles[k], self.inputs[k]
        if self.bulk[k]:
            z = inputs if inputs is None else inputs[self.c]
            g = np.asarray(oracle.grad(x, dual, z), dtype=np.float64)
            if g.shape[1:] != (dim,):
                raise ParameterError(f"{what} returned shape {g.shape[1:]}, "
                                     f"expected ({dim},)")
            if _finite(g):
                return g
            bad = ~np.isfinite(g).all(axis=1)
            self._mark(bad, NonFiniteError(f"{what} returned a non-finite "
                                           "value"))
            return np.where(bad[:, None], 0.0, g)
        g = np.zeros((x.shape[0], dim))
        for j in range(x.shape[0]):
            if j in self.failed:
                continue
            try:
                g[j] = _oracle_vec(
                    oracle(x[j], None if dual is None else dual[j],
                           inputs[j][self.c]), dim, what)
            except NonFiniteError as exc:
                self.failed[j] = exc
        return g

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
            self._mark(~np.isfinite(x).all(axis=1), NonFiniteError(message))


def _streams(rng, seed_label):
    """The streams and labels of a run: ``rng`` is one stream or a
    sequence of them, and an int label applies to every stream."""
    rngs = [rng] if isinstance(rng, RngStream) else list(rng)
    if isinstance(seed_label, int):
        return rngs, [seed_label] * len(rngs)
    return rngs, list(seed_label)


def _one_step(kernel, state, rng: RngStream, oracles, shared_sample: bool):
    """``kernel(state, feed)`` for one step of the 1-D ``state`` on the
    stream ``rng``; a failure raises its :class:`NonFiniteError`."""
    if np.ndim(state.x) != 1:
        raise ParameterError("a step takes one state with a 1-D x")
    feed = _Feed([rng], oracles, shared_sample)
    feed.next_step(1)
    nxt = kernel(_pick(state, None), feed)
    if feed.failed:
        raise feed.failed[0]
    return _pick(nxt, 0)


# ---------------------------------------------------------------------------
# the step kernel


def _smag_oracles(problem: DMaxProblem, state: SmagState, mode: Mode):
    """The oracle of each of the four token slots that ``mode`` calls."""
    p = problem
    return [p.phi_subgrad_x,
            p.phi_grad_y if mode != "dwc" and state.y is not None else None,
            p.psi_subgrad_x if mode != "minmax" else None,
            p.psi_grad_z if mode == "dmax" and state.z is not None else None]


def _smag_kernel(problem: DMaxProblem, st: SmagState, sched: Schedule,
                 mode: Mode, lr_scale: float, feed: _Feed) -> SmagState:
    """One step of the stacked seeds ``st``; rows that fail are marked in
    ``feed``."""
    eta1 = sched.eta1 * lr_scale
    eta0 = sched.eta0 * lr_scale
    inv_gamma = 1.0 / sched.gamma
    dim = problem.dim_x
    x_t, x_phi, x_psi, y, z = st.x, st.x_phi, st.x_psi, st.y, st.z

    g_phi = feed.grad(0, x_phi, y, dim, "phi_subgrad_x")
    x_phi_new = x_phi - eta1 * (g_phi + inv_gamma * (x_phi - x_t))

    y_new = y
    if mode != "dwc" and problem.phi_grad_y is not None and y is not None:
        # Dual ascent evaluates at the *previous* x_phi on purpose.
        g_y = feed.grad(1, x_phi, y, y.shape[1], "phi_grad_y")
        y_new = feed.project(project, problem.set_y, y + eta1 * g_y, y)

    if mode == "minmax":
        x_psi_new = x_psi
        z_new = z
        g_vec = (x_t - x_phi_new) * inv_gamma
    else:
        if problem.psi_subgrad_x is None:
            raise CapabilityError(
                f"mode {mode!r} needs a psi_subgrad_x oracle")
        g_psi = feed.grad(2, x_psi, z, dim, "psi_subgrad_x")
        x_psi_new = x_psi - eta1 * (g_psi + inv_gamma * (x_psi - x_t))
        z_new = z
        if mode == "dmax" and problem.psi_grad_z is not None and z is not None:
            g_z = feed.grad(3, x_psi, z, z.shape[1], "psi_grad_z")
            z_new = feed.project(project, problem.set_z, z + eta1 * g_z, z)
        g_vec = (x_psi_new - x_phi_new) * inv_gamma

    x_new = x_t - eta0 * g_vec
    feed.check(x_new, "anchor iterate became non-finite")
    return SmagState(x=x_new, x_phi=x_phi_new, x_psi=x_psi_new, y=y_new,
                     z=z_new, last_g=g_vec, t=st.t + 1)


def step(problem: DMaxProblem, state: SmagState, sched: Schedule,
         rng, mode: Mode, *, shared_sample: bool = False,
         lr_scale: float = 1.0) -> SmagState:
    """One step in ``mode``.

    Draws four tokens from ``rng`` for the phi_x, phi_y, psi_x and psi_z
    oracles, in that order, whatever the mode; ``shared_sample`` feeds the
    first token to all four.  ``lr_scale`` multiplies both step sizes.
    A non-finite value raises :class:`NonFiniteError`.
    """
    _check_mode(mode)
    return _one_step(
        lambda st, feed: _smag_kernel(problem, st, sched, mode, lr_scale,
                                      feed),
        state, rng, _smag_oracles(problem, state, mode), shared_sample)


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
    once per row."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    return [math.sqrt(q) for q in np.vecdot(v, v).tolist()]


def _sq(d: np.ndarray):
    """``np.sum(d ** 2)`` of a point, or of each row of a stack, calling
    the reduction directly."""
    return np.add.reduce(d ** 2, axis=-1)


def _prox_pair(aux: ExactAux, x: np.ndarray, gamma: float, mode: Mode):
    """``(prox_phi(x), prox_psi(x))`` at a point or at each row of a stack;
    Psi is identically zero in minmax mode, so its prox is ``x`` itself."""
    p_phi = _shaped(aux.prox_phi(x, gamma), x.shape, "exact_aux.prox_phi")
    if mode == "minmax":
        return p_phi, x
    return p_phi, _shaped(aux.prox_psi(x, gamma), x.shape,
                          "exact_aux.prox_psi")


def _potential_terms(aux: ExactAux, p_phi: np.ndarray, p_psi: np.ndarray,
                     s_next: SmagState, mode: Mode):
    """Unscaled sum of squared tracking errors for the potential at the
    anchor whose prox points are ``p_phi`` and ``p_psi``: a float64 for a
    1-D ``s_next``, one entry per row for a stacked one."""
    total = _sq(s_next.x_phi - p_phi)
    if mode != "dwc" and s_next.y is not None:
        total += _sq(s_next.y - _shaped(aux.best_response_y(p_phi),
                                        s_next.y.shape,
                                        "exact_aux.best_response_y"))
    if mode != "minmax":
        total += _sq(s_next.x_psi - p_psi)
        if mode == "dmax" and s_next.z is not None:
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

    The output index ``t_bar`` is drawn up front from a child stream of
    ``rng`` (uniform over ``{1..T}`` for dmax/dwc where the output is an
    inner iterate, uniform over ``{0..T-1}`` for minmax where it is an
    anchor).  A non-finite oracle value aborts the run; the partial trace
    is kept and the result flagged rather than raised.

    With a sequence of streams for ``rng`` (and of labels for
    ``seed_label``, or one int label for all) the seeds step in lockstep
    as the rows of ``(S, dim)`` arrays, and one :class:`RunResult` per
    stream comes back, each equal bit for bit to a solo run of that
    stream.  Oracles that can ``sample`` realize a chunk of steps' noise
    in bulk and take one numpy step for all seeds; other oracles are
    called per seed with its token.  Trace rows are computed on the stack
    of a block of traced steps, one call of ``full_objective`` and of each
    exact map per block, and reduced row by row.  ``t_bar``, finiteness
    checks and aborts stay per seed: a seed that aborts stops there, and
    the others go on.  ``elapsed_ms`` is the seeds' shared clock at the
    traced step, net of the time spent computing trace rows.
    """
    rngs, labels = _streams(rng, seed_label)
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
    n = len(rngs)
    low = 0 if mode == "minmax" else 1
    t_bar = [int(r.child(1).integers(low, t_total + low)) for r in rngs]

    start = initial_state(problem, x0)
    states = [[start] for _ in rngs] if collect_states else None
    x_bar: list = [None] * n
    candidate: list = [None] * n
    x_psi_bar: list = [None] * n
    # Steps at which some seed takes its output iterates.
    marks: dict = {}
    for i, tb in enumerate(t_bar):
        if mode == "minmax" and tb == 0:
            x_bar[i] = start.x.copy()
        marks.setdefault(tb, []).append(i)
        if mode == "minmax":
            marks.setdefault(tb + 1, []).append(i)

    def on_step(prev: SmagState, nxt: SmagState, rows: list) -> None:
        if states is not None:
            for j, i in enumerate(rows):
                states[i].append(_pick(nxt, j))
        for i in marks.get(nxt.t, ()):
            if i not in rows:
                continue
            j = rows.index(i)
            if mode != "minmax":
                x_bar[i] = prev.x[j].copy()
                candidate[i] = nxt.x_phi[j].copy()
                x_psi_bar[i] = nxt.x_psi[j].copy()
            elif nxt.t == t_bar[i]:
                x_bar[i] = nxt.x[j].copy()
            else:
                candidate[i] = nxt.x_phi[j].copy()

    aux = problem.exact_aux

    def rows(prev_x: np.ndarray, cur: SmagState):
        if trace_potential:
            p_t = (pot_coef * _potential_terms(
                aux, *_prox_pair(aux, prev_x, sched.gamma, mode), cur,
                mode)).tolist()
        else:
            p_t = [math.nan] * cur.x.shape[0]
        if exact_metrics:
            p_phi, p_psi = _prox_pair(aux, cur.x, sched.gamma, mode)
            return [s / sched.gamma for s in _norms(p_psi - p_phi)], p_t
        return _norms(cur.last_g), p_t

    feed = _Feed(rngs, _smag_oracles(problem, start, mode), shared_sample)
    finals, records, reasons = _drive(
        problem, _stack(start, n), t_total,
        lambda st, scale: _smag_kernel(problem, st, sched, mode, scale, feed),
        feed, rows, on_step=on_step, trace_every=trace_every,
        seed_labels=labels, decay_milestones=decay_milestones,
        decay_factor=decay_factor)

    results = []
    for i, state in enumerate(finals):
        xb, cand, xpb = x_bar[i], candidate[i], x_psi_bar[i]
        if mode == "minmax":
            returned = xb if xb is not None else state.x.copy()
            if cand is None:
                cand = state.x_phi.copy()
        else:
            returned = cand if cand is not None else state.x_phi.copy()
            if xb is None:
                xb = state.x.copy()
            if cand is None:
                cand = state.x_phi.copy()
            if xpb is None:
                xpb = state.x_psi.copy()
        results.append(RunResult(
            records=records[i], final_state=state, t_bar=t_bar[i], x_bar=xb,
            candidate=cand, returned=returned, x_psi_bar=xpb,
            aborted=reasons[i] is not None, abort_reason=reasons[i] or "",
            states=None if states is None else states[i]))
    return results[0] if isinstance(rng, RngStream) else results


def _drive(problem: DMaxProblem, state, t_total: int, kernel, feed: _Feed,
           rows, *, on_step=None, trace_every: int, seed_labels: list,
           decay_milestones: Sequence[int], decay_factor: float):
    """The lockstep loop shared by :func:`run` and the baselines.

    ``state`` stacks one row per seed of ``feed`` (any state dataclass with
    ``x`` and ``t``).  Each step is ``kernel(state, lr_scale)``, which
    marks the rows whose step failed in ``feed``; those rows are dropped
    here, their seeds keeping the state before the step.  ``on_step(prev,
    state, rows)`` then sees the surviving rows, whose seeds are ``rows``.

    Every ``trace_every`` steps and at the last one each live seed gets a
    :class:`RunRecord`.  Such a step only reads the clock and holds its
    previous anchors ``prev.x`` and its ``state``; the rows are computed a
    block at a time, once the held anchors reach ``_TRACE_BLOCK`` floats,
    before seeds are dropped and after the loop.  A block stacks its
    steps' states and previous anchors in step order, ``full_objective``
    takes the block's anchors once, and ``rows(prev_x, state)`` gives the
    lists of the rows' stationarity and ``p_t``, as floats.
    ``elapsed_ms`` is the clock at the traced step, less the time spent
    computing rows before it.  Returns per seed its final state (1-D), its
    records and its abort reason (``None`` if it did not abort).
    """
    if t_total < 1:
        raise ParameterError("t_total must be >= 1")
    if trace_every < 1:
        raise ParameterError("trace_every must be >= 1")
    if decay_factor <= 0:
        raise ParameterError("decay factor must be positive")
    if not feed.rngs or len(seed_labels) != len(feed.rngs):
        raise ParameterError(
            "need at least one stream and one seed label per stream")
    milestones = tuple(decay_milestones)
    finals: list = [None] * len(feed.rngs)
    records: list = [[] for _ in feed.rngs]
    objective = problem.full_objective
    pending: list = []  # (prev.x, state, elapsed_ms) of the traced steps
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
        scale = lr_scale_at(t, milestones, decay_factor) if milestones else 1.0
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
            if len(pending) * state.x.size >= _TRACE_BLOCK:
                flush()
    if pending:
        flush()
    for j, i in enumerate(feed.rows):
        finals[i] = _pick(state, j)
    reasons = [str(feed.lost[i]) if i in feed.lost else None
               for i in range(len(feed.rngs))]
    return finals, records, reasons


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
            f_vals[i] = smoothed_objective(problem, x_t, gamma, with_psi)
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
    descent_lhs = smoothed_objective(problem, after.x, gamma, with_psi)
    descent_rhs = (smoothed_objective(problem, x_t, gamma, with_psi)
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
