"""Shared domain types: vectors, constraint sets, seeded randomness, problems.

Everything downstream (envelope machinery, the optimizer, the experiment
harness) builds on the small vocabulary defined here.  Vectors are plain
1-D ``numpy`` arrays of ``float64``; the helpers below only add validation
at module boundaries.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

__all__ = [
    "DimensionError",
    "ParameterError",
    "CapabilityError",
    "NonFiniteError",
    "as_vector",
    "check_finite",
    "ConstraintSet",
    "whole_space",
    "box",
    "ball",
    "project",
    "contains",
    "RngStream",
    "token_generator",
    "ProblemConstants",
    "FunctionOracle",
    "ExactAux",
    "DMaxProblem",
    "RunRecord",
]


class DimensionError(ValueError):
    """Operands live in different (or wrong) dimensions."""


class ParameterError(ValueError):
    """A numeric parameter is outside its admissible range."""


class CapabilityError(RuntimeError):
    """The problem does not expose an oracle required by the operation."""


class NonFiniteError(FloatingPointError):
    """A vector contained NaN or infinity where finite values are required."""


def _finite(v: np.ndarray) -> bool:
    """Whether every entry of ``v`` is finite.  Same answer as
    ``np.isfinite(v).all()`` without that method's Python-level wrapper,
    and unlike a sum of squares it sets no overflow flag on large finite
    entries."""
    ok = np.isfinite(v)
    return np.count_nonzero(ok) == ok.size


def as_vector(x, dim: Optional[int] = None, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array, validating its length.

    Raises ``DimensionError`` on shape mismatch and ``NonFiniteError`` if any
    entry is NaN or infinite.
    """
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionError(f"{name} has length {v.shape[0]}, expected {dim}")
    if not _finite(v):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return v


def check_finite(v: np.ndarray, name: str = "vector") -> np.ndarray:
    if not _finite(v):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return v


# ---------------------------------------------------------------------------
# Constraint sets and Euclidean projection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintSet:
    """A closed convex set over which dual variables are projected.

    Supported kinds:

    - ``"whole-space"``: all of R^dim (projection is the identity),
    - ``"box"``: ``{v : lo <= v <= hi}`` coordinatewise,
    - ``"ball"``: ``{v : ||v - center|| <= radius}``.

    Instances are built through :func:`whole_space`, :func:`box` and
    :func:`ball`, which validate the parameters.
    """

    kind: str
    dim: int
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None
    radius: float = 0.0

    def is_bounded(self) -> bool:
        return self.kind != "whole-space"


def whole_space(dim: int) -> ConstraintSet:
    if dim < 1:
        raise ParameterError("dimension must be >= 1")
    return ConstraintSet(kind="whole-space", dim=int(dim))


def box(lo, hi) -> ConstraintSet:
    lo = as_vector(lo, name="lo")
    hi = as_vector(hi, dim=lo.shape[0], name="hi")
    if np.any(lo > hi):
        raise ParameterError("box requires lo <= hi coordinatewise")
    return ConstraintSet(kind="box", dim=lo.shape[0], lo=lo, hi=hi)


def ball(center, radius: float) -> ConstraintSet:
    center = as_vector(center, name="center")
    if not (radius > 0) or not math.isfinite(radius):
        raise ParameterError("ball radius must be positive and finite")
    return ConstraintSet(kind="ball", dim=center.shape[0], center=center,
                         radius=float(radius))


# numpy's clip ufunc; ``np.clip`` reaches it through two Python wrappers.
_clip = (np._core if hasattr(np, "_core") else np.core).umath.clip


def project(cset: ConstraintSet, v) -> np.ndarray:
    """Euclidean projection of ``v`` onto ``cset``.

    Idempotent and 1-Lipschitz; the result always lies in the set.  ``v``
    may also be an ``(S, dim)`` stack of points, projected row by row.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 2 and v.shape[1] == cset.dim:
        check_finite(v, "point")
    else:
        v = as_vector(v, dim=cset.dim, name="point")
    if cset.kind == "whole-space":
        return v
    if cset.kind == "box":
        return _clip(v, cset.lo, cset.hi)
    if cset.kind == "ball":
        if v.ndim == 2:
            return np.array([project(cset, r) for r in v]).reshape(v.shape)
        u = v - cset.center
        nrm = float(np.linalg.norm(u))
        if nrm <= cset.radius:
            return v
        return cset.center + u * (cset.radius / nrm)
    raise ParameterError(f"unknown constraint kind {cset.kind!r}")


def contains(cset: ConstraintSet, v, tol: float = 1e-12) -> bool:
    """Membership test with a small tolerance for floating-point boundaries."""
    v = as_vector(v, dim=cset.dim, name="point")
    if cset.kind == "whole-space":
        return True
    if cset.kind == "box":
        return bool(np.all(v >= cset.lo - tol) and np.all(v <= cset.hi + tol))
    if cset.kind == "ball":
        return float(np.linalg.norm(v - cset.center)) <= cset.radius + tol
    raise ParameterError(f"unknown constraint kind {cset.kind!r}")


# ---------------------------------------------------------------------------
# Deterministic seeded randomness
# ---------------------------------------------------------------------------

_MASK64 = 0xFFFFFFFFFFFFFFFF
_TOKEN_SALT = 0x5EED


def _mix64(a: int, b: int) -> int:
    """SplitMix-style 64-bit mix of two integers (stable across platforms).

    Pure-int arithmetic with explicit wraparound masking; all multiplies
    are mod 2^64 by construction.
    """
    z = ((a & _MASK64) * 0x9E3779B97F4A7C15 + (b & _MASK64)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RngStream:
    """Counter-based deterministic random stream keyed by ``(seed, stream_id)``.

    Built on the Philox counter-based generator, so two processes that
    construct a stream with the same key observe bit-identical token
    sequences regardless of platform.  ``draw`` hands out 64-bit sample
    tokens; oracles turn a token into a concrete mini-batch or noise
    realization through :func:`token_generator`.

    A full-range ``uint64`` draw consumes exactly one Philox output per
    token, so ``draw_many(n)`` holds the same bits as ``n`` single draws.
    Runs draw a chunk of tokens per seed at a time, and a seed that stops
    early hands the unused ones back (``_put_back``).
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise ParameterError("seed and stream_id must be nonnegative")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF,
                        self.stream_id & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self.counter = 0
        # The generator state before the latest ``draw_many``, and its size.
        self._last = (None, 0)

    def draw(self) -> int:
        """Return the next 64-bit sample token."""
        return int(self.draw_many(1)[0])

    def draw_many(self, n: int) -> np.ndarray:
        """Return the next ``n`` tokens (identical to ``n`` single draws)."""
        n = int(n)
        if n < 0:
            raise ParameterError("cannot draw a negative number of tokens")
        self._last = (self._gen.bit_generator.state, n)
        self.counter += n
        return self._gen.integers(0, 2 ** 64, size=n, dtype=np.uint64)

    def _put_back(self, k: int) -> None:
        """Return the last ``k`` tokens of the latest ``draw_many`` to the
        stream, as if they had never been drawn."""
        state, n = self._last
        self._gen.bit_generator.state = state
        self._gen.integers(0, 2 ** 64, size=n - k, dtype=np.uint64)
        self._last = (state, n - k)
        self.counter -= k

    def integers(self, low: int, high: int) -> int:
        """Draw one integer uniformly from ``[low, high)``, advancing the stream."""
        self.counter += 1
        return int(self._gen.integers(low, high))

    def child(self, tag: int) -> "RngStream":
        """Derive an independent stream; deterministic in ``(seed, stream_id, tag)``."""
        return RngStream(self.seed, _mix64(self.stream_id, tag))

    def __repr__(self):  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, counter={self.counter})"


# One Philox reused by ``token_generator`` while no Generator handed out
# earlier still holds it; created on first use so that importing the
# package does not import ``numpy.random``.
_philox = None
_philox_free_refs = 0
_philox_lock = threading.Lock()


def token_generator(token: int, salt: int = _TOKEN_SALT) -> np.random.Generator:
    """Deterministic generator for realizing one sample token.

    Every oracle call receives a fresh token and derives its mini-batch
    indices or noise through this map, so a trace is reproducible from the
    seed alone.  The result draws exactly what
    ``Generator(Philox(key=[token, salt]))`` draws.  It wraps a cached
    Philox reset to that key (counter 0, empty buffer) when no earlier
    result still references the cache, and a fresh Philox otherwise, so
    generators held across calls stay independent.
    """
    global _philox, _philox_free_refs
    key = (int(token) & _MASK64, int(salt) & _MASK64)
    with _philox_lock:
        bg = _philox
        # A count above the one taken when bg was made means a Generator
        # (or anything else) still references it; a reference GC has not
        # yet cleared only costs a fresh Philox.
        if bg is not None and sys.getrefcount(bg) == _philox_free_refs:
            bg.state = {"bit_generator": "Philox",
                        "state": {"counter": (0, 0, 0, 0), "key": key},
                        "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                        "has_uint32": 0, "uinteger": 0}
        else:
            bg = _philox = np.random.Philox(
                key=np.array(key, dtype=np.uint64))
            _philox_free_refs = sys.getrefcount(bg)
        return np.random.Generator(bg)


# Philox4x64-10 multipliers and key increments (Salmon et al., "Parallel
# Random Numbers: As Easy as 1, 2, 3", SC 2011).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_zig = None  # numpy's ziggurat tables (wi, ki), read on first use
# Tokens from which one ``_normals`` call realizes the ziggurat fast path in
# bulk: below it the scalar generator is faster (at d = 1 and d = 10, about
# 4 us per token against a bulk call's 250-400 us setup; 2 CPUs, numpy 2.4).
# Above ``_BULK_MAX_D`` draws per token the bulk path loses at any token
# count: its Philox words grow with d, and a token with a rejection in any
# of its d draws (1 - 0.985 ** d of them) is realized again by the scalar
# generator.  Median of 9 calls on 1024 tokens, same box:
#     d            10     20     28     37     50     100
#     bulk (ms)    1.31   2.45   3.33   4.47   5.51   10.1
#     scalar (ms)  2.98   3.08   3.34   3.62   3.83   4.81
_BULK_NORMALS = 128
_BULK_MAX_D = 28


def _mulhilo(a: np.ndarray, m: int):
    """High and low 64-bit words of ``a * m`` for a ``uint64`` array."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LOW32, a >> _S32
    # Schoolbook product of 32-bit halves; no partial sum overflows.
    u = a_hi * m_lo
    u += (a_lo * m_lo) >> _S32
    w = a_lo * m_hi
    w += u & _LOW32
    hi = a_hi * m_hi
    hi += u >> _S32
    hi += w >> _S32
    return hi, a * np.uint64(m)


def _philox_words(keys: np.ndarray, blocks: int,
                  salt: int = _TOKEN_SALT) -> np.ndarray:
    """The first ``4 * blocks`` words of ``Philox(key=[k, salt]).random_raw``
    for each key ``k``, as an ``(n, 4 * blocks)`` array.  Block ``b`` is
    the 4-word output of counter ``b``: numpy increments the counter
    before it generates, so the first block has counter 1."""
    n = keys.shape[0]
    k0, k1 = keys.copy(), salt
    x0 = np.repeat(np.arange(1, blocks + 1, dtype=np.uint64)[:, None], n,
                   axis=1)
    x1 = x2 = x3 = np.zeros_like(x0)
    for rnd in range(10):
        if rnd:
            k0 += np.uint64(_PHILOX_W[0])
            k1 = (k1 + _PHILOX_W[1]) & _MASK64
        hi0, lo0 = _mulhilo(x0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(x2, _PHILOX_M[1])
        hi1 ^= x1
        hi1 ^= k0
        hi0 ^= x3
        hi0 ^= np.uint64(k1)
        x0, x1, x2, x3 = hi1, lo1, hi0, lo0
    return np.stack([x0, x1, x2, x3], axis=2).transpose(1, 0, 2).reshape(
        n, 4 * blocks)


def _normals(tokens, d: int) -> np.ndarray:
    """``token_generator(t).standard_normal(d)`` for every token ``t``,
    stacked as an ``(n, d)`` array, bit for bit.

    Each draw of numpy's ziggurat (Marsaglia & Tsang, J. Stat. Softw.
    2000) reads one raw Philox word and returns ``+-rabs * wi[idx]`` when
    ``rabs < ki[idx]``.  That fast path is realized here for all tokens at
    once; a token with a rejection in any of its ``d`` draws, and every
    token of a call with fewer than ``_BULK_NORMALS`` of them or with ``d``
    above ``_BULK_MAX_D``, is realized whole by the scalar generator.
    """
    global _zig
    keys = np.asarray(tokens, dtype=np.uint64).reshape(-1)
    if keys.size < _BULK_NORMALS or d > _BULK_MAX_D:
        out, scalar = np.empty((keys.size, d)), range(keys.size)
    else:
        if _zig is None:
            from ._ziggurat import tables
            _zig = tables()
        wi, ki = _zig
        raw = _philox_words(keys, -(-d // 4))[:, :d]
        idx = (raw & np.uint64(0xFF)).astype(np.intp)
        rabs = (raw >> np.uint64(9)) & np.uint64(0xFFFFFFFFFFFFF)
        out = rabs.astype(np.float64) * wi[idx]
        np.negative(out, out=out,
                    where=(raw & np.uint64(0x100)).astype(bool))
        scalar = np.flatnonzero(~(rabs < ki[idx]).all(axis=1)).tolist()
    for i in scalar:
        out[i] = token_generator(int(keys[i])).standard_normal(d)
    return out


# ---------------------------------------------------------------------------
# Problem description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemConstants:
    """Structural constants a problem declares about its components.

    ``delta_phi`` / ``delta_psi`` are weak-convexity moduli of the
    component functions in ``x`` (0 means convex).  ``mu_phi`` / ``mu_psi``
    are strong-concavity moduli of the inner maximizations, and
    ``l_phi_yx`` / ``l_psi_zx`` the cross Lipschitz constants of the dual
    gradients with respect to ``x``.  ``None`` means the dual is absent:
    the schedule then drops that dual's terms.  ``m_bound`` bounds the
    second moment of every stochastic (sub)gradient oracle; it is
    declared, not verified.  Every declared constant must be finite.
    """

    delta_phi: float = 0.0
    delta_psi: float = 0.0
    mu_phi: Optional[float] = None
    mu_psi: Optional[float] = None
    l_phi_yx: Optional[float] = None
    l_psi_zx: Optional[float] = None
    m_bound: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None and not math.isfinite(v):
                raise ParameterError(f"{f.name} must be finite")
        if self.delta_phi < 0 or self.delta_psi < 0:
            raise ParameterError("weak-convexity moduli must be nonnegative")
        for name in ("mu_phi", "mu_psi"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ParameterError(f"{name} must be positive when present")
        for name in ("l_phi_yx", "l_psi_zx"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ParameterError(f"{name} must be nonnegative when present")
        if not self.m_bound > 0:
            raise ParameterError("m_bound must be positive")


@dataclass(frozen=True)
class FunctionOracle:
    """Deterministic access to a scalar function for prox computations.

    Parameters
    ----------
    value, subgrad:
        Full (deterministic) function value and one subgradient.
    delta:
        Weak-convexity modulus (0 for convex functions).
    differentiable:
        Whether ``subgrad`` is an actual gradient everywhere; controls how
        prox residuals are certified.
    prox:
        Optional closed-form proximal map ``(x, gamma) -> argmin``.
    kink_gap:
        Optional ``(x, gamma) -> distance`` from ``x`` to the nearest point
        where the Moreau envelope loses second-order smoothness.  Used by
        finite-difference checks to stay away from kinks.
    """

    value: Callable[[np.ndarray], float]
    subgrad: Callable[[np.ndarray], np.ndarray]
    delta: float = 0.0
    differentiable: bool = False
    prox: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    kink_gap: Optional[Callable[[np.ndarray, float], float]] = None


# A point ``(dim,)``, or a stack ``(S, dim)`` of points, one per row.
Points = np.ndarray


def _each_row(f, x: Points):
    """``f`` of one point, or of each row of a stack as an ``(S,)`` array:
    for maps that cost a full data pass per point anyway."""
    if np.ndim(x) == 2:
        return np.array([f(row) for row in x], dtype=np.float64)
    return f(x)


@dataclass(frozen=True)
class ExactAux:
    """Closed-form auxiliary oracles a test problem may register.

    All fields are optional callables; anything present is trusted to be
    exact and is preferred over iterative computation by the verification
    paths (prox points, best responses, component values).

    The prox and best-response maps take a point ``(dim,)`` or a stack
    ``(S, dim)`` and return a point, or a stack with one row per input row.
    Each row of a stack must equal, bit for bit, the map of that row alone:
    runs trace all their seeds with one call.  The value maps take a point.
    """

    prox_phi: Optional[Callable[[Points, float], Points]] = None
    prox_psi: Optional[Callable[[Points, float], Points]] = None
    best_response_y: Optional[Callable[[Points], Points]] = None
    best_response_z: Optional[Callable[[Points], Points]] = None
    value_phi: Optional[Callable[[np.ndarray], float]] = None
    value_psi: Optional[Callable[[np.ndarray], float]] = None


# Stochastic oracle signature: (x, dual_or_None, token) -> vector, or an
# object with the batched ``sample``/``grad`` form (see DMaxProblem).
StochOracle = Callable[[np.ndarray, Optional[np.ndarray], int], np.ndarray]


@dataclass
class DMaxProblem:
    """A difference-of-max problem ``F(x) = Phi(x) - Psi(x)``.

    ``Phi(x) = max_y phi(x, y)`` and ``Psi(x) = max_z psi(x, z)``; either
    max may be degenerate (no dual variable), which covers plain
    difference-of-weakly-convex objectives and weakly-convex/strongly-concave
    min-max problems as special cases.

    The four stochastic oracles take ``(x, dual, token)`` and return an
    unbiased (sub)gradient realized deterministically from the token.
    Runs call every oracle in a batched form, which an oracle may provide
    itself: ``sample(tokens)`` returns one batch row per token (or
    ``None`` when ``grad`` needs no batch), and ``grad(x, dual, batch)``
    takes ``(S, dim)`` stacks of points and of duals (``None`` without a
    dual), one batch row each, and returns one value row per point, each
    equal bit for bit to its value alone.  A plain callable is fed its
    tokens as the batch and called once per row.
    ``full_objective`` and the maps of ``exact_aux`` take one point or an
    ``(S, dim)`` stack of them (see :class:`ExactAux`).

    A problem carries only the parts it has.  A component without an inner
    max has no dual: ``phi_grad_y``, ``set_y`` and
    ``exact_aux.best_response_y`` are ``None`` (likewise the ``z`` parts
    for Psi), and runs neither step nor trace it.  Without a second
    component ``psi_subgrad_x`` is ``None`` too, and only minmax mode runs.
    """

    dim_x: int
    constants: ProblemConstants
    phi_subgrad_x: StochOracle
    phi_grad_y: Optional[StochOracle] = None
    psi_subgrad_x: Optional[StochOracle] = None
    psi_grad_z: Optional[StochOracle] = None
    set_y: Optional[ConstraintSet] = None
    set_z: Optional[ConstraintSet] = None
    exact_aux: Optional[ExactAux] = None
    # Deterministic component functions Phi / Psi (of x alone), when available.
    phi_fn: Optional[FunctionOracle] = None
    psi_fn: Optional[FunctionOracle] = None
    # Full-data objective F(x) for traces, when computable at reasonable
    # cost: a float for a point ``(dim,)``, an ``(S,)`` array for a stack
    # ``(S, dim)``, each entry equal bit for bit to F of its row alone.
    full_objective: Optional[Callable[[Points], "float | np.ndarray"]] = None
    # Traces record it; a ``/N`` suffix versions a change of outputs.
    name: str = ""

    @property
    def dim_y(self) -> int:
        return self.set_y.dim if self.set_y is not None else 0

    @property
    def dim_z(self) -> int:
        return self.set_z.dim if self.set_z is not None else 0


# ---------------------------------------------------------------------------
# Trace rows
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class RunRecord:
    """One trace row emitted by a run.

    ``objective`` and ``p_t`` are NaN when the problem cannot supply them
    (no full objective / no exact auxiliaries); the CSV layer writes NaN as
    an empty field.  ``stationarity`` is the exact envelope-gradient norm
    on problems with exact auxiliaries and the algorithm's own gradient
    estimate norm otherwise; the harness records which one applies in the
    trace metadata.
    """

    t: int
    objective: float
    stationarity: float
    p_t: float
    elapsed_ms: float
    seed: int
