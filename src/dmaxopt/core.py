"""Shared domain types: vectors, constraint sets, seeded randomness, problems.

Everything downstream (envelope machinery, the optimizer, the experiment
harness) builds on the small vocabulary defined here.  Vectors are plain
1-D ``numpy`` arrays of ``float64``; the helpers below only add validation
at module boundaries.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, fields
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


# numpy's clip ufunc and C count_nonzero, which ``np.clip`` and
# ``np.count_nonzero`` reach through Python-level wrappers.
_clip, _count_nonzero = np._core.umath.clip, np._core.multiarray.count_nonzero


def _finite(v: np.ndarray) -> bool:
    """Whether every entry of ``v`` is finite.  Same answer as
    ``np.isfinite(v).all()`` with no Python-level wrapper on the way to C,
    and unlike a sum of squares it sets no overflow flag on large finite
    entries."""
    ok = np.isfinite(v)
    return _count_nonzero(ok) == ok.size


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


def project(cset: ConstraintSet, v) -> np.ndarray:
    """Euclidean projection of ``v`` onto ``cset``.

    Idempotent and 1-Lipschitz; the result always lies in the set.  ``v``
    may also be an ``(S, dim)`` stack of points: each row of the result
    equals, bit for bit, the projection of that row alone.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 2 and v.shape[1] == cset.dim:
        check_finite(v, "point")
    elif v.ndim > 1:
        raise DimensionError(f"point must have shape ({cset.dim},) or "
                             f"(S, {cset.dim}), got shape {v.shape}")
    else:
        v = as_vector(v, dim=cset.dim, name="point")
    if cset.kind == "whole-space":
        return v
    if cset.kind == "box":
        return _clip(v, cset.lo, cset.hi)
    if cset.kind == "ball":
        rows = v.reshape(-1, cset.dim)
        u = rows - cset.center
        # the norm np.linalg.norm gives a row: sqrt(u.dot(u)), one dot per row
        nrm = np.sqrt(np.vecdot(u, u))
        far = nrm > cset.radius
        if not np.count_nonzero(far):
            return v
        out = rows.copy()
        out[far] = cset.center + u[far] * (cset.radius / nrm[far])[:, None]
        return out.reshape(v.shape)
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
    Runs draw a chunk of tokens per seed at a time; a run that replays a
    seed first returns its stream to its start (``_tell``, ``_seek``).
    """

    def __init__(self, seed: int, stream_id: int = 0):
        # a Philox key word holds 64 bits: 2**64 would alias key 0
        if not (0 <= seed < 2 ** 64 and 0 <= stream_id < 2 ** 64):
            raise ParameterError(
                "seed and stream_id must be nonnegative and below 2**64")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = token_generator(self.seed, self.stream_id)
        self.counter = 0

    def draw(self) -> int:
        """Return the next 64-bit sample token."""
        return int(self.draw_many(1)[0])

    def draw_many(self, n: int) -> np.ndarray:
        """Return the next ``n`` tokens (identical to ``n`` single draws)."""
        n = int(n)
        if n < 0:
            raise ParameterError("cannot draw a negative number of tokens")
        self.counter += n
        return self._gen.integers(0, 2 ** 64, size=n, dtype=np.uint64)

    def _tell(self):
        """The stream's position, for :meth:`_seek`."""
        return self._gen.bit_generator.state, self.counter

    def _seek(self, pos, skip: int = 0) -> None:
        """Return the stream to ``pos`` from :meth:`_tell`, then pass over
        ``skip`` tokens as ``draw_many(skip)`` would."""
        self._gen.bit_generator.state, self.counter = pos
        self.draw_many(skip)

    def integers(self, low: int, high: int) -> int:
        """Draw one integer uniformly from ``[low, high)``, advancing the stream."""
        self.counter += 1
        return int(self._gen.integers(low, high))

    def child(self, tag: int) -> "RngStream":
        """Derive an independent stream; deterministic in ``(seed, stream_id, tag)``."""
        return RngStream(self.seed, _mix64(self.stream_id, tag))

    def __repr__(self):  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, counter={self.counter})"


def token_generator(token: int, salt: int = _TOKEN_SALT) -> np.random.Generator:
    """Deterministic generator for realizing one sample token.

    Every oracle call receives a fresh token and derives its mini-batch
    indices or noise through this map, so a trace is reproducible from the
    seed alone.  The result is ``Generator(Philox(key=[token, salt]))``
    (token map v1).  A Philox key word holds 64 bits, so a token or salt
    outside ``[0, 2**64)`` raises :class:`ParameterError`.
    """
    token, salt = int(token), int(salt)
    if not (0 <= token < 2 ** 64 and 0 <= salt < 2 ** 64):
        raise ParameterError(
            "token and salt must be nonnegative and below 2**64")
    return np.random.Generator(np.random.Philox(
        key=np.array([token, salt], dtype=np.uint64)))


# Philox4x64-10 multipliers and key increments (Salmon et al., "Parallel
# Random Numbers: As Easy as 1, 2, 3", SC 2011).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_zig = None  # numpy's ziggurat tables (wi, ki), read on first use
# Tokens from which one ``_normals`` or ``_indices`` call realizes its
# draws in bulk.  A bulk call pays about 0.25 ms of ``_philox_words`` setup,
# ``_scalar_rows`` 1.7 us per token of normals and 12 us per token of two
# index draws of 64: normals break even at 150-250 tokens (d = 1 to 10),
# index draws near 24 (2 CPUs, numpy 2.4).  A run refills at least 1024
# tokens per oracle unless its steps times seeds are fewer, so one cutoff
# serves both.  Above ``_BULK_MAX_D`` draws per token bulk normals lose at
# any token count: their Philox words grow with d, and a token with a
# rejection in any of its d draws (1 - 0.985 ** d of them) is realized
# again per token.  Median of 15 calls on 1024 tokens, same box:
#     d            10     20     28     37     50     100
#     bulk (ms)    1.07   1.70   2.37   3.09   4.61   9.02
#     scalar (ms)  1.83   2.05   2.19   2.38   2.49   3.37
# Bulk index draws take their words in blocks of at most ``_BLOCK_WORDS``:
# a block's temporaries set the process's peak memory (on pAUC refills,
# 2**16 words read 2 MB above per-token draws, 2**14 words 0.3 MB).
_BULK = 128
_BULK_MAX_D = 28
_BLOCK_WORDS = 2 ** 14


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


def _scalar_rows(out: np.ndarray, keys: np.ndarray, rows, draw) -> None:
    """Set ``out[i]`` to ``draw(token_generator(keys[i]))`` for each ``i``
    of ``rows``: one Philox per call, reset to each token's key with
    counter 0 and empty buffers, draws what a fresh one would."""
    bg = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bg)
    state = {"bit_generator": "Philox",
             "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for i in rows:
        state["state"]["key"] = (int(keys[i]), _TOKEN_SALT)
        bg.state = state
        out[i] = draw(gen)


def _normals(tokens, d: int) -> np.ndarray:
    """``token_generator(t).standard_normal(d)`` for every token ``t``,
    stacked as an ``(n, d)`` array, bit for bit.

    Each draw of numpy's ziggurat (Marsaglia & Tsang, J. Stat. Softw.
    2000) reads one raw Philox word and returns ``+-rabs * wi[idx]`` when
    ``rabs < ki[idx]``.  That fast path is realized here for all tokens at
    once; a token with a rejection in any of its ``d`` draws, and every
    token of a call with fewer than ``_BULK`` of them or with ``d`` above
    ``_BULK_MAX_D``, is realized whole by :func:`_scalar_rows`.
    """
    global _zig
    keys = np.asarray(tokens, dtype=np.uint64).reshape(-1)
    if keys.size < _BULK or d > _BULK_MAX_D:
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
        scalar = np.flatnonzero(~(rabs < ki[idx]).all(axis=1))
    _scalar_rows(out, keys, scalar, lambda gen: gen.standard_normal(d))
    return out


def _indices(tokens, draws) -> np.ndarray:
    """``token_generator(t).integers(0, n, size=b)`` for each ``(n, b)`` of
    ``draws`` in order, concatenated, for every token ``t``: stacked as an
    ``(n_tokens, sum of b)`` array of the narrowest unsigned dtype that
    holds them, bit for bit.

    For ``n`` below ``2**32`` numpy draws ``integers(0, n)`` by Lemire's
    method (ACM TOMACS 2019) on 32-bit halves of the raw Philox words, low
    half first: ``m = u * n`` gives ``m >> 32`` unless ``m mod 2**32`` falls
    below a threshold under ``n``, which redraws.  A bound of 1 reads no
    words.  The words of all tokens come from :func:`_philox_words`, and
    their draws are realized at once.  A token with some
    ``m mod 2**32 < n``, and every token of a call with fewer than
    ``_BULK`` of them or a bound of ``2**32`` or more, is realized by
    :func:`_scalar_rows`.
    """
    keys = np.asarray(tokens, dtype=np.uint64).reshape(-1)
    top = max(n for n, _ in draws)
    # the narrowest dtype that holds every index: a chunk's batches stay
    # small, and a grad call widens one step's rows at once
    out = np.empty((keys.size, sum(b for _, b in draws)),
                   np.min_scalar_type(top - 1) if top <= 2 ** 32
                   else np.int64)
    if keys.size < _BULK or top >= 2 ** 32:
        scalar = range(keys.size)
    else:
        scalar = []
        halves = sum(b for n, b in draws if n > 1)
        words = -(-halves // 2)
        step = max(1, _BLOCK_WORDS // max(1, words))
        for lo in range(0, keys.size, step):
            raw = _philox_words(keys[lo:lo + step], -(-words // 4))
            u = np.stack((raw & _LOW32, raw >> _S32), axis=2).reshape(
                len(raw), -1)
            rows, pos = out[lo:lo + step], 0
            reject = np.zeros(len(rows), dtype=bool)
            for n, b in draws:
                if n > 1:
                    m = u[:, :b] * np.uint64(n)
                    reject |= ((m & _LOW32) < np.uint64(n)).any(axis=1)
                    rows[:, pos:pos + b] = m >> _S32
                    u = u[:, b:]
                else:
                    rows[:, pos:pos + b] = 0
                pos += b
            scalar += (lo + np.flatnonzero(reject)).tolist()
    _scalar_rows(out, keys, scalar, lambda gen: np.concatenate(
        [gen.integers(0, n, size=b) for n, b in draws]))
    return out


class _IndexOracle:
    """A data oracle whose sample for token ``t`` is
    ``token_generator(t).integers(0, n, size=b)`` for each ``(n, b)`` of
    ``draws``, in order, and whose value of length ``dim`` is
    ``row(x, dual, idx)``, ``idx`` holding one index array per draw.

    Called as ``(x, dual, token)`` or in the batched form of
    :class:`DMaxProblem`, whose batch is the tokens' indices realized in
    bulk by :func:`_indices`; both give the same bits.  The plain call
    draws through the ``token_generator`` of the module that defines
    ``row``, so that a rebinding of that name is seen.
    """

    def __init__(self, draws: tuple, dim: int, row):
        self.draws, self.dim, self.row = draws, dim, row
        ends = list(itertools.accumulate(b for _, b in draws))
        self._cuts = [slice(a, b) for a, b in zip([0] + ends, ends)]

    def __call__(self, x, dual, token):
        draw = sys.modules[self.row.__module__].token_generator(
            int(token)).integers
        return self.row(x, dual, [draw(0, n, size=b) for n, b in self.draws])

    def sample(self, tokens) -> np.ndarray:
        return _indices(tokens, self.draws)

    def grad(self, x, dual, batch):
        out = np.empty((batch.shape[0], self.dim))
        duals = [None] * len(out) if dual is None else dual
        batch = batch.astype(np.intp)
        idx = zip(*[batch[:, c] for c in self._cuts])
        for row, xr, dr, ix in zip(out, x, duals, idx):
            row[:] = self.row(xr, dr, ix)
        return out


class _PerToken:
    """A plain ``(x, dual, token)`` oracle in batched form: a batch is its
    tokens (an ``(S, 1)`` column in ``grad``), and ``grad`` calls the
    oracle once per row and returns the list of its values."""

    def __init__(self, oracle):
        self.oracle = oracle

    def sample(self, tokens):
        return tokens

    def grad(self, x, dual, tokens):
        duals = [None] * len(x) if dual is None else dual
        return [self.oracle(x[j], duals[j], tok)
                for j, tok in enumerate(tokens[:, 0].tolist())]


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
    The maps it registers decide what reads them: runs trace exact
    metrics from ``exact_aux`` (see :func:`dmaxopt.smag.run`), and the
    envelope quantities of :mod:`dmaxopt.moreau` read each component's
    prox and value maps from ``exact_aux``, else from ``phi_fn``/``psi_fn``.
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


# ---------------------------------------------------------------------------
# Trace rows
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class RunRecord:
    """One trace row emitted by a run.

    ``objective`` and ``p_t`` are NaN when the problem cannot supply them
    (no full objective / no exact best responses); the CSV layer writes NaN
    as an empty field.  ``stationarity`` is the exact envelope-gradient
    norm when the problem's ``exact_aux`` has the prox map of each
    component the run steps, and the norm of the algorithm's own gradient
    estimate otherwise; the harness records which one applies in the
    trace metadata.
    """

    t: int
    objective: float
    stationarity: float
    p_t: float
    elapsed_ms: float
    seed: int
