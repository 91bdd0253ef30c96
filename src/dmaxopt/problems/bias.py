"""Monte-Carlo unbiasedness checks for stochastic oracles.

Every oracle in this package is a deterministic function of its sampling
token, so averaging over ``token = 0 .. n-1`` is a reproducible
experiment: for a fixed oracle, evaluation point, and ``n``, the check
either always passes or always fails.
"""

from dataclasses import dataclass

import numpy as np

from ..core import ParameterError, _PerToken

__all__ = ["BiasReport", "oracle_bias_report"]

# Tokens per batched oracle call
_CHUNK = 1024


@dataclass(frozen=True)
class BiasReport:
    """Componentwise comparison of a token-averaged oracle to its mean.

    ``worst_sigmas`` is the largest ``|mean - ref| / se`` over components
    whose samples actually varied; components that never varied are held
    to exact equality instead (``constant_ok``).
    """

    mean: np.ndarray
    se: np.ndarray
    ref: np.ndarray
    worst_sigmas: float
    constant_ok: bool
    passed: bool


def oracle_bias_report(oracle, x, dual, ref, n: int = 100_000,
                       z: float = 3.0) -> BiasReport:
    """Average ``oracle(x, dual, token)`` over the ``n`` tokens
    ``0 .. n-1`` and test it against the deterministic reference ``ref``.

    ``oracle`` is one of a problem's stochastic oracles: it runs in the
    batched form of :class:`~dmaxopt.core.DMaxProblem` on chunks of
    tokens, a plain callable once per token, and ``dual`` may be ``None``.
    A component whose draws never vary must equal the reference exactly
    (no sampling error to hide behind); every varying component must land
    within ``z`` standard errors of ``ref``.
    """
    ref = np.asarray(ref, dtype=np.float64)
    if ref.ndim != 1:
        raise ParameterError("ref must be a vector")
    if n < 2:
        raise ParameterError("n must be >= 2")
    if z <= 0:
        raise ParameterError("z must be positive")
    if not hasattr(oracle, "grad"):
        oracle = _PerToken(oracle)
    x = np.asarray(x, dtype=np.float64)
    dual = None if dual is None else np.asarray(dual, dtype=np.float64)
    total = np.zeros_like(ref)
    total_sq = np.zeros_like(ref)
    lo = np.full_like(ref, np.inf)
    hi = np.full_like(ref, -np.inf)
    for start in range(0, n, _CHUNK):
        tokens = np.arange(start, min(n, start + _CHUNK), dtype=np.uint64)
        k = tokens.size
        batch = oracle.sample(tokens)
        g = np.asarray(oracle.grad(
            np.broadcast_to(x, (k, x.size)),
            None if dual is None else np.broadcast_to(dual, (k, dual.size)),
            None if batch is None else batch.reshape(k, -1)),
            dtype=np.float64)
        if g.shape != (k,) + ref.shape:
            raise ParameterError(
                f"oracle returned shape {g.shape[1:]}, expected {ref.shape}")
        # accumulate adds the rows in token order, as one token at a time
        # would; a reduce down a single column would sum pairwise
        total = np.add.accumulate(np.vstack([total, g]))[-1]
        total_sq = np.add.accumulate(np.vstack([total_sq, g * g]))[-1]
        np.minimum(lo, g.min(axis=0), out=lo)
        np.maximum(hi, g.max(axis=0), out=hi)
    mean = total / n
    var = np.maximum(total_sq / n - mean * mean, 0.0)
    se = np.sqrt(var / n)
    # min == max detects constancy without accumulated-rounding artifacts
    constant = lo == hi
    constant_ok = bool(np.array_equal(lo[constant], ref[constant]))
    varying = ~constant
    diff = np.abs(mean - ref)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigmas = np.where(diff == 0.0, 0.0, diff / se)
    worst = float(np.max(sigmas[varying])) if varying.any() else 0.0
    return BiasReport(mean=mean, se=se, ref=ref, worst_sigmas=worst,
                      constant_ok=constant_ok,
                      passed=constant_ok and worst <= z)
