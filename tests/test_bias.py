"""Tests for the Monte-Carlo oracle unbiasedness checker."""

import numpy as np
import pytest

from dmaxopt.core import ParameterError, token_generator
from dmaxopt.problems import oracle_bias_report

X = np.zeros(1)


def test_unbiased_noisy_oracle_passes():
    ref = np.array([1.0, -2.0])

    def oracle(x, dual, token):
        return ref + 0.5 * token_generator(token).standard_normal(2)

    rep = oracle_bias_report(oracle, X, None, ref, n=5000)
    assert rep.passed
    assert rep.worst_sigmas <= 3.0
    assert rep.constant_ok
    assert np.allclose(rep.mean, ref, atol=0.1)


def test_biased_oracle_fails():
    ref = np.array([1.0, -2.0])

    def oracle(x, dual, token):
        shifted = ref + np.array([0.3, 0.0])
        return shifted + 0.05 * token_generator(token).standard_normal(2)

    rep = oracle_bias_report(oracle, X, None, ref, n=2000)
    assert not rep.passed
    assert rep.worst_sigmas > 3.0


def test_constant_component_requires_exact_equality():
    ref = np.array([0.25, 1.0])

    def mixed(x, dual, token):
        g = token_generator(token).standard_normal(1)
        return np.array([0.25, 1.0 + 0.1 * float(g[0])])

    rep = oracle_bias_report(mixed, X, None, ref, n=500)
    assert rep.passed and rep.constant_ok

    def off_constant(x, dual, token):
        return np.array([0.25 + 1e-14, 1.0])

    rep2 = oracle_bias_report(off_constant, X, None, ref, n=10)
    assert not rep2.passed and not rep2.constant_ok


def test_the_oracle_sees_the_point_and_the_dual():
    seen = []

    def oracle(x, dual, token):
        seen.append((x.tolist(), dual.tolist(), token))
        return x - dual

    rep = oracle_bias_report(oracle, [3.0, 1.0], [1.0, 0.5],
                             np.array([2.0, 0.5]), n=3)
    assert rep.passed and rep.constant_ok
    assert seen == [([3.0, 1.0], [1.0, 0.5], t) for t in range(3)]


def test_validation_errors():
    ref = np.array([1.0])

    def same(x, dual, token):
        return ref

    with pytest.raises(ParameterError):
        oracle_bias_report(same, X, None, ref, n=1)
    with pytest.raises(ParameterError):
        oracle_bias_report(same, X, None, ref, z=0.0)
    with pytest.raises(ParameterError):
        oracle_bias_report(lambda x, dual, t: np.zeros(3), X, None, ref,
                           n=5)
    with pytest.raises(ParameterError):
        oracle_bias_report(same, X, None, np.zeros((2, 2)), n=5)
