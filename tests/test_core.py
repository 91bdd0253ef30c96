import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import dmaxopt
import dmaxopt.core as core
from dmaxopt.core import (
    _TOKEN_SALT,
    ConstraintSet,
    DMaxProblem,
    DimensionError,
    NonFiniteError,
    ParameterError,
    ProblemConstants,
    RngStream,
    _finite,
    _indices,
    _normals,
    _philox_words,
    as_vector,
    ball,
    box,
    check_finite,
    contains,
    project,
    token_generator,
    whole_space,
)
from dmaxopt.problems.pu import _DATA_SALT
from dmaxopt.smag import Schedule, run


# ---------------------------------------------------------------------------
# vectors


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_keep_their_error_and_message(bad):
    for v in ([bad], [1.0, bad, -2.0]):
        assert not _finite(np.array(v))
        with pytest.raises(NonFiniteError,
                           match=r"^x0 contains non-finite entries$"):
            as_vector(v, name="x0")
        with pytest.raises(NonFiniteError,
                           match=r"^prox point contains non-finite entries$"):
            check_finite(np.array(v), "prox point")
        n = len(v)
        for cset in (whole_space(n), box(-np.ones(n), np.ones(n)),
                     ball(np.zeros(n), 1.0)):
            with pytest.raises(NonFiniteError,
                               match=r"^point contains non-finite entries$"):
                project(cset, v)


@pytest.mark.parametrize("shape", ["1-D", "2-D"])
@pytest.mark.parametrize("values", [
    [], [0.0, -0.0], [5e-324, -2.2e-308], [1e308, -1e308], [1.0, math.inf],
    [-math.inf, 1.0], [0.0, math.nan]],
    ids=["empty", "zeros", "subnormal", "big", "+inf", "-inf", "nan"])
def test_finite_agrees_with_isfinite_all(values, shape):
    v = np.array(values, dtype=np.float64)
    if shape == "2-D":
        v = np.stack([np.zeros_like(v), v])  # the test values in row 2
    assert bool(_finite(v)) == bool(np.isfinite(v).all())
    assert bool(_finite(v)) == all(math.isfinite(e) for e in values)


def test_large_finite_entries_pass_without_a_floating_point_flag():
    # squares of these overflow, so a sum-of-squares test would flag them
    big = [1e200, -1.7e308, 1e-300]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert _finite(np.array(big))
        assert _finite(np.empty(0))
        assert _finite(np.array([0.0]))
        assert as_vector(big).tolist() == big
        assert as_vector([]).shape == (0,)
        assert check_finite(np.array(big)) is not None
        assert project(whole_space(3), big).tolist() == big
        assert project(box(-np.ones(3), np.ones(3)), big).tolist() == \
            [1.0, -1.0, 1e-300]


def test_as_vector_coerces_scalars_and_lists():
    v = as_vector(3.5)
    assert v.shape == (1,) and v.dtype == np.float64
    v = as_vector([1, 2, 3], dim=3)
    assert v.tolist() == [1.0, 2.0, 3.0]


def test_as_vector_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(DimensionError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(DimensionError):
        as_vector([1.0, 2.0], dim=3)
    with pytest.raises(NonFiniteError):
        as_vector([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        as_vector([np.inf])


# ---------------------------------------------------------------------------
# constraint sets


def test_project_box_frozen():
    cset = box([-1.0, 0.0], [1.0, 2.0])
    out = project(cset, [2.0, -3.0])
    assert out.tolist() == [1.0, 0.0]
    assert contains(cset, out)


def test_project_ball_frozen():
    cset = ball([0.0, 0.0], 1.0)
    out = project(cset, [3.0, 4.0])
    # 5-norm point scaled onto the unit sphere
    assert np.allclose(out, [0.6, 0.8], atol=1e-15)
    inside = project(cset, [0.1, -0.2])
    assert inside.tolist() == [0.1, -0.2]


def test_whole_space_projection_is_identity():
    cset = whole_space(4)
    v = np.array([1.0, -2.0, 3.0, 0.0])
    assert project(cset, v).tolist() == v.tolist()
    assert cset.kind == "whole-space"
    with pytest.raises(ParameterError, match="dimension must be >= 1"):
        whole_space(0)


def test_projection_properties_random():
    # idempotency, membership, and 1-Lipschitz continuity on random data
    rng = np.random.default_rng(42)
    sets = [
        box(-np.ones(5), np.ones(5)),
        ball(rng.normal(size=5), 2.0),
        whole_space(5),
    ]
    for cset in sets:
        for _ in range(50):
            u = rng.normal(scale=3.0, size=5)
            v = rng.normal(scale=3.0, size=5)
            pu, pv = project(cset, u), project(cset, v)
            assert contains(cset, pu)
            assert np.allclose(project(cset, pu), pu, atol=1e-12)
            assert (np.linalg.norm(pu - pv)
                    <= np.linalg.norm(u - v) + 1e-12)


def _bits(v):
    return np.ascontiguousarray(v, dtype=np.float64).view(np.uint64)


def test_box_projection_keeps_np_clip_bits():
    zeros = [0.0, -0.0]
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -1.5]
    for lo in zeros:
        for hi in zeros + [1.0]:
            if hi < lo:
                continue
            cset = box([lo] * len(special), [hi] * len(special))
            # the clip ufunc project calls, on every special input
            v = np.array(special)
            assert np.array_equal(_bits(core._clip(v, cset.lo, cset.hi)),
                                  _bits(np.clip(v, cset.lo, cset.hi)))
            # project itself, on the finite inputs, one point and a stack
            fin = np.array([0.0, -0.0, 1.5, -1.5, 0.25, -0.25, 3.0])
            want = _bits(np.clip(fin, cset.lo, cset.hi))
            assert np.array_equal(_bits(project(cset, fin)), want)
            stack = np.stack([fin, fin[::-1]])
            assert np.array_equal(
                _bits(project(cset, stack)),
                _bits(np.clip(stack, cset.lo, cset.hi)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_projecting_a_non_finite_point_or_stack_raises(bad):
    cset = box([-1.0, -1.0], [1.0, 1.0])
    for v in ([bad, 0.0], [[0.0, 0.5], [0.0, bad]]):
        with pytest.raises(NonFiniteError,
                           match=r"^point contains non-finite entries$"):
            project(cset, v)
    with pytest.raises(DimensionError):
        project(cset, np.zeros((2, 3)))


def test_a_point_of_the_wrong_shape_names_the_shapes_project_accepts():
    cset = ball(np.zeros(3), 1.0)
    for v in (np.ones((4, 2)), np.ones((1, 4)), np.ones((2, 2, 3))):
        with pytest.raises(DimensionError, match=re.escape(
                f"point must have shape (3,) or (S, 3), got shape {v.shape}")):
            project(cset, v)
    with pytest.raises(DimensionError,
                       match=r"^point has length 2, expected 3$"):
        project(cset, np.ones(2))


def test_projection_of_a_stack_is_row_by_row():
    rng = np.random.default_rng(5)
    for cset in (box(-np.ones(4), np.ones(4)), ball(rng.normal(size=4), 1.5),
                 whole_space(4)):
        stack = rng.normal(scale=3.0, size=(6, 4))
        rows = np.stack([project(cset, r) for r in stack])
        assert np.array_equal(_bits(project(cset, stack)), _bits(rows))
        assert project(cset, stack[:0]).shape == (0, 4)


def _ball_row(center, radius, r):
    # one point's projection, with the norm np.linalg.norm gives
    nrm = float(np.linalg.norm(r - center))
    return r if nrm <= radius else center + (r - center) * (radius / nrm)


def test_ball_projection_of_a_stack_keeps_each_rows_bits():
    # rows inside, exactly on the sphere (a 3-4-5 offset), just outside,
    # far outside, at the centre, and one whose squared norm overflows
    cset = ball([0.5, -1.0, 2.0], 5.0)
    c = cset.center
    rng = np.random.default_rng(12)
    stack = np.concatenate([
        c + rng.normal(scale=0.5, size=(4, 3)),
        c + np.array([[3.0, 4.0, 0.0], [0.0, -3.0, 4.0]]),
        c + np.array([[3.0, 4.0, 1e-6], [0.0, 0.0, -5.000000000000001]]),
        c + rng.normal(scale=40.0, size=(4, 3)),
        c[None],
        [[1e200, 1e200, 0.0]]])
    rng.shuffle(stack)
    with np.errstate(over="ignore"):
        rows = np.stack([project(cset, r) for r in stack])
        got = project(cset, stack)
        keep = np.array([np.linalg.norm(r - c) <= 5.0 for r in stack])
        want = np.stack([_ball_row(c, 5.0, r) for r in stack])
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(rows), _bits(want))
    # a row on or inside the sphere is returned as it came
    assert keep.sum() == 7
    assert np.array_equal(_bits(got[keep]), _bits(stack[keep]))
    assert not np.shares_memory(got, stack)
    # a stack with no row outside
    inside = stack[keep]
    assert np.array_equal(_bits(project(cset, inside)), _bits(inside))
    # a row exactly on a sphere whose centre does not round-trip it,
    # c + (v - c) != v: it must come back unscaled
    c = np.array([-0.006826779865523179, 1.0461432923049026,
                  0.7415884212884828])
    on = np.array([39.950546212680905, -0.8779154508152099,
                   19.835202658568868])
    assert not np.array_equal(c + (on - c), on)
    sphere = ball(c, float(np.linalg.norm(on - c)))
    stack = np.stack([on, c + 0.5, 2.0 * on])
    got = project(sphere, stack)
    assert np.array_equal(_bits(got), _bits(np.stack(
        [_ball_row(c, sphere.radius, r) for r in stack])))
    assert np.array_equal(_bits(got[0]), _bits(on))
    assert np.array_equal(_bits(project(sphere, on)), _bits(on))
    # a 20-dim head, as pAUC's adversary: a reduction along the rows need
    # not round as np.linalg.norm of each row does
    head = ball(np.zeros(20), 1.0)
    stack = rng.normal(scale=2.0, size=(64, 20))
    assert np.array_equal(_bits(project(head, stack)), _bits(np.stack(
        [_ball_row(head.center, 1.0, r) for r in stack])))


def test_box_validation():
    with pytest.raises(ParameterError):
        box([1.0], [0.0])
    with pytest.raises(ParameterError):
        ball([0.0], 0.0)
    with pytest.raises(DimensionError):
        project(box([-1.0], [1.0]), [1.0, 2.0])
    # a set built by hand of a kind neither map knows
    odd = ConstraintSet(kind="simplex", dim=2)
    for op in (project, contains):
        with pytest.raises(ParameterError, match="unknown constraint kind"):
            op(odd, [0.5, 0.5])


# ---------------------------------------------------------------------------
# seeded randomness


def test_rng_stream_is_deterministic():
    a = RngStream(123, 7)
    b = RngStream(123, 7)
    assert [a.draw() for _ in range(5)] == [b.draw() for _ in range(5)]
    assert a.counter == 5


def test_draw_many_matches_sequential_draws():
    a = RngStream(9)
    b = RngStream(9)
    many = a.draw_many(6)
    singles = [b.draw() for _ in range(6)]
    assert many.tolist() == singles


def test_streams_differ_across_keys():
    assert RngStream(1).draw() != RngStream(2).draw()
    assert RngStream(1, 0).draw() != RngStream(1, 1).draw()


def test_child_streams_are_stable_and_distinct():
    parent = RngStream(5)
    c1 = parent.child(1)
    c2 = parent.child(2)
    again = RngStream(5).child(1)
    assert c1.draw() == again.draw()
    assert c1.stream_id != c2.stream_id
    # children do not advance the parent
    assert parent.counter == 0


def test_token_generator_reproducible():
    g1 = token_generator(77)
    g2 = token_generator(77)
    assert np.array_equal(g1.standard_normal(4), g2.standard_normal(4))
    # different salts decouple the streams
    g3 = token_generator(77, salt=0xBEEF)
    assert not np.array_equal(token_generator(77).standard_normal(4),
                              g3.standard_normal(4))


def _fresh_philox(a, b):
    return np.random.Generator(np.random.Philox(
        key=np.array([a, b], dtype=np.uint64)))


def _single_tokens(ref, n):
    """One generator call per token: what ``n`` single draws give."""
    return [int(ref.integers(0, 2 ** 64, dtype=np.uint64)) for _ in range(n)]


def test_prefetched_tokens_match_single_draws_across_blocks():
    # draws of mixed sizes, interleaved with ``integers``, read the same
    # tokens as one generator call per token
    a = RngStream(9, 4)
    ref = _fresh_philox(9, 4)
    drawn = 0
    for i in range(700):
        assert a.draw_many(4).tolist() == _single_tokens(ref, 4)
        drawn += 4
        if i % 50 == 7:
            assert a.draw() == _single_tokens(ref, 1)[0]
            drawn += 1
        if i % 170 == 3:  # shifts the token position off the 4-grid
            assert a.draw_many(3).tolist() == _single_tokens(ref, 3)
            drawn += 3
        if i % 230 == 11:  # ``integers`` between token draws
            assert a.integers(0, 1000) == int(ref.integers(0, 1000))
            drawn += 1
        assert a.counter == drawn
    assert a.draw_many(2500).tolist() == _single_tokens(ref, 2500)
    assert a.draw_many(0).tolist() == []
    assert a.counter == drawn + 2500
    assert a.integers(5, 10 ** 9) == int(ref.integers(5, 10 ** 9))
    assert a.draw() == _single_tokens(ref, 1)[0]


def test_stream_position_after_a_run_aborted_mid_block():
    # phi goes NaN on the phi token of step 300
    bad = int(RngStream(3).draw_many(4 * 300)[4 * 299])

    def phi(xv, y, tok):
        return np.array([math.nan]) if tok == bad else np.ones(1)

    prob = DMaxProblem(
        dim_x=1,
        constants=ProblemConstants(m_bound=1.0),
        phi_subgrad_x=phi,
        psi_subgrad_x=lambda x, z, tok: np.zeros(1),
    )
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 1000, prob.constants,
                                 mode="dwc")
    rng = RngStream(3)
    res = run(prob, "dwc", sched, rng, trace_every=100)
    assert res.aborted and res.final_state.t == 299
    # 300 steps drew their four tokens: the attempt drew a chunk of
    # 4 * 1000, and the replay left the stream past the 300 steps taken
    assert rng.counter == 4 * 300
    ref = _fresh_philox(3, 0)
    _single_tokens(ref, 4 * 300)
    assert rng.integers(0, 10 ** 6) == int(ref.integers(0, 10 ** 6))
    assert rng.draw() == _single_tokens(ref, 1)[0]
    assert rng.counter == 4 * 300 + 2


@pytest.mark.parametrize("n", [1, 5, 3000])
@pytest.mark.parametrize("integers_first", [False, True])
def test_put_back_leaves_the_stream_where_fewer_draws_would(n,
                                                            integers_first):
    # a replay returns a stream to its start and passes over the tokens
    # of the steps it took: n drawn, k of them put back
    for k in sorted({0, 1, n - 1, n}):
        a, b = RngStream(21, 2), RngStream(21, 2)
        if integers_first:
            assert a.integers(0, 10 ** 9) == b.integers(0, 10 ** 9)
        start = a._tell()
        assert a.draw_many(n)[:n - k].tolist() == b.draw_many(n - k).tolist()
        a._seek(start, n - k)
        assert a.counter == b.counter
        assert a.draw_many(7).tolist() == b.draw_many(7).tolist()
        assert a.draw() == b.draw()
        assert a.integers(0, 10 ** 9) == b.integers(0, 10 ** 9)


def _same_draws(gen, ref):
    assert np.array_equal(gen.standard_normal(5).view(np.uint64),
                          ref.standard_normal(5).view(np.uint64))
    # float32 draws go through the bit generator's 32-bit half buffer
    assert np.array_equal(gen.random(3, dtype=np.float32).view(np.uint32),
                          ref.random(3, dtype=np.float32).view(np.uint32))
    assert gen.integers(0, 37, size=6).tolist() == \
        ref.integers(0, 37, size=6).tolist()
    assert int(gen.integers(0, 2 ** 31, dtype=np.uint32)) == \
        int(ref.integers(0, 2 ** 31, dtype=np.uint32))


def test_token_generator_is_token_map_v1():
    """Token map v1: ``token_generator(t, salt)`` draws what a fresh
    ``Philox(key=[t, salt])`` draws."""
    for salt in (_TOKEN_SALT, _DATA_SALT):
        for token in (0, 1, 2 ** 63, 2 ** 64 - 1):
            _same_draws(token_generator(token, salt),
                        _fresh_philox(token, salt))


def test_token_generator_refuses_keys_outside_64_bits():
    # -1 would otherwise wrap to 2**64 - 1, and 2**64 to 0
    for token, salt in ((-1, _TOKEN_SALT), (2 ** 64, _TOKEN_SALT),
                        (0, -1), (0, 2 ** 64)):
        with pytest.raises(ParameterError, match="below 2\\*\\*64"):
            token_generator(token, salt)
    _same_draws(token_generator(np.uint64(2 ** 64 - 1)),
                _fresh_philox(2 ** 64 - 1, _TOKEN_SALT))


def test_token_generators_held_together_stay_independent():
    a = token_generator(11)
    b = token_generator(2 ** 64 - 1, salt=_DATA_SALT)
    ref_a = _fresh_philox(11, _TOKEN_SALT)
    ref_b = _fresh_philox(2 ** 64 - 1, _DATA_SALT)
    for i in range(4):
        _same_draws(a, ref_a)
        # a generator taken and dropped between draws of held ones
        _same_draws(token_generator(100 + i), _fresh_philox(
            100 + i, _TOKEN_SALT))
        _same_draws(b, ref_b)


def test_philox_words_are_numpy_philox_raw_output():
    toks = np.random.default_rng(8).integers(0, 2 ** 64, size=300,
                                              dtype=np.uint64)
    toks[:3] = [0, 1, 2 ** 64 - 1]
    assert np.array_equal(_philox_words(toks, 3)[:, :4],
                          _philox_words(toks, 1))
    for salt in (_TOKEN_SALT, 7):
        words = _philox_words(toks, 3, salt)
        for t, w in zip(toks.tolist(), words):
            bg = np.random.Philox(key=np.array([t, salt], dtype=np.uint64))
            assert bg.random_raw(12).tolist() == w.tolist()


def _count_scalar_rows(monkeypatch) -> list:
    """The tokens that ``_scalar_rows`` realizes from now on, in order."""
    realized = []
    plain = core._scalar_rows

    def counted(out, keys, rows, draw):
        rows = list(rows)
        realized.extend(int(keys[i]) for i in rows)
        plain(out, keys, rows, draw)

    monkeypatch.setattr(core, "_scalar_rows", counted)
    return realized


def _reset_normals(tokens: list, d: int) -> np.ndarray:
    """``token_generator(t).standard_normal(d)`` for each token ``t``, from
    one Philox reset to each token's key (counter 0, empty buffers)."""
    bg = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bg)
    state = {"bit_generator": "Philox",
             "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    rows = []
    for t in tokens:
        state["state"]["key"] = (t, core._TOKEN_SALT)
        bg.state = state
        rows.append(gen.standard_normal(d))
    return np.stack(rows)


@pytest.mark.parametrize("d", [1, 10, 27])
def test_bulk_normals_are_token_map_v1(d, monkeypatch):
    """The ziggurat tables are pinned on 1e5 tokens: every bulk normal
    equals ``token_generator(t).standard_normal(d)`` to the bit, and at
    d = 1 almost every token takes the fast path (each of the 256 layers
    about 390 times).  The reference resets one Philox per token, which
    equals a fresh ``token_generator`` on the first 1000 tokens."""
    fallbacks = _count_scalar_rows(monkeypatch)
    toks = np.random.default_rng(d).integers(0, 2 ** 64, size=100_000,
                                             dtype=np.uint64)
    out = _normals(toks, d)
    assert out.shape == (100_000, d)
    want = _reset_normals(toks.tolist(), d)
    fresh = np.stack([token_generator(t).standard_normal(d)
                      for t in toks[:1000].tolist()])
    assert np.array_equal(want[:1000].view(np.uint64), fresh.view(np.uint64))
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
    share = len(fallbacks) / toks.shape[0]
    # a token falls back when any of its d draws misses the fast path
    assert 0 < share < {1: 0.02, 10: 0.15, 27: 0.36}[d]
    assert _normals(toks[:0], d).shape == (0, d)


def test_a_few_normals_take_the_scalar_generator(monkeypatch):
    """Below ``_BULK`` tokens every token is realized by the scalar
    generator, which a call of a few tokens runs faster; the bits are the
    same."""
    realized = _count_scalar_rows(monkeypatch)
    toks = np.arange(7, 7 + core._BULK - 1, dtype=np.uint64)
    out = _normals(toks, 10)
    assert realized == toks.tolist()
    want = np.stack([token_generator(t).standard_normal(10)
                     for t in toks.tolist()])
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
    realized.clear()
    _normals(np.arange(7, 7 + core._BULK, dtype=np.uint64), 10)
    assert len(realized) < core._BULK


def test_wide_normals_take_the_scalar_generator(monkeypatch):
    """Above ``_BULK_MAX_D`` draws per token every token is realized by the
    scalar generator, which is then faster at any token count; the bits
    are the same."""
    realized = _count_scalar_rows(monkeypatch)
    toks = np.arange(7, 7 + 4 * core._BULK, dtype=np.uint64)
    for d in (core._BULK_MAX_D + 1, 100):
        realized.clear()
        out = _normals(toks, d)
        assert realized == toks.tolist()
        want = np.stack([token_generator(t).standard_normal(d)
                         for t in toks.tolist()])
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
    realized.clear()
    _normals(toks, core._BULK_MAX_D)
    assert len(realized) < toks.size


def _per_token_indices(tokens, draws):
    """The documented sampling: one generator per token, its draws in
    order."""
    rows = []
    for t in tokens:
        gen = token_generator(t)
        rows.append(np.concatenate(
            [gen.integers(0, n, size=b) for n, b in draws]))
    return np.array(rows, dtype=np.int64).reshape(
        len(rows), sum(b for _, b in draws))


@pytest.mark.parametrize("draws", [
    ((1000, 64),),
    # odd sizes: the next draw starts on the high half of a word
    ((37, 7), (1000, 5), (3, 1), (60, 9)),
    # a bound of 1 reads no words
    ((5, 3), (1, 4), (7, 2), (1, 1)),
    # Lemire rejects often near 2**32: most tokens take the fallback
    ((3 * 2 ** 30, 1), (10, 8)),
    ((2 ** 31, 3), (2 ** 32 - 1, 2)),
])
def test_bulk_indices_are_the_per_token_draws(draws, monkeypatch):
    realized = _count_scalar_rows(monkeypatch)
    toks = np.random.default_rng(len(draws)).integers(
        0, 2 ** 64, size=4 * core._BULK + 3, dtype=np.uint64)
    toks[:2] = [0, 2 ** 64 - 1]
    want = _per_token_indices(toks.tolist(), draws)
    # one block of words, then blocks of a few tokens each
    for block_words in (core._BLOCK_WORDS, 40):
        monkeypatch.setattr(core, "_BLOCK_WORDS", block_words)
        for n in (1, core._BULK - 1, core._BULK, toks.size):
            realized.clear()
            got = _indices(toks[:n], draws)
            assert got.dtype == np.min_scalar_type(max(draws)[0] - 1)
            assert np.array_equal(got, want[:n])
            if n < core._BULK:
                assert realized == toks[:n].tolist()
    # a token falls back when some m mod 2**32 < n: a superset of numpy's
    # rejections, so fallbacks happen only where a bound is near 2**32
    share = len(realized) / toks.size
    if max(draws)[0] == 3 * 2 ** 30:
        assert 0.6 < share < 0.9
    elif max(draws)[0] < 2 ** 20:
        assert share < 0.01
    assert _indices(toks[:0], draws).shape == (0, sum(b for _, b in draws))


def test_indices_of_bounds_from_2_to_the_32_take_the_scalar_generator(
        monkeypatch):
    realized = _count_scalar_rows(monkeypatch)
    toks = np.arange(3, 3 + 2 * core._BULK, dtype=np.uint64)
    for draws in (((2 ** 32, 3),), ((10, 2), (2 ** 40, 1))):
        realized.clear()
        got = _indices(toks, draws)
        assert realized == toks.tolist()
        assert np.array_equal(got, _per_token_indices(toks.tolist(), draws))


def test_threads_realize_the_same_bits_as_one_thread():
    # no module state: four threads that realize tokens at once each get
    # the bits that one thread alone gets
    toks = np.random.default_rng(4).integers(0, 2 ** 64, size=600,
                                             dtype=np.uint64)
    draws = ((3 * 2 ** 30, 1), (1000, 9))

    def work(k):
        mine = toks[k::4]
        return [_normals(mine, 10).tobytes(), _normals(mine[:9], 3).tobytes(),
                _indices(mine, draws).tobytes(),
                _indices(mine[:9], draws).tobytes(),
                [token_generator(t).standard_normal(4).tobytes()
                 for t in mine.tolist()]]

    want = [work(k) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work, k) for k in range(4)]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_import_leaves_numpy_random_unloaded():
    src = str(Path(dmaxopt.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, dmaxopt, dmaxopt.harness; "
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "False"


def test_every_public_name_resolves_on_its_module():
    # a stale __all__ entry breaks ``from <module> import *``
    modules = [dmaxopt] + [
        importlib.import_module(m.name)
        for m in pkgutil.walk_packages(dmaxopt.__path__, "dmaxopt.")]
    assert len(modules) > 10  # the subpackages' modules were found
    assert [(mod.__name__, name) for mod in modules
            for name in getattr(mod, "__all__", ())
            if not hasattr(mod, name)] == []
    # A package re-exports exactly the ``__all__`` of each of its public
    # modules (all but the CLI), and declares no public name of its own.
    for pkg in (dmaxopt, dmaxopt.problems, dmaxopt.harness):
        owners = {}
        for m in pkgutil.iter_modules(pkg.__path__, pkg.__name__ + "."):
            leaf = m.name.rpartition(".")[2]
            if m.ispkg or leaf.startswith("_") or m.name.endswith(".cli"):
                continue
            mod = importlib.import_module(m.name)
            for name in mod.__all__:
                assert name not in owners, (name, owners.get(name), m.name)
                owners[name] = mod
        own = {"__version__"} if pkg is dmaxopt else set()
        assert sorted(set(pkg.__all__) - own) == sorted(owners), pkg.__name__
        assert len(pkg.__all__) == len(owners) + len(own)  # no duplicates
        assert [name for name, mod in owners.items()
                if getattr(pkg, name) is not getattr(mod, name)] == []


def test_rng_stream_rejects_negative_keys():
    with pytest.raises(ParameterError):
        RngStream(-1)
    with pytest.raises(ParameterError):
        RngStream(0, -2)
    # the Philox key holds 64 bits: 2**64 would draw seed 0's tokens
    for seed, stream_id in ((2 ** 64, 0), (0, 2 ** 64), (2 ** 65 + 3, 0)):
        with pytest.raises(ParameterError, match="below 2\\*\\*64"):
            RngStream(seed, stream_id)
    top = RngStream(2 ** 64 - 1, 2 ** 64 - 1)
    assert top.draw() != RngStream(0).draw()
    with pytest.raises(ParameterError):
        RngStream(0).draw_many(-1)


# ---------------------------------------------------------------------------
# problem constants


def test_constants_validation():
    ProblemConstants(delta_phi=0.0, delta_psi=2.5, mu_phi=1.0, m_bound=3.0)
    with pytest.raises(ParameterError):
        ProblemConstants(delta_phi=-0.1)
    with pytest.raises(ParameterError):
        ProblemConstants(mu_phi=0.0)
    with pytest.raises(ParameterError):
        ProblemConstants(l_phi_yx=-1.0)
    with pytest.raises(ParameterError):
        ProblemConstants(m_bound=0.0)
    for field in ("delta_phi", "mu_psi", "l_phi_yx", "m_bound"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ParameterError, match=f"{field} must be finite"):
                ProblemConstants(**{field: bad})
