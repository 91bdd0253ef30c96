"""Span recording for the traced benchmark run.

The traced run measures each layer of ``dmaxopt`` from outside: it wraps
the callables the library calls into (problem oracles, ``RngStream.draw_many``,
``token_generator``, ``project``, the public run entry points) and records a
span around each call.  Spans are aggregated in memory as they close, so a
long run costs no memory per span:

- ``calls`` and ``incl_s`` (inclusive time) per span name,
- ``self_s`` per span name: inclusive time minus the time covered by the
  span's direct children,
- ``edge_calls`` and ``edge_s`` per ``(parent, name)`` pair, which
  attribute a call to the layer that caused it (a ``full_objective`` call
  made by ``smag.run`` is a trace row; one made elsewhere is not),
- plain counters for work computed from array sizes.

Nothing here draws a token or changes an argument or return value, so a
traced run must produce bit-identical outputs to an untraced one; the
benchmark checks that.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import defaultdict

import dmaxopt.baselines
import dmaxopt.harness.runner
import dmaxopt.problems.pauc
import dmaxopt.problems.synthetic
import dmaxopt.smag
from dmaxopt.core import RngStream, project, token_generator

ORACLES = ("phi_subgrad_x", "phi_grad_y", "psi_subgrad_x", "psi_grad_z")
EXACT_AUX_MAPS = ("prox_phi", "prox_psi", "best_response_y",
                  "best_response_z", "value_phi", "value_psi")

_clock = time.perf_counter


class Untraced:
    """The probe used when tracing is off: every hook is the identity."""

    traced = False

    def span(self, name):
        return contextlib.nullcontext()

    def problem(self, problem, samples=None, pairs=None):
        return problem

    def rng(self, seed):
        return RngStream(seed)

    def patched(self):
        return contextlib.nullcontext()


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    traced = True

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edge_calls = defaultdict(int)
        self.edge_s = defaultdict(float)
        self.counts = defaultdict(int)
        # Open spans: [name, start, time covered by direct children].
        self._stack = [["root", 0.0, 0.0]]

    def _open(self, name):
        self._stack.append([name, _clock(), 0.0])

    def _close(self):
        name, start, child_s = self._stack.pop()
        dur = _clock() - start
        parent = self._stack[-1]
        parent[2] += dur
        self.calls[name] += 1
        self.incl_s[name] += dur
        self.self_s[name] += dur - child_s
        edge = (parent[0], name)
        self.edge_calls[edge] += 1
        self.edge_s[edge] += dur

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name, fn, work=None):
        """Return ``fn`` recorded as span ``name``; ``work`` maps counter
        names to the amount each call adds."""
        if fn is None:
            return None
        counts = self.counts
        items = tuple((work or {}).items())

        def traced(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
                for key, n in items:
                    counts[key] += n

        return traced

    def problem(self, problem, samples=None, pairs=None):
        """Copy of ``problem`` whose oracles, full objective and exact
        auxiliary maps record spans.  ``samples`` / ``pairs`` give the data
        rows and pair losses one call of each oracle touches."""
        samples = samples or {}
        pairs = pairs or {}

        def work(field):
            out = {}
            if field in samples:
                out["problems.samples"] = samples[field]
            if field in pairs:
                out["problems.pair_evals"] = pairs[field]
            return out

        fields = {f: self.wrap(f"problems.{f}", getattr(problem, f), work(f))
                  for f in ORACLES + ("full_objective",)}
        aux = problem.exact_aux
        if aux is not None:
            fields["exact_aux"] = dataclasses.replace(aux, **{
                m: self.wrap("problems.exact_aux", getattr(aux, m))
                for m in EXACT_AUX_MAPS})
        return dataclasses.replace(problem, **fields)

    def rng(self, seed):
        return _TracedRngStream(self, seed)

    def oracle_calls(self):
        return sum(self.calls[f"problems.{o}"] for o in ORACLES)

    @contextlib.contextmanager
    def patched(self):
        """Rebind the module-level names the library calls through, and
        restore them on exit."""
        runner = dmaxopt.harness.runner
        plain_build_problem = runner.build_problem

        def build_problem(section):
            with self.span("problems.build"):
                problem = plain_build_problem(section)
            return self.problem(problem)

        targets = [
            (dmaxopt.smag, "project", self.wrap("core.project", project)),
            (dmaxopt.baselines, "project",
             self.wrap("core.project", project)),
            (dmaxopt.problems.synthetic, "token_generator",
             self.wrap("core.token_generator", token_generator)),
            (dmaxopt.problems.pauc, "token_generator",
             self.wrap("core.token_generator", token_generator)),
            (runner, "RngStream", self.rng),
            (runner, "build_problem", build_problem),
            (runner, "smag_run", self.wrap("smag.run", runner.smag_run)),
            (runner, "run_sgda",
             self.wrap("baselines.run_sgda", runner.run_sgda)),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        try:
            for mod, attr, fn in targets:
                setattr(mod, attr, fn)
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


class _TracedRngStream(RngStream):
    """An ``RngStream`` whose ``draw_many`` records a span and counts the
    tokens it hands out."""

    def __init__(self, tracer, seed, stream_id=0):
        super().__init__(seed, stream_id)
        self._tracer = tracer

    def draw_many(self, n):
        tracer = self._tracer
        tracer._open("core.draw_many")
        try:
            return super().draw_many(n)
        finally:
            tracer._close()
            tracer.counts["core.tokens.drawn"] += int(n)
