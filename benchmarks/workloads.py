"""The three benchmark workloads and the checks on their outputs.

Each workload runs *cases*: one case builds its inputs, runs the optimizer
through a public entry point, checks the output and digests it.  A
workload has a fixed pool of cases; the benchmark's ``--seed`` only picks
the order in which a run visits the pool, so every case has a reference
digest recorded in ``reference_digests.json``.

The digest covers the deterministic payload of a case: the returned vector
and ``t_bar`` for library runs, the ``trace_payload`` rows of every trace
file (and each smag seed's ``t_bar``) for runner runs.  A ``(problem,
schedule, seed)`` run must stay bit-identical, so any change to a digest
is a failure unless the reference is re-recorded on purpose.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from dmaxopt.harness import (
    ExperimentConfig,
    build_problem,
    build_schedule,
    fairness_metrics,
    read_trace,
    run_experiment,
    trace_payload,
)
from dmaxopt.moreau import check_nearly_critical
from dmaxopt.problems import (
    PaucParams,
    make_onedim_dwc,
    pauc_fair_problem,
    synth_biased_pauc,
)
from dmaxopt.smag import Schedule
from dmaxopt import smag

clock = time.perf_counter

# Workload sizes.  Cost per case on a 2-CPU x86-64 box (Python 3.11,
# numpy 2.4): dwc1d-certify ~1 s, pauc-fair-traced ~0.8 s,
# quadmm-runner ~1.7 s.
DWC_T = 20_000
PAUC_T = 1_000
PAUC_TRACE_EVERY = 200
QUAD_T = 2_000
QUAD_SEEDS = 4
POOL = 24

PAUC_PARAMS = PaucParams(rho=0.3, alpha_fair=0.5, lambda0=1.0)
PAUC_N, PAUC_DIM = 4000, 20
# pAUC of the untrained scorer (x0 = 0 scores every example 0, all ties)
# is 0.5; a run that learned nothing fails this floor.
PAUC_FLOOR = 0.7
# Criterion-6 threshold on the exact envelope-gradient norm.
QUAD_STATIONARITY = 0.05


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pool_workers() -> int:
    """The runner pool of ``quadmm-runner``: 2 workers, capped at nproc."""
    return min(2, nproc())


def payload_digest(*parts) -> str:
    """sha256 over arrays (dtype, shape and bytes) and reprs of the rest."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


@dataclass
class Ran:
    """What a case's run produced, before it is checked."""

    steps: int
    run_s: float
    result: object
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """One checked case."""

    index: int
    ok: bool
    digest: str = ""
    digest_match: bool = False
    reasons: list = field(default_factory=list)
    steps: int = 0
    run_s: float = 0.0
    wall_s: float = 0.0
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# dwc1d-certify: scalar math, so token work dominates.


def dwc_build():
    problem = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    sched = Schedule.from_manual(0.5, 0.005, 0.01, DWC_T, problem.constants,
                                 mode="dwc")
    return problem, sched


def dwc_execute(index, probe, out_dir) -> Ran:
    with probe.span("problems.build"):
        problem, sched = dwc_build()
    problem = probe.problem(problem)
    start = clock()
    with probe.span("smag.run"):
        res = smag.run(problem, "dwc", sched, probe.rng(index), x0=2.0,
                       trace_every=DWC_T)
    return Ran(steps=res.final_state.t, run_s=clock() - start,
               result=(problem, res))


def dwc_check(ran, probe):
    problem, res = ran.result
    reasons = []
    if res.aborted:
        reasons.append(f"aborted: {res.abort_reason}")
    with probe.span("moreau.certify"):
        cert = check_nearly_critical(problem, res.x_bar, res.returned,
                                     gamma=0.5, epsilon=0.1)
    if not cert.certified:
        reasons.append(f"not certified: |grad|^2={cert.grad_env_norm_sq:.3g}")
    return reasons, payload_digest(res.returned, res.t_bar)


# ---------------------------------------------------------------------------
# pauc-fair-traced: data-bound oracles and full-data trace objective.


def pauc_build(index):
    data = synth_biased_pauc(PAUC_N, PAUC_DIM, seed=index)
    return data, pauc_fair_problem(data, PAUC_PARAMS)


def pauc_execute(index, probe, out_dir) -> Ran:
    with probe.span("problems.build"):
        data, problem = pauc_build(index)
    p = PAUC_PARAMS
    n_pos = problem.dim_x - PAUC_DIM
    problem = probe.problem(
        problem,
        samples={"phi_subgrad_x": p.batch_pos + p.batch_neg,
                 "phi_grad_y": p.batch_attr},
        pairs={"phi_subgrad_x": p.batch_pos * p.batch_neg,
               "full_objective": n_pos * (len(data) - n_pos)})
    sched = Schedule.from_manual(0.5, 0.002, 0.01, PAUC_T, problem.constants,
                                 mode="minmax")
    start = clock()
    with probe.span("smag.run"):
        res = smag.run(problem, "minmax", sched, probe.rng(index),
                       x0=np.zeros(problem.dim_x),
                       trace_every=PAUC_TRACE_EVERY)
    return Ran(steps=res.final_state.t, run_s=clock() - start,
               result=(data, res))


def pauc_check(ran, probe):
    data, res = ran.result
    reasons = []
    if res.aborted:
        reasons.append(f"aborted: {res.abort_reason}")
    scores = data.features @ res.returned[:PAUC_DIM]
    with probe.span("harness.fairness_metrics"):
        rep = fairness_metrics(scores, data.labels, data.sensitive,
                               rho=PAUC_PARAMS.rho)
    gaps = (rep.dp, rep.eop, rep.eod, rep.pauc)
    if not all(0.0 <= g <= 1.0 for g in gaps):
        reasons.append(f"fairness metrics out of [0, 1]: {gaps}")
    if not rep.pauc >= PAUC_FLOOR:
        reasons.append(f"pAUC {rep.pauc:.4f} below {PAUC_FLOOR}")
    return reasons, payload_digest(res.returned, res.t_bar)


# ---------------------------------------------------------------------------
# quadmm-runner: the `dmaxopt run` path, process pool and trace CSVs.


def quad_configs(index, workers):
    base = {
        "problem": {"kind": "quadratic-minmax", "dim": 10,
                    "noise_sigma": 0.1},
        "seeds": [QUAD_SEEDS * index + i for i in range(QUAD_SEEDS)],
        "t_total": QUAD_T, "x0": 1.5, "trace_every": 1, "workers": workers,
    }
    smag_cfg = dict(base, algorithm="smag-minmax",
                    schedule={"gamma": 0.5, "eta0": 0.02, "eta1": 0.05},
                    output_dir=f"case{index}-smag")
    sgda_cfg = dict(base, algorithm="sgda", lr=0.02, lr_y=0.05,
                    output_dir=f"case{index}-sgda")
    return smag_cfg, sgda_cfg


def quad_setup(index):
    """What a pool worker does before its first step: validate the config,
    build the problem and the schedule."""
    cfg = ExperimentConfig.from_dict(quad_configs(index, 1)[0])
    build_schedule(cfg, build_problem(cfg.problem))


def quad_execute(index, probe, out_dir) -> Ran:
    # The traced run keeps every span in this process.
    workers = 1 if probe.traced else pool_workers()
    results = []
    start = clock()
    for cfg in quad_configs(index, workers):
        with probe.span("harness.run_experiment"):
            results.append(run_experiment(cfg, output_root=out_dir))
    return Ran(steps=2 * QUAD_SEEDS * QUAD_T, run_s=clock() - start,
               result=results, extra={"workers": workers})


def quad_check(ran, probe):
    smag_res, sgda_res = ran.result
    reasons = []
    for seed, final in smag_res.finals.items():
        if not final["stationarity"] <= QUAD_STATIONARITY:
            reasons.append(f"smag seed {seed}: final stationarity "
                           f"{final['stationarity']:.4g}")
    for seed, final in sgda_res.finals.items():
        if not all(math.isfinite(v) for v in final.values()):
            reasons.append(f"sgda seed {seed}: non-finite final {final}")
    rows = []
    for res in (smag_res, sgda_res):
        for seed in sorted(res.trace_paths):
            rows.append(trace_payload(res.trace_paths[seed])[1])
    t_bars = [smag_res.finals[s]["t_bar"] for s in sorted(smag_res.finals)]
    return reasons, payload_digest(rows, t_bars)


def quad_harness_stats(ran) -> dict:
    """Runner numbers read back from the trace files of one case."""
    paths = [p for res in ran.result for p in res.trace_paths.values()]
    loop_s = rows = 0
    for path in paths:
        records = read_trace(path)[1]
        rows += len(records)
        loop_s += records[-1].elapsed_ms / 1e3
    return {
        "harness.run_experiment.wall_s": ran.run_s,
        "harness.seed_loop_s": loop_s,
        "harness.overhead_s": ran.run_s - loop_s / ran.extra["workers"],
        "harness.trace.rows": rows,
        "harness.trace.bytes": sum(os.path.getsize(p) for p in paths),
    }


def quad_cleanup(ran):
    for res in ran.result:
        shutil.rmtree(res.output_dir)


@dataclass(frozen=True)
class Workload:
    name: str
    t_total: int
    execute: object
    check: object
    setup: object
    pooled: bool = False
    harness_stats: object = None
    cleanup: object = None


WORKLOADS = {
    w.name: w for w in (
        Workload("dwc1d-certify", DWC_T, dwc_execute, dwc_check,
                 setup=lambda index: dwc_build()),
        Workload("pauc-fair-traced", PAUC_T, pauc_execute, pauc_check,
                 setup=pauc_build),
        Workload("quadmm-runner", QUAD_T, quad_execute, quad_check,
                 setup=quad_setup, pooled=True,
                 harness_stats=quad_harness_stats,
                 cleanup=quad_cleanup),
    )
}


def judge(workload, index, ran, probe, reference):
    """Check one case's output against its workload check and its
    reference digest; returns (reasons, digest, digest_match)."""
    reasons, digest = workload.check(ran, probe)
    match = digest == reference[index]
    if not match:
        reasons.append("digest differs from the reference")
    return reasons, digest, match


def run_case(workload, index, probe, out_dir, reference) -> Outcome:
    """Build, run and check one case.  A case that raises is a failed
    case, not a crashed benchmark."""
    start = clock()
    try:
        ran = workload.execute(index, probe, out_dir)
        reasons, digest, match = judge(workload, index, ran, probe,
                                       reference)
    except Exception as exc:  # noqa: BLE001 - counted in failed_frac
        return Outcome(index, ok=False, reasons=[f"raised {exc!r}"],
                       wall_s=clock() - start)
    wall = clock() - start
    out = Outcome(index, ok=not reasons, digest=digest, digest_match=match,
                  reasons=reasons, steps=ran.steps, run_s=ran.run_s,
                  wall_s=wall)
    if workload.harness_stats is not None:
        out.extra = workload.harness_stats(ran)
    if workload.cleanup is not None:
        workload.cleanup(ran)
    return out
