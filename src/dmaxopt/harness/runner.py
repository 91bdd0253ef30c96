"""Deterministic experiment runner: per-seed trace CSVs plus a summary.

All seeds of a config run in one process, in lockstep: one batched call
steps them together (see :func:`dmaxopt.smag.run`), and each seed's
numbers are bit-identical to a solo run of that seed.  Trace files carry
``#`` metadata lines (config hash, seed, algorithm, versioned problem name,
metric provenance) above a fixed CSV header; the ``elapsed_ms`` column is
wall-clock (the batch's shared clock at the traced step, net of the time
spent computing trace rows) and is the only column exempt from bit-identity
guarantees.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..baselines import run_sgd, run_sgda
from ..core import ParameterError, RngStream, RunRecord
from ..smag import run as smag_run
from .config import (
    ExperimentConfig,
    build_problem,
    build_schedule,
    config_hash,
    mode_for_algorithm,
)

__all__ = [
    "TRACE_HEADER",
    "RunAborted",
    "ExperimentResult",
    "run_experiment",
    "read_trace",
    "trace_payload",
]

TRACE_HEADER = ("t", "objective", "stationarity", "p_t", "elapsed_ms", "seed")


class RunAborted(RuntimeError):
    """At least one seed aborted on a non-finite value; traces were kept."""


@dataclass
class ExperimentResult:
    output_dir: str
    summary_path: str
    trace_paths: dict
    finals: dict
    aborted_seeds: list
    cfg_hash: str


def _fmt(v: float) -> str:
    # v != v only for NaN
    return "" if v is None or v != v else format(v, ".17g")


def _write_trace(path: str, meta: dict, records) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, val in meta.items():
            fh.write(f"# {key}: {val}\n")
        csv.writer(fh).writerow(TRACE_HEADER)
        # The rows as csv.writer writes them: no field needs quoting.
        fh.writelines(f"{r.t},{_fmt(r.objective)},{_fmt(r.stationarity)},"
                      f"{_fmt(r.p_t)},{_fmt(r.elapsed_ms)},{r.seed}\r\n"
                      for r in records)


def read_trace(path: str):
    """Parse a trace CSV back into (metadata dict, list of RunRecord)."""
    meta: dict = {}
    records: list = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header_seen = False
        for row in reader:
            if not row:
                continue
            if row[0].startswith("#"):
                text = ",".join(row)[1:].strip()
                key, _, val = text.partition(":")
                meta[key.strip()] = val.strip()
                continue
            if not header_seen:
                if tuple(row) != TRACE_HEADER:
                    raise ParameterError(
                        f"{path}: unexpected trace header {row}")
                header_seen = True
                continue
            records.append(RunRecord(
                t=int(row[0]),
                objective=float(row[1]) if row[1] else math.nan,
                stationarity=float(row[2]) if row[2] else math.nan,
                p_t=float(row[3]) if row[3] else math.nan,
                elapsed_ms=float(row[4]) if row[4] else math.nan,
                seed=int(row[5])))
    if not header_seen:
        raise ParameterError(f"{path}: no trace header found")
    return meta, records


def trace_payload(path: str):
    """Deterministic content of a trace: metadata minus timing, and every
    column except ``elapsed_ms``.  Two runs of one (config, seed) must
    produce equal payloads."""
    meta, records = read_trace(path)
    rows = [(r.t, _fmt(r.objective), _fmt(r.stationarity), _fmt(r.p_t),
             r.seed) for r in records]
    return meta, rows


def _run_seeds(cfg: ExperimentConfig, cfg_hash: str) -> list:
    """Build the problem once and run every seed of the config in one
    lockstep call.  Returns, per seed, (records, final_metrics, aborted,
    meta)."""
    problem = build_problem(cfg.problem)
    mode = mode_for_algorithm(cfg.algorithm)
    x0 = cfg.x0
    if isinstance(x0, (int, float)):
        x0 = np.full(problem.dim_x, float(x0))
    rngs = [RngStream(seed) for seed in cfg.seeds]
    common = dict(x0=x0, trace_every=cfg.trace_every, seed_label=cfg.seeds,
                  decay_milestones=tuple(cfg.decay_milestones),
                  decay_factor=cfg.decay_factor,
                  shared_sample=cfg.shared_sample)
    if mode is not None:
        results = smag_run(problem, mode, build_schedule(cfg, problem), rngs,
                           exact_metrics=cfg.exact_metrics, **common)
        stat_kind = ("exact-envelope-grad" if results[0].exact_metrics
                     else "step-estimate")
    elif cfg.algorithm == "sgd":
        results = run_sgd(problem, cfg.lr, cfg.t_total, rngs, **common)
        stat_kind = "step-direction-norm"
    else:
        results = run_sgda(problem, cfg.lr, cfg.lr_y, cfg.t_total, rngs,
                           **common)
        stat_kind = "step-direction-norm"
    out = []
    for seed, res in zip(cfg.seeds, results):
        last = res.records[-1] if res.records else None
        final = {"objective": last.objective if last else math.nan,
                 "stationarity": last.stationarity if last else math.nan}
        if mode is not None:
            final["t_bar"] = res.t_bar
        meta = {
            "format": "dmaxopt-trace v1",
            "config_hash": cfg_hash,
            "algorithm": cfg.algorithm,
            "seed": seed,
            "problem": cfg.problem.get("kind"),
            "problem_name": problem.name,
            "stationarity": stat_kind,
            "objective": ("full-data" if problem.full_objective is not None
                          else "unavailable"),
        }
        if res.aborted:
            meta["aborted"] = res.abort_reason
        out.append((res.records, final, res.aborted, meta))
    return out


def run_experiment(config, output_root: Optional[str] = None
                   ) -> ExperimentResult:
    """Run every seed of a config, writing traces and a summary CSV.

    ``config`` is a raw dict (as loaded from JSON) or an
    :class:`ExperimentConfig`.  The seeds run in lockstep in this process;
    ``workers`` is validated and hashed with the config but starts no
    processes.  If any seed aborts on a non-finite value the traces are
    still written and :class:`RunAborted` is raised at the end.
    """
    if isinstance(config, ExperimentConfig):
        raw_cfg = config.raw
        cfg = config
    else:
        raw_cfg = config
        cfg = ExperimentConfig.from_dict(config)
    cfg_hash = config_hash(raw_cfg)

    out_dir = cfg.output_dir
    if output_root is None:
        output_root = os.environ.get("DMAXOPT_OUTPUT_ROOT", "runs")
    if not os.path.isabs(out_dir):
        out_dir = os.path.join(output_root, out_dir)
    os.makedirs(out_dir, exist_ok=True)

    trace_paths = {}
    finals = {}
    aborted_seeds = []
    for seed, (records, final, aborted, meta) in zip(
            cfg.seeds, _run_seeds(cfg, cfg_hash)):
        path = os.path.join(out_dir, f"trace_seed{seed}.csv")
        _write_trace(path, meta, records)
        trace_paths[seed] = path
        finals[seed] = final
        if aborted:
            aborted_seeds.append(seed)

    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash: {cfg_hash}\n")
        if aborted_seeds:
            fh.write(f"# aborted_seeds: {aborted_seeds}\n")
        writer = csv.writer(fh)
        writer.writerow(["metric", "mean", "std", "n"])
        for metric in ("objective", "stationarity"):
            vals = np.array([finals[s][metric] for s in cfg.seeds
                             if not math.isnan(finals[s][metric])])
            if vals.size:
                writer.writerow([f"final_{metric}", _fmt(float(vals.mean())),
                                 _fmt(float(vals.std())), vals.size])
            else:
                writer.writerow([f"final_{metric}", "", "", 0])

    result = ExperimentResult(output_dir=out_dir, summary_path=summary_path,
                              trace_paths=trace_paths, finals=finals,
                              aborted_seeds=aborted_seeds, cfg_hash=cfg_hash)
    if aborted_seeds:
        err = RunAborted(
            f"seeds {aborted_seeds} aborted on non-finite values; "
            f"partial traces are under {out_dir}")
        err.result = result
        raise err
    return result
