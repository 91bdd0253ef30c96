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

import math
import os
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, methodcaller
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
    return "" if math.isnan(v) else format(v, ".17g")


_ROW_BLOCK = 1 << 12  # rows per %-format: bounds the trace writer's memory
_FIELDS = attrgetter(*TRACE_HEADER)
_ONES = str.maketrans("0123456789", "1" * 10)


def _write_trace(path: str, meta: dict, records) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, val in meta.items():
            fh.write(f"# {key}: {val}\n")
        # CSV as csv.writer writes it, no field needing quotes: '%.17g' % v
        # is format(v, '.17g'), and a float column with a NaN takes _fmt's.
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        for i in range(0, len(records), _ROW_BLOCK):
            vals = list(chain.from_iterable(
                map(_FIELDS, records[i:i + _ROW_BLOCK])))
            spec = ["%d", "%.17g", "%.17g", "%.17g", "%.17g", "%d"]
            for j in range(1, 5):
                if any(map(math.isnan, vals[j::6])):
                    spec[j], vals[j::6] = "%s", list(map(_fmt, vals[j::6]))
            fh.write((",".join(spec) + "\r\n") * (len(vals) // 6)
                     % tuple(vals))


def _as_written(col: list) -> list:
    """A float column as written, once every field would parse (or is
    blank).  float() takes a field exactly when it takes it with its ASCII
    digits made 1s: one field of each such shape is parsed."""
    shapes = ",".join(col).translate(_ONES).split(",")
    for v in dict(zip(shapes, col)).values():
        if v:
            float(v)
    return col


def _columns(lines: list, floats) -> list:
    if set(map(methodcaller("count", ","), lines)) - {5}:
        raise ValueError("a row needs 6 comma-separated fields")
    flat = ",".join(lines).split(",") if lines else []
    cols = [flat[j::6] for j in range(6)]
    return [list(map(int, cols[0])), *map(floats, cols[1:5]),
            list(map(int, cols[5]))]


def _rows(path: str, floats):
    """The metadata of a trace file and its columns, ``t`` and ``seed`` as
    ints and each float column through ``floats``, which checks each field
    once.  Lines end in ``\\r\\n`` or ``\\n``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().replace("\r\n", "\n").split("\n")
    n = next((i for i, ln in enumerate(lines) if ln and ln[0] != "#"), None)
    if n is None:
        raise ParameterError(f"{path}: no trace header found")
    if tuple(lines[n].split(",")) != TRACE_HEADER:
        raise ParameterError(f"{path}: unexpected trace header {lines[n]!r}")
    meta = {key.strip(): val.strip() for key, _, val in
            (ln[1:].partition(":") for ln in lines[:n] if ln)}
    try:
        return meta, _columns(list(filter(None, lines[n + 1:])), floats)
    except ValueError:
        for k, line in enumerate(lines[n + 1:], n + 2):
            try:
                _columns([line] if line else [], floats)
            except ValueError as err:
                raise ParameterError(f"{path}, line {k}: {err}") from None


def read_trace(path: str):
    """Parse a trace CSV back into (metadata dict, list of RunRecord)."""
    meta, cols = _rows(path, lambda col: [float(v) if v else math.nan
                                          for v in col])
    return meta, list(map(RunRecord, *cols))


def trace_payload(path: str):
    """Deterministic content of a trace: metadata minus timing, and every
    column except ``elapsed_ms``, floats as written.  Two runs of one
    (config, seed) must produce equal payloads: ``.17g`` round-trips, so
    fields are equal text exactly when their floats are equal."""
    meta, cols = _rows(path, _as_written)
    return meta, list(zip(cols[0], *cols[1:4], cols[5]))


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
    stat_kind = "step-direction-norm"
    if mode is not None:
        results = smag_run(problem, mode, build_schedule(cfg, problem), rngs,
                           **common)
        stat_kind = ("exact-envelope-grad" if results[0].exact_metrics
                     else "step-estimate")
    elif cfg.algorithm == "sgd":
        results = run_sgd(problem, cfg.lr, cfg.t_total, rngs, **common)
    else:
        results = run_sgda(problem, cfg.lr, cfg.lr_y, cfg.t_total, rngs,
                           **common)
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
    cfg = (config if isinstance(config, ExperimentConfig)
           else ExperimentConfig.from_dict(config))
    cfg_hash = config_hash(cfg.raw)
    if output_root is None:
        output_root = os.environ.get("DMAXOPT_OUTPUT_ROOT", "runs")
    # an absolute output_dir drops the root
    out_dir = os.path.join(output_root, cfg.output_dir)
    # made once the runs are done, so a config they refuse leaves none
    runs = _run_seeds(cfg, cfg_hash)
    os.makedirs(out_dir, exist_ok=True)

    trace_paths = {}
    finals = {}
    aborted_seeds = []
    for seed, (records, final, aborted, meta) in zip(cfg.seeds, runs):
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
        fh.write("metric,mean,std,n\r\n")
        for metric in ("objective", "stationarity"):
            vals = np.array([finals[s][metric] for s in cfg.seeds
                             if not math.isnan(finals[s][metric])])
            mean, std = ((_fmt(float(vals.mean())), _fmt(float(vals.std())))
                         if vals.size else ("", ""))
            fh.write(f"final_{metric},{mean},{std},{vals.size}\r\n")

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
