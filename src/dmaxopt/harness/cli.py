"""Command-line interface.

Four subcommands, each driven by a JSON config plus repeatable
``--set key.path=value`` overrides::

    dmaxopt run CONFIG [--set k=v ...] [--output-root DIR]
    dmaxopt grad-check CONFIG [--set k=v ...]
    dmaxopt schedule CONFIG [--set k=v ...]
    dmaxopt fairness CONFIG [--set k=v ...]

Exit codes: 0 success, 2 configuration/validation error, 3 runtime
failure (non-finite aborts, resample failures).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields

import numpy as np

from ..core import (
    CapabilityError,
    NonFiniteError,
    ParameterError,
    ProblemConstants,
)
from ..smag import schedule_from_theory, validate_schedule
from .config import _REQUIRED, _SCHEDULES, _read
from .config import apply_overrides, build_problem, config_hash, load_config
from .fairness import fairness_metrics
from .gradcheck import grad_check
from .runner import RunAborted, run_experiment

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _load(args) -> dict:
    cfg = load_config(args.config)
    return apply_overrides(cfg, args.set or [])


def _cmd_run(args) -> int:
    cfg = _load(args)
    result = run_experiment(cfg, output_root=args.output_root)
    print(f"config_hash {result.cfg_hash}")
    for seed, path in result.trace_paths.items():
        print(f"seed {seed}: {path}")
    print(f"summary: {result.summary_path}")
    return EXIT_OK


_GRAD_CHECK = {
    "problem": (dict, _REQUIRED), "gamma": (float, _REQUIRED),
    "n_points": (int, 20), "h": (float, 1e-5), "tol": (float, 1e-10),
    "sample_box": ([float], [-3.0, 3.0]),
    "min_kink_gap": ((float, None), None), "seed": (int, 0),
    "max_rel_err": ((float, None), None),
}


def _cmd_grad_check(args) -> int:
    cfg = _load(args)
    g = _read(cfg, _GRAD_CHECK, "config")
    threshold = g.pop("max_rel_err")
    report = grad_check(build_problem(g.pop("problem")), **g)
    print(f"config_hash {config_hash(cfg)}")
    print(f"max_rel_err = {report.max_rel_err:.6e}")
    print(f"n_checked = {report.n_checked}")
    print(f"n_rejected = {report.n_rejected}")
    if threshold is not None and report.max_rel_err > threshold:
        print(f"FAIL: max_rel_err above {threshold:.6e}")
        return EXIT_RUNTIME
    return EXIT_OK


# The keys of a theory schedule block, plus the constants and the mode.
_SCHEDULE = {"constants": (dict, _REQUIRED), "mode": (str, "dmax"),
             **_SCHEDULES["theory"]}
# The keys and defaults of ProblemConstants; a constant that defaults to
# None (an absent dual) may be null.
_CONSTANTS = {f.name: (float if f.default is not None else (float, None),
                       f.default) for f in fields(ProblemConstants)}


def _cmd_schedule(args) -> int:
    cfg = _read(_load(args), _SCHEDULE, "config")
    constants = ProblemConstants(**_read(cfg.pop("constants"), _CONSTANTS,
                                         "constants"))
    mode = cfg.pop("mode")
    sched = schedule_from_theory(constants, mode=mode, **cfg)
    validate_schedule(sched, constants, mode)
    for name in ("alpha", "tau", "nu", "l_f", "eta1", "eta0", "t_total",
                 "gamma", "epsilon"):
        val = getattr(sched, name)
        if isinstance(val, float):
            print(f"{name} = {format(val, '.17g')}")
        else:
            print(f"{name} = {val}")
    print(json.dumps({name: getattr(sched, name) for name in
                      ("gamma", "eta0", "eta1", "alpha", "tau", "nu", "l_f",
                       "t_total", "epsilon")}))
    return EXIT_OK


def _read_scores_csv(path: str):
    scores, labels, attrs = [], [], []
    awaiting_header = True
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or row[0].startswith("#"):
                continue
            if awaiting_header:
                awaiting_header = False
                if not _is_float(row[0]):
                    expected = ["score", "label", "attr"]
                    if [c.strip() for c in row[:3]] != expected:
                        raise ParameterError(
                            f"{path}: expected header {expected}, got {row}")
                    continue  # header consumed; keep reading data rows
            if len(row) < 3:
                raise ParameterError(
                    f"{path}: line {lineno}: expected score,label,attr")
            if not _is_float(row[0]):
                raise ParameterError(f"{path}: line {lineno}: score must be "
                                     f"a number, got {row[0]!r}")
            scores.append(float(row[0]))
            labels.append(_sign(row[1], f"{path}: line {lineno}: label"))
            attrs.append(_sign(row[2], f"{path}: line {lineno}: attr"))
    return (np.asarray(scores), np.asarray(labels, dtype=np.int8),
            np.asarray(attrs, dtype=np.int8))


def _sign(s: str, what: str) -> int:
    """``s`` as +1 or -1, which it must equal exactly."""
    if not _is_float(s) or float(s) not in (1.0, -1.0):
        raise ParameterError(f"{what} must be +1 or -1, got {s!r}")
    return int(float(s))


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


_FAIRNESS = {"scores_csv": (str, _REQUIRED), "threshold": (float, 0.0),
             "rho": (float, 0.3)}


def _cmd_fairness(args) -> int:
    cfg = _read(_load(args), _FAIRNESS, "config")
    report = fairness_metrics(*_read_scores_csv(cfg.pop("scores_csv")), **cfg)
    for name in ("dp", "eop", "eod", "pauc"):
        print(f"{name} = {getattr(report, name):.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmaxopt",
        description="Stochastic envelope-smoothing optimization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="path to a JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a (dotted) config key; value is JSON")

    p_run = sub.add_parser("run", help="run a traced experiment")
    add_common(p_run)
    p_run.add_argument("--output-root", default=None,
                       help="directory for relative output dirs "
                            "(default: $DMAXOPT_OUTPUT_ROOT or ./runs)")
    p_run.set_defaults(fn=_cmd_run)

    p_gc = sub.add_parser("grad-check",
                          help="finite-difference check of envelope gradients")
    add_common(p_gc)
    p_gc.set_defaults(fn=_cmd_grad_check)

    p_sched = sub.add_parser("schedule",
                             help="print the theory step-size schedule")
    add_common(p_sched)
    p_sched.set_defaults(fn=_cmd_schedule)

    p_fair = sub.add_parser("fairness",
                            help="fairness metrics for a scores CSV")
    add_common(p_fair)
    p_fair.set_defaults(fn=_cmd_fairness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParameterError, CapabilityError, ValueError, OSError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteError, RunAborted, RuntimeError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
