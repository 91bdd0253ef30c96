"""JSON experiment configs: loading, dotted overrides, hashing, builders.

A config is a plain JSON object; ``--set a.b=value`` overrides reach into
nested keys (values parse as JSON, falling back to string).  The config
hash is the sha256 of the canonical (sorted, compact) serialization and is
stamped into every output file so results are traceable to their exact
configuration.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Optional

import numpy as np

from ..core import DMaxProblem, ParameterError, ProblemConstants
from ..smag import Mode, Schedule, schedule_from_theory
from ..problems import (
    LabeledDataset,
    PaucParams,
    PuParams,
    load_libsvm,
    make_onedim_dwc,
    make_pu_problem,
    make_quadratic_minmax,
    pauc_fair_problem,
    synth_biased_pauc,
    synth_gaussian_pu,
)

__all__ = [
    "load_config",
    "apply_overrides",
    "config_hash",
    "ExperimentConfig",
    "build_problem",
    "build_schedule",
    "mode_for_algorithm",
]

_ALGORITHMS = ("smag-dmax", "smag-dwc", "smag-minmax", "sgd", "sgda")


def load_config(path) -> dict:
    """Read a JSON config file; the top level must be an object."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ParameterError(f"{path}: config root must be a JSON object")
    return cfg


def apply_overrides(cfg: dict, assignments) -> dict:
    """Apply ``key.path=value`` overrides; values parse as JSON when they
    can, otherwise as literal strings.  Returns a new dict."""
    out = copy.deepcopy(cfg)
    for item in assignments:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ParameterError(f"bad override {item!r}; expected key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return out


def config_hash(cfg: dict) -> str:
    """sha256 of the canonical JSON serialization."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _is_int(v) -> bool:
    """An integer in JSON's sense: ``true`` and ``1.5`` are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_positive(v) -> bool:
    """A finite positive number: ``true``, ``"0.1"``, NaN and infinities
    are not."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v) and v > 0)


def _int(section: dict, key: str, default) -> int:
    """The integer ``problem.key`` of a config (``default`` when absent):
    ``true`` and ``2.7`` are refused rather than read as 1 and 2."""
    v = section.get(key, default)
    if not _is_int(v):
        raise ParameterError(f"problem.{key} must be an integer, got {v!r}")
    return v


def _flag(section: dict, key: str, block: str) -> bool:
    """The boolean ``block.key`` of a config (false when absent): the
    string ``"false"`` is refused rather than read as true."""
    v = section.get(key, False)
    if not isinstance(v, bool):
        raise ParameterError(
            f"{block}.{key} must be true or false, got {v!r}")
    return v


@dataclass
class ExperimentConfig:
    """Validated view of a ``run`` config."""

    problem: dict
    algorithm: str
    seeds: list
    t_total: int
    schedule: dict = field(default_factory=dict)
    output_dir: str = "experiment"
    trace_every: int = 1
    x0: Any = None
    decay_milestones: list = field(default_factory=list)
    decay_factor: float = 10.0
    shared_sample: bool = False
    # Accepted and hashed for existing configs; seeds run in lockstep in
    # one process whatever it says.
    workers: int = 1
    exact_metrics: Optional[bool] = None
    lr: Optional[float] = None
    lr_y: Optional[float] = None
    raw: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def from_dict(cfg: dict) -> "ExperimentConfig":
        known = {f for f in ExperimentConfig.__dataclass_fields__
                 if f != "raw"}
        unknown = set(cfg) - known
        if unknown:
            raise ParameterError(
                f"unknown config keys: {sorted(unknown)}")
        missing = [k for k in ("problem", "algorithm", "seeds", "t_total")
                   if k not in cfg]
        if missing:
            raise ParameterError(f"config is missing keys: {missing}")
        ec = ExperimentConfig(raw=copy.deepcopy(cfg), **cfg)
        ec.validate()
        return ec

    def validate(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ParameterError(
                f"unknown algorithm {self.algorithm!r}; "
                f"expected one of {_ALGORITHMS}")
        if not isinstance(self.problem, dict) or "kind" not in self.problem:
            raise ParameterError("problem must be an object with a 'kind'")
        if (not isinstance(self.seeds, list) or not self.seeds
                or not all(_is_int(s) and s >= 0 for s in self.seeds)):
            raise ParameterError("seeds must be a non-empty list of "
                                 "nonnegative integers")
        if len(set(self.seeds)) != len(self.seeds):
            raise ParameterError("seeds must be distinct")
        if not _is_int(self.t_total) or self.t_total < 0:
            raise ParameterError("t_total must be a nonnegative integer")
        if not _is_int(self.trace_every) or self.trace_every < 1:
            raise ParameterError("trace_every must be an integer >= 1")
        if not _is_int(self.workers) or self.workers < 0:
            raise ParameterError("workers must be an integer >= 0")
        if (not isinstance(self.decay_milestones, list)
                or not all(_is_int(m) and m >= 0
                           for m in self.decay_milestones)):
            raise ParameterError("decay_milestones must be a list of "
                                 "nonnegative integers")
        if not _is_positive(self.decay_factor):
            raise ParameterError(
                "decay_factor must be a positive finite number")
        if not isinstance(self.shared_sample, bool):
            raise ParameterError("shared_sample must be true or false")
        if self.exact_metrics is not None and not isinstance(
                self.exact_metrics, bool):
            raise ParameterError("exact_metrics must be true, false or null")
        if self.algorithm.startswith("smag"):
            if not isinstance(self.schedule, dict) or not self.schedule:
                raise ParameterError("smag algorithms need a schedule object")
        else:
            if not _is_positive(self.lr):
                raise ParameterError(
                    f"{self.algorithm} needs a positive finite lr")
            if self.algorithm == "sgda" and not _is_positive(self.lr_y):
                raise ParameterError("sgda needs a positive finite lr_y")


def mode_for_algorithm(algorithm: str) -> Optional[Mode]:
    if algorithm.startswith("smag-"):
        return algorithm.split("-", 1)[1]  # type: ignore[return-value]
    return None


def _pu_from_libsvm(section: dict) -> DMaxProblem:
    data = load_libsvm(section["path"], dimension=section.get("dimension"),
                       normalize=_flag(section, "normalize", "problem"))
    if "pi_p" not in section:
        raise ParameterError("pu-libsvm needs an explicit pi_p")
    positives = data.subset(data.labels == 1)
    # the whole file, labels hidden, forms the unlabeled pool
    params = PuParams(pi_p=float(section["pi_p"]),
                      batch_pos=_int(section, "batch_pos", 64),
                      batch_unl=_int(section, "batch_unl", 64))
    return make_pu_problem(positives, data, params,
                           m_bound=section.get("m_bound"))


def _pauc_dataset(section: dict) -> LabeledDataset:
    if section["kind"] == "pauc-synth":
        return synth_biased_pauc(
            _int(section, "n", 4000), _int(section, "dim", 20),
            _int(section, "data_seed", 0),
            sep_label=float(section.get("sep_label", 1.0)),
            sep_group=float(section.get("sep_group", 1.0)),
            skew=float(section.get("skew", 0.65)))
    data = load_libsvm(section["path"], dimension=section.get("dimension"),
                       normalize=_flag(section, "normalize", "problem"))
    if section.get("sensitive_feature") is not None:
        col = _int(section, "sensitive_feature", None)
        if not 1 <= col <= data.dimension:
            raise ParameterError(
                f"sensitive_feature {col} outside 1..{data.dimension}")
        attr = np.where(data.features[:, col - 1] > 0, 1, -1).astype(np.int8)
        data = LabeledDataset(data.features, data.labels, attr)
    return data


def _pauc_params(section: dict) -> PaucParams:
    return PaucParams(
        rho=float(section.get("rho", 0.3)),
        c=float(section.get("c", 1.0)),
        alpha_fair=float(section.get("alpha_fair", 0.0)),
        lambda0=float(section.get("lambda0", 1.0)),
        batch_pos=_int(section, "batch_pos", 64),
        batch_neg=_int(section, "batch_neg", 64),
        batch_attr=_int(section, "batch_attr", 64))


def build_problem(section: dict) -> DMaxProblem:
    """Construct the problem object a config's ``problem`` block describes."""
    if "kind" not in section:
        raise ParameterError("problem config needs a 'kind'")
    kind = section["kind"]
    if kind == "onedim-dwc":
        return make_onedim_dwc(
            float(section.get("a", 1.0)), float(section.get("b", 0.5)),
            kappa_phi=float(section.get("kappa_phi", 0.0)),
            kappa_psi=float(section.get("kappa_psi", 0.0)),
            center_phi=float(section.get("center_phi", 0.0)),
            center_psi=float(section.get("center_psi", 0.0)),
            noise_sigma=float(section.get("noise_sigma", 0.0)),
            dim=_int(section, "dim", 1),
            m_bound=section.get("m_bound"),
            allow_unbounded=_flag(section, "allow_unbounded",
                                  "problem"))
    if kind == "quadratic-minmax":
        return make_quadratic_minmax(
            dim=_int(section, "dim", 1),
            noise_sigma=float(section.get("noise_sigma", 0.0)),
            m_bound=section.get("m_bound"))
    if kind == "pu-synth":
        if "pi_p" not in section:
            raise ParameterError("pu-synth needs an explicit pi_p")
        pos, unl = synth_gaussian_pu(
            _int(section, "n_pos", 500), _int(section, "n_unl", 2000),
            _int(section, "dim", 10), float(section.get("separation", 1.5)),
            float(section["pi_p"]), _int(section, "data_seed", 0))
        params = PuParams(pi_p=float(section["pi_p"]),
                          batch_pos=_int(section, "batch_pos", 64),
                          batch_unl=_int(section, "batch_unl", 64))
        return make_pu_problem(pos, unl, params, m_bound=section.get("m_bound"))
    if kind == "pu-libsvm":
        return _pu_from_libsvm(section)
    if kind in ("pauc-synth", "pauc-libsvm"):
        data = _pauc_dataset(section)
        return pauc_fair_problem(data, _pauc_params(section),
                                 m_bound=section.get("m_bound"))
    raise ParameterError(f"unknown problem kind {kind!r}")


def build_schedule(cfg: ExperimentConfig,
                   problem: DMaxProblem) -> Schedule:
    """Realize the schedule block against the problem's constants."""
    section = cfg.schedule
    mode = mode_for_algorithm(cfg.algorithm)
    if mode is None:
        raise ParameterError("baselines do not take a schedule")
    source = section.get("source", "manual")
    if source == "theory":
        sched = schedule_from_theory(
            problem.constants, float(section["gamma"]), float(section["epsilon"]),
            mode=mode, gap_plus_p0=float(section.get("gap_plus_p0", 1.0)))
        if cfg.t_total:
            # allow configs to cap the theoretical (often astronomical) T
            sched = replace(sched, t_total=cfg.t_total)
        return sched
    if source == "manual":
        for key in ("gamma", "eta0", "eta1"):
            if key not in section:
                raise ParameterError(f"manual schedule needs {key!r}")
        return Schedule.from_manual(
            float(section["gamma"]), float(section["eta0"]), float(section["eta1"]),
            max(1, cfg.t_total), constants=problem.constants, mode=mode,
            epsilon=float(section.get("epsilon", 1.0)),
            check_feasible=not _flag(section, "allow_infeasible",
                                     "schedule"))
    raise ParameterError(f"unknown schedule source {source!r}")
