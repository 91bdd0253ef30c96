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

from ..core import DMaxProblem, ParameterError
from ..smag import Mode, Schedule, _check_decay, schedule_from_theory
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


# The default of a key a block must give.  A spec maps each key of a
# block to ``(kind, default)``; see :func:`_typed` for the kinds.
_REQUIRED = object()

_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a string", list: "a list", dict: "an object", None: "null"}


def _typed(v, kind, name: str):
    """``v`` as a value of ``kind``: a key of :data:`_KINDS`, ``[k]`` for a
    list of ``k``, or a tuple of these alternatives.  Types match exactly,
    so an integer is never a bool; a float is a finite int or float that
    is not a bool, returned as ``float(v)``."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for k in kinds:
        if isinstance(k, list) and isinstance(v, list):
            return [_typed(e, k[0], f"{name}[{i}]") for i, e in enumerate(v)]
        if k is float and type(v) in (int, float):
            if not math.isfinite(v):
                raise ParameterError(f"{name} must be finite, got {v!r}")
            return float(v)
        if type(v) is k or (k is None and v is None):
            return v
    raise ParameterError(f"{name} must be " + " or ".join(
        _KINDS[list if isinstance(k, list) else k] for k in kinds)
        + f", got {v!r}")


def _read(block, spec: dict, where: str) -> dict:
    """The values of config block ``where`` by ``spec``, defaults filled
    in.  A block that is not an object, an unknown or missing key and a
    value of the wrong kind raise ParameterError."""
    if not isinstance(block, dict):
        raise ParameterError(f"{where} must be an object, got {block!r}")
    unknown = [k for k in block if k not in spec]
    if unknown:
        raise ParameterError(f"unknown {where} keys: {unknown}")
    missing = [k for k, (_, d) in spec.items()
               if d is _REQUIRED and k not in block]
    if missing:
        raise ParameterError(f"{where} is missing keys: {missing}")
    return {k: _typed(block[k], kind, f"{where}.{k}") if k in block
            else copy.deepcopy(default) for k, (kind, default) in spec.items()}


_RUN = {
    "problem": (dict, _REQUIRED), "algorithm": (str, _REQUIRED),
    "seeds": ([int], _REQUIRED), "t_total": (int, _REQUIRED),
    "schedule": (dict, {}), "output_dir": (str, "experiment"),
    "trace_every": (int, 1), "x0": ((float, [float], None), None),
    "decay_milestones": ([int], []), "decay_factor": (float, 10.0),
    "shared_sample": (bool, False),
    # Accepted and hashed for existing configs; seeds run in lockstep in
    # one process whatever it says.
    "workers": (int, 1),
    "exact_metrics": ((bool, None), None),
    "lr": ((float, None), None), "lr_y": ((float, None), None),
}


@dataclass
class ExperimentConfig:
    """Validated view of a ``run`` config: one field per key of ``_RUN``."""

    problem: dict
    algorithm: str
    seeds: list
    t_total: int
    schedule: dict
    output_dir: str
    trace_every: int
    x0: Any
    decay_milestones: list
    decay_factor: float
    shared_sample: bool
    workers: int
    exact_metrics: Optional[bool]
    lr: Optional[float]
    lr_y: Optional[float]
    raw: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def from_dict(cfg: dict) -> "ExperimentConfig":
        ec = ExperimentConfig(**_read(cfg, _RUN, "config"),
                              raw=copy.deepcopy(cfg))
        ec.validate()
        return ec

    def validate(self) -> None:
        """The ranges and cross-key rules the types leave open."""
        if self.algorithm not in _ALGORITHMS:
            raise ParameterError(
                f"unknown algorithm {self.algorithm!r}; "
                f"expected one of {_ALGORITHMS}")
        if "kind" not in self.problem:
            raise ParameterError("problem must be an object with a 'kind'")
        if (not self.seeds or min(self.seeds) < 0
                or len(set(self.seeds)) != len(self.seeds)):
            raise ParameterError("seeds must be a non-empty list of "
                                 "distinct nonnegative integers")
        for key, low in (("t_total", 1), ("trace_every", 1), ("workers", 0)):
            if getattr(self, key) < low:
                raise ParameterError(f"{key} must be >= {low}")
        if min(self.decay_milestones, default=0) < 0:
            raise ParameterError("decay_milestones must be nonnegative")
        _check_decay(self.decay_milestones, self.decay_factor, self.t_total)
        if self.algorithm.startswith("smag") and not self.schedule:
            raise ParameterError("smag algorithms need a schedule object")
        for key in {"sgd": ("lr",), "sgda": ("lr", "lr_y")}.get(
                self.algorithm, ()):
            if getattr(self, key) is None or getattr(self, key) <= 0:
                raise ParameterError(f"{self.algorithm} needs a positive {key}")


def mode_for_algorithm(algorithm: str) -> Optional[Mode]:
    if algorithm.startswith("smag-"):
        return algorithm.split("-", 1)[1]  # type: ignore[return-value]
    return None


# The keys of each problem kind, past ``kind`` and ``m_bound``; the keys
# of ``PuParams``/``PaucParams`` and of a libsvm file are shared.
_PU = {"pi_p": (float, _REQUIRED), "batch_pos": (int, 64),
       "batch_unl": (int, 64)}
_PAUC = {"rho": (float, 0.3), "c": (float, 1.0), "alpha_fair": (float, 0.0),
         "lambda0": (float, 1.0), "batch_pos": (int, 64),
         "batch_neg": (int, 64), "batch_attr": (int, 64)}
_LIBSVM = {"path": (str, _REQUIRED), "dimension": ((int, None), None),
           "normalize": (bool, False)}
_PROBLEMS = {
    "onedim-dwc": {
        "a": (float, 1.0), "b": (float, 0.5), "kappa_phi": (float, 0.0),
        "kappa_psi": (float, 0.0), "center_phi": (float, 0.0),
        "center_psi": (float, 0.0), "noise_sigma": (float, 0.0),
        "dim": (int, 1), "allow_unbounded": (bool, False)},
    "quadratic-minmax": {"dim": (int, 1), "noise_sigma": (float, 0.0)},
    "pu-synth": {**_PU, "n_pos": (int, 500), "n_unl": (int, 2000),
                 "dim": (int, 10), "separation": (float, 1.5),
                 "data_seed": (int, 0)},
    "pu-libsvm": {**_PU, **_LIBSVM},
    "pauc-synth": {**_PAUC, "n": (int, 4000), "dim": (int, 20),
                   "data_seed": (int, 0), "sep_label": (float, 1.0),
                   "sep_group": (float, 1.0), "skew": (float, 0.65)},
    "pauc-libsvm": {**_PAUC, **_LIBSVM,
                    "sensitive_feature": ((int, None), None)},
}


def build_problem(section: dict) -> DMaxProblem:
    """Construct the problem object a config's ``problem`` block describes."""
    kind = section.get("kind") if isinstance(section, dict) else None
    if not isinstance(kind, str) or kind not in _PROBLEMS:
        raise ParameterError(f"unknown problem kind {kind!r}; expected one "
                             f"of {list(_PROBLEMS)}")
    p = _read(section, {"kind": (str, _REQUIRED),
                        "m_bound": ((float, None), None), **_PROBLEMS[kind]},
              "problem")
    del p["kind"]
    m_bound = p.pop("m_bound")
    if kind == "onedim-dwc":
        return make_onedim_dwc(**p, m_bound=m_bound)
    if kind == "quadratic-minmax":
        return make_quadratic_minmax(**p, m_bound=m_bound)
    if kind.endswith("-libsvm"):
        data = load_libsvm(p.pop("path"), p.pop("dimension"),
                           p.pop("normalize"))
    if kind.startswith("pu-"):
        params = PuParams(**{k: p.pop(k) for k in _PU})
        if kind == "pu-synth":
            pos, unl = synth_gaussian_pu(pi_p=params.pi_p,
                                         seed=p.pop("data_seed"), **p)
        else:
            # the whole file, labels hidden, forms the unlabeled pool
            pos, unl = data.subset(data.labels == 1), data
        return make_pu_problem(pos, unl, params, m_bound=m_bound)
    params = PaucParams(**{k: p.pop(k) for k in _PAUC})
    if kind == "pauc-synth":
        data = synth_biased_pauc(seed=p.pop("data_seed"), **p)
    elif p["sensitive_feature"] is not None:
        col = p["sensitive_feature"]
        if not 1 <= col <= data.dimension:
            raise ParameterError(
                f"sensitive_feature {col} outside 1..{data.dimension}")
        attr = np.where(data.features[:, col - 1] > 0, 1, -1).astype(np.int8)
        data = LabeledDataset(data.features, data.labels, attr)
    return pauc_fair_problem(data, params, m_bound=m_bound)


_SCHEDULES = {
    "manual": {"gamma": (float, _REQUIRED), "eta0": (float, _REQUIRED),
               "eta1": (float, _REQUIRED), "epsilon": (float, 1.0),
               "allow_infeasible": (bool, False)},
    "theory": {"gamma": (float, _REQUIRED), "epsilon": (float, _REQUIRED),
               "gap_plus_p0": (float, 1.0)},
}


def build_schedule(cfg: ExperimentConfig,
                   problem: DMaxProblem) -> Schedule:
    """Realize the schedule block against the problem's constants."""
    mode = mode_for_algorithm(cfg.algorithm)
    if mode is None:
        raise ParameterError("baselines do not take a schedule")
    source = _typed(cfg.schedule.get("source", "manual"), str,
                    "schedule.source")
    if source not in _SCHEDULES:
        raise ParameterError(f"unknown schedule source {source!r}")
    s = _read(cfg.schedule, {"source": (str, "manual"), **_SCHEDULES[source]},
              "schedule")
    if source == "theory":
        # t_total replaces the theoretical (often astronomical) T
        return replace(schedule_from_theory(
            problem.constants, s["gamma"], s["epsilon"], mode=mode,
            gap_plus_p0=s["gap_plus_p0"]), t_total=cfg.t_total)
    return Schedule.from_manual(
        s["gamma"], s["eta0"], s["eta1"], cfg.t_total,
        constants=problem.constants, mode=mode, epsilon=s["epsilon"],
        check_feasible=not s["allow_infeasible"])
