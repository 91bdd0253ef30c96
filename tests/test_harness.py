"""Tests for the experiment harness: grad-check, configs, runner, CLI."""

import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import dmaxopt
from dmaxopt.core import (
    CapabilityError,
    DMaxProblem,
    ExactAux,
    ParameterError,
    ProblemConstants,
)
from dmaxopt.harness import (
    ExperimentConfig,
    RunAborted,
    apply_overrides,
    build_problem,
    build_schedule,
    config_hash,
    grad_check,
    load_config,
    mode_for_algorithm,
    read_trace,
    run_experiment,
    trace_payload,
)
from dmaxopt.harness.cli import main
from dmaxopt.problems import make_onedim_dwc, make_quadratic_minmax


# ---------------------------------------------------------------------------
# grad-check


def test_grad_check_onedim_is_accurate():
    prob = make_onedim_dwc(1.0, 0.5)
    aux = prob.exact_aux
    # Phi's exact maps only: Psi's envelope comes from its function oracle
    phi_maps_only = dataclasses.replace(prob, exact_aux=ExactAux(
        prox_phi=aux.prox_phi, value_phi=aux.value_phi))
    for p in (prob, phi_maps_only):
        rep = grad_check(p, 1.0, n_points=10, min_kink_gap=0.1, seed=0)
        assert rep.max_rel_err < 1e-6
        assert rep.n_checked == 10
        assert rep.n_rejected >= 0


def test_grad_check_minmax_uses_exact_aux():
    prob = make_quadratic_minmax(dim=2)
    rep = grad_check(prob, 0.5, n_points=5, min_kink_gap=0.05, seed=1)
    assert rep.max_rel_err < 1e-6


def test_grad_check_deterministic_in_seed():
    prob = make_onedim_dwc(1.0, 0.5)
    a = grad_check(prob, 1.0, n_points=5, min_kink_gap=0.1, seed=3)
    b = grad_check(prob, 1.0, n_points=5, min_kink_gap=0.1, seed=3)
    assert a == b


def test_grad_check_resample_failure():
    prob = make_onedim_dwc(1.0, 0.5)
    # every point of [-3,3] is within 5 of a kink at gamma=1
    with pytest.raises(RuntimeError, match="resample failure"):
        grad_check(prob, 1.0, n_points=3, min_kink_gap=5.0)


def test_grad_check_needs_envelope_machinery():
    prob = DMaxProblem(
        dim_x=1,
        constants=ProblemConstants(m_bound=1.0),
        phi_subgrad_x=lambda x, y, tok: np.zeros(1),
        psi_subgrad_x=lambda x, z, tok: np.zeros(1),
    )
    with pytest.raises(CapabilityError):
        grad_check(prob, 1.0, n_points=2)


def test_grad_check_fails_on_non_finite_differences():
    # at |x| ~ 1e160 Phi's curvature term overflows, so every difference
    # is inf - inf: a NaN error must fail the check, not be dropped
    prob = make_onedim_dwc(1.0, 0.5, kappa_phi=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = grad_check(prob, 0.5, n_points=5, sample_box=(1e160, 2e160))
    assert rep.max_rel_err == math.inf and rep.n_checked == 5


def test_grad_check_validation():
    prob = make_onedim_dwc(1.0, 0.5)
    with pytest.raises(ParameterError):
        grad_check(prob, 1.0, h=0.0)
    with pytest.raises(ParameterError):
        grad_check(prob, 1.0, n_points=0)
    for box in ((3.0, -3.0), (1.0,), (), (0.0, 1.0, 5.0), (0.0, math.nan)):
        with pytest.raises(ParameterError, match="sample_box"):
            grad_check(prob, 1.0, sample_box=box)


@pytest.mark.parametrize("box", ["[1.0]", "[]", "[0, 1, 5]"])
def test_cli_grad_check_refuses_a_box_that_is_not_a_pair(tmp_path, capsys,
                                                          box):
    # [1.0] and [] ended in an IndexError traceback; [0, 1, 5] ran on [0, 1]
    cfg = {"problem": {"kind": "quadratic-minmax", "dim": 2}, "gamma": 0.5,
           "n_points": 2}
    assert _main(tmp_path, "grad-check", cfg, f"sample_box={box}") == 2
    assert "sample_box must be an increasing pair" in capsys.readouterr().err


def test_a_negative_sample_or_data_seed_exits_2(tmp_path, capsys):
    # token_generator keys hold 64 bits: -1 drew what 2**64 - 1 draws
    cfg = {"problem": {"kind": "onedim-dwc"}, "gamma": 1.0, "n_points": 2}
    assert _main(tmp_path, "grad-check", cfg, "seed=-1") == 2
    assert "below 2**64" in capsys.readouterr().err
    pu = {"kind": "pu-synth", "pi_p": 0.5, "n_pos": 20, "n_unl": 30,
          "dim": 4, "data_seed": -1}
    assert _main(tmp_path, "run", _good_cfg(problem=pu)) == 2
    assert "below 2**64" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# configs


def test_load_config_requires_object(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(ParameterError):
        load_config(p)
    p.write_text('{"a": 1}')
    assert load_config(p) == {"a": 1}


def test_apply_overrides_dotted_and_typed():
    base = {"schedule": {"gamma": 0.5}, "seeds": [0]}
    out = apply_overrides(base, ["schedule.gamma=1.0", "seeds=[1,2]",
                                 "problem.kind=onedim-dwc", "t_total=10"])
    assert out["schedule"]["gamma"] == 1.0
    assert out["seeds"] == [1, 2]
    assert out["problem"] == {"kind": "onedim-dwc"}  # string fallback
    assert out["t_total"] == 10
    assert base["schedule"]["gamma"] == 0.5  # original untouched
    with pytest.raises(ParameterError):
        apply_overrides(base, ["no_equals_sign"])


def test_config_hash_canonical():
    a = {"x": 1, "y": {"z": [1, 2]}}
    b = {"y": {"z": [1, 2]}, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": 2, "y": {"z": [1, 2]}})
    assert len(config_hash(a)) == 64


def _good_cfg(**over):
    cfg = {
        "problem": {"kind": "onedim-dwc", "noise_sigma": 0.1},
        "algorithm": "smag-dwc",
        "seeds": [0, 1],
        "t_total": 20,
        "x0": 2.0,
        "schedule": {"source": "manual", "gamma": 0.5,
                     "eta0": 0.005, "eta1": 0.01},
        "output_dir": "toy",
    }
    cfg.update(over)
    return cfg


def test_experiment_config_validation():
    ExperimentConfig.from_dict(_good_cfg())
    with pytest.raises(ParameterError, match="unknown config keys"):
        ExperimentConfig.from_dict(_good_cfg(bogus=1))
    with pytest.raises(ParameterError, match="missing"):
        ExperimentConfig.from_dict({"problem": {"kind": "onedim-dwc"}})
    with pytest.raises(ParameterError, match="algorithm"):
        ExperimentConfig.from_dict(_good_cfg(algorithm="adam"))
    with pytest.raises(ParameterError, match="seeds"):
        ExperimentConfig.from_dict(_good_cfg(seeds=[0, 0]))
    with pytest.raises(ParameterError, match="seeds"):
        ExperimentConfig.from_dict(_good_cfg(seeds=[-1]))
    with pytest.raises(ParameterError, match="schedule"):
        ExperimentConfig.from_dict(_good_cfg(schedule={}))
    with pytest.raises(ParameterError, match="lr"):
        ExperimentConfig.from_dict(_good_cfg(algorithm="sgd"))
    with pytest.raises(ParameterError, match="lr_y"):
        ExperimentConfig.from_dict(_good_cfg(algorithm="sgda", lr=0.1))
    with pytest.raises(ParameterError, match="t_total must be >= 1"):
        ExperimentConfig.from_dict(_good_cfg(t_total=0))
    with pytest.raises(ParameterError, match="config must be an object"):
        ExperimentConfig.from_dict([_good_cfg()])
    with pytest.raises(ParameterError, match="object with a 'kind'"):
        ExperimentConfig.from_dict(_good_cfg(problem={"dim": 3}))


@pytest.mark.parametrize("key, value", [
    ("seeds", [True, 2]), ("seeds", [1.0, 2]), ("t_total", True),
    ("t_total", 20.0), ("trace_every", 1.5), ("trace_every", True),
    ("workers", 1.5), ("workers", False), ("decay_milestones", 5),
    ("decay_milestones", [10, 2.5]), ("decay_milestones", [True]),
    ("decay_milestones", [-1]), ("decay_factor", True),
    ("decay_factor", "2"), ("decay_factor", 0), ("shared_sample", "false"),
    ("shared_sample", 0),
    # no longer a key: refused as unknown, naming the key
    ("exact_metrics", "true"), ("exact_metrics", 1)])
def test_config_integers_reject_bools_and_fractions(key, value):
    with pytest.raises(ParameterError, match=key):
        ExperimentConfig.from_dict(_good_cfg(**{key: value}))


@pytest.mark.parametrize("over, key", [
    ({"algorithm": "sgd", "lr": True}, "lr"),
    ({"algorithm": "sgd", "lr": "0.1"}, "lr"),
    ({"algorithm": "sgd", "lr": math.nan}, "lr"),
    ({"algorithm": "sgd", "lr": math.inf}, "lr"),
    ({"algorithm": "sgda", "lr": 0.1, "lr_y": math.nan}, "lr_y"),
    ({"algorithm": "sgda", "lr": 0.1, "lr_y": -math.inf}, "lr_y"),
    ({"algorithm": "sgda", "lr": 0.1, "lr_y": False}, "lr_y"),
    ({"decay_factor": math.nan}, "decay_factor"),
    ({"decay_factor": math.inf}, "decay_factor")])
def test_config_step_sizes_and_decay_must_be_finite_numbers(over, key):
    with pytest.raises(ParameterError, match=key):
        ExperimentConfig.from_dict(_good_cfg(**over))


def test_config_refuses_a_decay_scale_that_overflows(tmp_path, capsys):
    over = dict(decay_milestones=[0, 1], decay_factor=1e-200)
    with pytest.raises(ParameterError, match=r"^decay_factor \*\* -2 "):
        ExperimentConfig.from_dict(_good_cfg(**over))
    # milestones at or past t_total do not count
    ExperimentConfig.from_dict(_good_cfg(t_total=1, **over))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_good_cfg(**over)))
    assert main(["run", str(path), "--output-root", str(tmp_path)]) == 2
    assert "decay_factor ** -2" in capsys.readouterr().err


def test_config_refuses_a_step_size_that_the_decay_takes_to_zero(
        tmp_path, capsys):
    over = dict(decay_milestones=[0, 1], decay_factor=1e200)
    for algo, name in (({"algorithm": "sgd", "lr": 0.1}, "lr"),
                       ({"algorithm": "sgda", "lr": 0.1, "lr_y": 0.1}, "lr")):
        with pytest.raises(ParameterError,
                           match=rf"^{name} \* decay_factor \*\* -2 "):
            ExperimentConfig.from_dict(_good_cfg(**algo, **over))
    # a smag schedule's step sizes are refused when its run starts, before
    # the output directory is made
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_good_cfg(**over)))
    assert main(["run", str(path), "--output-root", str(tmp_path / "out")]
                ) == 2
    assert "* decay_factor ** -2 underflows to 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_refuses_a_step_size_that_the_decay_takes_to_inf(
        tmp_path, capsys):
    over = dict(algorithm="sgd", lr=1e300, decay_milestones=[0],
                decay_factor=1e-300)
    with pytest.raises(ParameterError,
                       match=r"^lr \* decay_factor \*\* -1 overflows to inf"):
        ExperimentConfig.from_dict(_good_cfg(**over))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_good_cfg(**over)))
    assert main(["run", str(path), "--output-root", str(tmp_path / "out")]
                ) == 2
    assert "lr * decay_factor ** -1 overflows to inf" in (
        capsys.readouterr().err)


def test_importing_the_harness_leaves_concurrent_futures_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(dmaxopt.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, dmaxopt.harness; "
            "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "False"


def test_mode_for_algorithm():
    assert mode_for_algorithm("smag-dmax") == "dmax"
    assert mode_for_algorithm("smag-dwc") == "dwc"
    assert mode_for_algorithm("smag-minmax") == "minmax"
    assert mode_for_algorithm("sgd") is None


def test_build_problem_kinds(tmp_path):
    assert build_problem({"kind": "onedim-dwc"}).name == "onedim-dwc"
    assert build_problem({"kind": "quadratic-minmax",
                          "dim": 3}).dim_x == 3
    pu = build_problem({"kind": "pu-synth", "pi_p": 0.5, "n_pos": 20,
                        "n_unl": 30, "dim": 4})
    assert pu.name == "pu-hinge" and pu.dim_x == 4
    with pytest.raises(ParameterError, match="pi_p"):
        build_problem({"kind": "pu-synth"})
    pauc = build_problem({"kind": "pauc-synth", "n": 40, "dim": 3,
                          "alpha_fair": 0.5})
    assert pauc.name == "pauc-fair/2"
    with pytest.raises(ParameterError, match="kind"):
        build_problem({"kind": "nope"})
    with pytest.raises(ParameterError):
        build_problem({})


@pytest.mark.parametrize("section, key", [
    # no longer a key: refused as unknown, naming the key
    ({"kind": "onedim-dwc", "allow_unbounded": "false"}, "allow_unbounded"),
    ({"kind": "onedim-dwc", "allow_unbounded": 0}, "allow_unbounded"),
    ({"kind": "onedim-dwc", "dim": 2.7}, "dim"),
    ({"kind": "onedim-dwc", "dim": True}, "dim"),
    ({"kind": "quadratic-minmax", "dim": 2.0}, "dim"),
    ({"kind": "quadratic-minmax", "dim": "3"}, "dim"),
    ({"kind": "pu-synth", "pi_p": 0.5, "n_pos": 20.5}, "n_pos"),
    ({"kind": "pu-synth", "pi_p": 0.5, "n_unl": True}, "n_unl"),
    ({"kind": "pu-synth", "pi_p": 0.5, "batch_pos": 8.5}, "batch_pos"),
    ({"kind": "pu-synth", "pi_p": 0.5, "batch_unl": False}, "batch_unl"),
    ({"kind": "pu-synth", "pi_p": 0.5, "data_seed": 1.5}, "data_seed"),
    ({"kind": "pauc-synth", "n": 40.5, "dim": 3}, "n"),
    ({"kind": "pauc-synth", "n": 40, "dim": 3, "batch_neg": 1.5},
     "batch_neg"),
    ({"kind": "pauc-synth", "n": 40, "dim": 3, "batch_attr": True},
     "batch_attr")])
def test_problem_flags_and_integers_reject_strings_bools_and_fractions(
        section, key):
    with pytest.raises(ParameterError, match=key):
        build_problem(section)


def test_libsvm_flags_and_columns_reject_strings_and_fractions(tmp_path):
    p = tmp_path / "toy.libsvm"
    p.write_text("+1 1:1.0 2:0.5\n-1 1:-1.0 2:0.3\n")
    for section, key in (
            ({"kind": "pu-libsvm", "pi_p": 0.5, "normalize": "false"},
             "normalize"),
            ({"kind": "pauc-libsvm", "normalize": 1}, "normalize"),
            ({"kind": "pauc-libsvm", "sensitive_feature": 1.5},
             "sensitive_feature"),
            ({"kind": "pauc-libsvm", "sensitive_feature": True},
             "sensitive_feature")):
        with pytest.raises(ParameterError, match=key):
            build_problem(dict(section, path=str(p)))


def test_schedule_flag_rejects_strings():
    # "false" is truthy: read with bool() it would switch the caps off
    for flag in ("false", "true", 0):
        cfg = ExperimentConfig.from_dict(_good_cfg(
            problem={"kind": "quadratic-minmax"}, algorithm="smag-minmax",
            schedule={"source": "manual", "gamma": 0.5, "eta0": 5.0,
                      "eta1": 5.0, "allow_infeasible": flag}))
        with pytest.raises(ParameterError, match="allow_infeasible"):
            build_schedule(cfg, build_problem(cfg.problem))


def test_build_problem_libsvm_kinds(tmp_path):
    p = tmp_path / "toy.libsvm"
    p.write_text("+1 1:1.0 2:0.5\n+1 1:0.8 2:-0.2\n-1 1:-1.0 2:0.3\n"
                 "-1 1:-0.7 2:-0.6\n")
    pu = build_problem({"kind": "pu-libsvm", "path": str(p), "pi_p": 0.5,
                        "batch_pos": 2, "batch_unl": 2})
    assert pu.name == "pu-hinge" and pu.dim_x == 2
    with pytest.raises(ParameterError, match="pi_p"):
        build_problem({"kind": "pu-libsvm", "path": str(p)})
    pauc = build_problem({"kind": "pauc-libsvm", "path": str(p),
                          "sensitive_feature": 2, "alpha_fair": 0.1})
    assert pauc.name == "pauc-fair/2"
    with pytest.raises(ParameterError, match="sensitive_feature"):
        build_problem({"kind": "pauc-libsvm", "path": str(p),
                       "sensitive_feature": 9})


def test_build_schedule_manual_and_theory():
    cfg = ExperimentConfig.from_dict(_good_cfg())
    prob = build_problem(cfg.problem)
    sched = build_schedule(cfg, prob)
    assert sched.t_total == 20 and sched.gamma == 0.5

    theory = _good_cfg(schedule={"source": "theory", "gamma": 0.5,
                                 "epsilon": 0.5})
    cfg_t = ExperimentConfig.from_dict(theory)
    sched_t = build_schedule(cfg_t, prob)
    assert sched_t.t_total == 20  # capped by config t_total
    assert sched_t.epsilon == 0.5

    missing = _good_cfg(schedule={"source": "manual", "gamma": 0.5})
    with pytest.raises(ParameterError, match="eta0"):
        build_schedule(ExperimentConfig.from_dict(missing), prob)
    bad_src = _good_cfg(schedule={"source": "mystery", "gamma": 0.5})
    with pytest.raises(ParameterError, match="source"):
        build_schedule(ExperimentConfig.from_dict(bad_src), prob)
    baseline = ExperimentConfig.from_dict(
        _good_cfg(algorithm="sgd", lr=0.1, schedule={}))
    with pytest.raises(ParameterError):
        build_schedule(baseline, prob)


def test_build_schedule_infeasible_override():
    cfg = ExperimentConfig.from_dict(_good_cfg(
        schedule={"source": "manual", "gamma": 0.5, "eta0": 50.0,
                  "eta1": 50.0}))
    prob = build_problem(cfg.problem)
    with pytest.raises(ParameterError):
        build_schedule(cfg, prob)
    loose = ExperimentConfig.from_dict(_good_cfg(
        schedule={"source": "manual", "gamma": 0.5, "eta0": 50.0,
                  "eta1": 50.0, "allow_infeasible": True}))
    sched = build_schedule(loose, prob)
    assert sched.eta1 == 50.0


# ---------------------------------------------------------------------------
# runner


def test_run_experiment_writes_traces_and_summary(tmp_path):
    res = run_experiment(_good_cfg(), output_root=str(tmp_path))
    assert sorted(res.trace_paths) == [0, 1]
    assert res.aborted_seeds == []
    for seed, path in res.trace_paths.items():
        meta, records = read_trace(path)
        assert meta["format"] == "dmaxopt-trace v1"
        assert meta["config_hash"] == res.cfg_hash
        assert meta["seed"] == str(seed)
        assert meta["algorithm"] == "smag-dwc"
        assert meta["problem"] == "onedim-dwc"
        assert meta["stationarity"] == "exact-envelope-grad"
        assert meta["objective"] == "full-data"
        assert [r.t for r in records] == list(range(1, 21))
        assert all(r.seed == seed for r in records)
        assert not math.isnan(records[-1].objective)
    with open(res.summary_path) as fh:
        text = fh.read()
    assert f"# config_hash: {res.cfg_hash}" in text
    assert "final_objective" in text and "final_stationarity" in text


def test_run_experiment_is_bit_reproducible(tmp_path):
    r1 = run_experiment(_good_cfg(), output_root=str(tmp_path / "a"))
    r2 = run_experiment(_good_cfg(), output_root=str(tmp_path / "b"))
    for seed in (0, 1):
        assert trace_payload(r1.trace_paths[seed]) == \
               trace_payload(r2.trace_paths[seed])


def test_run_experiment_pool_matches_serial(tmp_path):
    # ``workers`` is still accepted and hashed, but starts no processes
    serial = run_experiment(_good_cfg(output_dir="s", workers=1),
                            output_root=str(tmp_path))
    pooled = run_experiment(_good_cfg(output_dir="p", workers=2),
                            output_root=str(tmp_path))
    for seed in (0, 1):
        meta_s, rows_s = trace_payload(serial.trace_paths[seed])
        meta_p, rows_p = trace_payload(pooled.trace_paths[seed])
        assert rows_s == rows_p
        # workers and output_dir are part of the config, hence the hash;
        # everything else about the runs must agree
        for m in (meta_s, meta_p):
            m.pop("config_hash")
        assert meta_s == meta_p


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_experiment_abort_keeps_traces(tmp_path):
    cfg = {
        "problem": {"kind": "quadratic-minmax", "dim": 1},
        "algorithm": "smag-minmax",
        "seeds": [0],
        "t_total": 400,
        "x0": 1.0,
        "schedule": {"source": "manual", "gamma": 0.5, "eta0": 100.0,
                     "eta1": 100.0, "allow_infeasible": True},
        "output_dir": "boom",
    }
    with pytest.raises(RunAborted) as exc_info:
        run_experiment(cfg, output_root=str(tmp_path))
    result = exc_info.value.result
    assert result.aborted_seeds == [0]
    meta, records = read_trace(result.trace_paths[0])
    assert "aborted" in meta
    assert len(records) >= 1  # partial trace was kept


def test_run_experiment_sgd_baseline(tmp_path):
    cfg = {
        "problem": {"kind": "onedim-dwc", "noise_sigma": 0.1},
        "algorithm": "sgd",
        "seeds": [0],
        "t_total": 15,
        "x0": 2.0,
        "lr": 0.05,
        "output_dir": "sgd",
    }
    res = run_experiment(cfg, output_root=str(tmp_path))
    meta, records = read_trace(res.trace_paths[0])
    assert meta["stationarity"] == "step-direction-norm"
    assert all(math.isnan(r.p_t) for r in records)  # blank column round-trips


def test_run_experiment_env_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("DMAXOPT_OUTPUT_ROOT", str(tmp_path / "envroot"))
    res = run_experiment(_good_cfg())
    assert res.output_dir.startswith(str(tmp_path / "envroot"))


# the header line of a trace CSV
_HEADER = ["t", "objective", "stationarity", "p_t", "elapsed_ms", "seed"]


def test_trace_rows_are_the_bytes_csv_writer_writes(tmp_path):
    from dmaxopt.core import RunRecord
    from dmaxopt.harness.runner import _write_trace
    vals = [0.1, -0.0, 1e-310, 1.7976931348623157e308, math.inf,
            -math.inf, math.nan, 2.0 / 3.0, 12345678.9]
    records = [RunRecord(t, vals[t % 9], vals[(t + 3) % 9],
                         vals[(t + 5) % 9], 1e3 * t / 7.0, 10 ** 12 + t)
               for t in range(27)]
    path = tmp_path / "trace.csv"
    _write_trace(str(path), {"seed": 3}, records)

    def cell(v):
        return "" if math.isnan(v) else format(v, ".17g")

    want = io.StringIO(newline="")
    want.write("# seed: 3\n")
    writer = csv.writer(want)
    writer.writerow(_HEADER)
    for r in records:
        writer.writerow([r.t, cell(r.objective), cell(r.stationarity),
                         cell(r.p_t), cell(r.elapsed_ms), r.seed])
    assert path.read_bytes() == want.getvalue().encode("utf-8")


def test_trace_blocks_are_the_bytes_csv_writer_writes(tmp_path,
                                                      monkeypatch):
    # blocks of 4 rows: the objective holds a NaN in the second block only,
    # so one block writes that column with %.17g and the next with %s
    from dmaxopt.core import RunRecord
    from dmaxopt.harness import runner
    monkeypatch.setattr(runner, "_ROW_BLOCK", 4)
    records = [RunRecord(t, math.nan if t == 6 else t / 3.0,
                         -0.0 if t % 2 else math.inf, math.nan, 0.1 * t, 7)
               for t in range(1, 11)]
    path = tmp_path / "trace.csv"
    runner._write_trace(str(path), {"seed": 7}, records)
    want = io.StringIO(newline="")
    want.write("# seed: 7\n")
    writer = csv.writer(want)
    writer.writerow(_HEADER)
    for r in records:
        writer.writerow([r.t] + ["" if math.isnan(v) else format(v, ".17g")
                                 for v in (r.objective, r.stationarity,
                                           r.p_t, r.elapsed_ms)] + [r.seed])
    assert path.read_bytes() == want.getvalue().encode("utf-8")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_trace_payload_equals_the_reformatted_records(tmp_path):
    """``trace_payload`` keeps the float fields as written; on traces of
    the writer that equals reading them back and formatting each float
    again with ``.17g`` (NaN blank), its definition before."""
    def cell(v):
        return "" if math.isnan(v) else format(v, ".17g")

    quad = {"kind": "quadratic-minmax", "dim": 3, "noise_sigma": 0.1}
    cfgs = [
        _good_cfg(output_dir="dwc"),
        _good_cfg(output_dir="minmax", problem=quad, algorithm="smag-minmax",
                  x0=1.0),
        _good_cfg(output_dir="sgd", algorithm="sgd", lr=0.05, schedule={}),
        {"problem": {"kind": "quadratic-minmax", "dim": 1},
         "algorithm": "smag-minmax", "seeds": [0], "t_total": 400,
         "x0": 1.0, "output_dir": "boom",
         "schedule": {"source": "manual", "gamma": 0.5, "eta0": 100.0,
                      "eta1": 100.0, "allow_infeasible": True}},
    ]
    payloads = {}
    for cfg in cfgs:
        try:
            res = run_experiment(cfg, output_root=str(tmp_path))
        except RunAborted as exc:
            res = exc.result
        for path in res.trace_paths.values():
            meta, records = read_trace(path)
            want = (meta, [(r.t, cell(r.objective), cell(r.stationarity),
                            cell(r.p_t), r.seed) for r in records])
            assert trace_payload(path) == want
            payloads[cfg["output_dir"], path] = want
    assert len(payloads) == 7
    for (name, _), (meta, rows) in payloads.items():
        # sgd leaves p_t blank; the aborted run keeps its reason
        assert all((r[3] == "") == (name == "sgd") for r in rows)
        assert ("aborted" in meta) == (name == "boom")
    # a trace rewritten with \n line ends reads the same
    with open(path, newline="") as fh:
        text = fh.read()
    with open(path, "w", newline="") as fh:
        fh.write(text.replace("\r\n", "\n"))
    assert trace_payload(path) == want


def test_read_trace_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ParameterError, match="header"):
        read_trace(str(bad))
    empty = tmp_path / "empty.csv"
    empty.write_text("# only: meta\n")
    with pytest.raises(ParameterError, match="no trace header"):
        read_trace(str(empty))
    # a row with the wrong field count or a field that does not parse
    # names the file and its line
    head = "# seed: 0\nt,objective,stationarity,p_t,elapsed_ms,seed\r\n"
    good = "1,0.5,0.25,,1.5,0\r\n"
    rows = tmp_path / "rows.csv"
    for body, line in [
            (good + "2,0.5,0.25,1.5,0\r\n", 4),
            (good + "\r\n" + "2,0.5,0.25,,1.5,0,9\r\n", 5),
            ("1,0.5,x,,1.5,0\r\n", 3), (good + "2.0,0.5,0.25,,1.5,0\r\n", 4),
            (good * 2 + "3,0.5,0.25,,1.5,\r\n", 5)]:
        rows.write_text(head + body, newline="")
        where = f"^{re.escape(str(rows))}, line {line}: "
        for reader in (read_trace, trace_payload):
            with pytest.raises(ParameterError, match=where):
                reader(str(rows))
    rows.write_text(head + "\r\n" + good + "\n", newline="")
    assert trace_payload(str(rows))[1] == [(1, "0.5", "0.25", "", 0)]


@pytest.mark.parametrize("field", [
    "0.5", "-0", "1e999", "1e-999", "inf", "-Infinity", "NaN", " 1.5",
    "1.5 ", "1_000.5", "\u0661\u0665", ".5", "5.", "+1", "1__0", "_1", "1_",
    "1.2.3", "1e", "e1", "1e+", "--1", "0x10", "1.5x", "\u0661.\u0665e+\u0661"])
def test_trace_float_fields_parse_as_float_does(field, tmp_path):
    # the reader parses one field of each digit shape of a column; it must
    # take and refuse exactly the fields float() does
    path = tmp_path / "trace.csv"
    path.write_text("t,objective,stationarity,p_t,elapsed_ms,seed\n"
                    f"1,0.5,0.25,,1.5,0\n2,0.5,{field},,1.5,0\n",
                    encoding="utf-8")
    try:
        float(field)
    except ValueError:
        for reader in (trace_payload, read_trace):
            with pytest.raises(ParameterError, match=", line 3: "):
                reader(str(path))
        return
    assert trace_payload(str(path))[1][1] == (2, "0.5", field, "", 0)
    assert repr(read_trace(str(path))[1][1].stationarity) == \
        repr(float(field))


# ---------------------------------------------------------------------------
# CLI


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_cli_run(tmp_path, capsys):
    path = _write_cfg(tmp_path, _good_cfg())
    code = main(["run", path, "--output-root", str(tmp_path / "out"),
                 "--set", "t_total=5", "--set", "seeds=[3]"])
    out = capsys.readouterr().out
    assert code == 0
    assert "config_hash" in out
    assert "seed 3:" in out
    trace = os.path.join(str(tmp_path / "out"), "toy", "trace_seed3.csv")
    assert os.path.exists(trace)
    _, records = read_trace(trace)
    assert [r.t for r in records] == [1, 2, 3, 4, 5]


def test_cli_run_bad_config(tmp_path, capsys):
    path = _write_cfg(tmp_path, _good_cfg(bogus=1))
    assert main(["run", path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("over", [
    {"seeds": [0, 2 ** 64]},
    {"problem": {"kind": "pu-libsvm", "path": "missing.libsvm",
                 "pi_p": 0.5}},
    {"problem": {"kind": "onedim-dwc", "a": 0.5, "b": 1.0}},
    {"x0": [1.0, 2.0]}])
def test_cli_run_refused_at_build_leaves_no_output_dir(tmp_path, capsys,
                                                       over):
    # the config passes validation; building its streams or problem, or
    # starting its run, fails
    if "problem" in over and "path" in over["problem"]:
        over["problem"]["path"] = str(tmp_path / "missing.libsvm")
    ExperimentConfig.from_dict(_good_cfg(**over))
    path = _write_cfg(tmp_path, _good_cfg(**over))
    root = tmp_path / "out"
    assert main(["run", path, "--output-root", str(root)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not root.exists()


@pytest.mark.parametrize("problem", [
    {"kind": "onedim-dwc"},
    {"kind": "pu-synth", "pi_p": 0.5, "n_pos": 20, "n_unl": 30, "dim": 4}])
def test_cli_run_sgda_on_a_problem_without_a_dual_is_a_config_error(
        tmp_path, capsys, problem):
    path = _write_cfg(tmp_path, _good_cfg(problem=problem, algorithm="sgda",
                                          lr=0.05, lr_y=0.05))
    assert main(["run", path, "--output-root", str(tmp_path / "out")]) == 2
    assert "needs a dual oracle and set" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_run_abort_exit_code(tmp_path, capsys):
    cfg = {
        "problem": {"kind": "quadratic-minmax", "dim": 1},
        "algorithm": "smag-minmax",
        "seeds": [0],
        "t_total": 400,
        "x0": 1.0,
        "schedule": {"source": "manual", "gamma": 0.5, "eta0": 100.0,
                     "eta1": 100.0, "allow_infeasible": True},
        "output_dir": "boomcli",
    }
    path = _write_cfg(tmp_path, cfg)
    code = main(["run", path, "--output-root", str(tmp_path / "out")])
    assert code == 3
    assert "runtime failure" in capsys.readouterr().err


# The schedule config of the README.
_SCHEDULE_CFG = {
    "constants": {"delta_phi": 1.0, "delta_psi": 1.0, "mu_phi": 1.0,
                  "mu_psi": 1.0, "l_phi_yx": 1.0, "l_psi_zx": 1.0,
                  "m_bound": 1.0},
    "gamma": 0.5,
    "epsilon": 0.1,
    "mode": "dmax",
}


def test_cli_schedule_frozen_example(tmp_path, capsys):
    path = _write_cfg(tmp_path, _SCHEDULE_CFG)
    assert main(["schedule", path]) == 0
    out = capsys.readouterr().out
    assert "alpha = 0.25" in out
    assert "eta1 = 1.0172526041666669e-07" in out
    assert "t_total = 32212254720000" in out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["tau"] == 0.00390625
    missing = _write_cfg(tmp_path, {"gamma": 0.5}, name="missing.json")
    assert main(["schedule", missing]) == 2


@pytest.mark.parametrize("override, message", [
    ("constants.m_bound=1e200", "is not a finite positive number"),
    ("constants.m_bound=Infinity", "m_bound must be finite"),
    ("epsilon=1e-200", "leaves the float range"),
    ("constants.delta_phi=NaN", "delta_phi must be finite")])
def test_cli_schedule_out_of_the_float_range_is_a_config_error(
        tmp_path, capsys, override, message):
    path = _write_cfg(tmp_path, _SCHEDULE_CFG)
    assert main(["schedule", path, "--set", override]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["quadratic-minmax", "onedim-dwc"])
def test_cli_run_smag_dmax(tmp_path, capsys, kind):
    path = _write_cfg(tmp_path, _good_cfg(problem={"kind": kind},
                                          algorithm="smag-dmax"))
    code = main(["run", path, "--output-root", str(tmp_path / "out"),
                 "--set", "t_total=5", "--set", "seeds=[3]"])
    assert code == 0, capsys.readouterr().err
    meta, records = read_trace(os.path.join(str(tmp_path / "out"), "toy",
                                            "trace_seed3.csv"))
    assert meta["algorithm"] == "smag-dmax"
    assert [r.t for r in records] == [1, 2, 3, 4, 5]


def test_cli_grad_check(tmp_path, capsys):
    cfg = {"problem": {"kind": "onedim-dwc"}, "gamma": 1.0,
           "n_points": 5, "min_kink_gap": 0.1}
    path = _write_cfg(tmp_path, cfg)
    assert main(["grad-check", path]) == 0
    out = capsys.readouterr().out
    assert "max_rel_err" in out
    # an absurd threshold flips it to a runtime failure
    assert main(["grad-check", path, "--set", "max_rel_err=1e-30"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_cli_grad_check_exits_3_on_non_finite_differences(tmp_path, capsys):
    cfg = {"problem": {"kind": "onedim-dwc", "kappa_phi": 1.0}, "gamma": 0.5,
           "n_points": 5, "sample_box": [1e160, 2e160], "max_rel_err": 1e-6}
    with np.errstate(over="ignore", invalid="ignore"):
        assert _main(tmp_path, "grad-check", cfg) == 3
    out = capsys.readouterr().out
    assert "max_rel_err = inf" in out and "FAIL" in out


def test_cli_fairness(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("# produced by a test\n"
                      "score,label,attr\n"
                      "2.0,1,1\n1.0,-1,1\n-1.0,1,-1\n0.5,-1,-1\n")
    path = _write_cfg(tmp_path, {"scores_csv": str(scores), "rho": 1.0})
    assert main(["fairness", path]) == 0
    out = capsys.readouterr().out
    for name in ("dp", "eop", "eod", "pauc"):
        assert f"{name} = " in out

    headerless = tmp_path / "plain.csv"
    headerless.write_text("2.0,1,1\n1.0,-1,1\n-1.0,1,-1\n0.5,-1,-1\n")
    path2 = _write_cfg(tmp_path, {"scores_csv": str(headerless), "rho": 1.0},
                       name="cfg2.json")
    assert main(["fairness", path2]) == 0

    bad = tmp_path / "bad.csv"
    bad.write_text("wat,no,header\n1,1,1\n")
    path3 = _write_cfg(tmp_path, {"scores_csv": str(bad)}, name="cfg3.json")
    assert main(["fairness", path3]) == 2

    capsys.readouterr()
    word = tmp_path / "word.csv"
    word.write_text("2.0,1,1\nabc,-1,1\n")
    path5 = _write_cfg(tmp_path, {"scores_csv": str(word)}, name="cfg5.json")
    assert main(["fairness", path5]) == 2
    assert (f"{word}: line 2: score must be a number, got 'abc'"
            in capsys.readouterr().err)
    short = tmp_path / "short.csv"
    short.write_text("2.0,1,1\n1.0,-1\n")
    path6 = _write_cfg(tmp_path, {"scores_csv": str(short)}, name="cfg6.json")
    assert main(["fairness", path6]) == 2
    assert (f"{short}: line 2: expected score,label,attr"
            in capsys.readouterr().err)

    path4 = _write_cfg(tmp_path, {"scores_csv": str(tmp_path / "ghost.csv")},
                       name="cfg4.json")
    assert main(["fairness", path4]) == 2


@pytest.mark.parametrize("label, attr", [("1.9", "1"), ("1", "-1.7"),
                                         ("0", "1"), ("1", "2"),
                                         ("nan", "1"), ("yes", "1")])
def test_cli_fairness_refuses_labels_and_attrs_other_than_plus_minus_one(
        tmp_path, capsys, label, attr):
    scores = tmp_path / "scores.csv"
    scores.write_text("score,label,attr\n2.0,1,1\n1.0,-1,1\n"
                      f"-1.0,{label},{attr}\n0.5,-1.0,-1\n")
    path = _write_cfg(tmp_path, {"scores_csv": str(scores), "rho": 1.0})
    assert main(["fairness", path]) == 2
    bad = "label" if label != "1" else "attr"
    want = label if bad == "label" else attr
    assert (f"line 4: {bad} must be +1 or -1, got '{want}'"
            in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# config reader: every block refuses unknown keys and values of a wrong kind


def _blocks(tmp_path):
    """One valid config per block the reader checks, keyed by block name:
    ``(subcommand, config, block path, one float key of the block)``; the
    empty path is the config's top level."""
    svm = tmp_path / "toy.libsvm"
    svm.write_text("+1 1:1.0 2:0.5\n+1 1:0.8 2:-0.2\n-1 1:-1.0 2:0.3\n"
                   "-1 1:-0.7 2:-0.6\n")
    scores = tmp_path / "scores.csv"
    scores.write_text("2.0,1,1\n1.0,-1,1\n-1.0,1,-1\n0.5,-1,-1\n")
    minmax = dict(algorithm="smag-minmax")
    return {
        "run": ("run", _good_cfg(), "", "x0"),
        "onedim-dwc": ("run", _good_cfg(), "problem", "noise_sigma"),
        "quadratic-minmax": ("run", _good_cfg(
            problem={"kind": "quadratic-minmax"}, **minmax), "problem",
            "noise_sigma"),
        "pu-synth": ("run", _good_cfg(problem={
            "kind": "pu-synth", "pi_p": 0.5, "n_pos": 20, "n_unl": 30,
            "dim": 4}), "problem", "separation"),
        "pu-libsvm": ("run", _good_cfg(problem={
            "kind": "pu-libsvm", "path": str(svm), "pi_p": 0.5}),
            "problem", "pi_p"),
        "pauc-synth": ("run", _good_cfg(problem={
            "kind": "pauc-synth", "n": 40, "dim": 3}, **minmax),
            "problem", "rho"),
        "pauc-libsvm": ("run", _good_cfg(problem={
            "kind": "pauc-libsvm", "path": str(svm)}, **minmax),
            "problem", "lambda0"),
        "manual schedule": ("run", _good_cfg(), "schedule", "eta1"),
        "theory schedule": ("run", _good_cfg(schedule={
            "source": "theory", "gamma": 0.5, "epsilon": 0.5}),
            "schedule", "gap_plus_p0"),
        "grad-check": ("grad-check", {
            "problem": {"kind": "onedim-dwc"}, "gamma": 1.0, "n_points": 5,
            "min_kink_gap": 0.1}, "", "h"),
        "schedule": ("schedule", _SCHEDULE_CFG, "", "gap_plus_p0"),
        "constants": ("schedule", _SCHEDULE_CFG, "constants", "mu_phi"),
        "fairness": ("fairness", {"scores_csv": str(scores), "rho": 1.0},
                     "", "threshold"),
    }


_BLOCK_NAMES = ("run", "onedim-dwc", "quadratic-minmax", "pu-synth",
                "pu-libsvm", "pauc-synth", "pauc-libsvm", "manual schedule",
                "theory schedule", "grad-check", "schedule", "constants",
                "fairness")


def _main(tmp_path, command, cfg, *overrides):
    argv = [command, _write_cfg(tmp_path, cfg)]
    if command == "run":
        argv += ["--output-root", str(tmp_path / "out")]
    for item in overrides:
        argv += ["--set", item]
    return main(argv)


def test_reader_blocks_are_valid_configs(tmp_path, capsys):
    blocks = _blocks(tmp_path)
    assert sorted(blocks) == sorted(_BLOCK_NAMES)
    for name in _BLOCK_NAMES:
        command, cfg, _, _ = blocks[name]
        assert _main(tmp_path, command, cfg) == 0, capsys.readouterr().err


# The unknown key at the top of a run config was refused before the reader
# (see test_cli_run_bad_config).
@pytest.mark.parametrize("block, value", [
    (block, value) for block in _BLOCK_NAMES
    for value in ("bogus", "true", '"0.1"', "NaN", "Infinity")
    if (block, value) != ("run", "bogus")])
def test_reader_refuses_unknown_keys_and_non_numbers(tmp_path, capsys, block,
                                                    value):
    command, cfg, path, key = _blocks(tmp_path)[block]
    prefix = f"{path}." if path else ""
    where = path or "config"
    if value == "bogus":
        override, want = f"{prefix}bogus_key=1", f"unknown {where} keys"
    else:
        override, want = f"{prefix}{key}={value}", f"{where}.{key} must be"
    assert _main(tmp_path, command, cfg, override) == 2
    err = capsys.readouterr().err
    assert want in err and (value != "bogus" or "bogus_key" in err), err


@pytest.mark.parametrize("command, cfg, override, want", [
    # a typo, a bool and a string: this ran without noise and from a = 1.0
    ("run", _good_cfg(problem={"kind": "onedim-dwc", "noise_sgima": 0.1,
                               "a": True, "b": "0.5"}), None,
     "unknown problem keys: ['noise_sgima']"),
    ("run", _good_cfg(), "problem.noise_sigma=NaN",
     "problem.noise_sigma must be finite"),
    # this checked 2 points
    ("grad-check", {"problem": {"kind": "quadratic-minmax", "dim": 5},
                    "gamma": 0.5, "n_points": 2.7}, None,
     "config.n_points must be an integer"),
    # this ran from x0 = 1.0
    ("run", _good_cfg(x0=True), None, "config.x0 must be"),
    # removed keys: the problem's maps decide the stationarity column, and
    # unbounded onedim-dwc combinations are always refused
    ("run", _good_cfg(exact_metrics=False), None,
     "unknown config keys: ['exact_metrics']"),
    ("run", _good_cfg(problem={"kind": "onedim-dwc",
                               "allow_unbounded": False}), None,
     "unknown problem keys: ['allow_unbounded']"),
    # seed 2**64 drew seed 0's tokens as a second, distinct seed
    ("run", _good_cfg(seeds=[0, 2 ** 64]), None, "below 2**64"),
    # a manual schedule's epsilon was recorded and read by nothing
    ("run", _good_cfg(), "schedule.epsilon=0.1",
     "unknown schedule keys: ['epsilon']")])
def test_reader_refuses_configs_that_used_to_run(tmp_path, capsys, command,
                                                 cfg, override, want):
    overrides = [override] if override else []
    assert _main(tmp_path, command, cfg, *overrides) == 2
    assert want in capsys.readouterr().err


@pytest.mark.parametrize("t_total", [0, 3])
@pytest.mark.parametrize("over, want", [
    ({"problem": {"kind": "onedim-dwc", "noise_sgima": 0.1}},
     "unknown problem keys: ['noise_sgima']"),
    ({"schedule": {"source": "manual", "gamma": 0.5, "eta0": 0.005,
                   "eta1": 10.0}}, "exceeds the strong-convexity cap"),
    ({"problem": {"kind": "pu-libsvm", "pi_p": 0.5, "path": "absent.txt"}},
     "No such file"),
    ({"problem": {"kind": "pauc-synth", "n": 40, "dim": 3}},
     "needs a psi_subgrad_x oracle"),
    ({"algorithm": "sgda", "lr": 0.05, "lr_y": 0.05},
     "needs a dual oracle and set")],
    ids=["typo", "eta1-cap", "missing-file", "dwc-on-pauc", "sgda-no-dual"])
def test_cli_run_bad_config_exits_2_at_any_t_total(tmp_path, capsys, over,
                                                   want, t_total):
    # a run of T = 0 has no output iterate, so it is refused like any
    # other bad config rather than skipping the checks a run makes
    assert _main(tmp_path, "run", _good_cfg(**over, t_total=t_total)) == 2
    err = capsys.readouterr().err
    assert ("t_total must be >= 1" if t_total == 0 else want) in err, err


def _readme_configs():
    """The JSON example of each ``### `dmaxopt <command>`` section of the
    README, as (command, config)."""
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    out = []
    for section in text.split("### `dmaxopt ")[1:]:
        command = section.split()[0]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        out.append((command, json.loads(block)))
    return out


def test_readme_config_examples_run(tmp_path, capsys, monkeypatch):
    examples = _readme_configs()
    assert [c for c, _ in examples] == ["run", "grad-check", "schedule",
                                        "fairness"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scores.csv").write_text(
        "score,label,attr\n2.0,1,1\n1.0,-1,1\n-1.0,1,-1\n0.5,-1,-1\n")
    for command, cfg in examples:
        # the run example's keys as written, on a shorter budget
        overrides = ["t_total=2000"] if command == "run" else []
        assert _main(tmp_path, command, cfg, *overrides) == 0, \
            capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    ["schedule.gamma=1e-200"],             # gamma ** 2 underflows to 0
    ["schedule.eta0=1e300", "schedule.eta1=1e-300"],  # tau overflows
    ["schedule.eta0=NaN"], ["schedule.eta1=Infinity"]])
def test_cli_run_manual_schedule_out_of_the_float_range_is_a_config_error(
        tmp_path, capsys, overrides):
    cfg = _good_cfg(problem={"kind": "quadratic-minmax"},
                    algorithm="smag-dmax",
                    schedule={"source": "manual", "gamma": 0.5,
                              "eta0": 0.005, "eta1": 0.01,
                              "allow_infeasible": True})
    assert _main(tmp_path, "run", cfg, *overrides) == 2
    assert "error:" in capsys.readouterr().err
