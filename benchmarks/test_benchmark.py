"""Self-test of the benchmark.

Run from the repository root (about a minute on 2 CPUs):

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.pin_threads()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference_digests.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert WORKLOADS == list(workloads.WORKLOADS) == list(REFERENCE)
    assert all(len(d) == workloads.POOL for d in REFERENCE.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_and_layer_busy_shares(workload):
    for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        result = last_json(bench(ROOT, workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
            (m["name"], m["unit"]) for m in declared]
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    # Busy shares are self times of disjoint spans within the traced case
    # wall time, so they add up to at most 1.
    busy = sum(v for k, v in layer.items() if k.endswith(".busy_frac"))
    assert 0 < busy <= 1 + 1e-9
    assert layer["traced.wall_s"] > 0


def perturb_returned(ran):
    res = ran.result[1]
    res.returned = np.nextafter(res.returned, np.inf)


def perturb_trace_file(ran):
    path = ran.result[0].trace_paths[min(ran.result[0].trace_paths)]
    text = Path(path).read_text().splitlines()
    row = text[-1].split(",")
    row[2] = repr(float(row[2]) * (1 + 1e-15))
    Path(path).write_text("\n".join(text[:-1] + [",".join(row)]) + "\n")


@pytest.mark.parametrize("workload, perturb", [
    ("dwc1d-certify", perturb_returned),
    ("pauc-fair-traced", perturb_returned),
    ("quadmm-runner", perturb_trace_file),
])
def test_perturbed_output_is_reported_failed(workload, perturb, tmp_path):
    w = workloads.WORKLOADS[workload]
    probe = tracing.Untraced()
    ran = w.execute(0, probe, str(tmp_path))
    reasons, _, match = workloads.judge(w, 0, ran, probe, REFERENCE[workload])
    assert match and not reasons
    perturb(ran)
    reasons, _, match = workloads.judge(w, 0, ran, probe, REFERENCE[workload])
    assert not match and reasons


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".out"))
    out = bench(tmp_path, "dwc1d-certify", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
