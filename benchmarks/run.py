"""Benchmark for dmaxopt: end-to-end and per-layer metrics on three workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload dwc1d-certify --seed 0 --trace 0
    python3 benchmarks/run.py --workload all     # every workload in turn

One run is a closed loop in a single process: it visits the workload's
cases one after another, each case waiting for the previous one, for
``--seconds`` seconds after one untimed warm-up case.  Only
``quadmm-runner`` uses more processes: the runner's own pool of
``min(2, nproc)`` workers.  ``setup_s`` comes from fresh interpreters
(``probe_setup.py``) started one at a time between cases.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
case twice in turn, untraced and with every layer wrapped (see
``tracing.py``), and reports the per-layer metrics plus the tracing
overhead.
The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The metric names and units are listed in
``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The installed numpy links a multithreaded OpenBLAS; two pool workers on
# a 2-core box with default BLAS threads would measure the scheduler.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 9


def pin_threads() -> None:
    """Pin BLAS threads (child processes inherit them) and make the package
    under ``src/`` importable.  Call before numpy is imported."""
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]


def blas_info():
    """(OpenBLAS version, threads OpenBLAS will use) of the loaded numpy."""
    import ctypes

    import numpy as np

    version = (np.show_config(mode="dicts")["Build Dependencies"]["blas"]
               .get("version"))
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return version, fn()
    return version, None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def manifest(args, workloads) -> dict:
    import platform

    import numpy as np

    openblas, threads = blas_info()
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "nproc": workloads.nproc(),
        "blas_threads": threads,
        "thread_env": THREAD_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "t_total": {w.name: w.t_total for w in workloads.WORKLOADS.values()},
        "tracing": bool(args.trace),
    }


def setup_time(workload, index) -> float:
    """Interpreter start to first step, in a fresh interpreter."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), workload, str(index)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1]) - start


def closed_loop(workloads, workload, order, seconds, probes, out_dir,
                reference, setups=None) -> list:
    """One untimed warm-up round, then rounds until ``seconds`` have passed.

    A round runs the next case of ``order`` once under each probe in turn,
    so an untraced and a traced probe see the same stretch of machine time.
    Returns one list of outcomes per probe.  With a ``setups`` list, one
    set-up probe runs after each round until ``SETUP_PROBES`` are done.
    """
    outcomes = [[] for _ in probes]

    def round_(i):
        index = order[i % len(order)]
        for probe, out in zip(probes, outcomes):
            with probe.patched():
                out.append(workloads.run_case(workload, index, probe,
                                              out_dir, reference))
        if setups is not None and len(setups) < SETUP_PROBES:
            setups.append(setup_time(workload.name, index))

    round_(0)
    start = time.perf_counter()
    i = 1
    while True:
        round_(i)
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    while setups is not None and len(setups) < SETUP_PROBES:
        setups.append(setup_time(workload.name, order[len(setups)]))
    return outcomes


def rate(outcomes) -> float:
    """Steps completed per second of time inside the run calls, over the
    timed cases (warm-up excluded)."""
    timed = outcomes[1:]
    return sum(o.steps for o in timed) / sum(o.run_s for o in timed)


def peak_rss_mb(pool_workers: int) -> float:
    """Peak RSS of this process plus, for a pooled workload, each pool
    worker counted at the largest child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0


def end_to_end(workloads, workload, outcomes, setups) -> dict:
    n = len(outcomes)
    timed = outcomes[1:]
    pool = workloads.pool_workers() if workload.pooled else 0
    return {
        "steps_per_s": rate(outcomes),
        "wall_s": statistics.median(o.wall_s for o in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(pool),
        "failed_frac": sum(not o.ok for o in outcomes) / n,
        "digest_match_frac": sum(o.digest_match for o in outcomes) / n,
    }


def per_layer(workload, untraced, traced, tr) -> dict:
    """Per-layer numbers of a traced run: counts are per-case means, and a
    ``*.busy_frac`` is a layer's self time as a share of the traced case
    wall time, so the busy shares of one workload add up to at most 1.
    Shares rather than seconds: a layer a workload bypasses reads 0 on
    every run, which is a share, not a time."""
    n = len(traced)
    wall = sum(o.wall_s for o in traced)
    m = {}

    def layer(name, calls=True):
        if calls:
            m[f"{name}.calls"] = tr.calls[name] / n
        m[f"{name}.busy_frac"] = tr.self_s[name] / wall

    for name in ("core.draw_many", "core.token_generator", "core.project"):
        layer(name)
    drawn = tr.counts["core.tokens.drawn"]
    m["core.tokens.drawn"] = drawn / n
    m["core.tokens.used_frac"] = tr.oracle_calls() / drawn
    # psi_grad_z is left out: only dmax mode calls it, and no workload
    # runs dmax mode.
    for o in ("phi_subgrad_x", "phi_grad_y", "psi_subgrad_x",
              "full_objective"):
        layer(f"problems.{o}")
    m["problems.samples"] = tr.counts["problems.samples"] / n
    m["problems.pair_evals"] = tr.counts["problems.pair_evals"] / n
    layer("problems.build", calls=False)
    layer("smag.run")
    m["smag.run.incl_frac"] = tr.incl_s["smag.run"] / wall
    rows = ("smag.run", "problems.full_objective")
    m["smag.trace.rows"] = tr.edge_calls[rows] / n
    m["smag.trace.incl_frac"] = (tr.edge_s[rows] + tr.edge_s[
        ("smag.run", "problems.exact_aux")]) / wall
    layer("moreau.certify")
    layer("baselines.run_sgda")
    layer("harness.fairness_metrics")
    layer("harness.run_experiment")
    # The runner's own numbers come from the untraced cases, which run the
    # real pool.
    runner = [o.extra for o in untraced if o.extra]
    m["harness.overhead_frac"] = (
        sum(e["harness.overhead_s"] for e in runner)
        / sum(e["harness.run_experiment.wall_s"] for e in runner)
        if runner else 0.0)
    for key in ("harness.trace.rows", "harness.trace.bytes"):
        m[key] = sum(e[key] for e in runner) / len(untraced)
    if not workload.pooled:
        overhead = rate(untraced) / rate(traced) - 1.0
    else:
        # Compare per-worker loop rates: the traced run uses one worker.
        loop = lambda oc: statistics.median(  # noqa: E731
            o.steps / o.extra["harness.seed_loop_s"] for o in oc[1:]
            if o.extra)
        overhead = loop(untraced) / loop(traced) - 1.0
    m["trace_overhead_frac"] = overhead
    m["traced.wall_s"] = wall / n
    return m


def run_one(args, workloads, tracing) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    units["failed_frac"] = "frac"
    reference = json.loads(
        (HERE / "reference_digests.json").read_text())[args.workload]
    workload = workloads.WORKLOADS[args.workload]
    order = random.Random(args.seed).sample(range(len(reference)),
                                            len(reference))
    print("manifest:", json.dumps(manifest(args, workloads)))
    out_dir = tempfile.mkdtemp(prefix="run-", dir=_out_root())
    try:
        if not args.trace:
            setups = []
            [cases] = closed_loop(workloads, workload, order, args.seconds,
                                  [tracing.Untraced()], out_dir, reference,
                                  setups)
            metrics = end_to_end(workloads, workload, cases, setups)
            names = [m["name"] for m in bench["end_to_end"]]
            print(f"workload {args.workload}: {len(cases)} cases "
                  f"(1 warm-up), tracing off")
            consistent = True
        else:
            tr = tracing.Tracer()
            untraced, traced = closed_loop(
                workloads, workload, order, args.seconds,
                [tracing.Untraced(), tr], out_dir, reference)
            cases = untraced + traced
            # Instrumentation must never change a deterministic output.
            consistent = all(a.digest == b.digest
                             for a, b in zip(untraced, traced))
            metrics = per_layer(workload, untraced, traced, tr)
            names = [m["name"] for m in bench["per_layer"]]
            print(f"workload {args.workload}: {len(untraced)} untraced and "
                  f"{len(traced)} traced cases, per-case means; traced and "
                  f"untraced digests equal: {consistent}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    wall = metrics.get("traced.wall_s")
    for key, value in metrics.items():
        note = (f"= {value * wall:.4g} s per case"
                if key.endswith(("busy_frac", "incl_frac")) else "")
        print(f"  {key:34s} {value:>14.6g} {units[key]:6s} {note}")
    failed = [o for o in cases if not o.ok]
    for o in failed[:5]:
        print(f"  case {o.index} failed: {'; '.join(o.reasons)}")
    print(json.dumps({
        "correct": not failed and consistent,
        "attempted": len(cases),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in names},
    }))
    return 0


def _out_root() -> str:
    root = HERE / ".out"
    root.mkdir(exist_ok=True)
    return str(root)


def main(argv=None) -> int:
    pin_threads()
    if not (SRC / "dmaxopt" / "__init__.py").is_file():
        print(f"benchmark: no dmaxopt package under {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_one(args, workloads, tracing)
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
