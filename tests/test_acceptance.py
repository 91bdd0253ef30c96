"""Acceptance suite: ten end-to-end checks, one verdict line apiece.

Each test records ``[criterion NN] <label>: PASS/FAIL (<numbers>)`` in
``VERDICTS`` (re-emitted by conftest as a terminal summary section) and
then enforces the same condition with an assert.  Thresholds and runtime
budgets are pinned in the tests; nothing here is tunable from the
outside.
"""

import time

import numpy as np

from dmaxopt.baselines import run_sgd
from dmaxopt.core import ProblemConstants, RngStream, token_generator
from dmaxopt.harness import fairness_metrics, grad_check
from dmaxopt.moreau import check_nearly_critical, dmax_envelope_grad, prox
from dmaxopt.problems import (
    PaucParams,
    PuParams,
    fairness_dual_grad,
    make_onedim_dwc,
    make_pu_problem,
    make_quadratic_minmax,
    oracle_bias_report,
    pauc_fair_problem,
    pauc_full_subgrads,
    piecewise_quadratic,
    pu_full_subgrads,
    synth_biased_pauc,
    synth_gaussian_pu,
)
from dmaxopt.smag import (
    Schedule,
    run,
    schedule_from_theory,
    step_diagnostics,
    validate_schedule,
)

ALL_ONES = ProblemConstants(delta_phi=1.0, delta_psi=1.0, mu_phi=1.0,
                            mu_psi=1.0, l_phi_yx=1.0, l_psi_zx=1.0,
                            m_bound=1.0)

VERDICTS: list = []


def _verdict(num: int, label: str, ok: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    VERDICTS.append(line)
    return line


# ---------------------------------------------------------------------------
# 1. envelope gradients against finite differences


def test_envelope_gradient_against_finite_differences():
    t0 = time.monotonic()
    quad = grad_check(make_quadratic_minmax(dim=5), 0.5, n_points=20, seed=0)
    oned = grad_check(make_onedim_dwc(1.0, 0.5), 1.0, n_points=20,
                      min_kink_gap=1.1, seed=0)
    elapsed = time.monotonic() - t0
    ok = quad.max_rel_err < 1e-6 and oned.max_rel_err < 1e-4 and elapsed < 30
    line = _verdict(1, "envelope gradient vs finite differences", ok,
                    f"quad {quad.max_rel_err:.2e} < 1e-6, "
                    f"1-d {oned.max_rel_err:.2e} < 1e-4, {elapsed:.1f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# 2. iterative prox against brute-force grid search


def test_iterative_prox_against_grid_search():
    t0 = time.monotonic()
    gen = token_generator(202)
    worst = 0.0
    for _ in range(50):
        a = float(gen.uniform(0.5, 2.0))
        c = float(gen.uniform(-1.0, 1.0))
        kappa = float(gen.uniform(-0.3, 2.0))
        gamma = float(gen.uniform(0.1, 2.0))
        x = float(gen.uniform(-3.0, 3.0))
        f = piecewise_quadratic(a, c, kappa)
        r = prox(f, [x], gamma, tol=1e-10, max_inner=20_000,
                 use_closed_form=False)
        grid = x + np.arange(-5.0, 5.0 + 1e-4, 1e-4)
        vals = (a * np.abs(grid - c) + 0.5 * kappa * grid * grid
                + (grid - x) ** 2 / (2.0 * gamma))
        u_star = float(grid[np.argmin(vals)])
        worst = max(worst, abs(float(r.point[0]) - u_star))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-3 and elapsed < 60
    line = _verdict(2, "iterative prox vs grid search", ok,
                    f"worst |diff| {worst:.2e} <= 1e-3 over 50 draws, "
                    f"{elapsed:.1f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# 3. prescribed schedule worked example + feasibility of emitted schedules


def test_prescribed_schedule_worked_example():
    s = schedule_from_theory(ALL_ONES, 0.5, 0.1, "dmax")
    eta1_want = 1.0172526041666669e-07
    eta0_want = 3.9736429850260424e-10
    checks = {
        "alpha": s.alpha == 0.25,
        "tau": s.tau == 0.00390625,
        "nu": s.nu == 0.125,
        "l_f": s.l_f == 8.0,
        "eta1": abs(s.eta1 - eta1_want) <= 1e-10 * eta1_want,
        "eta0": abs(s.eta0 - eta0_want) <= 1e-10 * eta0_want,
    }
    feasible = True
    try:
        for mode in ("dmax", "dwc", "minmax"):
            for eps in (0.1, 0.05, 0.01):
                validate_schedule(schedule_from_theory(ALL_ONES, 0.5, eps, mode),
                                  ALL_ONES, mode)
    except Exception:  # pragma: no cover - the verdict line reports it
        feasible = False
    ok = all(checks.values()) and feasible
    bad = [k for k, v in checks.items() if not v]
    line = _verdict(3, "prescribed-schedule worked example", ok,
                    f"eta1 {s.eta1:.10e}, eta0 {s.eta0:.10e}, "
                    f"mismatches {bad or 'none'}, feasibility "
                    f"{'ok' if feasible else 'violated'}")
    assert ok, line


# ---------------------------------------------------------------------------
# 4. per-step descent and tracking inequalities over 10^4 iterations


def test_descent_and_tracking_inequalities():
    t0 = time.monotonic()
    prob = make_onedim_dwc(1.0, 0.5)  # deterministic
    t_total = 10_000
    sched = Schedule.from_manual(0.5, 0.005, 0.01, t_total, prob.constants,
                                 mode="dwc")
    res = run(prob, "dwc", sched, RngStream(0), x0=2.0,
              trace_every=t_total, collect_states=True)
    slack = 10 * 1e-9
    descent_ok = tracking_ok = 0
    for before, after in zip(res.states[:-1], res.states[1:]):
        d = step_diagnostics(prob, before, after, sched)
        descent_ok += d["descent_lhs"] <= d["descent_rhs"] + slack
        tracking_ok += d["error_sq"] <= d["tracking_bound"] + slack
    elapsed = time.monotonic() - t0
    need = 0.99 * t_total
    ok = (len(res.states) == t_total + 1 and descent_ok >= need
          and tracking_ok >= need and elapsed < 60)
    line = _verdict(4, "descent/tracking inequalities", ok,
                    f"descent {descent_ok}/{t_total}, "
                    f"tracking {tracking_ok}/{t_total}, >=99% each, "
                    f"{elapsed:.1f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# 5. certified near-criticality under oracle noise (1-d, dwc mode)


def test_noisy_dwc_reaches_certified_criticality():
    t0 = time.monotonic()
    prob = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    t_total = 100_000
    sched = Schedule.from_manual(0.5, 0.005, 0.01, t_total, prob.constants,
                                 mode="dwc")
    certified = 0
    for res in run(prob, "dwc", sched,
                   [RngStream(seed) for seed in range(5)], x0=2.0,
                   trace_every=t_total):
        cert = check_nearly_critical(prob, res.x_bar, res.returned, 0.5, 0.1)
        certified += cert.certified
    elapsed = time.monotonic() - t0
    ok = certified >= 4 and elapsed < 120
    line = _verdict(5, "noisy 1-d run certified nearly critical", ok,
                    f"{certified}/5 seeds certified (need >=4), {elapsed:.1f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# 6. min-max mode drives the exact envelope gradient below 0.05


def test_noisy_minmax_envelope_gradient_small():
    t0 = time.monotonic()
    prob = make_quadratic_minmax(dim=10, noise_sigma=0.1)
    t_total = 100_000
    sched = Schedule.from_manual(0.5, 0.02, 0.05, t_total, prob.constants,
                                 mode="minmax")
    hits = 0
    norms = []
    for res in run(prob, "minmax", sched,
                   [RngStream(seed) for seed in range(5)],
                   x0=np.full(10, 1.5), trace_every=t_total):
        g = dmax_envelope_grad(prob, res.returned, 0.5)
        norms.append(float(np.linalg.norm(g)))
        hits += norms[-1] <= 0.05
    elapsed = time.monotonic() - t0
    ok = hits >= 4 and elapsed < 120
    line = _verdict(6, "min-max envelope gradient below 0.05", ok,
                    f"{hits}/5 seeds, norms "
                    f"[{min(norms):.4f}, {max(norms):.4f}], {elapsed:.1f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# 7. positive-unlabeled learning beats its sample budget


def test_pu_learning_desk_scale():
    t0 = time.monotonic()
    pos, unl = synth_gaussian_pu(500, 2000, 10, 1.5, 0.5, seed=0)
    params = PuParams(pi_p=0.5, batch_pos=64, batch_unl=64)
    prob = make_pu_problem(pos, unl, params)
    t_total = 1280  # 40 passes over the unlabeled pool at batch 64
    sched = Schedule.from_manual(1.0, 0.025, 0.05, t_total, prob.constants,
                                 mode="dwc")
    x0 = np.zeros(10)
    init_obj = prob.full_objective(x0)
    smag_finals, sgd_finals = [], []
    for s in range(4):
        r = run(prob, "dwc", sched, RngStream(1000 + s), x0=x0,
                trace_every=t_total)
        smag_finals.append(prob.full_objective(r.returned))
        b = run_sgd(prob, 0.05, t_total, RngStream(1000 + s), x0=x0,
                    trace_every=t_total,
                    decay_milestones=(768, 1024), decay_factor=2.0)
        sgd_finals.append(prob.full_objective(b.final_state.x))
    mean_smag = float(np.mean(smag_finals))
    mean_sgd = float(np.mean(sgd_finals))
    reduction = (init_obj - mean_smag) / abs(init_obj)
    elapsed = time.monotonic() - t0
    ok = reduction >= 0.5 and mean_smag <= 1.10 * mean_sgd and elapsed < 180
    line = _verdict(7, "positive-unlabeled desk-scale run", ok,
                    f"reduction {reduction:.1%} >= 50%, final {mean_smag:.4f}"
                    f" vs 1.10 x sgd {1.10 * mean_sgd:.4f}, {elapsed:.1f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# 8. fairness adversary does not hurt parity, barely hurts ranking


def test_pauc_fairness_desk_scale():
    t0 = time.monotonic()
    t_total = 4000
    dps = {0.0: [], 0.5: []}
    paucs = {0.0: [], 0.5: []}
    for s in range(3):
        data = synth_biased_pauc(4000, 20, seed=100 + s)
        for alpha in (0.0, 0.5):
            params = PaucParams(rho=0.3, alpha_fair=alpha, lambda0=1.0)
            prob = pauc_fair_problem(data, params)
            sched = Schedule.from_manual(0.5, 0.002, 0.01, t_total,
                                         prob.constants, mode="minmax")
            res = run(prob, "minmax", sched, RngStream(900 + s),
                      x0=np.zeros(prob.dim_x), trace_every=t_total)
            w = res.returned[:20]
            scores = data.features @ w
            rep = fairness_metrics(scores, data.labels, data.sensitive,
                                   rho=0.3)
            dps[alpha].append(rep.dp)
            paucs[alpha].append(rep.pauc)
    dp_plain = float(np.mean(dps[0.0]))
    dp_fair = float(np.mean(dps[0.5]))
    pauc_plain = float(np.mean(paucs[0.0]))
    pauc_fair = float(np.mean(paucs[0.5]))
    elapsed = time.monotonic() - t0
    ok = (dp_fair <= dp_plain + 0.02
          and pauc_plain - pauc_fair <= 0.05 and elapsed < 300)
    line = _verdict(8, "fairness adversary desk-scale run", ok,
                    f"dp {dp_fair:.4f} <= {dp_plain:.4f}+0.02, "
                    f"pauc drop {pauc_plain - pauc_fair:+.4f} <= 0.05, "
                    f"{elapsed:.1f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# 9. the two-component mode collapses to dwc; reruns are bit-identical


def test_mode_equivalence_and_rerun_determinism():
    prob = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    sched = Schedule.from_manual(0.5, 0.005, 0.01, 2000, prob.constants,
                                 mode="dwc")
    ra = run(prob, "dmax", sched, RngStream(7), x0=2.0, collect_states=True)
    rb = run(prob, "dwc", sched, RngStream(7), x0=2.0, collect_states=True)
    identical = (ra.t_bar == rb.t_bar
                 and np.array_equal(ra.returned, rb.returned)
                 and all(np.array_equal(sa.x, sb.x)
                         and np.array_equal(sa.x_phi, sb.x_phi)
                         and np.array_equal(sa.x_psi, sb.x_psi)
                         for sa, sb in zip(ra.states, rb.states)))
    rc = run(prob, "dwc", sched, RngStream(7), x0=2.0, collect_states=True)
    rows_b = [(r.t, r.objective, r.stationarity, r.p_t) for r in rb.records]
    rows_c = [(r.t, r.objective, r.stationarity, r.p_t) for r in rc.records]
    deterministic = (rows_b == rows_c and rb.t_bar == rc.t_bar
                     and np.array_equal(rb.returned, rc.returned))
    ok = identical and deterministic
    line = _verdict(9, "mode equivalence and rerun determinism", ok,
                    f"dmax==dwc over 2000 steps: {identical}, "
                    f"rerun bit-identical: {deterministic}")
    assert ok, line


# ---------------------------------------------------------------------------
# 10. every stochastic oracle is unbiased (3 standard errors, componentwise)


def test_stochastic_oracles_unbiased():
    t0 = time.monotonic()
    n = 100_000
    reports = {}

    oned = make_onedim_dwc(1.0, 0.5, noise_sigma=0.1)
    x1 = np.array([1.7])
    reports["onedim phi"] = oracle_bias_report(
        lambda t: oned.phi_subgrad_x(x1, None, t), np.array([1.0]), n=n)
    reports["onedim psi"] = oracle_bias_report(
        lambda t: oned.psi_subgrad_x(x1, None, t), np.array([0.5]), n=n)

    quad = make_quadratic_minmax(dim=3, noise_sigma=0.1)
    xq = np.array([0.3, -0.7, 1.2])
    yq = np.array([0.1, 0.2, -0.3])
    reports["quadratic phi-x"] = oracle_bias_report(
        lambda t: quad.phi_subgrad_x(xq, yq, t), yq, n=n)
    reports["quadratic phi-y"] = oracle_bias_report(
        lambda t: quad.phi_grad_y(xq, yq, t), xq - yq, n=n)

    pos, unl = synth_gaussian_pu(60, 140, 5, 1.5, 0.5, seed=3)
    pu_params = PuParams(pi_p=0.5, batch_pos=8, batch_unl=8)
    pu = make_pu_problem(pos, unl, pu_params)
    w = np.array([0.21, -0.13, 0.08, 0.33, -0.27])
    g_phi_full, g_psi_full = pu_full_subgrads(w, pos, unl, pu_params)
    reports["pu phi"] = oracle_bias_report(
        lambda t: pu.phi_subgrad_x(w, None, t), g_phi_full, n=n)
    reports["pu psi"] = oracle_bias_report(
        lambda t: pu.psi_subgrad_x(w, None, t), g_psi_full, n=n)

    data = synth_biased_pauc(120, 5, seed=9)
    pa_params = PaucParams(rho=0.3, alpha_fair=0.5, lambda0=1.0,
                           batch_pos=8, batch_neg=8, batch_attr=8)
    pa = pauc_fair_problem(data, pa_params)
    gen = token_generator(77)
    xp = np.concatenate([0.3 * gen.standard_normal(5),
                         0.2 + 0.1 * gen.standard_normal(pa.dim_x - 5)])
    yp = 0.05 * gen.standard_normal(5)
    reports["pauc primal"] = oracle_bias_report(
        lambda t: pa.phi_subgrad_x(xp, yp, t),
        pauc_full_subgrads(xp, data, pa_params), n=n)
    reports["pauc dual"] = oracle_bias_report(
        lambda t: pa.phi_grad_y(xp, yp, t),
        fairness_dual_grad(yp, data.features, data.sensitive, pa_params), n=n)

    # alpha = 0 makes the dual oracle constant: the exact-equality branch
    pa0_params = PaucParams(rho=0.3, alpha_fair=0.0, lambda0=1.0,
                            batch_pos=8, batch_neg=8, batch_attr=8)
    pa0 = pauc_fair_problem(data, pa0_params)
    reports["pauc dual alpha=0"] = oracle_bias_report(
        lambda t: pa0.phi_grad_y(xp, yp, t), -1.0 * yp, n=n)

    elapsed = time.monotonic() - t0
    failures = [k for k, rep in reports.items() if not rep.passed]
    worst = max(rep.worst_sigmas for rep in reports.values())
    ok = not failures and elapsed < 120
    line = _verdict(10, "stochastic oracle unbiasedness", ok,
                    f"{len(reports)} oracles, worst {worst:.2f} sigma <= 3, "
                    f"failures {failures or 'none'}, {elapsed:.1f}s")
    assert ok, line
