"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4's minimum-location clause is asserted as stated even though both
root-finding routes (Lambert W scan and the pseudospectral oracle) locate the
grid minimum at tau = 0.15: past tau ~ 0.155 the root family of the large real
eigenvalue (about -7.63) overtakes the one tracked from the rightmost matrix
eigenvalue, so the curve's minimum is not at 0.19. The assertion is kept
faithful and fails honestly; the zero-crossing clause holds.
"""

import math
import time

import numpy as np
import pytest

import surplus_consensus as sc

from conftest import bisect_crossing, max_nonnull_real, reference_oracle

SEED = 2024


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %2d %-28s %s %s" % (number, name, status, detail))
    assert ok, "criterion %d (%s) failed: %s" % (number, name, detail)


@pytest.fixture(scope="module")
def demo_run(demo6):
    rng = np.random.RandomState(SEED)
    x0 = rng.uniform(0, 1, 6)
    cfg = sc.SimConfig(tau=0.18, x0=x0, t_final=40.0)
    start = time.time()
    traj = sc.simulate(sc.build_system(demo6, 1.3), cfg)
    return x0, traj, time.time() - start


def test_criterion_1_conservation(demo_run):
    x0, traj, elapsed = demo_run
    drift = float(traj.conservation_drift.max())
    bound = 1e-6 * (1 + abs(x0.sum()))
    report(1, "conservation", drift <= bound and elapsed < 5.0,
           "max_drift=%.3g bound=%.3g runtime=%.2fs" % (drift, bound, elapsed))


def test_criterion_2_average_consensus(demo_run):
    x0, traj, elapsed = demo_run
    dev = float(np.max(np.abs(traj.final_state[:6] - x0.mean())))
    report(2, "average consensus", dev <= 1e-3 and elapsed < 5.0,
           "final_deviation=%.3g runtime=%.2fs" % (dev, elapsed))


def test_criterion_3_eps_sweep(demo6):
    start = time.time()
    grid = np.round(np.arange(0.2, 1.8001, 0.1), 10)
    values = [max_nonnull_real(sc.spectrum(sc.build_system(demo6, eps)))
              for eps in grid]
    argmin = grid[int(np.argmin(values))]
    elapsed = time.time() - start
    report(3, "eps sweep minimum", argmin == 1.1 and elapsed < 10.0,
           "argmin_eps=%s runtime=%.2fs" % (argmin, elapsed))


def test_criterion_4_tau_sweep(demo6):
    start = time.time()
    spec = sc.spectrum(sc.build_system(demo6, 1.1))
    grid = np.round(np.arange(0.0, 0.4001, 0.01), 10)
    values = [max_nonnull_real(spec) if tau == 0.0
              else sc.rightmost_root(spec, tau).root.real for tau in grid]
    argmin = float(grid[int(np.argmin(values))])
    crossings = [grid[i + 1] for i in range(len(values) - 1)
                 if values[i] < 0 <= values[i + 1]]
    crossing_ok = any(0.19 < t < 0.40 for t in crossings)
    elapsed = time.time() - start
    report(4, "tau sweep minimum", abs(argmin - 0.19) <= 0.02 and crossing_ok
           and elapsed < 30.0,
           "argmin_tau=%s crossings=%s runtime=%.2fs"
           % (argmin, crossings, elapsed))


def test_criterion_5_margin_vs_bisection(demo6):
    start = time.time()
    worst = 0.0
    for eps in np.round(np.arange(0.2, 1.8001, 0.2), 10):
        spec = sc.spectrum(sc.build_system(demo6, eps))
        margin = sc.tau_critical(spec)
        tau_star = bisect_crossing(spec, 0.5 * margin.tau_c, 2.0 * margin.tau_c)
        worst = max(worst, abs(tau_star - margin.tau_c) / margin.tau_c)
    elapsed = time.time() - start
    report(5, "margin vs bisection", worst <= 1e-6 and elapsed < 60.0,
           "worst_rel_err=%.3g runtime=%.2fs" % (worst, elapsed))


def test_criterion_6_bound_conservative(demo6, random_graphs):
    start = time.time()
    grid = np.round(np.arange(0.2, 1.8001, 0.2), 10)
    worst = -np.inf
    ok = True
    for g in [demo6] + random_graphs:
        tilde = sc.tau_tilde_bound(g)
        values = [m.tau_c for m, _ in sc.stability_map(g, grid, [0.0]).margins
                  if m is not None]
        if not values or tilde > min(values):
            ok = False
        else:
            worst = max(worst, tilde - min(values))
    elapsed = time.time() - start
    report(6, "bound conservativeness", ok and elapsed < 60.0,
           "worst_gap=%.3g runtime=%.2fs" % (worst, elapsed))


def test_criterion_7_oracle_equivalence(random_graphs):
    start = time.time()
    rng = np.random.RandomState(SEED)
    worst = 0.0
    for g in random_graphs:
        eps = float(rng.uniform(0.2, 1.0)) * sc.find_eps_bar(
            g, np.linspace(0.05, 1.0, 10))
        sys = sc.build_system(g, eps)
        spec = sc.spectrum(sys)
        tau = float(rng.uniform(0.05, 2.0)) * sc.tau_critical(spec).tau_c
        lw = sc.rightmost_root(spec, tau).root
        orc = reference_oracle(sys, tau, 30)
        worst = max(worst, abs(lw.real - orc.real))
    elapsed = time.time() - start
    report(7, "oracle equivalence", worst <= 1e-6 and elapsed < 60.0,
           "worst_abs_diff=%.3g cases=%d runtime=%.2fs"
           % (worst, len(random_graphs), elapsed))


def test_criterion_8_perturbation(demo6):
    start = time.time()
    spec0 = sc.spectrum(sc.build_system(demo6, 0.0))
    nonnull0 = spec0.eigenvalues[np.abs(spec0.eigenvalues) > 1e-9]
    ok = spec0.null_count == 2 and nonnull0.size == 10 and np.all(nonnull0.real < 0)
    slope = sc.lambda2_slope(demo6)
    detail = ["null_count_m0=%d" % spec0.null_count, "slope=%.6f" % slope]
    for eps in (1e-3, 1e-2):
        spec = sc.spectrum(sc.build_system(demo6, eps))
        lam2 = max_nonnull_real(spec)
        ok = ok and spec.null_count == 1
        ok = ok and abs(lam2 / eps - slope) <= 0.1 * abs(slope)
        detail.append("lam2/eps(%g)=%.6f" % (eps, lam2 / eps))
    elapsed = time.time() - start
    report(8, "perturbation properties", ok and elapsed < 5.0,
           " ".join(detail) + " runtime=%.2fs" % elapsed)


def test_criterion_9_spectral_simulation(demo6):
    start = time.time()
    eps_grid = [0.7, 0.9, 1.1, 1.3, 1.5]
    tau_grid = [0.05, 0.10, 0.15, 0.30, 0.40]
    slope_cells = {(0.9, 0.10), (1.1, 0.15), (1.3, 0.15)}
    rng = np.random.RandomState(SEED)
    x0 = rng.uniform(0, 1, 6)
    verdict_ok = True
    slope_ok = True
    details = []
    for eps in eps_grid:
        sys = sc.build_system(demo6, eps)
        spec = sc.spectrum(sys)
        for tau in tau_grid:
            rate = sc.rightmost_root(spec, tau).root.real
            t_final = 20.0 if rate < 0 else 200.0
            cfg = sc.SimConfig(tau=tau, x0=x0, t_final=t_final)
            traj = sc.simulate(sys, cfg)
            expected = "converged" if rate < 0 else "diverged"
            if traj.verdict != expected:
                verdict_ok = False
                details.append("verdict(%s,%s)=%s expected %s"
                               % (eps, tau, traj.verdict, expected))
            if (eps, tau) in slope_cells:
                lo = int(traj.times.size * 2 / 3)
                mask = traj.consensus_error[lo:] > 0
                fit = np.polyfit(traj.times[lo:][mask],
                                 np.log(traj.consensus_error[lo:][mask]), 1)[0]
                rel = abs(fit - rate) / abs(rate)
                details.append("slope(%s,%s) fit=%.4f rate=%.4f rel=%.3f"
                               % (eps, tau, fit, rate, rel))
                slope_ok = slope_ok and rel <= 0.15
    elapsed = time.time() - start
    report(9, "spectral-simulation match",
           verdict_ok and slope_ok and elapsed < 300.0,
           "; ".join(details) + " runtime=%.2fs" % elapsed)


def test_criterion_10_integrator_order(demo6):
    start = time.time()
    sys = sc.build_system(demo6, 1.3)
    rng = np.random.RandomState(SEED)
    x0 = rng.uniform(0, 1, 6)

    def end_state(divisor):
        cfg = sc.SimConfig(tau=0.2, x0=x0, dt=0.2 / divisor,
                           t_final=5.0)
        return sc.simulate(sys, cfg).final_state

    ref = end_state(200)
    err_coarse = np.max(np.abs(end_state(25) - ref))
    err_fine = np.max(np.abs(end_state(50) - ref))
    ratio = err_coarse / err_fine
    elapsed = time.time() - start
    report(10, "integrator order", ratio >= 8.0 and elapsed < 30.0,
           "halving_ratio=%.2f runtime=%.2fs" % (ratio, elapsed))
