import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import surplus_consensus as sc
from surplus_consensus.sim import (CONSENSUS_TOLERANCE, CSV_BLOCK_ROWS, MAX_STATE_VALUES,
                                   seeded_x0, write_metadata, write_trajectory_csv)


def test_equilibrium_is_stationary(demo6):
    sys = sc.build_system(demo6, 1.3)
    cfg = sc.SimConfig(tau=0.2, x0=3.7 * np.ones(6), t_final=5.0)
    traj = sc.simulate(sys, cfg)
    assert np.max(np.abs(traj.states - traj.states[0])) <= 1e-12
    assert np.max(traj.consensus_error) <= 1e-12
    assert traj.verdict == "converged"
    # settled from the first sample; decided window samples later
    window = int(round(0.05 * cfg.t_final / (cfg.tau / 50)))
    assert traj.convergence_time == traj.times[0] == 0.0
    assert traj.decision_time == traj.times[0 + window]
    # the shortest run, one step: settled from sample 0 with a window of one step
    cfg = sc.SimConfig(tau=0.0, x0=3.7 * np.ones(6), t_final=1e-2)
    traj = sc.simulate(sys, cfg)
    assert (traj.verdict, traj.convergence_time, traj.decision_time) == ("converged", 0.0, 1e-2)


def test_demo_run_converges(demo6):
    rng = np.random.RandomState(42)
    x0 = rng.uniform(0, 1, 6)
    sys = sc.build_system(demo6, 1.3)
    cfg = sc.SimConfig(tau=0.18, x0=x0, t_final=40.0)
    traj = sc.simulate(sys, cfg)
    assert traj.verdict == "converged"
    assert np.max(np.abs(traj.states[-1, :6] - x0.mean())) <= 1e-3
    # the settling index: the error is above the tolerance just before it and
    # below it from there to the end
    err = traj.consensus_error
    settle = np.flatnonzero(err >= CONSENSUS_TOLERANCE)[-1] + 1
    assert settle > 0 and np.all(err[settle:] < CONSENSUS_TOLERANCE)
    window = int(round(0.05 * cfg.t_final / (cfg.tau / 50)))
    assert traj.convergence_time == traj.times[settle]
    assert traj.decision_time == traj.times[settle + window]


def test_beyond_margin_diverges(demo6):
    spec = sc.spectrum(sc.build_system(demo6, 1.1))
    tau_c = sc.tau_critical(spec).tau_c
    tau = round(1.5 * tau_c, 4)
    rng = np.random.RandomState(3)
    cfg = sc.SimConfig(tau=tau, x0=rng.uniform(0, 1, 6),
                       dt=tau / 50, t_final=400.0)
    traj = sc.simulate(sc.build_system(demo6, 1.1), cfg)
    assert traj.verdict == "diverged"
    assert traj.convergence_time is None
    # the run ends on the first row over the threshold
    peak = np.abs(traj.states).max(axis=1)
    assert peak[-1] > cfg.divergence_threshold
    assert np.all(peak[:-1] <= cfg.divergence_threshold)


def test_start_within_tolerance_beyond_margin_is_not_converged(demo6):
    # tau = 0.25 is past tau_c = 0.206: the error starts within 1e-9 of
    # consensus, stays below the tolerance for over a window, then grows
    x0 = 0.5 + 1e-9 * np.linspace(-1, 1, 6)
    cfg = sc.SimConfig(tau=0.25, x0=x0, t_final=40.0)
    traj = sc.simulate(sc.build_system(demo6, 1.1), cfg)
    window = int(round(0.05 * cfg.t_final / (cfg.tau / 50)))
    assert np.all(traj.consensus_error[:window + 1] < CONSENSUS_TOLERANCE)
    assert traj.consensus_error[-1] > 0.01
    assert traj.verdict == "inconclusive"
    assert traj.convergence_time is None
    assert traj.decision_time == 40.0


def test_consensus_target(three_cycle):
    # (1'x0 + 1'z0) / n, on one-step runs without delay
    m = sc.build_system(three_cycle, 1.0)
    cfg = sc.SimConfig(tau=0.0, x0=np.array([1.0, 2.0, 3.0]), t_final=1e-2)
    assert sc.simulate(m, cfg).target == 2.0
    cfg = sc.SimConfig(tau=0.0, x0=np.array([1.0, 2.0, 3.0]),
                       z0=np.array([3.0, 0.0, 0.0]), t_final=1e-2)
    assert sc.simulate(m, cfg).target == 3.0


def test_target_matches_trajectory_limit(demo6):
    rng = np.random.RandomState(0)
    x0 = rng.uniform(0, 1, 6)
    cfg = sc.SimConfig(tau=0.18, x0=x0, t_final=40.0)
    traj = sc.simulate(sc.build_system(demo6, 1.3), cfg)
    assert traj.target == pytest.approx(x0.mean(), abs=1e-12)
    assert np.max(np.abs(traj.states[-1, :6] - traj.target)) <= 1e-3


def test_conservation_with_delay(demo6):
    rng = np.random.RandomState(9)
    x0 = rng.uniform(-2, 2, 6)
    cfg = sc.SimConfig(tau=0.15, x0=x0, t_final=20.0)
    traj = sc.simulate(sc.build_system(demo6, 0.9), cfg)
    assert float(traj.conservation_drift.max()) <= 1e-6 * (1 + abs(x0.sum()))


def test_misaligned_tau_dt_rejected(demo6):
    cfg = sc.SimConfig(tau=0.18, x0=np.ones(6), dt=0.007)
    with pytest.raises(sc.InvalidConfig, match="integer"):
        sc.simulate(sc.build_system(demo6, 1.3), cfg)


def test_coarse_delay_resolution_rejected(demo6):
    cfg = sc.SimConfig(tau=0.1, x0=np.ones(6), dt=0.05)
    with pytest.raises(sc.InvalidConfig, match="at least 10"):
        sc.simulate(sc.build_system(demo6, 1.3), cfg)


def test_t_final_shorter_than_tau_rejected(demo6):
    cfg = sc.SimConfig(tau=2.0, x0=np.ones(6), t_final=1.0)
    with pytest.raises(sc.InvalidConfig):
        sc.simulate(sc.build_system(demo6, 1.3), cfg)


@pytest.mark.parametrize("threshold", [0.0, -1.0, np.nan])
def test_divergence_threshold_not_positive_rejected(demo6, threshold):
    # 0 or -1 would grade this converging run diverged at its first step, and
    # nan, which no state exceeds, would never grade a run diverged
    cfg = sc.SimConfig(tau=0.18, x0=seeded_x0(0, 6), divergence_threshold=threshold)
    with pytest.raises(sc.InvalidConfig) as info:
        sc.simulate(sc.build_system(demo6, 1.3), cfg)
    assert str(info.value) == "divergence_threshold must be positive, got %r" % threshold
    # inf, no threshold at all, is valid
    sc.SimConfig(tau=0.18, x0=np.ones(6), divergence_threshold=np.inf).resolved()


def test_x0_not_one_dimensional_rejected(demo6):
    # 2 x 3 initial states hold 6 values, as many as demo6 has nodes
    cfg = sc.SimConfig(tau=0.18, x0=np.ones((2, 3)))
    with pytest.raises(sc.InvalidConfig) as info:
        sc.simulate(sc.build_system(demo6, 1.3), cfg)
    assert str(info.value) == "x0 must be a non-empty 1-D array, got shape (2, 3)"
    # no agents: the 0 x 0 system matches, and the target would be 0 / 0
    cfg = sc.SimConfig(tau=0.0, x0=np.ones(0), t_final=1.0)
    with pytest.raises(sc.InvalidConfig, match=r"got shape \(0,\)"):
        sc.simulate(np.zeros((0, 0)), cfg)


def test_states_over_the_cap_rejected_before_allocating():
    # rows = delay_steps + nsteps + 1 of 2n = 12 values; the cap allows
    # 8,333,333 rows, and resolved() allocates no states either way
    cap_rows = MAX_STATE_VALUES // 12
    ok = sc.SimConfig(tau=0.0, x0=np.ones(6), t_final=(cap_rows - 1) * 1e-2)
    assert ok.resolved()[4] == cap_rows - 1
    over = sc.SimConfig(tau=0.0, x0=np.ones(6), t_final=cap_rows * 1e-2)
    with pytest.raises(sc.InvalidConfig, match="more than 100000000 state values"):
        over.resolved()
    # a step so small that the step count overflows a float
    tiny = sc.SimConfig(tau=1.0, x0=np.ones(6), dt=1e-310, t_final=40.0)
    with pytest.raises(sc.InvalidConfig, match="state values"):
        tiny.resolved()


def test_tau_zero_matches_expm(demo6):
    rng = np.random.RandomState(4)
    x0 = rng.uniform(0, 1, 6)
    sys = sc.build_system(demo6, 1.3)
    cfg = sc.SimConfig(tau=0.0, x0=x0, dt=1e-2, t_final=1.0)
    traj = sc.simulate(sys, cfg)
    y0 = np.concatenate([x0, np.zeros(6)])
    ref = scipy.linalg.expm(sys) @ y0
    assert np.max(np.abs(traj.states[-1] - ref)) <= 1e-8


def reference_delayed(mat, y0, delay_steps, nsteps, dt):
    """The delayed scheme one step at a time: Simpson's rule on each step with
    the delayed midpoint from cubic Hermite interpolation of the nodes."""
    ys = [y0]

    def y(j):  # node j, constant history before t = 0
        return ys[j] if j >= 0 else y0

    def f(j):  # y'(t_j) = M y(t_j - tau)
        return mat @ y(j - delay_steps)

    for s in range(nsteps):
        q = s - delay_steps
        ymid = 0.5 * (y(q) + y(q + 1)) + (dt / 8.0) * (f(q) - f(q + 1))
        ys.append(ys[s] + (dt / 6.0) * (f(s) + 4.0 * (mat @ ymid) + mat @ y(q + 1)))
    return np.array(ys)


def test_delayed_kernel_matches_stepwise_reference(demo6):
    # 1275 steps: 25 full delay windows of 50 steps and a partial one
    rng = np.random.RandomState(5)
    x0 = rng.uniform(0, 1, 6)
    sys = sc.build_system(demo6, 1.3)
    cfg = sc.SimConfig(tau=0.2, x0=x0, dt=0.2 / 50, t_final=5.1)
    traj = sc.simulate(sys, cfg)
    ref = reference_delayed(sys, np.concatenate([x0, np.zeros(6)]), 50, 1275, 0.2 / 50)
    assert traj.states.shape == ref.shape
    assert np.max(np.abs(traj.states - ref)) <= 1e-12


def test_integrator_order(demo6):
    sys = sc.build_system(demo6, 1.3)
    rng = np.random.RandomState(8)
    x0 = rng.uniform(0, 1, 6)

    def end_state(divisor):
        cfg = sc.SimConfig(tau=0.2, x0=x0, dt=0.2 / divisor,
                           t_final=5.0)
        return sc.simulate(sys, cfg).states[-1]

    ref = end_state(200)
    err_coarse = np.max(np.abs(end_state(25) - ref))
    err_fine = np.max(np.abs(end_state(50) - ref))
    assert err_coarse / err_fine >= 8.0


def test_trajectory_csv_and_metadata(tmp_path, demo6):
    rng = np.random.RandomState(6)
    cfg = sc.SimConfig(tau=0.18, x0=rng.uniform(0, 1, 6), t_final=5.0)
    traj = sc.simulate(sc.build_system(demo6, 1.3), cfg)
    csv_path = tmp_path / "traj.csv"
    meta_path = tmp_path / "traj.json"
    write_trajectory_csv(traj, str(csv_path))
    write_metadata(traj, cfg, str(meta_path), {"seed": 6})
    header = csv_path.read_text().splitlines()[0]
    assert header == ("t,x1,x2,x3,x4,x5,x6,z1,z2,z3,z4,z5,z6,"
                      "consensus_error,conservation_drift")
    data = np.loadtxt(str(csv_path), delimiter=",", skiprows=1)
    assert data.shape[0] == traj.times.size
    meta = json.loads(meta_path.read_text())
    assert meta["verdict"] == traj.verdict
    assert meta["seed"] == 6


def converged_run(demo6):
    rng = np.random.RandomState(6)
    cfg = sc.SimConfig(tau=0.2, x0=rng.uniform(0, 1, 6), t_final=5.0)
    return sc.simulate(sc.build_system(demo6, 1.3), cfg)


def overflowing_run(demo6, x0=None):
    # beyond the margin (tau_c = 0.206) with no divergence threshold: the run
    # ends on the first row with an inf or a nan
    if x0 is None:
        x0 = 1e300 * np.random.RandomState(3).uniform(0, 1, 6)
    cfg = sc.SimConfig(tau=0.4, x0=x0, t_final=200.0,
                       divergence_threshold=np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        return sc.simulate(sc.build_system(demo6, 1.1), cfg)


def savetxt_reference(traj, path):
    n = traj.states.shape[1] // 2
    header = ",".join(["t"] + ["x%d" % i for i in range(1, n + 1)]
                      + ["z%d" % i for i in range(1, n + 1)]
                      + ["consensus_error", "conservation_drift"])
    table = np.column_stack([traj.times, traj.states, traj.consensus_error,
                             traj.conservation_drift])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


def head(traj, rows):
    return dataclasses.replace(
        traj, times=traj.times[:rows], states=traj.states[:rows],
        consensus_error=traj.consensus_error[:rows],
        conservation_drift=traj.conservation_drift[:rows])


@pytest.mark.parametrize("rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                  CSV_BLOCK_ROWS + 1, 1024, 1025])
def test_trajectory_csv_matches_savetxt(tmp_path, demo6, rows):
    traj = head(converged_run(demo6), rows)
    write_trajectory_csv(traj, str(tmp_path / "blocks.csv"))
    savetxt_reference(traj, str(tmp_path / "ref.csv"))
    written = (tmp_path / "blocks.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    assert written.count(b"\n") == rows + 1


def test_trajectory_csv_matches_savetxt_on_overflow(tmp_path, demo6):
    traj = overflowing_run(demo6)
    assert traj.verdict == "diverged" and traj.times.size > 1025
    write_trajectory_csv(traj, str(tmp_path / "blocks.csv"))
    savetxt_reference(traj, str(tmp_path / "ref.csv"))
    written = (tmp_path / "blocks.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    last = written.splitlines()[-1].split(b",")
    assert b"inf" in last and last[-1] == b"nan"


@pytest.mark.parametrize("run", ["converged", "overflow", "nan"])
def test_consensus_error_is_max_abs_deviation(demo6, run):
    if run == "converged":
        traj = converged_run(demo6)
    elif run == "overflow":
        traj = overflowing_run(demo6)
    else:
        # M y0 overflows to inf - inf at the first step
        traj = overflowing_run(demo6, 1e308 * np.array([1.0, -1.0] * 3))
        assert np.isnan(traj.consensus_error[-1])
        # a NaN error counts as above the tolerance
        assert traj.convergence_time is None
    with np.errstate(invalid="ignore"):
        ref = np.max(np.abs(traj.states[:, :6] - traj.target), axis=1)
    assert np.array_equal(traj.consensus_error, ref, equal_nan=True)


def test_simulate_holds_one_trajectory_array(demo6):
    # 20,000 steps: the states are the only array that grows with the run
    rng = np.random.RandomState(2)
    sys = sc.build_system(demo6, 1.3)
    cfg = sc.SimConfig(tau=0.2, x0=rng.uniform(0, 1, 6), t_final=80.0)
    tracemalloc.start()
    try:
        traj = sc.simulate(sys, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.times.size == 20001
    assert peak <= 2 * traj.states.nbytes


def test_csv_writer_holds_a_small_block(tmp_path):
    # 20,001 rows at n = 40, the size of a 20,000-step run: the writer's own
    # allocations stay a small fraction of the trajectory it formats
    rows, n = 20001, 40
    rng = np.random.RandomState(1)
    traj = sc.Trajectory(times=0.002 * np.arange(rows), states=rng.uniform(0, 1, (rows, 2 * n)),
                         consensus_error=rng.uniform(0, 1, rows),
                         conservation_drift=rng.uniform(0, 1e-14, rows), verdict="converged",
                         decision_time=40.0, convergence_time=38.0, target=0.5, t_final=40.0)
    tracemalloc.start()
    try:
        write_trajectory_csv(traj, str(tmp_path / "traj.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= traj.states.nbytes / 16


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31, 2**32 - 1])
def test_seeded_x0_is_the_randomstate_stream(seed):
    for n in (1, 6, 40, 200):
        assert np.array_equal(seeded_x0(seed, n), np.random.RandomState(seed).uniform(0, 1, n))


@pytest.mark.parametrize("seed", [-1, 2**32])
def test_seeded_x0_rejects_seed_out_of_range(seed):
    with pytest.raises(sc.InvalidConfig, match="seed must be in"):
        seeded_x0(seed, 6)
