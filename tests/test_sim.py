import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surplus_consensus as sc
from surplus_consensus import _csv_format
from surplus_consensus.sim import (CONSENSUS_TOLERANCE, CSV_BLOCK_ROWS, DIVERGENCE_THRESHOLD,
                                   MAX_STATE_VALUES, _csv_header, _write_rows, seeded_x0)

from conftest import exact_delayed_state, exact_system


def simulate_with_states(m, cfg, tmp_path):
    """simulate with a CSV, and the (samples x 2n) states read back from it:
    "%.17g" round-trips every double, inf and nan included."""
    path = str(tmp_path / "traj.csv")
    traj = sc.simulate(m, cfg, path)
    return traj, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:-2]


def test_equilibrium_is_stationary(tmp_path, demo6):
    sys = sc.build_system(demo6, 1.3)
    cfg = sc.SimConfig(tau=0.2, x0=3.7 * np.ones(6), t_final=5.0)
    traj, states = simulate_with_states(sys, cfg, tmp_path)
    assert np.max(np.abs(states - states[0])) <= 1e-12
    assert np.max(traj.consensus_error) <= 1e-12
    assert traj.verdict == "converged"
    # settled from the first sample; decided window samples later
    window = int(round(0.05 * cfg.t_final / (cfg.tau / 50)))
    assert traj.convergence_time == traj.times[0] == 0.0
    assert traj.decision_time == traj.times[0 + window]
    # the shortest run, one delay of tau/dt = 10 steps: settled from sample 0
    # with a window of one step, 5% of 10 steps rounded
    cfg = sc.SimConfig(tau=0.1, x0=3.7 * np.ones(6), dt=1e-2, t_final=0.1)
    traj = sc.simulate(sys, cfg)
    assert traj.times.size == 11
    assert (traj.verdict, traj.convergence_time, traj.decision_time) == ("converged", 0.0, 1e-2)


def test_demo_run_converges(demo6):
    rng = np.random.RandomState(42)
    x0 = rng.uniform(0, 1, 6)
    sys = sc.build_system(demo6, 1.3)
    cfg = sc.SimConfig(tau=0.18, x0=x0, t_final=40.0)
    traj = sc.simulate(sys, cfg)
    assert traj.verdict == "converged"
    assert np.max(np.abs(traj.final_state[:6] - x0.mean())) <= 1e-3
    # the settling index: the error is above the tolerance just before it and
    # below it from there to the end
    err = traj.consensus_error
    settle = np.flatnonzero(err >= CONSENSUS_TOLERANCE)[-1] + 1
    assert settle > 0 and np.all(err[settle:] < CONSENSUS_TOLERANCE)
    window = int(round(0.05 * cfg.t_final / (cfg.tau / 50)))
    assert traj.convergence_time == traj.times[settle]
    assert traj.decision_time == traj.times[settle + window]


def test_beyond_margin_diverges(tmp_path, demo6):
    spec = sc.spectrum(sc.build_system(demo6, 1.1))
    tau_c = sc.tau_critical(spec).tau_c
    tau = round(1.5 * tau_c, 4)
    rng = np.random.RandomState(3)
    cfg = sc.SimConfig(tau=tau, x0=rng.uniform(0, 1, 6),
                       dt=tau / 50, t_final=400.0)
    traj, states = simulate_with_states(sc.build_system(demo6, 1.1), cfg, tmp_path)
    assert traj.verdict == "diverged"
    assert traj.convergence_time is None
    # the run ends on the first row over the threshold
    peak = np.abs(states).max(axis=1)
    assert peak[-1] > DIVERGENCE_THRESHOLD
    assert np.all(peak[:-1] <= DIVERGENCE_THRESHOLD)


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
    # (1'x0 + 1'z0) / n, on the shortest runs, one delay of 10 steps
    m = sc.build_system(three_cycle, 1.0)
    cfg = sc.SimConfig(tau=0.1, x0=np.array([1.0, 2.0, 3.0]), dt=1e-2, t_final=0.1)
    assert sc.simulate(m, cfg).target == 2.0
    cfg = sc.SimConfig(tau=0.1, x0=np.array([1.0, 2.0, 3.0]),
                       z0=np.array([3.0, 0.0, 0.0]), dt=1e-2, t_final=0.1)
    assert sc.simulate(m, cfg).target == 3.0


def test_target_matches_trajectory_limit(demo6):
    rng = np.random.RandomState(0)
    x0 = rng.uniform(0, 1, 6)
    cfg = sc.SimConfig(tau=0.18, x0=x0, t_final=40.0)
    traj = sc.simulate(sc.build_system(demo6, 1.3), cfg)
    assert traj.target == pytest.approx(x0.mean(), abs=1e-12)
    assert np.max(np.abs(traj.final_state[:6] - traj.target)) <= 1e-3


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


@pytest.mark.parametrize("field", ["x0", "z0"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_initial_state_rejected(demo6, field, value):
    # a non-finite x0 or z0 would give a non-finite target and a run graded diverged
    start = {"x0": seeded_x0(0, 6), "z0": np.zeros(6)}
    start[field][2] = value
    cfg = sc.SimConfig(tau=0.18, **start)
    with pytest.raises(sc.InvalidConfig) as info:
        sc.simulate(sc.build_system(demo6, 1.3), cfg)
    assert str(info.value) == "%s must be finite, got %r" % (field, value)


def test_x0_not_one_dimensional_rejected(demo6):
    # 2 x 3 initial states hold 6 values, as many as demo6 has nodes
    cfg = sc.SimConfig(tau=0.18, x0=np.ones((2, 3)))
    with pytest.raises(sc.InvalidConfig) as info:
        sc.simulate(sc.build_system(demo6, 1.3), cfg)
    assert str(info.value) == "x0 must be a non-empty 1-D array, got shape (2, 3)"
    # no agents: the 0 x 0 system matches, and the target would be 0 / 0
    cfg = sc.SimConfig(tau=0.1, x0=np.ones(0), t_final=1.0)
    with pytest.raises(sc.InvalidConfig, match=r"got shape \(0,\)"):
        sc.simulate(np.zeros((0, 0)), cfg)


@pytest.mark.parametrize("shape", [(10, 10), (12, 13), (12, 1), (12,)],
                         ids=["10x10", "12x13", "12x1", "12"])
def test_system_shape_mismatch_rejected(shape):
    # six agents need a 12 x 12 system; a wrong second dimension used to reach
    # the kernel and raise numpy's own ValueError
    cfg = sc.SimConfig(tau=0.1, x0=np.ones(6))
    with pytest.raises(sc.InvalidConfig) as info:
        sc.simulate(np.zeros(shape), cfg)
    assert str(info.value) == ("system shape %r does not match x0 length 6, want (12, 12)"
                               % (shape,))


def test_states_over_the_cap_rejected_before_allocating():
    # rows = delay_steps + nsteps + 1 of 2n = 12 values; the cap allows
    # 8,333,333 rows, and resolved() allocates no states either way; tau = 1
    # and dt = 1/16 are exact in binary, so the counts are too
    cap_rows = MAX_STATE_VALUES // 12
    ok = sc.SimConfig(tau=1.0, x0=np.ones(6), dt=0.0625, t_final=(cap_rows - 17) * 0.0625)
    assert ok.resolved()[3:] == (16, cap_rows - 17)
    over = sc.SimConfig(tau=1.0, x0=np.ones(6), dt=0.0625, t_final=(cap_rows - 16) * 0.0625)
    with pytest.raises(sc.InvalidConfig, match="more than 100000000 state values"):
        over.resolved()
    # a step so small that the step count overflows a float
    tiny = sc.SimConfig(tau=1.0, x0=np.ones(6), dt=1e-310, t_final=40.0)
    with pytest.raises(sc.InvalidConfig, match="state values"):
        tiny.resolved()


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


def test_delayed_kernel_matches_stepwise_reference(tmp_path, demo6):
    # 1275 steps: 25 full delay windows of 50 steps and a partial one
    rng = np.random.RandomState(5)
    x0 = rng.uniform(0, 1, 6)
    sys = sc.build_system(demo6, 1.3)
    cfg = sc.SimConfig(tau=0.2, x0=x0, dt=0.2 / 50, t_final=5.1)
    _, states = simulate_with_states(sys, cfg, tmp_path)
    ref = reference_delayed(sys, np.concatenate([x0, np.zeros(6)]), 50, 1275, 0.2 / 50)
    assert states.shape == ref.shape
    assert np.max(np.abs(states - ref)) <= 1e-12


def test_integrator_order(demo6):
    sys = sc.build_system(demo6, 1.3)
    rng = np.random.RandomState(8)
    x0 = rng.uniform(0, 1, 6)

    def end_state(divisor):
        cfg = sc.SimConfig(tau=0.2, x0=x0, dt=0.2 / divisor,
                           t_final=5.0)
        return sc.simulate(sys, cfg).final_state

    ref = end_state(200)
    err_coarse = np.max(np.abs(end_state(25) - ref))
    err_fine = np.max(np.abs(end_state(50) - ref))
    assert err_coarse / err_fine >= 8.0


# demo6 at eps = 13/10, tau = 1/5 and x0_i = fl(i/7) (z0 = 0), to t = 51/10: 25
# full delay windows and a half one; M(eps), tau and y0 are rational, so the
# exact solution is a finite sum of Fractions
EXACT_T_FINAL = Fraction(51, 10)


@pytest.fixture(scope="module")
def exact_run(demo6):
    """(M(1.3), x0, y0, y(51/10)): the float system and initial state, and the
    exact initial state and solution as Fractions."""
    x0 = np.arange(1, 7) / 7.0
    y0 = [Fraction(v) for v in x0] + [Fraction(0)] * 6
    y = exact_delayed_state(exact_system(demo6, Fraction(13, 10)), y0, Fraction(1, 5),
                            EXACT_T_FINAL)
    return sc.build_system(demo6, 1.3), x0, y0, y


def test_kernel_is_fourth_order_against_the_exact_solution(exact_run):
    mat, x0, _, y = exact_run
    exact = np.array([float(v) for v in y])
    errors = []
    for divisor in (10, 20, 40):
        cfg = sc.SimConfig(tau=0.2, x0=x0, dt=0.2 / divisor, t_final=float(EXACT_T_FINAL))
        errors.append(np.max(np.abs(sc.simulate(mat, cfg).final_state - exact)))
    # 2^4 per halving; at dt = tau/10 the error is 1.71e-6, and 1.07e-11 at tau/200
    assert 15.0 <= errors[0] / errors[1] <= 17.0
    assert 15.0 <= errors[1] / errors[2] <= 17.0
    assert errors[0] <= 2e-6


def test_conservation_drift_and_target_match_exact_arithmetic(exact_run):
    mat, x0, y0, y = exact_run
    n = x0.size
    # the exact solution conserves 1'y, so the exact drift of a state is its own
    assert sum(y) == sum(y0)
    traj = sc.simulate(mat, sc.SimConfig(tau=0.2, x0=x0, dt=0.02, t_final=float(EXACT_T_FINAL)))
    target = sum(y0) / n
    assert abs(traj.target - float(target)) <= math.ulp(float(target))
    u = 2.0 ** -53
    final = [Fraction(v) for v in traj.final_state]
    # the drift simulate reports is the final state's exact drift, to the rounding of its sum
    exact_drift = abs(sum(final) - sum(y0))
    assert abs(traj.conservation_drift[-1] - float(exact_drift)) <= 4 * n * u * float(
        sum(abs(v) for v in final))
    # the consensus error is the exact solution's, to the state's distance from it
    distance = max(abs(a - b) for a, b in zip(final, y))
    exact_error = max(abs(v - target) for v in y[:n])
    assert abs(traj.consensus_error[-1] - float(exact_error)) <= float(distance) + 4 * u
    assert traj.times[-1] == traj.t_final


def test_trajectory_csv_header_and_rows(tmp_path, demo6):
    rng = np.random.RandomState(6)
    cfg = sc.SimConfig(tau=0.18, x0=rng.uniform(0, 1, 6), t_final=5.0)
    csv_path = tmp_path / "traj.csv"
    traj = sc.simulate(sc.build_system(demo6, 1.3), cfg, str(csv_path))
    header = csv_path.read_text().splitlines()[0]
    assert header == ("t,x1,x2,x3,x4,x5,x6,z1,z2,z3,z4,z5,z6,"
                      "consensus_error,conservation_drift")
    data = np.loadtxt(str(csv_path), delimiter=",", skiprows=1)
    assert data.shape[0] == traj.times.size


def converged_run(demo6, tmp_path):
    rng = np.random.RandomState(6)
    cfg = sc.SimConfig(tau=0.2, x0=rng.uniform(0, 1, 6), t_final=5.0)
    return simulate_with_states(sc.build_system(demo6, 1.3), cfg, tmp_path)


def overflowing_run(m, x0, tmp_path, z0=None):
    # the first step overflows: the run ends on that row, with an inf or a nan
    cfg = sc.SimConfig(tau=0.4, x0=x0, z0=z0, t_final=200.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return simulate_with_states(m, cfg, tmp_path)


def overflowing_rows(rows):
    # built by hand: the states grow by e^0.65 a row and overflow to +-inf
    # from row 1092 on, where the drift inf - inf is nan
    with np.errstate(over="ignore", invalid="ignore"):
        states = np.outer(np.exp(0.65 * np.arange(rows)), [1.0, -1.0] * 6)
        err = np.abs(states[:, :6]).max(axis=1)
        drift = np.abs(states.sum(axis=1))
    return 0.008 * np.arange(rows), states, err, drift


def write_rows(path, times, states, err, drift):
    with open(path, "wb") as fh:
        fh.write(_csv_header(states.shape[1] // 2))
        _write_rows(fh, times, states, err, drift)


def savetxt_reference(table, path):
    # table: the columns t, x, z, error and drift
    n = (table.shape[1] - 3) // 2
    header = ",".join(["t"] + ["x%d" % i for i in range(1, n + 1)]
                      + ["z%d" % i for i in range(1, n + 1)]
                      + ["consensus_error", "conservation_drift"])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


@pytest.mark.parametrize("rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                  CSV_BLOCK_ROWS + 1, 1024, 1025])
def test_trajectory_csv_matches_savetxt(tmp_path, demo6, rows):
    traj, states = converged_run(demo6, tmp_path)
    columns = (traj.times[:rows], states[:rows], traj.consensus_error[:rows],
               traj.conservation_drift[:rows])
    write_rows(str(tmp_path / "blocks.csv"), *columns)
    savetxt_reference(np.column_stack(columns), str(tmp_path / "ref.csv"))
    written = (tmp_path / "blocks.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    assert written.count(b"\n") == rows + 1


def test_trajectory_csv_matches_savetxt_on_overflow(tmp_path):
    columns = overflowing_rows(1100)
    write_rows(str(tmp_path / "blocks.csv"), *columns)
    savetxt_reference(np.column_stack(columns), str(tmp_path / "ref.csv"))
    written = (tmp_path / "blocks.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    last = written.splitlines()[-1].split(b",")
    assert b"inf" in last and last[-1] == b"nan"


def assert_formats_as_percent(values):
    # one value a row: format_rows's bytes against "%.17g" of each value
    values = np.asarray(values, dtype=np.float64)
    got = _csv_format.format_rows(values.reshape(-1, 1)).split(b"\n")
    assert got == [b"%.17g" % v for v in values.tolist()] + [b""]


def powers_of_ten_and_neighbours(ks):
    powers = np.array([float("1e%d" % k) for k in ks])
    return np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])


FORMAT_CASES = {
    "subnormal and normal minimum": [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
    "powers of ten": powers_of_ten_and_neighbours(range(-300, 301)),
    # "%.17g" switches between exponent and fixed notation at X = -4 and X = 17
    "switch points": powers_of_ten_and_neighbours([-6, -5, -4, -3, 15, 16, 17, 18]),
    # the 17-digit rounding of these doubles just below 10**k carries to 10**k
    "carry to the next power": [1e-14, 1e98, 1e-305],
    "exact ties": [10001 / 2**20, 10003 / 2**20, 0.5, 2.5, 1 / 2**20],
    # the longdouble product lands on, above or below the half-way point
    # while the exact one lies on the other side
    "near ties": [7.588710127134367e-23, 6.433640789898492e+22, 7.174453009530863e-17],
    "integer digits and zeros": [10.0, 100.5, 123456.0, 1e16 + 2, 12345678901234567.0, 0.002,
                                 3 * 0.1, 40.0, 10.004000000000001],
    "not finite and zero": [0.0, np.inf, np.nan],
}


@pytest.mark.parametrize("case", list(FORMAT_CASES))
def test_format_rows_is_percent_on_named_values(case):
    values = np.asarray(FORMAT_CASES[case], dtype=np.float64)
    assert_formats_as_percent(np.concatenate([values, -values]))


def test_format_rows_rounds_exact_ties_half_to_even():
    assert (_csv_format.format_rows(np.array([[10001 / 2**20, 10003 / 2**20]]))
            == b"0.0095376968383789062,0.0095396041870117188\n")


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=100))
def test_format_rows_is_percent_on_floats(values):
    assert_formats_as_percent(values)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=100))
def test_format_rows_is_percent_on_bit_patterns(bits):
    assert_formats_as_percent(np.array(bits, dtype=np.uint64).view(np.float64))


def test_format_tables_are_correctly_rounded():
    xs = range(_csv_format._X_LO, _csv_format._X_HI + 1)
    for x, power in zip(xs, _csv_format._POWERS):
        exact = Fraction(10) ** (16 - x)
        got = Fraction(*power.as_integer_ratio())
        below, above = (Fraction(*np.nextafter(power, to).as_integer_ratio())
                        for to in (np.longdouble(0), np.longdouble(np.inf)))
        assert abs(got - exact) <= min(abs(below - exact), abs(above - exact)), x


def test_double_powers_certify_nothing():
    # where longdouble is a double, every value goes to %: 10**k overflows
    # for X < -292, and a double's product cannot round to 17 digits
    powers = _csv_format._exponent_tables(np.float64)
    x = np.arange(_csv_format._X_LO, _csv_format._X_HI + 1)
    assert np.array_equal(powers == 0, 16 - x > 308)
    values = np.concatenate([[5e-324, 1e-300, 2.2250738585072014e-308, 1e-293, 1.0, 0.1,
                              10001 / 2**20, 1.7976931348623157e308],
                             np.random.RandomState(2).uniform(0, 1, 200)])
    slow = _csv_format._significands(np.concatenate([values, -values]), powers)[2]
    assert slow.all()


@pytest.mark.parametrize("run", ["converged", "overflow", "nan"])
def test_consensus_error_is_max_abs_deviation(tmp_path, demo6, run):
    if run == "converged":
        traj, states = converged_run(demo6, tmp_path)
    elif run == "overflow":
        # M(1e308) y0 is +-1e308 in every entry, and six times that is inf
        traj, states = overflowing_run(sc.build_system(demo6, 1e308), np.ones(6), tmp_path,
                                       np.ones(6))
        assert np.all(np.isinf(traj.final_state))
        assert traj.consensus_error[-1] == np.inf and np.isnan(traj.conservation_drift[-1])
    else:
        # M y0 overflows to inf - inf at the first step
        traj, states = overflowing_run(sc.build_system(demo6, 1.1),
                                       1e308 * np.array([1.0, -1.0] * 3), tmp_path)
        assert np.isnan(traj.consensus_error[-1])
        # a NaN error counts as above the tolerance
        assert traj.convergence_time is None
    with np.errstate(invalid="ignore"):
        ref = np.max(np.abs(states[:, :6] - traj.target), axis=1)
    assert np.array_equal(traj.consensus_error, ref, equal_nan=True)


def traced_peak(fn):
    # an untraced call first: a first call fills the interpreter's free lists
    # and numpy's caches, about 2 kB, which would count in its own peak only
    fn()
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_csv_writer_holds_a_small_block(tmp_path):
    # the writer's own allocations do not grow with the rows it formats: equal
    # peaks at 1,025 and 4,097 rows of n = 40, to the spread of the text's
    # length, and under the 0.4 MB that sim.CSV_BLOCK_ROWS is chosen for
    def writer_peak(rows, n=40):
        rng = np.random.RandomState(1)
        times, states = 0.002 * np.arange(rows), rng.uniform(0, 1, (rows, 2 * n))
        err, drift = rng.uniform(0, 1, rows), rng.uniform(0, 1e-14, rows)
        with open(str(tmp_path / "traj.csv"), "wb") as fh:
            return traced_peak(lambda: _write_rows(fh, times, states, err, drift))[1]

    short, long = writer_peak(1025), writer_peak(4097)
    assert abs(long - short) <= 0.05 * short
    assert long <= 400_000


STREAMED_RUNS = {
    # 11,111 steps: 222 full windows of 50 and a partial one of 11
    "converged": (1.3, dict(tau=0.18, x0=np.random.RandomState(42).uniform(0, 1, 6),
                            t_final=40.0)),
    # past tau_c = 0.206: over the threshold at row 1,279, inside a window
    "diverged": (1.1, dict(tau=0.5, x0=seeded_x0(0, 6), t_final=40.0)),
    # the first step overflows to inf, or to inf - inf
    "overflow-inf": (1e308, dict(tau=0.4, x0=np.ones(6), z0=np.ones(6), t_final=200.0)),
    "overflow-nan": (1.1, dict(tau=0.4, x0=1e308 * np.array([1.0, -1.0] * 3), t_final=200.0)),
    "tau-dt-10": (1.3, dict(tau=0.1, x0=seeded_x0(1, 6), dt=0.01, t_final=5.0)),
    # windows of 100 rows, each formatted in two blocks
    "tau-dt-over-block": (1.3, dict(tau=0.2, x0=seeded_x0(2, 6), dt=0.002, t_final=2.0)),
}


@pytest.mark.parametrize("run", list(STREAMED_RUNS))
def test_streamed_csv_matches_savetxt(tmp_path, demo6, run):
    eps, fields = STREAMED_RUNS[run]
    m, cfg = sc.build_system(demo6, eps), sc.SimConfig(**fields)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = sc.simulate(m, cfg, str(tmp_path / "streamed.csv"))
    table = np.loadtxt(str(tmp_path / "streamed.csv"), delimiter=",", skiprows=1, ndmin=2)
    savetxt_reference(table, str(tmp_path / "ref.csv"))
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # one row per sample, and the last row is the final state
    assert table.shape[0] == traj.times.size
    for column, values in ((0, traj.times), (-2, traj.consensus_error),
                           (-1, traj.conservation_drift)):
        assert np.array_equal(table[:, column], values, equal_nan=True), column
    assert np.array_equal(table[-1, 1:-2], traj.final_state, equal_nan=True)
    delay_steps = cfg.resolved()[3]
    if run in ("converged", "diverged"):
        assert traj.verdict == run
        assert (traj.times.size - 1) % delay_steps != 0
    if run.startswith("overflow"):
        assert traj.times.size == 2
    if run == "tau-dt-over-block":
        assert delay_steps > CSV_BLOCK_ROWS


@pytest.mark.parametrize("to_csv", [True, False], ids=["csv", "no-csv"])
def test_simulate_starts_no_process(tmp_path, demo6, monkeypatch, to_csv):
    def no_fork():
        raise AssertionError("fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = sc.SimConfig(tau=0.2, x0=seeded_x0(0, 6), t_final=5.0)
    csv_path = str(tmp_path / "traj.csv") if to_csv else None
    assert sc.simulate(sc.build_system(demo6, 1.3), cfg, csv_path).times.size == 1251


def test_csv_write_error_raises_oserror(demo6):
    # /dev/full refuses every write with ENOSPC, from the first flush on
    cfg = sc.SimConfig(tau=0.2, x0=seeded_x0(0, 6), t_final=40.0)
    with pytest.raises(OSError):
        sc.simulate(sc.build_system(demo6, 1.3), cfg, "/dev/full")


@pytest.mark.parametrize("to_csv", [True, False], ids=["csv", "no-csv"])
def test_streamed_simulate_memory_does_not_grow_with_the_horizon(tmp_path, demo6, to_csv):
    # simulate holds the per-sample 1-D arrays and a few delay windows, with or
    # without a CSV: net of those arrays, equal peaks at 1,025 and 4,097 rows,
    # to the spread of the text's length, where a states array would add 295 kB
    m = sc.build_system(demo6, 1.3)
    csv_path = str(tmp_path / "traj.csv") if to_csv else None

    def net_peak(rows):
        cfg = sc.SimConfig(tau=0.2, x0=seeded_x0(0, 6), t_final=(rows - 1) * 0.004)
        traj, peak = traced_peak(lambda: sc.simulate(m, cfg, csv_path))
        assert traj.times.size == rows
        return peak - sum(a.nbytes for a in (traj.times, traj.consensus_error,
                                             traj.conservation_drift))

    short, long = net_peak(1025), net_peak(4097)
    assert abs(long - short) <= 0.05 * short
    # the kernel's three windows of (d + 1) x 2n floats and its temporaries, and
    # the formatter's 32-byte slot a value for a block of a window's rows, with
    # the slots' NUL-deleted copy: about 8 bytes per byte of the block
    window = 51 * 12 * 8
    assert long <= 20 * window


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31, 2**32 - 1])
def test_seeded_x0_is_the_randomstate_stream(seed):
    for n in (1, 6, 40, 200):
        assert np.array_equal(seeded_x0(seed, n), np.random.RandomState(seed).uniform(0, 1, n))


@pytest.mark.parametrize("seed", [-1, 2**32])
def test_seeded_x0_rejects_seed_out_of_range(seed):
    with pytest.raises(sc.InvalidConfig, match="seed must be in"):
        seeded_x0(seed, 6)
