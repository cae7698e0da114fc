import cmath
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import surplus_consensus as sc
from surplus_consensus.system import Spectrum, sort_eigenvalues

from conftest import max_nonnull_real


def make_spectrum(values, null_tolerance=1e-9):
    vals = sort_eigenvalues(np.asarray(values, dtype=complex))
    return Spectrum(eigenvalues=vals, null_tolerance=null_tolerance,
                    null_count=int(np.sum(np.abs(vals) <= null_tolerance)))


# ---------------------------------------------------------------- lambert_w

def test_lambert_w_identities():
    assert sc.lambert_w(math.e, 0) == pytest.approx(1.0, abs=1e-12)
    assert sc.lambert_w(0, 0) == 0
    w = sc.lambert_w(-math.pi / 2, 0)
    assert w == pytest.approx(1j * math.pi / 2, abs=1e-10)
    assert abs(w * cmath.exp(w) + math.pi / 2) <= 1e-12


def test_lambert_w_branch_singularity():
    with pytest.raises(sc.NumericalFailure):
        sc.lambert_w(0, -1)


def test_lambert_w_residual_grid():
    rng = np.random.RandomState(7)
    for _ in range(200):
        z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        if abs(z) < 1e-3:
            continue
        k = rng.randint(-3, 4)
        w = sc.lambert_w(z, k)
        assert abs(w * cmath.exp(w) - z) <= 1e-12


def test_lambert_w_matches_scipy():
    rng = np.random.RandomState(11)
    for _ in range(200):
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        if abs(z) < 1e-3 or abs(z + 1 / math.e) < 1e-2:
            continue
        k = rng.randint(-2, 3)
        mine = sc.lambert_w(z, k)
        ref = complex(scipy.special.lambertw(z, k))
        assert mine == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("z", [0.390 + 0.495j, -0.314 + 0.352j])
def test_lambert_w_principal_branch_regression(z):
    # the residual-only acceptance returned W_-1 at the first z and raised at
    # the second; the unwinding-number check and the restarts fix both
    assert abs(sc.lambert_w(z, 0) - complex(scipy.special.lambertw(z, 0))) <= 1e-12


# W is ill-conditioned at its branch point -1/e, where w is only determined to
# about sqrt(tol); signed zeros are dropped because lambert_w ignores them, and
# subnormals because scipy's W_k, k != 0, returns nan there
_box = st.floats(-10.0, 10.0, allow_subnormal=False).map(lambda v: v + 0.0)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(_box, _box)
def test_principal_branch_matches_scipy_and_dominates(x, y):
    z = complex(x, y)
    assume(abs(z + 1 / math.e) > 1e-3)
    w0 = sc.lambert_w(z, 0)
    assert abs(w0 - complex(scipy.special.lambertw(z, 0))) <= 1e-9 * max(1.0, abs(w0))
    # the rightmost root is a W_0 one: no other branch may hold a root further right
    for k in range(-3, 4):
        assert w0.real >= complex(scipy.special.lambertw(z, k)).real - 1e-9


def test_lambert_w_real_negative_branches():
    # real z in (-1/e, 0): both real branches
    for z in [-0.05, -0.2, -0.3]:
        w0 = sc.lambert_w(z, 0)
        wm1 = sc.lambert_w(z, -1)
        assert abs(w0.imag) <= 1e-12 and w0.real > -1
        assert abs(wm1.imag) <= 1e-12 and wm1.real < -1


# ------------------------------------------------------------- tau_critical

def test_tau_critical_real_spectrum():
    margin = sc.tau_critical(make_spectrum([0, -2, -2, -2]))
    assert margin.tau_c == pytest.approx(math.pi / 4, abs=1e-12)
    assert margin.crossing_frequency == pytest.approx(2.0, abs=1e-12)


def test_tau_critical_scalar():
    margin = sc.tau_critical(make_spectrum([0, -1]))
    assert margin.tau_c == pytest.approx(math.pi / 2, abs=1e-12)


def test_tau_critical_preconditions():
    with pytest.raises(sc.PreconditionViolated):
        sc.tau_critical(make_spectrum([0, 0, -1]))
    with pytest.raises(sc.PreconditionViolated):
        sc.tau_critical(make_spectrum([0, 0.5, -1]))


def test_tau_critical_demo(demo6):
    spec = sc.spectrum(sc.build_system(demo6, 1.1))
    margin = sc.tau_critical(spec)
    # golden number, frozen from this implementation and cross-checked below
    # against the rightmost-root sign change
    assert margin.tau_c == pytest.approx(0.20578301458454987, rel=1e-9)
    lam = spec.eigenvalues[margin.limiting_eigenvalue_index]
    assert margin.crossing_frequency == pytest.approx(abs(lam), rel=1e-12)


# ---------------------------------------------------------- tau_tilde_bound

def test_tau_tilde_two_node(two_node):
    assert sc.tau_tilde_bound(two_node) == pytest.approx(0.5 * math.atan(2.0), abs=1e-12)


def test_tau_tilde_demo(demo6):
    spec0 = sc.spectrum(sc.build_system(demo6, 0.0))
    nonnull = spec0.eigenvalues[np.abs(spec0.eigenvalues) > 1e-9]
    lam3 = nonnull[np.argmax(nonnull.real)]
    expected = (1 / 6) * math.atan(abs(lam3.real) / 3)
    assert sc.tau_tilde_bound(demo6) == pytest.approx(expected, rel=1e-12)


def test_tau_tilde_precondition():
    with pytest.raises(sc.PreconditionViolated):
        sc.tau_tilde_bound(sc.build_graph(2, [(1, 2)]))


def test_tau_tilde_conservative(demo6, two_node):
    # the closed-form bound is only guaranteed for small coupling gains
    for g in (demo6, two_node):
        tilde = sc.tau_tilde_bound(g)
        for eps in [0.01, 0.05, 0.1]:
            margin = sc.tau_critical(sc.spectrum(sc.build_system(g, eps)))
            assert tilde <= margin.tau_c


# ----------------------------------------------------------- rightmost_root

def test_rightmost_root_scalar_margin():
    spec = make_spectrum([-1.0])
    root = sc.rightmost_root(spec, math.pi / 2)
    assert abs(root.root.real) <= 1e-9
    assert root.residual <= 1e-10


def test_rightmost_root_scalar_small_delay():
    spec = make_spectrum([-1.0])
    root = sc.rightmost_root(spec, 0.1)
    # s*exp(0.1*s) = -1 has its principal root near -1.118, slightly left of
    # the undelayed eigenvalue
    assert -1.5 < root.root.real < 0.0
    assert abs(root.root.imag) <= 1e-12
    assert abs(root.root * cmath.exp(root.root * 0.1) + 1.0) <= 1e-10


def test_rightmost_root_requires_positive_tau(demo6):
    spec = sc.spectrum(sc.build_system(demo6, 1.1))
    with pytest.raises(sc.InvalidParameter):
        sc.rightmost_root(spec, 0.0)


def test_rightmost_root_residual_and_dominance(demo6):
    spec = sc.spectrum(sc.build_system(demo6, 1.1))
    for tau in [0.05, 0.19, 0.3]:
        best = sc.rightmost_root(spec, tau)
        assert best.residual <= 1e-10
        # no scanned candidate beats the returned root
        for lam in spec.eigenvalues:
            if abs(lam) <= spec.null_tolerance:
                continue
            for k in range(-2, 3):
                s = sc.lambert_w(tau * complex(lam), k) / tau
                assert s.real <= best.root.real + 1e-9


def test_rightmost_root_wrong_branch_cell():
    # the residual-only lambert_w returned W_-1 for the dominant eigenvalue
    # here, so the scan reported -0.18886, left of the true rightmost root
    g = sc.random_strongly_connected(9, 2, seed=30)
    sys = sc.build_system(g, 0.2)
    root = sc.rightmost_root(sc.spectrum(sys), 0.4).root
    assert root.real == pytest.approx(-0.15733, abs=1e-5)
    assert abs(root.real - sc.rightmost_root_oracle(sys, 0.4, 30).real) <= 1e-6


# ---------------------------------------------------------------- oracle

def test_oracle_scalar_margin():
    sys_scalar = sc.AugmentedSystem(graph=None, epsilon=0.0,
                                    m=np.array([[-1.0]]))
    root = sc.rightmost_root_oracle(sys_scalar, math.pi / 2, 20)
    assert abs(root.real) <= 1e-6


def test_oracle_order_precondition(demo6):
    sys = sc.build_system(demo6, 1.1)
    with pytest.raises(sc.InvalidParameter):
        sc.rightmost_root_oracle(sys, 0.1, 5)


def test_oracle_matches_lambert(demo6):
    sys = sc.build_system(demo6, 1.1)
    spec = sc.spectrum(sys)
    for tau in [0.1, 0.19, 0.3]:
        lw = sc.rightmost_root(spec, tau).root
        orc = sc.rightmost_root_oracle(sys, tau, 30)
        assert abs(lw.real - orc.real) <= 1e-6
        assert abs(abs(lw.imag) - abs(orc.imag)) <= 1e-6


def test_oracle_small_delay_limit(demo6):
    sys = sc.build_system(demo6, 1.1)
    spec = sc.spectrum(sys)
    orc = sc.rightmost_root_oracle(sys, 1e-6, 30)
    assert abs(orc.real - max_nonnull_real(spec)) <= 1e-4


# ------------------------------------------------------- sweeps and the map

def test_sweep_tau_c_empty(demo6):
    assert sc.sweep_tau_c(demo6, []) == []


def test_sweep_tau_c_demo(demo6):
    grid = np.round(np.arange(0.2, 1.8001, 0.2), 10)
    records = sc.sweep_tau_c(demo6, grid)
    assert len(records) == grid.size
    for _, margin, err in records:
        assert err is None
        assert 0 < margin.tau_c < 1


def test_sweep_tau_c_two_node_limit(two_node):
    records = sc.sweep_tau_c(two_node, [1e-6])
    # the limiting eigenvalue -2 is defective at eps=0, so convergence to the
    # pi/4 limit is only O(sqrt(eps))
    assert records[0][1].tau_c == pytest.approx(math.pi / 4, rel=2e-3)


def test_sweep_tau_c_reports_bad_points():
    ring = sc.build_graph(6, [(i, i % 6 + 1) for i in range(1, 7)])
    records = sc.sweep_tau_c(ring, [0.2, 2.0])
    assert records[0][1] is not None
    assert records[1][1] is None and records[1][2]


def test_stability_map_consistency(demo6):
    eps_grid = [0.8, 1.1]
    tau_grid = [0.0, 0.1, 0.3]
    smap = sc.stability_map(demo6, eps_grid, tau_grid)
    assert smap.lambda_r_real.shape == (2, 3)
    assert not smap.failures
    assert np.all(np.isfinite(smap.lambda_r_real))
    for a, eps in enumerate(eps_grid):
        spec = sc.spectrum(sc.build_system(demo6, eps))
        # tau = 0 column equals the matrix eigenvalue
        assert smap.lambda_r_real[a, 0] == pytest.approx(max_nonnull_real(spec), abs=1e-12)
        margin = sc.tau_critical(spec)
        for b, tau in enumerate(tau_grid):
            if tau > margin.tau_c:
                assert smap.lambda_r_real[a, b] > 0


def test_crossing_bisection_matches_margin(demo6):
    spec = sc.spectrum(sc.build_system(demo6, 1.1))
    margin = sc.tau_critical(spec)
    tau_star = sc.bisect_tau_crossing(spec, 0.5 * margin.tau_c, 2 * margin.tau_c,
                                      rel_tol=1e-9)
    assert tau_star == pytest.approx(margin.tau_c, rel=1e-6)


def test_oracle_agreement_random(random_graphs):
    rng = np.random.RandomState(5)
    for g in random_graphs[:8]:
        eps_bar = sc.find_eps_bar(g, np.linspace(0.05, 1.0, 10))
        eps = rng.uniform(0.2, 1.0) * eps_bar
        sys = sc.build_system(g, eps)
        spec = sc.spectrum(sys)
        margin = sc.tau_critical(spec)
        tau = rng.uniform(0.05, 2.0) * margin.tau_c
        lw = sc.rightmost_root(spec, tau).root
        orc = sc.rightmost_root_oracle(sys, tau, 30)
        assert abs(lw.real - orc.real) <= 1e-6
