import cmath
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import surplus_consensus as sc
from surplus_consensus.delay import FOUR_UNIT_ROUNDOFF
from surplus_consensus.system import NULL_TOLERANCE, Spectrum

from conftest import max_nonnull_real, reference_oracle


def residual_bound(z, k):
    """The residual bound lambert_w documents for W_k(z)."""
    return max(1e-12 * min(1.0, abs(z)),
               FOUR_UNIT_ROUNDOFF * abs(z) * (1.0 + abs(cmath.log(z) + 2j * math.pi * k)))


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


@pytest.mark.parametrize("z, k", [(1e-14, 1), (1e-14, -1), (1e-13, 2), (5e-13, -2),
                                  (1e-300, 1)])
def test_lambert_w_tiny_argument_regression(z, k):
    # an absolute residual bound accepted any w with Re w below about -30 here
    ref = complex(scipy.special.lambertw(z, k))
    assert abs(sc.lambert_w(z, k) - ref) <= 1e-13 * abs(ref)


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


def test_lambert_w_returns_only_a_w_that_meets_the_bound(monkeypatch):
    # with a few Halley steps the iterate is still moving: lambert_w either raises
    # or returns a w whose own residual, not an earlier iterate's, meets the bound;
    # at 2e3 - 1e4j that bound is the rounding term, 4.7e-11 to 8.0e-11
    rng = np.random.RandomState(3)
    zs = (rng.uniform(-50, 50, 40) + 1j * rng.uniform(-50, 50, 40)).tolist()
    zs += [-0.3 + 1e-3j, -0.3 - 1e-16j, 2e3 - 1e4j, 1e-10]
    returned = raised = 0
    for max_iter in range(4):
        monkeypatch.setattr(sc.delay, "LAMBERT_W_MAX_ITER", max_iter)
        for z in zs:
            for k in range(-2, 3):
                try:
                    w = sc.lambert_w(z, k)
                except sc.NumericalFailure:
                    raised += 1
                    continue
                returned += 1
                assert abs(w * cmath.exp(w) - z) <= residual_bound(z, k)
    assert returned > 0 and raised > 0


@pytest.mark.parametrize("z", [-2671.642824788762, 1e13, -1e13j, 3e3 + 4e3j])
def test_lambert_w_large_argument_regression(z):
    # an absolute residual bound of 1e-12 lies below the rounding error of w e^w
    # once |z| is about 1e3, so W_0 raised NumericalFailure at the first z, the
    # eigenvalue -7.633 of demo6's M(1.1) times tau = 350, and every branch at
    # the third
    for k in range(-2, 3):
        ref = complex(scipy.special.lambertw(z, k))
        assert abs(sc.lambert_w(z, k) - ref) <= FOUR_UNIT_ROUNDOFF * abs(ref)


def test_lambert_w_large_arguments_match_scipy():
    rng = np.random.RandomState(13)
    for _ in range(500):
        z = 10 ** rng.uniform(3, 13) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        k = rng.randint(-2, 3)
        w = sc.lambert_w(z, k)
        ref = complex(scipy.special.lambertw(z, k))
        assert abs(w - ref) <= FOUR_UNIT_ROUNDOFF * abs(ref)
        assert abs(w * cmath.exp(w) - z) <= residual_bound(z, k)


def test_lambert_w_lower_half_plane_mirrors_the_upper():
    # W_k(conj z) = conj W_-k(z): Im z < 0 is solved on the upper half-plane
    rng = np.random.RandomState(17)
    for _ in range(200):
        z = complex(rng.uniform(-8, 8), rng.uniform(0.0, 8))
        k = rng.randint(-2, 3)
        assert sc.lambert_w(z.conjugate(), -k) == sc.lambert_w(z, k).conjugate()


def test_lambert_w_just_below_the_cut():
    # W_1 within 1e-20 below the cut (-1/e, 0) raised NumericalFailure; it is
    # the conjugate of W_-1 just above the cut
    z = -0.26538566651671214 - 1e-20j
    ref = complex(scipy.special.lambertw(z, 1))
    assert abs(sc.lambert_w(z, 1) - ref) <= 1e-12 * abs(ref)


def test_lambert_w_real_negative_branches():
    # real z in (-1/e, 0): both real branches
    for z in [-0.05, -0.2, -0.3]:
        w0 = sc.lambert_w(z, 0)
        wm1 = sc.lambert_w(z, -1)
        assert abs(w0.imag) <= 1e-12 and w0.real > -1
        assert abs(wm1.imag) <= 1e-12 and wm1.real < -1


# ------------------------------------------------------------- tau_critical

def test_tau_critical_real_spectrum():
    margin = sc.tau_critical(Spectrum([0, -2, -2, -2]))
    assert margin.tau_c == pytest.approx(math.pi / 4, abs=1e-12)
    assert margin.crossing_frequency == pytest.approx(2.0, abs=1e-12)


def test_tau_critical_scalar():
    margin = sc.tau_critical(Spectrum([0, -1]))
    assert margin.tau_c == pytest.approx(math.pi / 2, abs=1e-12)


def test_tau_critical_preconditions():
    with pytest.raises(sc.PreconditionViolated):
        sc.tau_critical(Spectrum([0, 0, -1]))
    with pytest.raises(sc.PreconditionViolated):
        sc.tau_critical(Spectrum([0, 0.5, -1]))


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
    with pytest.raises(sc.NotStronglyConnected):
        sc.tau_tilde_bound(sc.build_graph(2, [(1, 2)]))
    assert issubclass(sc.NotStronglyConnected, sc.PreconditionViolated)


def test_tau_tilde_conservative(demo6, two_node):
    # the closed-form bound is only guaranteed for small coupling gains
    for g in (demo6, two_node):
        tilde = sc.tau_tilde_bound(g)
        for eps in [0.01, 0.05, 0.1]:
            margin = sc.tau_critical(sc.spectrum(sc.build_system(g, eps)))
            assert tilde <= margin.tau_c


# ----------------------------------------------------------- rightmost_root

def test_rightmost_root_scalar_margin():
    spec = Spectrum([-1.0])
    root = sc.rightmost_root(spec, math.pi / 2)
    assert abs(root.root.real) <= 1e-9
    assert root.residual <= 1e-10


def test_rightmost_root_scalar_small_delay():
    spec = Spectrum([-1.0])
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
    # both routes share one check: a NaN or infinite delay is a bad parameter,
    # not a solver failure
    for solver in (sc.rightmost_root, sc.rightmost_root_oracle):
        for tau in (math.nan, math.inf):
            with pytest.raises(sc.InvalidParameter) as info:
                solver(spec, tau)
            assert str(info.value) == "tau must be finite, got %r" % tau


def test_rightmost_root_residual_and_dominance(demo6):
    spec = sc.spectrum(sc.build_system(demo6, 1.1))
    for tau in [0.05, 0.19, 0.3]:
        best = sc.rightmost_root(spec, tau)
        assert best.residual <= 1e-10
        # no scanned candidate beats the returned root
        for lam in spec.eigenvalues:
            if abs(lam) <= NULL_TOLERANCE:
                continue
            for k in range(-2, 3):
                s = sc.lambert_w(tau * complex(lam), k) / tau
                assert s.real <= best.root.real + 1e-9


def test_rightmost_root_matches_brute_force_reference(demo6):
    # the reference is the (Re, Im) maximum over every candidate, so the scan may
    # not drift to the conjugate root or to another eigenvalue
    n40 = sc.random_strongly_connected(40, 120, seed=5)
    for g, eps in [(demo6, 1.1), (demo6, 0.4), (n40, 1.0)]:
        spec = sc.spectrum(sc.build_system(g, eps))
        for tau in [0.01, 0.05, 0.1, 0.19, 0.3, 0.6, 1.2]:
            s, i, lam = max(((complex(scipy.special.lambertw(tau * lam, k)) / tau, i, lam)
                             for i, lam in zip(spec.nonnull_index, spec.nonnull)
                             for k in range(-2, 3)),
                            key=lambda c: (c[0].real, c[0].imag))
            best = sc.rightmost_root(spec, tau)
            assert best.source_eigenvalue_index == i
            assert abs(best.root - s) <= 1e-9 * max(1.0, abs(s))
            assert abs(best.residual - abs(s * cmath.exp(s * tau) - lam)) <= 1e-12


def test_rightmost_root_wrong_branch_cell():
    # the residual-only lambert_w returned W_-1 for the dominant eigenvalue
    # here, so the scan reported -0.18886, left of the true rightmost root
    g = sc.random_strongly_connected(9, 2, seed=30)
    spec = sc.spectrum(sc.build_system(g, 0.2))
    root = sc.rightmost_root(spec, 0.4).root
    assert root.real == pytest.approx(-0.15733, abs=1e-5)
    assert abs(root.real - sc.rightmost_root_oracle(spec, 0.4).real) <= 1e-6


def test_rightmost_root_skips_a_failing_nonprincipal_branch(monkeypatch, demo6):
    # within 1e-300 of the cut (-1/e, 0), lambert_w(z, 1) raises NumericalFailure;
    # it must not fail the whole scan, since W_1 is never rightmost
    z = -0.16742812030682716 - 1e-300j
    with pytest.raises(sc.NumericalFailure):
        sc.lambert_w(z, 1)
    spec = Spectrum([0.0, z, z.conjugate()])
    root = sc.rightmost_root(spec, 1.0).root
    expected = max((complex(scipy.special.lambertw(lam, 0)) for lam in (z, z.conjugate())),
                   key=lambda w: (w.real, w.imag))
    assert abs(root - expected) <= 1e-12

    # every k != 0 branch failing leaves the root unchanged; a W_0 failure still raises
    spec = sc.spectrum(sc.build_system(demo6, 1.1))
    expected = sc.rightmost_root(spec, 0.2)
    lambert_w = sc.delay.lambert_w

    def failing(branches):
        def patched(z, k=0):
            if k in branches:
                raise sc.NumericalFailure("branch %d" % k)
            return lambert_w(z, k)
        return patched

    monkeypatch.setattr(sc.delay, "lambert_w", failing({-2, -1, 1, 2}))
    assert sc.rightmost_root(spec, 0.2) == expected
    monkeypatch.setattr(sc.delay, "lambert_w", failing({0}))
    with pytest.raises(sc.NumericalFailure, match="branch 0"):
        sc.rightmost_root(spec, 0.2)


# ---------------------------------------------------------------- oracle

def test_oracle_scalar_margin():
    root = sc.rightmost_root_oracle(Spectrum([-1.0]), math.pi / 2)
    # of the pair s = +-i, the root with Im >= 0, as rightmost_root reports it
    assert abs(root - 1j) <= 1e-6


def test_oracle_folds_an_eigenvalue_without_its_conjugate():
    # the oracle folds eigenvalues to Im >= 0 instead of dropping those below:
    # a spectrum that is not closed under conjugation keeps its roots
    for lam in (-1 - 1j, -1 + 1j):
        spec = Spectrum([0.0, lam])
        orc = sc.rightmost_root_oracle(spec, 0.5)
        lw = sc.rightmost_root(spec, 0.5).root
        assert abs(orc - complex(lw.real, abs(lw.imag))) <= 1e-6


def test_oracle_matches_lambert(demo6):
    spec = sc.spectrum(sc.build_system(demo6, 1.1))
    for tau in [0.1, 0.19, 0.3]:
        lw = sc.rightmost_root(spec, tau).root
        orc = sc.rightmost_root_oracle(spec, tau)
        assert abs(lw.real - orc.real) <= 1e-6
        assert abs(abs(lw.imag) - abs(orc.imag)) <= 1e-6


@pytest.mark.parametrize("seed", [None, 1, 2, 3], ids=["demo6", "n6-1", "n6-2", "n6-3"])
def test_oracle_matches_full_generator_reference(demo6, seed):
    # the scalar generators, one per eigenvalue, have the full generator's
    # eigenvalues; of a conjugate pair both report the root with Im >= 0. The
    # random graphs at n = 6 fail every oracle mutant that graphs of n = 24 fail
    # (roots not folded to Im >= 0, Im lambda dropped, a wrong boundary row,
    # ...), at a twentieth of the cost
    g = demo6 if seed is None else sc.random_strongly_connected(6, 18, seed=seed)
    for eps in (0.5, 1.1):
        m = sc.build_system(g, eps)
        spec = sc.spectrum(m)
        tau_c = sc.tau_critical(spec).tau_c
        for frac in (0.3, 0.8, 1.4):
            orc = sc.rightmost_root_oracle(spec, frac * tau_c)
            assert orc.imag >= 0
            assert abs(orc - reference_oracle(m, frac * tau_c, 30)) <= 1e-10


def test_oracle_small_delay_limit(demo6):
    spec = sc.spectrum(sc.build_system(demo6, 1.1))
    orc = sc.rightmost_root_oracle(spec, 1e-6)
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
    assert smap.max_root_residual == max(
        sc.rightmost_root(sc.spectrum(sc.build_system(demo6, eps)), tau).residual
        for eps in eps_grid for tau in tau_grid[1:])


def test_stability_map_lists_cells_without_nonnull_eigenvalue():
    # M(0) of a one-node graph is the zero matrix: no non-null eigenvalue
    smap = sc.stability_map(sc.build_graph(1, []), [0.0, 0.5], [0.0, 0.1])
    assert [cell[:2] for cell in smap.failures] == [(0, 0), (0, 1)]
    assert np.isnan(smap.lambda_r_real[0]).all()
    assert np.isfinite(smap.lambda_r_real[1]).all()


def test_stability_map_keeps_each_cells_whole_root(demo6):
    smap = sc.stability_map(demo6, [0.8, 1.1], [0.0, 0.1, 0.3])
    for a, eps in enumerate(smap.eps_grid):
        spec = sc.spectrum(sc.build_system(demo6, eps))
        # tau = 0: the matrix eigenvalue, no source index, no residual
        assert smap.roots[a, 0] == spec.nonnull[0]
        assert smap.source_index[a, 0] == -1 and np.isnan(smap.residual[a, 0])
        for b in (1, 2):
            root = sc.rightmost_root(spec, smap.tau_grid[b])
            assert smap.roots[a, b] == root.root
            assert smap.source_index[a, b] == root.source_eigenvalue_index
            assert smap.residual[a, b] == root.residual
    assert np.array_equal(smap.lambda_r_real, smap.roots.real)


def test_stability_map_failed_cells_hold_nan():
    smap = sc.stability_map(sc.build_graph(1, []), [0.0], [0.0, 0.1])
    assert np.isnan(smap.roots.real).all()
    assert (smap.source_index == -1).all() and np.isnan(smap.residual).all()
    assert math.isnan(smap.max_root_residual)


@pytest.mark.parametrize("call,message", [
    (lambda g: sc.stability_map(g, np.array([0.5, -0.5]), [0.1]),
     "epsilon must be non-negative, got -0.5"),
    (lambda g: sc.stability_map(g, [0.5], np.array([0.0, -0.1])),
     "tau must be non-negative, got -0.1"),
    (lambda g: sc.sweep_tau_c(g, np.array([0.5, -0.5])),
     "epsilon must be non-negative, got -0.5"),
    (lambda g: sc.build_system(g, np.float64(-0.5)),
     "epsilon must be non-negative, got -0.5"),
    (lambda g: sc.rightmost_root(sc.spectrum(sc.build_system(g, 1.0)), np.float64(-0.1)),
     "tau must be positive, got -0.1"),
], ids=["stability_map-eps", "stability_map-tau", "sweep_tau_c", "build_system",
        "rightmost_root"])
def test_negative_parameter_raises_with_a_plain_float(demo6, call, message):
    with pytest.raises(sc.InvalidParameter) as info:
        call(demo6)
    assert str(info.value) == message


def test_crossing_bisection_matches_margin(demo6):
    spec = sc.spectrum(sc.build_system(demo6, 1.1))
    margin = sc.tau_critical(spec)
    tau_star = sc.bisect_tau_crossing(spec, 0.5 * margin.tau_c, 2 * margin.tau_c)
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
        orc = reference_oracle(sys, tau, 30)
        assert abs(lw.real - orc.real) <= 1e-6
