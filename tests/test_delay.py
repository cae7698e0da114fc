import cmath
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import surplus_consensus as sc
from surplus_consensus.delay import FOUR_UNIT_ROUNDOFF
from surplus_consensus.system import Spectrum

from conftest import bisect_crossing, max_nonnull_real, reference_oracle


@pytest.fixture(autouse=True)
def no_kept_solve():
    """Each test starts with no lambert_w solve kept, and leaves none that a patched
    cap or start point made."""
    sc.delay._upper.cache_clear()
    yield
    sc.delay._upper.cache_clear()


def fresh_lambert_w(z, k):
    """lambert_w(z, k) solved from scratch: nothing kept from an earlier call."""
    sc.delay._upper.cache_clear()
    return sc.lambert_w(z, k)


def uncached_lambert_w(z, k):
    """lambert_w(z, k) by the upper half-plane solver past its cache: it neither
    reads nor keeps a solve."""
    z = complex(z)
    if z.imag < 0:
        return sc.delay._upper.__wrapped__(z.conjugate(), -k).conjugate()
    return sc.delay._upper.__wrapped__(z, k)


def bits(w):
    return w.real.hex(), w.imag.hex()


def residual_bound(z, k):
    """The residual bound lambert_w documents for W_k(z): the rounding error of w e^w."""
    return FOUR_UNIT_ROUNDOFF * abs(z) * (1.0 + abs(cmath.log(z) + 2j * math.pi * k))


# ---------------------------------------------------------------- lambert_w

def test_lambert_w_identities():
    assert sc.lambert_w(math.e, 0) == pytest.approx(1.0, abs=1e-12)
    assert sc.lambert_w(0, 0) == 0
    w = sc.lambert_w(-math.pi / 2, 0)
    assert w == pytest.approx(1j * math.pi / 2, abs=1e-10)
    assert abs(w * cmath.exp(w) + math.pi / 2) <= residual_bound(-math.pi / 2, 0)


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
        assert abs(w * cmath.exp(w) - z) <= residual_bound(z, k)


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


def test_lambert_w_is_within_a_few_ulps_of_scipy():
    # u |W / (1 + W)| is how far W moves when z moves by u |z|. Stopped at the
    # rounding error of w e^w, Halley lands within 37 of these units here; stopped at
    # a residual of 1e-12, above that rounding for |z| < 1, it lands up to 7,913 away
    u = 2.0 ** -53
    rng = np.random.RandomState(29)
    zs = 10 ** rng.uniform(-8, 4, 2000) * np.exp(1j * rng.uniform(-math.pi, math.pi, 2000))
    for z, k in zip(zs.tolist(), rng.randint(-2, 3, 2000).tolist()):
        ref = complex(scipy.special.lambertw(z, k))
        assert abs(sc.lambert_w(z, k) - ref) <= 128 * u * abs(ref / (1.0 + ref)), (z, k)


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
    # at 2e3 - 1e4j that bound is the rounding term, 4.7e-11 to 8.0e-11. The w is
    # this cap's own solve: the kept solves are dropped at each change of the cap,
    # so none made under another cap answers
    rng = np.random.RandomState(3)
    zs = (rng.uniform(-50, 50, 40) + 1j * rng.uniform(-50, 50, 40)).tolist()
    zs += [-0.3 + 1e-3j, -0.3 - 1e-16j, 2e3 - 1e4j, 1e-10]
    returned = raised = 0
    for max_iter in range(4):
        monkeypatch.setattr(sc.delay, "LAMBERT_W_MAX_ITER", max_iter)
        sc.delay._upper.cache_clear()
        for z in zs:
            for k in range(-2, 3):
                try:
                    w = sc.lambert_w(z, k)
                except sc.NumericalFailure:
                    raised += 1
                    continue
                returned += 1
                assert abs(w * cmath.exp(w) - z) <= residual_bound(z, k)
                assert bits(w) == bits(uncached_lambert_w(z, k))
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
    # W_k(conj z) = conj W_-k(z): Im z < 0 is solved on the upper half-plane, and
    # the second call of a mirror pair, in either order, takes the first one's kept
    # w yet gives each argument, bit for bit, what a fresh solve of it gives
    rng = np.random.RandomState(17)
    for _ in range(200):
        z = complex(rng.uniform(-8, 8), rng.uniform(0.0, 8))
        k = rng.randint(-2, 3)
        pair = [(z, k), (z.conjugate(), -k)]
        expected = {arg: bits(fresh_lambert_w(*arg)) for arg in pair}
        assert sc.lambert_w(*pair[1]) == sc.lambert_w(*pair[0]).conjugate()
        for order in (pair, pair[::-1]):
            sc.delay._upper.cache_clear()
            for arg in order:
                assert bits(sc.lambert_w(*arg)) == expected[arg]
            info = sc.delay._upper.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_lambert_w_does_not_keep_a_failed_branch(monkeypatch):
    # with no Halley step no start point at z meets the bound: the failure is not
    # kept, so the mirror call is solved and fails too, each naming its own z and k,
    # and once the cap is back the mirror is solved anew
    z, k, cap = 1.5 + 2.5j, 0, sc.delay.LAMBERT_W_MAX_ITER
    for first, mirror in (((z, k), (z.conjugate(), -k)), ((z.conjugate(), -k), (z, k))):
        monkeypatch.setattr(sc.delay, "LAMBERT_W_MAX_ITER", 0)
        sc.delay._upper.cache_clear()
        for arg in (first, mirror):
            with pytest.raises(sc.NumericalFailure) as info:
                sc.lambert_w(*arg)
            assert str(info.value) == (
                "Lambert W branch %d failed to converge for z = %r" % (arg[1], arg[0]))
        info = sc.delay._upper.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)
        monkeypatch.setattr(sc.delay, "LAMBERT_W_MAX_ITER", cap)
        w = sc.lambert_w(*mirror)
        info = sc.delay._upper.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 1)
        assert bits(w) == bits(fresh_lambert_w(*mirror))
        assert abs(w * cmath.exp(w) - mirror[0]) <= residual_bound(*mirror)


def test_lambert_w_solves_an_argument_one_ulp_away_anew():
    z, k = 1.5 + 2.5j, -1
    near = complex(math.nextafter(z.real, math.inf), z.imag)
    assert bits(fresh_lambert_w(near, k)) != bits(fresh_lambert_w(z, k))
    for arg in ((near, k), (near.conjugate(), -k)):
        expected = bits(fresh_lambert_w(*arg))
        sc.delay._upper.cache_clear()
        sc.lambert_w(z, k)
        assert bits(sc.lambert_w(*arg)) == expected
        # the argument one ulp away was solved, not answered by z's kept w
        info = sc.delay._upper.cache_info()
        assert (info.hits, info.misses) == (0, 2)


def test_root_scan_solves_each_conjugate_pair_once(monkeypatch):
    # 180 conjugate pairs, 39 real eigenvalues and the null one: the scan's 1,995
    # calls solve 5 branches of each of 219 arguments, answer the 900 calls of the
    # pairs' second eigenvalues from the kept solves, and keep five solves at most
    rng = np.random.RandomState(23)
    upper = -rng.uniform(0.1, 30, 180) + 1j * rng.uniform(0.1, 30, 180)
    spec = Spectrum(np.concatenate([upper, upper.conjugate(), -rng.uniform(0.1, 30, 39), [0]]))
    tau = 0.1

    with monkeypatch.context() as patch:
        patch.setattr(sc.delay, "_upper", sc.delay._upper.__wrapped__)
        expected = sc.rightmost_root(spec, tau)
    start_points, solves = sc.delay._start_points, []

    def counted(z, k, *args):
        solves.append((z, k))
        return start_points(z, k, *args)

    monkeypatch.setattr(sc.delay, "_start_points", counted)
    root = sc.rightmost_root(spec, tau)
    assert (bits(root.root), root.source_eigenvalue_index, root.residual) == (
        bits(expected.root), expected.source_eigenvalue_index, expected.residual)
    assert len(solves) == len(set(solves)) == 5 * 219
    info = sc.delay._upper.cache_info()
    assert (info.hits, info.misses, info.currsize) == (5 * 180, 5 * 219, 5)


def test_lambert_w_skips_a_start_point_that_overflows(monkeypatch):
    # Halley from w = 1000 overflows in exp(w) at once: that start point is skipped
    # and the next one gives, bit for bit, what an unpatched solve gives
    start_points, tried = sc.delay._start_points, []

    def overflowing_first(*args):
        tried.append(args[:2])
        yield 1000.0 + 0j
        yield from start_points(*args)

    for z, k in ((1.5 + 2.5j, 0), (1.5 - 2.5j, 1), (-0.3 + 0j, -1), (2e3 - 1e4j, 2)):
        expected = bits(fresh_lambert_w(z, k))
        sc.delay._upper.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(sc.delay, "_start_points", overflowing_first)
            assert bits(sc.lambert_w(z, k)) == expected
    assert len(tried) == 4


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


@pytest.mark.parametrize("h", [1e-5, 1e-6, 1e-7])
def test_lambert_w_near_the_branch_point(h):
    # W_0 and W_-1 meet at -1/e, where w e^w - z is quadratic in the error of w, so
    # a Halley run that stops on the residual stopped W_0 2.6e-7 from x at h = 1e-6;
    # the rounding of x e^x allows an error of about u/h, u = 2^-53
    for k, x in ((0, -1.0 + h), (-1, -1.0 - h)):
        assert abs(sc.lambert_w(x * math.exp(x), k) - x) <= 10 * 2.0 ** -53 / h


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
        for lam in spec.nonnull:
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
    # within 1e-300 of the cut (-1/e, 0), W_1 below it and W_-1 above it are the
    # real W_-1 to rounding, and take its exemption from the unwinding-number test
    z = -0.16742812030682716 - 1e-300j
    for zk, k in ((z, 1), (z.conjugate(), -1)):
        w = sc.lambert_w(zk, k)
        assert abs(w - complex(scipy.special.lambertw(zk, k))) <= 1e-12 * abs(w)
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

def test_sweep_tau_c_demo(demo6):
    grid = np.round(np.arange(0.2, 1.8001, 0.2), 10)
    margins = sc.stability_map(demo6, grid, [0.0]).margins
    assert len(margins) == grid.size
    for margin, reason in margins:
        assert reason is None
        assert 0 < margin.tau_c < 1


def test_sweep_tau_c_two_node_limit(two_node):
    (margin, _), = sc.stability_map(two_node, [1e-6], [0.0]).margins
    # the limiting eigenvalue -2 is defective at eps=0, so convergence to the
    # pi/4 limit is only O(sqrt(eps))
    assert margin.tau_c == pytest.approx(math.pi / 4, rel=2e-3)


def test_sweep_tau_c_reports_bad_points():
    ring = sc.build_graph(6, [(i, i % 6 + 1) for i in range(1, 7)])
    smap = sc.stability_map(ring, [0.2, 2.0], [0.0])
    assert smap.margins[0][0] is not None
    assert smap.margins[1][0] is None and smap.margins[1][1]
    # a refused margin is not a failed cell
    assert not smap.failures


def test_stability_map_margins_match_tau_critical(demo6):
    eps_grid = [0.0, 0.8, 1.1]
    smap = sc.stability_map(demo6, eps_grid, [0.0, 0.1])
    # eps = 0 has two null eigenvalues: its margin is refused, its cells are not
    assert smap.margins[0] == (None, "expected exactly one null eigenvalue, found 2")
    assert not smap.failures
    for eps, (margin, reason) in zip(eps_grid[1:], smap.margins[1:]):
        assert reason is None
        assert margin == sc.tau_critical(sc.spectrum(sc.build_system(demo6, eps)))


def test_stability_map_consistency(demo6):
    eps_grid = [0.8, 1.1]
    tau_grid = [0.0, 0.1, 0.3]
    smap = sc.stability_map(demo6, eps_grid, tau_grid)
    assert smap.roots.real.shape == (2, 3)
    assert not smap.failures
    assert np.all(np.isfinite(smap.roots.real))
    for a, eps in enumerate(eps_grid):
        spec = sc.spectrum(sc.build_system(demo6, eps))
        # tau = 0 column equals the matrix eigenvalue
        assert smap.roots.real[a, 0] == pytest.approx(max_nonnull_real(spec), abs=1e-12)
        margin = sc.tau_critical(spec)
        for b, tau in enumerate(tau_grid):
            if tau > margin.tau_c:
                assert smap.roots.real[a, b] > 0
    assert smap.max_root_residual == max(
        sc.rightmost_root(sc.spectrum(sc.build_system(demo6, eps)), tau).residual
        for eps in eps_grid for tau in tau_grid[1:])


def test_stability_map_keeps_lambda2_at_tiny_eps(demo6):
    # lambda_2 ~ lambda2_slope * eps is the slow mode: at eps <= 1e-9 it must not
    # be split off as a second null and leave another root in its place
    slope = sc.lambda2_slope(demo6)
    smap = sc.stability_map(demo6, [1e-10, 1e-9], [0.0, 0.2])
    assert smap.failures == []
    for a, eps in enumerate(smap.eps_grid):
        for b in range(2):
            assert abs(smap.roots[a, b] - slope * eps) <= 1e-3 * abs(slope * eps)


def test_stability_map_lists_cells_without_nonnull_eigenvalue():
    # M(0) of a one-node graph is the zero matrix: no non-null eigenvalue
    smap = sc.stability_map(sc.build_graph(1, []), [0.0, 0.5], [0.0, 0.1])
    assert [cell[:2] for cell in smap.failures] == [(0, 0), (0, 1)]
    assert np.isnan(smap.roots.real[0]).all()
    assert np.isfinite(smap.roots.real[1]).all()


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


def test_stability_map_lists_every_cell_of_a_row_whose_spectrum_fails(monkeypatch, demo6):
    # a failed eigensolve at one eps fails that row's every cell, with its reason,
    # and leaves the other rows as an unpatched run has them
    eps_grid, tau_grid = [0.8, 1.1, 1.4], [0.0, 0.1, 0.3]
    expected = sc.stability_map(demo6, eps_grid, tau_grid)
    spectrum, reason = sc.delay.system_mod.spectrum, "eigenvalue computation failed: patched"

    def failing_at_1_1(m):
        if m[0, demo6.n] == 1.1:  # M(eps)'s top-right block is eps I
            raise sc.NumericalFailure(reason)
        return spectrum(m)

    monkeypatch.setattr(sc.delay.system_mod, "spectrum", failing_at_1_1)
    smap = sc.stability_map(demo6, eps_grid, tau_grid)
    assert smap.failures == [(1, b, reason) for b in range(3)]
    assert smap.margins[1] == (None, reason)
    assert np.isnan(smap.roots[1]).all() and np.isnan(smap.residual[1]).all()
    assert (smap.source_index[1] == -1).all()
    for a in (0, 2):
        assert smap.margins[a] == expected.margins[a]
        assert np.array_equal(smap.roots[a], expected.roots[a])
        assert np.array_equal(smap.source_index[a], expected.source_index[a])
        assert np.array_equal(smap.residual[a], expected.residual[a], equal_nan=True)


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
    # the call sweep --mode tau_c makes
    (lambda g: sc.stability_map(g, np.array([0.5, -0.5]), [0.0]),
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


def crossing_certified(spec, tau_c):
    """verify's crossing_bisection check: Re s* < 0 at tau_c (1 - 1e-6) and > 0 at
    tau_c (1 + 1e-6)."""
    below, above = (sc.rightmost_root(spec, f * tau_c).root.real
                    for f in (1.0 - 1e-6, 1.0 + 1e-6))
    return below < 0.0 < above


def test_crossing_bisection_matches_margin(demo6):
    spec = sc.spectrum(sc.build_system(demo6, 1.1))
    assert crossing_certified(spec, sc.tau_critical(spec).tau_c)


@st.composite
def _admissible_system(draw):
    """A random strongly connected digraph on 2..8 nodes and an eps in (0, 2] at
    which its spectrum is admissible, as a Spectrum."""
    n = draw(st.integers(2, 8))
    g = sc.random_strongly_connected(n, draw(st.integers(0, n * (n - 1))),
                                     draw(st.integers(0, 2 ** 32 - 1)))
    spec = sc.spectrum(sc.build_system(g, draw(st.floats(0.01, 2.0))))
    try:
        spec.require_admissible()
    except sc.PreconditionViolated:
        assume(False)
    return spec


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_admissible_system())
def test_rightmost_root_crosses_zero_once_at_tau_c(spec):
    # what verify's two-scan check rests on: each s = lambda_i e^{-s tau} has its roots
    # cross the imaginary axis only rightwards as tau grows (Matsunaga 2007), so
    # Re s*(tau) changes sign once, at tau_c; on a grid that misses tau_c, by scipy's
    # W_k, k in [-2, 2]; and the check agrees with a bisection of rightmost_root
    tau_c = sc.tau_critical(spec).tau_c
    grid = np.linspace(0.5, 2.0, 150) * tau_c
    z = grid[:, None, None] * spec.nonnull[None, :, None]
    re = scipy.special.lambertw(z, np.arange(-2, 3)).real.max(axis=(1, 2)) / grid
    changes = np.flatnonzero(np.diff(np.sign(re)))
    assert changes.size == 1 and re[0] < 0
    c = changes[0]
    assert grid[c] < tau_c < grid[c + 1]
    tau_star = bisect_crossing(spec, grid[c], grid[c + 1])
    assert abs(tau_star - tau_c) <= 1e-6 * tau_c and crossing_certified(spec, tau_c)


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
